"""Index persistence: save a built index to disk, load it back.

Building the larger indexes is the expensive step (O(N log N) with real
constants), so a production deployment builds once and serves many
processes.  Every index in this library is a plain object graph with no
open resources, so serialization is pickle with an integrity envelope:

* a magic marker and format version (refuse foreign/stale files loudly);
* the library version that wrote the file (warn-level metadata);
* the class name of the stored index (refuse loading a SrpKwIndex where an
  OrpKwIndex is expected).

The format version is bumped on every change to what is pickled: a class's
attributes, or the module a pickled class lives in.  A file in an older
format is refused, never migrated, so no class carries code that fills in
the fields of an older layout; pickling hooks only drop or rebuild derived
and attached state.  Rebuild the index from its data instead.

Security note (standard pickle caveat): only load index files you wrote.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Optional, Tuple, Type, Union

from .errors import ValidationError

#: File format magic + version.  Bump the version on every change to what
#: is pickled (see the module docstring).
MAGIC = "repro-index"
FORMAT_VERSION = 9


def save_index(index, path) -> None:
    """Serialize ``index`` to ``path`` (parent directories must exist)."""
    from . import __version__

    envelope = {
        "magic": MAGIC,
        "format": FORMAT_VERSION,
        "library_version": __version__,
        "index_class": type(index).__name__,
        "index": index,
    }
    payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    Path(path).write_bytes(payload)


def load_index(path, expected_class: Optional[Union[Type, Tuple[Type, ...]]] = None):
    """Load an index written by :func:`save_index`.

    Parameters
    ----------
    path:
        File to read.
    expected_class:
        If given, the stored index must be an instance of this class (or of
        one of them, when a tuple of classes is supplied — e.g. the CLI's
        serving commands accept both engine kinds).
    """
    raw = Path(path).read_bytes()
    try:
        envelope = pickle.loads(raw)
    except Exception as exc:
        raise ValidationError(f"not a repro index file: {path}") from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != MAGIC:
        raise ValidationError(f"not a repro index file: {path}")
    if envelope.get("format") != FORMAT_VERSION:
        raise ValidationError(
            f"index file format {envelope.get('format')} unsupported "
            f"(this library reads format {FORMAT_VERSION})"
        )
    index = envelope["index"]
    if expected_class is not None and not isinstance(index, expected_class):
        if isinstance(expected_class, tuple):
            wanted = " or ".join(cls.__name__ for cls in expected_class)
        else:
            wanted = expected_class.__name__
        raise ValidationError(
            f"expected a {wanted}, file holds a "
            f"{envelope.get('index_class')}"
        )
    return index
