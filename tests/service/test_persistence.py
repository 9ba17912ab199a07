"""Persistence of the serving layer: engine round-trips and format guards."""

import pickle
from pathlib import Path

import pytest

from repro.geometry.rectangles import Rect
from repro.errors import ValidationError
from repro.persist import FORMAT_VERSION, MAGIC, load_index, save_index
from repro.service import QueryEngine

from helpers import random_dataset


class TestEngineRoundTrip:
    def test_results_survive_save_load(self, rng, tmp_path):
        ds = random_dataset(rng, 120)
        engine = QueryEngine(ds, max_k=3, default_budget=256)
        queries = []
        for _ in range(8):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            queries.append((Rect((a, c), (b, d)), rng.sample(range(1, 9), 2)))
        want = [sorted(o.oid for o in r) for r in engine.batch(queries)]

        path = tmp_path / "engine.idx"
        save_index(engine, path)
        loaded = load_index(path, expected_class=QueryEngine)
        got = [sorted(o.oid for o in r) for r in loaded.batch(queries)]
        assert got == want

    def test_stats_and_cache_survive_save_load(self, rng, tmp_path):
        ds = random_dataset(rng, 80)
        engine = QueryEngine(ds, max_k=2, cache_size=16)
        rect = Rect((1.0, 1.0), (9.0, 9.0))
        engine.query(rect, [1, 2])
        path = tmp_path / "engine.idx"
        save_index(engine, path)

        loaded = load_index(path, expected_class=QueryEngine)
        assert loaded.stats()["queries"] == 1
        assert loaded.records[-1].query_id == 1
        # The warm cache travelled with the engine: same query is now a hit.
        loaded.query(rect, [2, 1])
        assert loaded.last_record.cache == "hit"

    def test_wrong_expected_class_rejected(self, rng, tmp_path):
        from repro.core.orp_kw import OrpKwIndex

        ds = random_dataset(rng, 40)
        path = tmp_path / "engine.idx"
        save_index(QueryEngine(ds, max_k=2), path)
        with pytest.raises(ValidationError):
            load_index(path, expected_class=OrpKwIndex)


class TestFormatVersionGuard:
    def test_future_format_version_rejected(self, rng, tmp_path):
        """A file written by a future library (format N+1) must be refused
        with the documented message, not mis-parsed."""
        ds = random_dataset(rng, 30)
        engine = QueryEngine(ds, max_k=2)
        future = FORMAT_VERSION + 1
        envelope = {
            "magic": MAGIC,
            "format": future,
            "library_version": "999.0.0",
            "index_class": "QueryEngine",
            "index": engine,
        }
        path = tmp_path / "future.idx"
        Path(path).write_bytes(pickle.dumps(envelope))
        with pytest.raises(ValidationError) as excinfo:
            load_index(path)
        message = str(excinfo.value)
        assert f"index file format {future} unsupported" in message
        assert f"this library reads format {FORMAT_VERSION}" in message

    def test_format_1_file_rejected(self, rng, tmp_path):
        """Format 1 is the layout before one planner per engine, format 3
        the one before the LC-KW/SRP-KW backend and ``Dynamized``'s
        telemetry went, format 4 the one whose planner sample was a list of
        point tuples, format 5 the one whose kd-tree leaves held their own
        index arrays, format 6 the one whose ORP-KW indexes kept their whole
        verbose-set kd-tree, format 7 the one whose nearest-neighbour indexes
        kept a ``budget_factor`` and whose multi-k index had no keywords-only
        index, format 8 the one whose vectorized backend pickled no fused
        indexes; their files are refused, not migrated, even when the stored
        object would load."""
        engine = QueryEngine(random_dataset(rng, 30), max_k=2)
        for old in (1, 3, 4, 5, 6, 7, 8):
            envelope = {
                "magic": MAGIC,
                "format": old,
                "library_version": "0.0.0",
                "index_class": "QueryEngine",
                "index": engine,
            }
            path = tmp_path / f"format{old}.idx"
            Path(path).write_bytes(pickle.dumps(envelope))
            with pytest.raises(ValidationError) as excinfo:
                load_index(path, expected_class=QueryEngine)
            message = str(excinfo.value)
            assert f"index file format {old} unsupported" in message
            assert f"this library reads format {FORMAT_VERSION}" in message
