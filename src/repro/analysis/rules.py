"""The reprolint rule set: this codebase's invariants as AST checks.

Every rule encodes a bug class that a previous PR actually shipped a fix
for (or that DESIGN.md's cost-model contract forbids):

* **R1 uncharged-traversal** — a ``query``/``search``/``report`` method of a
  class traverses tree structure (loops or self-recursion touching
  ``.children``/``.left``/``.right``) yet neither calls ``*.charge(...)``
  nor forwards a ``counter`` to a callee.  In a RAM-model reproduction an
  uncounted traversal silently corrupts the measured quantity (the PR-1
  ``MultiKOrpIndex`` k=1 bug class).
* **R2 mutate-before-validate** — an ``insert*``/``delete*``/``add*``/
  ``remove*``/``update*`` method assigns to ``self.*`` (or calls a mutating
  helper) before its last validation check has run, so a rejected input can
  leave the structure half-updated (the PR-2 ``DynamicOrpKw.insert`` class).
* **R3 mutable-escape** — a public method returns an attribute known to hold
  a ``list``/``dict``/``set`` (or an entry of a dict-of-mutables), handing
  callers a reference they can mutate to poison the index (the PR-2
  ``QueryEngine`` cache class).
* **R4 float-equality** — ``==``/``!=`` against float operands inside the
  geometry package, where tolerance-based predicates are the contract.
  Legitimate exact tests opt out with ``# reprolint: exact``.
* **R5 wall-clock-in-cost-path** — any ``time.time``/``perf_counter``/...
  use inside the cost-counted index packages: wall clock must never leak
  into RAM-model accounting.
* **R6 unseeded-rng** — module-level ``random.*``/``np.random.*`` calls in
  workload/benchmark code instead of an explicit seeded
  ``random.Random``/``np.random.default_rng`` instance: unseeded randomness
  makes benchmark numbers unreproducible.

The v2 families added on top of the CFG/dataflow engine (:mod:`.cfg`) and
the project symbol table (:mod:`.symbols`):

* **R7 epoch-publication-atomicity** — in copy-on-write classes (those with
  a ``publish``-style method rebinding a published attribute), mutators must
  not mutate published state in place, must not publish twice on one path,
  and must publish on *every* non-exceptional exit path once they build new
  state (the ``DynamicOrpKw`` contract from PR 6).
* **R8 await-holding-state** — in async service code, a read-modify-write
  of ``self.*`` state that straddles an ``await`` is not atomic under task
  interleaving unless guarded by an ``async with <lock>`` block.
* **R9 backend-charge-parity** — cross-module: the set of ``CostCounter``
  categories charged transitively on a scalar ``core/`` query path must
  equal the set charged by its vectorized ``fast/`` mirror (the PR-7
  cost-model-as-oracle contract, checked statically).
* **R10 span-discipline** — charges/probe merges outside an open
  ``TraceSpan`` (lexically or via every call site), and explicitly pushed
  spans without a guaranteed ``finally`` pop.

All rules are heuristic *by design* (no type inference; R9/R10 use a
by-name call graph, not a resolved one); the committed baseline plus
per-line opt-outs absorb accepted findings, and the fixtures under
``tests/analysis/fixtures`` pin each rule's intended positive/negative
behaviour.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .cfg import (
    EXCEPTIONAL_KINDS,
    CFGNode,
    assigned_names,
    attribute_chain,
    build_cfg,
    reaching_definitions,
)
from .findings import Finding
from .source import SourceFile
from .symbols import FunctionInfo, ProjectModel

# --------------------------------------------------------------------------
# shared AST helpers


def _self_attr(node: ast.AST) -> Optional[str]:
    """Attribute name when ``node`` is ``self.<attr>``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _attr_names(node: ast.AST) -> Set[str]:
    """All attribute names referenced anywhere under ``node``."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _calls(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _is_mutable_literal(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a fresh mutable container."""
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter"}
    return False


def _class_methods(
    cls: ast.ClassDef,
) -> Iterator[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


class Rule:
    """Base class: subclasses set the metadata and implement :meth:`check`."""

    id: str = ""
    title: str = ""
    #: reporting severity ("error" or "warning"); does not change gating.
    severity: str = "error"
    #: suppression tags honoured in addition to the rule id itself.
    extra_tags: Tuple[str, ...] = ()
    #: display-path regex limiting where the rule applies (None = everywhere).
    scope: Optional[re.Pattern] = None

    @property
    def tags(self) -> Tuple[str, ...]:
        return (self.id.lower(),) + self.extra_tags

    def applies_to(self, display_path: str) -> bool:
        return self.scope is None or bool(self.scope.search(display_path))

    def check(self, src: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, src: SourceFile, node: ast.AST, message: str) -> Finding:
        return self._finding_at(src.display_path, node, message)

    def _finding_at(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """A rule that reasons across files via a :class:`ProjectModel`.

    Project rules run once per analysis invocation (not once per file);
    the runner builds the model from every loaded source file and filters
    the returned findings through per-line suppressions and (when scopes
    are respected) :meth:`Rule.applies_to` on each finding's own path.
    """

    project = True

    def check(self, src: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# R1 — uncharged traversal


#: tree-structure attributes whose traversal must be cost-counted.
_TRAVERSAL_ATTRS = {"children", "left", "right"}

_QUERY_METHOD_RE = re.compile(r"^_*(query|search|report|visit)")


class UnchargedTraversal(Rule):
    id = "R1"
    title = "uncharged traversal in a query path"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for cls in (n for n in ast.walk(src.tree) if isinstance(n, ast.ClassDef)):
            for method in _class_methods(cls):
                if not _QUERY_METHOD_RE.match(method.name):
                    continue
                traversal = self._first_traversal(method)
                if traversal is None:
                    continue
                if self._charges_or_delegates(method):
                    continue
                yield self._finding(
                    src,
                    traversal,
                    f"{cls.name}.{method.name} traverses index structure "
                    "(.children/.left/.right) but neither charges a cost "
                    "counter nor forwards one to a callee",
                )

    @staticmethod
    def _first_traversal(method: ast.FunctionDef) -> Optional[ast.AST]:
        """First loop or self-recursive call that touches tree structure."""
        for node in ast.walk(method):
            if isinstance(node, (ast.For, ast.While)):
                if _attr_names(node) & _TRAVERSAL_ATTRS:
                    return node
            elif isinstance(node, ast.Call):
                callee = _self_attr(node.func)
                if callee == method.name and any(
                    _attr_names(arg) & _TRAVERSAL_ATTRS for arg in node.args
                ):
                    return node
        return None

    @staticmethod
    def _charges_or_delegates(method: ast.FunctionDef) -> bool:
        """A ``*.charge(...)`` call, or any call receiving a ``counter``."""
        for call in _calls(method):
            if isinstance(call.func, ast.Attribute) and call.func.attr == "charge":
                return True
            for arg in call.args:
                if isinstance(arg, ast.Name) and "counter" in arg.id.lower():
                    return True
            for kw in call.keywords:
                if kw.arg is not None and "counter" in kw.arg.lower():
                    return True
                if isinstance(kw.value, ast.Name) and "counter" in kw.value.id.lower():
                    return True
        return False


# --------------------------------------------------------------------------
# R2 — mutate before validate


_UPDATE_METHOD_RE = re.compile(r"^_*(insert|delete|add|remove|update)")
_VALIDATOR_CALL_RE = re.compile(r"^_*(validate|check|coerce|ensure)")
_MUTATING_HELPER_RE = re.compile(r"^_*(merge|rebuild|push|apply|store|register)")
#: container methods that mutate their receiver.
_CONTAINER_MUTATORS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "remove",
    "discard",
    "pop",
    "popitem",
    "clear",
    "setdefault",
    "sort",
}


class MutateBeforeValidate(Rule):
    id = "R2"
    title = "state mutation before validation completes"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for cls in (n for n in ast.walk(src.tree) if isinstance(n, ast.ClassDef)):
            for method in _class_methods(cls):
                if not _UPDATE_METHOD_RE.match(method.name):
                    continue
                yield from self._check_method(src, cls, method)

    def _check_method(
        self, src: SourceFile, cls: ast.ClassDef, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        last_validation = -1
        for index, stmt in enumerate(method.body):
            if self._contains_validation(stmt):
                last_validation = index
        if last_validation < 0:
            return
        for index, stmt in enumerate(method.body[:last_validation]):
            mutation = self._first_mutation(stmt)
            if mutation is not None:
                yield self._finding(
                    src,
                    mutation,
                    f"{cls.name}.{method.name} mutates self before its last "
                    f"validation check (statement {last_validation + 1}) has "
                    "run; a rejected input would leave the structure "
                    "half-updated",
                )
                return  # one finding per method is enough to fix it

    @staticmethod
    def _contains_validation(stmt: ast.stmt) -> bool:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc
                if isinstance(target, ast.Call):
                    target = target.func
                name = (
                    target.id
                    if isinstance(target, ast.Name)
                    else target.attr
                    if isinstance(target, ast.Attribute)
                    else ""
                )
                if name.endswith("Error"):
                    return True
            elif isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else ""
                )
                if _VALIDATOR_CALL_RE.match(name):
                    return True
        return False

    @staticmethod
    def _roots_in_self(target: ast.AST) -> bool:
        """Whether an assignment target is ``self.<...>`` however nested."""
        base = target
        while isinstance(base, (ast.Subscript, ast.Starred, ast.Attribute)):
            if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                return base.value.id == "self"
            base = base.value
        return False

    @classmethod
    def _first_mutation(cls, stmt: ast.stmt) -> Optional[ast.AST]:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue  # bare annotation: nothing assigned
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if any(cls._roots_in_self(target) for target in targets):
                    return node
            elif isinstance(node, ast.Delete):
                if any(cls._roots_in_self(target) for target in node.targets):
                    return node
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                # self.attr.append(...) — container mutation
                if (
                    node.func.attr in _CONTAINER_MUTATORS
                    and _self_attr(node.func.value) is not None
                ):
                    return node
                # self._merge_in(...) — mutating helper by naming convention
                if _self_attr(node.func) is not None and _MUTATING_HELPER_RE.match(
                    node.func.attr
                ):
                    return node
        return None


# --------------------------------------------------------------------------
# R3 — mutable escape


class MutableEscape(Rule):
    id = "R3"
    title = "public method returns a mutable internal"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for cls in (n for n in ast.walk(src.tree) if isinstance(n, ast.ClassDef)):
            mutable_attrs, dict_of_mutables = self._mutable_attributes(cls)
            if not mutable_attrs and not dict_of_mutables:
                continue
            for method in _class_methods(cls):
                if method.name.startswith("_"):
                    continue  # private/dunder: callers accept sharp edges
                for ret in (
                    n for n in ast.walk(method) if isinstance(n, ast.Return)
                ):
                    escaped = self._escaped_attr(
                        ret.value, mutable_attrs, dict_of_mutables
                    )
                    if escaped is not None:
                        yield self._finding(
                            src,
                            ret,
                            f"{cls.name}.{method.name} returns mutable internal "
                            f"state self.{escaped}; return a copy (or an "
                            "immutable view) so callers cannot poison the index",
                        )

    @staticmethod
    def _mutable_attributes(
        cls: ast.ClassDef,
    ) -> Tuple[Set[str], Set[str]]:
        """Attrs assigned fresh mutable containers / used as dict-of-mutables."""
        mutable: Set[str] = set()
        dict_of: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                if value is None:
                    continue
                for target in targets:
                    attr = _self_attr(target)
                    if attr is not None and _is_mutable_literal(value):
                        mutable.add(attr)
                    # self.attr[key] = <mutable> — dict-of-mutables
                    if (
                        isinstance(target, ast.Subscript)
                        and _self_attr(target.value) is not None
                        and _is_mutable_literal(value)
                    ):
                        dict_of.add(_self_attr(target.value))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                # self.attr.setdefault(k, <mutable>) — dict-of-mutables
                if (
                    node.func.attr == "setdefault"
                    and _self_attr(node.func.value) is not None
                    and len(node.args) >= 2
                    and _is_mutable_literal(node.args[1])
                ):
                    dict_of.add(_self_attr(node.func.value))
        return mutable, dict_of

    @staticmethod
    def _escaped_attr(
        value: Optional[ast.AST],
        mutable_attrs: Set[str],
        dict_of_mutables: Set[str],
    ) -> Optional[str]:
        if value is None:
            return None
        # return self.attr
        attr = _self_attr(value)
        if attr in mutable_attrs or attr in dict_of_mutables:
            return attr
        # return self.attr[key]
        if isinstance(value, ast.Subscript):
            attr = _self_attr(value.value)
            if attr in dict_of_mutables:
                return attr
        # return self.attr.get(key, default)
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "get"
        ):
            attr = _self_attr(value.func.value)
            if attr in dict_of_mutables:
                return attr
        return None


# --------------------------------------------------------------------------
# R4 — float equality in geometry


class FloatEquality(Rule):
    id = "R4"
    title = "exact float equality in geometry code"
    extra_tags = ("exact",)
    scope = re.compile(r"(^|/)repro/geometry/")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(self._looks_float(operand) for operand in operands):
                yield self._finding(
                    src,
                    node,
                    "==/!= against a float operand; use a tolerance-based "
                    "predicate, or append '# reprolint: exact' for a "
                    "legitimate exact-representation test",
                )

    @staticmethod
    def _looks_float(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "float"
            ):
                return True
        return False


# --------------------------------------------------------------------------
# R5 — wall clock in the cost path


_CLOCK_NAMES = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock",
}


class WallClockInCostPath(Rule):
    id = "R5"
    title = "wall clock inside the RAM-model cost path"
    # trace/ is in scope on purpose: spans carry cost-unit deltas and must
    # stay timestamp-free, or traced and untraced runs would diverge.
    # telemetry/ likewise: every estimator is keyed on cost units and event
    # counts; the one sanctioned wall-clock (clock.MonotonicClock) is the
    # single baselined R5 finding.
    scope = re.compile(
        r"(^|/)repro/(core|kdtree|partitiontree|ksi|irtree|trace|telemetry)/"
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr in _CLOCK_NAMES
            ):
                yield self._finding(
                    src,
                    node,
                    f"time.{node.attr} in a cost-counted index package; the "
                    "RAM-model cost counter is the only clock allowed here",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                clocks = sorted(
                    alias.name for alias in node.names if alias.name in _CLOCK_NAMES
                )
                if clocks:
                    yield self._finding(
                        src,
                        node,
                        f"imports {', '.join(clocks)} from time in a "
                        "cost-counted index package; the RAM-model cost "
                        "counter is the only clock allowed here",
                    )


# --------------------------------------------------------------------------
# R6 — unseeded RNG in workloads/benchmarks


#: module-level random.* calls that are themselves seeding/construction.
_RANDOM_ALLOWED = {"seed", "Random", "SystemRandom", "getstate", "setstate"}
_NP_RANDOM_ALLOWED = {"seed", "default_rng", "get_state", "set_state"}


class UnseededRng(Rule):
    id = "R6"
    title = "unseeded module-level RNG in workload/benchmark code"
    scope = re.compile(r"(^|/)(repro/workloads|benchmarks)/")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            # random.<fn>(...)
            if isinstance(func.value, ast.Name) and func.value.id == "random":
                if func.attr == "Random" and not node.args and not node.keywords:
                    yield self._finding(
                        src,
                        node,
                        "random.Random() without a seed; pass an explicit "
                        "seed so workloads are reproducible",
                    )
                elif func.attr not in _RANDOM_ALLOWED:
                    yield self._finding(
                        src,
                        node,
                        f"module-level random.{func.attr}(...) draws from "
                        "shared unseeded state; use a seeded random.Random "
                        "instance instead",
                    )
            # np.random.<fn>(...) / numpy.random.<fn>(...)
            elif (
                isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in {"np", "numpy"}
            ):
                if func.attr == "RandomState" and (node.args or node.keywords):
                    continue  # explicitly seeded legacy generator
                if func.attr not in _NP_RANDOM_ALLOWED:
                    yield self._finding(
                        src,
                        node,
                        f"module-level {func.value.value.id}.random."
                        f"{func.attr}(...) draws from shared unseeded state; "
                        "use np.random.default_rng(seed) instead",
                    )


# --------------------------------------------------------------------------
# R7 — epoch publication atomicity (CFG-based)


_PUBLISH_METHOD_RE = re.compile(r"^_*publish")
_R7_MUTATOR_RE = re.compile(
    r"^_*(insert|delete|add|remove|update|rebuild|clear|compact|merge)"
)


class EpochPublicationAtomicity(Rule):
    """In a copy-on-write class (one with a ``publish``-style method that
    rebinds a published attribute), every mutator must build fresh state and
    publish it exactly once on every non-exceptional exit path — never
    mutate the already-published object in place, never publish twice."""

    id = "R7"
    title = "non-atomic epoch publication in a copy-on-write mutator"
    severity = "error"
    scope = re.compile(r"(^|/)repro/(core|service)/")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for cls in (n for n in ast.walk(src.tree) if isinstance(n, ast.ClassDef)):
            publish_names, published = self._publication_surface(cls)
            if not publish_names or not published:
                continue
            publishing_calls = self._publishing_closure(cls, publish_names)
            for method in _class_methods(cls):
                if method.name in publish_names or method.name == "__init__":
                    continue
                if not _R7_MUTATOR_RE.match(method.name):
                    continue
                yield from self._check_mutator(
                    src, cls, method, publish_names, published, publishing_calls
                )

    @staticmethod
    def _publication_surface(
        cls: ast.ClassDef,
    ) -> Tuple[Set[str], Set[str]]:
        """(publish-method names, attribute names those methods rebind)."""
        publish_names: Set[str] = set()
        published: Set[str] = set()
        for method in _class_methods(cls):
            if not _PUBLISH_METHOD_RE.match(method.name):
                continue
            publish_names.add(method.name)
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            published.add(attr)
        return publish_names, published

    @staticmethod
    def _publishing_closure(cls: ast.ClassDef, publish_names: Set[str]) -> Set[str]:
        """Method names that publish transitively: the publish methods plus
        any method calling one of them (``delete`` → ``_rebuild_all`` →
        ``_publish`` all count as publication events at their call sites)."""
        closure = set(publish_names)
        changed = True
        while changed:
            changed = False
            for method in _class_methods(cls):
                if method.name in closure:
                    continue
                for call in _calls(method):
                    if _self_attr(call.func) in closure:
                        closure.add(method.name)
                        changed = True
                        break
        return closure

    def _check_mutator(
        self,
        src: SourceFile,
        cls: ast.ClassDef,
        method: ast.FunctionDef,
        publish_names: Set[str],
        published: Set[str],
        publishing_calls: Set[str],
    ) -> Iterator[Finding]:
        # (a) in-place mutation of already-published state (AST-level).
        for node, attr in self._published_mutations(method, published):
            yield self._finding(
                src,
                node,
                f"{cls.name}.{method.name} mutates published state "
                f"self.{attr} in place; readers of the live epoch can "
                "observe a half-applied update — build fresh state and "
                f"publish it atomically via {sorted(publish_names)[0]}()",
            )

        # (b)/(c) are path properties: build the CFG once.
        cfg = build_cfg(method)
        publish_nodes = [
            node
            for node in cfg.statement_nodes()
            if self._publish_events(node, publishing_calls, published)
        ]
        if not publish_nodes:
            return

        # (b) double publish on one path (incl. publish inside a loop).
        for first in publish_nodes:
            again = cfg.reachable(first, avoid_kinds=EXCEPTIONAL_KINDS)
            second = next((n for n in publish_nodes if n in again), None)
            if second is not None:
                yield self._finding(
                    src,
                    second.stmt,
                    f"{cls.name}.{method.name} publishes twice on one "
                    "control-flow path; concurrent readers between the two "
                    "publications observe an intermediate epoch",
                )
                break

        # (c) built state that can reach the exit without being published.
        built_locals = self._published_locals(method, publishing_calls, published)
        if not built_locals:
            return
        for node in cfg.statement_nodes():
            names = set()
            for header in node.header_ast():
                names.update(assigned_names(header))
            if not (names & built_locals):
                continue
            if node in publish_nodes:
                continue
            if cfg.path_exists(
                node,
                cfg.exit,
                avoid_nodes=publish_nodes,
                avoid_kinds=EXCEPTIONAL_KINDS,
            ):
                yield self._finding(
                    src,
                    node.stmt,
                    f"{cls.name}.{method.name} builds a new epoch but some "
                    "non-exceptional exit path skips publication; the "
                    "mutation is silently lost on that path",
                )
                break

    @staticmethod
    def _published_mutations(
        method: ast.FunctionDef, published: Set[str]
    ) -> Iterator[Tuple[ast.AST, str]]:
        prefixes = {f"self.{attr}" for attr in published}

        def rooted(chain: Optional[str], strict: bool) -> Optional[str]:
            if chain is None:
                return None
            for prefix in prefixes:
                if chain == prefix and not strict:
                    return prefix.split(".", 1)[1]
                if chain.startswith(prefix + "."):
                    return prefix.split(".", 1)[1]
            return None

        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        # self.<p>.<sub> = ... is in-place; self.<p> = ... is
                        # a (possibly bypassing) publish, handled by (b)/(c).
                        attr = rooted(attribute_chain(target), strict=True)
                        if attr is not None:
                            yield node, attr
                    elif isinstance(target, ast.Subscript):
                        attr = rooted(attribute_chain(target.value), strict=False)
                        if attr is not None:
                            yield node, attr
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _CONTAINER_MUTATORS:
                    attr = rooted(attribute_chain(node.func.value), strict=False)
                    if attr is not None:
                        yield node, attr

    @staticmethod
    def _publish_events(
        node: CFGNode, publish_names: Set[str], published: Set[str]
    ) -> bool:
        """Whether the statement publishes: calls a publish method or
        rebinds a published attribute directly."""
        for header in node.header_ast():
            for sub in ast.walk(header):
                if (
                    isinstance(sub, ast.Call)
                    and _self_attr(sub.func) in publish_names
                ):
                    return True
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if _self_attr(target) in published:
                            return True
        return False

    @staticmethod
    def _published_locals(
        method: ast.FunctionDef, publish_names: Set[str], published: Set[str]
    ) -> Set[str]:
        """Local names that flow into a publish call or published attribute."""
        out: Set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.Call) and _self_attr(node.func) in publish_names:
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        out.add(arg.id)
            elif isinstance(node, ast.Assign):
                if (
                    any(_self_attr(t) in published for t in node.targets)
                    and isinstance(node.value, ast.Name)
                ):
                    out.add(node.value.id)
        return out


# --------------------------------------------------------------------------
# R8 — read-modify-write of shared state straddling an await (CFG-based)


_LOCKISH = ("lock", "sem", "cond", "mutex")


def _is_lockish_expr(node: ast.AST) -> bool:
    target = node
    if isinstance(target, ast.Call):
        target = target.func
    chain = attribute_chain(target)
    if chain is None:
        return False
    last = chain.rsplit(".", 1)[-1].lower()
    return any(token in last for token in _LOCKISH)


class AwaitHoldingState(Rule):
    """Flag ``v = self.x; await ...; self.x = f(v)`` shapes (and one-line
    ``self.x = ... await ... self.x ...``): under ``asyncio`` another task
    can interleave at the ``await`` and the write clobbers its update.
    Regions inside an ``async with <lock/sem/cond>`` block are exempt."""

    id = "R8"
    title = "read-modify-write of shared state straddles an await"
    severity = "error"
    scope = re.compile(r"(^|/)repro/service/")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for func in (
            n for n in ast.walk(src.tree) if isinstance(n, ast.AsyncFunctionDef)
        ):
            yield from self._check_async(src, func)

    def _check_async(
        self, src: SourceFile, func: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        lock_regions = [
            (node.lineno, node.end_lineno or node.lineno)
            for node in ast.walk(func)
            if isinstance(node, ast.AsyncWith)
            and any(_is_lockish_expr(item.context_expr) for item in node.items)
        ]

        def locked(*linenos: int) -> bool:
            return any(
                all(start <= line <= end for line in linenos)
                for start, end in lock_regions
            )

        cfg = build_cfg(func)
        nodes = cfg.statement_nodes()
        awaits = [
            n
            for n in nodes
            if any(
                isinstance(sub, ast.Await)
                for header in n.header_ast()
                for sub in ast.walk(header)
            )
        ]

        reads: List[Tuple[CFGNode, str, str]] = []  # (node, local, chain)
        writes: List[Tuple[CFGNode, str, Set[str], bool]] = []
        for node in nodes:
            for header in node.header_ast():
                for sub in ast.walk(header):
                    if isinstance(sub, ast.Assign):
                        self._collect_assign(sub, node, reads, writes)
                    elif isinstance(sub, ast.AugAssign):
                        chain = attribute_chain(sub.target)
                        if chain is not None and chain.startswith("self."):
                            has_await = any(
                                isinstance(x, ast.Await) for x in ast.walk(sub.value)
                            )
                            writes.append((node, chain, set(), has_await))

        emitted: Set[Tuple[str, int]] = set()

        # One-statement straddle: the write's own RHS awaits after reading
        # the same chain (or the target is re-read implicitly by AugAssign).
        for node, chain, _sources, has_await in writes:
            if not has_await:
                continue
            line = getattr(node.stmt, "lineno", 0)
            if locked(line):
                continue
            if (chain, node.index) in emitted:
                continue
            emitted.add((chain, node.index))
            yield self._finding(
                src,
                node.stmt,
                f"{func.name} reads and rewrites shared state {chain} across "
                "an await in one statement; another task can interleave at "
                "the suspension point — recompute after the await or guard "
                "with a lock",
            )

        if not awaits:
            return
        rdefs = reaching_definitions(cfg)
        for r_node, local, chain in reads:
            for w_node, w_chain, sources, _has_await in writes:
                if w_chain != chain or local not in sources:
                    continue
                if (local, r_node.index) not in rdefs[w_node.index]:
                    continue  # the read is dead by the time of the write
                straddles = any(
                    a in (r_node, w_node)
                    or (
                        cfg.path_exists(
                            r_node, a, avoid_kinds=EXCEPTIONAL_KINDS
                        )
                        and cfg.path_exists(
                            a, w_node, avoid_kinds=EXCEPTIONAL_KINDS
                        )
                    )
                    for a in awaits
                )
                if not straddles:
                    continue
                r_line = getattr(r_node.stmt, "lineno", 0)
                w_line = getattr(w_node.stmt, "lineno", 0)
                if locked(r_line, w_line):
                    continue
                if (chain, w_node.index) in emitted:
                    continue
                emitted.add((chain, w_node.index))
                yield self._finding(
                    src,
                    w_node.stmt,
                    f"{func.name} reads {chain} (line {r_line}) before an "
                    "await and writes it back afterwards; the "
                    "read-modify-write is not atomic under task "
                    "interleaving — recompute after the await or guard "
                    "with a lock",
                )

    @staticmethod
    def _collect_assign(
        sub: ast.Assign,
        node: CFGNode,
        reads: List[Tuple[CFGNode, str, str]],
        writes: List[Tuple[CFGNode, str, Set[str], bool]],
    ) -> None:
        value_names = {
            x.id for x in ast.walk(sub.value) if isinstance(x, ast.Name)
        }
        value_chains = {
            attribute_chain(x)
            for x in ast.walk(sub.value)
            if isinstance(x, ast.Attribute)
        }
        has_await = any(isinstance(x, ast.Await) for x in ast.walk(sub.value))
        for target in sub.targets:
            if isinstance(target, ast.Name):
                # v = ... self.x ... captures a snapshot of shared state.
                for chain in value_chains:
                    if chain is not None and chain.startswith("self."):
                        reads.append((node, target.id, chain))
            else:
                chain = attribute_chain(target)
                if chain is None and isinstance(target, ast.Subscript):
                    chain = attribute_chain(target.value)
                if chain is not None and chain.startswith("self."):
                    rereads = chain in value_chains
                    writes.append(
                        (node, chain, value_names, has_await and rereads)
                    )


# --------------------------------------------------------------------------
# R9 — backend charge parity (cross-module, call-graph-based)


class _ParitySide:
    __slots__ = ("label", "entries", "allow")

    def __init__(
        self,
        label: str,
        entries: Sequence[Tuple[str, str]],
        allow: "re.Pattern[str]",
    ):
        self.label = label
        self.entries = entries
        self.allow = allow


#: The scalar ↔ vectorized parity contract, one family per query pipeline.
#: Each side lists (path-suffix, qualname) entry points and the module
#: allowlist its transitive charge closure may traverse.  Categories are
#: compared as the *union over the family*: the scalar path charges per
#: element, the fast path once per batch, but the set of categories must
#: match exactly or measured costs silently diverge between backends.
_PARITY_FAMILIES: Tuple[Tuple[str, _ParitySide, _ParitySide], ...] = (
    (
        "keyword-intersection",
        _ParitySide(
            "scalar (cost-model path)",
            (("core/baselines.py", "KeywordsOnlyIndex.query_predicate"),),
            re.compile(r"(^|/)(core/baselines|ksi/inverted)\.py$"),
        ),
        _ParitySide(
            "vectorized (fast path)",
            (("fast/backend.py", "VectorizedBackend.query_rect"),),
            re.compile(r"(^|/)fast/(arrays|backend)\.py$"),
        ),
    ),
    (
        "structured-only",
        _ParitySide(
            "scalar (cost-model path)",
            (("core/baselines.py", "StructuredOnlyIndex.query_rect"),),
            re.compile(r"(^|/)(core/baselines|kdtree/tree)\.py$"),
        ),
        _ParitySide(
            "vectorized (fast path)",
            (("fast/backend.py", "VectorizedBackend.query_structured"),),
            re.compile(r"(^|/)fast/(arrays|backend)\.py$"),
        ),
    ),
    (
        "fused",
        _ParitySide(
            "scalar (cost-model path)",
            (("core/orp_kw.py", "OrpKwIndex.query"),),
            re.compile(r"(^|/)(core/orp_kw|core/transform|geometry/rank_space)\.py$"),
        ),
        _ParitySide(
            "vectorized (fast path)",
            (("fast/backend.py", "VectorizedBackend.query_fused"),),
            re.compile(r"(^|/)(fast/arrays|fast/backend|geometry/rank_space)\.py$"),
        ),
    ),
)


class BackendChargeParity(ProjectRule):
    """Every CostCounter category charged on a scalar query path in ``core/``
    must have a batch-granularity mirror in the corresponding ``fast/``
    routine, and vice versa (the PR-7 oracle contract, checked statically)."""

    id = "R9"
    title = "charge category missing its scalar/vectorized mirror"
    severity = "error"
    scope = re.compile(r"(^|/)(core|ksi|fast)/")

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        for family, scalar, fast in _PARITY_FAMILIES:
            yield from self._check_family(model, family, scalar, fast)

    def _check_family(
        self,
        model: ProjectModel,
        family: str,
        scalar: _ParitySide,
        fast: _ParitySide,
    ) -> Iterator[Finding]:
        scalar_entries = self._resolve(model, scalar)
        fast_entries = self._resolve(model, fast)
        if not scalar_entries or not fast_entries:
            return  # partial analysis (one side not in the file set): no claim
        scalar_cats = self._union_categories(model, scalar_entries, scalar.allow)
        fast_cats = self._union_categories(model, fast_entries, fast.allow)
        yield from self._diff(
            family, scalar, scalar_cats, fast, fast_cats, fast_entries[0]
        )
        yield from self._diff(
            family, fast, fast_cats, scalar, scalar_cats, scalar_entries[0]
        )

    @staticmethod
    def _resolve(
        model: ProjectModel, side: _ParitySide
    ) -> List[FunctionInfo]:
        out = []
        for path_suffix, qualname in side.entries:
            info = model.find(path_suffix, qualname)
            if info is not None:
                out.append(info)
        return out

    @staticmethod
    def _union_categories(
        model: ProjectModel,
        entries: Sequence[FunctionInfo],
        allow: "re.Pattern[str]",
    ) -> Set[str]:
        cats: Set[str] = set()
        for entry in entries:
            cats.update(model.transitive_categories(entry, allow))
        return cats

    def _diff(
        self,
        family: str,
        have_side: _ParitySide,
        have: Set[str],
        miss_side: _ParitySide,
        missing_in: Set[str],
        anchor: FunctionInfo,
    ) -> Iterator[Finding]:
        for category in sorted(have - missing_in):
            entry_names = ", ".join(q for _p, q in miss_side.entries)
            yield self._finding_at(
                anchor.path,
                anchor.node,
                f"parity family '{family}': charge category '{category}' is "
                f"emitted on the {have_side.label} but has no mirror on the "
                f"{miss_side.label} (checked {entry_names} and their "
                "transitive callees)",
            )


# --------------------------------------------------------------------------
# R10 — span discipline (cross-function, call-graph-based)


class SpanDiscipline(ProjectRule):
    """Charges and probe merges must happen inside an open TraceSpan (either
    lexically, or because every call site of the charging function is itself
    spanned), and explicitly pushed spans must be popped in a ``finally``."""

    id = "R10"
    title = "cost charged or merged outside an open trace span"
    severity = "warning"
    scope = re.compile(r"(^|/)repro/(core/dynamize\.py|service/|fast/|trace/)")

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        for info in model.functions:
            for push in info.pushes:
                if not push.guarded:
                    yield self._finding_at(
                        info.path,
                        push.call,
                        f"{info.qualname} pushes a trace span without a "
                        "try/finally pop; the span leaks on exception paths "
                        "— use the tracer's span() context manager or wrap "
                        "the region in try/finally",
                    )
            for site in info.charges:
                if site.covered:
                    continue
                if self._all_callers_covered(model, info):
                    continue
                if site.is_merge:
                    message = (
                        f"{info.qualname} merges probe costs outside an open "
                        "TraceSpan; the transfer is invisible to the trace "
                        "tree — merge inside the consuming span, or baseline "
                        "if the merge is deliberately tracer-silent"
                    )
                else:
                    message = (
                        f"{info.qualname} charges '{site.category}' outside "
                        "an open TraceSpan; wrap the charging region in "
                        "span_for(...) or enter it only from spanned call "
                        "sites so traced and untraced accounting agree"
                    )
                yield self._finding_at(info.path, site.call, message)

    @staticmethod
    def _all_callers_covered(model: ProjectModel, info: FunctionInfo) -> bool:
        """One-level interprocedural exemption: every project call site of
        this function's (bare) name sits inside an open span."""
        sites = [
            site
            for caller, site in model.call_sites_of(info.name)
            if caller is not info
        ]
        return bool(sites) and all(site.covered for site in sites)


# --------------------------------------------------------------------------
# registry


ALL_RULES: Tuple[Rule, ...] = (
    UnchargedTraversal(),
    MutateBeforeValidate(),
    MutableEscape(),
    FloatEquality(),
    WallClockInCostPath(),
    UnseededRng(),
    EpochPublicationAtomicity(),
    AwaitHoldingState(),
    BackendChargeParity(),
    SpanDiscipline(),
)

RULES_BY_ID = {rule.id: rule for rule in ALL_RULES}


def select_rules(ids: Optional[Sequence[str]]) -> List[Rule]:
    """Resolve ``--rules R1,R3``-style selections (None = all rules)."""
    if not ids:
        return list(ALL_RULES)
    chosen = []
    for rule_id in ids:
        normalized = rule_id.strip().upper()
        if normalized not in RULES_BY_ID:
            raise ValueError(
                f"unknown rule {rule_id!r} (known: {', '.join(RULES_BY_ID)})"
            )
        chosen.append(RULES_BY_ID[normalized])
    return chosen
