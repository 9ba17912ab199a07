"""Project-rule tests against the real tree: the R9 seeded-mutation drill
and the differential regressions pinning tree fixes made under R7-R10.
"""

import shutil
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.rules import select_rules
from repro.costmodel import CostCounter
from repro.core.dynamize import DynamicOrpKw
from repro.geometry.rectangles import Rect
from repro.trace.span import Tracer

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

#: The files participating in the three parity families: keyword
#: intersection, structured-only (kd-tree walk + keyword filter), and fused
#: (rank-space conversion + the Theorem-1 descent).
PARITY_FILES = [
    "repro/core/baselines.py",
    "repro/ksi/inverted.py",
    "repro/kdtree/tree.py",
    "repro/core/orp_kw.py",
    "repro/core/transform.py",
    "repro/geometry/rank_space.py",
    "repro/fast/arrays.py",
    "repro/fast/backend.py",
]


def _copy_parity_sandbox(tmp_path):
    for rel in PARITY_FILES:
        dst = tmp_path / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(SRC / rel, dst)
    return tmp_path


class TestSeededMutation:
    def test_unmutated_sandbox_is_parity_clean(self, tmp_path):
        sandbox = _copy_parity_sandbox(tmp_path)
        findings = analyze_paths(
            [sandbox], root=sandbox, rules=select_rules(["R9"])
        )
        assert findings == []

    def test_deleting_one_batch_charge_yields_exactly_one_finding(self, tmp_path):
        """The acceptance drill: drop the structure_probes batch charge from
        ArrayStore.intersect (the statement becomes ``pass``, so the loop
        around it stays valid) and R9 must report exactly one finding naming
        the now-unmirrored category."""
        sandbox = _copy_parity_sandbox(tmp_path)
        arrays = sandbox / "repro/fast/arrays.py"
        text = arrays.read_text()
        target = 'counter.charge("structure_probes", live)'
        assert text.count(target) == 1, "seeded-mutation target moved; update the drill"
        arrays.write_text(text.replace(target, "pass"))

        findings = analyze_paths(
            [sandbox], root=sandbox, rules=select_rules(["R9"])
        )
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "R9"
        assert "'structure_probes'" in finding.message
        assert finding.path.endswith("fast/backend.py")

    def test_deleting_the_walk_node_charge_yields_exactly_one_finding(self, tmp_path):
        """The structured-only drill: drop the nodes_visited batch charge
        from the vectorized kd-tree walk (``fast/arrays.py:kd_range``) and
        R9 must report exactly one finding, in the structured-only family,
        naming the now-unmirrored category."""
        sandbox = _copy_parity_sandbox(tmp_path)
        arrays = sandbox / "repro/fast/arrays.py"
        text = arrays.read_text()
        target = 'counter.charge("nodes_visited", used - examined)'
        assert text.count(target) == 1, "seeded-mutation target moved; update the drill"
        arrays.write_text(text.replace(target, "pass"))

        findings = analyze_paths(
            [sandbox], root=sandbox, rules=select_rules(["R9"])
        )
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "R9"
        assert "parity family 'structured-only'" in finding.message
        assert "'nodes_visited'" in finding.message
        assert finding.path.endswith("fast/backend.py")

    def test_deleting_one_fused_walk_charge_yields_exactly_one_finding(self, tmp_path):
        """The fused drill: drop the nodes_visited batch charge from the
        vectorized Theorem-1 walk (``fast/arrays.py:fused_range``) and R9
        must report exactly one finding, in the fused family, naming the
        now-unmirrored category."""
        sandbox = _copy_parity_sandbox(tmp_path)
        arrays = sandbox / "repro/fast/arrays.py"
        text = arrays.read_text()
        target = 'counter.charge("nodes_visited", nodes)'
        assert text.count(target) == 1, "seeded-mutation target moved; update the drill"
        arrays.write_text(text.replace(target, "pass"))

        findings = analyze_paths(
            [sandbox], root=sandbox, rules=select_rules(["R9"])
        )
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "R9"
        assert "parity family 'fused'" in finding.message
        assert "'nodes_visited'" in finding.message
        assert finding.path.endswith("fast/backend.py")


class TestTreeRegressions:
    """Differential pins for true positives fixed in this PR: each assertion
    fails on the pre-fix code."""

    def test_dynamize_module_is_in_span_scope(self, tmp_path):
        """R10 audits the dynamization machinery where it lives: the real
        ``core/dynamize.py`` is span-clean, and one uncovered charge planted
        in it yields exactly one finding."""
        module = tmp_path / "repro/core/dynamize.py"
        module.parent.mkdir(parents=True)
        source = (SRC / "repro/core/dynamize.py").read_text()
        module.write_text(source)
        rules = select_rules(["R10"])
        assert analyze_paths([tmp_path], root=tmp_path, rules=rules) == []

        module.write_text(
            source + "\n\ndef _planted(counter):\n    counter.charge('nodes_visited')\n"
        )
        findings = analyze_paths([tmp_path], root=tmp_path, rules=rules)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "R10"
        assert finding.message.startswith("_planted charges 'nodes_visited'")

    def test_epoch_query_charges_inside_a_span(self):
        """Runtime side of the same fix: with a tracer attached, the epoch
        scan's structure probes land in a dedicated 'epoch-scan' span
        instead of leaking into the caller's accounting."""
        index = DynamicOrpKw(k=2, dim=2)
        index.insert_many(
            [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)],
            [{1, 2}, {1, 3}, {2, 3}],
        )
        counter = CostCounter()
        tracer = Tracer()
        counter.tracer = tracer
        tracer.push("query", "test")
        try:
            index.query(Rect((0.0, 0.0), (1.0, 1.0)), [1, 2], counter)
        finally:
            counter.tracer = None
        root = tracer.finish()

        def spans(span):
            yield span
            for child in span.children:
                yield from spans(child)

        epoch_spans = [s for s in spans(root) if s.name == "epoch-scan"]
        assert epoch_spans, "Epoch.query must open an epoch-scan span"
        assert all(s.component == "dynamic" for s in epoch_spans)
        # Direct charges materialize as a "(self)" leaf at finish(); sum the
        # whole epoch-scan subtree to see them.
        probes = sum(
            sub.costs.get("structure_probes", 0)
            for top in epoch_spans
            for sub in spans(top)
        )
        assert probes > 0
