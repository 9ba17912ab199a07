"""Structural probe tests: bounds, gauge registration, engine integration."""

import pathlib

import pytest

from repro.audit.probes import (
    StructuralReport,
    dim_reduction_report,
    engine_reports,
    kd_crossing_report,
    partition_crossing_report,
    register,
    space_report,
)
from repro.core.dim_reduction import DimReductionOrpKw
from repro.core.orp_kw import OrpKwIndex
from repro.service.engine import QueryEngine
from repro.trace import MetricsRegistry
from repro.workloads.generators import WorkloadConfig, zipf_dataset


@pytest.fixture(scope="module")
def dataset_2d():
    return zipf_dataset(
        WorkloadConfig(
            num_objects=400, dim=2, vocabulary=32,
            doc_min=1, doc_max=3, zipf_s=1.0, seed=9,
        )
    )


@pytest.fixture(scope="module")
def dataset_3d():
    return zipf_dataset(
        WorkloadConfig(
            num_objects=400, dim=3, vocabulary=32,
            doc_min=1, doc_max=3, zipf_s=1.0, seed=9,
        )
    )


class TestProbeReports:
    def test_kd_crossing_within_lemma10(self, dataset_2d):
        index = OrpKwIndex(dataset_2d, k=2)
        report = kd_crossing_report(index.kd_tree())
        assert report.ok
        assert report.values["max_line_crossing_nodes"] <= report.bounds[
            "max_line_crossing_nodes"
        ]

    def test_dim_reduction_within_propositions(self, dataset_3d):
        index = DimReductionOrpKw(dataset_3d, k=2)
        report = dim_reduction_report(index, seed=17)
        assert report.ok
        assert report.values["max_type2_per_level"] <= 2

    def test_space_near_linear(self, dataset_2d):
        index = OrpKwIndex(dataset_2d, k=2)
        report = space_report(index, per_unit_cap=64.0)
        assert report.ok

    def test_space_cap_can_fail(self, dataset_2d):
        index = OrpKwIndex(dataset_2d, k=2)
        report = space_report(index, per_unit_cap=0.001)
        assert not report.ok

    def test_partition_crossing_within_bound(self, dataset_2d):
        from repro.partitiontree.tree import PartitionTree

        tree = PartitionTree([obj.point for obj in dataset_2d.objects])
        assert partition_crossing_report(tree, seed=11).ok

    def test_report_dict_is_sorted_and_json_safe(self, dataset_2d):
        import json

        index = OrpKwIndex(dataset_2d, k=2)
        data = kd_crossing_report(index.kd_tree()).to_dict()
        assert list(data["values"]) == sorted(data["values"])
        json.dumps(data)


class TestRegistration:
    def test_register_exports_gauges(self):
        report = StructuralReport(
            probe="demo", values={"x": 3.0}, bounds={"x": 10.0},
            ok=True, notes="",
        )
        registry = MetricsRegistry()
        register(report, registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges["probe_demo_x"] == 3.0
        assert gauges["probe_demo_ok"] == 1.0

    def test_failed_probe_gauge_is_zero(self):
        report = StructuralReport(
            probe="demo", values={}, bounds={}, ok=False, notes="",
        )
        registry = MetricsRegistry()
        register(report, registry)
        assert registry.snapshot()["gauges"]["probe_demo_ok"] == 0.0


class TestEngineIntegration:
    def test_probe_structure_lands_in_stats_metrics(self, dataset_2d):
        engine = QueryEngine(dataset_2d, max_k=2)
        reports = engine.probe_structure()
        assert {r["probe"] for r in reports} == {"kd_crossing", "space"}
        gauges = engine.stats()["metrics"]["gauges"]
        assert gauges["probe_kd_crossing_ok"] == 1.0
        assert gauges["probe_space_ok"] == 1.0
        assert gauges["probe_kd_crossing_n"] == float(engine.input_size)

    def test_engine_reports_without_registration(self, dataset_2d):
        engine = QueryEngine(dataset_2d, max_k=2)
        engine_reports(engine)
        assert engine.stats()["metrics"]["gauges"] == {}


class TestCommittedKdCrossing:
    """The Lemma-10 probe's values on the largest T1.1 and T1.5 builds equal
    the committed baselines exactly, not only within the bound: a probe of
    anything but the whole kd-tree reads fewer crossing nodes and still
    passes the bound."""

    @pytest.mark.parametrize("row", ["T1.1", "T1.5"])
    def test_values_equal_the_committed_baseline(self, row):
        from repro.audit.baseline import load_report, round_floats
        from repro.audit.sweeps import MODES, _t1_1_index, _t1_5_index

        root = pathlib.Path(__file__).resolve().parents[2]
        committed = load_report(root, row)
        expected = next(
            report for report in committed["structural"]
            if report["probe"] == "kd_crossing"
        )
        largest = MODES[committed["mode"]].sweep_objects[-1]
        if row == "T1.1":
            index = _t1_1_index(largest)
        else:
            index = _t1_5_index(largest, committed["seed"])._index
        report = kd_crossing_report(index.kd_tree()).to_dict()
        assert round_floats(report) == expected
