"""MetricsRegistry semantics + the ``repro.cli trace`` smoke path."""

import json
import random

import pytest

from repro.cli import main
from repro.dataset import Dataset, make_objects
from repro.errors import ValidationError
from repro.geometry.rectangles import Rect
from repro.service import QueryEngine
from repro.trace import (
    DEFAULT_BUCKETS,
    MetricCounter,
    MetricHistogram,
    MetricsRegistry,
)


def build_dataset(seed: int = 5) -> Dataset:
    rng = random.Random(seed)
    points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(60)]
    docs = [rng.sample(range(1, 9), rng.randint(1, 4)) for _ in range(60)]
    return Dataset(make_objects(points, docs))


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricCounter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_inc_rejected(self):
        counter = MetricCounter("c")
        with pytest.raises(ValidationError):
            counter.inc(-1)


class TestHistogramBucketEdges:
    def test_value_on_bound_lands_in_that_bucket(self):
        hist = MetricHistogram("h", buckets=(1.0, 4.0, 16.0))
        hist.observe(4)  # == bound: inclusive upper edge
        snap = hist.snapshot()
        assert snap["buckets"]["le_4"] == 1
        assert snap["buckets"]["le_1"] == 0
        assert snap["buckets"]["le_16"] == 0

    def test_value_above_all_bounds_overflows(self):
        hist = MetricHistogram("h", buckets=(1.0, 4.0))
        hist.observe(5)
        snap = hist.snapshot()
        assert snap["overflow"] == 1
        assert snap["count"] == 1
        assert snap["sum"] == 5

    def test_default_buckets_are_powers_of_four(self):
        assert DEFAULT_BUCKETS[0] == 1.0
        assert all(
            b2 == b1 * 4 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        )

    def test_integral_bucket_labels_render_without_exponent(self):
        labels = MetricHistogram("h").snapshot()["buckets"]
        assert "le_1048576" in labels  # 4^10, not le_1.04858e+06

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValidationError):
            MetricHistogram("h", buckets=(4.0, 4.0))


class TestHistogramValidation:
    def test_negative_observe_rejected(self):
        hist = MetricHistogram("h")
        with pytest.raises(ValidationError):
            hist.observe(-1)

    def test_rejected_observe_leaves_no_partial_state(self):
        hist = MetricHistogram("h", buckets=(1.0, 4.0))
        hist.observe(2)
        with pytest.raises(ValidationError):
            hist.observe(-0.5)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == 2
        assert snap["min"] == 2 and snap["max"] == 2


class TestHistogramMerge:
    def test_merge_sums_buckets_overflow_and_extrema(self):
        a = MetricHistogram("h", buckets=(1.0, 4.0))
        b = MetricHistogram("h", buckets=(1.0, 4.0))
        a.observe(1)
        a.observe(3)
        b.observe(4)
        b.observe(9)  # above the last bound: overflow
        a.merge(b)
        snap = a.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 17
        assert snap["buckets"] == {"le_1": 1, "le_4": 2}
        assert snap["overflow"] == 1
        assert snap["min"] == 1 and snap["max"] == 9

    def test_merge_into_empty_adopts_extrema(self):
        a = MetricHistogram("h", buckets=(1.0, 4.0))
        b = MetricHistogram("h", buckets=(1.0, 4.0))
        b.observe(3)
        a.merge(b)
        snap = a.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == 3 and snap["max"] == 3

    def test_merge_empty_other_is_identity(self):
        a = MetricHistogram("h", buckets=(1.0, 4.0))
        a.observe(2)
        before = a.snapshot()
        a.merge(MetricHistogram("h", buckets=(1.0, 4.0)))
        assert a.snapshot() == before

    def test_merge_mismatched_bounds_rejected(self):
        a = MetricHistogram("h", buckets=(1.0, 4.0))
        b = MetricHistogram("h", buckets=(1.0, 8.0))
        b.observe(5)
        with pytest.raises(ValidationError):
            a.merge(b)
        assert a.snapshot()["count"] == 0  # refused merge mutates nothing

    def test_merge_leaves_source_untouched(self):
        a = MetricHistogram("h", buckets=(1.0,))
        b = MetricHistogram("h", buckets=(1.0,))
        b.observe(1)
        a.merge(b)
        assert b.snapshot()["count"] == 1


class TestRegistryReset:
    def test_reset_zeroes_values_but_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.histogram("lat").observe(7)
        registry.reset()
        assert registry.counter_names() == ["hits"]
        assert registry.histogram_names() == ["lat"]
        assert registry.counter("hits").value == 0
        assert registry.histogram("lat").snapshot()["count"] == 0

    def test_cross_kind_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValidationError):
            registry.histogram("x")

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        snap = registry.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])


class TestEngineIsolation:
    def test_engines_get_private_registries_by_default(self):
        dataset = build_dataset()
        a = QueryEngine(dataset, max_k=2, cache_size=0)
        b = QueryEngine(dataset, max_k=2, cache_size=0)
        assert a.metrics is not b.metrics
        a.query(Rect((0.0, 0.0), (10.0, 10.0)), [1, 2])
        assert a.metrics.counter("queries_total").value == 1
        assert b.metrics.counter("queries_total").value == 0

    def test_stats_exposes_metrics_snapshot(self):
        dataset = build_dataset()
        engine = QueryEngine(dataset, max_k=2, cache_size=4)
        engine.query(Rect((0.0, 0.0), (10.0, 10.0)), [1, 2])
        engine.query(Rect((0.0, 0.0), (10.0, 10.0)), [1, 2])  # cache hit
        metrics = engine.stats()["metrics"]
        assert metrics["counters"]["queries_total"] == 2
        assert metrics["counters"]["cache_hits_total"] == 1
        assert metrics["histograms"]["cost_total"]["count"] == 1


@pytest.fixture
def dataset_file(tmp_path):
    rng = random.Random(17)
    path = tmp_path / "data.jsonl"
    with open(path, "w") as handle:
        for _ in range(80):
            record = {
                "point": [rng.uniform(0, 10), rng.uniform(0, 10)],
                "doc": rng.sample(range(1, 9), rng.randint(1, 3)),
            }
            handle.write(json.dumps(record) + "\n")
    return path


class TestCliTrace:
    @pytest.mark.parametrize("kind", ["orp", "engine", "sharded"])
    def test_pretty_tree(self, dataset_file, tmp_path, capsys, kind):
        index_path = tmp_path / f"{kind}.bin"
        assert main(
            ["build", str(dataset_file), str(index_path), "--kind", kind]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "trace",
                str(index_path),
                "--rect", "0", "0", "10", "10",
                "--keywords", "1", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query" in out
        if kind == "sharded":
            assert "shard-0" in out

    def test_json_format_round_trips(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "orp.bin"
        main(["build", str(dataset_file), str(index_path), "--kind", "orp"])
        capsys.readouterr()
        code = main(
            [
                "trace",
                str(index_path),
                "--rect", "0", "0", "10", "10",
                "--keywords", "1", "2",
                "--format", "json",
            ]
        )
        assert code == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["component"] in ("cli", "engine")
        assert trace["total"] == of_leaf(trace)

    def test_unsupported_kind_rejected(self, dataset_file, tmp_path):
        index_path = tmp_path / "lc.bin"
        main(["build", str(dataset_file), str(index_path), "--kind", "lc"])
        assert (
            main(
                [
                    "trace",
                    str(index_path),
                    "--rect", "0", "0", "10", "10",
                    "--keywords", "1", "2",
                ]
            )
            != 0
        )


def of_leaf(node):
    """Sum of leaf totals — mirrors the span-tree invariant in JSON form."""
    if not node.get("children"):
        return node["total"]
    return sum(of_leaf(child) for child in node["children"])
