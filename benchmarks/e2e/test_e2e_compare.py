"""Verdicts of compare.py: bound edges, the unresolved rule, exact counts, claims."""

import json

import pytest

from compare import claim_met, main, verdict

PARENT = [99.0, 100.0, 100.0, 101.0]  # quartiles 99.25 / 100.75: spread 1.5%


def shifted(values, factor):
    return [v * factor for v in values]


def judge(parent, change, better, bound):
    """verdict() over runs paired by position."""
    return verdict(dict(enumerate(parent)), dict(enumerate(change)), better, bound)


def test_worse_by_exactly_the_bound_is_not_a_regression():
    at_bound = [109.0, 110.0, 110.0, 111.0]  # median exactly 10% above
    assert judge(PARENT, at_bound, "lower", 0.10) == "unchanged"
    assert judge(PARENT, [v + 1.0 for v in at_bound], "lower", 0.10) == "regressed"


def test_direction_follows_better():
    assert judge(PARENT, shifted(PARENT, 0.85), "higher", 0.10) == "regressed"
    assert judge(PARENT, shifted(PARENT, 1.15), "higher", 0.10) == "improved"
    assert judge(PARENT, shifted(PARENT, 0.85), "lower", 0.10) == "improved"


def test_improvement_must_clear_the_parent_spread():
    assert judge(PARENT, shifted(PARENT, 0.995), "lower", 0.10) == "unchanged"
    assert judge(PARENT, shifted(PARENT, 0.97), "lower", 0.10) == "improved"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [70.0, 90.0, 110.0, 130.0]  # spread 40% of the median
    assert judge(noisy, [95.0, 100.0, 125.0, 140.0], "lower", 0.10) == "unresolved"
    assert judge(noisy, [20.0, 21.0, 22.0, 23.0], "lower", 0.10) == "improved"
    # Every run better, but by less than the parent's spread: no claim.
    assert judge(noisy, [60.0, 61.0, 62.0, 63.0], "lower", 0.10) == "unchanged"
    assert judge(noisy, [150.0, 160.0, 170.0, 180.0], "lower", 0.10) == "regressed"


def test_exactly_repeating_counts_compare_exactly():
    assert judge([5, 5, 5], [5, 5, 5], "higher", 0.05) == "unchanged"
    assert judge([5, 5, 5], [4, 4, 4], "higher", 0.05) == "regressed"
    assert judge([5, 5, 5], [6, 6, 6], "higher", 0.05) == "improved"


def test_any_rise_from_no_failures_is_a_regression():
    clean = [0.0, 0.0, 0.0, 0.0]
    assert judge(clean, [0.0, 0.001, 0.002, 0.001], "lower", 0.0) == "regressed"
    # One failing run of four leaves the median at zero.
    assert judge(clean, [0.0, 0.0, 0.0, 0.001], "lower", 0.0) == "unchanged"


def test_claim_rule_needs_nine_tenths_of_pairs_and_a_gap():
    parent = {seed: 100.0 + seed % 3 for seed in range(10)}
    faster = {seed: value * 0.8 for seed, value in parent.items()}
    assert claim_met(parent, faster, "lower")
    mostly = {**faster, 0: 150.0, 1: 150.0}  # two pairs lost
    assert not claim_met(parent, mostly, "lower")
    barely = {seed: value - 0.1 for seed, value in parent.items()}  # within the spread
    assert not claim_met(parent, barely, "lower")


def write_runs(directory, values, metric="read_p50_ms"):
    directory.mkdir()
    for seed, value in enumerate(values):
        run = {"workload": "w", "seed": seed, "correct": True, "attempted": 1, "failed": 0,
               "metrics": {metric: {"value": value, "unit": "ms"},
                           "engine.self_us": {"value": 1e9 * value, "unit": "us"}}}
        (directory / f"w-seed{seed}.json").write_text(json.dumps(run))


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [{"name": "read_p50_ms", "unit": "ms", "better": "lower",
                        "bound": 0.1}],
    }))
    return path


def test_main_exits_one_on_regression_only(tmp_path, spec, capsys):
    write_runs(tmp_path / "parent", PARENT)
    write_runs(tmp_path / "same", shifted(PARENT, 1.02))
    write_runs(tmp_path / "slow", shifted(PARENT, 1.5))
    assert main([str(tmp_path / "parent"), str(tmp_path / "same"), "--spec", str(spec)]) == 0
    assert main([str(tmp_path / "parent"), str(tmp_path / "slow"), "--spec", str(spec)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert main([str(tmp_path / "slow"), str(tmp_path / "parent"), "--spec", str(spec),
                 "--claim", "w:read_p50_ms"]) == 0


def test_workload_scoped_metrics_are_gated_where_reported(tmp_path, spec, capsys):
    write_runs(tmp_path / "parent", PARENT, metric="write_p99_ms")
    write_runs(tmp_path / "slow", shifted(PARENT, 1.5), metric="write_p99_ms")
    assert main([str(tmp_path / "parent"), str(tmp_path / "slow"), "--spec", str(spec)]) == 1
    out = capsys.readouterr().out
    assert "write_p99_ms" in out and "regressed" in out
    # Per-layer metrics have no bound: never compared.
    assert "engine.self_us" not in out
