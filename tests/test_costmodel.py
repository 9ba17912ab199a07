"""Unit tests for repro.costmodel."""

import pytest

from repro.costmodel import CostCounter, NULL_COUNTER, ensure_counter
from repro.errors import BudgetExceeded


class TestCostCounter:
    def test_starts_empty(self):
        counter = CostCounter()
        assert counter.total == 0
        assert counter["objects_examined"] == 0

    def test_charge_accumulates(self):
        counter = CostCounter()
        counter.charge("objects_examined")
        counter.charge("objects_examined", 4)
        assert counter["objects_examined"] == 5
        assert counter.total == 5

    def test_categories_tracked_separately(self):
        counter = CostCounter()
        counter.charge("objects_examined", 2)
        counter.charge("nodes_visited", 3)
        assert counter["objects_examined"] == 2
        assert counter["nodes_visited"] == 3
        assert counter.total == 5

    def test_reset_clears_counts(self):
        counter = CostCounter()
        counter.charge("comparisons", 7)
        counter.reset()
        assert counter.total == 0
        assert counter["comparisons"] == 0

    def test_snapshot_includes_total(self):
        counter = CostCounter()
        counter.charge("structure_probes", 2)
        snap = counter.snapshot()
        assert snap == {"structure_probes": 2, "total": 2}

    def test_snapshot_is_a_copy(self):
        counter = CostCounter()
        counter.charge("comparisons")
        snap = counter.snapshot()
        snap["comparisons"] = 99
        assert counter["comparisons"] == 1


class TestBudget:
    def test_budget_not_exceeded(self):
        counter = CostCounter(budget=10)
        counter.charge("objects_examined", 10)
        assert counter.total == 10

    def test_budget_exceeded_raises(self):
        counter = CostCounter(budget=10)
        with pytest.raises(BudgetExceeded) as excinfo:
            counter.charge("objects_examined", 11)
        assert excinfo.value.spent == 11
        assert excinfo.value.budget == 10

    def test_budget_exceeded_across_charges(self):
        counter = CostCounter(budget=3)
        counter.charge("nodes_visited", 2)
        counter.charge("nodes_visited", 1)
        with pytest.raises(BudgetExceeded):
            counter.charge("nodes_visited", 1)

    def test_budget_survives_reset(self):
        counter = CostCounter(budget=2)
        counter.charge("comparisons", 2)
        counter.reset()
        counter.charge("comparisons", 2)
        with pytest.raises(BudgetExceeded):
            counter.charge("comparisons")


class TestNullCounter:
    def test_null_counter_ignores_charges(self):
        NULL_COUNTER.charge("objects_examined", 1000)
        assert NULL_COUNTER.total == 0

    def test_ensure_counter_substitutes_null(self):
        assert ensure_counter(None) is NULL_COUNTER

    def test_ensure_counter_passes_through(self):
        counter = CostCounter()
        assert ensure_counter(counter) is counter


class TestAttempt:
    """``CostCounter.attempt``: footnote 4's one budgeted probe."""

    def test_finished_run_returns_its_result_and_merges_once(self):
        caller = CostCounter()
        result, probe = caller.attempt(10, lambda c: c.charge("comparisons", 4) or "done")
        assert result == "done"
        assert probe.budget == 10
        assert caller.snapshot() == probe.snapshot() == {"comparisons": 4, "total": 4}

    def test_cut_short_run_returns_none_and_still_merges(self):
        caller = CostCounter()

        def run(c):
            for _ in range(100):
                c.charge("nodes_visited")
            return "never"

        result, probe = caller.attempt(5, run)
        assert result is None
        # The crossing charge is counted: at most the budget plus one charge.
        assert probe.total == 6
        assert caller.snapshot() == probe.snapshot()

    def test_probe_records_into_the_callers_tracer(self):
        from repro.trace import Tracer

        caller = CostCounter()
        caller.tracer = Tracer()
        caller.attempt(3, lambda c: c.charge("objects_examined", 9))
        root = caller.tracer.finish()
        assert root.subtree_costs() == {"objects_examined": 9}
        assert caller.snapshot() == {"objects_examined": 9, "total": 9}

    def test_blown_caller_budget_propagates_with_every_category(self):
        caller = CostCounter(budget=3)

        def run(c):
            c.charge("comparisons", 2)
            c.charge("nodes_visited", 2)
            c.charge("structure_probes", 2)
            return []

        with pytest.raises(BudgetExceeded):
            caller.attempt(None, run)
        assert caller.snapshot() == {
            "comparisons": 2, "nodes_visited": 2, "structure_probes": 2, "total": 6,
        }

    def test_null_counter_runs_the_probe_and_keeps_nothing(self):
        result, probe = NULL_COUNTER.attempt(2, lambda c: c.charge("comparisons", 2) or [])
        assert result == [] and probe.total == 2
        assert NULL_COUNTER.total == 0
