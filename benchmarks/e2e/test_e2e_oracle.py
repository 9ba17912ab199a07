"""The brute-force oracle and its replay of a write stream."""

from calibrate import Calibrator
from oracle import brute_force, replay
from workloads import Churn, ServeHot

BASE = [
    (0, (0.1, 0.1), frozenset({1, 2})),
    (1, (0.5, 0.5), frozenset({1})),
    (2, (0.9, 0.9), frozenset({1, 2, 3})),
]


def test_brute_force_uses_closed_rectangles_and_keyword_subsets():
    assert brute_force(BASE, (0.1, 0.1), (0.9, 0.9), [1]) == [0, 1, 2]
    assert brute_force(BASE, (0.1, 0.1), (0.9, 0.9), [1, 2]) == [0, 2]
    assert brute_force(BASE, (0.2, 0.2), (0.8, 0.8), [2]) == []


def test_replay_checks_each_read_against_the_live_set_at_that_moment():
    log = [
        ("read", (0.0, 0.0), (1.0, 1.0), (2,), [0, 2]),
        ("insert", 3, (0.5, 0.6), {2, 5}),
        ("read", (0.0, 0.0), (1.0, 1.0), (2,), [0, 2, 3]),
        ("delete", 0),
        ("read", (0.0, 0.0), (1.0, 1.0), (2,), [3, 2]),  # order does not matter
        ("read", (0.0, 0.0), (1.0, 1.0), (2,), [0, 2, 3]),  # 0 is gone: wrong
        ("delete", 3),
        ("read", (0.0, 0.0), (1.0, 1.0), (2,), [2, 3]),  # 3 is gone: wrong
    ]
    assert replay(BASE, log) == (5, 2)


def test_replay_of_a_real_churn_window_finds_no_mismatch():
    class TinyChurn(Churn):
        objects = 300

    workload = TinyChurn(seed=5)
    workload.build()
    win = workload.window(400, Calibrator())
    workload.close()
    assert win.insert_s and win.delete_s and win.raised == 0
    checked, mismatches = replay(workload.base_objects(), workload.log)
    assert checked >= 1 and mismatches == 0


def test_both_serve_hot_loops_answer_correctly():
    class TinyServeHot(ServeHot):
        objects = 300
        pool_size = 40

    workload = TinyServeHot(seed=5)
    workload.build()
    calibrator = Calibrator()
    in_turn = workload.window(200, calibrator)
    on_time = workload.traced_window(100, calibrator)  # half a second of arrivals
    workload.close()
    for win in (in_turn, on_time):
        assert win.served == win.attempted and win.raised == 0
        assert len(win.read_s) == len(win.wall_s) == win.served
    assert len(on_time.late_s) == 100 and on_time.busy_s >= 99 / ServeHot.rate
    checked, mismatches = replay(workload.base_objects(), workload.log)
    assert checked == 15 and mismatches == 0
