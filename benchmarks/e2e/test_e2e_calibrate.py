"""Scaling chunk times to the reference machine speed."""

import pytest

from calibrate import REFERENCE_S, Calibrator, chunk_factors
from workloads import Window


def test_steady_kernel_gives_one_factor_per_chunk():
    factors = chunk_factors([2 * REFERENCE_S] * 4)
    assert factors == [pytest.approx(0.5)] * 3


def test_one_outlying_kernel_run_is_smoothed_away():
    runs = [REFERENCE_S] * 9
    runs[4] = 10 * REFERENCE_S
    assert chunk_factors(runs) == [pytest.approx(1.0)] * 8


def test_slow_phase_scales_its_chunks_down():
    runs = [REFERENCE_S] * 6 + [2 * REFERENCE_S] * 6
    factors = chunk_factors(runs)
    assert factors[0] == pytest.approx(1.0) and factors[-1] == pytest.approx(0.5)


def test_window_rescale_applies_each_chunk_its_factor():
    win = Window()
    win.mark(REFERENCE_S)
    win.read_s += [1.0, 1.0]
    win.cpu_s = 2.0
    win.mark(REFERENCE_S)
    win.read_s += [1.0]
    win.insert_s += [4.0]
    win.cpu_s = 7.0
    win.mark(REFERENCE_S / 2)
    win.mark(REFERENCE_S / 2)
    win.rescale()
    first, second, _third = chunk_factors([REFERENCE_S, REFERENCE_S,
                                           REFERENCE_S / 2, REFERENCE_S / 2])
    assert first < second
    assert win.read_s == pytest.approx([first, first, second])
    assert win.insert_s == pytest.approx([4.0 * second])
    assert win.busy_s == pytest.approx(2.0 * first + 5.0 * second)


def test_kernel_measures_positive_cpu_time():
    assert Calibrator().measure() > 0
