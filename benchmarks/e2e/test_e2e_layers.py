"""Self-time accounting of the layer wrappers, on toy classes."""

import asyncio
import threading

import pytest

from layers import REQUEST_ID, Layer, LayerTimer, fit_line, spin

UNIT = 0.02  # seconds of CPU per unit of work
SLACK = 0.01  # wrapper overhead and clock granularity


class Inner:
    def work(self, units=1):
        spin(units * UNIT)
        return [None] * units

    def fail(self):
        spin(UNIT)
        raise RuntimeError("boom")


class Outer:
    def __init__(self):
        self.inner = Inner()

    def run(self):
        spin(UNIT)
        self.inner.work(2)
        return "done"

    def run_failing(self):
        spin(UNIT)
        with pytest.raises(RuntimeError):
            self.inner.fail()
        return "recovered"

    def recurse(self, depth):
        spin(UNIT)
        return self.recurse(depth - 1) if depth else None


def timer(**kwargs):
    return LayerTimer(
        [Layer("outer", [(Outer, "run"), (Outer, "run_failing"), (Outer, "recurse")]),
         Layer("inner", [(Inner, "work"), (Inner, "fail")], fit=True)],
        **kwargs,
    )


def near(value, expected):
    return expected <= value <= expected + SLACK


def test_nested_calls_split_self_time():
    with timer() as t:
        assert Outer().run() == "done"
    stats = t.stats()
    assert stats["outer"].calls == 1 and stats["inner"].calls == 1
    assert near(stats["outer"].self_s, UNIT)
    assert near(stats["inner"].self_s, 2 * UNIT)
    assert near(stats["outer"].total_s, 3 * UNIT)
    spans = t.spans()
    outer, inner = sorted(spans, key=lambda s: s["parent"] is not None)
    assert inner["parent"] == outer["id"] and outer["parent"] is None


def test_reentry_into_the_same_layer_is_one_call():
    with timer() as t:
        Outer().recurse(2)
    assert t.stats()["outer"].calls == 1
    assert near(t.stats()["outer"].self_s, 3 * UNIT)


def test_a_call_that_raises_is_accounted_and_unwinds():
    with timer() as t:
        assert Outer().run_failing() == "recovered"
        Outer().run()
    stats = t.stats()
    assert stats["inner"].calls == 2
    # Only the call that returned gives a (self time, result count) sample.
    [(sample_s, count)] = stats["inner"].samples
    assert near(sample_s, 2 * UNIT) and count == 2
    assert near(stats["outer"].self_s, 2 * UNIT)
    assert near(stats["inner"].self_s, 3 * UNIT)
    assert all(s["parent"] is None for s in t.spans() if s["name"] == "outer")


def test_two_threads_keep_separate_stacks():
    barrier = threading.Barrier(2)

    def client(units):
        barrier.wait()
        Outer().run()
        Inner().work(units)

    with timer() as t:
        threads = [threading.Thread(target=client, args=(n,), name=f"client-{n}")
                   for n in (1, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    assert near(t.stats("client-1")["inner"].self_s, 3 * UNIT)
    assert near(t.stats("client-3")["inner"].self_s, 5 * UNIT)
    both = t.stats()
    assert both["outer"].calls == 2 and both["inner"].calls == 4
    assert near(both["outer"].self_s, 2 * UNIT)


def test_plant_makes_one_layer_slower():
    with timer(plant={"inner": 2.0}) as t:
        Outer().run()
    stats = t.stats()
    assert near(stats["inner"].self_s, 4 * UNIT)
    assert near(stats["outer"].self_s, UNIT)


def test_plant_alone_records_nothing_and_uninstall_restores():
    original = Inner.work
    with timer(plant={"inner": 3.0}, record=False) as t:
        assert Inner.work is not original
        Inner().work()
    assert Inner.work is original
    assert t.stats()["inner"].calls == 0 and t.spans() == []


def test_plant_outside_the_plantable_layers_is_refused():
    with pytest.raises(ValueError):
        timer(plant={"nowhere": 2.0})
    with pytest.raises(ValueError):
        LayerTimer([Layer("front", [], awaited=True)], plant={"front": 2.0})


def test_awaited_layer_times_its_waits_and_keeps_request_ids():
    class Front:
        async def query(self):
            await asyncio.sleep(UNIT)
            return Inner().work()

    t = LayerTimer([Layer("front", [(Front, "query")], awaited=True),
                    Layer("inner", [(Inner, "work")])])

    async def main():
        REQUEST_ID.set(7)
        await Front().query()

    with t:
        asyncio.run(main())
    stats = t.stats()
    assert stats["front"].calls == 1 and stats["front"].self_s == 0.0
    # Wall-clock duration: the sleep counts, though it used no CPU.
    assert stats["front"].total_s >= 2 * UNIT
    assert {s["request_id"] for s in t.spans()} == {7}


def test_fit_line_recovers_intercept_and_slope():
    samples = [(3.0 + 0.5 * n, n) for n in range(10)]
    fixed, slope = fit_line(samples)
    assert fixed == pytest.approx(3.0) and slope == pytest.approx(0.5)
    assert fit_line([]) == (0.0, 0.0)
    assert fit_line([(2.0, 4), (4.0, 4)]) == (3.0, 0.0)
