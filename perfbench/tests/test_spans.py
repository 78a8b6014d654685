import pytest

from spans import COUNT, NONNULL, OUTER, SELF, TOTAL, Tracer


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_on_a_hand_built_tree():
    # cell [0, 10]
    #   run [1, 9]
    #     hot A [2, 5]
    #       hot A (nested, same layer) [3, 4]
    #     hot B [6, 8]  -> returns None
    clock = FakeClock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10])
    tracer = Tracer(clock=clock)
    tracer.begin_cell("c0")
    calls = []

    def inner():
        calls.append("inner")
        return 1

    a_inner = tracer.wrap("X.a", "x", inner)

    def outer():
        a_inner()
        return 2

    a_outer = tracer.wrap("X.a", "x", outer)
    b = tracer.wrap("X.b", "x", lambda: None)
    with tracer.span("cell"):
        with tracer.span("run"):
            assert a_outer() == 2
            assert b() is None

    cell, run = tracer.spans
    assert (cell["start"], cell["end"], cell["self_s"]) == (0, 10, 2)
    assert (run["start"], run["end"], run["self_s"]) == (1, 9, 3)
    assert run["parent"] == 0 and cell["parent"] is None
    assert run["cell"] == "c0"
    a = tracer.aggregates["c0"]["X.a"]
    assert a[COUNT] == 2
    assert a[TOTAL] == 3 + 1            # both calls' durations
    assert a[SELF] == 2 + 1             # outer minus nested, plus nested
    assert a[OUTER] == 3                # nested call not double counted
    assert a[NONNULL] == 2
    bb = tracer.aggregates["c0"]["X.b"]
    assert (bb[COUNT], bb[TOTAL], bb[SELF], bb[NONNULL]) == (1, 2, 2, 0)
    assert tracer.span_totals("c0", "run") == (8, 3, 1)


def test_exceptions_still_close_spans():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3]))
    tracer.begin_cell("c")

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        with tracer.span("cell"):
            tracer.wrap("X.boom", "x", boom)()
    assert tracer.spans[0]["self_s"] == 3 - 1
    assert tracer.aggregates["c"]["X.boom"][COUNT] == 1
    assert tracer._stack == [] and tracer._open == []


def test_patched_restores_the_program():
    from repro.core.cohesion import MemorySystem
    from repro.sim.cluster import Cluster
    from repro.timing import Resource

    originals = (Cluster.load, MemorySystem.read_line, Resource.acquire)
    tracer = Tracer()
    with tracer.patched():
        assert Cluster.load is not originals[0]
        assert Cluster.load.__wrapped__ is originals[0]
    assert (Cluster.load, MemorySystem.read_line,
            Resource.acquire) == originals
