"""Self-time arithmetic of the span recorder, on synthetic spans."""

import types

import pytest

from spans import Recorder, instrument


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    with rec.operation("op.a"):          # 0 .. 10
        clock.now = 1.0
        with rec.span("outer"):          # 1 .. 8
            clock.now = 2.0
            with rec.span("inner"):      # 2 .. 5
                clock.now = 5.0
            clock.now = 6.0
            with rec.span("inner"):      # 6 .. 7
                clock.now = 7.0
            clock.now = 8.0
        clock.now = 10.0
    totals = rec.totals()
    assert totals["inner"] == {"calls": 2, "self_s": 4.0}
    assert totals["outer"] == {"calls": 1, "self_s": 3.0}
    assert totals["op.a"] == {"calls": 1, "self_s": 3.0}
    assert sum(t["self_s"] for t in totals.values()) == 10.0
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["outer"]["parent"] == by_name["op.a"]["id"]
    assert {s["op"] for s in rec.spans} == {by_name["op.a"]["id"]}


def test_hot_calls_aggregate_per_call_path_and_keep_totals():
    clock = FakeClock()
    rec = Recorder(clock=clock, hot=("leaf", "mid"))
    with rec.operation("op.a"):
        for _ in range(1000):
            with rec.span("mid"):
                clock.now += 1.0
                with rec.span("leaf"):
                    clock.now += 2.0
    assert len(rec.spans) == 1
    assert len(rec.aggregates) == 2
    totals = rec.totals()
    assert totals["mid"] == {"calls": 1000, "self_s": 1000.0}
    assert totals["leaf"] == {"calls": 1000, "self_s": 2000.0}
    assert totals["op.a"]["self_s"] == 0.0
    paths = sorted(tuple(a["path"]) for a in rec.aggregates.values())
    assert paths == [("mid",), ("mid", "leaf")]


def test_operations_get_distinct_ids():
    rec = Recorder(clock=FakeClock())
    for name in ("op.a", "op.b"):
        with rec.operation(name):
            with rec.span("x"):
                pass
    ops = {s["name"]: s["op"] for s in rec.spans if s["name"].startswith("op.")}
    assert ops["op.a"] != ops["op.b"]
    assert sorted(s["op"] for s in rec.spans if s["name"] == "x") == sorted(ops.values())


def test_out_of_order_close_is_refused():
    rec = Recorder(clock=FakeClock())
    a = rec.enter("a")
    rec.enter("b")
    with pytest.raises(RuntimeError):
        rec.exit(a)


def test_instrument_patches_every_binding_and_restores():
    def f(x):
        return x + 1

    lib = types.ModuleType("lib")
    lib.f = f
    caller = types.ModuleType("caller")
    caller.g = f  # a `from lib import f as g` binding
    seen = []
    rec = Recorder(clock=FakeClock())
    targets = {"lib.f": (lib, "f", lambda rec, args, kwargs, result, err: seen.append(result))}
    with instrument(rec, targets, [lib, caller]) as patched:
        assert len(patched) == 2
        assert caller.g(1) == 2 and lib.f(2) == 3
    assert lib.f is f and caller.g is f
    assert seen == [2, 3]
    assert rec.totals()["lib.f"]["calls"] == 2


def test_instrument_counts_a_raising_call_and_reraises():
    def boom():
        raise ValueError("no")

    lib = types.ModuleType("lib")
    lib.boom = boom
    errors = []
    rec = Recorder(clock=FakeClock())
    targets = {"lib.boom": (lib, "boom", lambda rec, a, k, r, err: errors.append(err))}
    with instrument(rec, targets, [lib]):
        with pytest.raises(ValueError):
            lib.boom()
    assert len(errors) == 1 and rec.totals()["lib.boom"]["calls"] == 1
