"""Self-time arithmetic of the tracer on nested spans with known timings."""

import pytest

from spans import Tracer


class FakeClock:
    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def by_name(tracer):
    return {s["name"]: s for s in tracer.spans}


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.enter("a"); tracer.enter("b"); tracer.enter("c")
    tracer.exit(); tracer.exit()
    tracer.enter("d"); tracer.exit()
    tracer.exit()
    spans = by_name(tracer)
    assert {n: s["self_s"] for n, s in spans.items()} == {"a": 3, "b": 2, "c": 1, "d": 4}
    assert spans["c"]["parent"] == spans["b"]["id"]
    assert spans["b"]["parent"] == spans["d"]["parent"] == spans["a"]["id"]
    assert {s["trace"] for s in tracer.spans} == {0}


def test_calls_below_train_are_aggregated_per_parent():
    # train [0, 20]; two steps [1, 6] and [8, 16]; latent inside each step
    # for 2 and 3 time units; one evaluate [17, 19] directly under train.
    readings = [0, 1, 2, 4, 6, 8, 10, 13, 16, 17, 19, 20]
    tracer = Tracer(clock=FakeClock(readings))
    tracer.enter("solver.train")
    for _ in range(2):
        tracer.enter("solver.train_step"); tracer.enter("model.latent")
        tracer.exit(); tracer.exit()
    tracer.enter("evaluation.evaluate"); tracer.exit()
    tracer.exit()
    assert [s["name"] for s in tracer.spans] == ["solver.train"]
    assert tracer.spans[0]["self_s"] == 20 - (5 + 8 + 2)
    assert tracer.calls("solver.train_step") == (2, 13, 8)
    assert tracer.calls("model.latent", in_step=True) == (2, 5, 5)
    assert tracer.calls("model.latent", in_step=False) == (0, 0.0, 0.0)
    assert tracer.calls("evaluation.evaluate", in_step=False) == (1, 2, 2)


def test_hook_time_is_charged_to_no_span():
    # outer [0, 10] calls f [1, 3]; f's hook runs from 3 to 7 on the raw
    # clock, so outer ends at raw 14 = 10 on the paused clock.
    tracer = Tracer(clock=FakeClock([0, 1, 3, 3, 7, 14]))
    f = tracer.wrap(lambda: None, "f", hook=lambda *a: None)
    tracer.enter("outer")
    f()
    tracer.exit()
    spans = by_name(tracer)
    assert spans["f"]["end"] - spans["f"]["start"] == 2
    assert spans["outer"]["end"] - spans["outer"]["start"] == 10
    assert spans["outer"]["self_s"] == 8


def test_each_root_span_starts_a_trace():
    tracer = Tracer(clock=FakeClock(range(8)))
    for name in ("cli.main", "cli.main"):
        tracer.enter(name); tracer.enter("cli.cmd_run"); tracer.exit(); tracer.exit()
    assert [s["trace"] for s in tracer.spans] == [0, 0, 1, 1]


def test_wrapped_exception_closes_the_span():
    tracer = Tracer(clock=FakeClock([0, 1]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0]["self_s"] == 1 and not tracer._stack
