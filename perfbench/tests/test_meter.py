"""Reference-second arithmetic of the meter on a fake clock and a fake loop."""

from pytest import approx

import meter


class FakeTime:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def fake_meter(monkeypatch, loop_seconds):
    clock = FakeTime()
    durations = iter(loop_seconds)

    def loop():
        clock.now += next(durations)

    monkeypatch.setattr(meter, "time", clock)
    monkeypatch.setattr(meter, "reference_loop", loop)
    return meter.Meter(), clock


def test_lap_excludes_the_loops_and_scales_by_mean_speed(monkeypatch):
    ref = meter.REFERENCE_S
    m, clock = fake_meter(monkeypatch, [ref, 2 * ref, 4 * ref])
    m.reset()                    # loop at the reference speed
    clock.now += 1.0
    m.sample()                   # a timer tick: the machine runs at half speed
    clock.now += 1.0
    reference, wall = m.lap()    # a quarter speed at the end
    assert wall == approx(2.0)
    assert reference == approx(2.0 * (1 + 0.5 + 0.25) / 3)
    assert m.clock() == approx(2.0)


def test_consecutive_laps_share_their_boundary_sample(monkeypatch):
    ref = meter.REFERENCE_S
    m, clock = fake_meter(monkeypatch, [ref, 2 * ref, 2 * ref])
    m.reset()
    clock.now += 0.5
    assert m.lap() == approx((0.5 * 0.75, 0.5))
    clock.now += 0.5
    assert m.lap() == approx((0.5 * 0.5, 0.5))
