"""Rescaling of operation times by kernel samples around them."""

import pytest

import speed
from speed import SpeedLog


class Script:
    """A clock that advances by scripted kernel durations."""

    def __init__(self, durations):
        self.now = 0.0
        self.durations = list(durations)

    def clock(self):
        return self.now

    def run(self):
        self.now += self.durations.pop(0)


def test_factor_uses_the_samples_around_the_interval():
    s = Script([speed.REFERENCE_S, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S])
    log = SpeedLog(clock=s.clock, run=s.run)
    log.sample()            # at normal speed
    s.now += 100.0          # far away: outside the window
    log.sample()            # half speed, just before the op
    start = s.now
    s.now += 1.0
    end = s.now
    log.sample()            # half speed, just after
    assert log.factor(start, end) == pytest.approx(0.5)


def test_one_slow_sample_does_not_set_the_scale():
    s = Script([speed.REFERENCE_S] * 4 + [10 * speed.REFERENCE_S])
    log = SpeedLog(clock=s.clock, run=s.run)
    for _ in range(4):
        log.sample()
        s.now += 0.1
    start = s.now
    s.now += 0.1
    log.sample()
    assert log.factor(start, start + 0.05) == pytest.approx(1.0)


def test_factor_needs_a_sample():
    with pytest.raises(ValueError):
        SpeedLog().factor(0.0, 1.0)
