"""Unit tests for the simulators' shared ResidualObserver."""

import numpy as np
import pytest

from repro.runtime.observer import ResidualObserver


class Residual:
    """``(x, out) -> out`` writing a fixed true residual; counts its calls."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.calls = 0

    def __call__(self, x, out):
        self.calls += 1
        out[:] = self.values
        return out


class Recorder:
    """The two tracer hooks the observer calls."""

    def __init__(self):
        self.events = []

    def observe(self, t, res, count):
        self.events.append(("observe", t, res, count))

    def convergence(self, t, res, tol):
        self.events.append(("convergence", t, res, tol))


def make(values=(3.0, -1.0), b_norm=2.0, tol=1e-9, every=64, tracer=None):
    residual = Residual(values)
    obs = ResidualObserver(residual, np.zeros(len(values)), b_norm, tol, every, tracer)
    return obs, residual


def drift(obs, value=0.5):
    """Stand-in for commits scattering into the maintained residual."""
    obs.r[:] = value


def test_initial_point_is_the_fresh_relative_norm():
    obs, residual = make()
    assert residual.calls == 1
    assert (obs.times, obs.residuals, obs.counts) == ([0.0], [2.0], [0])


def test_recomputes_on_exactly_every_kth_observation():
    obs, residual = make(every=3)
    recomputed = []
    for i in range(1, 10):
        before = residual.calls
        drift(obs)
        res = obs.observe(float(i), i)
        recomputed.append(residual.calls > before)
        # A recompute replaces the drifted buffer with the true residual.
        assert res == (2.0 if recomputed[-1] else 0.5)
    assert recomputed == [False, False, True] * 3


def test_zero_cadence_never_recomputes():
    obs, residual = make(every=0)
    for i in range(1, 200):
        drift(obs, 1.0 / i)
        assert obs.observe(float(i), i) == pytest.approx(1.0 / i)
    assert residual.calls == 1


def test_crossing_recomputes_resets_counter_and_records_fresh_value():
    obs, residual = make(tol=1.0, every=3)
    drift(obs)
    obs.observe(1.0, 1)  # counter 1; 0.5 < tol, so this one is confirmed
    assert residual.calls == 2
    assert obs.residuals[-1] == 2.0  # judged on the fresh value
    # The crossing reset the counter: the next recompute is three
    # observations after it, not at the original cadence's third.
    calls = []
    for i in range(2, 5):
        drift(obs, 5.0)
        obs.observe(float(i), i)
        calls.append(residual.calls)
    assert calls == [2, 2, 3]


def test_fresh_recompute_is_not_confirmed_twice():
    obs, residual = make(values=(0.0, 0.0), tol=1.0, every=1)
    assert obs.observe(1.0, 1) == 0.0
    assert residual.calls == 2  # the construction and one recompute


def test_observations_are_traced():
    rec = Recorder()
    obs, _ = make(every=1, tracer=rec)
    obs.observe(1.5, 7)
    assert rec.events == [("observe", 1.5, 2.0, 7)]


def test_finish_skips_the_recompute_when_nothing_was_committed():
    obs, residual = make(every=1)
    obs.observe(1.0, 4)
    calls = residual.calls
    assert obs.finish(9.0, 4, 0, False) is False
    assert residual.calls == calls
    assert obs.times == [0.0, 1.0]


def test_finish_observes_once_more_when_dirty():
    rec = Recorder()
    obs, residual = make(values=(0.0, 0.0), tol=1.0, every=0, tracer=rec)
    obs.r[:] = 4.0
    obs.observe(2.0, 3)  # 4.0 >= tol: no crossing in the loop
    drift(obs, 0.0)
    assert obs.finish(1.0, 5, 1, False) is True
    # max(t_end, times[-1]): the last point never goes back in time.
    assert obs.times[-1] == 2.0 and obs.counts[-1] == 5
    assert rec.events[-1] == ("convergence", 2.0, 0.0, 1.0)


def test_finish_does_not_trace_a_crossing_the_loop_already_saw():
    rec = Recorder()
    obs, _ = make(values=(0.0, 0.0), tol=1.0, every=1, tracer=rec)
    assert obs.finish(3.0, 2, 1, True) is True
    assert [e[0] for e in rec.events] == ["observe"]


def test_zero_b_gives_the_absolute_norm():
    obs, _ = make(values=(3.0, -1.0), b_norm=0.0, every=1)
    assert obs.residuals[0] == 4.0
    assert obs.observe(1.0, 1) == 4.0


def test_residual_buffer_is_updated_in_place():
    obs, _ = make(every=1)
    buf = obs.r
    obs.observe(1.0, 1)
    assert obs.r is buf
