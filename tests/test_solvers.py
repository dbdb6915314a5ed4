"""The drivers over scipy's compiled modules have the bits of scipy's public
functions, for the calls vertexreg makes."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from vertexreg import _solvers


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


# -- LSODA ------------------------------------------------------------------------

def level(value, direction):
    """A terminal event: y crosses value in the given direction."""
    def event(t, y):
        return y[0] - value
    event.terminal = True
    event.direction = direction
    return event


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-2.0, 0.5), b=st.floats(-2.0, 2.0), w=st.floats(0.1, 3.0),
       y0=st.floats(-1.0, 1.0), t0=st.floats(-5.0, 5.0),
       span=st.floats(0.5, 20.0), n_points=st.integers(2, 300),
       tol=st.floats(1e-12, 1e-6), max_step=st.floats(0.05, 1.0),
       lo=st.one_of(st.floats(-3.0, 3.0), st.just(-math.inf)),
       hi=st.one_of(st.floats(-3.0, 3.0), st.just(math.inf)))
def test_lsoda_has_the_bits_of_solve_ivp(a, b, w, y0, t0, span, n_points, tol,
                                         max_step, lo, hi):
    calls = [0, 0]

    def counted(which):
        def rhs(t, y):
            calls[which] += 1
            return [a * y[0] + b * math.sin(w * t)]
        return rhs

    t_eval = np.linspace(t0, t0 + span, n_points)
    assert_as_solve_ivp(counted, t_eval, y0, lo, hi, tol, max_step, calls)


def assert_as_solve_ivp(counted, t_eval, y0, lo, hi, tol, max_step, calls):
    """lsoda gives solve_ivp's t, y, level hit and right-side count; counted(k)
    is the right side that adds its calls to calls[k] (0: scipy, 1: ours)."""
    ours = lambda: _solvers.lsoda(counted(1), t_eval, y0, lo, hi, rtol=tol,
                                  atol=tol, max_step=max_step)
    try:
        sol = solve_ivp(counted(0), (t_eval[0], t_eval[-1]), [y0],
                        method="LSODA", t_eval=t_eval,
                        events=[level(lo, -1), level(hi, 1)],  # lsoda's levels
                        rtol=tol, atol=tol, max_step=max_step)
    except ValueError as exc:  # an event that starts on its level may not bracket
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            ours()
        return
    t, y, hit, failure = ours()
    assert sol.success and failure is None
    assert bits(t) == bits(sol.t)
    assert bits(y) == bits(sol.y[0])
    assert calls[0] == calls[1]
    fired = [k for k, times in enumerate(sol.t_events) if len(times)]
    if hit is None:
        assert fired == []
    else:
        assert fired == [hit[0]]
        assert bits(hit[1]) == bits(sol.t_events[hit[0]][0])
        assert bits(hit[2]) == bits(sol.y_events[hit[0]][0][0])


def step_ends(rhs, t_span, y0, tol, max_step):
    """The ends of solve_ivp's LSODA steps, which t_eval does not move."""
    return solve_ivp(rhs, t_span, [y0], method="LSODA", rtol=tol, atol=tol,
                     max_step=max_step).t


def forced(t, y):
    return [-0.7 * y[0] + 1.3 * math.sin(2.1 * t)]


def counted_forced():
    calls = [0, 0]

    def counted(which):
        def rhs(t, y):
            calls[which] += 1
            return forced(t, y)
        return rhs
    return counted, calls


# the single dense-output pass meets each of these layouts of t_eval
# against the steps, and must give solve_ivp's bits in every one

def test_lsoda_bits_when_a_step_covers_no_output():
    ends = step_ends(forced, (0.0, 12.0), 0.4, 1e-9, 0.25)
    t_eval = np.array([0.0, 0.05, 5.0, 5.01, 12.0])
    covered = np.searchsorted(ends, t_eval)  # the step reaching each point
    assert len(set(covered.tolist())) < len(ends) - 1  # steps without points
    counted, calls = counted_forced()
    assert_as_solve_ivp(counted, t_eval, 0.4, -math.inf, math.inf, 1e-9, 0.25,
                        calls)


def test_lsoda_bits_when_outputs_fall_on_step_ends():
    ends = step_ends(forced, (0.0, 8.0), 0.4, 1e-8, 0.5)
    for t_eval in (ends, ends[::3], np.union1d(ends, np.linspace(0.0, 8.0, 37))):
        if t_eval[-1] != ends[-1]:
            t_eval = np.append(t_eval, ends[-1])
        counted, calls = counted_forced()
        assert_as_solve_ivp(counted, t_eval, 0.4, -math.inf, math.inf, 1e-8,
                            0.5, calls)


def test_lsoda_bits_when_a_level_is_hit_in_the_first_step():
    # y' = -1000 from 0 falls through -1e-6 at t = 1e-9, inside LSODA's
    # first step (about 1e-6 long); the points before the root are kept,
    # the one between the root and the step's end is not
    def fall(t, y):
        return [-1.0e3]
    ends = solve_ivp(fall, (0.0, 1.0), [0.0], method="LSODA", rtol=1e-6,
                     atol=1e-6, max_step=0.25, events=[level(-1e-6, -1)]).t
    assert len(ends) == 2  # the start, then the root in the first step
    calls = [0, 0]

    def counted(which):
        def rhs(t, y):
            calls[which] += 1
            return fall(t, y)
        return rhs
    t_eval = np.array([0.0, 2.5e-10, 5e-10, 7.5e-10, 5e-9, 0.5, 1.0])
    assert_as_solve_ivp(counted, t_eval, 0.0, -1e-6, math.inf, 1e-6, 0.25, calls)


def test_lsoda_bits_with_a_one_point_tail():
    # dense points early, then t_bound alone in the last step
    t_eval = np.append(np.linspace(0.0, 1.0, 41), 9.0)
    ends = step_ends(forced, (0.0, 9.0), 0.4, 1e-10, 0.25)
    assert np.count_nonzero(t_eval > ends[-2]) == 1
    counted, calls = counted_forced()
    assert_as_solve_ivp(counted, t_eval, 0.4, -math.inf, math.inf, 1e-10, 0.25,
                        calls)


@pytest.mark.parametrize("hi, k, t_stop", [
    (0.9, 1, math.asin(0.9)),           # y = sin t rises to the ceiling first
    (1.5, 0, math.pi + math.asin(0.5)),  # the ceiling is never reached
])
def test_lsoda_stops_at_the_floor_or_the_ceiling(hi, k, t_stop):
    # y' = cos t from 0 against the floor -0.5: whichever level y reaches
    # first ends the run, at its root, with y on that level
    rhs = lambda t, y: [math.cos(t)]
    t_eval = np.linspace(0.0, 6.0, 13)
    t, y, hit, failure = _solvers.lsoda(rhs, t_eval, 0.0, -0.5, hi,
                                        rtol=1e-10, atol=1e-10, max_step=0.25)
    assert failure is None
    assert hit[0] == k
    assert hit[1] == pytest.approx(t_stop, abs=1e-8)
    assert hit[2] == pytest.approx((-0.5, hi)[k], abs=1e-12)
    assert list(t) == list(t_eval[t_eval <= hit[1]])


# -- brentq -----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(c=st.floats(-0.99, 0.99), w=st.floats(0.2, 5.0),
       below=st.floats(0.01, 1.0), above=st.floats(0.01, 1.0),
       xtol=st.sampled_from([4 * _solvers.EPS, 1e-13, 1e-6]))
def test_brentq_has_the_bits_of_scipy(c, w, below, above, xtol):
    # sin rises through c between -pi/2w and pi/2w
    f = lambda x: math.sin(w * x) - c
    root, quarter = math.asin(c) / w, math.pi / (2.0 * w)
    lo = root - below * (root + quarter)
    hi = root + above * (quarter - root)
    assume(f(lo) < 0.0 < f(hi))
    ours = _solvers.brentq(f, lo, hi, xtol)
    assert bits(ours) == bits(brentq(f, lo, hi, xtol=xtol))


def test_brentq_stops_on_nan():
    with pytest.raises(ValueError, match="NaN"):
        _solvers.brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12)
