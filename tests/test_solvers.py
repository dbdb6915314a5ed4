"""The drivers over scipy's compiled modules have the bits of scipy's public
functions, for the calls vertexreg makes."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
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


# -- quad -------------------------------------------------------------------------

def scipy_quad(f, a, b, args, epsabs, epsrel, limit):
    value, abserr, _, *message = quad(f, a, b, args=args, epsabs=epsabs,
                                      epsrel=epsrel, limit=limit, full_output=1)
    flag = " ".join(message[0].splitlines()[0].split()) if message else None
    return value, abserr, flag


@settings(max_examples=80, deadline=None)
@given(a=st.floats(-5.0, 5.0), width=st.floats(0.1, 30.0),
       k=st.floats(0.0, 2.0), w=st.floats(0.0, 20.0),
       epsabs=st.sampled_from([0.0, 1e-13, 1e-8]),
       epsrel=st.sampled_from([1e-11, 1e-10, 1e-6]),
       limit=st.integers(1, 500))
def test_quad_has_the_bits_of_scipy(a, width, k, w, epsabs, epsrel, limit):
    f = lambda x, k, w: math.exp(-k * x) * math.cos(w * x)
    ours = _solvers.quad(f, a, a + width, (k, w), epsabs, epsrel, limit)
    theirs = scipy_quad(f, a, a + width, (k, w), epsabs, epsrel, limit)
    assert bits(ours[:2]) == bits(theirs[:2])
    assert ours[2] == theirs[2]


@pytest.mark.parametrize("f, a, b, epsabs, limit", [
    (lambda x: math.cos(200.0 * x), 0.0, 10.0, 1e-13, 3),         # ier 1
    (lambda x: 1.0 / x, 1e-300, 1.0, 1e-13, 200),                 # ier 1
    (lambda x: math.sin(x) + 1e-9 * math.sin(1e7 * x), 0.0, 1.0,  # ier 2
     0.0, 200),
    (lambda x: abs(x - 0.5) ** -0.99 if x != 0.5 else 0.0, 0.0, 1.0,  # ier 4
     1e-13, 200),
    (lambda x: abs(x - 0.3) ** -0.9999 if x != 0.3 else 0.0, 0.0, 1.0,  # ier 5
     1e-13, 200),
])
def test_quad_flags_as_scipy(f, a, b, epsabs, limit):
    ours = _solvers.quad(f, a, b, (), epsabs, 1e-13, limit)
    theirs = scipy_quad(f, a, b, (), epsabs, 1e-13, limit)
    assert ours[2] is not None
    assert bits(ours[:2]) == bits(theirs[:2])
    assert ours[2] == theirs[2]


def test_quad_rejects_invalid_input():
    with pytest.raises(ValueError, match="ier=6"):
        _solvers.quad(math.cos, 0.0, 1.0, (), 1e-13, 1e-10, 0)


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
