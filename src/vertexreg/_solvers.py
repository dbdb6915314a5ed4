"""scipy's compiled solver modules, loaded without the package inits that cost most of set-up,
and thin drivers with the bits of scipy 1.17's LSODA solve_ivp and brentq."""

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

EPS = np.finfo(float).eps


def compiled(name):
    """The compiled scipy module name (scipy.<package>._<module>), loaded
    from its file under its own name, or the copy already loaded: a later
    import of its package reuses it."""
    if name not in sys.modules:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        package = name.split(".")[1]
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(root, package)])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_odepack = compiled("scipy.integrate._odepack")
_zeros = compiled("scipy.optimize._zeros")


def brentq(f, a, b, xtol):
    """brentq(f, a, b, xtol=xtol): a root of f bracketed by [a, b]."""
    def guarded(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx
    return _zeros._brentq(guarded, a, b, xtol, 4 * EPS, 100, (), False, True)


def lsoda(fun, t_eval, y0, lo, hi, rtol, atol, max_step):
    """solve_ivp(fun, (t_eval[0], t_eval[-1]), [y0], method="LSODA",
    t_eval=t_eval, events=(y falls to lo, y rises to hi), rtol=, atol=,
    max_step=) for one equation integrated forward, both events terminal;
    an infinite level is never reached. Returns (t, y, hit, failure): the
    t_eval points reached and y there; hit = (k, t, y) where the run
    reached its floor lo (k = 0) or its ceiling hi (k = 1), else None;
    failure = why a step failed, else None. Raises ValueError when fun
    returns a non-finite value, which LSODA would step on forever or carry
    along, or when a level's root fails. The step loop keeps each step's
    end and Nordsieck history; the t_eval values come after it."""
    def checked(t, y):
        dy = fun(t, y)
        if not math.isfinite(dy[0]):
            raise ValueError(f"the right side is {dy[0]!r} at t={t!r}")
        return dy

    t, t_bound = float(t_eval[0]), float(t_eval[-1])
    rwork = np.zeros(36)
    rwork[0], rwork[5] = t_bound, max_step
    iwork = np.zeros(21, dtype=np.int32)
    iwork[5:9] = 500, 0, 12, 5
    doubles, ints = np.zeros(240), np.zeros(48, dtype=np.int32)
    state = np.array([y0], dtype=float)
    levels = (lo, hi)
    g_lo, g_hi = state[0] - lo, state[0] - hi
    ends, histories, flags, istate, hit, failure = [], [], [], 1, None, None
    while hit is None and t < t_bound:
        t_old = t
        state, t, istate = _odepack.lsoda(
            checked, state, t, t_bound, rtol, atol, 5, istate, rwork, iwork,
            None, 2, (), 1, (), doubles, ints)
        if istate < 0:
            failure = f"LSODA failed at t={t!r} with istate={istate}"
            break
        istate = 2
        new_lo, new_hi = state[0] - lo, state[0] - hi
        # solve_ivp's tests for a falling and a rising event
        fired = [k for k, crossed in enumerate((g_lo >= 0 >= new_lo,
                                                g_hi <= 0 <= new_hi)) if crossed]
        g_lo, g_hi = new_lo, new_hi
        ends.append(t)
        histories.append(rwork[10:33].copy())  # the last and next step size, yh
        flags.append(iwork[13:15].copy())  # the order, and the next one
        if fired:
            yh, h = _nordsieck(histories[-1], flags[-1]), rwork[11]

            def dense(s):
                return np.dot(yh, ((s - t) / h) ** np.arange(yh.shape[1]))[0]
            roots = [brentq(lambda s: dense(s) - levels[k], t_old, t, 4 * EPS)
                     for k in fired]
            first = int(np.argmin(roots))
            hit = (fired[first], roots[first], dense(roots[first]))
    return _dense_output(t_eval, ends, histories, flags, hit) + (hit, failure)


def _nordsieck(history, flags):
    """A step's Nordsieck array yh as a 1-row matrix, from the copies of
    rwork[10:33] and iwork[13:15] taken after it: the last column rescaled
    when the order is set to drop."""
    order, next_order = flags
    yh = history[10:11 + order].reshape(1, -1).copy()
    if next_order < order:
        yh[:, -1] *= (history[1] / history[0]) ** order
    return yh


def _dense_output(t_eval, ends, histories, flags, hit):
    """The t_eval points up to the last step's end, or its level root, and y
    there from the interpolant of the first step whose end reaches each: one
    np.power over all (point, power) pairs, whose values do not depend on the
    array, then one np.dot per step in the shapes of solve_ivp's, which do."""
    reach = hit[1] if hit else ends[-1] if ends else -math.inf
    n = int(np.searchsorted(t_eval, reach, side="right"))
    if n == 0:
        return np.empty(0), np.empty(0)
    t_out, ends = np.array(t_eval[:n], dtype=float), np.array(ends)
    step = np.searchsorted(ends, t_out)
    first = np.flatnonzero(np.diff(step, prepend=-1))
    counts = np.diff(first, append=n)
    sizes = counts * (np.array(flags)[step[first], 0] + 1)
    offsets = np.cumsum(sizes) - sizes
    power, col = np.divmod(np.arange(sizes.sum()) - np.repeat(offsets, sizes),
                           np.repeat(counts, sizes))
    x = (t_out - ends[step]) / np.array(histories)[step, 1]
    powers = np.power(x[np.repeat(first, sizes) + col], power)
    return t_out, np.concatenate([
        np.dot(_nordsieck(histories[k], flags[k]),
               powers[a:a + size].reshape(-1, count))[0]
        for k, a, size, count in zip(step[first].tolist(), offsets.tolist(),
                                     sizes.tolist(), counts.tolist())])
