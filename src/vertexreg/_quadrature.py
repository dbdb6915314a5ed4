"""The two sampled-data rules of the simulation and integral routes, with
the bits of scipy.integrate's (1.17) simpson(y, x=x) on an odd number of
points and cumulative_trapezoid(y, x). Kept here so that no run imports
scipy.integrate, which brings scipy.optimize, scipy.special, scipy.sparse
and scipy.fft with it (vertexreg._solvers)."""

import numpy as np


def simpson(y, x):
    """Composite Simpson rule of samples y at strictly increasing points
    x, an odd number of them: one parabola per pair of intervals, each
    weighted for its own two spacings. Along the last axis of y, so a 2-D
    y gives one integral per row, each with the bits of its own call."""
    if np.shape(y)[-1] % 2 == 0:
        raise ValueError("simpson needs an odd number of points")
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[..., :-2:2] * (2.0 - 1.0 / h0divh1)
                        + y[..., 1:-1:2] * (hsum * (hsum / hprod))
                        + y[..., 2::2] * (2.0 - h0divh1))
    return np.sum(tmp, axis=-1)


def cumulative_trapezoid(y, x, initial=None):
    """Running trapezoid integral of samples y at points x; initial, when
    given, is put in front, so the result has the length of y."""
    res = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    if initial is not None:
        res = np.concatenate(([initial], res))
    return res
