"""Spectral toolkit for the rescaled higher-order heat kernels.

Builds the one-dimensional self-similar kernel F of the 2m-th order heat
semigroup from its Fourier-cosine representation, exposes its decay and
oscillation constants, the generalized Hermite polynomial eigenfunctions of
the adjoint rescaled generator, and the weighted bi-orthonormality between
the two eigenfunction families. Everything downstream (reduced ODEs,
projections, criterion integrands) pulls its constants from here.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._csvtable import write_csv
from .errors import ConfigError, FitError, QuadratureError, UnsupportedOrder

__all__ = [
    "KernelConstants",
    "KernelModel",
    "HermitePair",
    "ExactPolynomial",
    "AsymptoticFit",
    "BiorthResult",
    "kernel_constants",
    "build_kernel",
    "check_fit_window",
    "kernel_asymptotic_fit",
    "adjoint_polynomial",
    "adjoint_identity_residual",
    "biorthonormality_matrix",
    "export_kernel_csv",
]

# The kernel integral runs along a line through the saddles of its
# integrand and is cut where the integrand has fallen to e^{-_CUT} of its
# size at the saddles; the kernel refuses to build if the tail dropped
# beyond that cut may exceed TAIL_TOL (KernelModel._raw)
TAIL_TOL = 1e-14
_CUT = 50.0

# Orders the public derivative contract guarantees; the bi-orthonormality
# matrix extends internally up to _EXTENDED_ORDER_MAX.
DERIV_ORDER_MAX = 3
_EXTENDED_ORDER_MAX = 8

# The m=2 interpolant of F and its first three derivatives, and the series
# beyond it, may differ from quadrature at off-node points by at most
# INTERP_TOL, and by at most INTERP_REL_TOL of F^(k)'s size
# (KernelModel._size), or the kernel refuses to build. The interpolant
# misses the rule by at most 3.5e-15 of that size on [0, 21] (measured)
INTERP_TOL = 1e-13
INTERP_REL_TOL = 1e-12

# The m=2 interpolant covers |y| <= _INTERP_SPAN, in panels of width
# _CHEB_PANEL_WIDTH and degree _CHEB_DEGREE: 14 panels, the first 14 of the
# 40 an interpolant on [0, 60] would have, with their bits. F is entire, so
# the error falls geometrically with the degree; these reach round-off
# (measured). The evaluators take _EVAL_CHUNK points at a time, so their
# scratch does not grow with the points.
_INTERP_SPAN = 21.0
_CHEB_PANEL_WIDTH = 1.5
_CHEB_DEGREE = 14
_EVAL_CHUNK = 8192

# Terms of the m=2 far field's two-saddle series (KernelModel._series),
# which serves |y| > _INTERP_SPAN, and the points in (_INTERP_SPAN, 300]
# where it must match the rule as the interpolant must. At y = 60 the last
# term is below round-off; the series misses the rule by at most 1.2e-14
# of F^(k)'s size on [21, 60] and by 9.8e-14 on [60, 300], the rounding of
# the phase b0 y^{4/3} (measured)
_SADDLE_TERMS = 14
_SERIES_CHECK = (21.5, 25.0, 35.0, 60.0, 130.0, 300.0)

# The normalizer 1/pi gives F unit mass, since its transform e^{-s^{2m}} is
# 1 at s = 0. The m=2 build checks it: the built evaluators' mass on the
# y_span window's rule must lie within MASS_TOL of 1
MASS_TOL = 1e-13

# Composite 12-node Gauss-Legendre panels: the y window below takes one
# panel per 3 radians of the frequency _CUT^{1/(2m)}, past which F's
# transform e^{-s^{2m}} is below e^{-_CUT}, and
# every kernel point maps the same _PANELS panels on [0, 1] onto its own
# contour range, _BLOCK points at a time. 16 panels keep F^(k), k <= 8,
# within 1.2e-14 of its size e^{-d0 |y|^alpha} max(1, |s*|)^k |y|^{-delta0}
# for |y| <= 300 (measured against 34-digit quadrature)
_RAD_PER_PANEL = 3.0
# numpy.polynomial.legendre.leggauss(12), with its bits
_GL_NODES = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL_WEIGHTS = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
    0.20316742672306573, 0.2334925365383546, 0.2491470458134027,
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141])
_PANELS = 16
_BLOCK = 128

# Per order m: the y window of the unit-mass check and the
# bi-orthonormality matrix. The kernel's weight beyond it is what limits the
# bi-orthonormality matrix: for m=2 its error is 3e-11 on [0, 50] and 3e-13
# on [0, 60], the round-off of its degree-6 moments (measured)
_Y_SPAN = {1: 30.0, 2: 60.0}

_GAUSS_NORM = 1.0 / math.sqrt(4.0 * math.pi)


@dataclass(frozen=True)
class KernelConstants:
    """Closed-form WKBJ constants of the order-2m kernel.

    alpha is the stretching exponent of the far-field variable y^alpha, d0
    the decay rate, b0 the oscillation wavenumber and delta0 the algebraic
    prefactor exponent. For m=1 the kernel is the pure Gaussian: alpha=2,
    d0=1/4, b0=0.
    """

    m: int
    alpha: float
    d0: float
    b0: float
    delta0: float


def kernel_constants(m):
    """Decay/oscillation constants of the order-2m kernel, any m >= 1."""
    if int(m) != m or m < 1:
        raise UnsupportedOrder("m must be a positive integer, got %r" % (m,))
    m = int(m)
    alpha = 2.0 * m / (2.0 * m - 1.0)
    r = (2.0 * m - 1.0) / (2.0 * m) ** alpha
    ang = math.pi / (2.0 * (2.0 * m - 1.0))
    d0 = r * math.sin(ang)
    b0 = r * math.cos(ang)
    if abs(b0) < 1e-15:
        b0 = 0.0  # cos(pi/2) rounds to ~6e-17 for m=1; the Gaussian has none
    return KernelConstants(m=m, alpha=alpha, d0=d0, b0=b0,
                           delta0=(m - 1.0) / (2.0 * m - 1.0))


def _gauss_panels(a, b, n_panels):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    weights = np.tile(half * _GL_WEIGHTS, n_panels)
    return nodes, weights


def _tail_bound(s_max, m, order):
    """Upper bound for the dropped integral of s^order e^{-s^{2m}} beyond s_max."""
    decay = 2.0 * m * s_max ** (2 * m - 1) - order / s_max
    if decay <= 0.0:
        return math.inf
    # integrand value at the cut times twice the local decay length
    return s_max ** order * math.exp(-s_max ** (2 * m)) * 2.0 / decay


def _gaussian_derivative(y, order):
    """G = (4 pi)^{-1/2} e^{-y^2/4} and its derivatives up to order 3."""
    g = _GAUSS_NORM * np.exp(-0.25 * y * y)
    if order == 0:
        return g
    if order == 1:
        return -0.5 * y * g
    if order == 2:
        return (0.25 * y * y - 0.5) * g
    return (0.75 - 0.125 * y * y) * y * g


def _check_miss(what, k, approx, exact, size, where):
    """QuadratureError when approx misses exact by more than INTERP_TOL, or
    by more than INTERP_REL_TOL of size, at any point."""
    miss = np.abs(approx - exact)
    worst, rel = float(np.max(miss)), float(np.max(miss / size))
    if worst > INTERP_TOL or rel > INTERP_REL_TOL:
        raise QuadratureError(
            "%s of derivative %d misses quadrature by %.3g (bound %.1g), "
            "%.3g of its size (bound %.1g), on %s"
            % (what, k, worst, INTERP_TOL, rel, INTERP_REL_TOL, where))


def _saddle_coefficients(k):
    """The real coefficients r_j, j < _SADDLE_TERMS, of P_k in
    KernelModel._series, each rounded once from its exact value.

    r_j sums, over a + 2b + c = 2j with c <= k, the terms
    (-1)^{a+b} C(k, c) (2n-1)!! 4^a / (a! b! 12^n), n = (3a + 4b + c)/2;
    they are summed as integers over the denominator (2j)! j! 12^{3j}.
    """
    fac = [math.factorial(i) for i in range(2 * _SADDLE_TERMS)]
    odd_fac = [1]  # (2n-1)!!
    for n in range(1, 3 * _SADDLE_TERMS):
        odd_fac.append(odd_fac[-1] * (2 * n - 1))
    out = []
    for j in range(_SADDLE_TERMS):
        total = 0
        for b in range(j + 1):
            for c in range(min(k, 2 * j - 2 * b) + 1):
                a = 2 * j - 2 * b - c
                n = (3 * a + 4 * b + c) // 2
                total += ((-1) ** (a + b) * math.comb(k, c) * odd_fac[n]
                          * 4 ** a * 12 ** (3 * j - n)
                          * (fac[2 * j] // fac[a]) * (fac[j] // fac[b]))
        out.append(total / (fac[2 * j] * fac[j] * 12 ** (3 * j)))
    return out


def _chebvander(x, degree):
    """T_0(x), ..., T_degree(x), a column per degree, by the recurrence
    T_i = 2x T_{i-1} - T_{i-2}: numpy.polynomial.chebyshev.chebvander's
    operations, so its bits, for degree >= 1."""
    v = np.empty((degree + 1,) + x.shape)
    v[0] = x * 0 + 1
    x2 = 2 * x
    v[1] = x
    for i in range(2, degree + 1):
        v[i] = v[i - 1] * x2 - v[i - 2]
    return np.moveaxis(v, 0, -1)


class _PiecewiseChebyshev:
    """Interpolants of an even function and its derivatives up to order 3.

    sample(y, orders) supplies the values, one row per order, at the
    Chebyshev nodes of equal panels covering [0, span]; evaluation takes
    |y| <= span and applies the parity (-1)^order for y < 0, _EVAL_CHUNK
    points at a time. Refuses to build when the interpolant misses sample
    at the points between the nodes by more than INTERP_TOL, or by more
    than INTERP_REL_TOL of size(y, order).
    scalar() evaluates one float with the arithmetic of __call__, in the
    same order, so both return the same bits.
    """

    def __init__(self, sample, span, size):
        n_panels = math.ceil(span / _CHEB_PANEL_WIDTH)
        n = _CHEB_DEGREE + 1
        self._width = span / n_panels
        self._last = n_panels - 1
        left = self._width * np.arange(n_panels)

        def on_panels(x):
            return (left[:, None] + 0.5 * self._width * (x + 1.0)).ravel()

        # first-kind nodes: discrete orthogonality of T_k gives the coefficients
        nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        to_coef = _chebvander(nodes, _CHEB_DEGREE) * (2.0 / n)
        to_coef[:, 0] *= 0.5
        # stored (degree + 1, panels), so one gather gives a row per degree
        orders = range(DERIV_ORDER_MAX + 1)
        self._coef = [
            np.ascontiguousarray((values.reshape(n_panels, n) @ to_coef).T)
            for values in sample(on_panels(nodes), orders)]
        # per order and panel, the coefficients as floats, highest degree first
        self._rows = [[tuple(col) for col in coef[::-1].T.tolist()]
                      for coef in self._coef]

        # second-kind points, panel edges included, interlace the nodes
        check = on_panels(np.cos(np.pi * np.arange(n + 1) / n))
        for k, exact in zip(orders, sample(check, orders)):
            _check_miss("Chebyshev interpolant", k, self(check, k), exact,
                        size(check, k), "[0, %g]" % span)

    def __call__(self, y, order):
        if y.size <= _EVAL_CHUNK:
            return self._clenshaw(y, order)
        flat = y.reshape(-1)
        out = np.empty(flat.shape)
        for lo in range(0, flat.size, _EVAL_CHUNK):
            out[lo:lo + _EVAL_CHUNK] = self._clenshaw(flat[lo:lo + _EVAL_CHUNK], order)
        return out.reshape(y.shape)

    def _clenshaw(self, y, order):
        x = np.abs(y) / self._width
        panel = np.minimum(x.astype(np.intp), self._last)
        t = 2.0 * (x - panel) - 1.0
        coef = self._coef[order].take(panel, axis=1)
        # Clenshaw recurrence, one row of coefficients per degree; in place,
        # since this is the hot loop of every m=2 projection
        two_t = t + t
        b1, b2, tmp = coef[-1].copy(), np.zeros_like(t), np.empty_like(t)
        for c in coef[-2:0:-1]:
            np.multiply(two_t, b1, out=tmp)
            tmp -= b2
            tmp += c
            b1, b2, tmp = tmp, b1, b2
        out = t * b1
        out += coef[0]
        out -= b2
        if order % 2:
            out *= np.sign(y)  # odd: exact negation, and exactly 0 at y = 0
        return out

    def scalar(self, y, order):
        """__call__ for one float |y| <= span, in float arithmetic: a
        single point costs no numpy calls, which is what LSODA asks of
        the m=2 right side."""
        x = abs(y) / self._width
        panel = min(int(x), self._last)
        t = 2.0 * (x - panel) - 1.0
        two_t = t + t
        row = self._rows[order][panel]
        b1, b2 = row[0], 0.0
        for c in row[1:-1]:
            b1, b2 = two_t * b1 - b2 + c, b1
        out = t * b1 + row[-1] - b2
        if order % 2:
            out *= (y > 0.0) - (y < 0.0)
        return out


class KernelModel:
    """Rescaled kernel F of order m.

    F(y) = (normalizer / 2) int e^{-s^{2m} + isy} ds over the real line,
    with the normalizer 1/pi of unit mass (MASS_TOL); F^(k) takes a factor
    (is)^k. _raw moves that integral onto a line through the saddles of
    its integrand, so one rule serves every y with accuracy relative to
    F's own size there. The rule samples the m=2 interpolant and checks
    it and the series at build; no evaluation goes through it. F and
    F_deriv (orders 0-3) come from closed forms: for m=1 the Gaussian G
    and G', G'', G'''; for m=2 a piecewise Chebyshev interpolant of the
    rule on |y| <= _INTERP_SPAN and the two-saddle series (_series)
    beyond it. The m=2 build also checks that these evaluators give unit
    mass on the y_span window. fourier_derivative adds orders 4-8 from
    those by the kernel's ODE (_by_ode).
    Immutable after construction; evaluation is pure and safe to share.
    """

    def __init__(self, constants):
        m = constants.m
        self.constants = constants
        self._m = m
        self._y_span = _Y_SPAN[m]

        worst = _tail_bound(_CUT ** (1.0 / (2 * m)), m, _EXTENDED_ORDER_MAX)
        if worst > TAIL_TOL:
            raise QuadratureError(
                "contour cut-off tail bound %.3g exceeds %.1g (cut e^-%g)"
                % (worst, TAIL_TOL, _CUT))

        self._rule = _gauss_panels(0.0, 1.0, _PANELS)
        self._interp = None
        self.normalizer = 1.0 / math.pi
        if m == 1:
            return

        def rule(y, orders):
            return self.normalizer * self._raw(y, orders)

        self._interp = _PiecewiseChebyshev(rule, _INTERP_SPAN, self._size)
        # _series' coefficients of x^j, x = 1/t: a row per order, the real
        # parts in rows 0-3 and the imaginary parts in rows 4-7, highest j
        # first. i^k e^{i pi (k-1-4j)/6} = e^{i pi (4k-1-4j)/6}, and
        # R^{k-1-4j} = |y|^{(k-1)/3} t^{-j} 4^{(4j+1-k)/3}
        orders = range(DERIV_ORDER_MAX + 1)
        k, j = np.array(orders)[:, None], np.arange(_SADDLE_TERMS)
        turn = np.exp(1j * np.pi / 6.0 * ((4 * k - 1 - 4 * j) % 12))
        r = np.array([_saddle_coefficients(order) for order in orders])
        coef = (self.normalizer * math.sqrt(math.pi / 6.0) * turn
                * 4.0 ** ((4 * j + 1 - k) / 3.0) * r)
        self._horner = np.concatenate([coef.real, coef.imag])[:, ::-1]
        check = np.array(_SERIES_CHECK)
        for order, exact, approx in zip(orders, rule(check, orders),
                                        self._series(check, orders)):
            _check_miss("saddle series", order, approx, exact,
                        self._size(check, order),
                        "(%g, %g]" % (_INTERP_SPAN, check[-1]))
        nodes, weights = self._y_rule(self._y_span)
        mass = 2.0 * float(weights @ self.F(nodes))
        if not abs(mass - 1.0) <= MASS_TOL:
            raise QuadratureError(
                "kernel mass on [-%g, %g] is %.17g, not 1 within %.1g"
                % (self._y_span, self._y_span, mass, MASS_TOL))

    # -- quadrature plumbing ------------------------------------------------

    def _y_rule(self, span):
        n_pan = int(math.ceil(span * _CUT ** (1.0 / (2 * self._m)) / _RAD_PER_PANEL)) + 8
        return _gauss_panels(0.0, span, n_pan)

    def _raw(self, y, orders):
        """1/2 int (is)^k e^{-s^{2m} + isy} ds along Im s = h(y), a row per k.

        For y > 0 the exponent has its saddles at |s*| = (|y|/2m)^{1/(2m-1)}
        and the angles a = pi/(2(2m-1)) and pi - a, both at the height
        h = |s*| sin a: y/2 for m=1 and (y/4)^{1/3}/2 for m=2. The integrand
        is entire and decays in the strip between the real line and that
        line, so the integral does not change there; but on the line its
        modulus is nowhere above its size at the saddles, e^{-d0 |y|^alpha},
        so nothing large cancels and the value is accurate to that size.
        With s = x + ih, x -> -x conjugates the integrand: the value is
        Re int_0^inf dx. Relative to the saddles the modulus is
        e^{-|x^2 - x*^2|^m}, x* = |s*| cos a, so x^2 runs from
        max(0, x*^2 - _CUT^{1/m}) to x*^2 + _CUT^{1/m}. On the right, in
        u = x^2 - x*^2 >= _CUT^{1/m} >= 1, |s|^2 = u + |s*|^2
        <= u (1 + |s*|^2), so relative to the saddle size times
        (1 + |s*|^2)^{k/2} the cut drops at most
        int s^k e^{-s^{2m}} ds beyond s = _CUT^{1/(2m)} (the TAIL_TOL
        guard); on the left, at most x* e^{-_CUT}.
        Each point maps the same rule onto its own range, for |y|, and odd
        orders take the sign of y. Points go _BLOCK at a time and each sums
        its own row, so a value depends on its own y alone.
        At about 17 us a point it is the reference, not an evaluator: it
        gives the m=2 interpolant samples and checks the interpolant and
        the series at build, and the tests compare with it.
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        m, u_cut = self._m, _CUT ** (1.0 / self._m)
        angle = math.pi / (2 * (2 * m - 1))
        t, w = self._rule
        rows = {k: i for i, k in enumerate(orders)}
        out = np.empty((len(rows), y.size))
        for lo in range(0, y.size, _BLOCK):
            yb = np.abs(y[lo:lo + _BLOCK])[:, None]
            radius = (yb / (2 * m)) ** (1.0 / (2 * m - 1))
            x2 = (radius * math.cos(angle)) ** 2
            x_lo = np.sqrt(np.maximum(x2 - u_cut, 0.0))
            width = np.sqrt(x2 + u_cut) - x_lo
            s = (x_lo + width * t) + 1j * (radius * math.sin(angle))
            term = np.exp(1j * yb * s - s ** (2 * m))
            term *= width * w
            i_s = 1j * s
            for k in range(max(rows) + 1):
                if k in rows:
                    out[rows[k], lo:lo + _BLOCK] = term.real.sum(axis=1)
                term *= i_s
        for k, i in rows.items():
            if k % 2:
                out[i] *= np.sign(y)  # odd: exact negation, and 0 at y = 0
        return out

    def _size(self, y, order):
        """F^(k)'s size e^{-d0 |y|^alpha} |y|^{-delta0} max(1, |s*|)^k, with
        the saddle radius |s*| = (|y|/2m)^{1/(2m-1)}: the scale _raw is
        accurate to. Infinite at y = 0 when delta0 > 0."""
        c, y = self.constants, np.abs(y)
        radius = (y / (2 * self._m)) ** (1.0 / (2 * self._m - 1))
        with np.errstate(divide="ignore"):
            return (np.exp(-c.d0 * y ** c.alpha) * y ** -c.delta0
                    * np.maximum(1.0, radius) ** order)

    def _series(self, y, orders):
        """F^(k) for each k in orders (0..3), a row per order, by the m=2
        two-saddle series: the far field, |y| > _INTERP_SPAN.

        For y > 0, F^(k) = normalizer Re J_k, J_k the integral of
        (is)^k e^{-s^4 + isy} through the saddle s+ = R e^{i pi/6},
        R = (y/4)^{1/3}; the other saddle, -conj(s+), gives the conjugate.
        With s = s+ + v the exponent is h+ - 6 s+^2 v^2 - 4 s+ v^3 - v^4,
        h+ = (-d0 + i b0) t, t = y^{4/3}. Expanding e^{-4 s+ v^3 - v^4}
        (s+ + v)^k in v and integrating term by term with the moments
        int v^{2n} e^{-A v^2} dv = Gamma(n + 1/2) A^{-n-1/2}, A = 6 s+^2 on
        the principal branch, gives J_k = i^k e^{h+} R^{k-1} P_k(R^{-4}),
        P_k(x) = sqrt(pi/6) sum_j r_j e^{i pi (k-1-4j)/6} x^j with the
        r_j of _saddle_coefficients (Olver, Asymptotics and Special
        Functions, 1974, ch. 4). So F^(k) e^{d0 t} y^{(1-k)/3} is the real
        part of e^{i b0 t} times a polynomial in 1/t with fixed complex
        coefficients. Horner sums its real and imaginary parts, cos and sin
        of b0 t combine them, and y^{(k-1)/3} e^{-d0 t} multiplies last.
        Points go _EVAL_CHUNK at a time, so the scratch does not grow with
        them, and every operation is elementwise, so a value depends on its
        own y alone; odd orders take the sign of y.
        """
        c = self.constants
        n = len(orders)
        coef = self._horner[list(orders) + [4 + k for k in orders]]
        out = np.empty((n, y.size))
        for lo in range(0, y.size, _EVAL_CHUNK):
            yc = y[lo:lo + _EVAL_CHUNK]
            ay = np.abs(yc)
            root = np.cbrt(ay)
            t = ay * root
            x = 1.0 / t
            acc = np.empty((2 * n, ay.size))
            acc[:] = coef[:, :1]
            for column in coef.T[1:, :, None]:
                acc *= x
                acc += column
            phase = c.b0 * t
            value = acc[:n] * np.cos(phase)
            value -= acc[n:] * np.sin(phase)
            lead = [np.exp(-c.d0 * t) / root]  # y^{(k-1)/3} e^{-d0 t}, k = 0
            for _ in range(max(orders)):
                lead.append(lead[-1] * root)
            for i, k in enumerate(orders):
                value[i] *= lead[k]
                if k % 2:
                    value[i] *= np.sign(yc)  # odd: exact negation
            out[:, lo:lo + _EVAL_CHUNK] = value
        return out

    def _eval(self, y, orders):
        """F^(k) for each k in orders (0..8), a row per order (a float each
        for a 0-d y): orders 0-3 by the Gaussian, or for m=2 by the
        interpolant on |y| <= _INTERP_SPAN and the series beyond it; higher
        orders from orders 0-3 by _by_ode."""
        extend = max(orders) > DERIV_ORDER_MAX
        base = range(DERIV_ORDER_MAX + 1) if extend else orders
        if self._interp is not None and isinstance(y, float):
            if abs(y) <= _INTERP_SPAN:
                rows = [self._interp.scalar(y, k) for k in base]
            else:  # a 1-element array, for the bits of the array path
                rows = [float(v) for v in self._series(np.array([y]), base)[:, 0]]
            return self._by_ode(y, rows, orders) if extend else rows
        scalar = np.isscalar(y) or np.ndim(y) == 0
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if self._interp is None:
            rows = [_gaussian_derivative(y, k) for k in base]
        elif np.max(np.abs(y)) <= _INTERP_SPAN:  # False for NaN too
            rows = [self._interp(y, k) for k in base]
        else:
            near = np.abs(y) <= _INTERP_SPAN
            far = ~near
            rows = [np.empty(y.shape) for _ in base]
            for row, k in zip(rows, base):
                row[near] = self._interp(y[near], k)
            for row, value in zip(rows, self._series(y[far], base)):
                row[far] = value
        if extend:
            rows = self._by_ode(y, rows, orders)
        return [float(row[0]) for row in rows] if scalar else rows

    def _by_ode(self, y, rows, orders):
        """The rows of orders, given the rows of orders 0..3.

        F solves (-1)^{m+1} F^(2m) + (y F)'/(2m) = 0, so
        F^(2m-1) = (-1)^m y F/(2m), and k more derivatives give
        F^(k+2m-1) = (-1)^m (y F^(k) + k F^(k-1))/(2m): F^(k+3) =
        (y F^(k) + k F^(k-1))/4 for m=2, F^(k+1) = -(y F^(k) + k F^(k-1))/2
        for m=1. Floats and arrays go through the same operations.
        """
        s, c = 2 * self._m - 1, (-1) ** self._m / (2.0 * self._m)
        for n in range(DERIV_ORDER_MAX + 1, max(orders) + 1):
            rows.append(c * (y * rows[n - s] + (n - s) * rows[n - s - 1]))
        return [rows[k] for k in orders]

    def _derivatives(self, y, order, top):
        orders = order if isinstance(order, tuple) else (order,)
        if min(orders) < 0 or max(orders) > top:
            raise ValueError("derivative orders must lie in 0..%d" % top)
        out = self._eval(y, orders)
        return out if orders is order else out[0]

    # -- public evaluators --------------------------------------------------

    def F(self, y):
        """Kernel value; the Gaussian (4 pi)^{-1/2} e^{-y^2/4} when m=1."""
        return self._eval(y, (0,))[0]

    def F_deriv(self, y, order):
        """Derivative of F up to the guaranteed order 3. A tuple of orders
        gives a list with a row per order (a float each for a float y),
        with the bits of one call per order; beyond the m=2 interpolant's
        span one series call serves them all."""
        return self._derivatives(y, order, DERIV_ORDER_MAX)

    def fourier_derivative(self, y, order):
        """Derivatives of orders 0..8, for the bi-orthonormality matrix; an
        order or a tuple of orders, as F_deriv takes them. Orders 4-8 come
        from orders 0-3 by the kernel's ODE (_by_ode), so they carry the
        error of orders 0-3, times factors up to |y| and the order."""
        return self._derivatives(y, order, _EXTENDED_ORDER_MAX)


def build_kernel(m):
    """Kernel model of order m (evaluators implemented for m in {1, 2})."""
    constants = kernel_constants(m)
    if m not in (1, 2):
        raise UnsupportedOrder(
            "kernel evaluators are implemented for m in {1, 2}; "
            "kernel_constants(m) covers the constants for any m")
    return KernelModel(constants)


@lru_cache(maxsize=4)
def default_kernel(m):
    """Shared kernel, built once per order."""
    return build_kernel(m)


# ---------------------------------------------------------------------------
# far-field asymptotic fit

# the range a fit window [lo, hi] must lie in, and its least width: over
# random windows the fit held d and b within 1.5% of d0 and b0 down to
# widths of 1e-2, and failed only near 1e-3
FIT_WINDOW_RANGE = (4.0, 25.0)
FIT_WINDOW_MIN_WIDTH = 1.0


def check_fit_window(window):
    """The fit window as floats (lo, hi); ConfigError unless it lies inside
    FIT_WINDOW_RANGE and is at least FIT_WINDOW_MIN_WIDTH wide."""
    y_lo, y_hi = float(window[0]), float(window[1])
    lo, hi = FIT_WINDOW_RANGE
    if not (lo <= y_lo and y_hi <= hi and y_hi - y_lo >= FIT_WINDOW_MIN_WIDTH):
        raise ConfigError(f"fit window must satisfy {lo:g} <= lo, hi <= {hi:g} "
                          f"and hi - lo >= {FIT_WINDOW_MIN_WIDTH:g}")
    return y_lo, y_hi


@dataclass(frozen=True)
class AsymptoticFit:
    d_fit: float
    b_fit: float
    residual: float  # sup of |fit - data| relative to the envelope amplitude
    window: tuple
    n_zeros: int


def kernel_asymptotic_fit(model, window):
    """Fit decay rate and wavenumber of the oscillatory kernel tail.

    In t = y^alpha, G = F y^delta0 ~ e^{-d t} (C1 sin(b t) + C2 cos(b t)) is
    a two-pole signal: on a grid uniform in t, G[n] = a1 G[n-1] + a2 G[n-2]
    with e^{(-d + ib) dt} a root of z^2 - a1 z - a2 (linear prediction, as
    in Prony's method). Its rows are weighted by the envelope e^{d t}, d
    from a first unweighted solve, so the whole window counts alike. A
    linear fit of G e^{d t} for C1 and C2 gives the residual.
    """
    cst = model.constants
    if cst.b0 == 0.0:
        raise FitError("kernel of order m=%d has no oscillation to fit" % cst.m)
    y_lo, y_hi = check_fit_window(window)

    t = np.linspace(y_lo ** cst.alpha, y_hi ** cst.alpha, 1201)
    ys = t ** (1.0 / cst.alpha)
    G = model.F(ys) * ys ** cst.delta0
    lagged = np.column_stack([G[1:-1], G[:-2]])
    d = 0.0
    for _ in range(2):
        w = np.exp(d * t[2:])
        (a1, a2), *_ = np.linalg.lstsq(lagged * w[:, None], G[2:] * w)
        if a1 * a1 + 4.0 * a2 >= 0.0:
            raise FitError("window [%g, %g] shows no oscillation" % (y_lo, y_hi))
        z = complex(0.5 * a1, math.sqrt(-a2 - 0.25 * a1 * a1))
        s = cmath.log(z) / (t[1] - t[0])  # -d + i b
        d, b = -s.real, s.imag

    H = G * np.exp(d * t)
    basis = np.column_stack([np.sin(b * t), np.cos(b * t)])
    (c1, c2), *_ = np.linalg.lstsq(basis, H)
    rel = float(np.max(np.abs(basis @ (c1, c2) - H)) / math.hypot(c1, c2))
    if rel > 0.10:
        raise FitError("fit residual %.3g exceeds 10%% of the envelope" % rel)
    return AsymptoticFit(d_fit=d, b_fit=b, residual=rel, window=(y_lo, y_hi),
                         n_zeros=int(np.count_nonzero(np.diff(np.sign(G)))))


# ---------------------------------------------------------------------------
# adjoint polynomials and bi-orthonormality


@dataclass(frozen=True)
class ExactPolynomial:
    """Monic integer-coefficient polynomial with a 1/sqrt(k!) normalization.

    coefficients maps power -> Fraction for the unnormalized polynomial;
    calling the object evaluates the normalized one.
    """

    coefficients: tuple  # ((power, Fraction), ...) in descending power
    norm_factorial: int

    @property
    def normalization(self):
        return 1.0 / math.sqrt(self.norm_factorial)

    @property
    def degree(self):
        return self.coefficients[0][0]

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for p, c in self.coefficients:
            out = out + float(c) * y ** p
        return out * self.normalization


@dataclass(frozen=True)
class HermitePair:
    """Eigenfunction pair no. k of the rescaled generator and its adjoint.

    adjoint_poly is the generalized Hermite polynomial bi-orthonormal to
    the kernel-derivative family member ((-1)^k / sqrt(k!)) F^(k)
    (biorthonormality_matrix); both share eigenvalue -k/(2m).
    """

    m: int
    k: int
    eigenvalue: float
    adjoint_poly: ExactPolynomial


def _adjoint_coefficients(m, k):
    coeffs = {k: Fraction(1)}
    for j in range(1, k // (2 * m) + 1):
        p = k - 2 * m * j
        coeffs[p] = (Fraction((-1) ** (m * j))
                     * Fraction(math.factorial(k), math.factorial(p))
                     / math.factorial(j))
    return coeffs


def adjoint_polynomial(m, k):
    """Exact generalized Hermite polynomial of index k for order m."""
    if int(m) != m or m < 1:
        raise UnsupportedOrder("m must be a positive integer")
    if not 0 <= k <= 64:
        raise ValueError("k must lie in [0, 64] (coefficient growth guard)")
    m, k = int(m), int(k)
    coeffs = _adjoint_coefficients(m, k)
    poly = ExactPolynomial(
        coefficients=tuple(sorted(coeffs.items(), reverse=True)),
        norm_factorial=math.factorial(k),
    )
    return HermitePair(m=m, k=k, eigenvalue=-k / (2.0 * m),
                       adjoint_poly=poly)


def adjoint_identity_residual(pair):
    """Exact-arithmetic residual of the adjoint eigenvalue identity.

    Applies (-1)^{m+1} D^{2m} - (y/(2m)) D to the unnormalized polynomial
    and subtracts the eigenvalue multiple; returns the largest absolute
    coefficient of the difference as a Fraction (zero means the identity
    holds exactly).
    """
    m, k = pair.m, pair.k
    coeffs = dict(pair.adjoint_poly.coefficients)
    applied = {}
    for p, c in coeffs.items():
        if p >= 2 * m:
            dcoef = c * Fraction(math.factorial(p), math.factorial(p - 2 * m))
            applied[p - 2 * m] = applied.get(p - 2 * m, Fraction(0)) \
                + Fraction((-1) ** (m + 1)) * dcoef
        if p >= 1:
            applied[p] = applied.get(p, Fraction(0)) - Fraction(p, 2 * m) * c
    lam = Fraction(-k, 2 * m)
    worst = Fraction(0)
    for p in set(applied) | set(coeffs):
        diff = applied.get(p, Fraction(0)) - lam * coeffs.get(p, Fraction(0))
        worst = max(worst, abs(diff))
    return worst


@dataclass(frozen=True)
class BiorthResult:
    matrix: object
    max_error: float


def biorthonormality_matrix(m, k_max):
    """Cross inner products of the two eigenfunction families by quadrature.

    Entry (beta, gamma) is the integral of the kernel-derivative
    eigenfunction beta against adjoint polynomial gamma over the line, on
    the y_span window's Gauss-Legendre nodes; the derivatives come from
    one fourier_derivative call (orders above 3 by the kernel's ODE).
    Odd beta+gamma entries vanish by parity and are set exactly to zero.
    """
    if m not in (1, 2):
        raise UnsupportedOrder("bi-orthonormality needs kernel evaluators (m in {1,2})")
    if not 0 <= k_max <= _EXTENDED_ORDER_MAX:
        raise ValueError("k_max must lie in [0, %d]" % _EXTENDED_ORDER_MAX)
    model = default_kernel(m)

    nodes, weights = model._y_rule(model._y_span)
    polys = [adjoint_polynomial(m, g).adjoint_poly for g in range(k_max + 1)]
    poly_vals = [p(nodes) for p in polys]

    size = k_max + 1
    mat = np.zeros((size, size))
    derivs = model.fourier_derivative(nodes, tuple(range(size)))
    for beta, deriv in enumerate(derivs):
        scale = (-1.0) ** beta / math.sqrt(math.factorial(beta))
        for gamma in range(size):
            if (beta + gamma) % 2 == 1:
                continue  # exact parity zero on the symmetric window
            mat[beta, gamma] = 2.0 * scale * (weights @ (deriv * poly_vals[gamma]))
    return BiorthResult(matrix=mat, max_error=float(np.max(np.abs(mat - np.eye(size)))))


# ---------------------------------------------------------------------------
# exports


def export_kernel_csv(model, ys, path):
    """Tabulate y, F and the first three derivatives as CSV."""
    ys = np.asarray(ys, dtype=float)
    cols = [ys] + [model.F_deriv(ys, k) for k in range(DERIV_ORDER_MAX + 1)]
    write_csv(path, ["y", "F", "dF", "d2F", "d3F"], np.column_stack(cols))
    return path
