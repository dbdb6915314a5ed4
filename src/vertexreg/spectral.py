"""Spectral toolkit for the rescaled higher-order heat kernels.

Builds the one-dimensional self-similar kernel F of the 2m-th order heat
semigroup from its Fourier-cosine representation, exposes its decay and
oscillation constants, the generalized Hermite polynomial eigenfunctions of
the adjoint rescaled generator, and the weighted bi-orthonormality between
the two eigenfunction families. Everything downstream (reduced ODEs,
projections, criterion integrands) pulls its constants from here.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from scipy.optimize import least_squares

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
    "kernel_asymptotic_fit",
    "adjoint_polynomial",
    "adjoint_identity_residual",
    "biorthonormality_matrix",
    "export_kernel_csv",
    "export_polynomial_json",
]

# Integration-by-parts tail bound for the truncated Fourier integral must
# stay below this, or the kernel refuses to build.
TAIL_TOL = 1e-14

# Orders the public derivative contract guarantees; the bi-orthonormality
# matrix extends internally up to _EXTENDED_ORDER_MAX.
DERIV_ORDER_MAX = 3
_EXTENDED_ORDER_MAX = 8

# The m=2 interpolant of F and its first three derivatives may differ from
# quadrature at off-node points by at most this, or the kernel refuses to
# build.
INTERP_TOL = 1e-13

# Panel width and degree of that interpolant. F is entire, so the error
# falls geometrically with the degree; these reach round-off (measured).
_CHEB_PANEL_WIDTH = 1.5
_CHEB_DEGREE = 14

# Fourier quadrature: a 12-node Gauss-Legendre panel per 3 radians of s*y
_RAD_PER_PANEL = 3.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

# Per order m: the cut s_max of the Fourier integral, where e^{-s^{2m}} is
# 1e-40, and the y window for unit-mass normalization and
# bi-orthonormality; beyond that window the oscillatory quadrature noise
# floor outweighs the decaying kernel, so larger is not better (measured)
_S_MAX = {m: (40.0 * math.log(10.0)) ** (1.0 / (2 * m)) for m in (1, 2)}
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


class _PiecewiseChebyshev:
    """Interpolants of an even function and its derivatives up to order 3.

    sample(y, order) supplies the values at the Chebyshev nodes of equal
    panels covering [0, span]; evaluation takes |y| <= span and applies the
    parity (-1)^order for y < 0. Refuses to build when the interpolant
    misses sample by more than INTERP_TOL at the points between the nodes.
    """

    def __init__(self, sample, span):
        n_panels = math.ceil(span / _CHEB_PANEL_WIDTH)
        n = _CHEB_DEGREE + 1
        self._width = span / n_panels
        self._last = n_panels - 1
        left = self._width * np.arange(n_panels)

        def on_panels(x):
            return (left[:, None] + 0.5 * self._width * (x + 1.0)).ravel()

        # first-kind nodes: discrete orthogonality of T_k gives the coefficients
        nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        to_coef = chebvander(nodes, _CHEB_DEGREE) * (2.0 / n)
        to_coef[:, 0] *= 0.5
        # stored (degree + 1, panels), so one gather gives a row per degree
        self._coef = [
            np.ascontiguousarray(
                (sample(on_panels(nodes), k).reshape(n_panels, n) @ to_coef).T)
            for k in range(DERIV_ORDER_MAX + 1)]

        # second-kind points, panel edges included, interlace the nodes
        check = on_panels(np.cos(np.pi * np.arange(n + 1) / n))
        for k in range(DERIV_ORDER_MAX + 1):
            miss = float(np.max(np.abs(self(check, k) - sample(check, k))))
            if miss > INTERP_TOL:
                raise QuadratureError(
                    "Chebyshev interpolant of derivative %d misses quadrature "
                    "by %.3g > %.1g on [0, %g]" % (k, miss, INTERP_TOL, span))

    def __call__(self, y, order):
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


class KernelModel:
    """Rescaled kernel F of order m.

    F(y) = normalizer * int_0^{s_max} e^{-s^{2m}} cos(s y) ds; derivatives
    pick up a factor s^order and a quarter-period phase shift per order.
    That quadrature builds the model and serves fourier_derivative (orders
    0-8). F and F_deriv (orders 0-3) are served without it: for m=1 by the
    closed-form Gaussian G and G', G'', G'''; for m=2 by a piecewise
    Chebyshev interpolant of the quadrature on |y| <= y_span, checked
    against it at build, and by the quadrature beyond.
    Immutable after construction; evaluation is pure and safe to share.
    """

    def __init__(self, constants):
        m = constants.m
        self.constants = constants
        self._m = m
        self._s_max = _S_MAX[m]
        self._y_span = _Y_SPAN[m]

        worst = _tail_bound(self._s_max, m, _EXTENDED_ORDER_MAX)
        if worst > TAIL_TOL:
            raise QuadratureError(
                "truncated Fourier tail bound %.3g exceeds %.1g (s_max=%.3g)"
                % (worst, TAIL_TOL, self._s_max))

        # normalizer fixed once by requiring unit mass of F
        nodes, weights = self._y_rule(self._y_span)
        raw_mass = 2.0 * (weights @ self._raw(nodes, 0))
        self.normalizer = 1.0 / raw_mass
        self._interp = None
        if m == 2:
            self._interp = _PiecewiseChebyshev(
                lambda y, order: self.normalizer * self._raw(y, order),
                self._y_span)

    # -- quadrature plumbing ------------------------------------------------

    def _s_rule(self, ymax):
        n_pan = int(math.ceil(self._s_max * max(1.0, ymax) / _RAD_PER_PANEL)) + 8
        return _gauss_panels(0.0, self._s_max, n_pan)

    def _y_rule(self, span):
        n_pan = int(math.ceil(span * self._s_max / _RAD_PER_PANEL)) + 8
        return _gauss_panels(0.0, span, n_pan)

    def _raw(self, y, order):
        """int_0^{s_max} s^order e^{-s^{2m}} cos(s y + order*pi/2) ds, vectorized."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        s, w = self._s_rule(np.max(np.abs(y)))
        damp = w * s ** order * np.exp(-s ** (2 * self._m))
        return np.cos(np.outer(y, s) + order * math.pi / 2.0) @ damp

    def _eval(self, y, order):
        scalar = np.isscalar(y) or np.ndim(y) == 0
        out = self.normalizer * self._raw(y, order)
        return float(out[0]) if scalar else out

    def _eval_fast(self, y, order):
        scalar = np.isscalar(y) or np.ndim(y) == 0
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if self._interp is None:
            out = _gaussian_derivative(y, order)
        elif np.max(np.abs(y)) <= self._y_span:  # False for NaN too
            out = self._interp(y, order)
        else:
            far = ~(np.abs(y) <= self._y_span)
            out = self._interp(np.where(far, 0.0, y), order)
            out[far] = self.normalizer * self._raw(y[far], order)
        return float(out[0]) if scalar else out

    # -- public evaluators --------------------------------------------------

    def F(self, y):
        """Kernel value; the Gaussian (4 pi)^{-1/2} e^{-y^2/4} when m=1."""
        return self._eval_fast(y, 0)

    def F_deriv(self, y, order):
        """Derivative of F up to the guaranteed order 3."""
        if not 0 <= order <= DERIV_ORDER_MAX:
            raise ValueError("F_deriv supports orders 0..%d" % DERIV_ORDER_MAX)
        return self._eval_fast(y, order)

    def fourier_derivative(self, y, order):
        """Extended-order derivative used by the bi-orthonormality matrix.

        Orders up to 8 share the same tail guarantee checked at build time;
        accuracy degrades gracefully with order.
        """
        if not 0 <= order <= _EXTENDED_ORDER_MAX:
            raise ValueError("extended derivatives support orders 0..%d"
                             % _EXTENDED_ORDER_MAX)
        return self._eval(y, order)


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


@dataclass(frozen=True)
class AsymptoticFit:
    d_fit: float
    b_fit: float
    C1: float
    C2: float
    residual: float  # sup of |fit - data| relative to the envelope amplitude
    window: tuple
    n_zeros: int


def _local_maxima(a):
    """Indices of the strict interior local maxima of a 1-D array."""
    return np.flatnonzero((a[1:-1] > a[:-2]) & (a[1:-1] > a[2:])) + 1


def kernel_asymptotic_fit(model, window):
    """Fit decay rate and wavenumber of the oscillatory kernel tail.

    Least squares of F(y) ~ y^{-delta0} e^{-d y^alpha} (C1 sin(b y^alpha)
    + C2 cos(b y^alpha)) on the window. Initial guesses come from the zero
    spacing (wavenumber) and the extremum envelope (decay rate), so the
    nonlinear refinement starts in the right basin.
    """
    cst = model.constants
    if cst.b0 == 0.0:
        raise FitError("kernel of order m=%d has no oscillation to fit" % cst.m)
    y_lo, y_hi = float(window[0]), float(window[1])
    if not (4.0 <= y_lo < y_hi <= 25.0):
        raise ConfigError("fit window must lie inside [4, 25]")

    ys = np.linspace(y_lo, y_hi, 1201)
    G = model.F(ys) * ys ** cst.delta0
    t = ys ** cst.alpha

    flips = np.where(np.diff(np.sign(G)) != 0)[0]
    if flips.size < 3:
        raise FitError("window [%g, %g] contains %d sign changes; need >= 3"
                       % (y_lo, y_hi, flips.size))
    t_zero = t[flips] - G[flips] * (t[flips + 1] - t[flips]) / (G[flips + 1] - G[flips])
    b_init = math.pi / float(np.mean(np.diff(t_zero)))

    peaks = _local_maxima(np.abs(G))
    if peaks.size < 2:
        raise FitError("window too narrow to see the decay envelope")
    slope, _ = np.polyfit(t[peaks], np.log(np.abs(G[peaks])), 1)
    d_init = -float(slope)

    def resid(p):
        d, b, c1, c2 = p
        return np.exp(-d * t) * (c1 * np.sin(b * t) + c2 * np.cos(b * t)) - G

    sol = least_squares(resid, [d_init, b_init, 0.3, 0.3], method="lm",
                        xtol=1e-15, ftol=1e-15)
    d_fit, b_fit, c1, c2 = (float(v) for v in sol.x)
    envelope = math.hypot(c1, c2) * np.exp(-d_fit * t)
    rel = float(np.max(np.abs(sol.fun) / envelope))
    if rel > 0.10:
        raise FitError("fit residual %.3g exceeds 10%% of the envelope" % rel)
    return AsymptoticFit(d_fit=d_fit, b_fit=b_fit, C1=c1, C2=c2, residual=rel,
                         window=(y_lo, y_hi), n_zeros=int(flips.size))


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

    eigenfunction is the kernel-derivative family member
    ((-1)^k / sqrt(k!)) F^(k); adjoint_poly the generalized Hermite
    polynomial it is bi-orthonormal to; both share eigenvalue -k/(2m).
    """

    m: int
    k: int
    eigenvalue: float
    adjoint_poly: ExactPolynomial
    eigenfunction: object


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
    eigenfunction = None
    if m in (1, 2) and k <= _EXTENDED_ORDER_MAX:
        model = default_kernel(m)
        sign = (-1.0) ** k / math.sqrt(math.factorial(k))

        def eigenfunction(y, _model=model, _k=k, _sign=sign):
            return _sign * _model.fourier_derivative(y, _k)

    return HermitePair(m=m, k=k, eigenvalue=-k / (2.0 * m),
                       adjoint_poly=poly, eigenfunction=eigenfunction)


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
    eigenfunction beta against adjoint polynomial gamma over the line;
    odd beta+gamma entries vanish by parity and are set exactly to zero.
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
    for beta in range(size):
        deriv = model.fourier_derivative(nodes, beta)
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
    write_csv(path, ["y", "F", "dF", "d2F", "d3F"], zip(*cols))
    return path


def export_polynomial_json(pair, path=None):
    """Adjoint polynomial as JSON with exact numerator/denominator pairs."""
    payload = {
        "m": pair.m,
        "k": pair.k,
        "eigenvalue": pair.eigenvalue,
        "normalization": pair.adjoint_poly.normalization,
        "normalization_squared": {
            "numerator": 1,
            "denominator": pair.adjoint_poly.norm_factorial,
        },
        "coefficients": [
            {"power": p, "numerator": c.numerator, "denominator": c.denominator}
            for p, c in pair.adjoint_poly.coefficients
        ],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
