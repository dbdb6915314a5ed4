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
from scipy.optimize import least_squares
from scipy.signal import argrelmax

from ._csvtable import write_csv
from .errors import FitError, QuadratureError, UnsupportedOrder

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


@lru_cache(maxsize=8)
def _gl_rule(n_gl):
    return np.polynomial.legendre.leggauss(n_gl)


def _gauss_panels(a, b, n_panels, n_gl):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    xg, wg = _gl_rule(n_gl)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * xg[None, :]).ravel()
    weights = np.tile(half * wg, n_panels)
    return nodes, weights


def _tail_bound(s_max, m, order):
    """Upper bound for the dropped integral of s^order e^{-s^{2m}} beyond s_max."""
    decay = 2.0 * m * s_max ** (2 * m - 1) - order / s_max
    if decay <= 0.0:
        return math.inf
    # integrand value at the cut times twice the local decay length
    return s_max ** order * math.exp(-s_max ** (2 * m)) * 2.0 / decay


class KernelModel:
    """Rescaled kernel F of order m with quadrature-backed evaluators.

    F(y) = normalizer * int_0^{s_max} e^{-s^{2m}} cos(s y) ds; derivatives
    pick up a factor s^order and a quarter-period phase shift per order.
    Immutable after construction; evaluation is pure and safe to share.
    """

    def __init__(self, constants, quad=None):
        quad = dict(quad or {})
        m = constants.m
        self.constants = constants
        self._m = m
        self._s_max = float(quad.pop("s_max", (40.0 * math.log(10.0)) ** (1.0 / (2 * m))))
        self._rad_per_panel = float(quad.pop("rad_per_panel", 3.0))
        self._n_gl = int(quad.pop("n_gl", 12))
        # window for unit-mass normalization and bi-orthonormality; beyond
        # it the oscillatory quadrature noise floor outweighs the decaying
        # kernel, so larger is not better (measured)
        self._y_span = float(quad.pop("y_span", 30.0 if m == 1 else 60.0))
        self.weight_exponent = float(quad.pop("weight_exponent", constants.d0))
        if quad:
            raise KeyError("unknown quadrature settings: %s" % sorted(quad))
        if not 0.0 < self.weight_exponent < 2.0 * constants.d0:
            raise ValueError("weight exponent must lie in (0, 2*d0)")

        worst = _tail_bound(self._s_max, m, _EXTENDED_ORDER_MAX)
        if worst > TAIL_TOL:
            raise QuadratureError(
                "truncated Fourier tail bound %.3g exceeds %.1g (s_max=%.3g)"
                % (worst, TAIL_TOL, self._s_max))

        # normalizer fixed once by requiring unit mass of F
        nodes, weights = self._y_rule(self._y_span)
        raw_mass = 2.0 * (weights @ self._raw(nodes, 0))
        self.normalizer = 1.0 / raw_mass

    # -- quadrature plumbing ------------------------------------------------

    def _s_rule(self, ymax):
        n_pan = int(math.ceil(self._s_max * max(1.0, ymax) / self._rad_per_panel)) + 8
        return _gauss_panels(0.0, self._s_max, n_pan, self._n_gl)

    def _y_rule(self, span):
        n_pan = int(math.ceil(span * self._s_max / self._rad_per_panel)) + 8
        return _gauss_panels(0.0, span, n_pan, self._n_gl)

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

    # -- public evaluators --------------------------------------------------

    def F(self, y):
        """Kernel value; the Gaussian (4 pi)^{-1/2} e^{-y^2/4} when m=1."""
        return self._eval(y, 0)

    def F_deriv(self, y, order):
        """Derivative of F up to the guaranteed order 3."""
        if not 0 <= order <= DERIV_ORDER_MAX:
            raise ValueError("F_deriv supports orders 0..%d" % DERIV_ORDER_MAX)
        return self._eval(y, order)

    def fourier_derivative(self, y, order):
        """Extended-order derivative used by the bi-orthonormality matrix.

        Orders up to 8 share the same tail guarantee checked at build time;
        accuracy degrades gracefully with order.
        """
        if not 0 <= order <= _EXTENDED_ORDER_MAX:
            raise ValueError("extended derivatives support orders 0..%d"
                             % _EXTENDED_ORDER_MAX)
        return self._eval(y, order)

    def weight(self, y):
        """Exponential weight e^{-a_w |y|^alpha} attached to this kernel."""
        y = np.asarray(y, dtype=float)
        return np.exp(-self.weight_exponent * np.abs(y) ** self.constants.alpha)


def build_kernel(m, quad=None):
    """Kernel model of order m (evaluators implemented for m in {1, 2})."""
    constants = kernel_constants(m)
    if m not in (1, 2):
        raise UnsupportedOrder(
            "kernel evaluators are implemented for m in {1, 2}; "
            "kernel_constants(m) covers the constants for any m")
    return KernelModel(constants, quad)


@lru_cache(maxsize=4)
def default_kernel(m):
    """Shared default-settings kernel, built once per order."""
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
        raise ValueError("fit window must lie inside [4, 25]")

    ys = np.linspace(y_lo, y_hi, 1201)
    G = model.F(ys) * ys ** cst.delta0
    t = ys ** cst.alpha

    flips = np.where(np.diff(np.sign(G)) != 0)[0]
    if flips.size < 3:
        raise FitError("window [%g, %g] contains %d sign changes; need >= 3"
                       % (y_lo, y_hi, flips.size))
    t_zero = t[flips] - G[flips] * (t[flips + 1] - t[flips]) / (G[flips + 1] - G[flips])
    b_init = math.pi / float(np.mean(np.diff(t_zero)))

    peaks = argrelmax(np.abs(G))[0]
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


def biorthonormality_matrix(m, k_max, quad=None):
    """Cross inner products of the two eigenfunction families by quadrature.

    Entry (beta, gamma) is the integral of the kernel-derivative
    eigenfunction beta against adjoint polynomial gamma over the line;
    odd beta+gamma entries vanish by parity and are set exactly to zero.
    """
    if m not in (1, 2):
        raise UnsupportedOrder("bi-orthonormality needs kernel evaluators (m in {1,2})")
    if not 0 <= k_max <= _EXTENDED_ORDER_MAX:
        raise ValueError("k_max must lie in [0, %d]" % _EXTENDED_ORDER_MAX)
    model = build_kernel(m, quad) if quad else default_kernel(m)

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
    cols = [ys] + [model.fourier_derivative(ys, k) for k in range(4)]
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
