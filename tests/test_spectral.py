"""Kernel, constants, adjoint polynomial and bi-orthonormality tests."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.signal import argrelmax

from vertexreg import spectral
from vertexreg.errors import FitError, QuadratureError, UnsupportedOrder


# -- constants ---------------------------------------------------------------

def test_constants_m1_are_gaussian():
    c = spectral.kernel_constants(1)
    assert (c.alpha, c.d0, c.b0, c.delta0) == (2.0, 0.25, 0.0, 0.0)


def test_constants_m2_closed_forms():
    c = spectral.kernel_constants(2)
    assert c.alpha == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert c.d0 == pytest.approx(3.0 * 2.0 ** (-11.0 / 3.0), rel=1e-14)
    assert c.b0 == pytest.approx(3.0 ** 1.5 * 2.0 ** (-11.0 / 3.0), rel=1e-14)
    assert c.delta0 == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_constants_m3_closed_forms():
    c = spectral.kernel_constants(3)
    r = 5.0 / 6.0 ** 1.2
    assert c.alpha == pytest.approx(1.2, rel=1e-15)
    assert c.delta0 == pytest.approx(0.4, rel=1e-15)
    assert c.d0 == pytest.approx(r * math.sin(math.pi / 10.0), rel=1e-14)
    assert c.b0 == pytest.approx(r * math.cos(math.pi / 10.0), rel=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_constants_solve_defining_equation(m):
    # the root a = -d0 + i b0 with maximal real part must satisfy
    # (-1)^m (alpha a)^{2m-1} = 1/(2m)
    c = spectral.kernel_constants(m)
    a = complex(-c.d0, c.b0)
    val = (-1.0) ** m * (c.alpha * a) ** (2 * m - 1)
    assert val.real == pytest.approx(1.0 / (2 * m), rel=1e-12)
    assert abs(val.imag) < 1e-14


def test_constants_reject_bad_order():
    with pytest.raises(UnsupportedOrder):
        spectral.kernel_constants(0)
    with pytest.raises(UnsupportedOrder):
        spectral.kernel_constants(1.5)


# -- kernel evaluators -------------------------------------------------------

def test_m1_kernel_is_the_gaussian():
    model = spectral.build_kernel(1)
    assert model.F(0.0) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-14)
    ys = np.linspace(-10.0, 10.0, 161)
    gauss = np.exp(-ys ** 2 / 4.0) / math.sqrt(4.0 * math.pi)
    assert np.max(np.abs(model.F(ys) - gauss)) < 1e-12


def test_kernel_unit_mass():
    for m, span in ((1, 30.0), (2, 60.0)):
        model = spectral.build_kernel(m)
        ys = np.linspace(0.0, span, 6001)
        mass = 2.0 * simpson(model.F(ys), x=ys)
        assert mass == pytest.approx(1.0, abs=1e-10), m


def test_m2_kernel_oscillates_in_window():
    model = spectral.build_kernel(2)
    ys = np.linspace(4.0, 12.0, 801)
    flips = int(np.sum(np.diff(np.sign(model.F(ys))) != 0))
    assert flips == 2


def test_generator_residual_of_kernel():
    # m=2 kernel solves -F'''' + (y F)'/4 = 0; m=1 solves F'' + (y F)'/2 = 0
    m2 = spectral.build_kernel(2)
    ys = np.linspace(0.0, 6.0, 61)
    res2 = (-m2.fourier_derivative(ys, 4) + ys * m2.F_deriv(ys, 1) / 4.0
            + m2.F(ys) / 4.0)
    assert np.max(np.abs(res2)) < 1e-6

    m1 = spectral.build_kernel(1)
    res1 = (m1.fourier_derivative(ys, 2) + ys * m1.F_deriv(ys, 1) / 2.0
            + m1.F(ys) / 2.0)
    assert np.max(np.abs(res1)) < 1e-12


def test_truncated_tail_guard(monkeypatch):
    monkeypatch.setattr(spectral, "_S_MAX", {1: 2.0, 2: 1.0})
    with pytest.raises(QuadratureError):
        spectral.build_kernel(2)
    with pytest.raises(QuadratureError):
        spectral.build_kernel(1)


def test_derivative_order_guards():
    model = spectral.build_kernel(2)
    with pytest.raises(ValueError):
        model.F_deriv(1.0, 4)
    with pytest.raises(ValueError):
        model.fourier_derivative(1.0, 9)
    with pytest.raises(UnsupportedOrder):
        spectral.build_kernel(3)


@settings(max_examples=60, deadline=None)
@given(ys=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1,
                   max_size=40))
def test_fast_evaluators_match_quadrature(ys):
    # m=2 interpolant to 1e-13, m=1 closed form to 1e-15, inside y_span
    for m, tol in ((2, 1e-13), (1, 1e-15)):
        model = spectral.default_kernel(m)
        y = np.asarray(ys) * model._y_span
        for k in range(4):
            fast = model.F_deriv(y, k)
            assert np.max(np.abs(fast - model.fourier_derivative(y, k))) < tol, (m, k)


def test_m2_kernel_beyond_span_uses_quadrature():
    model = spectral.default_kernel(2)
    far = np.array([-75.0, 60.5, 64.0, 90.0])
    for k in range(4):
        assert np.array_equal(model.F_deriv(far, k),
                              model.fourier_derivative(far, k))
    mixed = np.array([-70.0, -3.0, 0.0, 12.5, 61.0])
    assert np.max(np.abs(model.F(mixed) - model.fourier_derivative(mixed, 0))) < 1e-13
    assert model.F(61.0) == model.fourier_derivative(61.0, 0)


def test_m2_interpolant_refuses_low_degree(monkeypatch):
    monkeypatch.setattr(spectral, "_CHEB_DEGREE", 4)
    with pytest.raises(QuadratureError, match="interpolant"):
        spectral.build_kernel(2)


@pytest.mark.parametrize("m", [1, 2])
def test_kernel_parity_is_exact(m):
    model = spectral.default_kernel(m)
    y = np.linspace(0.0, model._y_span, 997)
    for k in range(4):
        assert np.array_equal(model.F_deriv(-y, k), (-1.0) ** k * model.F_deriv(y, k))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), max_size=30))
def test_local_maxima_match_argrelmax(values):
    # small integers make ties and plateaus common
    a = np.asarray(values, dtype=float)
    assert np.array_equal(spectral._local_maxima(a), argrelmax(a)[0])


def test_cli_import_skips_scipy_signal_and_stats():
    src = os.path.dirname(os.path.dirname(spectral.__file__))
    code = ("import sys, vertexreg.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.signal', 'scipy.stats'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_kernel_evaluation_is_deterministic():
    a = spectral.build_kernel(2)
    b = spectral.build_kernel(2)
    ys = np.linspace(-20.0, 20.0, 101)
    assert np.array_equal(a.F(ys), b.F(ys))
    assert a.normalizer == b.normalizer


# -- asymptotic fit ----------------------------------------------------------

def test_asymptotic_fit_recovers_decay_constants():
    model = spectral.build_kernel(2)
    fit = spectral.kernel_asymptotic_fit(model, (5.0, 15.0))
    c = model.constants
    assert abs(fit.d_fit - c.d0) / c.d0 < 0.05
    assert abs(fit.b_fit - c.b0) / c.b0 < 0.05
    assert 0.0 <= fit.residual < 0.10
    assert fit.n_zeros >= 3


def test_asymptotic_fit_rejects_gaussian():
    model = spectral.build_kernel(1)
    with pytest.raises(FitError):
        spectral.kernel_asymptotic_fit(model, (5.0, 15.0))


def test_asymptotic_fit_window_guards():
    model = spectral.build_kernel(2)
    with pytest.raises(ValueError):
        spectral.kernel_asymptotic_fit(model, (3.0, 15.0))
    with pytest.raises(ValueError):
        spectral.kernel_asymptotic_fit(model, (5.0, 26.0))
    with pytest.raises(FitError):
        spectral.kernel_asymptotic_fit(model, (5.0, 6.0))


# -- adjoint polynomials -----------------------------------------------------

def test_quartic_adjoint_polynomial_m2():
    pair = spectral.adjoint_polynomial(2, 4)
    assert pair.eigenvalue == pytest.approx(-1.0)
    assert pair.adjoint_poly.coefficients == ((4, Fraction(1)), (0, Fraction(24)))
    assert pair.adjoint_poly.norm_factorial == 24
    # (y^4 + 24)/sqrt(24) at y=2
    assert pair.adjoint_poly(2.0) == pytest.approx((16.0 + 24.0) / math.sqrt(24.0))


def test_sextic_adjoint_polynomial_m2():
    pair = spectral.adjoint_polynomial(2, 6)
    assert pair.eigenvalue == pytest.approx(-1.5)
    assert pair.adjoint_poly.coefficients == ((6, Fraction(1)), (2, Fraction(360)))
    # normalization 1/sqrt(720) equals 1/(12 sqrt 5)
    assert pair.adjoint_poly.normalization == pytest.approx(
        1.0 / (12.0 * math.sqrt(5.0)), rel=1e-14)


def test_lower_order_polynomials():
    pair = spectral.adjoint_polynomial(1, 2)
    assert pair.adjoint_poly.coefficients == ((2, Fraction(1)), (0, Fraction(-2)))
    assert pair.eigenvalue == pytest.approx(-1.0)

    pair5 = spectral.adjoint_polynomial(2, 5)
    assert pair5.adjoint_poly.coefficients == ((5, Fraction(1)), (1, Fraction(120)))

    pair8 = spectral.adjoint_polynomial(2, 8)
    assert pair8.adjoint_poly.coefficients == (
        (8, Fraction(1)), (4, Fraction(1680)), (0, Fraction(20160)))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("k", range(9))
def test_adjoint_identity_exact(m, k):
    pair = spectral.adjoint_polynomial(m, k)
    assert spectral.adjoint_identity_residual(pair) == Fraction(0)
    assert pair.adjoint_poly.degree == k
    assert pair.adjoint_poly.coefficients[0] == (k, Fraction(1))
    assert pair.eigenvalue == pytest.approx(-k / (2.0 * m))


def test_adjoint_polynomial_guards():
    with pytest.raises(ValueError):
        spectral.adjoint_polynomial(1, 65)
    with pytest.raises(UnsupportedOrder):
        spectral.adjoint_polynomial(0, 2)
    # coefficient arithmetic stays exact at the guard boundary
    big = spectral.adjoint_polynomial(1, 64)
    assert spectral.adjoint_identity_residual(big) == Fraction(0)


def test_eigenfunctions_wrap_kernel_derivatives():
    model = spectral.default_kernel(1)
    p0 = spectral.adjoint_polynomial(1, 0)
    assert p0.eigenfunction(0.0) == pytest.approx(model.F(0.0))
    p1 = spectral.adjoint_polynomial(1, 1)
    assert p1.eigenfunction(1.0) == pytest.approx(-model.F_deriv(1.0, 1))
    # constants-only order: polynomial exists, evaluator does not
    p3 = spectral.adjoint_polynomial(3, 6)
    assert p3.eigenfunction is None


# -- bi-orthonormality -------------------------------------------------------

def _exact_moment(m, j):
    """int y^j F dy from the Fourier transform, as an exact Fraction."""
    if j % (2 * m):
        return Fraction(0)
    l = j // (2 * m)
    return Fraction((-1) ** ((m + 1) * l) * factorial(j), factorial(l))


def _exact_entry_scaled(m, beta, gamma):
    """sqrt(beta! gamma!) times the (beta, gamma) inner product, exactly.

    Integration by parts beta times moves all derivatives onto the
    polynomial, leaving a rational combination of kernel moments.
    """
    poly = spectral.adjoint_polynomial(m, gamma).adjoint_poly
    total = Fraction(0)
    for p, c in poly.coefficients:
        if p >= beta:
            total += c * Fraction(factorial(p), factorial(p - beta)) \
                * _exact_moment(m, p - beta)
    return total


@pytest.mark.parametrize("m", [1, 2])
def test_biorthonormality_exact_oracle(m):
    # the quadrature-free route must give delta exactly: sqrt(b!g!)<psi_b,psi*_g>
    # equals b! on the diagonal and 0 off it
    for beta in range(9):
        for gamma in range(9):
            expect = Fraction(factorial(beta)) if beta == gamma else Fraction(0)
            assert _exact_entry_scaled(m, beta, gamma) == expect, (m, beta, gamma)


def test_biorthonormality_quadrature_m2():
    result = spectral.biorthonormality_matrix(2, 6)
    assert result.max_error < 1e-6
    assert result.matrix.shape == (7, 7)
    # parity zeros are exact
    assert result.matrix[1, 0] == 0.0
    assert result.matrix[0, 3] == 0.0


def test_biorthonormality_quadrature_m1():
    result = spectral.biorthonormality_matrix(1, 6)
    assert result.max_error < 1e-7
    assert result.matrix[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_biorthonormality_guards():
    with pytest.raises(ValueError):
        spectral.biorthonormality_matrix(2, 9)
    with pytest.raises(UnsupportedOrder):
        spectral.biorthonormality_matrix(3, 4)


def test_kernel_moments_match_transform_expansion():
    # m=2: M4 = -24, M8 = +20160, M2 = M6 = 0; m=1: M2 = 2, M4 = 12
    m2 = spectral.build_kernel(2)
    ys = np.linspace(0.0, 60.0, 12001)
    F = m2.F(ys)
    m4 = 2.0 * simpson(F * ys ** 4, x=ys)
    m2mom = 2.0 * simpson(F * ys ** 2, x=ys)
    assert m4 == pytest.approx(-24.0, abs=1e-6)
    assert abs(m2mom) < 1e-6
    m8 = 2.0 * simpson(F * ys ** 8, x=ys)
    assert m8 == pytest.approx(20160.0, abs=0.05)

    m1 = spectral.build_kernel(1)
    ys1 = np.linspace(0.0, 30.0, 6001)
    F1 = m1.F(ys1)
    assert 2.0 * simpson(F1 * ys1 ** 2, x=ys1) == pytest.approx(2.0, abs=1e-9)
    assert 2.0 * simpson(F1 * ys1 ** 4, x=ys1) == pytest.approx(12.0, abs=1e-8)


# -- exports -----------------------------------------------------------------

def test_export_kernel_csv(tmp_path):
    model = spectral.build_kernel(2)
    path = tmp_path / "kernel.csv"
    spectral.export_kernel_csv(model, np.linspace(0.0, 2.0, 5), str(path))
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "y,F,dF,d2F,d3F"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(model.F(0.0), rel=1e-15)


def test_export_polynomial_json(tmp_path):
    pair = spectral.adjoint_polynomial(2, 4)
    path = tmp_path / "pair.json"
    text = spectral.export_polynomial_json(pair, str(path))
    payload = json.loads(text)
    assert payload["m"] == 2 and payload["k"] == 4
    assert payload["normalization_squared"] == {"numerator": 1, "denominator": 24}
    assert {"power": 0, "numerator": 24, "denominator": 1} in payload["coefficients"]
    assert json.loads(path.read_text()) == payload
