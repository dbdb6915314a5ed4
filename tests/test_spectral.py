"""Kernel, constants, adjoint polynomial and bi-orthonormality tests."""

import math
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from vertexreg import spectral
from vertexreg.errors import ConfigError, FitError, QuadratureError, UnsupportedOrder


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


def test_m1_normalizer_has_the_bits_of_the_rule_mass():
    # both kernels take 1/pi; for m=1 the rule's mass has its bits
    model = spectral.default_kernel(1)
    nodes, weights = model._y_rule(model._y_span)
    mass = 2.0 * (weights @ model._raw(nodes, (0,))[0])
    assert model.normalizer == 1.0 / mass == 1.0 / math.pi


def test_m2_kernel_oscillates_in_window():
    model = spectral.build_kernel(2)
    ys = np.linspace(4.0, 12.0, 801)
    flips = int(np.sum(np.diff(np.sign(model.F(ys))) != 0))
    assert flips == 2


def _rule(model, y, k):
    """F^(k) by the contour rule, the reference the evaluators are checked
    against."""
    return model.normalizer * model._raw(y, (k,))[0]


def test_generator_residual_of_kernel():
    # m=2 kernel solves -F'''' + (y F)'/4 = 0; m=1 solves F'' + (y F)'/2 = 0
    m2 = spectral.build_kernel(2)
    ys = np.linspace(0.0, 6.0, 61)
    res2 = -_rule(m2, ys, 4) + ys * m2.F_deriv(ys, 1) / 4.0 + m2.F(ys) / 4.0
    assert np.max(np.abs(res2)) < 1e-6

    m1 = spectral.build_kernel(1)
    res1 = _rule(m1, ys, 2) + ys * m1.F_deriv(ys, 1) / 2.0 + m1.F(ys) / 2.0
    assert np.max(np.abs(res1)) < 1e-12


def test_truncated_tail_guard(monkeypatch):
    # the contour cut at e^-20 of the saddle size leaves a tail bound far
    # above TAIL_TOL for the order-8 derivative
    monkeypatch.setattr(spectral, "_CUT", 20.0)
    with pytest.raises(QuadratureError, match="tail bound"):
        spectral.build_kernel(2)
    with pytest.raises(QuadratureError, match="tail bound"):
        spectral.build_kernel(1)


def test_derivative_order_guards():
    model = spectral.build_kernel(2)
    with pytest.raises(ValueError):
        model.F_deriv(1.0, 4)
    with pytest.raises(ValueError):
        model.fourier_derivative(1.0, 9)
    with pytest.raises(ValueError):
        model.fourier_derivative(1.0, (0, 9))
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
            assert np.max(np.abs(fast - _rule(model, y, k))) < tol, (m, k)


def _assert_within_the_interpolant_bounds(model, y, k, value):
    # the contract the m=2 interpolant meets at build: INTERP_TOL, and
    # INTERP_REL_TOL of F^(k)'s size
    miss = np.abs(value - _rule(model, y, k))
    assert np.max(miss) <= spectral.INTERP_TOL, k
    assert np.max(miss / model._size(y, k)) <= spectral.INTERP_REL_TOL, k


def test_m2_kernel_beyond_span_uses_quadrature():
    # beyond the interpolant's span the saddle series serves, within the
    # interpolant's bounds of the rule
    model = spectral.default_kernel(2)
    far = np.array([-75.0, -30.0, 21.5, 40.0, 60.5, 64.0, 90.0])
    for k in range(4):
        _assert_within_the_interpolant_bounds(model, far, k, model.F_deriv(far, k))
    mixed = np.array([-70.0, -22.0, -3.0, 0.0, 12.5, 20.9, 61.0])
    assert np.max(np.abs(model.F(mixed) - _rule(model, mixed, 0))) < 1e-13
    _assert_within_the_interpolant_bounds(model, np.array([21.5]), 0, model.F(21.5))


def test_m2_series_matches_the_rule_beyond_span():
    model = spectral.default_kernel(2)
    y = np.linspace(spectral._INTERP_SPAN, 300.0, 559)
    y = np.concatenate([-y, y])
    for k, row in enumerate(model._series(y, range(4))):
        _assert_within_the_interpolant_bounds(model, y, k, row)


@pytest.mark.parametrize("m", [1, 2])
def test_ode_orders_match_the_rule(m):
    # orders 4-8 come from orders 0-3 by the kernel's ODE; on the window of
    # the bi-orthonormality matrix they stay, for m=2, within the
    # interpolant's bounds and, for m=1, within 1e-14 of their size
    model = spectral.default_kernel(m)
    y = np.linspace(-model._y_span, model._y_span, 1201)
    rows = model.fourier_derivative(y, (4, 5, 6, 7, 8))
    for k, row in zip(range(4, 9), rows, strict=True):
        assert row.tobytes() == model.fourier_derivative(y, k).tobytes(), k
        if m == 2:
            _assert_within_the_interpolant_bounds(model, y, k, row)
        else:
            miss = np.abs(row - _rule(model, y, k))
            assert np.max(miss / model._size(y, k)) < 1e-14, k
    for k in range(4):
        assert model.fourier_derivative(y, k).tobytes() == model.F_deriv(y, k).tobytes()


@settings(max_examples=200, deadline=None)
@given(y=st.one_of(st.floats(min_value=21.0, max_value=600.0, exclude_min=True),
                   st.floats(min_value=-600.0, max_value=-21.0, exclude_max=True),
                   st.sampled_from([math.nextafter(21.0, 22.0), -21.5, 30.0, 60.0,
                                    -61.5, 300.0, 490.0, 1.0e6])))
def test_m2_far_field_float_has_the_bits_of_a_one_element_array(y):
    # LSODA asks for one float at a time, through the float path: beyond
    # the interpolant it must give the series' array bits, orders 4-8 too
    model = spectral.default_kernel(2)
    for k in range(9):
        one = model.fourier_derivative(y, k)
        assert type(one) is float
        assert _same_bits(one, float(model.fourier_derivative(np.array([y]), k)[0])), (y, k)
    for one, row in zip(model.F_deriv(y, (0, 1)), model.F_deriv(np.array([y]), (0, 1))):
        assert _same_bits(one, float(row[0])), y


def test_m2_far_field_underflows_to_zero():
    # e^{-d0 y^{4/3}} is below the least double beyond y = 420
    model = spectral.default_kernel(2)
    assert tuple(model.F_deriv(490.0, (0, 1))) == (0.0, 0.0)
    y = np.array([-1e6, 490.0, 1e4])
    for k in range(9):
        assert np.all(model.fourier_derivative(y, k) == 0.0), k


def test_m2_build_refuses_a_perturbed_series_coefficient(monkeypatch):
    # a relative change of 1e-8 in the first correction moves F^(k) by up
    # to 2e-11 of its size at y = 21.5, about 2e-17 and so far below
    # INTERP_TOL: only the bound relative to the size refuses it
    exact = spectral._saddle_coefficients

    def perturbed(k):
        r = exact(k)
        r[1] *= 1.0 + 1e-8
        return r

    spectral.build_kernel(2)
    monkeypatch.setattr(spectral, "_saddle_coefficients", perturbed)
    with pytest.raises(QuadratureError, match=r"saddle series .* of its size.*\(21, 300\]"):
        spectral.build_kernel(2)


def test_kernel_normalizer_is_one_over_pi():
    # F's transform e^{-s^{2m}} is 1 at s = 0, so 1/pi gives unit mass
    for m in (1, 2):
        assert spectral.build_kernel(m).normalizer == 1.0 / math.pi


def test_m2_build_calls_the_rule_on_at_most_450_points(monkeypatch):
    # 14 panels of 15 samples and 16 checks each, and the 6 series checks:
    # 440 points. Normalizing by the rule's mass on [0, 60] took 744 more,
    # and an interpolant over all of [0, 60] 1,240 instead of 434
    raw = spectral.KernelModel._raw
    points = []

    def counting(self, y, orders):
        points.append(np.size(y))
        return raw(self, y, orders)

    monkeypatch.setattr(spectral.KernelModel, "_raw", counting)
    spectral.build_kernel(2)
    assert sum(points) <= 450


def test_m2_build_refuses_a_kernel_without_unit_mass(monkeypatch):
    # interpolant samples scaled by 1 + 1e-11 pass the interpolant's own
    # check, which compares with the same scaled samples, and leave the
    # series alone: only the unit-mass check refuses them
    build = spectral._PiecewiseChebyshev.__init__

    def scaled(self, sample, span, size):
        build(self, lambda y, orders: sample(y, orders) * (1.0 + 1e-11), span, size)

    spectral.build_kernel(2)
    monkeypatch.setattr(spectral._PiecewiseChebyshev, "__init__", scaled)
    with pytest.raises(QuadratureError, match=r"kernel mass on \[-60, 60\]"):
        spectral.build_kernel(2)


def test_m2_interpolant_has_the_bits_of_the_first_panels_over_60():
    # panels are span / ceil(span / 1.5) wide, so the 14 on [0, 21] are the
    # first 14 of the 40 on [0, 60], coefficient for coefficient
    model = spectral.default_kernel(2)

    def sample(y, orders):
        return model.normalizer * model._raw(y, orders)

    wide = spectral._PiecewiseChebyshev(sample, 60.0, model._size)
    assert model._interp._width == wide._width == 1.5
    assert model._interp._last == 13
    for near, far in zip(model._interp._coef, wide._coef, strict=True):
        assert near.tobytes() == np.ascontiguousarray(far[:, :14]).tobytes()


def test_numpy_polynomial_stand_ins_have_its_bits():
    # the build does not import numpy.polynomial: the Gauss-Legendre rule
    # is a literal, and chebvander is its recurrence
    from numpy.polynomial.chebyshev import chebvander
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(12)
    assert spectral._GL_NODES.tobytes() == nodes.tobytes()
    assert spectral._GL_WEIGHTS.tobytes() == weights.tobytes()
    degree = spectral._CHEB_DEGREE
    first_kind = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
    for x in (first_kind, np.linspace(-1.0, 1.0, 37)):
        assert spectral._chebvander(x, degree).tobytes() == chebvander(x, degree).tobytes()
        assert spectral._chebvander(x, 1).tobytes() == chebvander(x, 1).tobytes()


def test_m2_far_field_value_does_not_depend_on_the_call():
    # neither the rule nor the summation order may follow the other far
    # points of the call, nor where in its blocks the point falls
    model = spectral.default_kernel(2)
    chunk = spectral._EVAL_CHUNK
    wide = np.array([-90.0, -3.0, 21.5, 30.5, 30.6, 64.0, 75.0, 90.0])
    crowd = np.linspace(21.5, 120.0, 3 * chunk)
    crowd[chunk + 7] = 30.5
    for k in range(4):
        alone = model.F_deriv(30.5, k)
        assert type(alone) is float
        assert _same_bits(alone, float(model.F_deriv(wide, k)[3])), k
        assert _same_bits(alone, float(model.F_deriv(crowd, k)[chunk + 7])), k


@pytest.mark.parametrize("m", [1, 2])
def test_F_deriv_of_several_orders_has_the_bits_of_each(m):
    # beyond the m=2 interpolant one series call serves every order
    model = spectral.default_kernel(m)
    far = np.linspace(21.5, 300.0, 300)
    y = np.concatenate([np.linspace(-20.0, 20.0, 41), far, -far[:7], [np.nan]])
    for orders in ((0, 1), (0, 1, 2, 3), (3, 1)):
        for arg in (y, y[:41]):
            rows = model.F_deriv(arg, orders)
            for k, row in zip(orders, rows, strict=True):
                assert row.tobytes() == model.F_deriv(arg, k).tobytes(), k
    assert model.F_deriv(y, (0,))[0].tobytes() == model.F(y).tobytes()
    for v in (70.3, -61.5, 250.0, 60.0, 30.0, 21.0, -21.5, -0.0):
        values = model.F_deriv(v, (0, 1, 2, 3))
        assert all(type(x) is float for x in values)
        assert _same_bits(values[0], model.F(v)), v
        for k, x in enumerate(values):
            assert _same_bits(x, model.F_deriv(v, k)), (v, k)
    with pytest.raises(ValueError):
        model.F_deriv(1.0, (0, 4))


def _fourier_raw(y, k, m):
    """int_0^{s_max} s^k e^{-s^{2m}} cos(s y + k pi/2) ds, the Fourier-cosine
    form of the kernel integral, cut where e^{-s^{2m}} is 1e-40."""
    s_max = (40.0 * math.log(10.0)) ** (1.0 / (2 * m))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, s_max, 201)
    half = 0.5 * (edges[1] - edges[0])
    s = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel()
    w = np.tile(half * weights, 200)
    return np.cos(np.outer(y, s) + k * math.pi / 2.0) @ (w * s ** k * np.exp(-s ** (2 * m)))


@pytest.mark.parametrize("m", [1, 2])
def test_raw_matches_the_fourier_cosine_rule(m):
    # where the real-line integral loses nothing to cancellation, both give
    # the same values, derivative orders 0-8 included
    model = spectral.default_kernel(m)
    y = np.concatenate([[0.0, -0.0, 1e-300], np.linspace(-10.0, 10.0, 401)])
    rows = model._raw(y, range(9))
    for k in range(9):
        assert np.max(np.abs(rows[k] - _fourier_raw(y, k, m))) < 1e-13, k


def test_m2_kernel_follows_its_leading_far_form():
    # F ~ A y^(-1/3) e^{-d0 t} cos(b0 t - pi/6), t = y^(4/3),
    # A = 4^(1/3)/sqrt(6 pi); the next term of the expansion is O(1/t) of
    # that envelope, and 0.32/t is 0.58% at y = 20, 0.23% at 40 and 0.07%
    # at 100 (measured: at most 0.309/t). The Fourier rule was round-off
    # beyond y = 35, and the fitted tail missed by 5% of the envelope at 20.
    model = spectral.default_kernel(2)
    c = model.constants
    y = np.linspace(20.0, 100.0, 4001)
    t = y ** c.alpha
    envelope = 4.0 ** (1.0 / 3.0) / math.sqrt(6.0 * math.pi) * y ** (-1.0 / 3.0) \
        * np.exp(-c.d0 * t)
    miss = np.abs(model.F(y) - envelope * np.cos(c.b0 * t - math.pi / 6.0)) / envelope
    assert np.max(miss * t) < 0.32


def test_raw_memory_does_not_grow_with_the_points():
    # points go through the rule a block at a time: past two blocks, the
    # peak above the returned rows stays the same
    model = spectral.default_kernel(2)

    def peak_above_output(n):
        y = np.linspace(0.0, 90.0, n)
        tracemalloc.start()
        try:
            rows = model._raw(y, range(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - rows.nbytes

    small = peak_above_output(2 * spectral._BLOCK)
    assert peak_above_output(32 * spectral._BLOCK) <= 1.01 * small


def _peak_above_output(evaluate, y):
    tracemalloc.start()
    try:
        out = evaluate(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


def test_m2_evaluator_memory_does_not_grow_with_the_points():
    # the interpolant and the series go _EVAL_CHUNK points at a time: past
    # two chunks, the peak above the output stays
    model = spectral.default_kernel(2)
    chunk = spectral._EVAL_CHUNK
    for evaluate, lo, hi in (
            (lambda y: model._interp(y, 3), 0.0, spectral._INTERP_SPAN),
            (lambda y: model._series(y, range(4)), 21.5, 90.0)):
        small = _peak_above_output(evaluate, np.linspace(lo, hi, 2 * chunk))
        assert _peak_above_output(evaluate, np.linspace(lo, hi, 32 * chunk)) <= 1.01 * small


def test_m2_interpolant_refuses_low_degree(monkeypatch):
    monkeypatch.setattr(spectral, "_CHEB_DEGREE", 4)
    with pytest.raises(QuadratureError, match="interpolant"):
        spectral.build_kernel(2)


def test_m2_interpolant_miss_is_bounded_by_the_kernel_size():
    # 1e-15 added to the node samples of the panels beyond y = 18 is below
    # INTERP_TOL, but 1e-12 of F's size there is below 1e-17: only the
    # bound relative to that size refuses it
    model = spectral.default_kernel(2)

    def sample(y, orders):
        return model.normalizer * model._raw(y, orders)

    nodes_seen = []

    def perturbed(y, orders):
        out = sample(y, orders)
        if not nodes_seen:  # the first call takes the nodes; the check
            out[:, y > 18.0] += 1e-15  # points keep the rule's values
        nodes_seen.append(True)
        return out

    span = spectral._INTERP_SPAN
    assert 1e-15 < spectral.INTERP_TOL
    assert spectral.INTERP_REL_TOL * model._size(18.0, 0) < 1e-17
    spectral._PiecewiseChebyshev(sample, span, model._size)
    with pytest.raises(QuadratureError, match="of its size"):
        spectral._PiecewiseChebyshev(perturbed, span, model._size)


@pytest.mark.parametrize("m", [1, 2])
def test_kernel_parity_is_exact(m):
    model = spectral.default_kernel(m)
    y = np.linspace(0.0, model._y_span, 997)
    for k in range(4):
        assert np.array_equal(model.F_deriv(-y, k), (-1.0) ** k * model.F_deriv(y, k))


def _same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


M2_SPAN = spectral._INTERP_SPAN
M2_EDGES = [spectral.default_kernel(2)._interp._width * i for i in range(
    spectral.default_kernel(2)._interp._last + 2)]


@settings(max_examples=300, deadline=None)
@given(y=st.one_of(st.floats(min_value=-M2_SPAN, max_value=M2_SPAN),
                   st.sampled_from([0.0, -0.0, M2_SPAN, -M2_SPAN]
                                   + M2_EDGES + [-e for e in M2_EDGES])))
def test_m2_scalar_kernel_has_the_bits_of_the_array_path(y):
    # LSODA evaluates one float at a time, through the scalar path;
    # projections and exports go through the array path: they must agree
    model = spectral.default_kernel(2)
    for k in range(4):
        one = model.F_deriv(y, k)
        assert type(one) is float
        assert _same_bits(one, float(model.F_deriv(np.array([y]), k)[0])), (y, k)
    assert _same_bits(model.F(y), float(model.F(np.array([y]))[0]))


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
    with pytest.raises(ConfigError):
        spectral.kernel_asymptotic_fit(model, (3.0, 15.0))
    with pytest.raises(ConfigError):
        spectral.kernel_asymptotic_fit(model, (5.0, 26.0))
    with pytest.raises(ConfigError):
        spectral.kernel_asymptotic_fit(model, (5.0, 5.5))
    # a window of the least width, without a sign change, still fits
    fit = spectral.kernel_asymptotic_fit(model, (5.0, 6.0))
    c = model.constants
    assert fit.n_zeros == 0
    assert abs(fit.d_fit - c.d0) / c.d0 < 0.05
    assert abs(fit.b_fit - c.b0) / c.b0 < 0.05


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
