"""The local sampled-data rules have the bits of scipy.integrate's."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vertexreg import _quadrature


@st.composite
def odd_grids(draw):
    """(x, y) on an odd number of points, x uniform or not."""
    n = 2 * draw(st.integers(min_value=1, max_value=200)) + 1
    start = draw(st.floats(min_value=-50.0, max_value=50.0))
    if draw(st.booleans()):
        x = np.linspace(start, start + draw(st.floats(min_value=1e-3, max_value=100.0)), n)
    else:
        steps = draw(arrays(float, n - 1, elements=st.floats(min_value=1e-3, max_value=10.0)))
        x = start + np.concatenate(([0.0], np.cumsum(steps)))
    y = draw(arrays(float, n, elements=st.floats(min_value=-1e3, max_value=1e3)))
    return x, y


@settings(max_examples=300, deadline=None)
@given(odd_grids())
def test_simpson_has_the_bits_of_scipy(grid):
    x, y = grid
    ours = _quadrature.simpson(y, x)
    assert np.float64(ours).tobytes() == np.float64(scipy.integrate.simpson(y, x=x)).tobytes()


@settings(max_examples=300, deadline=None)
@given(odd_grids())
def test_cumulative_trapezoid_has_the_bits_of_scipy(grid):
    x, y = grid
    assert (_quadrature.cumulative_trapezoid(y, x).tobytes()
            == scipy.integrate.cumulative_trapezoid(y, x).tobytes())
    assert (_quadrature.cumulative_trapezoid(y, x, initial=0.0).tobytes()
            == scipy.integrate.cumulative_trapezoid(y, x, initial=0.0).tobytes())


def test_simpson_refuses_an_even_number_of_points():
    with pytest.raises(ValueError, match="odd"):
        _quadrature.simpson(np.ones(4), np.arange(4.0))
