"""The array formatter of the numeric CSV tables against Python's own
'%.17g', value by value and as written tables."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from vertexreg import _csvtable
from vertexreg._csvtable import write_csv


def _row_by_row(header, table):
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def _formatted(values):
    """The formatter's text of each value, split back into cells."""
    words = _csvtable._layout(np.asarray(values, float))
    words.view(np.uint8)[:, -1] = ord(",")
    return words.tobytes().translate(None, b"\0").decode().split(",")[:-1]


def _expected(values):
    return ["%.17g" % v for v in np.asarray(values, float).tolist()]


def test_block_path_matches_row_by_row_rendering(tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-310,
               1.0, -3.0, 1e16, 2.0 ** 60, 0.1, 1.0 / 3.0, -1e-300]
    rng = np.random.default_rng(7)
    # two full blocks and a short one
    n_rows = 2 * (_csvtable._BLOCK // 3) + 5
    table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    table[:len(special), 0] = special
    table[-len(special):, 2] = special
    table[100:200, 1] = np.arange(100.0)  # integral floats
    header = ["a", "b", "c"]
    path = tmp_path / "t.csv"
    write_csv(str(path), header, table)
    assert path.read_bytes() == _row_by_row(header, table).encode()
    write_csv(str(path), header, table[:0])
    assert path.read_bytes() == b"a,b,c\n"


def test_text_rows_go_cell_by_cell(tmp_path):
    path = tmp_path / "checks.csv"
    write_csv(str(path), ["check", "value", "passed"],
              [("mass", np.float64(0.1), True), ("fit", 2, False)])
    assert path.read_text() == ("check,value,passed\n"
                                "mass,0.10000000000000001,true\n"
                                "fit,2,false\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=64))
def test_formatter_matches_percent_17g(bits, floats):
    # raw bit patterns reach every exponent, subnormals and nan payloads
    values = np.concatenate([np.array(bits, np.uint64).view(np.float64),
                             np.array(floats, float)])
    assert _formatted(values) == _expected(values)


def test_exact_ties_round_half_even():
    # m * 2^-n with small odd m: the exact value has 18 significant digits
    # ending in 5, such as 9 * 2^-23 = 1.07288360595703125e-06
    ties = [m * 2.0 ** -n for n in range(1, 80) for m in range(1, 32, 2)
            if len(("%.25e" % (m * 2.0 ** -n)).split("e")[0].rstrip("0")) == 19]
    assert len(ties) == 21 and 9 * 2.0 ** -23 in ties
    values = np.array(ties + [-v for v in ties])
    assert _formatted(values) == _expected(values)
    assert _formatted([9 * 2.0 ** -23]) == ["1.0728836059570312e-06"]


def test_exact_ties_of_large_values_round_half_even():
    # from 2^49 to 1e17, x * 10^(16-k) often ends in exactly .5; the power
    # is exact there, so these stay on the array path
    rng = np.random.default_rng(5)
    values = 2.0 ** 49 + rng.integers(0, 2 ** 20, 2000) * 0.125  # k = 14
    values = np.concatenate([values, -values, 1e15 + np.arange(2000.0) * 0.125])
    ties = sum(Fraction(v) * 100 % 1 == Fraction(1, 2) for v in values[:2000].tolist())
    assert ties > 500
    assert _formatted(values) == _expected(values)


def test_powers_of_ten_and_their_neighbours():
    # where a 17-digit rounding can carry into the next decade, and where
    # log10 rounds across a power of ten
    p = np.array([float("1e%d" % e) for e in range(-323, 309)])
    values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf),
                             10.0 ** np.arange(-300, 300.0), -p])
    assert _formatted(values) == _expected(values)


def test_fixed_and_exponent_notation_switch():
    edges = np.array([1e-4, 1e-5, 1e16, 1e17, 9.9999999999999995e-5,
                      1e16 - 2.0, 1e17 - 16.0, 123456789012345678.0])
    values = np.concatenate([edges, np.nextafter(edges, 0.0),
                             np.nextafter(edges, np.inf), -edges])
    assert _formatted(values) == _expected(values)
    assert _formatted([1e-4, 1e-5, 1e16, 1e17]) == [
        "0.0001", "1.0000000000000001e-05", "10000000000000000", "1e+17"]


def test_special_values():
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
              -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    assert _formatted(values) == _expected(values)
    assert _formatted(values[:6]) == ["0", "-0", "nan", "nan", "inf", "-inf"]


def test_ordinary_values_never_reach_the_fallback(monkeypatch):
    # a regression that sent every value to Python would still write the
    # right bytes; count the per-value fallback instead
    calls = []
    real = _csvtable._fallback
    monkeypatch.setattr(_csvtable, "_fallback",
                        lambda v: calls.append(v) or real(v))
    rng = np.random.default_rng(3)
    values = rng.standard_normal(100_000) * 10.0 ** rng.integers(-30, 30, 100_000)
    assert _formatted(values) == _expected(values)
    assert calls == []
    # below 1e-6 the power of ten is inexact, so an exact tie goes to Python
    assert _formatted([9 * 2.0 ** -23, 3 * 2.0 ** -24]) == [
        "1.0728836059570312e-06", "1.7881393432617188e-07"]
    assert calls == [3 * 2.0 ** -24]
