"""The block-formatted numeric CSV path against a row-by-row rendering."""

import numpy as np

from vertexreg import _csvtable
from vertexreg._csvtable import write_csv


def _row_by_row(header, table):
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def test_block_path_matches_row_by_row_rendering(tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-310,
               1.0, -3.0, 1e16, 2.0 ** 60, 0.1, 1.0 / 3.0, -1e-300]
    rng = np.random.default_rng(7)
    n_rows = 2 * _csvtable._BLOCK_ROWS + 5  # two full blocks and a short one
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
