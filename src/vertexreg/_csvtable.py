"""The one text format of every CSV artifact: a header line, then one
comma-separated line per row, LF line ends. Numbers are written with
%.17g, which round-trips every float; booleans as true/false; any other
cell with str()."""

import numpy as np

# rows per %-operation of a numeric table: the text of one block is all that
# is held at once, whatever the table's length
_BLOCK_ROWS = 4096


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return "%.17g" % value
    return str(value)


def write_csv(path, header, rows):
    """Write header and rows to path. A numeric table comes as a 2-D
    ndarray and is formatted a block of rows at a time, one template per
    block; any other rows (the check and sweep tables, which carry text)
    are written cell by cell."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * len(header)) + "\n"
            for start in range(0, len(rows), _BLOCK_ROWS):
                block = rows[start:start + _BLOCK_ROWS]
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                fh.write(",".join(map(_cell, row)) + "\n")
