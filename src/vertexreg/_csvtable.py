"""The one text format of every CSV artifact: a header line, then one
comma-separated line per row, LF line ends. Numbers are written with
%.17g, which round-trips every float; booleans as true/false; any other
cell with str()."""


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return "%.17g" % value
    return str(value)


def write_csv(path, header, rows):
    """Write header and rows to path. A table whose first row holds only
    numbers goes through one line template; a table with a text column
    (the check and sweep tables) is written cell by cell."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    numbers = None
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if numbers is None:
                numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                              for v in row)
            fh.write(line % tuple(row) if numbers
                     else ",".join(map(_cell, row)) + "\n")
