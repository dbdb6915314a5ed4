"""The one text format of every CSV artifact: a header line, then one
comma-separated line per row, LF line ends. Numbers are written exactly as
'%.17g' % v writes them, which round-trips every float; booleans as
true/false; any other cell with str().

Numeric tables do not go through Python's per-value float formatting.
One function, `_layout`, writes the text of a block of float64 values at
once, in plain array expressions; blocks of 4,096 values bound its
temporaries to about 1 MB, whatever the table's length:

- The 17 significant digits. k = floor(log10|x|) comes from np.log10 and
  is corrected by one where it rounds across a power of ten. Then
  |x| * 10^(16-k) = p + t is formed as a double-double: 10^(16-k) is a
  table of correctly rounded hi + lo pairs, and x * hi is split exactly
  (Dekker, Numer. Math. 18, 1971). t is within 1e-14 of its true value,
  and the digits are D = p + round(t); a carry to 10^17 renormalises.
  The table prescales |x| below 1e-250 or from 1e251 up by 2^+-200,
  which is exact, so subnormals and huge values stay on this path.
- The text. Each cell is laid out in a fixed 48-byte row: sign, "0.000",
  the 17 digits each followed by a point slot, "e+-ddd" and the
  separator; digits come four at a time from a 10^4-entry table. A mask
  chosen by the cell's shape (point position or exponent, and the digit
  count after trailing zeros) zeroes the bytes '%.17g' does not print,
  and one bytes.translate per block drops the zeros.
- The fallback. For 10^-6 <= |x| < 10^17 the power is exact (lo = 0), so
  t is exact, and round(t), half to even with p even, rounds D as %.17g
  does. Elsewhere, where t lies within 1e-7 of a half (a tie, or too near
  one to certify the rounding), the cell is written by Python's own
  '%.17g'.
"""

import functools

import numpy as np

# values per formatting call: the text and the temporaries of one block
# take about 1 MB, whatever the table's length; 2,048 was 30% slower on the
# snapshot table, larger blocks no faster
_BLOCK = 4096
# bytes of one laid-out cell; the last one is the separator
_CELL = 48
# index of 10^0 in the power table, which covers k = -324..308
_K0 = 324
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_E16, _E17 = 10 ** 16, 10 ** 17
# |frac(t)| above which the rounding is not certified: within 1e-7 of a half
_TIE = 0.5 - 1e-7
_LEAD, _EXPO = 10000, 10020  # rows of the word table, after the chunks


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return "%.17g" % value
    return str(value)


def _fallback(value):
    """Python's own text of one value whose rounding `_layout` cannot
    certify."""
    return b"%.17g" % value


@functools.cache
def _tables():
    """The power, word, digit-count, shape and mask tables, built on first
    use."""
    k = np.arange(-_K0, 309)
    scale = np.where(k < -250, 200, np.where(k > 250, -200, 0))
    hi, lo = [], []
    for e, s in zip((16 - k).tolist(), scale.tolist()):
        # 10^e * 2^-s = num / den exactly; int / int rounds correctly
        num = 10 ** max(e, 0) << max(-s, 0)
        den = 10 ** max(-e, 0) << max(s, 0)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi, lo = np.array(hi), np.array(lo)
    c = hi * _SPLIT
    hh = c - (c - hi)
    power = np.stack([np.ldexp(1.0, scale), hi, hh, hi - hh, lo])

    # the words of a cell: 4-digit chunks, each digit followed by a point
    # slot (rows 0..9999), the lead "-0.000d." (_LEAD + d, + 10 if
    # negative) and "e+-ddd" (_EXPO + k + _K0)
    c = np.arange(10000)
    chunk = np.full((10000, 8), ord("."), np.uint8)
    for j in range(4):
        chunk[:, 2 * j] = ord("0") + c // 10 ** (3 - j) % 10
    lead = [(b"-" * neg).rjust(1, b"\0") + b"0.000%d." % d
            for neg in (0, 1) for d in range(10)]
    expo = [b"e%+03d" % x for x in k.tolist()]
    words = np.concatenate([chunk.view(np.uint64).ravel(),
                            np.array(lead + expo, "S8").view(np.uint64)])
    # digits up to the last nonzero one, counted from the start of the
    # number, by chunk position: the first chunk follows the leading digit
    sig = 4 - (c % 10 == 0) - (c % 100 == 0) - (c % 1000 == 0)
    ndig = np.stack([np.where(c > 0, base + sig, 1 if base == 1 else 0)
                     for base in (1, 5, 9, 13)]).astype(np.int8)

    # shape = 17 * notation + digit count - 1; notation is decpt + 3 for
    # fixed notation (decpt = k + 1 in -3..17) and 21 for an exponent
    fixed = (k >= -4) & (k <= 16)
    shape_of_k = (np.where(fixed, k + 4, 21) * 17 - 1).astype(np.int16)
    keep = np.zeros((22, 17, _CELL), np.uint8)
    keep[:, :, 0] = 1  # the sign: zero in the lead word if positive
    for notation in range(22):
        decpt = notation - 3
        for nd in range(1, 18):
            row = keep[notation, nd - 1]
            if notation == 21:
                digits, point = nd, 1 if nd > 1 else 0
                row[40:47] = 1
            elif decpt <= 0:
                row[1:3 - decpt] = 1  # "0." and the zeros after it
                digits, point = nd, 0
            else:
                digits, point = max(nd, decpt), decpt if nd > decpt else 0
            row[6:6 + 2 * digits:2] = 1
            if point:
                row[5 + 2 * point] = 1
    masks = (keep * 255).view(np.uint64).reshape(-1, 6)
    special = np.array([b"0", b"-0", b"nan", b"inf", b"-inf"],
                       f"S{_CELL}").view(np.uint64).reshape(-1, 6)
    return power, lo != 0.0, words, ndig, shape_of_k, masks, special


def _digits(ax, k):
    """The 17-digit integer D of each |x| at table index k, and frac(t)
    in [-1/2, 1/2]."""
    # row by row: fresh 160 KB (5, n) takes page-faulted in every block of
    # the snapshot table, where the allocator had handed them back
    scale, hi, hh, hl, lo = (row.take(k, mode="clip") for row in _tables()[0])
    x = scale * ax
    p = hi * x
    # x = xh + xl exactly; Dekker's sequence then gives x * hi - p exactly,
    # and only x * lo and the sum that adds it to t round
    split = x * _SPLIT
    xh = split - (split - x)
    xl = x - xh
    t = xh * hh - p
    for a, b in ((xh, hl), (xl, hh), (xl, hl), (x, lo)):
        t += a * b
    r = np.rint(t)
    return p.astype(np.int64) + r.astype(np.int64), t - r


def _layout(x):
    """The '%.17g' text of each value of the float64 array x, as rows of
    six uint64 words: one NUL-padded 48-byte cell per value, whose last
    byte is left 0 for the separator."""
    _, inexact, table, ndig, shape_of_k, masks, special = _tables()
    ax = np.abs(x)
    regular = (ax > 0.0) & (ax < np.inf)
    special_cells = not regular.all()
    if special_cells:  # zero, nan and inf, laid out from their own table
        ax[~regular] = 1.0
    k = np.floor(np.log10(ax)).astype(np.int64) + _K0
    d, frac = _digits(ax, k)
    # log10 rounded across a power of ten: redo those with k -+ 1
    bad = (d < _E16) | (d > _E17) | ((d == _E16) & (frac < 0.0))
    if bad.any():
        j = np.flatnonzero(bad)
        k[j] += np.where(d[j] > _E17, 1, -1)
        d[j], frac[j] = _digits(ax[j], k[j])
    carry = d == _E17
    if carry.any():
        d[carry] = _E16
        k[carry] += 1
    near_tie = np.abs(frac) > _TIE

    # D = a | c1 c2 | c3 c4: the leading digit and four 4-digit chunks,
    # which are the chunks' rows of the word table; // and a product, not
    # np.divmod, which is twice as slow on int64
    high = d // 10 ** 8
    a = high // 10 ** 8
    halves = np.stack([high - a * 10 ** 8, d - high * 10 ** 8])
    upper = halves // 10 ** 4
    (c1, c3), (c2, c4) = upper, halves - upper * 10 ** 4
    chunks = c1, c2, c3, c4
    index = np.stack([a + _LEAD + 10 * np.signbit(x), *chunks, k + _EXPO], axis=1)
    words = table.take(index, mode="clip")
    nd = np.maximum.reduce([row.take(c, mode="clip")
                            for row, c in zip(ndig, chunks)])
    shape = shape_of_k.take(k, mode="clip") + nd
    words &= masks.take(shape, axis=0, mode="clip")

    if special_cells:
        j = np.flatnonzero(~regular)
        v = x[j]
        code = np.where(np.isnan(v), 2, np.signbit(v) + np.where(v == 0.0, 0, 3))
        words[j] = special[code]
    if near_tie.any():
        text = words.view(np.uint8)
        near = np.flatnonzero(near_tie)
        for j in near[inexact[k[near]]].tolist():
            value = _fallback(float(x[j]))
            text[j] = 0
            text[j, :len(value)] = np.frombuffer(value, np.uint8)
    return words


def write_csv(path, header, rows):
    """Write header and rows to path. A numeric table comes as a 2-D
    ndarray and goes through `_layout` a block of rows at a time; any other
    rows (the check and sweep tables, which carry text) are written cell
    by cell."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not isinstance(rows, np.ndarray):
            for row in rows:
                fh.write((",".join(map(_cell, row)) + "\n").encode())
            return
        n_rows, n_cols = rows.shape
        per = max(1, _BLOCK // n_cols)
        seps = np.full(n_cols, ord(","), np.uint8)
        seps[-1] = ord("\n")
        for start in range(0, n_rows, per):
            block = np.ascontiguousarray(rows[start:start + per], dtype=float).ravel()
            words = _layout(block)
            words.view(np.uint8).reshape(-1, n_cols, _CELL)[:, :, -1] = seps
            fh.write(words.tobytes().translate(None, b"\0"))


def write_long_csv(path, header, outer, inner, columns):
    """Write the rows (outer[c], inner[r], columns[c][r]) for every c and
    r, c-major: the long form of a table of len(inner)-sized columns.
    The outer and inner cells are formatted once, by Python's '%.17g', and
    sit at the front of each byte row of one reused buffer; the values of
    several columns at a time are laid out by `_layout` and copied into the
    rest of the rows."""
    outer_text, inner_text = (
        np.array([b"%.17g," % v for v in np.asarray(a, float).tolist()])
        for a in (outer, inner))
    row = np.dtype([("outer", outer_text.dtype), ("inner", inner_text.dtype),
                    ("cell", f"V{_CELL}")])
    n = len(inner_text)
    per = max(1, _BLOCK // n)
    buf = bytearray(min(per, len(columns)) * n * row.itemsize)
    rows = np.frombuffer(buf, row).reshape(-1, n)
    rows["inner"] = inner_text
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns), per):
            block = np.concatenate(columns[start:start + per]).astype(float, copy=False)
            m = len(block) // n
            words = _layout(block)
            words.view(np.uint8)[:, -1] = ord("\n")
            rows["outer"][:m] = outer_text[start:start + m, None]
            rows["cell"][:m] = words.view(f"V{_CELL}").reshape(m, n)
            size = m * n * row.itemsize  # a bytearray's slice is a copy
            fh.write((buf[:size] if size < len(buf) else buf).translate(None, b"\0"))
