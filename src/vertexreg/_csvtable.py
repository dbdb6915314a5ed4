"""The one text format of every CSV artifact: a header line, then one
comma-separated line per row, LF line ends. Numbers are written exactly as
'%.17g' % v writes them, which round-trips every float; booleans as
true/false; any other cell with str().

Numeric tables do not go through Python's per-value float formatting.
`_Cells` writes the text of a block of float64 values at once:

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

# values per formatting call: the text and the scratch arrays of one block
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
    """Python's own text of one value whose rounding `_Cells` cannot
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


def _digits(ax, k, power, f, i):
    """The 17-digit integer D of each |x| at table index k, and frac(t)
    in [-1/2, 1/2]. power (5, n), f (4, n) and i (2, n) are scratch."""
    _tables()[0].take(k, axis=1, out=power, mode="clip")
    x, p, hh, hl, lo = power
    x *= ax
    p *= x
    split, xh, prod, t = f
    # x = xh + xl exactly; Dekker's sequence then gives x * hi - p exactly,
    # and only x * lo and the sum that adds it to t round
    np.multiply(x, _SPLIT, out=split)
    np.subtract(split, x, out=xh)
    np.subtract(split, xh, out=xh)
    xl = np.subtract(x, xh, out=split)
    np.multiply(xh, hh, out=t)
    t -= p
    for a, b in ((xh, hl), (xl, hh), (xl, hl), (x, lo)):
        np.multiply(a, b, out=prod)
        t += prod
    np.rint(t, out=prod)
    d, r = i
    np.copyto(d, p, casting="unsafe")
    np.copyto(r, prod, casting="unsafe")
    d += r
    t -= prod
    return d, t


class _Cells:
    """Scratch arrays, and the bytes of up to `size` laid-out cells."""

    def __init__(self, size):
        self.buf = bytearray(size * _CELL)
        self._words = np.frombuffer(self.buf, np.uint64).reshape(size, 6)
        # the word-table rows of each cell, then its mask; the float rows
        # serve the digits, then the chunk arithmetic as int64
        self._index = np.empty((size, 6), np.int64)
        self._f = np.empty((5, size))
        self._power = np.empty((5, size))
        self._i = np.empty((4, size), np.int64)
        self._nd = np.empty((4, size), np.int8)
        self._shape = np.empty(size, np.int16)
        self._b = np.empty((2, size), bool)

    def fill(self, x):
        """Lay out the '%.17g' text of each value of the contiguous float64
        array x in the first len(x) cells of buf, NUL-padded, each one row
        of six uint64 words whose last byte is left 0 for the separator.
        Returns those rows."""
        _, inexact, table, ndig, shape_of_k, masks, special = _tables()
        n = len(x)
        f, i, nd, b = (a[:, :n] for a in (self._f, self._i, self._nd, self._b))
        index, words = self._index[:n], self._words[:n]
        ax = np.abs(x, out=f[0])
        regular = np.greater(ax, 0.0, out=b[0])
        regular &= np.less(ax, np.inf, out=b[1])
        special_cells = not regular.all()
        if special_cells:  # zero, nan and inf, laid out from their own table
            np.copyto(ax, 1.0, where=~regular)
        k = i[0]
        np.copyto(k, np.floor(np.log10(ax, out=f[1]), out=f[1]), casting="unsafe")
        k += _K0
        d, frac = _digits(ax, k, self._power[:, :n], f[1:], i[1:3])
        # log10 rounded across a power of ten: redo those with k -+ 1
        bad = (d < _E16) | (d > _E17) | ((d == _E16) & (frac < 0.0))
        if bad.any():
            j = np.flatnonzero(bad)
            k[j] += np.where(d[j] > _E17, 1, -1)
            m = len(j)
            d[j], frac[j] = _digits(ax[j], k[j], np.empty((5, m)),
                                    np.empty((4, m)), np.empty((2, m), np.int64))
        carry = d == _E17
        if carry.any():
            d[carry] = _E16
            k[carry] += 1
        near_tie = np.abs(frac) > _TIE

        # D = a | c1 c2 | c3 c4: the leading digit and four 4-digit chunks,
        # which are the chunks' rows of the word table
        chunks = self._power[:4, :n].view(np.int64)
        pair = f[:2].view(np.int64)
        high = np.floor_divide(d, 10 ** 8, out=i[2])
        a = np.floor_divide(high, 10 ** 8, out=i[3])
        np.multiply(a, 10 ** 8, out=pair[0])
        np.subtract(high, pair[0], out=chunks[1])
        np.multiply(high, 10 ** 8, out=pair[1])
        np.subtract(d, pair[1], out=chunks[3])
        np.floor_divide(chunks[1::2], 10 ** 4, out=chunks[0::2])
        chunks[1::2] -= np.multiply(chunks[0::2], 10 ** 4, out=pair)
        for col in range(4):
            ndig[col].take(chunks[col], out=nd[col], mode="clip")
        index[:, 1:5] = chunks.T
        np.add(a, _LEAD, out=index[:, 0])
        np.add(index[:, 0], 10, out=index[:, 0], where=np.signbit(x, out=b[1]))
        np.add(k, _EXPO, out=index[:, 5])
        table.take(index, out=words, mode="clip")

        np.maximum(nd[0], nd[1], out=nd[0])
        np.maximum(nd[2], nd[3], out=nd[2])
        shape = shape_of_k.take(k, out=self._shape[:n], mode="clip")
        shape += np.maximum(nd[0], nd[2], out=nd[0])
        words &= masks.take(shape, axis=0, out=index.view(np.uint64), mode="clip")

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


def _text(buf, nbytes):
    """The first nbytes of buf without their NUL padding."""
    if nbytes < len(buf):
        buf = buf[:nbytes]
    return buf.translate(None, b"\0")


def _cell_texts(values):
    """The text of each value of a 1-D float array, followed by a comma."""
    values = np.ascontiguousarray(values, dtype=float)
    texts = []
    for start in range(0, values.size, _BLOCK):
        block = values[start:start + _BLOCK]
        cells = _Cells(len(block))
        cells.fill(block).view(np.uint8)[:, -1] = ord(",")
        texts += bytes(_text(cells.buf, len(cells.buf))).split(b",")[:-1]
    return [t + b"," for t in texts]


def write_csv(path, header, rows):
    """Write header and rows to path. A numeric table comes as a 2-D
    ndarray and goes through `_Cells` a block of rows at a time; any other
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
        cells = _Cells(min(per, n_rows) * n_cols)
        for start in range(0, n_rows, per):
            block = np.ascontiguousarray(rows[start:start + per], dtype=float).ravel()
            words = cells.fill(block)
            words.view(np.uint8).reshape(-1, n_cols, _CELL)[:, :, -1] = seps
            fh.write(_text(cells.buf, block.size * _CELL))


def write_long_csv(path, header, outer, inner, columns):
    """Write the rows (outer[c], inner[r], columns[c][r]) for every c and
    r, c-major: the long form of a table of len(inner)-sized columns.
    The outer and inner cells are formatted once and sit at the front of
    each byte row; the values of several columns at a time are laid out
    by `_Cells` and copied into the rest of the rows."""
    outer_text = np.array(_cell_texts(outer))
    inner_text = np.array(_cell_texts(inner))
    row = np.dtype([("outer", outer_text.dtype), ("inner", inner_text.dtype),
                    ("cell", f"V{_CELL}")])
    n = len(inner_text)
    per = max(1, _BLOCK // n)
    buf = bytearray(min(per, len(columns)) * n * row.itemsize)
    rows = np.frombuffer(buf, row).reshape(-1, n)
    rows["inner"] = inner_text
    cells = _Cells(rows.size)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns), per):
            block = np.concatenate(columns[start:start + per]).astype(float, copy=False)
            m = len(block) // n
            words = cells.fill(block)
            words.view(np.uint8)[:, -1] = ord("\n")
            rows["outer"][:m] = outer_text[start:start + m, None]
            rows["cell"][:m] = words.view(f"V{_CELL}").reshape(m, n)
            fh.write(_text(buf, m * n * row.itemsize))
