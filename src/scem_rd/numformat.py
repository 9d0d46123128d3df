"""Exactly rounded, vectorised ``%.15f`` and ``%.15e`` table formatting.

:func:`format_table` renders rows ``x,v_1,..,v_c`` byte-identical to
``("%s" + ("," + cell) * c + "\\n") % row``, but in numpy: each value is
rounded half to even on the exact product of ``|v|`` and a power of ten,
and its digits, sign and exponent go into one row of a uint8 cell matrix.
The product is exact by Dekker's two-product when the power of ten is a
double; otherwise a double-double power bounds its error. A block of cells
has a sign column and integer digits only as far as one of its values
needs them, and the rows that need less carry NUL pad bytes, which are
dropped on output; a block of like values has none, and is written as it
stands. A value the fast path cannot certify (non-finite, subnormal or
with a three-digit exponent in ``%e``, ``|v| 10^p`` within 2^-50 of 2^63
or beyond in ``%f``, or a remainder within 2^-32 of one half) is
formatted by ``%`` in its own cell (:func:`percent_cells`).
:func:`format_column` formats one column into the same matrix form, such
as the x cells that every row of a table shares.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

#: rows formatted per chunk, and the row block in which solve and plotdata
#: evaluate and write a grid; bounds the temporary arrays to a few hundred kB
CHUNK_ROWS = 4096

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_TWO63 = 2.0 ** 63
_TINY = sys.float_info.min  # smallest normal double
_E_MIN, _E_MAX = -308, 308  # decimal exponents of the normal doubles
_K_MIN, _K_MAX = -_E_MAX, 18 - _E_MIN  # scaling powers 10^k any %.<p>e needs
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_LOG10_2 = np.log10(2.0)
#: below one half by more than any error bound of a remainder in _round_scaled
_NEAR_HALF = 0.5 - 2.0 ** -32
#: (places, kind) of the two cell formats the CLI writes
_CELLS = {"%.15f": (15, "f"), "%.15e": (15, "e")}
_ZERO, _COMMA, _NEWLINE, _DOT, _MINUS = b"0,\n.-"


@functools.cache
def _tables():
    """Return (hi, lo, shift, ceil) for the scaling powers and exponents.

    ``10^k == (hi + lo) * 2^shift`` to about 2^-106 relative, with hi in
    [1, 2] and lo == 0 exactly where 10^k is a double (0 <= k <= 22);
    ``ceil[E - _E_MIN]`` is the smallest double >= 10^E. Built on first use.
    """
    hi, lo, shift = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        e = num.bit_length() - den.bit_length()
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        if num < den:
            num, e = num << 1, e - 1
        h = num / den  # int / int rounds correctly
        hi.append(h)
        lo.append(((num << 52) - int(h * 2 ** 52) * den) / (den << 52))
        shift.append(e)
    ceil = []
    for e in range(_E_MIN, _E_MAX + 1):
        c = float(f"1e{e}")
        num, den = c.as_integer_ratio()
        if (num < den * 10 ** e) if e >= 0 else (num * 10 ** -e < den):
            c = np.nextafter(c, np.inf)
        ceil.append(c)
    # an int32 shift takes numpy's fast ldexp loop, an int64 one does not
    return np.array(hi), np.array(lo), np.array(shift, np.int32), np.array(ceil)


def _two_prod(a, b):
    """Dekker: a * b == p + err exactly (no FMA needed)."""
    p = a * b
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh = _SPLIT * b
    bh -= bh - b
    bl = b - bh
    err = ah * bh - p
    err += ah * bl
    err += al * bh
    err += al * bl
    return p, err


def _round_scaled(a: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """Round ``a * 10^k`` half to even: for ``a`` normal and ``k`` an array,
    or for ``a`` >= 0 and a scalar ``k`` with ``a * 10^k <= 2^63 - 2^12``
    (a subnormal ``a`` then rounds to 0, as it should).

    Returns ``(n, bad)``: the int64 results and where they are not
    certified, which is where the computed remainder lies within 2^-32 of
    one half. Its error (about 2^-50 + x 2^-96) is far smaller, so a
    remainder outside that band rounds the right way.
    """
    hi, lo, shift, _ = _tables()
    i = k - _K_MIN
    hi, lo = hi[i], lo[i]
    x = np.ldexp(a, shift[i])  # exact: the product is near 10^k
    p, err = _two_prod(x, hi)
    r = np.rint(p)
    # the remainder (p - r) + err + x*lo, rounded into [-1/2, 1/2]
    s = p - r
    s += err
    s += x * lo  # 0 where 10^k is a double
    q = np.rint(s)
    s -= q
    n = r.astype(np.int64)
    n += q.astype(np.int64)
    return n, np.abs(s) >= _NEAR_HALF


@functools.cache
def _quads() -> np.ndarray:
    """The ASCII digits of 0000..9999, four bytes per entry in one uint32."""
    q = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return (q + _ZERO).astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _exponents() -> np.ndarray:
    """The four bytes ``e-99``..``e+99``, one uint32 for each exponent."""
    text = b"".join(f"e{e:+03d}".encode() for e in range(-99, 100))
    return np.frombuffer(text, np.uint32)


def _digits(n: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` decimal digits of ``0 <= n < 10^count`` as ASCII, most
    significant first, looked up four at a time."""
    groups = -(-count // 4)
    quads = np.empty((n.size, groups), np.int64)
    for g in range(groups - 1, 0, -1):
        high = n // 10000
        quads[:, g] = n - high * 10000
        n = high
    quads[:, 0] = n
    return _quads().take(quads).view(np.uint8)[:, 4 * groups - count:]


def _put(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` for (m, w) uint8 arrays with contiguous rows,
    copied as one w-byte item a row: numpy copies short byte rows one
    call a row, several times slower."""
    if src.shape[1]:  # a void item has at least one byte
        item = np.dtype((np.void, src.shape[1]))
        dst.view(item)[:, 0] = src.view(item)[:, 0]


def percent_cells(v: np.ndarray, places: int, kind: str) -> list[bytes]:
    """The reference path: ``%.<places><kind>`` of each value of ``v``."""
    return [(f"%.{places}{kind}" % x).encode() for x in v.tolist()]


def _cells(v: np.ndarray, places: int, kind: str) -> np.ndarray:
    """Format a 1-d array into a matrix of comma-led, NUL-padded ASCII
    cells, one row per value: dropping a row's NULs gives
    ``"," + cell % v``. The sign column and the integer digits of ``%f``
    are there only as far as some value needs them, so a block of like
    values has no NUL. A value the fast path cannot certify, such as one
    with a three-digit exponent, is formatted by :func:`percent_cells`, and
    the matrix widens to fit its text."""
    a = np.abs(v)
    if kind == "f":
        bad = ~(a < _TWO63 * (1.0 - 2.0 ** -50) / 10.0 ** places)  # n stays below 2^63
        a[bad] = 0.0
        n, uncertain = _round_scaled(a, places)
        # as many integer digits as the largest value has, at least one
        lead = max(1, int(np.searchsorted(_POW10, n.max(initial=0), side="right")) - places)
        exponent = np.zeros((a.size, 0), np.uint8)
    else:
        zero = a == 0
        bad = ~(zero | ((a >= _TINY) & (a < np.inf)))  # subnormal or not finite
        a[zero | bad] = 1.0
        # 10^exp <= a < 10^(exp + 1); the binary exponent gives exp or exp - 1
        exp = np.floor((np.frexp(a)[1] - 1) * _LOG10_2).astype(np.int64)
        exp += a >= _tables()[3][exp + 1 - _E_MIN]
        n, uncertain = _round_scaled(a, places - exp)
        # rounding up to 10^(p+1) carries into the exponent
        carry = np.flatnonzero(n == _POW10[places + 1])
        n[carry] = _POW10[places]
        exp[carry] += 1
        n[zero] = 0
        exp[zero] = 0
        big = np.abs(exp) >= 100  # a three-digit exponent is left to %
        bad |= big
        exp[big] = 0
        lead = 1
        exponent = _exponents().take(exp + 99).view(np.uint8).reshape(-1, 4)
    neg = np.signbit(v)
    sign = int(neg.any())
    point = 1 + sign + lead  # after the comma, the sign and the integer digits
    end = point + 1 + places
    cells = np.empty((a.size, end + exponent.shape[1]), np.uint8)
    # every digit one place right of its own, so the digits after the point
    # land where they belong; then the integer digits and the point
    d = _digits(n, lead + places)
    _put(cells[:, point - lead + 1:end], d)
    for j in range(lead):
        cells[:, point - lead + j] = d[:, j]
    if lead > 1:  # leading zeros of the integer part are pads
        cells[:, point - lead:point - 1][n[:, None] < _POW10[places + lead - 1:places:-1]] = 0
    cells[:, point] = _DOT
    _put(cells[:, end:], exponent)
    cells[:, 0] = _COMMA
    if sign:
        cells[:, 1] = np.where(neg, _MINUS, 0)
    bad |= uncertain
    if bad.any():
        texts = percent_cells(v[bad], places, kind)
        width = max(cells.shape[1] - 1, *map(len, texts))
        cells = np.pad(cells, ((0, 0), (0, width + 1 - cells.shape[1])))
        padded = b"".join(text.ljust(width, b"\0") for text in texts)
        cells[bad, 1:] = np.frombuffer(padded, np.uint8).reshape(-1, width)
    return cells


def _parse_cell(cell: str) -> tuple[int, str]:
    """The places and kind of ``%.15f`` or ``%.15e``; ValueError otherwise."""
    if cell not in _CELLS:
        raise ValueError(f"unsupported cell format {cell!r}")
    return _CELLS[cell]


def format_column(values: np.ndarray, cell: str) -> np.ndarray:
    """``cell % v`` for each of the 1-d ``values``, as a (len(values), width)
    uint8 matrix whose rows give the text once their NULs are dropped;
    ``cell`` as in :func:`format_table`."""
    places, kind = _parse_cell(cell)
    values = np.asarray(values, dtype=float)
    out = np.zeros((values.size, 0), np.uint8)
    for start in range(0, values.size, CHUNK_ROWS):
        cells = _cells(values[start:start + CHUNK_ROWS], places, kind)[:, 1:]  # no comma
        if cells.shape[1] > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, cells.shape[1] - out.shape[1])))
        out[start:start + len(cells), :cells.shape[1]] = cells
    return out


def format_table(xcol: np.ndarray, values: np.ndarray, cell: str) -> bytes:
    """The rows ``x,v_1,..,v_c`` as bytes, byte-identical to
    ``("%s" + ("," + cell) * c + "\\n") % row``.

    ``xcol`` holds the x cells as rows of :func:`format_column`, ``values``
    the (rows, c) floats and ``cell`` ``%.15f`` or ``%.15e``.
    """
    places, kind = _parse_cell(cell)
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    cells = _cells(values.ravel(), places, kind)
    cells = cells.reshape(rows, cols * cells.shape[1])
    width = xcol.shape[1]
    mat = np.empty((rows, width + cells.shape[1] + 1), np.uint8)
    _put(mat[:, :width], xcol)
    _put(mat[:, width:-1], cells)
    mat[:, -1] = _NEWLINE
    return (mat if mat.all() else mat[mat != 0]).tobytes()
