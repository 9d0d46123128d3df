"""Exactly rounded, vectorised ``%.<p>f`` and ``%.<p>e`` table formatting.

:func:`format_table` renders rows ``x,v_1,..,v_c`` byte-identical to
``("%s" + ("," + cell) * c + "\\n") % row``, but in numpy: each value is
rounded half to even on the exact product of ``|v|`` and a power of ten,
its digits, sign and exponent go into a uint8 matrix with NUL pad bytes,
and the pads are dropped. The product is exact by Dekker's two-product when
the power of ten is a double; otherwise a double-double power bounds its
error. A row holding a value the fast path cannot certify (non-finite,
subnormal, ``|v| 10^p >= 2^63`` in ``%f``, or a remainder within the error
bound of one half) goes through :func:`percent_lines`, the ``%`` reference.
:func:`format_column` formats one column the same way into a numpy ``S``
array, such as the x cells that every row of a table shares.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import Iterator, Sequence

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
_CELL = re.compile(r"%\.(\d+)([ef])")
_ZERO, _COMMA, _NEWLINE, _DOT, _MINUS, _PLUS = b"0,\n.-+"


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
    return np.array(hi), np.array(lo), np.array(shift), np.array(ceil)


def _two_prod(a, b):
    """Dekker: a * b == p + err exactly (no FMA needed)."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    """Knuth: a + b == s + err exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _round_scaled(a: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """Round ``a * 10^k`` half to even, for ``a`` >= 0 finite, normal or 0.

    Returns ``(n, bad)``: the int64 results and where they are not
    certified (the product reaches 2^63, or 10^k is not a double and the
    remainder lies within the error bound of one half).
    """
    hi, lo, shift, _ = _tables()
    i = np.asarray(k) - _K_MIN
    hi, lo = hi[i], lo[i]
    x = np.ldexp(a, shift[i])  # exact: the product is near 10^k
    p, err = _two_prod(x, hi)
    bad = ~(p < _TWO63)
    p[bad] = 0.0
    r = np.rint(p)
    # remainder (p - r) + err + x*lo, renormalised into [-1/2, 1/2] twice
    s, tail = _two_sum(p - r, err)
    q1 = np.rint(s)
    s, tail2 = _two_sum(s - q1, x * lo)
    q2 = np.rint(s)
    s -= q2
    n = r.astype(np.int64) + q1.astype(np.int64) + q2.astype(np.int64)
    # with lo == 0 the remainder s + tail is exact: step past a half when
    # the tail says so, and on a tie only to reach the even neighbour
    tail += tail2
    half = np.abs(s) == 0.5
    step = half & ((tail * s > 0) | ((tail == 0) & (n % 2 == 1)))
    n += np.where(step, np.sign(s), 0.0).astype(np.int64)
    margin = x * 2.0 ** -96 + 2.0 ** -50
    bad |= (lo != 0) & (np.abs(np.abs(s) - 0.5) <= margin)
    return n, bad


@functools.cache
def _quads() -> np.ndarray:
    """The ASCII digits of 0000..9999, four bytes per entry in one uint32."""
    q = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return (q + _ZERO).astype(np.uint8).view(np.uint32).ravel()


def _digits(n: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` lowest decimal digits of ``n`` >= 0 as ASCII, most
    significant first, looked up four at a time."""
    groups = -(-count // 4)
    quads = np.empty((n.size, groups), np.int64)
    for g in range(groups - 1, -1, -1):
        high = n // 10000
        quads[:, g] = n - high * 10000
        n = high
    return _quads()[quads].view(np.uint8)[:, 4 * groups - count:]


def _cells(v: np.ndarray, places: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Format a 1-d array into comma-led, NUL-padded ASCII cells, one row
    per value. Returns ``(cells, bad)``; the cells of ``bad`` values are
    garbage."""
    a = np.abs(v)
    limit = _TWO63 if kind == "f" else np.inf  # %f needs |v| 10^p < 2^63
    bad = ~(a < limit) | ((a > 0) & (a < _TINY))
    a[bad] = 0.0
    if kind == "f":
        n, uncertain = _round_scaled(a, places)
        d = _digits(n, 19)
        # leading zeros of the integer part are pads; the units digit stays
        d[:, :18 - places][n[:, None] < _POW10[18:places:-1]] = 0
        point = 21 - places  # after the comma, the sign and 19 - p digits
        cells = np.empty((a.size, 22), np.uint8)
        cells[:, 2:point] = d[:, :19 - places]
        cells[:, point + 1:] = d[:, 19 - places:]
    else:
        zero = a == 0
        a[zero] = 1.0
        exp = np.searchsorted(_tables()[3], a, side="right") - 1 + _E_MIN
        n, uncertain = _round_scaled(a, places - exp)
        # rounding up to 10^(p+1) carries into the exponent
        carry = n == _POW10[places + 1]
        n[carry] = _POW10[places]
        exp += carry
        n[zero] = 0
        exp[zero] = 0
        point = 3  # after the comma, the sign and the leading digit
        cells = np.empty((a.size, places + 9), np.uint8)
        d = _digits(n, places + 1)
        cells[:, 2] = d[:, 0]
        cells[:, 4:places + 4] = d[:, 1:]
        cells[:, places + 4] = ord("e")
        cells[:, places + 5] = np.where(exp < 0, _MINUS, _PLUS)
        e = np.abs(exp)
        cells[:, places + 6:] = _digits(e, 3)
        cells[:, places + 6][e < 100] = 0
    cells[:, 0] = _COMMA
    cells[:, 1] = np.where(np.signbit(v), _MINUS, 0)
    cells[:, point] = _DOT
    return cells, bad | uncertain


def percent_lines(line: str, xcol: np.ndarray, values: np.ndarray,
                  rows: Sequence[int]) -> list[bytes]:
    """The reference path: ``line % row`` for each index in ``rows``."""
    return [(line % (xcol[i].decode(), *values[i].tolist())).encode() for i in rows]


def _parse_cell(cell: str) -> tuple[int, str]:
    """The places and kind of a ``%.<p>f`` or ``%.<p>e`` format, 1 <= p <= 17."""
    match = _CELL.fullmatch(cell)
    if match is None or not 1 <= int(match[1]) <= 17:
        raise ValueError(f"unsupported cell format {cell!r}")
    return int(match[1]), match[2]


def format_column(values: np.ndarray, cell: str) -> np.ndarray:
    """``cell % v`` for each of the 1-d ``values``, as a numpy ``S`` array,
    byte-identical to ``%``; ``cell`` as in :func:`format_table`. A value
    the fast path cannot certify goes through ``%``."""
    places, kind = _parse_cell(cell)
    values = np.asarray(values, dtype=float)
    blocks = [np.empty(0, "S1")]
    for start in range(0, values.size, CHUNK_ROWS):
        v = values[start:start + CHUNK_ROWS]
        cells, bad = _cells(v, places, kind)
        cells = cells[:, 1:]  # no comma
        pad = cells == 0
        # move each cell's pad bytes behind its text, keeping the text's order
        cells = np.take_along_axis(cells, np.argsort(pad, axis=1, kind="stable"), axis=1)
        width = int(cells.shape[1] - pad.sum(axis=1).min())
        block = np.ascontiguousarray(cells[:, :width]).view(f"S{width}").ravel()
        if bad.any():
            lines = [(cell % x).encode() for x in v[bad].tolist()]
            block = block.astype(f"S{max(width, *map(len, lines))}")
            block[bad] = lines
        blocks.append(block)
    return np.concatenate(blocks)


def format_table(xcol: np.ndarray, values: np.ndarray, cell: str) -> Iterator[bytes]:
    """Yield the rows ``x,v_1,..,v_c`` in chunks of bytes, byte-identical to
    ``("%s" + ("," + cell) * c + "\\n") % row``.

    ``xcol`` holds the preformatted x cells (a numpy ``S`` array), ``values``
    the (rows, c) floats and ``cell`` a ``%.<p>f`` or ``%.<p>e`` format with
    ``1 <= p <= 17``.
    """
    places, kind = _parse_cell(cell)
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    line = "%s" + ("," + cell) * cols + "\n"
    for start in range(0, rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, rows)
        m = stop - start
        cells, bad = _cells(values[start:stop].ravel(), places, kind)
        x = xcol[start:stop].view(np.uint8).reshape(m, -1)
        mat = np.empty((m, x.shape[1] + cells.size // m + 1), np.uint8)
        mat[:, :x.shape[1]] = x
        mat[:, x.shape[1]:-1] = cells.reshape(m, -1)
        mat[:, -1] = _NEWLINE
        fallback = np.flatnonzero(bad.reshape(m, cols).any(axis=1))
        if fallback.size == 0:
            yield mat[mat != 0].tobytes()
            continue
        lines = percent_lines(line, xcol, values, fallback + start)
        done = 0
        for i, text in zip(fallback, lines):
            part = mat[done:i]
            yield part[part != 0].tobytes() + text
            done = i + 1
        part = mat[done:]
        yield part[part != 0].tobytes()
