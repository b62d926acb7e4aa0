"""Exact vectorized ``'%.17g'``: for a float64 array, the bytes CPython's ``'%.17g' % x``
writes, with no Python loop per cell.

A finite x with 1e-11 <= |x| < 1e15 is written from integers alone. Its decimal exponent
X (that of its leading digit) is estimated by ``log10`` and settled by comparing |x| with
the smallest float at or above each power of ten, so it is exact. With ``x = m 2^q`` read
from the bits (m < 2^53) and ``k = 16 - X`` (2 <= k <= 27, so 5^k < 2^63), the 17-digit
significand is the integer nearest to ``x 10^k = m 5^k / 2^r`` with ``r = -(q + k)``
(1 <= r <= 62 on this range). The product m 5^k < 2^116 is formed exactly in two uint64
limbs and shifted right by r; the exact remainder decides the rounding, half to even as
CPython's dtoa rounds. No significand rounds up to 10^17: the largest float below each
power of ten up to 1e15 lies more than half a unit of the 17th digit below it.

Each cell is laid out in ``WIDTH`` bytes that hold every character any layout needs at a
place that does not depend on X, the digits twice, so no byte moves from cell to cell::

    col   0    1-2   3-5    7    8-23      24   28-43     44-47
          '-'  '0.'  '000'  d0   d1...d16  '.'  d1...d16  'e-XX'    (6, 25-27: unused)

Which bytes a cell keeps depends on (X, significant digits, sign) alone, and a table
indexed by those sets the others to ``DROP``, a byte no UTF-8 text holds. Fixed form (X
of -4 to 14) keeps d0 and the integer digits from the first copy, then the point and the
rest of the significant digits from the second, or "0.", -X-1 zeros and the significant
digits of the first copy; exponent form (X of -11 to -5) keeps d0, the point and the
rest from the second copy, and "e-XX". So the kept bytes of a cell form a few runs, and
trailing zeros of the fraction, and a point left with no digit after it, are dropped.
A zero is written as 1.0 is, "1", with its digit set to 0 (and its sign from the sign
bit, so -0.0 is "-0"). Subnormals, NaN, infinities and the other cells outside the range
go through ``'%.17g'`` itself, in one batched call over their distinct bit patterns,
left-aligned.

Every operand of the integer arithmetic is a typed ``np.uint64``/``np.int64`` array
or scalar, so the bytes do not depend on numpy's promotion rules for Python ints.
"""

from __future__ import annotations

import functools
import math

import numpy as np

WIDTH = 48  # bytes per cell; the longest '%.17g' text, '-2.2250738585072014e-308', takes 24
DROP = 0xFF  # a byte that UTF-8 never holds: the bytes of a cell that are not written
_X_MIN, _X_MAX = -11, 14  # decimal exponents of the integer route
_U64, _I64 = np.uint64, np.int64
_ONE, _LIMB = _U64(1), _U64(32)
_LOW32 = _U64(0xFFFFFFFF)
_E16, _E8, _E4 = _U64(10**16), _U64(10**8), _U64(10**4)
_FRACTION, _HIDDEN = _U64((1 << 52) - 1), _U64(1 << 52)
_EXP_SHIFT, _EXP_MASK, _BIAS = _U64(52), _U64(0x7FF), _I64(1075)
_SLOW = 24  # columns the '%.17g' fallback text fills


def _words(chars) -> np.ndarray:
    """Rows of four characters, as byte values, as one uint32 word each."""
    return np.ascontiguousarray(chars, np.uint8).view(np.uint32).ravel()


@functools.cache
def _tables() -> tuple:
    """(exponent bounds, 32-bit halves of the powers of five, the constant words of a
    cell, its words by leading digit, by four-digit group and by exponent, and the
    drop mask by (X, significant digits, sign))."""
    bounds = []
    for e in range(_X_MIN - 1, _X_MAX + 3):  # the smallest float >= 10^e
        t = 10.0 ** e
        num, den = t.as_integer_ratio()
        if (num * 10 ** -e < den) if e < 0 else (num < 10 ** e * den):
            t = math.nextafter(t, math.inf)
        bounds.append(t)
    powers5 = np.array([5**k for k in range(17 - _X_MIN)], _U64)
    leads = np.tile(list(b"00\0\0"), (10, 1))
    leads[:, 3] = np.arange(10) + ord("0")
    # uint16, not int64: the table's temporaries are a quarter as large
    places = np.array([1000, 100, 10, 1], np.uint16)
    groups = (np.arange(10**4, dtype=np.uint16)[:, None] // places % np.uint16(10)
              + np.uint16(ord("0")))
    x = np.arange(_X_MIN, _X_MAX + 1)
    tails = np.tile(list(b"e-\0\0"), (x.size, 1))
    tails[:, 2], tails[:, 3] = -x // 10 + ord("0"), -x % 10 + ord("0")
    # kept[X, n, negative, column] for n significant digits
    x, n = x[:, None, None, None], np.arange(18)[None, :, None, None]
    negative, col = np.array([False, True])[None, None, :, None], np.arange(WIDTH)
    small, scientific = (x < 0) & (x >= -4), x < -4
    first, second = col - 7, col - 27  # the digit a column of each copy holds
    kept = (((col == 0) & negative)
            | (((col == 1) | (col == 2)) & small)
            | ((col >= 3) & (col <= 5) & small & (col - 3 < -x - 1))
            | (col == 7)
            | ((col >= 8) & (col <= 23) & (((x >= 0) & (first <= x)) | (small & (first < n))))
            | ((col == 24) & (((x >= 0) & (n > x + 1)) | (scientific & (n > 1))))
            | ((col >= 28) & (col <= 43) & (((x >= 0) & (second > x)) | scientific)
               & (second < n))
            | ((col >= 44) & scientific))
    return (np.array(bounds), powers5 >> _LIMB, powers5 & _LOW32, _words(list(b"-0.0")),
            _words(list(b".\0\0\0")), _words(leads), _words(groups), _words(tails),
            np.where(kept, np.uint8(0), np.uint8(DROP)).reshape(-1, WIDTH))


def _significands(bits: np.ndarray, exponent: np.ndarray, p_hi: np.ndarray,
                  p_lo: np.ndarray) -> np.ndarray:
    """The 17-digit significands of the positive floats whose bits are ``bits`` and whose
    decimal exponents are ``exponent``; ``p_hi``, ``p_lo`` are the 32-bit halves of the
    powers of five."""
    m = (bits & _FRACTION) | _HIDDEN
    q = ((bits >> _EXP_SHIFT) & _EXP_MASK).astype(_I64) - _BIAS
    k = _I64(16) - exponent
    p_hi, p_lo = p_hi[k], p_lo[k]
    r = (-(q + k)).astype(_U64)
    # m 5^k as hi 2^64 + lo, from 32-bit halves: no partial product reaches 2^64
    m_hi, m_lo = m >> _LIMB, m & _LOW32
    low, mid = m_lo * p_lo, m_lo * p_hi + m_hi * p_lo
    lo = low + (mid << _LIMB)  # wraps modulo 2^64; the carry is lo < low
    hi = m_hi * p_hi + (mid >> _LIMB) + (lo < low).astype(_U64)
    # r lies in 1..62, so no shift count reaches 64, where shifts are undefined
    whole = (hi << (_U64(64) - r)) | (lo >> r)
    rest = lo & ((_ONE << r) - _ONE)
    # half to even: up where the remainder passes half, or is half above an odd digit
    return whole + (rest + (whole & _ONE) > _ONE << (r - _ONE)).astype(_U64)


def render(x) -> np.ndarray:
    """The text of the float64 cells ``x``, ``WIDTH`` bytes a cell: row i without its
    ``DROP`` bytes is ``'%.17g' % x[i]``."""
    x = np.ascontiguousarray(x, np.float64).ravel()
    bounds, p_hi, p_lo, sign, point, leads, groups, tails, drops = _tables()
    size = np.abs(x)
    zero = size == 0.0
    fast = zero | ((size >= bounds[1]) & (size < 1e15))
    # 1.0 stands in for the zeros, whose digit is set below, and for the other cells
    size = np.where(fast & ~zero, size, 1.0)
    # log10 errs by at most one next to a power of ten; the bounds settle it exactly
    guess = np.floor(np.log10(size)).astype(_I64) - _I64(_X_MIN - 1)
    exponent = (guess + (size >= bounds[guess + _I64(1)]).astype(_I64)
                - (size < bounds[guess]).astype(_I64) + _I64(_X_MIN - 1))
    significand = _significands(size.view(_U64), exponent, p_hi, p_lo)
    lead = significand // _E16
    tail = significand - lead * _E16
    upper = tail // _E8
    lower = tail - upper * _E8
    words = np.empty((WIDTH // 4, x.size), np.uint32)  # word by word, each contiguous
    words[0], words[6] = sign, point
    np.take(leads, lead, out=words[1])
    for word, group in enumerate((upper // _E4, upper % _E4, lower // _E4, lower % _E4), 2):
        np.take(groups, group, out=words[word])
    words[7:11] = words[2:6]
    row = exponent - _I64(_X_MIN)
    np.take(tails, row, out=words[11])
    text = np.ascontiguousarray(words.T).view(np.uint8)
    length = _I64(17) - (text[:, 23:6:-1] != ord("0")).argmax(axis=1).astype(_I64)
    text[zero, 7] = ord("0")
    text |= np.take(drops, (row * _I64(18) + length) * _I64(2) + np.signbit(x).astype(_I64),
                    axis=0)
    rows = np.flatnonzero(~fast)
    if rows.size:  # each distinct bit pattern formatted once
        bits, inverse = np.unique(x[rows].view(_U64), return_inverse=True)
        slow = np.array(list(map("%.17g".__mod__, bits.view(np.float64).tolist())), f"S{_SLOW}")
        slow = slow.view(np.uint8).reshape(bits.size, _SLOW)[inverse]
        text[rows] = DROP
        text[rows, :_SLOW] = np.where(slow == 0, np.uint8(DROP), slow)
    return text
