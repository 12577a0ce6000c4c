"""The text of ``repr(float(v))`` for every value of a float64 array, in numpy.

``cells(values)`` returns a uint8 array with one row of WIDTH
bytes per value: the ASCII of its shortest round-trip repr, with zero bytes
where a shorter text leaves room.  Dropping the zeros of a row gives the
text, so a table of rows and separators joins as ``mat[mat != 0]``.  No
Python code runs per value.

Digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): with c 2^q the value and [vl, vr] the reals that round to
it, it picks the one or two multiples of 10^k in that interval, for the k
that leaves at least one, and also tries 10^(k+1).  The products by 10^-k
are 126-bit fixed point, built from 32-bit halves on uint64 arrays.  The
result is the shortest decimal that rounds back to the value, the nearest
one if there are two, and the one with an even last digit on an exact tie:
the digits ``repr`` prints.  A table indexed by the notation, the decimal
point's place, the digit count and the exponent's length then places sign,
digits, point and exponent, as ``repr`` does: positional for
1e-4 <= |v| < 1e16, ``d.ddde+XX`` otherwise.

Every uint64 step that may wrap runs on arrays, where numpy wraps without
a warning.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Tuple

import numpy as np

WIDTH = 24  # the longest repr: "-1.2345678901234567e-308"
MAX_DIGITS = 17

_Q_MIN = -1074  # value = c 2^q with c < 2^53
_C_MIN = 1 << 52
_EXP_BITS = 0x7FF << 52
_ONE_BITS = 0x3FF << 52
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1


def _flog10pow2(q):
    """floor(q log10 2), exact for |q| <= 5456721."""
    return (q * 661971961083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 2^q)), exact for |q| <= 5456721."""
    return (q * 661971961083 - 274743187321) >> 41


_K_MIN = _flog10_three_quarters_pow2(_Q_MIN + 1)
_K_MAX = _flog10pow2(971)

# byte columns of the per-value source row that the layout picks from
_NONE, _MINUS, _POINT, _E, _EXP, _ZERO, _DIGITS = 0, 1, 2, 3, 4, 8, 9
_SOURCE = 28  # _EXP..+3: exponent sign and 3 digits; _DIGITS..+16: the digits
# (_EXP and _DIGITS + 1 are multiples of 4 and of 2, for the uint32 and uint16 views)
_POSITIONAL = range(-3, 17)  # decimal point places printed without exponent


class _Tables(NamedTuple):
    powers: np.ndarray    # (K, 5) uint64: g1, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32
    shift: np.ndarray     # (K,) int64: floor(log2 10^-k) + 2
    layout: np.ndarray    # (keys, WIDTH) int32: source column of each byte
    exponent: np.ndarray  # (633,) uint32: "+000".."+308", "-001".."-324"
    pairs: np.ndarray     # (100,) uint16: "00".."99"
    source: np.ndarray    # (_SOURCE,) uint8: the constant bytes of a source row


def _layout_row(scientific: bool, decpt: int, nd: int, exp_len: int) -> list:
    """Source columns of one repr, for digits d1..d_nd times 10^(decpt - nd)."""
    digits = list(range(_DIGITS, _DIGITS + nd))
    if scientific:
        row = digits[:1] + ([_POINT] + digits[1:] if nd > 1 else [])
        row += [_E, _EXP] + list(range(_EXP + 4 - exp_len, _EXP + 4))
    elif decpt <= 0:
        row = [_ZERO, _POINT] + [_ZERO] * -decpt + digits
    elif decpt < nd:
        row = digits[:decpt] + [_POINT] + digits[decpt:]
    else:
        row = digits + [_ZERO] * (decpt - nd) + [_POINT, _ZERO]
    row = [_MINUS] + row
    return row + [_NONE] * (WIDTH - len(row))


@functools.cache
def _tables() -> _Tables:
    """Built on first use, so importing the module costs nothing.

    g = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1, so 2^125 < g <= 2^126,
    split as g1 2^63 + g0.
    """
    g_rows, shifts = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            flog2 = p.bit_length() - 1
            beta = p << (125 - flog2) if flog2 <= 125 else p >> (flog2 - 125)
        else:  # 10^-k is no power of 2: its floor(log2) is -bit_length(10^k)
            flog2 = -p.bit_length()
            beta = (1 << (125 - flog2)) // p
        g1, g0 = (beta + 1) >> 63, (beta + 1) & _M63
        g_rows.append((g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32))
        shifts.append(flog2 + 2)
    layout = [_layout_row(False, decpt, nd, 0)
              for decpt in _POSITIONAL for nd in range(1, MAX_DIGITS + 1)]
    layout += [_layout_row(True, 0, nd, exp_len)
               for nd in range(1, MAX_DIGITS + 1) for exp_len in (2, 3)]
    exponent = b"".join(b"%c%03d" % (43 if e >= 0 else 45, abs(e)) for e in range(-324, 309))
    source = np.zeros(_SOURCE, np.uint8)
    source[[_POINT, _E, _ZERO]] = list(b".e0")
    return _Tables(np.array(g_rows, np.uint64), np.array(shifts, np.int64),
                   np.array(layout, np.int32), np.frombuffer(exponent, np.uint32),
                   np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16),
                   source)


def _round_to_odd(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop: g cp / 2^127 rounded to odd, for g = g1 2^63 + g0
    and cp < 2^59.

    Each product of two 64-bit numbers is put together from 32-bit halves;
    no partial sum reaches 2^64.
    """
    g1, g1h, g1l, g0h, g0l = g
    c1, c0 = cp >> 32, cp & _M32
    x1 = g0h * c1 + ((g0h * c0 + g0l * c1 + (g0l * c0 >> 32)) >> 32)  # hi64(g0 cp)
    y1 = g1h * c1 + ((g1h * c0 + g1l * c1 + (g1l * c0 >> 32)) >> 32)  # hi64(g1 cp)
    z = ((g1 * cp) >> 1) + x1  # g1 * cp wraps to lo64(g1 cp)
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def shortest_digits(bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10^k the shortest decimal that rounds to each value.

    ``bits`` holds the uint64 patterns of finite, positive float64 values.
    f < 10^17; of two shortest decimals the nearer wins, and of two as near
    the one with an even f.
    """
    tables = _tables()
    bq = bits >> 52
    frac = bits & (_C_MIN - 1)
    c = frac | ((bq != 0).astype(np.uint64) << 52)
    q = np.maximum(bq, 1).astype(np.int64) + (_Q_MIN - 1)
    # the lower neighbour is closer: at a power of two above the subnormals
    irregular = (frac == 0) & (bq > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    row = k - _K_MIN
    g = np.ascontiguousarray(tables.powers.take(row, axis=0).T)
    h = (q + tables.shift.take(row)).astype(np.uint64)
    cb = c << 2
    # 4 vl, 4 v and 4 vr, times 2^h
    vbl, vb, vbr = _round_to_odd(g, np.stack((cb - 2 + irregular, cb, cb + 2)) << h)
    out = c & 1  # the interval is closed for even c
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + out <= vbr
    t = s + 1
    uin = vbl + out <= s << 2
    win = (t << 2) + out <= vbr
    mid = (s + t) << 1
    pick_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & 1) == 0)))
    return np.where(upin != wpin, np.where(wpin, sp10 + 10, sp10), np.where(pick_s, s, t)), k


_POW10 = np.array([10 ** i for i in range(MAX_DIGITS + 1)], np.uint64)


def cells(values: np.ndarray) -> np.ndarray:
    """uint8 array of shape values.shape + (WIDTH,): each value's repr bytes.

    NaN and infinity are repr's ``nan`` and ``inf``, a minus sign before
    -inf and never before NaN.  The sign byte is the first of every row, a
    zero byte when there is no sign.
    """
    tables = _tables()
    shape = np.shape(values)
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    magnitude = bits & _M63
    special = ((magnitude & _EXP_BITS) == _EXP_BITS) | (magnitude == 0)
    has_special = special.any()
    if has_special:
        magnitude[special] = _ONE_BITS
    f, k = shortest_digits(magnitude)

    n = len(f)
    length = np.searchsorted(_POW10, f, side="right")
    f *= _POW10.take(MAX_DIGITS - length)  # MAX_DIGITS digits, the first nonzero
    decpt = length + k
    source = np.empty((n, _SOURCE), np.uint8)
    source[:] = tables.source
    source[:, _MINUS] = (bits >> 63).astype(np.uint8) * 45
    source.view(np.uint32)[:, _EXP // 4] = tables.exponent.take(decpt + 323)
    first = f // 10 ** 16
    source[:, _DIGITS] = first + 48
    # the other 16 digits as 8 two-digit numbers: two 8-digit halves, each
    # split in two 4-digit quarters, each in two pairs; x // 10^4 and
    # x // 100 by multiplying and shifting, exact below 2^32 and 43699
    rest = f - first * 10 ** 16
    pairs = np.empty((8, n), np.uint64)
    pairs[0] = rest // 10 ** 8
    pairs[4] = rest - pairs[0] * 10 ** 8
    halves, quarters = pairs[0::4], pairs[2::4]
    quotient = (halves * 3518437209) >> 45
    quarters[:] = halves - quotient * 10000
    halves[:] = quotient
    quotient = (pairs[0::2] * 5243) >> 19
    pairs[1::2] = pairs[0::2] - quotient * 100
    pairs[0::2] = quotient
    second = (_DIGITS + 1) // 2  # the second digit's uint16 column
    source.view(np.uint16)[:, second:second + 8] = tables.pairs.take(pairs).T
    # digits printed: up to the last nonzero one
    digits = source[:, _DIGITS:_DIGITS + MAX_DIGITS]
    nd = MAX_DIGITS - np.argmax(digits[:, ::-1] != 48, axis=1)
    scientific = (decpt < _POSITIONAL.start) | (decpt >= _POSITIONAL.stop)
    key = np.where(scientific,
                   len(_POSITIONAL) * MAX_DIGITS + 2 * nd + (np.abs(decpt - 1) >= 100) - 2,
                   (decpt - _POSITIONAL.start) * MAX_DIGITS + nd - 1)
    index = tables.layout.take(key, axis=0)
    index += np.arange(0, n * _SOURCE, _SOURCE, dtype=np.int32)[:, None]
    text = source.reshape(-1).take(index)

    if has_special:
        rows = np.flatnonzero(special)
        original = bits[rows] & _M63
        text[rows] = 0
        for word, where in ((b"0.0", original == 0),
                            (b"inf", original == _EXP_BITS),
                            (b"nan", original > _EXP_BITS)):
            text[rows[where], 1:1 + len(word)] = np.frombuffer(word, np.uint8)
        text[rows, 0] = np.where((bits[rows] >> 63 == 1) & (original <= _EXP_BITS), 45, 0)
    return text.reshape(shape + (WIDTH,))
