"""The text of ``repr(float(v))`` for every value of a float64 array, in
numpy, and the rows of a table of such columns.

``cells(values)`` returns a uint8 array with one row of WIDTH bytes per
value: a sign byte, "-" where the sign bit is set and the value is not NaN,
else 0, then the ASCII of the magnitude's shortest round-trip repr, with
zero bytes where a shorter text leaves room.  Dropping the zeros of a row
gives the text.  No Python code runs per value.

``row_chunks(columns, layout)`` writes the rows of a table, each row's
parts, a column's index or separator bytes, as ``layout`` lists them.  A
float64 column is formatted by one ``cells`` call, any other by the str()
of each value, which for a float is its repr too.  Of a float64 column
whose magnitudes mirror bitwise about its middle, as an even or odd
function on a symmetric grid, only rows n//2 on are formatted: row i is
row n-1-i with its own sign byte.  The rows are copied into one uint8
matrix, whose separator columns are written once; its bytes without the
zeros, dropped by ``bytes.translate``, are the text.

Two block sizes bound the memory in flight: ``cells`` formats BLOCK values
per pass into one result, so a caller formats a whole column in one call,
and ``row_chunks`` yields CHUNK_ROWS rows per chunk, in one reused matrix.

Digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): with c 2^q the value and [vl, vr] the reals that round to
it, it picks the one or two multiples of 10^k in that interval, for the k
that leaves at least one, and also tries 10^(k+1).  The products by 10^-k
are 126-bit fixed point, built from 32-bit halves on uint64 arrays.  The
result is the shortest decimal that rounds back to the value, the nearest
one if there are two, and the one with an even last digit on an exact tie:
the digits ``repr`` prints.

The text is laid out as ``repr`` lays it out (positional for
1e-4 <= |v| < 1e16, ``d.ddde+XX`` otherwise) by arithmetic on the row's
three little-endian uint64 words (H. S. Warren, *Hacker's Delight*, 2nd
ed., 2012, ch. 10):

- the 17 digits, the first nonzero, are a first digit and two 8-digit
  halves.  Each half becomes the 8 ASCII bytes of one word: it is split at
  10^4 into two 32-bit lanes, each lane at 100 into two 16-bit lanes and
  each of those at 10 into two bytes, all lanes of a word at once, and each
  quotient is a multiply and a shift;
- the digits printed run to the last nonzero one, the highest nonzero byte
  of the halves before the ASCII offset: the binary exponent of a float
  that holds them names it, exactly, as no byte exceeds 9;
- a row holds the sign and the digits from byte 1 on, as they stand before
  the decimal point, and a second row holds them shifted right, as they
  stand after it.  Byte masks keep each row on its side of the point, and
  the point, a ``0.00`` prefix and the exponent are OR-ed in.  The shift,
  the masks and the point or prefix depend on the point's place and the
  digit count alone, and so does the multiply and shift that moves the
  exponent's text to the end of the digits: they come from one table of
  words, indexed by the two.

Every uint64 step that may wrap runs on arrays, where numpy wraps without
a warning.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator, NamedTuple, Sequence, Tuple

import numpy as np

WIDTH = 24  # the longest repr: "-1.2345678901234567e-308"
# values per pass of the kernel, so that its temporaries, arrays of one to
# three words per value, do not grow with the input.  On a states table at
# 64001 points 8192 was faster than 4096 or whole columns, and as fast as
# 16384 with a smaller peak RSS.
BLOCK = 8192
CHUNK_ROWS = 4096  # rows per chunk of a table, values per chunk of a JSON column
MAX_DIGITS = 17

_Q_MIN = -1074  # value = c 2^q with c < 2^53
_C_MIN = 1 << 52
_EXP_BITS = 0x7FF << 52
_ONE_BITS = 0x3FF << 52
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1


def _flog10(q, irregular):
    """floor(log10(2^q)), or floor(log10(3/4 2^q)) where ``irregular``;
    exact for |q| <= 5456721, on ints and bools or on int64 and bool arrays."""
    return (q * 661971961083 - irregular * 274743187321) >> 41


_K_MIN = _flog10(_Q_MIN + 1, True)
_K_MAX = _flog10(971, False)

_WORDS = WIDTH // 8  # a row as little-endian uint64 words
_DECPT_MIN, _DECPT_MAX = -323, 309  # a value is 0.d1d2... 10^decpt
_POSITIONAL = range(-3, 17)  # decimal point places printed without exponent
# a layout per positional decpt, and the scientific one below and above them
_LAYOUTS = range(_POSITIONAL.start - 1, _POSITIONAL.stop + 1)


class _Tables(NamedTuple):
    powers: np.ndarray    # (K, 5) uint64: g1, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32,
    #                       stored by column, so that .T takes whole rows
    shift: np.ndarray     # (K,) int64: floor(log2 10^-k) + 2
    exponent: np.ndarray  # (2, decpts) uint64: the exponent's text as a word
    #                       (0 if positional), and the first key of its layout
    layout: np.ndarray    # (16, len(_LAYOUTS) * MAX_DIGITS) uint64: _layouts()


def _layouts() -> np.ndarray:
    """The 16 words of each (decpt, nd), decpt in _LAYOUTS and nd from 1 to
    MAX_DIGITS, one column each, that place the digits d1 .. d_nd times
    10^(decpt - nd) in a row: the shift in bits of the row after the point;
    per row word, the masks of the rows before and after the point, and the
    point or "0.00" prefix; and per row word, the multiplier and the right
    shift that move the exponent's word, at most 5 bytes, to the end of the
    digits."""
    decpt = np.repeat(np.arange(_LAYOUTS.start, _LAYOUTS.stop), MAX_DIGITS)[:, None]
    nd = np.tile(np.arange(1, MAX_DIGITS + 1), len(_LAYOUTS))[:, None]
    scientific = (decpt < _POSITIONAL.start) | (decpt >= _POSITIONAL.stop)
    prefixed = ~scientific & (decpt <= 0)  # 0.000ddd: every digit after the point
    # d.ddde+XX, with no point if nd = 1; 0.000ddd; ddd.ddd, or ddd000.0
    point = np.select((scientific, prefixed), (2, 2 - decpt), 1 + decpt)
    end = np.select((scientific, prefixed), (1 + nd + (nd > 1), point + 1 + nd),
                    2 + np.maximum(nd, decpt + 1))
    byte = np.arange(WIDTH)
    # the point, or the prefix "0." + "0" * -decpt from byte 1 on
    punct = np.where(byte == np.where(prefixed, 2, point), ord("."),
                     ord("0") * (prefixed & (1 <= byte) & (byte <= point)))
    # per byte of a row: the masks before and after the point, and punct
    rows = np.stack((0xFF * (byte < np.where(prefixed, 1, point)),
                     0xFF * ((point < byte) & (byte < end)),
                     punct * (byte < end)), 1).astype(np.uint8)
    at = np.where(scientific, end, WIDTH) - 8 * np.arange(_WORDS)  # from each word's first byte
    below = (-8 < at) & (at < 0)
    # the shift of the row after the point, then per word the exponent's
    # multiplier and right shift
    shifts = np.concatenate((8 * np.where(prefixed, point, 1),
                             np.where((0 <= at) & (at < 8), 256 ** np.clip(at, 0, 7), below),
                             np.where(below, -8 * at, 0)), 1).astype(np.uint64)
    return np.concatenate((shifts[:, :1], rows.view("<u8").reshape(len(at), -1), shifts[:, 1:]),
                          1).T.copy()


def _powers() -> Tuple[np.ndarray, np.ndarray]:
    """``_Tables.powers`` and ``_Tables.shift``.

    g = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1, so 2^125 < g <= 2^126,
    split as g1 2^63 + g0.  With b the bit length of 10^|k|, floor(log2 10^-k)
    is b - 1 for k <= 0, and -b for k > 0, as 10^-k is no power of 2 then.
    """
    tens = list(itertools.accumulate(itertools.repeat(10, max(-_K_MIN, _K_MAX)),
                                     operator.mul, initial=1))
    bits = [p.bit_length() for p in tens]
    # 10^|k| for k from _K_MIN to 0, and for k from 1 to _K_MAX
    nonpositive, positive = slice(-_K_MIN, None, -1), slice(1, _K_MAX + 1)
    g = ([(p << 126 >> b) + 1 for p, b in zip(tens[nonpositive], bits[nonpositive])]
         + [(1 << 125 + b) // p + 1 for p, b in zip(tens[positive], bits[positive])])
    g1, g0 = np.array([v >> 63 for v in g], np.uint64), np.array([v & _M63 for v in g], np.uint64)
    return (np.stack((g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32)).T,
            np.array([b + 1 for b in bits[nonpositive]] + [2 - b for b in bits[positive]],
                     np.int64))


@functools.cache
def _tables() -> _Tables:
    """Built on first use, so importing the module costs nothing."""
    powers, shift = _powers()
    decpt = np.arange(_DECPT_MIN, _DECPT_MAX + 1)
    # b"e%+03d" % (decpt - 1) as a word: "e", the sign and two or three digits
    e = np.abs(decpt - 1)
    two = (48 + e // 10 % 10) | (48 + e % 10) << 8
    exponent = (ord("e") | np.where(decpt > 0, ord("+"), ord("-")) << 8
                | np.where(e < 100, two << 16, (48 + e // 100) << 16 | two << 24))
    exponent[(_POSITIONAL.start <= decpt) & (decpt < _POSITIONAL.stop)] = 0
    first_key = MAX_DIGITS * (np.clip(decpt, _LAYOUTS.start, _LAYOUTS[-1]) - _LAYOUTS.start)
    return _Tables(powers, shift, np.stack((exponent, first_key)).astype(np.uint64), _layouts())


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
    c = frac | (np.minimum(bq, 1) << 52)
    q = np.maximum(bq, 1).astype(np.int64) + (_Q_MIN - 1)
    # the lower neighbour is closer: at a power of two above the subnormals
    irregular = (frac == 0) & (bq > 1)
    k = _flog10(q, irregular)
    row = k - _K_MIN
    g = tables.powers.T.take(row, axis=1)
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
    # s if only s is in, t if only t is, else the nearer, and the even one on a tie
    pick_s = (uin > win) | ((uin == win) & ((vb < mid) | ((vb == mid) & ((s & 1) == 0))))
    # a multiple of 10 if only one of sp10 and sp10 + 10 is in
    pick_10 = upin != wpin
    return t - pick_s + pick_10 * (sp10 + wpin * np.uint64(10) - t + pick_s), k


_POW10 = np.array([10 ** i for i in range(MAX_DIGITS + 1)], np.uint64)


def cells(values: np.ndarray) -> np.ndarray:
    """uint8 array of shape values.shape + (WIDTH,): each value's repr bytes,
    NaN and infinity as repr's ``nan`` and ``inf``."""
    shape = np.shape(values)
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    text = np.empty((len(bits), WIDTH), np.uint8)
    for start in range(0, len(bits), BLOCK):
        _format(bits[start:start + BLOCK], text[start:start + BLOCK])
    return text.reshape(shape + (WIDTH,))


def _format(bits: np.ndarray, text: np.ndarray) -> None:
    """Write the repr bytes of the float64 bit patterns ``bits`` into the
    rows of ``text``, a C-contiguous uint8 array of shape (len(bits), WIDTH)."""
    tables = _tables()
    magnitude = bits & _M63
    special = ((magnitude & _EXP_BITS) == _EXP_BITS) | (magnitude == 0)
    has_special = special.any()
    if has_special:
        magnitude[special] = _ONE_BITS
    f, k = shortest_digits(magnitude)

    n = len(f)
    length = np.searchsorted(_POW10, f, side="right")
    f *= _POW10.take(MAX_DIGITS - length)  # MAX_DIGITS digits, the first nonzero
    first = f // 10 ** 16
    rest = f - first * 10 ** 16
    high = rest // 10 ** 8
    halves = np.stack((high, rest - high * 10 ** 8))  # digits 2-9 and 10-17
    # x // 10^4, y // 100 and z // 10 by a multiply and a shift, exact below
    # 2^32, 43699 and 179; x 2^32 - q (10^4 2^32 - 1) = q + (x - 10^4 q) 2^32
    # puts the quotient in the lower lane and the remainder in the upper
    quotient = (halves * 3518437209) >> 45
    halves = (halves << 32) - quotient * (10000 * 2**32 - 1)
    quotient = ((halves * 5243) >> 19) & 0x0000007F0000007F
    halves = (halves << 16) - quotient * (100 * 2**16 - 1)
    quotient = ((halves * 103) >> 10) & 0x000F000F000F000F
    halves = (halves << 8) - quotient * (10 * 2**8 - 1)
    # digits printed: up to the last nonzero one, the highest nonzero byte;
    # the float's rounding cannot reach the next power of 2, as bytes are <= 9
    top = np.frexp(halves[1] * 2.0**64 + halves[0])[1]
    digits = ((top + 7) >> 3).astype(np.uint64)  # nd - 1
    halves += 0x3030303030303030
    exponent, first_key = tables.exponent.take(length + k - _DECPT_MIN, axis=1)
    layout = tables.layout.take(first_key + digits, axis=1)
    # the row before the point: the sign, then the digits from byte 1 on
    before = np.empty((_WORDS, n), np.uint64)
    before[0] = ((bits >> 63) * 45) | ((first + 48) << 8) | (halves[0] << 16)
    before[1:] = halves >> 48
    before[1] |= halves[1] << 16
    shift = layout[0]  # and after it: the same, shifted right
    after = before << shift
    after[1:] |= before[:2] >> (64 - shift)
    words = ((before & layout[1:4]) | (after & layout[4:7]) | layout[7:10]
             | ((exponent * layout[10:13]) >> layout[13:16]))
    # little-endian on any host, so that byte i of a row is byte i of its text
    text.view("<u8")[...] = words.T

    if has_special:
        rows = np.flatnonzero(special)
        original = bits[rows] & _M63
        text[rows] = 0
        for word, where in ((b"0.0", original == 0),
                            (b"inf", original == _EXP_BITS),
                            (b"nan", original > _EXP_BITS)):
            text[rows[where], 1:1 + len(word)] = np.frombuffer(word, np.uint8)
        text[rows, 0] = _sign_bytes(bits[rows].view(np.float64))


def _sign_bytes(values: np.ndarray) -> np.ndarray:
    """The sign byte of each float64 value, as ``cells`` writes it."""
    return (np.signbit(values) & ~np.isnan(values)) * np.uint8(ord("-"))


def _column(col: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The text of col's rows from len(signs) on, zero-padded to one
    byte-string width, and the sign bytes of the mirrored rows before them."""
    if col.dtype != np.float64:
        return np.array([str(v) for v in col.tolist()], dtype=bytes), np.empty(0, np.uint8)
    n = len(col)
    magnitude = np.abs(col).view(np.uint64)  # abs clears the sign bit of NaN too
    mirrored = n // 2 if np.array_equal(magnitude[:n // 2], magnitude[::-1][:n // 2]) else 0
    return (cells(col[mirrored:]).view(f"S{WIDTH}")[:, 0],
            _sign_bytes(col[:mirrored]))


def row_chunks(columns: Sequence[np.ndarray], layout: Sequence) -> Iterator[bytes]:
    """The text of every row of ``columns``, in order, in chunks of up to
    CHUNK_ROWS rows, each row's parts as ``layout`` lists them."""
    texts = [_column(col) for col in columns]
    n = len(columns[0])
    widths = [texts[p][0].itemsize if isinstance(p, int) else len(p) for p in layout]
    mat = np.empty((min(CHUNK_ROWS, n), sum(widths)), np.uint8)
    parts, at = [], 0
    for p, width in zip(layout, widths):
        if isinstance(p, int):
            # each row's cell as one byte string: numpy copies those faster than bytes
            parts.append((*texts[p], at, mat[:, at:at + width].view(f"S{width}")[:, 0]))
        else:
            mat[:, at:at + width] = np.frombuffer(p, np.uint8)
        at += width
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        for text, signs, at, cell in parts:
            m = len(signs)  # row i < m is text row n-1-i-m with its own sign
            split = min(max(m, start), stop)
            cell[:split - start] = text[n - m - split:n - m - start][::-1]
            mat[:split - start, at] = signs[start:split]
            cell[split - start:stop - start] = text[split - m:stop - m]
        yield mat[:stop - start].tobytes().translate(None, b"\0")
