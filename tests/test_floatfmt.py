"""floatfmt.cells against repr(), value by value.

The kernel must print exactly what ``repr`` prints: the shortest digits
that round back, the nearer of two, the even one on an exact tie, and the
same notation, sign and exponent.  The tables are checked against Python
integers, and the per-value comparisons cover random bit patterns and the
cases where a shortcut would go wrong.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shallowdw import floatfmt

DBL_MAX = float(np.finfo(float).max)


def texts(values):
    """The text of each row of floatfmt.cells(values)."""
    mat = floatfmt.cells(np.asarray(values, dtype=float))
    assert mat.shape == np.shape(values) + (floatfmt.WIDTH,)
    rows = mat.reshape(-1, floatfmt.WIDTH)
    # "," ends each row's text; no text holds one
    rows = np.concatenate((rows, np.full((len(rows), 1), ord(","), np.uint8)), axis=1)
    return bytes(rows[rows != 0]).decode().split(",")[:-1]


def references(values):
    return [repr(v) for v in np.asarray(values, dtype=float).ravel().tolist()]


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def ties(count, seed=0):
    """Values exactly halfway between the two decimals of repr's length
    nearest to them, both of which round back to the value."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        value = float(np.ldexp(float(rng.integers(2**52, 2**53)), int(rng.integers(-60, 60))))
        shortest = Decimal(repr(value))
        quantum = Fraction(10) ** (shortest.adjusted() - len(shortest.as_tuple().digits) + 1)
        twice = 2 * Fraction(value) / quantum
        if twice.denominator == 1 and twice.numerator % 2:
            below = (twice.numerator // 2) * quantum
            if float(below) == value == float(below + quantum):
                found.append(value)
    return found


EDGES = {
    "zeros": [0.0, -0.0],
    "smallest subnormals": from_bits(np.arange(1, 200)),
    "largest subnormal and smallest normal": from_bits([2**52 - 1, 2**52, 2**52 + 1]),
    "extremes": [5e-324, -5e-324, DBL_MAX, -DBL_MAX, 2.2250738585072014e-308],
    # at a power of two the lower neighbour is half as far as the upper one
    "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)),
    "below powers of two": np.nextafter(np.ldexp(1.0, np.arange(-1073, 1024)), 0.0),
    "above powers of two": np.nextafter(np.ldexp(1.0, np.arange(-1074, 1023)), np.inf),
    # the switch between positional and scientific notation
    "around 1e16": 1e16 + np.arange(-40.0, 40.0, 2.0),
    "around 1e-4": from_bits(np.float64(1e-4).view(np.int64) + np.arange(-50, 50)),
    "powers of ten": 10.0 ** np.arange(-323, 309),
    "three-digit exponents": [1e100, 1.5e-100, 9.99e99, 1e-99, 1e-100],
    "exact ties": ties(40),
    "integers": [1.0, 10.0, 123456789.0, 2.0**53, 2.0**53 + 2, 1e15, 9007199254740993.0],
    "short decimals": [0.1, 0.2, 0.3, 1.5, 2.675, 1.005, 0.0001, 0.001, 123.456, 1e22, 1e23],
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_values_match_repr(name):
    values = np.asarray(EDGES[name], dtype=float)
    values = np.concatenate((values, -values))
    assert texts(values) == references(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
def test_floats_match_repr(values):
    assert texts(values) == references(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_bit_patterns_match_repr(patterns):
    # every NaN payload, either sign, prints as "nan"
    values = from_bits(patterns)
    assert texts(values) == references(values)


def test_random_bit_patterns_match_repr():
    values = from_bits(np.random.default_rng(7).integers(0, 2**64, 200_000, dtype=np.uint64))
    assert texts(values) == references(values)


def layout_case(text):
    """The layout of a finite, nonzero value's repr: positional with its
    point's place and digit count, or scientific with the exponent's sign,
    its digit count and the mantissa's."""
    text = text.lstrip("-")
    if "e" in text:
        mantissa, exponent = text.split("e")
        return ("scientific", exponent[0], len(exponent) - 1, len(mantissa.replace(".", "")))
    whole, fraction = text.split(".")
    decpt = len(whole) if whole != "0" else len(fraction.lstrip("0")) - len(fraction)
    return ("positional", decpt, len((whole + fraction).strip("0")))


LAYOUT_CASES = (
    [("positional", decpt, nd) for decpt in range(-3, 17) for nd in range(1, 18)]
    + [("scientific", sign, width, nd)
       for sign in "+-" for width in (2, 3) for nd in range(1, 18)])
# exponents of each sign and width, all of normal values
EXPONENTS = {("+", 2): (16, 99), ("+", 3): (100, 307), ("-", 2): (-99, -5), ("-", 3): (-300, -100)}


def layout_values(seed=0, attempts=200):
    """A value for each layout case, from decimal strings with the case's
    digit count: the first such string that repr gives back."""
    rng = np.random.default_rng(seed)
    found = {}
    for case in LAYOUT_CASES:
        nd = case[-1]
        for _ in range(attempts):
            digits = "".join(str(d) for d in rng.integers(0, 10, nd))
            digits = str(rng.integers(1, 10)) + digits[1:-1] + str(rng.integers(1, 10)) * (nd > 1)
            if case[0] == "positional":
                value = float(f"0.{digits}e{case[1]}")
            else:
                exponent = rng.integers(*EXPONENTS[case[1:3]], endpoint=True)
                value = float(f"{digits[0]}.{digits[1:] or 0}e{exponent}")
            if layout_case(repr(value)) == case:
                found[case] = value
                break
    return found


def test_every_layout_matches_repr():
    # positional for each point place and digit count, and scientific for
    # each digit count and exponent sign and width, of either sign: random
    # bit patterns are about 97% scientific
    found = layout_values()
    assert sorted(found, key=str) == sorted(LAYOUT_CASES, key=str)
    values = np.array(list(found.values()))
    values = np.concatenate((values, -values))
    assert texts(values) == references(values)


def test_non_finite_spellings_and_shape():
    values = np.array([[np.nan, -np.nan, np.inf], [-np.inf, 0.0, -0.0]])
    assert texts(values) == ["nan", "nan", "inf", "-inf", "0.0", "-0.0"]


def test_one_call_over_several_blocks_matches_repr():
    # the values on each side of every block edge, and the first and last,
    # are those with their own text
    block = floatfmt.BLOCK
    values = from_bits(np.random.default_rng(11).integers(0, 2**64, 3 * block,
                                                          dtype=np.uint64))
    edges = [0, block - 1, block, 2 * block - 1, 2 * block, 3 * block - 1]
    values[edges] = [np.nan, 0.0, -0.0, 5e-324, np.inf, -np.inf]
    assert texts(values) == references(values)
    # texts() checks the shape too: (k, m) values give (k, m, WIDTH) bytes
    assert texts(values.reshape(3, block)) == references(values)
    assert texts(values.reshape(block, 3)) == references(values)


def test_sign_byte_leads_every_row():
    values = np.array([1.5, -1.5, np.inf, -np.inf, np.nan, 0.0, -0.0, -1e-300])
    mat = floatfmt.cells(values)
    assert mat[:, 0].tolist() == [0, 45, 0, 45, 0, 0, 45, 45]


def test_power_of_ten_table_against_python_integers():
    # with f = floor(log2 10^-k): g - 1 = floor(10^-k 2^(125 - f)), in [2^125, 2^126)
    tables = floatfmt._tables()
    for row, k in enumerate(range(floatfmt._K_MIN, floatfmt._K_MAX + 1)):
        g1, g1h, g1l, g0h, g0l = (int(v) for v in tables.powers[row])
        assert (g1h << 32) + g1l == g1 and g0h < 2**31 and g0l < 2**32
        g = (g1 << 63) + (g0h << 32) + g0l
        flog2 = int(tables.shift[row]) - 2
        if k <= 0:
            assert 1 << flog2 <= 10**-k < 1 << (flog2 + 1)
            beta = 10**-k << (125 - flog2) if flog2 <= 125 else 10**-k >> (flog2 - 125)
        else:
            assert 1 << (-flog2 - 1) < 10**k <= 1 << -flog2
            beta = (1 << (125 - flog2)) // 10**k
        assert g - 1 == beta and 2**125 <= beta < 2**126


def reference_layout(decpt, nd):
    """The 16 layout words of (decpt, nd), one Python integer row at a time:
    the construction that floatfmt._tables once used."""
    width, words = floatfmt.WIDTH, floatfmt.WIDTH // 8

    def split(row):
        return [(row >> 64 * w) & (2**64 - 1) for w in range(words)]

    def span(start, stop):
        return (1 << 8 * stop) - (1 << 8 * start)

    exponent_at = width
    if decpt not in floatfmt._POSITIONAL:
        point, shift, prefix = 2, 1, b""
        end = exponent_at = 1 + nd + (nd > 1)
    elif decpt > 0:
        point, shift, prefix = 1 + decpt, 1, b""
        end = 2 + max(nd, decpt + 1)
    else:
        point, shift, prefix = 2 - decpt, 2 - decpt, b"0." + b"0" * -decpt
        end = point + 1 + nd
    punct = int.from_bytes(prefix, "little") << 8 if prefix else ord(".") << 8 * point
    multiplier, right = [], []
    for w in range(words):
        at = exponent_at - 8 * w
        multiplier.append(256**at if 0 <= at < 8 else int(-8 < at < 0))
        right.append(-8 * at if -8 < at < 0 else 0)
    return ([8 * shift] + split(span(0, 1 if prefix else point))
            + split(span(point + 1, max(point + 1, end))) + split(punct & span(0, end))
            + multiplier + right)


def reference_tables():
    """floatfmt._tables() as it was once built: a Python loop over every
    power of ten and every layout, then np.array of the lists."""
    g_rows, shifts = [], []
    for k in range(floatfmt._K_MIN, floatfmt._K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            flog2 = p.bit_length() - 1
            beta = p << (125 - flog2) if flog2 <= 125 else p >> (flog2 - 125)
        else:
            flog2 = -p.bit_length()
            beta = (1 << (125 - flog2)) // p
        g1, g0 = (beta + 1) >> 63, (beta + 1) & (2**63 - 1)
        g_rows.append((g1, g1 >> 32, g1 & (2**32 - 1), g0 >> 32, g0 & (2**32 - 1)))
        shifts.append(flog2 + 2)
    decpts = range(floatfmt._DECPT_MIN, floatfmt._DECPT_MAX + 1)
    layouts = floatfmt._LAYOUTS
    exponent = [0 if d in floatfmt._POSITIONAL else int.from_bytes(b"e%+03d" % (d - 1), "little")
                for d in decpts]
    first_key = [floatfmt.MAX_DIGITS * (min(max(d, layouts.start), layouts[-1]) - layouts.start)
                 for d in decpts]
    layout = [reference_layout(decpt, nd) for decpt in layouts
              for nd in range(1, floatfmt.MAX_DIGITS + 1)]
    return (np.array(g_rows, np.uint64, order="F"), np.array(shifts, np.int64),
            np.array([exponent, first_key], np.uint64), np.array(layout, np.uint64).T.copy())


def test_tables_equal_the_per_row_construction():
    # the same dtype, shape, values and memory order as a row-by-row build
    for built, reference in zip(floatfmt._tables.__wrapped__(), reference_tables()):
        assert built.dtype == reference.dtype and built.shape == reference.shape
        assert np.array_equal(built, reference)
        assert built.flags.c_contiguous == reference.flags.c_contiguous
        assert built.flags.f_contiguous == reference.flags.f_contiguous


def floor_log10(a, b):
    """floor(log10(a / b)) for positive integers a and b."""
    if a >= b:
        return len(str(a // b)) - 1
    j = len(str(b // a)) - 1
    while a * 10**j < b:
        j += 1
    return -j


def test_decimal_exponent_formulas():
    # on the int64 and bool arrays that shortest_digits passes, both branches
    qs = np.arange(-1074, 972, dtype=np.int64)
    regular = floatfmt._flog10(qs, np.zeros(len(qs), bool)).tolist()
    irregular = floatfmt._flog10(qs, np.ones(len(qs), bool)).tolist()
    for q, k, k_irregular in zip(qs.tolist(), regular, irregular):
        num, den = (2**q, 1) if q >= 0 else (1, 2**-q)
        assert k == floatfmt._flog10(q, False) == floor_log10(num, den), q
        assert k_irregular == floatfmt._flog10(q, True) == floor_log10(3 * num, 4 * den), q
    assert (floatfmt._K_MIN, floatfmt._K_MAX) == (-324, 292)
