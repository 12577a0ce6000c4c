"""Column-wise table emission against the per-value row emitter it replaced.

The reference below formats one value at a time (`repr(float(v))` for
floats, `str` otherwise) from row tuples.  The CLI formats each float64
column in one `floatfmt.cells` call, and a column whose magnitudes mirror
about its middle row from its x >= 0 half only, then writes the rows in
chunks; both must give the same bytes.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shallowdw import cli, dynamics, floatfmt, oracle, wells
from shallowdw.cli import main
from shallowdw.grids import Grid
from shallowdw.transform import (
    EPSILON_MAX,
    Partner,
    curvature_at_origin,
    separatrix_energy,
)


X_MAX, POINTS = 20.0, 401
SIGN_BIT = np.uint64(1 << 63)  # float64 sign, on a uint64 view


def ref_fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def ref_csv(header, rows, comments=(), footer=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(ref_fmt(v) for v in row))
    lines.extend(f"# {c}" for c in footer)
    return "\n".join(lines) + "\n"


def ref_columns_json(header, rows, fields) -> str:
    cols = {name: [] for name in header}
    for row in rows:
        for name, value in zip(header, row):
            cols[name].append(value.item() if isinstance(value, np.generic) else value)
    return json.dumps({**cols, **fields}) + "\n"


def reference(fmt, header, rows, comments=(), footer=(), fields=None) -> bytes:
    rows = list(rows)
    if fmt == "json":
        text = ref_columns_json(header, rows, fields or {})
    else:
        text = ref_csv(header, rows, comments, footer)
    return text.encode("utf-8")


def emitted(tmp_path, args, fmt) -> bytes:
    out = tmp_path / f"out.{fmt}"
    assert main([str(a) for a in args] + ["--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


GRID_ARGS = ["--x-max", X_MAX, "--points", POINTS]


@pytest.fixture(params=[("csv", 7), ("csv", floatfmt.CHUNK_ROWS), ("json", None)],
                ids=["csv-block7", "csv", "json"])
def fmt(request, monkeypatch):
    """Output format; CSV also with blocks that split the rows unevenly."""
    fmt, block_rows = request.param
    if block_rows is not None:
        monkeypatch.setattr(floatfmt, "CHUNK_ROWS", block_rows)
    return fmt


class TestTableBytes:
    def test_potential(self, tmp_path, fmt):
        grid = Grid(X_MAX, POINTS)
        rows = zip(grid.x, Partner(-1.6, grid).potential)
        assert (emitted(tmp_path, ["potential", "--epsilon", -1.6, *GRID_ARGS], fmt)
                == reference(fmt, ("x", "V"), rows))

    @pytest.mark.parametrize("eps", [-1.37, -2.2])
    def test_states(self, tmp_path, fmt, eps):
        grid = Grid(X_MAX, POINTS)
        partner = Partner(eps, grid)
        psi0, psi1 = partner.psi0, partner.psi1
        rows = zip(grid.x, partner.potential, psi0, psi1, psi0**2)
        assert (emitted(tmp_path, ["states", "--epsilon", eps, *GRID_ARGS], fmt)
                == reference(fmt, ("x", "V", "psi0", "psi1", "rho0"), rows))

    def test_sweep_with_int_column_and_nan_row(self, tmp_path, monkeypatch, fmt):
        eps_values = np.linspace(-2.6, -1.2, 4)
        failing = float(eps_values[1])
        real = wells.bound_levels

        def flaky(partner):
            if partner.epsilon == failing:
                raise oracle.ConvergenceFailure("forced")
            return real(partner)

        # the sweep's oracle solve
        monkeypatch.setattr(wells, "bound_levels", flaky)
        quantities = ["separatrix", "curvature", "gap", "maxima_count",
                      "e0_error", "e1_error"]
        grid = Grid(X_MAX, POINTS)
        rows = []
        for eps in map(float, eps_values):
            try:
                report = wells.bound_levels(Partner(eps, grid))
                rows.append((eps, separatrix_energy(eps), curvature_at_origin(eps),
                             abs(1.0 + eps), wells.classify(Partner(eps, grid)).density_maxima_count,
                             report.e0_error, report.e1_error))
            except oracle.ConvergenceFailure:
                rows.append((eps,) + (float("nan"),) * len(quantities))
        assert isinstance(rows[0][4], int)  # maxima_count stays an int

        got = emitted(tmp_path, ["sweep", "--eps-start", -2.6, "--eps-end", -1.2,
                                 "--steps", 4, "--quantities", ",".join(quantities),
                                 *GRID_ARGS], fmt)
        assert got == reference(fmt, ("epsilon", *quantities), rows)
        assert b"nan" in got or b"NaN" in got

    @pytest.mark.parametrize("eps", [-1.4, -2.5])
    def test_evolve_comments_and_footer(self, tmp_path, fmt, eps):
        grid = Grid(X_MAX, POINTS)
        series = dynamics.evolve_series(Partner(eps, grid), 10.0, 11)
        warning = None
        if eps == -2.5:
            warning = ("ground level at or above the central barrier; "
                       "no low-lying two-level regime")
        period = dynamics.analytic_period(eps)
        comments = [f"warning: {warning}"] if warning else []
        footer = [f"analytic_period={ref_fmt(period)}"]
        # JSON carries the same two facts under their own keys
        fields = {"warning": warning, "analytic_period": period}
        rows = zip(series.times, series.left_probability)
        got = emitted(tmp_path, ["evolve", "--epsilon", eps, "--t-max", 10.0,
                                 "--frames", 11, *GRID_ARGS], fmt)
        assert got == reference(fmt, ("t", "P_left"), rows, comments, footer, fields)


def test_stdout_matches_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(floatfmt, "CHUNK_ROWS", 7)
    args = ["states", "--epsilon", "-1.5", "--x-max", "20", "--points", "101"]
    assert main(args) == 0
    out = tmp_path / "states.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def emit(fmt, header, columns) -> bytes:
    if fmt == "json":
        return b"".join(cli._columns_json(header, columns))
    return b"".join(cli._csv(header, columns))


def even(half):
    """The even column whose centre row and the rows after it are half."""
    half = np.asarray(half, dtype=float)
    return np.concatenate((half[:0:-1], half))


def odd(half):
    """The odd column whose centre row and the rows after it are half."""
    half = np.asarray(half, dtype=float)
    return np.concatenate((-half[:0:-1], half))


def one_ulp_off(col, row):
    col = col.copy()
    col[row] = np.nextafter(col[row], np.inf)
    return col


# name -> (column, whether only its middle row and the rows after it are formatted)
EDGE_COLUMNS = {
    "even": (even([1.0, 0.1, -2.5e-300]), True),
    "odd": (odd([0.0, -0.1, 1e300]), True),
    "even-one-ulp-off": (one_ulp_off(even([1.0, 0.1, 3.0]), 0), False),
    "odd-one-ulp-off": (one_ulp_off(odd([0.0, 0.1, 3.0]), 4), False),
    # 0.0 == -(-0.0) bitwise: odd, and the text must keep the sign
    "mirrored-signed-zeros": (np.array([0.0, 1.0, -0.0]), True),
    # the same pair next to an even pair: neither even nor odd, but its
    # magnitudes mirror and each row writes its own sign
    "signed-zeros-in-even": (np.array([-0.0, 2.0, 1.0, 2.0, 0.0]), True),
    "negative-zero-centre": (odd([-0.0, 2.0, 3.0]), True),
    "inf-odd": (odd([0.0, 1.0, np.inf]), True),
    "inf-even": (even([1.0, -np.inf]), True),
    "nan-even": (even([np.nan, 1.0, np.nan]), True),
    # the NaN negated by odd() has its sign bit set, but its text no sign:
    # never "-nan"
    "nan-odd": (odd([0.0, 1.0, np.nan]), True),
    "length-1": (np.array([-0.0]), True),
    "length-3": (np.array([0.5, -2.0, 0.5]), True),
    "even-length": (np.array([1.0, 2.0, 2.0, 1.0]), True),
    "odd-even-length": (np.array([-1.0, -0.0, 0.0, 1.0]), True),
    "int": (np.array([3, 1, 3]), False),
    "object": (np.array([1.5, 2, float("nan"), 2, 1.5], dtype=object), False),
}


class TestEdgeColumns:
    @pytest.mark.parametrize("name", EDGE_COLUMNS)
    def test_formats_half_only_when_mirrored(self, name, monkeypatch):
        col, mirrored = EDGE_COLUMNS[name]
        handed = []
        real = floatfmt.cells

        def counting(values, *args):
            handed.append(len(values))
            return real(values, *args)

        monkeypatch.setattr(floatfmt, "cells", counting)
        monkeypatch.setattr(floatfmt, "CHUNK_ROWS", 1)  # a chunk per row
        # kernel blocks that end inside the half, and at the centre row
        for kernel_block, fmt in itertools.product((1, 3), ("csv", "json")):
            monkeypatch.setattr(floatfmt, "BLOCK", kernel_block)
            handed.clear()
            assert emit(fmt, ("c",), (col,)) == reference(fmt, ("c",), zip(col))
            n = len(col)
            # only float64 columns reach the kernel, in one call each
            expected = [n - n // 2 if mirrored else n] if col.dtype == np.float64 else []
            assert handed == expected

    @pytest.mark.parametrize("name", EDGE_COLUMNS)
    def test_table_bytes(self, fmt, name):
        col = EDGE_COLUMNS[name][0]
        columns = (np.arange(len(col)), col)
        got = emit(fmt, ("i", "c"), columns)
        assert got == reference(fmt, ("i", "c"), zip(*columns))
        assert b"-nan" not in got.lower()

    def test_json_spells_non_finite_values(self):
        text = emit("json", ("a", "b"), (odd([0.0, np.inf]), even([np.nan, 1.0])))
        assert text == b'{"a": [-Infinity, 0.0, Infinity], "b": [1.0, NaN, 1.0]}\n'

    @pytest.mark.parametrize("column", [
        np.array([1.5, np.nan, np.inf, -np.inf, -0.0]),
        # a sweep column: object dtype, ints beside the NaN of a failed row
        np.array([(-2.5, 2), (-2.0, np.nan), (-1.75, np.inf), (-1.5, -np.inf), (-1.25, 1)],
                 dtype=object).T[1],
    ], ids=["float", "sweep-object"])
    def test_json_non_finite_values_match_the_encoder(self, column):
        # the finite column beside it takes the path in cli._columns_json
        # that skips the replacing: none of its chunks holds an "n"
        finite = np.linspace(-1.0, 1.0, len(column))
        text = emit("json", ("c", "finite"), (column, finite))
        expected = json.dumps({"c": column.tolist(), "finite": finite.tolist()}) + "\n"
        assert text == expected.encode()

    def test_chunks_outlive_the_row_buffer(self, monkeypatch):
        # every chunk is held until the last one is built: a chunk that
        # shared memory with the row buffer reused for each would change
        monkeypatch.setattr(floatfmt, "CHUNK_ROWS", 7)
        grid = Grid(X_MAX, POINTS)
        partner = Partner(-1.37, grid)
        header = ("x", "V", "psi0", "psi1", "rho0")
        columns = (grid.x, partner.potential, partner.psi0, partner.psi1, partner.psi0**2)
        for fmt, chunks in (("csv", cli._csv(header, columns)),
                            ("json", cli._columns_json(header, columns))):
            chunks = list(chunks)
            assert len(chunks) > POINTS // 7
            assert b"".join(chunks) == reference(fmt, header, zip(*columns))

    def test_block_boundary_on_the_centre_row(self, fmt):
        # the centre row opens the second block
        half = np.linspace(0.0, 3.0, floatfmt.CHUNK_ROWS + 1)
        columns = (odd(half), even(np.exp(-half)), odd(np.sin(half)))
        assert (emit(fmt, ("x", "e", "o"), columns)
                == reference(fmt, ("x", "e", "o"), zip(*columns)))


# 0, the smallest and largest subnormals, inf and NaN, and any other float
MAGNITUDES = st.one_of(st.sampled_from([0.0, 5e-324, 2.225073858507201e-308, np.inf, np.nan]),
                       st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.lists(MAGNITUDES, min_size=n - n // 2, max_size=n - n // 2),
    st.lists(st.booleans(), min_size=n, max_size=n))),
    st.sampled_from([1, 3]))
@example(([1.0, np.nan], [True, False, True]), 1)  # an odd column with a NaN
@example(([0.0, 2.0], [True, False, False]), 3)    # signed zeros beside an even row
def test_mirrored_magnitudes_format_half_with_each_row_sign(halves, kernel_block):
    # any sign on any row: only the magnitudes have to mirror
    half, negative = halves
    n = len(negative)
    right = np.abs(np.array(half, dtype=float))
    magnitude = np.concatenate((right[n % 2:][::-1], right))
    col = np.copysign(magnitude, np.where(negative, -1.0, 1.0))
    handed = []
    real = floatfmt.cells
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floatfmt, "cells", lambda values: handed.append(len(values)) or real(values))
        mp.setattr(floatfmt, "CHUNK_ROWS", 3)
        mp.setattr(floatfmt, "BLOCK", kernel_block)
        for fmt in ("csv", "json"):
            handed.clear()
            got = emit(fmt, ("c",), (col,))
            assert got == reference(fmt, ("c",), zip(col))
            assert handed == [n - n // 2]
            assert b"-nan" not in got.lower()


def grid_for(eps, width, extra):
    """Odd grid that holds both states of eps, plus 2 * extra nodes.

    As eps -> -1 the wells move out to |x| ~ -ln(-1 - eps) / 2, so the
    half-width grows by -ln(-1 - eps) beyond width.
    """
    x_max = width + max(0.0, -np.log(-1.0 - eps))
    scale = max(1.0, np.sqrt(-eps))
    return Grid(x_max, 2 * int(np.ceil(x_max * scale / 0.45)) + 1 + 2 * extra)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.floats(-3.0, EPSILON_MAX, exclude_min=True),
                 st.sampled_from([-50.0, -1e4])),
       st.floats(20.0, 40.0), st.integers(0, 1000))
@example(eps=-2.2, width=20.0, extra=31934)  # Grid(20.0, 64001), as in the bytes test
def test_emitted_columns_are_bitwise_even_or_odd(eps, width, extra):
    # the emission formats these columns from x >= 0 only; if a change to
    # the closed forms broke the mirror of their magnitudes the bytes would
    # stay right but that saving would go
    grid = grid_for(eps, width, extra)
    partner = Partner(eps, grid)
    psi0 = partner.psi0
    c = grid.center_index
    for col, parity in ((grid.x, "odd"), (partner.potential, "even"), (psi0, "even"),
                        (partner.psi1, "odd"), (psi0**2, "even")):
        bits = col.view(np.uint64)
        before, after = bits[:c], bits[:c:-1]
        if parity == "odd":
            after = after ^ SIGN_BIT
        assert np.array_equal(before, after), parity


LARGE_GRID_CASES = [
    ("states", ("x", "V", "psi0", "psi1", "rho0"), "csv"),
    ("potential", ("x", "V"), "json"),
    ("states", ("x", "V", "psi0", "psi1", "rho0"), "json"),
]


def assert_bytes_at(tmp_path, n, command, header, fmt):
    grid = Grid(X_MAX, n)
    partner = Partner(-2.2, grid)
    psi0 = partner.psi0
    columns = (grid.x, partner.potential, psi0, partner.psi1, psi0**2)
    got = emitted(tmp_path, [command, "--epsilon", -2.2, "--x-max", X_MAX,
                             "--points", n], fmt)
    assert got == reference(fmt, header, zip(*columns[:len(header)]))


@pytest.mark.parametrize("command, header, fmt", LARGE_GRID_CASES)
def test_bytes_at_16001_points(tmp_path, command, header, fmt):
    assert_bytes_at(tmp_path, 16001, command, header, fmt)


@pytest.mark.parametrize("command, header, fmt", LARGE_GRID_CASES)
def test_bytes_at_64001_points(tmp_path, command, header, fmt):
    # the grid of the export benchmark
    assert_bytes_at(tmp_path, 64001, command, header, fmt)
