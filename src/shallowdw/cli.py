"""Command-line interface: reproducible CSV/JSON emission for the well family.

Subcommands
    potential   sample the partner potential            -> x,V
    states      potential plus both bound states        -> x,V,psi0,psi1,rho0
    verify      analytic spectrum vs eigensolver        -> JSON report
    classify    interval taxonomy one-liner             -> text or JSON
    evolve      left-well probability vs time           -> t,P_left
    sweep       closed-form/oracle quantities over eps  -> one row per eps

Commands parse arguments and emit; verdicts come from ``wells``: ``verify``,
``classify`` and ``two_level_warning``, and a failing verify names each
failed check on stderr.
A command, or a sweep row, builds one ``transform.Partner`` and hands it to
the library, so the seed is evaluated once.  ``main`` parses with the first
token's command parser alone, the same as the tree's subparser for it; only
an argv that ends in top-level help or an error builds the whole tree.
The module imports only ``grids`` and ``transform``, which every command
uses; a command imports ``wells``, ``dynamics`` and the table writer's
``floatfmt`` when it runs them, and ``wells`` imports ``oracle`` only to
solve, so ``potential`` never loads the solver.  ``EXIT_CODES`` names the
solve's two failures by their classes in ``grids``.

All numbers are written with the shortest round-trip decimal representation,
their repr, so repeated runs are byte-identical and every emitted file parses
back losslessly; ``floatfmt`` writes the rows.  Exit codes: 0 ok, 1
verification failed, and for each error the code of its first row in
``EXIT_CODES``, so an eps outside the family (at either end of a sweep
range too) and a request too large to allocate are 2.  A sweep whose every
row fails exits with the highest code of its rows.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import os
import sys
from dataclasses import asdict, fields
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .grids import (BoundStateCountMismatch, ConvergenceFailure, Grid, GridTooCoarse,
                    GridTooNarrow, linspace)
from .transform import (InvalidEpsilon, Partner, _epsilon, curvature_at_origin,
                        separatrix_energy)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_ARGS = 2
EXIT_GRID = 3
EXIT_SOLVER = 4

# exception -> exit code, first match wins: the grid errors are ValueErrors.
# every eps < -1 has two bound states, so a count mismatch means the grid
# cannot hold them.
EXIT_CODES = (
    (GridTooNarrow, EXIT_GRID),
    (GridTooCoarse, EXIT_GRID),
    (BoundStateCountMismatch, EXIT_GRID),
    (ConvergenceFailure, EXIT_SOLVER),
    (ValueError, EXIT_BAD_ARGS),
    (OSError, EXIT_BAD_ARGS),
    (MemoryError, EXIT_BAD_ARGS),
)
# what fails one sweep row but not the whole sweep
ROW_FAILURES = tuple(cls for cls, code in EXIT_CODES if code in (EXIT_GRID, EXIT_SOLVER))


def _maxima_count(partner: Partner) -> int:
    from . import wells
    return wells.classify(partner).density_maxima_count


# sweep column -> value(partner, levels); levels() is the cached energies-only solve
SWEEP_QUANTITIES = {
    "separatrix": lambda partner, levels: separatrix_energy(partner.epsilon),
    "curvature": lambda partner, levels: curvature_at_origin(partner.epsilon),
    "gap": lambda partner, levels: abs(1.0 + partner.epsilon),
    "maxima_count": lambda partner, levels: _maxima_count(partner),
    "e0_error": lambda partner, levels: levels().e0_error,
    "e1_error": lambda partner, levels: levels().e1_error,
}

# wells.WellKind name -> classify's text verdict
CLASSIFY_VERDICTS = {
    "DOUBLE_WELL_GROUND_BELOW_SEPARATRIX": "double well; ground BELOW separatrix",
    "DOUBLE_WELL_GROUND_ABOVE_SEPARATRIX": "double well; ground ABOVE separatrix",
    "BOUNDARY": "boundary case",
    "SINGLE_WELL": "not a double well",
}


def _exit_code(exc: Exception) -> int:
    return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


def _write(*outputs: Tuple[Optional[str], Iterable[bytes]]) -> None:
    """Each (path, chunks) pair's bytes to its path, or to stdout if the path
    is None or "-", in order.  Every file is opened before any is written; if
    one cannot be opened, each file made by the opens before it is removed."""
    paths = [path for path, _ in outputs if path is not None and path != "-"]
    made = [path for path in paths if not os.path.lexists(path)]
    with contextlib.ExitStack() as stack:
        try:
            files = {path: stack.enter_context(open(path, "wb")) for path in paths}
        except OSError:
            stack.close()
            for path in filter(os.path.lexists, made):
                os.remove(path)
            raise
        for path, chunks in outputs:
            if path in files:
                files[path].writelines(chunks)
            else:
                sys.stdout.writelines(chunk.decode() for chunk in chunks)


def _csv(header: Sequence[str], columns: Sequence[np.ndarray],
         comments: Sequence[str] = (), footer: Sequence[str] = ()) -> Iterator[bytes]:
    """CSV bytes, the rows in the chunks of ``floatfmt.row_chunks``."""
    from . import floatfmt

    yield ("".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n").encode()
    layout = [part for j in range(len(columns)) for part in (j, b",")]
    layout[-1] = b"\n"
    yield from floatfmt.row_chunks(columns, layout)
    yield "".join(f"# {c}\n" for c in footer).encode()


def _columns_json(header: Sequence[str], columns: Sequence[np.ndarray],
                  fields: Optional[Dict[str, object]] = None) -> Iterator[bytes]:
    """json.dumps({name: col.tolist(), ..., **fields}) + "\\n", byte for byte,
    a column's values in the chunks of ``floatfmt.row_chunks``.

    A column's values are its CSV text but for the non-finite floats, which
    JSON spells NaN, Infinity and -Infinity, not nan, inf and -inf.  Only a
    chunk with an "n" holds one: no finite float's text and no int has one.
    """
    from . import floatfmt

    opener = "{"
    for name, col in zip(header, columns):
        yield f"{opener}{json.dumps(name)}: [".encode()
        for i, chunk in enumerate(floatfmt.row_chunks((col,), (b", ", 0))):
            if b"n" in chunk:
                chunk = chunk.replace(b"nan", b"NaN").replace(b"inf", b"Infinity")
            yield chunk if i else chunk[2:]  # no ", " before the first value
        opener = "], "
    items = "".join(f", {json.dumps(name)}: {json.dumps(value)}"
                    for name, value in (fields or {}).items())
    yield ("]" + items + "}\n").encode()


def _emit_table(args, header, columns, comments=(), footer=(), fields=None,
                svg=None) -> None:
    """CSV with ``comments`` above the header and ``footer`` below the rows,
    or JSON with the columns followed by each of ``fields`` under its key;
    and the text ``svg``, if given, to ``args.svg`` first."""
    table = (_columns_json(header, columns, fields) if args.format == "json"
             else _csv(header, columns, comments, footer))
    plot = [(args.svg, [svg.encode()])] if svg else []
    _write(*plot, (args.out, table))


def _svg(xs: np.ndarray, ys: np.ndarray) -> str:
    """Minimal 800x600 polyline rendering with autoscaled axes."""
    width, height, margin = 800, 600, 40
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    px = margin + (xs - x0) / xspan * (width - 2 * margin)
    py = height - margin - (ys - y0) / yspan * (height - 2 * margin)
    pts = [f"{a:.2f},{b:.2f}" for a, b in zip(px.tolist(), py.tolist())]
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="1" '
        f'points="{" ".join(pts)}"/>\n</svg>\n'
    )


def _load_config(path: str) -> Dict[str, str]:
    """key=value config file; '#' comments; dashes and underscores equivalent."""
    config: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.strip()!r}")
            key, value = line.split("=", 1)
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def cmd_potential(args) -> int:
    partner = Partner(args.epsilon, Grid(args.x_max, args.points))
    x, v = partner.grid.x, partner.potential
    del partner  # its seed arrays need not live through the emission
    _emit_table(args, ("x", "V"), (x, v), svg=args.svg and _svg(x, v))
    return EXIT_OK


def cmd_states(args) -> int:
    partner = Partner(args.epsilon, Grid(args.x_max, args.points))
    x, v, psi0, psi1 = partner.grid.x, partner.potential, partner.psi0, partner.psi1
    del partner  # its seed arrays need not live through the emission
    _emit_table(args, ("x", "V", "psi0", "psi1", "rho0"), (x, v, psi0, psi1, psi0**2))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import wells

    report = wells.verify(Partner(args.epsilon, Grid(args.x_max, args.points)))
    failed = [check for check in report.checks if not check.passed]
    payload = {f.name: getattr(report, f.name) for f in fields(report)} | {"passed": not failed}
    text = json.dumps(payload, separators=(",\n  ", ": "))  # indent=2's bytes, C encoder
    _write((args.out, [("{\n  " + text[1:-1] + "\n}\n").encode()]))
    for check in failed:
        print(f"check failed: {check.name}={check.value!r}, "
              f"tolerance {check.tolerance!r}", file=sys.stderr)
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_classify(args) -> int:
    from . import wells

    partner = Partner(args.epsilon, Grid(args.x_max, args.points))
    result = wells.classify(partner)
    if args.format == "json":
        line = json.dumps({**asdict(result), "kind": result.kind.value}) + "\n"
    else:
        line = (f"{CLASSIFY_VERDICTS[result.kind.name]}; s={result.separatrix:.6g}; "
                f"curvature={result.curvature_origin:.6g}; "
                f"maxima={result.density_maxima_count}\n")
    _write((args.out, [line.encode()]))
    return EXIT_OK


def cmd_evolve(args) -> int:
    from . import dynamics, wells

    partner = Partner(args.epsilon, Grid(args.x_max, args.points))
    period = dynamics.analytic_period(partner.epsilon)
    t_max = 2.0 * period if args.t_max is None else args.t_max
    series = dynamics.evolve_series(partner, t_max, args.frames)
    warning = wells.two_level_warning(partner.epsilon)
    columns = (series.times, series.left_probability)
    _emit_table(args, ("t", "P_left"), columns,
                comments=[f"warning: {warning}"] if warning else [],
                footer=[f"analytic_period={period!r}"],
                fields={"warning": warning, "analytic_period": period},
                svg=args.svg and _svg(*columns))
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import wells

    if args.eps_start is None or args.eps_end is None or args.steps is None or args.steps < 1:
        raise ValueError("sweep requires --eps-start, --eps-end and --steps >= 1")
    if not _epsilon(args.eps_start) < _epsilon(args.eps_end):
        raise ValueError("sweep range must satisfy eps_start < eps_end")
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    bad = [q for q in quantities if q not in SWEEP_QUANTITIES]
    if bad or not quantities:
        raise ValueError(f"unknown sweep quantities: {', '.join(bad) or '(none given)'}; "
                         f"choose from {', '.join(SWEEP_QUANTITIES)}")
    # a repeated column would repeat a JSON key, and json.loads keeps only the last
    repeated = [q for q in dict.fromkeys(quantities) if quantities.count(q) > 1]
    if repeated:
        raise ValueError(f"sweep quantities named more than once: {', '.join(repeated)}")

    grid = Grid(args.x_max, args.points)
    eps_values = linspace(args.eps_start, args.eps_end, args.steps)
    rows = []
    codes = []
    for eps in eps_values:
        try:
            partner = Partner(eps, grid)
            levels = functools.cache(lambda: wells.bound_levels(partner))
            rows.append((float(eps), *(SWEEP_QUANTITIES[q](partner, levels)
                                       for q in quantities)))
        except ROW_FAILURES as exc:
            print(f"warning: eps={eps}: {exc}", file=sys.stderr)
            rows.append((float(eps),) + (float("nan"),) * len(quantities))
            codes.append(_exit_code(exc))
    # object dtype keeps maxima_count's ints as ints next to NaN rows
    _emit_table(args, ("epsilon", *quantities), np.array(rows, dtype=object).T)
    # every row failed: a solver failure outranks a grid error
    return EXIT_OK if len(codes) < len(eps_values) else max(codes)


# subcommand -> (help, function, options in help order after -h); sweep has no --epsilon
SHARED_OPTIONS = ("--epsilon", "--x-max", "--points", "--out", "--format", "--config")
COMMANDS = {
    "potential": ("emit x,V samples", cmd_potential, (*SHARED_OPTIONS, "--svg")),
    "states": ("emit x,V,psi0,psi1,rho0 samples", cmd_states, SHARED_OPTIONS),
    "verify": ("JSON spectrum-verification report", cmd_verify, SHARED_OPTIONS),
    "classify": ("interval taxonomy verdict", cmd_classify, SHARED_OPTIONS),
    "evolve": ("left-well probability time series", cmd_evolve,
               (*SHARED_OPTIONS, "--t-max", "--frames", "--svg")),
    "sweep": ("tabulate quantities over an eps range", cmd_sweep,
              (*SHARED_OPTIONS[1:], "--eps-start", "--eps-end", "--steps", "--quantities")),
}


def _add_command(parser, name, config) -> argparse.ArgumentParser:
    """``name``'s function and options, each declared once by its add_argument keywords."""
    # config values become string defaults; argparse applies an option's type
    # to one only when its flag is absent, so flag beats file beats built-in
    config = config or {}
    grid = Grid.default()
    options = {
        "--epsilon": dict(type=float, default=config.get("epsilon"),
                          help="factorization energy (must be < -1)"),
        "--x-max": dict(type=float, default=config.get("x_max", grid.x_max),
                        help=f"half-width of the symmetric grid (default {grid.x_max:g})"),
        "--points": dict(type=int, default=config.get("points", grid.n_points),
                         help=f"odd number of grid nodes (default {grid.n_points})"),
        "--out": dict(help="output path ('-' = stdout)"),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--config": dict(help="key=value config file; flags take precedence"),
        "--svg": dict(help="also write an SVG polyline"),
        "--t-max": dict(type=float, default=config.get("t_max"),
                        help="final time (default: two oscillation periods)"),
        "--frames": dict(type=int, default=config.get("frames", 201),
                         help="number of uniform time samples (default 201)"),
        "--eps-start": dict(type=float, default=config.get("eps_start")),
        "--eps-end": dict(type=float, default=config.get("eps_end")),
        "--steps": dict(type=int, default=config.get("steps")),
        "--quantities": dict(default=config.get("quantities", "separatrix,curvature,gap"),
                             help=f"comma-separated subset of {','.join(SWEEP_QUANTITIES)}"),
    }
    for flag in COMMANDS[name][2]:
        parser.add_argument(flag, **options[flag])
    parser.set_defaults(func=COMMANDS[name][1])
    return parser


def build_parser(config: Optional[Dict[str, str]] = None) -> argparse.ArgumentParser:
    """The whole tree of parsers, for an argv that no one command's parser takes whole."""
    parser = argparse.ArgumentParser(prog="shallowdw", description=(
        "Exactly soluble shallow double wells: closed-form states, "
        "eigensolver verification, classification and dynamics."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=summary), name, config)
    return parser


def _parse(argv: List[str], config: Optional[Dict[str, str]] = None) -> argparse.Namespace:
    """By the first token's command parser if it takes every later token, else by the tree."""
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"shallowdw {argv[0]}")
        args, rest = _add_command(parser, argv[0], config).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser(config).parse_args(argv)


def _is_negative_number(token: str) -> bool:
    try:
        return float(token) < 0.0
    except ValueError:
        return False


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """Join '--flag -1e6' into '--flag=-1e6'.

    argparse reads '-1e6' or '-inf' as an option string (only forms like
    '-2' and '-1.5' look numeric to it), which leaves the flag before it
    without a value.  Every long option but --help takes one value.
    """
    out: List[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and "=" not in flag
                and not "--help".startswith(flag) and _is_negative_number(token)):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


@functools.cache
def _hold_heap() -> None:
    """Keep freed heap pages in the process on glibc; elsewhere a no-op.

    A 16001-node float64 array is 128,008 bytes, just under glibc's initial
    128 KiB mmap threshold, so the solver's whole-grid temporaries live on
    the heap.  Freed at its top, they let glibc trim it, and the next solve
    step faults the pages back in.  Counted with ``ru_minflt`` around
    ``main``, a 5-row ``sweep`` at n = 16001 takes about 1,500 minor page
    faults per call without the hold, and about 400 on the first call with
    it, under 20 after.  Set once per process, by ``main`` alone, so the
    library leaves its host's heap alone.  Output bytes do not depend on it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no libc handle, or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's own 64-bit ceiling
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, twice it; either alone ends glibc's dynamic rule


def main(argv: Optional[Sequence[str]] = None) -> int:
    _hold_heap()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    try:
        if args.config is not None:
            # parsed again only now, so a usage error comes before a config error
            args = _parse(argv, _load_config(args.config))
        if getattr(args, "epsilon", 0.0) is None:  # sweep has no --epsilon
            raise InvalidEpsilon("--epsilon is required (eps < -1)")
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
