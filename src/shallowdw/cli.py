"""Command-line interface: reproducible CSV/JSON emission for the well family.

Subcommands
    potential   sample the partner potential            -> x,V
    states      potential plus both bound states        -> x,V,psi0,psi1,rho0
    verify      analytic spectrum vs eigensolver        -> JSON report
    classify    interval taxonomy one-liner             -> text or JSON
    evolve      left-well probability vs time           -> t,P_left
    sweep       closed-form/oracle quantities over eps  -> one row per eps

Commands parse arguments and emit; verdicts come from ``oracle.verify`` and
``wells.classify``, and a failing verify names each failed check on stderr.
A command, or a sweep row, builds one ``transform.Partner`` and hands it to
the library, so the seed is evaluated once.

All numbers are written with the shortest round-trip decimal representation,
so repeated runs are byte-identical and every emitted file parses back
losslessly.  Exit codes: 0 ok, 1 verification failed, and for each error
the code of its first row in ``EXIT_CODES``.  A sweep whose every row fails
exits with the highest code of its rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from . import dynamics, oracle, wells
from .grids import Grid, GridTooCoarse, GridTooNarrow
from .transform import (EPSILON_MAX, InvalidEpsilon, Partner, curvature_at_origin,
                        separatrix_energy)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_ARGS = 2
EXIT_GRID = 3
EXIT_SOLVER = 4

# exception -> exit code, first match wins: the grid errors are ValueErrors.
# -3 < eps < -1 always has two bound states, so a count mismatch means the
# grid cannot hold them.
EXIT_CODES = (
    (GridTooNarrow, EXIT_GRID),
    (GridTooCoarse, EXIT_GRID),
    (oracle.BoundStateCountMismatch, EXIT_GRID),
    (oracle.ConvergenceFailure, EXIT_SOLVER),
    (ValueError, EXIT_BAD_ARGS),
    (OSError, EXIT_BAD_ARGS),
)
# what fails one sweep row but not the whole sweep
ROW_FAILURES = tuple(cls for cls, code in EXIT_CODES if code in (EXIT_GRID, EXIT_SOLVER))

CSV_BLOCK_ROWS = 4096  # rows per written CSV chunk; bounds the text held at once

# sweep column -> value(partner, report); report() is the cached oracle run
SWEEP_QUANTITIES = {
    "separatrix": lambda partner, report: separatrix_energy(partner.epsilon),
    "curvature": lambda partner, report: curvature_at_origin(partner.epsilon),
    "gap": lambda partner, report: abs(1.0 + partner.epsilon),
    "maxima_count": lambda partner, report: wells.classify(partner).density_maxima_count,
    "e0_error": lambda partner, report: report().e0_error,
    "e1_error": lambda partner, report: report().e1_error,
}

CLASSIFY_VERDICTS = {
    wells.WellKind.DOUBLE_WELL_GROUND_BELOW_SEPARATRIX: "double well; ground BELOW separatrix",
    wells.WellKind.DOUBLE_WELL_GROUND_ABOVE_SEPARATRIX: "double well; ground ABOVE separatrix",
    wells.WellKind.BOUNDARY: "boundary case",
    wells.WellKind.SINGLE_WELL: "not a double well",
}


def _exit_code(exc: Exception) -> int:
    return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


def _write_text(path: Optional[str], chunks: Iterable[str]) -> None:
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _csv(header: Sequence[str], columns: Sequence[np.ndarray],
         comments: Sequence[str] = (), footer: Sequence[str] = ()) -> Iterator[str]:
    """CSV text in chunks of CSV_BLOCK_ROWS rows.

    .tolist() yields Python scalars, whose str() is the shortest round-trip
    repr for floats and plain digits for ints.
    """
    yield "".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = [map(str, col[start:start + CSV_BLOCK_ROWS].tolist()) for col in columns]
        yield "\n".join(map(",".join, zip(*block))) + "\n"
    yield "".join(f"# {c}\n" for c in footer)


def _columns_json(header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    return json.dumps({name: col.tolist() for name, col in zip(header, columns)}) + "\n"


def _emit_table(args, header, columns, comments=(), footer=()) -> None:
    if args.format == "json":
        _write_text(args.out, [_columns_json(header, columns)])
    else:
        _write_text(args.out, _csv(header, columns, comments, footer))


def _write_svg(path: str, xs: np.ndarray, ys: np.ndarray) -> None:
    """Minimal 800x600 polyline rendering with autoscaled axes."""
    width, height, margin = 800, 600, 40
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = margin + (x - x0) / xspan * (width - 2 * margin)
        py = height - margin - (y - y0) / yspan * (height - 2 * margin)
        pts.append(f"{px:.2f},{py:.2f}")
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="1" '
        f'points="{" ".join(pts)}"/>\n</svg>\n'
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)


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
    _emit_table(args, ("x", "V"), (x, v))
    if args.svg:
        _write_svg(args.svg, x, v)
    return EXIT_OK


def cmd_states(args) -> int:
    partner = Partner(args.epsilon, Grid(args.x_max, args.points))
    x, v, psi0, psi1 = (partner.grid.x, partner.potential,
                        partner.psi0.samples, partner.psi1.samples)
    del partner  # its seed arrays need not live through the emission
    _emit_table(args, ("x", "V", "psi0", "psi1", "rho0"), (x, v, psi0, psi1, psi0**2))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = oracle.verify(Partner(args.epsilon, Grid(args.x_max, args.points)))
    payload = {**asdict(report), "passed": report.passed}
    _write_text(args.out, [json.dumps(payload, indent=2) + "\n"])
    for check in report.checks:
        if not check.passed:
            print(f"check failed: {check.name}={check.value!r}, "
                  f"tolerance {check.tolerance!r}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_classify(args) -> int:
    partner = Partner(args.epsilon, Grid(args.x_max, args.points))
    result = wells.classify(partner)
    if args.format == "json":
        payload = {**asdict(result), "kind": result.kind.value}
        _write_text(args.out, [json.dumps(payload) + "\n"])
        return EXIT_OK
    line = (
        f"{CLASSIFY_VERDICTS[result.kind]}; s={result.separatrix:.6g}; "
        f"curvature={result.curvature_origin:.6g}; "
        f"maxima={result.density_maxima_count}\n"
    )
    _write_text(args.out, [line])
    return EXIT_OK


def cmd_evolve(args) -> int:
    partner = Partner(args.epsilon, Grid(args.x_max, args.points))
    eps = partner.epsilon
    t_max = 2.0 * dynamics.analytic_period(eps) if args.t_max is None else args.t_max
    series = dynamics.evolve_series(partner, t_max, args.frames)
    comments = []
    if separatrix_energy(eps) <= eps:
        comments.append(
            "warning: ground level at or above the central barrier; "
            "no low-lying two-level regime"
        )
    footer = [f"analytic_period={float(series.analytic_period)!r}"]
    _emit_table(args, ("t", "P_left"), (series.times, series.left_probability),
                comments=comments, footer=footer)
    if args.svg:
        _write_svg(args.svg, series.times, series.left_probability)
    return EXIT_OK


def _sweep_row(partner: Partner, quantities: List[str]) -> tuple:
    report = functools.cache(lambda: oracle.verify_spectrum(partner))
    # table order: the closed forms and classify run before the oracle
    values = {q: value(partner, report)
              for q, value in SWEEP_QUANTITIES.items() if q in quantities}
    return tuple(values[q] for q in quantities)


def cmd_sweep(args) -> int:
    if args.eps_start is None or args.eps_end is None or args.steps is None or args.steps < 1:
        raise ValueError("sweep requires --eps-start, --eps-end and --steps >= 1")
    if not args.eps_start < args.eps_end or args.eps_end > EPSILON_MAX:
        raise ValueError("sweep range must satisfy eps_start < eps_end <= -1 - 1e-9")
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    bad = [q for q in quantities if q not in SWEEP_QUANTITIES]
    if bad or not quantities:
        raise ValueError(f"unknown sweep quantities: {', '.join(bad) or '(none given)'}; "
                         f"choose from {', '.join(SWEEP_QUANTITIES)}")

    grid = Grid(args.x_max, args.points)
    eps_values = np.linspace(args.eps_start, args.eps_end, args.steps)
    rows = []
    codes = []
    for eps in eps_values:
        try:
            rows.append((float(eps),) + _sweep_row(Partner(eps, grid), quantities))
        except ROW_FAILURES as exc:
            print(f"warning: eps={eps}: {exc}", file=sys.stderr)
            rows.append((float(eps),) + (float("nan"),) * len(quantities))
            codes.append(_exit_code(exc))
    # object dtype keeps maxima_count's ints as ints next to NaN rows
    _emit_table(args, ("epsilon", *quantities), np.array(rows, dtype=object).T)
    # every row failed: a solver failure outranks a grid error
    return EXIT_OK if len(codes) < len(eps_values) else max(codes)


def _add_common(parser: argparse.ArgumentParser, config: Dict[str, str],
                epsilon: bool = True) -> None:
    if epsilon:
        parser.add_argument("--epsilon", type=float, default=config.get("epsilon"),
                            help="factorization energy (must be < -1)")
    grid = Grid.default()
    parser.add_argument("--x-max", dest="x_max", type=float,
                        default=config.get("x_max", grid.x_max),
                        help=f"half-width of the symmetric grid (default {grid.x_max:g})")
    parser.add_argument("--points", type=int, default=config.get("points", grid.n_points),
                        help=f"odd number of grid nodes (default {grid.n_points})")
    parser.add_argument("--out", default=None, help="output path ('-' = stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags take precedence")


def build_parser(config: Optional[Dict[str, str]] = None) -> argparse.ArgumentParser:
    # config values become string defaults; argparse applies an option's type
    # to one only when its flag is absent, so flag beats file beats built-in
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="shallowdw",
        description="Exactly soluble shallow double wells: closed-form states, "
                    "eigensolver verification, classification and dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("potential", help="emit x,V samples")
    _add_common(p, config)
    p.add_argument("--svg", default=None, help="also write an SVG polyline")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("states", help="emit x,V,psi0,psi1,rho0 samples")
    _add_common(p, config)
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("verify", help="JSON spectrum-verification report")
    _add_common(p, config)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="interval taxonomy verdict")
    _add_common(p, config)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evolve", help="left-well probability time series")
    _add_common(p, config)
    p.add_argument("--t-max", dest="t_max", type=float, default=config.get("t_max"),
                   help="final time (default: two oscillation periods)")
    p.add_argument("--frames", type=int, default=config.get("frames", 201),
                   help="number of uniform time samples (default 201)")
    p.add_argument("--svg", default=None, help="also write an SVG polyline")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sweep", help="tabulate quantities over an eps range")
    _add_common(p, config, epsilon=False)
    p.add_argument("--eps-start", dest="eps_start", type=float,
                   default=config.get("eps_start"))
    p.add_argument("--eps-end", dest="eps_end", type=float, default=config.get("eps_end"))
    p.add_argument("--steps", type=int, default=config.get("steps"))
    p.add_argument("--quantities",
                   default=config.get("quantities", "separatrix,curvature,gap"),
                   help=f"comma-separated subset of {','.join(SWEEP_QUANTITIES)}")
    p.set_defaults(func=cmd_sweep)
    return parser


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            # parsed again only now, so a usage error comes before a config error
            args = build_parser(_load_config(args.config)).parse_args(argv)
        if getattr(args, "epsilon", 0.0) is None:  # sweep has no --epsilon
            raise InvalidEpsilon("--epsilon is required (eps < -1)")
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
