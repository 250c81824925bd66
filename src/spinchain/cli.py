"""Command-line interface: scans, figure datasets, and critical-point queries.

Exit codes: 0 success, 1 numeric failure (named grid point), 2 argument
or configuration errors, a grid too large for memory among them.

BLAS runs on one thread: this module sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 where they are unset before it
imports numpy, and BLAS reads them when numpy first loads. By default a
command therefore writes the same bytes for the same numpy/BLAS build on
any number of cores. A value already set is kept (OpenBLAS reads
OPENBLAS_NUM_THREADS before OMP_NUM_THREADS, so set that one to choose its
count); a command writes the same bytes for the same count, and across
counts an N=14 grid stays within 1e-11. Library callers keep numpy's
default; they get the same by setting OPENBLAS_NUM_THREADS=1 before
importing numpy.
SPINCHAIN_THREADS must be a positive integer if set, but has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# The largest eigh block is 128 x 128 at N = 14, too small to gain from a
# second BLAS thread, yet OpenBLAS starts one per core and it spin-waits.
# Measured on 2 cores with OpenBLAS 0.3.31: an N=14 grid used twice its
# wall time in CPU (0.14 s for 0.07 s), and in 2 of 16 fresh processes the
# first 128 x 128 eigh took 220 ms instead of 2.7 ms. BLAS reads these
# variables when numpy loads, so numpy must load after them.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .basis import MAX_SPINS  # noqa: E402
from .errors import NumericError, ParameterError, SpinChainError  # noqa: E402
from .scans import (  # noqa: E402
    FIGURE_IDS,
    ScanGrid,
    critical_field_closed_form,
    entanglement_length,
    figure_dataset,
    lipschitz_check,
    magnetization_staircase,
    plot_payload,
    scan_pair_measures,
    scan_table,
)
from .svgplot import render_plot_payload  # noqa: E402


def _write_csv(path: Path, table):
    """Write a header and one line per row: integer columns as %d, all others as %.12g.

    A column with at most half as many distinct bit patterns as rows is
    formatted once per pattern (bits, not values: -0.0 and 0.0 print apart).
    """
    specs, columns = [], []
    for col in table.values():
        spec = "%d" if np.issubdtype(col.dtype, np.integer) else "%.12g"
        bits, index = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
        if 2 * bits.size <= col.size:
            spec, col = "%s", np.array([spec % v for v in bits.view(col.dtype).tolist()], dtype=object)[index]
        specs.append(spec)
        columns.append(col.tolist())
    fmt = ",".join(specs) + "\n"
    with path.open("w") as out:  # line by line: no copy of the whole text
        out.write(",".join(table) + "\n")
        out.writelines(fmt % row for row in zip(*columns))


def _parse_range(spec: str):
    """MIN:MAX:STEPS[:geom] -> sample array (STEPS points, inclusive ends).
    A range too large to allocate is an argument error too. argparse names
    the flag in front of each message."""
    parts = spec.split(":")
    geometric = False
    if len(parts) == 4:
        if parts[3] != "geom":
            raise argparse.ArgumentTypeError(f"unknown scale {parts[3]!r}, expected 'geom'")
        geometric = True
        parts = parts[:3]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:STEPS[:geom], got {spec!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {spec!r}")
    if steps < 1:
        raise argparse.ArgumentTypeError("STEPS must be >= 1")
    # inf or nan in MIN or MAX makes the span non-finite too.
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError("MIN, MAX and MAX - MIN must be finite")
    if geometric and (lo <= 0 or hi <= 0):
        raise argparse.ArgumentTypeError("geometric range requires MIN > 0 and MAX > 0")
    try:
        return (np.geomspace if geometric else np.linspace)(lo, hi, steps)
    except MemoryError:
        raise argparse.ArgumentTypeError(f"{steps} steps do not fit in memory")


def check_threads_env():
    """Reject a SPINCHAIN_THREADS value that is not a positive integer.

    Kept for compatibility; the variable has no effect.
    """
    raw = os.environ.get("SPINCHAIN_THREADS", "1")
    try:
        valid = int(raw) >= 1
    except ValueError:
        valid = False
    if not valid:
        raise ParameterError(f"SPINCHAIN_THREADS must be a positive integer, got {raw!r}")


def _parse_pair(spec: str):
    try:
        i, j = (int(p) for p in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a pair I,J, got {spec!r}")
    return (i, j)


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Fill unset flags from a JSON config file; flags take precedence.

    Every key becomes a `--key=value` token (one per list item) for the same
    parser, so the flags' types, choices and errors apply. Numeric flags
    need JSON numbers and all other flags JSON strings.
    """
    if not getattr(args, "config", None):
        return
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"config {args.config} must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(args, attr):
            parser.error(f"unknown config key {key!r}")
        tokens += [f"--{attr.replace('_', '-')}={item}" for item in _listed(value)]
    parsed = parser.parse_args([args.command, *tokens])
    # --pair and --sep are one choice: a flag for either one drops both config keys.
    flagged = {"pair", "sep"} if args.pair or args.sep else set()
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        want, got = _listed(value), _listed(getattr(parsed, attr))
        mistyped = any(isinstance(w, str) == isinstance(g, (int, float)) for w, g in zip(want, got))
        if len(want) != len(got) or mistyped:
            parser.error(f"config key {key!r} has the wrong JSON type or count: {value!r}")
        if getattr(args, attr) is None and attr not in flagged:
            setattr(args, attr, getattr(parsed, attr))


def _listed(value) -> list:
    return value if isinstance(value, list) else [value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchain",
        description="Thermal and magnetic entanglement in the 1D Heisenberg ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grid = sub.add_parser("grid", help="scan pair measures over a (B, kT) grid")
    grid.add_argument("--config", help="JSON config file; flags override its values")
    grid.add_argument("--n", type=int, help=f"number of spins (2..{MAX_SPINS})")
    grid.add_argument("--j", type=float, help="exchange coupling J")
    grid.add_argument("--b-range", type=_parse_range, help="MIN:MAX:STEPS[:geom]")
    grid.add_argument("--kt-range", type=_parse_range, help="MIN:MAX:STEPS[:geom]")
    grid.add_argument("--pair", type=_parse_pair, action="append", help="site pair I,J (repeatable)")
    grid.add_argument("--sep", type=int, action="append", help="pair separation D (repeatable)")
    grid.add_argument("--out", help="output table path")
    grid.add_argument("--format", choices=("csv", "json"), default=None, help="table format (default csv)")
    grid.add_argument("--svg", help="also render a plot to this path")

    fig = sub.add_parser("figure", help="emit a reference figure dataset")
    fig.add_argument("--id", type=int, required=True, choices=FIGURE_IDS, help="figure id 1..5")
    fig.add_argument("--outdir", required=True, help="directory for figN.csv (and figN.svg)")
    fig.add_argument("--svg", action="store_true", help="also write figN.svg")

    # The flags of every command that prints its result as JSON.
    json_cmd = argparse.ArgumentParser(add_help=False)
    json_cmd.add_argument("--n", type=int, required=True)
    json_cmd.add_argument("--j", type=float, required=True)
    json_cmd.add_argument("--out", help="write JSON here instead of stdout")

    sub.add_parser("staircase", parents=[json_cmd], help="magnetization staircase (JSON)")
    sub.add_parser("critical", parents=[json_cmd], help="closed-form vs numeric critical field (JSON)")

    el = sub.add_parser("elength", parents=[json_cmd], help="entanglement length at one (B, kT) point (JSON)")
    el.add_argument("--b", type=float, required=True)
    el.add_argument("--kt", type=float, required=True)

    lip = sub.add_parser("lipschitz", parents=[json_cmd], help="max kT |dE|/|dB| over a grid (JSON)")
    lip.add_argument("--b-range", type=_parse_range, required=True, help="MIN:MAX:STEPS[:geom]")
    lip.add_argument("--kt-range", type=_parse_range, required=True, help="MIN:MAX:STEPS[:geom]")
    lip.add_argument("--pair", type=_parse_pair, default=(0, 1))

    return parser


def _grid_from_args(args, parser) -> ScanGrid:
    for name in ("n", "j", "b_range", "kt_range", "out"):
        if getattr(args, name) is None:
            parser.error(f"missing required option --{name.replace('_', '-')}")
    if bool(args.pair) == bool(args.sep):
        parser.error("exactly one of --pair or --sep is required")
    if args.pair:
        return ScanGrid(args.n, args.j, args.b_range, args.kt_range, tuple(args.pair))
    return ScanGrid.from_separations(args.n, args.j, args.b_range, args.kt_range, tuple(args.sep))


def _grid_plot(grid: ScanGrid, e) -> dict:
    """Plot payload (see `plot_payload`) of E, a (B, kT, pair) array, one curve per pair."""
    if len(grid.b_values) > 1 and len(grid.kt_values) > 1:
        title = f"E(B, kT), N={grid.n_spins}, J={grid.coupling:g}, pair {grid.pairs[0]}"
    else:
        title = f"Entanglement, N={grid.n_spins}, J={grid.coupling:g}"
    return plot_payload(title, [(grid, e[..., p], f"pair {pair}") for p, pair in enumerate(grid.pairs)])


def _cmd_grid(args, parser):
    grid = _grid_from_args(args, parser)
    measures = scan_pair_measures(grid)
    table = scan_table(grid, measures)
    out = Path(args.out)
    if (args.format or "csv") == "csv":
        _write_csv(out, table)
    else:
        rows = zip(*(col.tolist() for col in table.values()))
        _emit_json({"columns": list(table), "rows": [list(row) for row in rows]}, out)
    if args.svg:
        Path(args.svg).write_text(render_plot_payload(_grid_plot(grid, measures["E"])))


def _cmd_figure(args, _parser):
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ds = figure_dataset(args.id)
    _write_csv(outdir / f"fig{args.id}.csv", ds.table)
    if args.svg:
        (outdir / f"fig{args.id}.svg").write_text(render_plot_payload(ds.plot))


def _emit_json(payload, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_staircase(args, _parser) -> dict:
    res = magnetization_staircase(args.n, args.j)
    return {
        "N": res.n_spins,
        "J": res.coupling,
        "B_E": res.b_e,
        "B_c": res.b_c_numeric,
        "crossings": [
            {"B": c.b_value, "from_n_up": c.from_n_up, "to_n_up": c.to_n_up} for c in res.crossings
        ],
        "sector_ground_energies": res.sector_ground_energies.tolist(),
    }


def _cmd_critical(args, _parser) -> dict:
    return {
        "N": args.n,
        "J": args.j,
        "B_c_closed_form": critical_field_closed_form(args.n, args.j),
        "B_c_numeric": magnetization_staircase(args.n, args.j).b_c_numeric,
    }


def _cmd_elength(args, _parser) -> dict:
    res = entanglement_length(args.n, args.j, args.b, args.kt)
    return {
        "N": args.n,
        "J": args.j,
        "B": args.b,
        "kT": args.kt,
        "l_E": res.l_e,
        "C": res.c_by_separation.tolist(),
    }


def _cmd_lipschitz(args, _parser) -> dict:
    grid = ScanGrid(args.n, args.j, args.b_range, args.kt_range, (tuple(args.pair),))
    rep = lipschitz_check(grid)
    return {
        "max_ratio": rep.max_ratio,
        "worst_point": {"B_left": rep.worst_point[0], "B_right": rep.worst_point[1], "kT": rep.worst_point[2]},
        "bound": 1.0,
        "satisfied": rep.satisfied,
    }


_COMMANDS = {
    "grid": _cmd_grid,
    "figure": _cmd_figure,
    "staircase": _cmd_staircase,
    "critical": _cmd_critical,
    "elength": _cmd_elength,
    "lipschitz": _cmd_lipschitz,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
    try:
        check_threads_env()
        payload = _COMMANDS[args.command](args, parser)
        if payload is not None:
            _emit_json(payload, args.out)
        return 0
    except NumericError as exc:
        print(f"spinchain: numeric error: {exc}", file=sys.stderr)
        return 1
    except SpinChainError as exc:
        print(f"spinchain: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"spinchain: i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid too large to scan
        print(f"spinchain: the grid does not fit in memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
