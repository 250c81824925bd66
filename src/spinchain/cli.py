"""Command-line interface: scans, figure datasets, and critical-point queries.

Exit codes: 0 success, 1 numeric failure (named grid point), 2 argument
or configuration errors. Output is fully deterministic. SPINCHAIN_THREADS
must be a positive integer if set, but has no effect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import NumericError, ParameterError, SpinChainError
from .hamiltonian import critical_field_closed_form
from .scans import (
    FIGURE_IDS,
    ScanGrid,
    entanglement_length,
    figure_dataset,
    lipschitz_check,
    magnetization_staircase,
    scan_pair_measures,
    scan_table,
)
from .svgplot import render_line_plot, render_plot_payload


def _num(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{float(v):.12g}"


def _rows(table):
    """Rows of a table of equal-length column arrays, as Python scalars."""
    return zip(*(col.tolist() for col in table.values()))


def _write_csv(path: Path, table):
    lines = [",".join(table)]
    lines.extend(",".join(_num(v) for v in row) for row in _rows(table))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload):
    path.write_text(_json_text(payload))


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _parse_range(spec: str, name: str):
    """MIN:MAX:STEPS[:geom] -> sample array (STEPS points, inclusive ends)."""
    parts = spec.split(":")
    geometric = False
    if len(parts) == 4:
        if parts[3] != "geom":
            raise argparse.ArgumentTypeError(f"{name}: unknown scale {parts[3]!r}, expected 'geom'")
        geometric = True
        parts = parts[:3]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{name}: expected MIN:MAX:STEPS[:geom], got {spec!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"{name}: could not parse {spec!r}")
    if steps < 1:
        raise argparse.ArgumentTypeError(f"{name}: STEPS must be >= 1")
    if geometric and lo <= 0:
        raise argparse.ArgumentTypeError(f"{name}: geometric range requires MIN > 0")
    if steps == 1:
        return np.array([lo])
    if geometric:
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


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
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        want, got = _listed(value), _listed(getattr(parsed, attr))
        mistyped = any(isinstance(w, str) == isinstance(g, (int, float)) for w, g in zip(want, got))
        if len(want) != len(got) or mistyped:
            parser.error(f"config key {key!r} has the wrong JSON type or count: {value!r}")
        if getattr(args, attr) is None:
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
    grid.add_argument("--n", type=int, help="number of spins (2..14)")
    grid.add_argument("--j", type=float, help="exchange coupling J")
    grid.add_argument("--b-range", type=lambda s: _parse_range(s, "--b-range"), help="MIN:MAX:STEPS")
    grid.add_argument(
        "--kt-range", type=lambda s: _parse_range(s, "--kt-range"), help="MIN:MAX:STEPS[:geom]"
    )
    grid.add_argument("--pair", type=_parse_pair, action="append", help="site pair I,J (repeatable)")
    grid.add_argument("--sep", type=int, action="append", help="pair separation D (repeatable)")
    grid.add_argument("--out", help="output table path")
    grid.add_argument("--format", choices=("csv", "json"), default=None, help="table format (default csv)")
    grid.add_argument("--svg", help="also render a plot to this path")

    fig = sub.add_parser("figure", help="emit a reference figure dataset")
    fig.add_argument("--id", type=int, required=True, help="figure id 1..5")
    fig.add_argument("--outdir", required=True, help="directory for figN.csv (and figN.svg)")
    fig.add_argument("--svg", action="store_true", help="also write figN.svg")

    stair = sub.add_parser("staircase", help="magnetization staircase (JSON)")
    stair.add_argument("--n", type=int, required=True)
    stair.add_argument("--j", type=float, required=True)
    stair.add_argument("--out", help="write JSON here instead of stdout")

    crit = sub.add_parser("critical", help="closed-form vs numeric critical field (JSON)")
    crit.add_argument("--n", type=int, required=True)
    crit.add_argument("--j", type=float, required=True)
    crit.add_argument("--out", help="write JSON here instead of stdout")

    el = sub.add_parser("elength", help="entanglement length at one (B, kT) point (JSON)")
    el.add_argument("--n", type=int, required=True)
    el.add_argument("--j", type=float, required=True)
    el.add_argument("--b", type=float, required=True)
    el.add_argument("--kt", type=float, required=True)
    el.add_argument("--out", help="write JSON here instead of stdout")

    lip = sub.add_parser("lipschitz", help="max kT |dE|/|dB| over a grid (JSON)")
    lip.add_argument("--n", type=int, required=True)
    lip.add_argument("--j", type=float, required=True)
    lip.add_argument("--b-range", type=lambda s: _parse_range(s, "--b-range"), required=True)
    lip.add_argument("--kt-range", type=lambda s: _parse_range(s, "--kt-range"), required=True)
    lip.add_argument("--pair", type=_parse_pair, default=(0, 1))
    lip.add_argument("--out", help="write JSON here instead of stdout")

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


def _grid_svg(grid: ScanGrid, e) -> str:
    """Plot E, a (B, kT, pair) array: a heatmap of the first pair on a 2-D grid, else one line per pair."""
    if len(grid.b_values) > 1 and len(grid.kt_values) > 1:
        from .svgplot import render_heatmap

        return render_heatmap(
            grid.b_values.tolist(),
            grid.kt_values.tolist(),
            e[:, :, 0].T.tolist(),
            xlabel="B",
            ylabel="kT",
            title=f"E(B, kT), N={grid.n_spins}, J={grid.coupling:g}, pair {grid.pairs[0]}",
            logy=bool(np.all(grid.kt_values > 0)) and len(grid.kt_values) > 2,
        )
    along_b = len(grid.b_values) > 1
    x = (grid.b_values if along_b else grid.kt_values).tolist()
    lines = e.reshape(len(x), len(grid.pairs)).T.tolist()
    series = [{"label": f"pair {pair}", "x": x, "y": y} for pair, y in zip(grid.pairs, lines)]
    return render_line_plot(
        series,
        xlabel="B" if along_b else "kT",
        ylabel="E",
        title=f"Entanglement, N={grid.n_spins}, J={grid.coupling:g}",
    )


def _cmd_grid(args, parser) -> int:
    grid = _grid_from_args(args, parser)
    measures = scan_pair_measures(grid)
    table = scan_table(grid, measures)
    out = Path(args.out)
    if (args.format or "csv") == "csv":
        _write_csv(out, table)
    else:
        _write_json(out, {"columns": list(table), "rows": [list(row) for row in _rows(table)]})
    if args.svg:
        Path(args.svg).write_text(_grid_svg(grid, measures["E"]))
    return 0


def _cmd_figure(args, parser) -> int:
    if args.id not in FIGURE_IDS:
        parser.error(f"--id must be in {list(FIGURE_IDS)}, got {args.id}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ds = figure_dataset(args.id)
    _write_csv(outdir / f"fig{args.id}.csv", ds.table)
    if args.svg:
        (outdir / f"fig{args.id}.svg").write_text(render_plot_payload(ds.plot))
    return 0


def _emit_json(payload, out_path):
    text = _json_text(payload)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_staircase(args, _parser) -> int:
    res = magnetization_staircase(args.n, args.j)
    payload = {
        "N": res.n_spins,
        "J": res.coupling,
        "B_E": res.b_e,
        "B_c": res.b_c_numeric,
        "crossings": [
            {"B": c.b_value, "from_n_up": c.from_n_up, "to_n_up": c.to_n_up} for c in res.crossings
        ],
        "sector_ground_energies": res.sector_ground_energies.tolist(),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_critical(args, _parser) -> int:
    payload = {
        "N": args.n,
        "J": args.j,
        "B_c_closed_form": critical_field_closed_form(args.n, args.j),
        "B_c_numeric": magnetization_staircase(args.n, args.j).b_c_numeric,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_elength(args, _parser) -> int:
    res = entanglement_length(args.n, args.j, args.b, args.kt)
    payload = {
        "N": args.n,
        "J": args.j,
        "B": args.b,
        "kT": args.kt,
        "l_E": res.l_e,
        "C": res.c_by_separation.tolist(),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_lipschitz(args, _parser) -> int:
    grid = ScanGrid(args.n, args.j, args.b_range, args.kt_range, (tuple(args.pair),))
    rep = lipschitz_check(grid)
    payload = {
        "max_ratio": rep.max_ratio,
        "worst_point": {"B_left": rep.worst_point[0], "B_right": rep.worst_point[1], "kT": rep.worst_point[2]},
        "bound": 1.0,
        "satisfied": rep.satisfied,
    }
    _emit_json(payload, args.out)
    return 0


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
    if hasattr(args, "config"):
        _apply_config(args, parser)
    try:
        check_threads_env()
        return _COMMANDS[args.command](args, parser)
    except NumericError as exc:
        print(f"spinchain: numeric error: {exc}", file=sys.stderr)
        return 1
    except SpinChainError as exc:
        print(f"spinchain: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"spinchain: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
