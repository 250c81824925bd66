"""Workload definitions: the CLI commands each workload runs, and their checks.

A workload is built from the seed alone: `WORKLOADS[name](seed, outdir)`
returns the commands (argv lists for `spinchain.cli.main`) plus, per command, the
output files it writes and a check for them. A check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FIGURE_HEADER = ("N", "J", "B", "kT", "i", "j", "d", "C", "E", "I", "M")
GRID_HEADER = ("B", "kT", "i", "j", "d", "C", "E", "I", "M")
# Rows per figure: fig1 121 B x 120 kT; fig2 121 B x 3 separations;
# fig3 3 rings x 121 B; fig4 6 rings x 120 kT; fig5 2 couplings x 120 kT.
FIGURE_ROWS = {1: 14520, 2: 363, 3: 363, 4: 720, 5: 240}
# Criterion 1 of the acceptance suite: N=2 matches the closed form to 1e-10.
ANALYTIC_TOL = 1e-10

RING_N = 14
RING_SEPARATIONS = tuple(range(1, RING_N // 2 + 1))
RING_B_STEPS, RING_KT_STEPS = 13, 6


@dataclass(frozen=True)
class Command:
    argv: tuple
    csv: Path  # the table the command writes; must be byte-identical per run
    outputs: tuple  # every file it writes
    check: Callable[[Path], list]


def fig1_surface(_seed: int, outdir: Path) -> list:
    """The fixed reference surface; the seed is ignored."""
    return [_figure(1, outdir)]


def ring14_sweep(seed: int, outdir: Path) -> list:
    """N=14 ring, separations 1..7, on a 13 x 6 (B, kT) grid drawn from the seed.

    The endpoints stay inside B in [0, 4.8] and kT in [0.05, 2]; only the
    point counts are fixed.
    """
    rng = random.Random(seed)
    b_lo, b_hi = round(rng.uniform(0.0, 0.6), 3), round(rng.uniform(4.2, 4.8), 3)
    kt_lo, kt_hi = round(rng.uniform(0.05, 0.1), 4), round(rng.uniform(1.5, 2.0), 3)
    csv = outdir / "ring14.csv"
    argv = ["grid", "--n", str(RING_N), "--j", "1"]
    for d in RING_SEPARATIONS:
        argv += ["--sep", str(d)]
    argv += [
        "--b-range", f"{b_lo}:{b_hi}:{RING_B_STEPS}",
        "--kt-range", f"{kt_lo}:{kt_hi}:{RING_KT_STEPS}:geom",
        "--out", str(csv),
    ]

    def check(path: Path) -> list:
        header, rows = _read_csv(path)
        problems = _check_table(header, rows, GRID_HEADER, RING_B_STEPS * RING_KT_STEPS * len(RING_SEPARATIONS))
        col = {c: k for k, c in enumerate(GRID_HEADER)}
        if not problems:
            b_vals = [r[col["B"]] for r in rows]
            kt_vals = [r[col["kT"]] for r in rows]
            if abs(min(b_vals) - b_lo) > 1e-9 or abs(max(b_vals) - b_hi) > 1e-9:
                problems.append(f"B spans [{min(b_vals)}, {max(b_vals)}], expected [{b_lo}, {b_hi}]")
            if abs(min(kt_vals) - kt_lo) > 1e-9 or abs(max(kt_vals) - kt_hi) > 1e-9:
                problems.append(f"kT spans [{min(kt_vals)}, {max(kt_vals)}], expected [{kt_lo}, {kt_hi}]")
            if sorted({int(r[col["d"]]) for r in rows}) != list(RING_SEPARATIONS):
                problems.append("separations differ from 1..7")
        return problems

    return [Command(tuple(argv), csv, (csv,), check)]


def paper_figs(seed: int, outdir: Path) -> list:
    """Figures 2..5, in an order drawn from the seed."""
    ids = [2, 3, 4, 5]
    random.Random(seed).shuffle(ids)
    return [_figure(i, outdir) for i in ids]


WORKLOADS = {"fig1_surface": fig1_surface, "ring14_sweep": ring14_sweep, "paper_figs": paper_figs}


def _figure(fig_id: int, outdir: Path) -> Command:
    csv, svg = outdir / f"fig{fig_id}.csv", outdir / f"fig{fig_id}.svg"
    argv = ("figure", "--id", str(fig_id), "--outdir", str(outdir), "--svg")

    def check(path: Path) -> list:
        header, rows = _read_csv(path)
        problems = _check_table(header, rows, FIGURE_HEADER, FIGURE_ROWS[fig_id])
        if not svg.is_file() or b"<svg" not in svg.read_bytes()[:200]:
            problems.append(f"{svg.name} missing or not an SVG document")
        if problems:
            return problems
        if fig_id == 1:
            problems += _check_fig1_analytic(rows)
        if fig_id == 5:
            c = FIGURE_HEADER.index("C")
            ferro = [r for r in rows if r[1] < 0]
            if not ferro or any(r[c] != 0.0 for r in ferro):
                problems.append("fig5: a J=-1 row has C != 0 (or there are none)")
        return problems

    return Command(argv, csv, (csv, svg), check)


def _read_csv(path: Path):
    if not path.is_file():
        return None, []
    lines = path.read_text().splitlines()
    header = tuple(lines[0].split(",")) if lines else None
    try:
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    except ValueError:
        return header, None
    return header, rows


def _check_table(header, rows, expected_header, expected_rows) -> list:
    """Header, row count, finiteness, and 0 <= C <= 1, 0 <= E <= 1, I >= 0."""
    if header is None:
        return ["output table missing or empty"]
    if header != expected_header:
        return [f"header {header} != {expected_header}"]
    if rows is None:
        return ["table has a non-numeric field"]
    if len(rows) != expected_rows:
        return [f"{len(rows)} rows, expected {expected_rows}"]
    c, e, i = (header.index(k) for k in ("C", "E", "I"))
    problems = []
    if not all(math.isfinite(v) for r in rows for v in r):
        problems.append("non-finite value")
    if not all(0.0 <= r[c] <= 1.0 and 0.0 <= r[e] <= 1.0 and r[i] >= 0.0 for r in rows):
        problems.append("C or E outside [0, 1], or I < 0")
    if any(len(r) != len(header) for r in rows):
        problems.append("ragged row")
    return problems


def _check_fig1_analytic(rows) -> list:
    """fig1's C against the closed-form N=2 concurrence, to 1e-10.

    The closed form is evaluated on the reference grid itself (121 B values
    on [0, 6], 120 geometric kT values on [0.01, 10], B-major), not on the
    12-digit values printed in the CSV.
    """
    import numpy as np
    from spinchain.measures import analytic_two_qubit_concurrence

    b_grid = np.linspace(0.0, 6.0, 121)
    kt_grid = np.geomspace(0.01, 10.0, 120)
    col = {k: n for n, k in enumerate(FIGURE_HEADER)}
    worst = 0.0
    for k, row in enumerate(rows):
        b, kt = b_grid[k // len(kt_grid)], kt_grid[k % len(kt_grid)]
        if abs(row[col["B"]] - b) > 1e-9 * max(1.0, b) or abs(row[col["kT"]] - kt) > 1e-9 * kt:
            return [f"fig1 row {k} is not at grid point B={b}, kT={kt}"]
        worst = max(worst, abs(row[col["C"]] - analytic_two_qubit_concurrence(1.0, float(b), float(kt))))
    if worst >= ANALYTIC_TOL:
        return [f"fig1: max |C - analytic| = {worst:.3e} >= {ANALYTIC_TOL:g}"]
    return []
