"""Parameter sweeps, critical-point detection, and figure datasets.

A scan is three steps: the (grid points x eigenstates) Boltzmann weight
matrix W, times the X-state feature table F of every pair, both owned by
`thermal.pair_states`, then the closed-form measures elementwise. It
returns C, E, I and M as arrays indexed (B, kT, pair); `scan_table`
flattens them into the columns B, kT, i, j, d, C, E, I, M, with rows
B-major, then kT, then pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ModelParams, check_pair, check_real, separation
from .errors import NumericError, ParameterError
from .measures import STATE_TOL, x_state_eigenvalues, x_state_measures
from .thermal import ChainSpectrum, diagonalize_chain, pair_states

SCAN_COLUMNS = ("B", "kT", "i", "j", "d", "C", "E", "I", "M")

# Concurrence threshold that counts a pair as entangled for l_E.
ENTANGLEMENT_TOL = 1e-6

_DEFAULT_B_GRID = np.linspace(0.0, 6.0, 121)  # step 0.05
_DEFAULT_KT_GRID = np.geomspace(0.01, 10.0, 120)

# The reference figures, by id: (title, value label, scans, curves). Each scan
# is the arguments of `ScanGrid.from_separations`, (N, J, B values, kT values,
# separations); each curve is (scan index, measure, separation index, label).
_FIGURES = {
    # E(B, kT) surface of the N=2 antiferromagnet.
    1: ("Entanglement E(B, kT), N=2, J=1", "E",
        [(2, 1.0, _DEFAULT_B_GRID, _DEFAULT_KT_GRID, (1,))],
        [(0, "E", 0, "")]),
    # E(B) at kT=0.1, N=6, separations 1..3.
    2: ("Entanglement vs field, N=6, kT=0.1, J=1", "E",
        [(6, 1.0, _DEFAULT_B_GRID, [0.1], (1, 2, 3))],
        [(0, "E", p, f"d={d}") for p, d in enumerate((1, 2, 3))]),
    # Next-nearest E(B) at kT=0.1 for N in {6, 8, 10}.
    3: ("Next-nearest entanglement vs field, kT=0.1, J=1", "E",
        [(n, 1.0, _DEFAULT_B_GRID, [0.1], (2,)) for n in (6, 8, 10)],
        [(k, "E", 0, f"N={n}") for k, n in enumerate((6, 8, 10))]),
    # Nearest-neighbor E(kT) at B=4.2 for N in {5..10}.
    4: ("Nearest-neighbor entanglement vs temperature, B=4.2, J=1", "E",
        [(n, 1.0, [4.2], _DEFAULT_KT_GRID, (1,)) for n in range(5, 11)],
        [(k, "E", 0, f"N={n}") for k, n in enumerate(range(5, 11))]),
    # I(kT) for J=+1 and J=-1 plus E(kT) for J=+1 (N=10, B=4.2).
    5: ("Mutual information and entanglement vs temperature, N=10, B=4.2", "I, E",
        [(10, j, [4.2], _DEFAULT_KT_GRID, (1,)) for j in (1.0, -1.0)],
        [(0, "I", 0, "AF, I"), (1, "I", 0, "F, I"), (0, "E", 0, "AF, E")]),
}

FIGURE_IDS = tuple(_FIGURES)


@dataclass(frozen=True)
class ScanGrid:
    """Axes of a pair-measure sweep: field and temperature samples plus pairs."""

    n_spins: int
    coupling: float
    b_values: np.ndarray
    kt_values: np.ndarray
    pairs: tuple

    def __post_init__(self):
        for name, axis in (("b_values", self.b_values), ("kt_values", self.kt_values)):
            try:
                arr = np.asarray(axis, dtype=np.float64)
            except (TypeError, ValueError):  # ragged, or not real numbers
                arr = None
            if arr is None or arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} must be a nonempty finite 1-D sequence of real numbers")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ParameterError(f"{name} must be strictly ascending")
            object.__setattr__(self, name, arr)
        ModelParams(self.n_spins, self.coupling, field=self.b_values[0], kt=self.kt_values[0])
        try:
            pairs = [tuple(pair) for pair in self.pairs]
        except TypeError:  # not a sequence, or an entry that is not
            pairs = None
        if not pairs or any(len(pair) != 2 for pair in pairs):
            raise ParameterError(f"pairs must be a nonempty sequence of (i, j) site pairs, got {self.pairs!r}")
        for i, j in pairs:
            check_pair(self.n_spins, i, j)
        pairs = tuple((int(i), int(j)) for i, j in pairs)
        if len(set(pairs)) < len(pairs):
            raise ParameterError(f"a pair of {pairs} is repeated")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_separations(cls, n_spins, coupling, b_values, kt_values, separations):
        """Grid over the representative pair (0, d) for each separation d."""
        grid = cls(n_spins, coupling, b_values, kt_values, tuple((0, d) for d in separations))
        seps = [d for _, d in grid.pairs]
        if max(seps) > n_spins // 2:
            raise ParameterError(f"separations {seps} out of range for N={n_spins}")
        return grid


def scan_pair_measures(grid: ScanGrid, spectrum: ChainSpectrum | None = None) -> dict:
    """Evaluate C, E, I, M on every (B, kT, pair) point of the grid.

    Returns {"C", "E", "I", "M"}, each an array of shape
    (len(b_values), len(kt_values), len(pairs)). A given spectrum must be
    that of the grid's (N, J). Raises NumericError naming the first (B, kT)
    point whose pair state fails the health check.
    """
    if spectrum is None:
        spectrum = diagonalize_chain(grid.n_spins, grid.coupling)
    elif (spectrum.n_spins, spectrum.coupling) != (grid.n_spins, grid.coupling):
        raise ParameterError(
            f"spectrum of N={spectrum.n_spins}, J={spectrum.coupling} given for a grid "
            f"of N={grid.n_spins}, J={grid.coupling}"
        )
    states = pair_states(spectrum, grid.b_values, grid.kt_values, grid.pairs)
    _check_health(states, grid)
    return dict(zip("CEIM", x_state_measures(states)))


def scan_table(grid: ScanGrid, measures: dict) -> dict:
    """Flatten a scan into SCAN_COLUMNS column arrays, rows B-major, then kT, then pair."""
    axes = (grid.b_values, grid.kt_values, np.arange(len(grid.pairs)))
    b, kt, p = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    i, j = np.array(grid.pairs).T
    d = np.array([separation(grid.n_spins, *pair) for pair in grid.pairs])
    return {"B": b, "kT": kt, "i": i[p], "j": j[p], "d": d[p], **{k: measures[k].ravel() for k in "CEIM"}}


def _check_health(states: np.ndarray, grid: ScanGrid):
    """Raise NumericError at the first (B, kT) point with a pair state off the simplex."""
    eigenvalues = x_state_eigenvalues(states)
    trace_err = np.abs(eigenvalues.sum(axis=-1) - 1.0)
    min_eig = eigenvalues.min(axis=-1)
    bad = ~((trace_err <= STATE_TOL) & (min_eig >= -STATE_TOL))
    if bad.any():
        at_b, at_kt, p = np.argwhere(bad)[0]
        raise NumericError(
            f"failure at grid point B={grid.b_values[at_b]}, kT={grid.kt_values[at_kt]}: pair {grid.pairs[p]} state "
            f"has trace error {trace_err[at_b, at_kt, p]:.3e} and smallest eigenvalue {min_eig[at_b, at_kt, p]:.3e}"
        )


@dataclass(frozen=True)
class Crossing:
    """One ground-state level crossing of the magnetization staircase."""

    b_value: float
    from_n_up: int
    to_n_up: int


@dataclass(frozen=True)
class StaircaseResult:
    """Ground-sector structure of the antiferromagnetic ring versus field."""

    n_spins: int
    coupling: float
    sector_ground_energies: np.ndarray  # exchange part, indexed by n_up
    crossings: tuple
    b_e: float  # field where the one-magnon sector becomes the ground state
    b_c_numeric: float  # field where |00...0> becomes the ground state


def magnetization_staircase(n_spins: int, coupling: float) -> StaircaseResult:
    """Exact ground-sector crossing sequence as B increases from 0.

    Within sector k the ground energy is eps_k + B(2k - N), linear in B,
    where eps_k is the lowest energy of sector k in the `diagonalize_chain`
    table, so eps_{N-k} = eps_k exactly by the global spin flip. At B = 0
    the ground sector is N//2 (Lieb-Mattis for even N), and each crossing
    lowers n_up by one: sector k gives way to k - 1 at
    B_k = (eps_{k-1} - eps_k) / 2. Raises NumericError unless
    0 < B_{N//2} < ... < B_1, which fails exactly when the lower envelope
    of the sector lines starts elsewhere or skips a sector.
    """
    ModelParams(n_spins=n_spins, coupling=coupling)
    if coupling <= 0:
        raise ParameterError("magnetization staircase requires antiferromagnetic J > 0")
    sp = diagonalize_chain(n_spins, coupling)
    eps = np.array([sp.energies[sp.slopes == 2 * k - n_spins].min() for k in range(n_spins + 1)])
    crossings = tuple(
        Crossing(b_value=float((eps[k - 1] - eps[k]) / 2.0), from_n_up=k, to_n_up=k - 1)
        for k in range(n_spins // 2, 0, -1)
    )
    b = [c.b_value for c in crossings]
    if not (0.0 < b[0] and all(lo < hi for lo, hi in zip(b, b[1:]))):
        raise NumericError(
            f"sector ground energies {eps.tolist()} skip a sector: crossing fields {b} do not rise from 0"
        )
    return StaircaseResult(
        n_spins=n_spins,
        coupling=coupling,
        sector_ground_energies=eps,
        crossings=crossings,
        b_e=b[-2] if len(b) > 1 else 0.0,
        b_c_numeric=b[-1],
    )


def critical_field_closed_form(n_spins: int, coupling: float) -> float:
    """Field beyond which |00...0> is the T=0 ground state (antiferromagnet):
    the closed form of `magnetization_staircase`'s b_c_numeric.

    4J for even N, 2J(1 + cos(pi/N)) for odd N; never exceeds 4J.
    """
    if not isinstance(n_spins, (int, np.integer)) or n_spins < 2:
        raise ParameterError(f"n_spins must be an integer >= 2, got {n_spins!r}")
    check_real("coupling", coupling)
    if not coupling > 0:
        raise ParameterError(f"critical field formula requires a finite antiferromagnetic J > 0, got {coupling}")
    if n_spins % 2 == 0:
        return 4.0 * coupling
    return 2.0 * coupling * (1.0 + math.cos(math.pi / n_spins))


@dataclass(frozen=True)
class EntanglementLengthResult:
    """Concurrence per separation and the resulting entanglement length."""

    c_by_separation: np.ndarray  # C(d) for d = 1..N//2
    l_e: int  # largest d with C(d) > ENTANGLEMENT_TOL, else 0


def entanglement_length(n_spins: int, coupling: float, b_field: float, kt: float) -> EntanglementLengthResult:
    """Concurrence profile C(d) at pair (0, d) and the entanglement length."""
    grid = ScanGrid.from_separations(n_spins, coupling, [b_field], [kt], range(1, n_spins // 2 + 1))
    c_vals = scan_pair_measures(grid)["C"][0, 0]
    above = np.flatnonzero(c_vals > ENTANGLEMENT_TOL)
    l_e = int(above.max() + 1) if above.size else 0
    return EntanglementLengthResult(c_by_separation=c_vals, l_e=l_e)


@dataclass(frozen=True)
class LipschitzReport:
    """Largest observed kT |dE| / |dB| over a grid, against the bound 1."""

    max_ratio: float
    worst_point: tuple  # (B_left, B_right, kT)
    satisfied: bool  # max_ratio <= 1 + 1e-6


def lipschitz_check(grid: ScanGrid) -> LipschitzReport:
    """Check that entanglement changes no faster than |dB|/kT along B, for every pair of the grid."""
    if len(grid.b_values) < 2:
        raise ParameterError("lipschitz check needs at least two B samples")
    if np.any(grid.kt_values <= 0):
        raise ParameterError("lipschitz check requires kT > 0")
    de = np.abs(np.diff(scan_pair_measures(grid)["E"], axis=0))
    # kT |dE| / |dB| laid out (kT, pair, B step): argmax takes the first
    # maximum by kT, then pair, then B.
    ratios = grid.kt_values[:, None, None] * de.transpose(1, 2, 0) / np.diff(grid.b_values)
    kt_idx, _, b_idx = np.unravel_index(np.argmax(ratios), ratios.shape)
    max_ratio = float(ratios.max())
    if max_ratio > 0.0:
        worst = (grid.b_values[b_idx], grid.b_values[b_idx + 1], grid.kt_values[kt_idx])
    else:  # E is flat everywhere: report the whole B range at the first kT
        worst = (grid.b_values[0], grid.b_values[-1], grid.kt_values[0])
    return LipschitzReport(
        max_ratio=max_ratio, worst_point=tuple(map(float, worst)), satisfied=max_ratio <= 1.0 + 1e-6
    )


def plot_payload(title: str, curves, ylabel: str = "E") -> dict:
    """Plot payload of `curves`, each (grid, values over (B, kT), label), which
    share the first curve's grid axes. On a grid with more than one B and more
    than one kT value it is a heatmap of the first curve; otherwise one line per
    curve along the grid's varying axis (kT if neither varies), with `ylabel` as
    the value label. A kT axis, of either kind, is logarithmic when every kT is
    above 0 and there are more than two kT values."""
    grid, values, _ = curves[0]
    b, kt = grid.b_values, grid.kt_values
    log_kt = bool(np.all(kt > 0)) and len(kt) > 2
    if len(b) > 1 and len(kt) > 1:
        return dict(kind="heatmap", x=b.tolist(), y=kt.tolist(), z=values.T.tolist(),  # one z row per kT
                    xlabel="B", ylabel="kT", logy=log_kt, title=title)
    x, xlabel, logx = (b, "B", False) if len(b) > 1 else (kt, "kT", log_kt)
    series = [{"label": label, "x": x.tolist(), "y": v.ravel().tolist()} for _, v, label in curves]
    return dict(kind="lines", series=series, xlabel=xlabel, ylabel=ylabel, logx=logx, title=title)


@dataclass(frozen=True)
class FigureDataset:
    """Table plus plot payload reproducing one of the reference figures.

    `table` maps each of FIGURE_COLUMNS to a 1-D array, one entry per row:
    the rows of `scan_table` for each of the figure's scans, in turn, with
    that scan's N and J prepended. `plot` is the `plot_payload` of the
    figure's curves, which `svgplot.render_plot_payload` draws: its `kind`,
    "heatmap" or "lines", plus the keyword arguments of that kind's renderer.
    """

    figure_id: int
    table: dict
    plot: dict


FIGURE_COLUMNS = ("N", "J") + SCAN_COLUMNS


def figure_dataset(figure_id: int) -> FigureDataset:
    """Dataset for figure 1..5 at the reference settings listed in `_FIGURES`."""
    if figure_id not in FIGURE_IDS:
        raise ParameterError(f"figure id must be in {FIGURE_IDS}, got {figure_id}")
    title, ylabel, scans, curves = _FIGURES[figure_id]
    grids = [ScanGrid.from_separations(*scan) for scan in scans]
    results = [scan_pair_measures(grid) for grid in grids]
    plot = plot_payload(title, [(grids[k], results[k][name][..., p], label) for k, name, p, label in curves], ylabel)
    tables = [scan_table(grid, m) for grid, m in zip(grids, results)]
    for grid, t in zip(grids, tables):
        t.update(N=np.full(len(t["B"]), grid.n_spins), J=np.full(len(t["B"]), grid.coupling))
    table = {name: np.concatenate([t[name] for t in tables]) for name in FIGURE_COLUMNS}
    return FigureDataset(figure_id=figure_id, table=table, plot=plot)
