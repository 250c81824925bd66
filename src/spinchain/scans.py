"""Parameter sweeps, critical-point detection, and figure datasets.

A scan is three steps: the (grid points x eigenstates) Boltzmann weight
matrix W, times the X-state feature table F of every pair, stacked as
(pairs, eigenstates, 5), then the closed-form measures elementwise. It
returns C, E, I and M as arrays indexed (B, kT, pair); `scan_table`
flattens them into the columns B, kT, i, j, d, C, E, I, M, with rows
B-major, then kT, then pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ModelParams
from .errors import NumericError, ParameterError
from .measures import x_state_eigenvalues, x_state_measures
from .thermal import (
    DEGENERACY_TOL,
    ChainSpectrum,
    _check_pair,
    _flip_blocks,
    _separation,
    diagonalize_chain,
    pair_features,
    weight_rows,
)

SCAN_COLUMNS = ("B", "kT", "i", "j", "d", "C", "E", "I", "M")

# Concurrence threshold that counts a pair as entangled for l_E.
ENTANGLEMENT_TOL = 1e-6

# Entries of W formed at once (8 MiB of float64). Without chunking, N=14
# on the 14,520-point default grid would need about 1.9 GB for W alone.
WEIGHT_CHUNK_ENTRIES = 1 << 20

# Largest trace error and most negative eigenvalue of a healthy pair state.
HEALTH_TOL = 1e-10

FIGURE_IDS = (1, 2, 3, 4, 5)

_DEFAULT_B_GRID = np.linspace(0.0, 6.0, 121)  # step 0.05
_DEFAULT_KT_GRID = np.geomspace(0.01, 10.0, 120)


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
            arr = np.asarray(axis, dtype=np.float64)
            if arr.size == 0 or not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} must be a nonempty finite sequence")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ParameterError(f"{name} must be strictly ascending")
            object.__setattr__(self, name, arr)
        ModelParams(self.n_spins, self.coupling, field=self.b_values[0], kt=self.kt_values[0])
        if not self.pairs:
            raise ParameterError("at least one pair is required")
        seen = set()
        for i, j in self.pairs:
            _check_pair(self.n_spins, i, j)
            if (i, j) in seen:
                raise ParameterError(f"pair ({i}, {j}) is repeated")
            seen.add((i, j))

    @classmethod
    def from_separations(cls, n_spins, coupling, b_values, kt_values, separations):
        """Grid over the representative pair (0, d) for each separation d."""
        pairs = []
        for d in separations:
            if not (1 <= d <= n_spins // 2):
                raise ParameterError(f"separation {d} out of range for N={n_spins}")
            pairs.append((0, d))
        return cls(n_spins, coupling, np.asarray(b_values, float), np.asarray(kt_values, float), tuple(pairs))


def _weight_chunks(n_points: int, n_states: int) -> list:
    """Consecutive slices of grid points whose W rows hold at most WEIGHT_CHUNK_ENTRIES."""
    step = max(1, WEIGHT_CHUNK_ENTRIES // n_states)
    return [slice(start, start + step) for start in range(0, n_points, step)]


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
    b = np.repeat(grid.b_values, len(grid.kt_values))
    kt = np.tile(grid.kt_values, len(grid.b_values))
    # Stacked over pairs, W @ F is one (eigenstates x 5) product per pair, so
    # a pair's bits do not depend on the other pairs of the grid; those of
    # one wide (eigenstates x 5 * pairs) product do.
    f = pair_features(spectrum, grid.pairs).transpose(1, 0, 2)  # (pairs, eigenstates, 5)
    states = np.empty((len(b), len(grid.pairs), 5))  # per point and pair
    for chunk in _weight_chunks(len(b), f.shape[1]):
        states[chunk] = (weight_rows(spectrum, b[chunk], kt[chunk])[0] @ f).transpose(1, 0, 2)
    _check_health(states, b, kt, grid.pairs)
    shape = (len(grid.b_values), len(grid.kt_values), len(grid.pairs))
    return {name: col.reshape(shape) for name, col in zip("CEIM", x_state_measures(states))}


def scan_table(grid: ScanGrid, measures: dict) -> dict:
    """Flatten a scan into SCAN_COLUMNS column arrays, rows B-major, then kT, then pair."""
    axes = (grid.b_values, grid.kt_values, np.arange(len(grid.pairs)))
    b, kt, p = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    i, j = np.array(grid.pairs).T
    d = np.array([_separation(grid.n_spins, *pair) for pair in grid.pairs])
    return {"B": b, "kT": kt, "i": i[p], "j": j[p], "d": d[p], **{k: measures[k].ravel() for k in "CEIM"}}


def _check_health(states: np.ndarray, b: np.ndarray, kt: np.ndarray, pairs):
    """Raise NumericError at the first point with a pair state off the simplex."""
    trace_err = np.abs(states[..., :4].sum(axis=-1) - 1.0)
    min_eig = x_state_eigenvalues(states).min(axis=-1)
    bad = ~((trace_err <= HEALTH_TOL) & (min_eig >= -HEALTH_TOL))
    if bad.any():
        k, p = np.argwhere(bad)[0]
        raise NumericError(
            f"failure at grid point B={b[k]}, kT={kt[k]}: pair {pairs[p]} state has trace error "
            f"{trace_err[k, p]:.3e} and smallest eigenvalue {min_eig[k, p]:.3e}"
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

    Within a sector the ground energy is eps_k + B(2k - N), linear in B,
    so consecutive crossings are intersections of straight lines and the
    staircase is the lower envelope of those lines. eps_k is the lowest
    `eigvalsh` value on the blocks of `diagonalize_chain` (both flip halves
    for k = N/2), and eps_{N-k} = eps_k by the global spin flip.
    """
    if coupling <= 0:
        raise ParameterError("magnetization staircase requires antiferromagnetic J > 0")
    eps = np.full(n_spins + 1, np.inf)
    for k, _, matrix in _flip_blocks(ModelParams(n_spins=n_spins, coupling=coupling)):
        eps[k] = eps[n_spins - k] = min(eps[k], np.linalg.eigvalsh(matrix)[0])
    # Ground sector just above B=0: smallest energy, ties broken toward
    # the smaller slope (smaller n_up), which wins for B > 0.
    near = np.flatnonzero(eps <= eps.min() + DEGENERACY_TOL * max(1.0, abs(eps.min())))
    k = int(near.min())
    crossings = []
    b_cur = 0.0
    while k > 0:
        best_b, best_k = np.inf, -1
        for kp in range(k):
            b_cross = (eps[kp] - eps[k]) / (2.0 * (k - kp))
            if b_cross < best_b - 1e-12:
                best_b, best_k = b_cross, kp
        b_cur = max(b_cur, float(best_b))
        crossings.append(Crossing(b_value=b_cur, from_n_up=k, to_n_up=best_k))
        k = best_k
    b_c = crossings[-1].b_value if crossings else 0.0
    b_e = 0.0
    for c in crossings:
        if c.to_n_up == 1:
            b_e = c.b_value
    return StaircaseResult(
        n_spins=n_spins,
        coupling=coupling,
        sector_ground_energies=eps,
        crossings=tuple(crossings),
        b_e=b_e,
        b_c_numeric=b_c,
    )


@dataclass(frozen=True)
class EntanglementLengthResult:
    """Concurrence per separation and the resulting entanglement length."""

    c_by_separation: np.ndarray  # C(d) for d = 1..N//2
    l_e: int  # largest d with C(d) > ENTANGLEMENT_TOL, else 0


def entanglement_length(
    n_spins: int,
    coupling: float,
    b_field: float,
    kt: float,
    spectrum: ChainSpectrum | None = None,
) -> EntanglementLengthResult:
    """Concurrence profile C(d) at pair (0, d) and the entanglement length."""
    grid = ScanGrid.from_separations(n_spins, coupling, [b_field], [kt], range(1, n_spins // 2 + 1))
    c_vals = scan_pair_measures(grid, spectrum)["C"][0, 0]
    above = np.flatnonzero(c_vals > ENTANGLEMENT_TOL)
    l_e = int(above.max() + 1) if above.size else 0
    return EntanglementLengthResult(c_by_separation=c_vals, l_e=l_e)


@dataclass(frozen=True)
class LipschitzReport:
    """Largest observed kT |dE| / |dB| over a grid, against the bound 1."""

    max_ratio: float
    worst_point: tuple  # (B_left, B_right, kT)
    satisfied: bool  # max_ratio <= 1 + 1e-6


def lipschitz_check(grid: ScanGrid, spectrum: ChainSpectrum | None = None) -> LipschitzReport:
    """Check that entanglement changes no faster than |dB|/kT along B, for every pair of the grid."""
    if len(grid.b_values) < 2:
        raise ParameterError("lipschitz check needs at least two B samples")
    if np.any(grid.kt_values <= 0):
        raise ParameterError("lipschitz check requires kT > 0")
    de = np.abs(np.diff(scan_pair_measures(grid, spectrum)["E"], axis=0))
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


@dataclass(frozen=True)
class FigureDataset:
    """Table plus plot payload reproducing one of the reference figures.

    `table` maps each of FIGURE_COLUMNS to a 1-D array, one entry per row:
    the rows of `scan_table` for each of the figure's scans, in turn, with
    that scan's N and J prepended.
    """

    figure_id: int
    table: dict
    plot: dict  # kind "heatmap" or "lines" plus the prepared series/arrays


FIGURE_COLUMNS = ("N", "J") + SCAN_COLUMNS


def figure_dataset(figure_id: int) -> FigureDataset:
    """Dataset for figure 1..5 at the reference parameter settings.

    1: E(B, kT) surface of the N=2 antiferromagnet.
    2: E(B) at kT=0.1, N=6, separations 1..3.
    3: next-nearest E(B) at kT=0.1 for N in {6, 8, 10}.
    4: nearest-neighbor E(kT) at B=4.2 for N in {5..10}.
    5: I(kT) for J=+1 and J=-1 plus E(kT) for J=+1 (N=10, B=4.2).
    """
    if figure_id not in FIGURE_IDS:
        raise ParameterError(f"figure id must be in {FIGURE_IDS}, got {figure_id}")
    build = {1: _figure1, 2: _figure2, 3: _figure3, 4: _figure4, 5: _figure5}[figure_id]
    results, plot = build()
    tables = []
    for grid, m in results:
        t = scan_table(grid, m)
        n_rows = len(t["B"])
        tables.append({"N": np.full(n_rows, grid.n_spins), "J": np.full(n_rows, grid.coupling), **t})
    table = {name: np.concatenate([t[name] for t in tables]) for name in FIGURE_COLUMNS}
    return FigureDataset(figure_id=figure_id, table=table, plot=plot)


# Each builder returns its scans as (grid, measures) pairs, plus the plot.


def _figure1():
    grid = ScanGrid(2, 1.0, _DEFAULT_B_GRID, _DEFAULT_KT_GRID, ((0, 1),))
    m = scan_pair_measures(grid)
    x, y = grid.b_values.tolist(), grid.kt_values.tolist()
    z = m["E"][:, :, 0].T.tolist()  # one row per kT value
    title = "Entanglement E(B, kT), N=2, J=1"
    plot = dict(kind="heatmap", x=x, y=y, z=z, xlabel="B", ylabel="kT", logy=True, title=title)
    return [(grid, m)], plot


def _figure2():
    grid = ScanGrid.from_separations(6, 1.0, _DEFAULT_B_GRID, [0.1], (1, 2, 3))
    m = scan_pair_measures(grid)
    b = grid.b_values.tolist()
    series = [{"label": f"d={d}", "x": b, "y": m["E"][:, 0, p].tolist()} for p, d in enumerate((1, 2, 3))]
    title = "Entanglement vs field, N=6, kT=0.1, J=1"
    plot = dict(kind="lines", series=series, xlabel="B", ylabel="E", title=title)
    return [(grid, m)], plot


def _figure3():
    grids = [ScanGrid.from_separations(n, 1.0, _DEFAULT_B_GRID, [0.1], (2,)) for n in (6, 8, 10)]
    results = [(grid, scan_pair_measures(grid)) for grid in grids]
    b = _DEFAULT_B_GRID.tolist()
    series = [{"label": f"N={g.n_spins}", "x": b, "y": m["E"][:, 0, 0].tolist()} for g, m in results]
    title = "Next-nearest entanglement vs field, kT=0.1, J=1"
    plot = dict(kind="lines", series=series, xlabel="B", ylabel="E", title=title)
    return results, plot


def _figure4():
    grids = [ScanGrid.from_separations(n, 1.0, [4.2], _DEFAULT_KT_GRID, (1,)) for n in (5, 6, 7, 8, 9, 10)]
    results = [(grid, scan_pair_measures(grid)) for grid in grids]
    kt = _DEFAULT_KT_GRID.tolist()
    series = [{"label": f"N={g.n_spins}", "x": kt, "y": m["E"][0, :, 0].tolist()} for g, m in results]
    title = "Nearest-neighbor entanglement vs temperature, B=4.2, J=1"
    plot = dict(kind="lines", series=series, xlabel="kT", ylabel="E", logx=True, title=title)
    return results, plot


def _figure5():
    grids = [ScanGrid.from_separations(10, j, [4.2], _DEFAULT_KT_GRID, (1,)) for j in (1.0, -1.0)]
    results = [(grid, scan_pair_measures(grid)) for grid in grids]
    (_, af), (_, fm) = results
    kt = _DEFAULT_KT_GRID.tolist()
    series = [
        {"label": "AF, I", "x": kt, "y": af["I"][0, :, 0].tolist()},
        {"label": "F, I", "x": kt, "y": fm["I"][0, :, 0].tolist()},
        {"label": "AF, E", "x": kt, "y": af["E"][0, :, 0].tolist()},
    ]
    title = "Mutual information and entanglement vs temperature, N=10, B=4.2"
    plot = dict(kind="lines", series=series, xlabel="kT", ylabel="I, E", logx=True, title=title)
    return results, plot
