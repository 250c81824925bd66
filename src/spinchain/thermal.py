"""Gibbs states over the ring's eigenstates and two-site reduced density matrices.

The full 2^N density matrix is never materialized. The chain is
diagonalized once per (N, J) into one flat table over all 2^N eigenstates:
each eigenstate's exchange energy and Zeeman slope, so the field only
shifts energies and one spectrum serves every (B, kT) point of a scan.
Every eigenstate lies in one S_z sector and is real, so its reduced state
on a pair of sites is an X-state fixed by five numbers (p00, p01, p10,
p11, z). A thermal pair RDM is the Boltzmann-weighted sum of those five
numbers over the eigenstates. Only `diagonalize_chain` and `pair_features`
know how the eigenstates are blocked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ModelParams, SectorBasis, exchange_partners, zeeman_eigenvalue
from .errors import ParameterError, StateValidityError
from .hamiltonian import build_sector_hamiltonian
from .numerics import eigh_symmetric

# Relative width of the T=0 ground manifold.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class ChainSpectrum:
    """Exchange Hamiltonian of a ring, diagonalized into one flat eigen-table.

    `energies` and `slopes` hold each eigenstate's exchange energy and its
    Zeeman slope 2*n_up - N, so its energy at field B is
    energies + B * slopes. Rows are grouped by magnetization sector,
    n_up = 0..N, and ascend in energy within each sector. `blocks` holds one
    entry per sector, in the same order, whose columns are the sector's rows
    of the flat table:

    * n_up < N/2: (basis states, eigenvector columns) from `eigh`;
    * n_up > N/2: (basis states, the eigenvectors of sector N - n_up with
      their rows reversed), a view, because flipping every spin maps sector
      N - n_up onto this one and reverses the ascending basis;
    * n_up = N/2 (even N): (basis states, u, parity). Flipping every spin
      maps basis row r to row D-1-r, so eigenvector c is
      (u[:, c], parity[c] * u[::-1, c]) / sqrt(2) over the D basis rows.
    """

    n_spins: int
    coupling: float
    energies: np.ndarray
    slopes: np.ndarray
    blocks: tuple


@dataclass(frozen=True)
class GibbsEnsemble:
    """Thermal weights of every eigenstate at one (B, kT) point."""

    spectrum: ChainSpectrum
    field: float
    kt: float
    weights: np.ndarray  # one per eigenstate of the spectrum's flat table, summing to 1
    log_z_shifted: float  # log Z + E_ground/kT (0.0 at kT = 0)
    energy_origin: float  # ground energy used as the shift

    def energies(self) -> np.ndarray:
        """Total energies (exchange + Zeeman) of the spectrum's eigenstates."""
        return self.spectrum.energies + self.field * self.spectrum.slopes

    def mean_energy(self) -> float:
        return float(np.dot(self.energies(), self.weights))


@dataclass(frozen=True)
class PairDensityMatrix:
    """4x4 reduced state of a spin pair over {|00>,|01>,|10>,|11>}.

    The first tensor slot is site i; |0> is spin down.
    """

    sites: tuple
    matrix: np.ndarray
    separation: int

    def validate(self) -> "PairDensityMatrix":
        m = self.matrix
        if m.shape != (4, 4):
            raise StateValidityError(f"pair state must be 4x4, got {m.shape}")
        if not np.abs(m - m.conj().T).max() <= 1e-12:
            raise StateValidityError("pair state is not Hermitian within 1e-12")
        tr = float(np.real(np.trace(m)))
        if not abs(tr - 1.0) <= 1e-10:
            raise StateValidityError(f"pair state trace {tr} deviates from 1 beyond 1e-10")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise StateValidityError("pair state has eigenvalue below -1e-10")
        return self


def diagonalize_chain(n_spins: int, coupling: float) -> ChainSpectrum:
    """Diagonalize the exchange Hamiltonian, blocked by sector and spin flip.

    `eigh` runs on each block of `_flip_blocks`: the sectors n_up < N/2
    and, for even N, the flip-even and flip-odd halves of the middle
    sector. Flipping every spin maps sector k onto sector N - k, so sector
    N - k takes sector k's energies exactly and the negated Zeeman slope.
    """
    params = ModelParams(n_spins=n_spins, coupling=coupling)
    energies, blocks = [None] * (n_spins + 1), [None] * (n_spins + 1)
    middle = []
    for n_up, states, matrix in _flip_blocks(params):
        values, vectors = eigh_symmetric(matrix)
        if 2 * n_up == n_spins:
            middle.append((states, values, vectors))
            continue
        mirror_states = (((1 << n_spins) - 1) ^ states)[::-1]
        energies[n_up] = energies[n_spins - n_up] = values
        blocks[n_up] = (states, vectors)
        blocks[n_spins - n_up] = (mirror_states, vectors[::-1])
    if middle:
        energies[n_spins // 2], blocks[n_spins // 2] = _merge_middle(*middle)
    slopes = [np.full(e.size, zeeman_eigenvalue(n_spins, n_up)) for n_up, e in enumerate(energies)]
    return ChainSpectrum(
        n_spins=n_spins,
        coupling=coupling,
        energies=np.concatenate(energies),
        slopes=np.concatenate(slopes),
        blocks=tuple(blocks),
    )


def _flip_blocks(params: ModelParams):
    """Yield (n_up, basis states, matrix) for every block a ring's eigensolves
    need: each sector n_up < N/2, largest first (so the biggest solve runs
    before any eigenvectors are kept), then for even N the two halves from
    `_flip_parity_blocks`, each with the full middle-sector basis."""
    n = params.n_spins
    for n_up in reversed(range((n + 1) // 2)):
        sh = build_sector_hamiltonian(params, n_up)
        yield n_up, sh.basis.states, sh.matrix
    if n % 2 == 0:
        states, plus, minus = _flip_parity_blocks(params)
        yield n // 2, states, plus
        yield n // 2, states, minus


def _merge_middle(even, odd):
    """Energies (ascending) and (states, u, parity) block of the even-N middle
    sector from the (states, values, vectors) of its flip-even and flip-odd halves."""
    (states, values_p, u_p), (_, values_m, u_m) = even, odd
    # Stable, so a tie keeps the flip-even state first.
    order = np.argsort(np.concatenate([values_p, values_m]), kind="stable")
    parity = np.repeat([1.0, -1.0], values_p.size)[order]
    # C order keeps the row gathers of `_middle_features` fast.
    u = np.ascontiguousarray(np.hstack([u_p, u_m])[:, order])
    return np.concatenate([values_p, values_m])[order], (states, u, parity)


def _flip_parity_blocks(params: ModelParams):
    """Middle-sector basis and its flip-even and flip-odd halves H[m, m] +-
    H[m, flip(m)], where m is the first half of the ascending basis and flip(m)
    the second half reversed; the dense sector matrix is freed on return."""
    sh = build_sector_hamiltonian(params, params.n_spins // 2)
    half = sh.basis.dim // 2
    near, far = sh.matrix[:half, :half], sh.matrix[:half, ::-1][:, :half]
    return sh.basis.states, near + far, near - far


def weight_rows(spectrum: ChainSpectrum, b_values: np.ndarray, kt_values: np.ndarray):
    """Thermal weights of every eigenstate, one row per (B, kT) point.

    Each row's energies are shifted by its ground energy before
    exponentiation, so nothing overflows. A kT = 0 row mixes all
    eigenstates within DEGENERACY_TOL of the ground energy uniformly (this
    covers exact level crossings such as B = B_c).

    Returns (weights, ground energies, log Z + E_ground/kT per row, 0.0 at
    kT = 0); columns follow the spectrum's flat eigenstate order.
    """
    shifted = spectrum.energies + np.multiply.outer(b_values, spectrum.slopes)
    e0 = shifted.min(axis=1)
    shifted -= e0[:, None]
    cold = kt_values == 0.0
    w = np.empty_like(shifted)
    w[~cold] = np.exp(-shifted[~cold] / kt_values[~cold, None])
    w[cold] = shifted[cold] <= (DEGENERACY_TOL * np.maximum(1.0, np.abs(e0[cold])))[:, None]
    z = w.sum(axis=1)
    w /= z[:, None]
    return w, e0, np.where(cold, 0.0, np.log(z))


def gibbs_weights(spectrum: ChainSpectrum, b_field: float, kt: float) -> GibbsEnsemble:
    """Thermal weights over all eigenstates at field B >= 0 and temperature kT >= 0."""
    ModelParams(n_spins=spectrum.n_spins, coupling=spectrum.coupling, field=b_field, kt=kt)
    w, e0, log_z = weight_rows(spectrum, np.array([b_field], float), np.array([kt], float))
    return GibbsEnsemble(
        spectrum=spectrum,
        field=b_field,
        kt=kt,
        weights=w[0],
        log_z_shifted=float(log_z[0]),
        energy_origin=float(e0[0]),
    )


def pair_features(spectrum: ChainSpectrum, pairs) -> np.ndarray:
    """X-state features of each site pair (i, j) in every eigenstate.

    Returns a table of shape (eigenstates, pairs, 5), rows in the
    spectrum's flat eigenstate order. The five features are the pair
    populations p00, p01, p10, p11 (first slot site i, |0> = spin down) and
    the coherence z = <01|rho|10>. A real eigenstate of total S_z has no
    other nonzero pair-RDM entry.

    Features are computed from the vectors of the sectors n_up < N/2 and
    from u and the (m, flip(m)) row map of the even-N middle sector.
    Flipping every spin swaps the pair labels 00 <-> 11 and 01 <-> 10 and
    keeps z, so sector N - k's rows are sector k's with p00 <-> p11 and
    p01 <-> p10 swapped.
    """
    for i, j in pairs:
        _check_pair(spectrum.n_spins, i, j)
    n = spectrum.n_spins
    out = np.empty((spectrum.energies.size, len(pairs), 5))
    starts = np.cumsum([0] + [block[1].shape[1] for block in spectrum.blocks])
    for n_up, block in enumerate(spectrum.blocks):
        rows = slice(starts[n_up], starts[n_up + 1])
        if 2 * n_up < n:
            out[rows] = _sector_features(*block, pairs)
        elif 2 * n_up == n:
            out[rows] = _middle_features(*block, pairs)
        else:
            out[rows] = out[starts[n - n_up] : starts[n - n_up + 1], :, [3, 2, 1, 0, 4]]
    return out


def _sector_features(states: np.ndarray, v: np.ndarray, pairs) -> np.ndarray:
    """Features (eigenstates, pairs, 5) of eigenvector columns v over a sector basis."""
    f = np.empty((v.shape[1], len(pairs), 5))
    probs = v * v
    for p, (i, j) in enumerate(pairs):
        ab = _pair_labels(states, i, j)
        f[:, p, :4] = ((ab == np.arange(4)[:, None]) @ probs).T
        rows01, rows10 = exchange_partners(states, i, j)
        f[:, p, 4] = np.einsum("sk,sk->k", v[rows01], v[rows10])
    return f


def _middle_features(states: np.ndarray, u: np.ndarray, parity: np.ndarray, pairs) -> np.ndarray:
    """Features of the middle-sector eigenvectors (u, parity * u[::-1]) / sqrt(2).

    Basis row r < D/2 and row D-1-r both read u's row r; the latter is the
    flipped pattern, whose pair label is 3 - ab.
    """
    f = np.empty((u.shape[1], len(pairs), 5))
    half = u.shape[0]
    probs = u * u
    u_row = np.concatenate([np.arange(half), np.arange(half)[::-1]])
    flipped = np.arange(2 * half) >= half
    for p, (i, j) in enumerate(pairs):
        ab = _pair_labels(states[:half], i, j)
        counts = (ab == np.arange(4)[:, None]) @ probs
        f[:, p, :4] = 0.5 * (counts + counts[::-1]).T
        rows01, rows10 = exchange_partners(states, i, j)
        a, b = u_row[rows01], u_row[rows10]
        # A partner pair with one row in each half picks up the parity.
        cross = flipped[rows01] != flipped[rows10]
        same = np.einsum("sk,sk->k", u[a[~cross]], u[b[~cross]])
        mixed = np.einsum("sk,sk->k", u[a[cross]], u[b[cross]])
        f[:, p, 4] = 0.5 * (same + parity * mixed)
    return f


def pair_rdm(ensemble: GibbsEnsemble, i: int, j: int) -> PairDensityMatrix:
    """Reduced density matrix of sites (i, j) in the thermal state: the
    Boltzmann-weighted sum of the eigenstates' pair features as a 4x4 X-matrix."""
    n = ensemble.spectrum.n_spins
    p00, p01, p10, p11, z = ensemble.weights @ pair_features(ensemble.spectrum, [(i, j)])[:, 0]
    rho = np.diag([p00, p01, p10, p11])
    rho[1, 2] = rho[2, 1] = z
    return PairDensityMatrix(sites=(i, j), matrix=rho, separation=_separation(n, i, j)).validate()


def pure_state_pair_rdm(state, i: int, j: int, basis: SectorBasis | None = None) -> PairDensityMatrix:
    """Pair RDM of a pure state given over the full basis or a sector basis.

    Without an explicit `basis` the amplitude vector must have length 2^N
    and is indexed by the standard bit convention.
    """
    psi = np.asarray(state, dtype=np.complex128)
    if basis is None:
        n = _full_basis_spins(psi)
        patterns = np.arange(psi.size, dtype=np.int64)
    else:
        n = basis.n_spins
        if psi.shape != basis.states.shape:
            raise ParameterError("state length does not match the sector basis")
        patterns = basis.states
    _check_pair(n, i, j)
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= 1e-10:
        raise StateValidityError(f"state norm {norm} deviates from 1 beyond 1e-10")
    rest, rest_idx = np.unique(patterns & ~np.int64((1 << i) | (1 << j)), return_inverse=True)
    m = np.zeros((rest.size, 4), dtype=np.complex128)
    m[rest_idx, _pair_labels(patterns, i, j)] = psi
    rho = np.einsum("ra,rb->ab", m, m.conj())
    if np.abs(rho.imag).max() < 1e-15:
        rho = rho.real
    return PairDensityMatrix(sites=(i, j), matrix=rho, separation=_separation(n, i, j)).validate()


def _full_basis_spins(psi: np.ndarray) -> int:
    """N of an amplitude vector over the full 2^N basis; rejects any other length."""
    if psi.ndim != 1 or psi.size == 0 or psi.size & (psi.size - 1):
        raise ParameterError(f"full-basis state length {psi.size} is not a power of 2")
    return psi.size.bit_length() - 1


def _pair_labels(patterns: np.ndarray, i: int, j: int) -> np.ndarray:
    """Pair label 2a + b of each basis pattern, with a = bit i and b = bit j."""
    return 2 * ((patterns >> i) & 1) + ((patterns >> j) & 1)


def _separation(n_spins: int, i: int, j: int) -> int:
    d = abs(i - j)
    return min(d, n_spins - d)


def _check_pair(n_spins: int, i: int, j: int):
    if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
        raise ParameterError(f"sites ({i!r}, {j!r}) must be integers")
    if not (0 <= i < n_spins and 0 <= j < n_spins):
        raise ParameterError(f"sites ({i}, {j}) out of range for N={n_spins}")
    if i == j:
        raise ParameterError("pair sites must be distinct")
