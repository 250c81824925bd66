"""Gibbs states over sector eigenstates and two-site reduced density matrices.

The full 2^N density matrix is never materialized. The chain is
diagonalized once per (N, J); the field only shifts sector energies, so
one spectrum serves every (B, kT) point of a scan. Every eigenstate lies in
one S_z sector and is real, so its reduced state on a pair of sites is an
X-state fixed by five numbers (p00, p01, p10, p11, z). A thermal pair RDM is
the Boltzmann-weighted sum of those five numbers over the eigenstates.
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
    """Exchange Hamiltonian of a ring in diagonalized, sector-blocked form."""

    n_spins: int
    coupling: float
    bases: tuple
    sectors: tuple  # EigenDecomposition per n_up
    zeeman_slopes: tuple  # 2*n_up - N per sector

    def exchange_energies(self) -> np.ndarray:
        """Concatenated exchange eigenvalues, sector order n_up = 0..N."""
        return np.concatenate([sec.values for sec in self.sectors])


@dataclass(frozen=True)
class GibbsEnsemble:
    """Thermal weights of every eigenstate at one (B, kT) point."""

    spectrum: ChainSpectrum
    field: float
    kt: float
    weights: tuple  # one simplex slice per sector
    log_z_shifted: float  # log Z + E_ground/kT (0.0 at kT = 0)
    energy_origin: float  # ground energy used as the shift

    def energies(self) -> np.ndarray:
        """Concatenated total energies (exchange + Zeeman), sector order."""
        sp = self.spectrum
        return np.concatenate(
            [sec.values + self.field * slope for sec, slope in zip(sp.sectors, sp.zeeman_slopes)]
        )

    def mean_energy(self) -> float:
        return float(np.dot(self.energies(), np.concatenate(self.weights)))


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
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise StateValidityError("pair state is not Hermitian within 1e-12")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > 1e-10:
            raise StateValidityError(f"pair state trace {tr} deviates from 1 beyond 1e-10")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise StateValidityError("pair state has eigenvalue below -1e-10")
        return self


def diagonalize_chain(n_spins: int, coupling: float) -> ChainSpectrum:
    """Diagonalize every magnetization sector of the exchange Hamiltonian."""
    params = ModelParams(n_spins=n_spins, coupling=coupling)
    bases, sectors, slopes = [], [], []
    for n_up in range(n_spins + 1):
        sh = build_sector_hamiltonian(params, n_up)
        bases.append(sh.basis)
        sectors.append(eigh_symmetric(sh.matrix))
        slopes.append(zeeman_eigenvalue(n_spins, n_up))
    return ChainSpectrum(
        n_spins=n_spins,
        coupling=coupling,
        bases=tuple(bases),
        sectors=tuple(sectors),
        zeeman_slopes=tuple(slopes),
    )


def weight_rows(spectrum: ChainSpectrum, b_values: np.ndarray, kt_values: np.ndarray):
    """Thermal weights of every eigenstate, one row per (B, kT) point.

    Each row's energies are shifted by its ground energy before
    exponentiation, so nothing overflows. A kT = 0 row mixes all
    eigenstates within DEGENERACY_TOL of the ground energy uniformly (this
    covers exact level crossings such as B = B_c).

    Returns (weights, ground energies, log Z + E_ground/kT per row, 0.0 at
    kT = 0); columns follow the sector order of `exchange_energies`.
    """
    slopes = np.repeat(spectrum.zeeman_slopes, [sec.dim for sec in spectrum.sectors])
    shifted = spectrum.exchange_energies() + np.multiply.outer(b_values, slopes)
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
    sizes = [sec.dim for sec in spectrum.sectors]
    return GibbsEnsemble(
        spectrum=spectrum,
        field=b_field,
        kt=kt,
        weights=tuple(np.split(w[0], np.cumsum(sizes)[:-1])),
        log_z_shifted=float(log_z[0]),
        energy_origin=float(e0[0]),
    )


def pair_features(spectrum: ChainSpectrum, i: int, j: int) -> np.ndarray:
    """X-state features of sites (i, j) in every eigenstate, (eigenstates, 5).

    Columns are the pair populations p00, p01, p10, p11 (first slot site i,
    |0> = spin down) and the coherence z = <01|rho|10>; rows follow the
    sector order of `exchange_energies`. A real eigenstate of total S_z has
    no other nonzero pair-RDM entry.
    """
    _check_pair(spectrum.n_spins, i, j)
    out = []
    for basis, sec in zip(spectrum.bases, spectrum.sectors):
        v = sec.vectors
        ab = _pair_labels(basis.states, i, j)
        f = np.empty((sec.dim, 5))
        f[:, :4] = ((ab == np.arange(4)[:, None]) @ (v * v)).T
        rows01, rows10 = exchange_partners(basis.states, i, j)
        f[:, 4] = np.einsum("sk,sk->k", v[rows01], v[rows10])
        out.append(f)
    return np.concatenate(out)


def pair_rdm(ensemble: GibbsEnsemble, i: int, j: int) -> PairDensityMatrix:
    """Reduced density matrix of sites (i, j) in the thermal state: the
    Boltzmann-weighted sum of the eigenstates' pair features as a 4x4 X-matrix."""
    n = ensemble.spectrum.n_spins
    p00, p01, p10, p11, z = np.concatenate(ensemble.weights) @ pair_features(ensemble.spectrum, i, j)
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
        n = int(round(np.log2(psi.size)))
        if psi.ndim != 1 or (1 << n) != psi.size:
            raise ParameterError(f"full-basis state length {psi.size} is not a power of 2")
        patterns = np.arange(psi.size, dtype=np.int64)
    else:
        n = basis.n_spins
        if psi.shape != basis.states.shape:
            raise ParameterError("state length does not match the sector basis")
        patterns = basis.states
    _check_pair(n, i, j)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise StateValidityError(f"state norm {norm} deviates from 1 beyond 1e-10")
    rest, rest_idx = np.unique(patterns & ~np.int64((1 << i) | (1 << j)), return_inverse=True)
    m = np.zeros((rest.size, 4), dtype=np.complex128)
    m[rest_idx, _pair_labels(patterns, i, j)] = psi
    rho = np.einsum("ra,rb->ab", m, m.conj())
    if np.abs(rho.imag).max() < 1e-15:
        rho = rho.real
    return PairDensityMatrix(sites=(i, j), matrix=rho, separation=_separation(n, i, j)).validate()


def _pair_labels(patterns: np.ndarray, i: int, j: int) -> np.ndarray:
    """Pair label 2a + b of each basis pattern, with a = bit i and b = bit j."""
    return 2 * ((patterns >> i) & 1) + ((patterns >> j) & 1)


def _separation(n_spins: int, i: int, j: int) -> int:
    d = abs(i - j)
    return min(d, n_spins - d)


def _check_pair(n_spins: int, i: int, j: int):
    if not (0 <= i < n_spins and 0 <= j < n_spins):
        raise ParameterError(f"sites ({i}, {j}) out of range for N={n_spins}")
    if i == j:
        raise ParameterError("pair sites must be distinct")
