"""Exchange Hamiltonian of the Heisenberg ring, built per magnetization sector.

H = sum_i (B sigma_z^i + J sigma^i . sigma^{i+1}) with cyclic boundary
conditions. Only the exchange part is materialized: the Zeeman term is
constant within a sector (B times 2*n_up - N) and is added as a scalar
shift wherever energies are needed. Note that for N=2 the cyclic sum
visits the single (0,1) bond twice, which doubles the exchange energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ModelParams, SectorBasis, enumerate_sector, exchange_partners
from .errors import ParameterError


@dataclass(frozen=True)
class SectorHamiltonian:
    """Exchange part of the ring Hamiltonian restricted to one sector."""

    basis: SectorBasis
    matrix: np.ndarray


def build_sector_hamiltonian(params: ModelParams, n_up: int) -> SectorHamiltonian:
    """Build the dense exchange matrix J sum_i sigma^i . sigma^{i+1} on a sector.

    For every bond (i, i+1 mod N), aligned z-spins add +J and anti-aligned
    add -J on the diagonal, while sigma_x sigma_x + sigma_y sigma_y
    connects the two exchanged configurations with amplitude 2J.
    """
    n = params.n_spins
    j = params.coupling
    basis = enumerate_sector(n, n_up)
    states = basis.states
    diag = np.zeros(basis.dim)
    h = np.zeros((basis.dim, basis.dim))
    for a in range(n):
        b = (a + 1) % n
        diag += np.where(((states >> a) ^ (states >> b)) & 1, -j, j)
        rows, partners = exchange_partners(states, a, b)
        h[rows, partners] += 2.0 * j
        h[partners, rows] += 2.0 * j
    np.fill_diagonal(h, diag)
    return SectorHamiltonian(basis=basis, matrix=h)


def critical_field_closed_form(n_spins: int, coupling: float) -> float:
    """Field beyond which |00...0> is the T=0 ground state (antiferromagnet).

    4J for even N, 2J(1 + cos(pi/N)) for odd N; never exceeds 4J.
    """
    if n_spins < 2:
        raise ParameterError(f"n_spins must be >= 2, got {n_spins}")
    if not coupling > 0:
        raise ParameterError("critical field formula requires antiferromagnetic J > 0")
    if n_spins % 2 == 0:
        return 4.0 * coupling
    return 2.0 * coupling * (1.0 + math.cos(math.pi / n_spins))


def critical_temperature_two_qubit(coupling: float) -> float:
    """Temperature 8J/ln(3) above which the two-qubit ring is disentangled."""
    if not coupling > 0:
        raise ParameterError("critical temperature requires antiferromagnetic J > 0")
    return 8.0 * coupling / math.log(3.0)
