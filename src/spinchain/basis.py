"""Computational basis conventions and magnetization-sector enumeration.

Bit conventions used everywhere in this package:

* bit value 1 = spin up (sigma_z eigenvalue +1), bit value 0 = spin down,
* bit position i = ring site i, sites numbered 0..N-1,
* cyclic neighbor of site N-1 is site 0.

With these signs a positive field B penalizes up spins, so the fully
polarized down state |00...0> is the large-B ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

MAX_SPINS = 14


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the isotropic Heisenberg ring in a uniform field.

    Temperature is expressed as kT in energy units (Boltzmann constant
    fixed to 1). J > 0 is the antiferromagnet, J < 0 the ferromagnet.
    """

    n_spins: int
    coupling: float
    field: float = 0.0
    kt: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n_spins, (int, np.integer)) or not (2 <= self.n_spins <= MAX_SPINS):
            raise ParameterError(f"n_spins must be an integer in [2, {MAX_SPINS}], got {self.n_spins!r}")
        for name in ("coupling", "field", "kt"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterError(f"{name} must be finite, got {v}")
        if self.field < 0:
            raise ParameterError(f"field must be >= 0, got {self.field}")
        if self.kt < 0:
            raise ParameterError(f"kt must be >= 0, got {self.kt}")


@dataclass(frozen=True)
class SectorBasis:
    """All N-bit patterns with a fixed number of up spins, ascending."""

    n_spins: int
    n_up: int
    states: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.states)


def enumerate_sector(n_spins: int, n_up: int) -> SectorBasis:
    """Enumerate the magnetization sector with `n_up` up spins.

    Returns the basis states in ascending numeric order.
    """
    _check_sector_args(n_spins, n_up)
    patterns = np.arange(1 << n_spins, dtype=np.int64)
    ups = sum((patterns >> site) & 1 for site in range(n_spins))
    return SectorBasis(n_spins=n_spins, n_up=n_up, states=patterns[ups == n_up])


def exchange_partners(states: np.ndarray, a: int, b: int):
    """Pair up the patterns that swapping the spins of sites a and b connects.

    Returns (rows, partners): the positions in the ascending `states` of
    every pattern with bit a = 0 and bit b = 1, and of the same patterns
    with those two bits swapped, found by bisection.
    """
    flip = (1 << a) | (1 << b)
    rows = np.flatnonzero((states & flip) == 1 << b)
    return rows, np.searchsorted(states, states[rows] ^ flip)


def zeeman_eigenvalue(n_spins: int, n_up: int) -> int:
    """Eigenvalue of the total sigma_z operator on the sector: 2*n_up - N.

    The Zeeman energy of every state in the sector is B times this value.
    """
    _check_sector_args(n_spins, n_up)
    return 2 * n_up - n_spins


def _check_sector_args(n_spins: int, n_up: int):
    ModelParams(n_spins=n_spins, coupling=0.0)
    if not isinstance(n_up, (int, np.integer)):
        raise ParameterError(f"n_up must be an integer, got {n_up!r}")
    if not (0 <= n_up <= n_spins):
        raise ParameterError(f"n_up must be in [0, {n_spins}], got {n_up}")
