"""Computational basis conventions and magnetization-sector enumeration.

Bit conventions used everywhere in this package:

* bit value 1 = spin up (sigma_z eigenvalue +1), bit value 0 = spin down,
* bit position i = ring site i, sites numbered 0..N-1,
* cyclic neighbor of site N-1 is site 0, so sites i and j are
  min(|i - j|, N - |i - j|) apart (`separation`).

With these signs a positive field B penalizes up spins, so the fully
polarized down state |00...0> is the large-B ground state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

MAX_SPINS = 14


def check_real(name: str, value, finite: bool = True):
    """Reject a `value` that is not a real number (a Python or numpy int or
    float), or with `finite` one that is not finite, by ParameterError."""
    if not (isinstance(value, numbers.Real) and (math.isfinite(value) or not finite)):
        raise ParameterError(f"{name} must be a {'finite ' if finite else ''}real number, got {value!r}")


def check_axis(name: str, values) -> np.ndarray:
    """`values` as a float64 array; ParameterError unless it is a nonempty
    finite 1-D sequence of real numbers."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not real numbers
        arr = None
    if arr is None or arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be a nonempty finite 1-D sequence of real numbers")
    return arr


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
            check_real(name, getattr(self, name))
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
    ModelParams(n_spins=n_spins, coupling=0.0)
    if not isinstance(n_up, (int, np.integer)):
        raise ParameterError(f"n_up must be an integer, got {n_up!r}")
    if not (0 <= n_up <= n_spins):
        raise ParameterError(f"n_up must be in [0, {n_spins}], got {n_up}")
    patterns = np.arange(1 << n_spins, dtype=np.int64)
    ups = sum((patterns >> site) & 1 for site in range(n_spins))
    return SectorBasis(n_spins=n_spins, n_up=n_up, states=patterns[ups == n_up])


def check_pair(n_spins: int, i: int, j: int):
    """Reject a site pair (i, j) that is not two distinct integer sites of the N-ring."""
    if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
        raise ParameterError(f"sites ({i!r}, {j!r}) must be integers")
    if not (0 <= i < n_spins and 0 <= j < n_spins):
        raise ParameterError(f"sites ({i}, {j}) out of range for N={n_spins}")
    if i == j:
        raise ParameterError("pair sites must be distinct")


def separation(n_spins: int, i: int, j: int) -> int:
    """Distance between sites i and j around the N-ring."""
    d = abs(i - j)
    return min(d, n_spins - d)
