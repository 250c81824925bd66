"""Closed forms of the Heisenberg ring's critical field and the two-qubit
ring's critical temperature.

H = sum_i (B sigma_z^i + J sigma^i . sigma^{i+1}) with cyclic boundary
conditions; `thermal.diagonalize_chain` solves it numerically.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError


def critical_field_closed_form(n_spins: int, coupling: float) -> float:
    """Field beyond which |00...0> is the T=0 ground state (antiferromagnet).

    4J for even N, 2J(1 + cos(pi/N)) for odd N; never exceeds 4J.
    """
    if not isinstance(n_spins, (int, np.integer)) or n_spins < 2:
        raise ParameterError(f"n_spins must be an integer >= 2, got {n_spins!r}")
    if not (coupling > 0 and math.isfinite(coupling)):
        raise ParameterError(f"critical field formula requires a finite antiferromagnetic J > 0, got {coupling}")
    if n_spins % 2 == 0:
        return 4.0 * coupling
    return 2.0 * coupling * (1.0 + math.cos(math.pi / n_spins))


def critical_temperature_two_qubit(coupling: float) -> float:
    """Temperature 8J/ln(3) above which the two-qubit ring is disentangled."""
    if not (coupling > 0 and math.isfinite(coupling)):
        raise ParameterError(f"critical temperature requires a finite antiferromagnetic J > 0, got {coupling}")
    return 8.0 * coupling / math.log(3.0)
