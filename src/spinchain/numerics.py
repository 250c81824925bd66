"""Numerical kernels: symmetric eigendecomposition and entropies."""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ParameterError, StateValidityError

LOG2 = np.log(2.0)


def eigh_symmetric(matrix: np.ndarray):
    """Full eigendecomposition of a real symmetric matrix, as `np.linalg.eigh`.

    Returns (values, vectors): ascending eigenvalues and the orthonormal
    eigenvector columns.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, np.abs(a).max())
    if not np.abs(a - a.T).max() <= 1e-12 * scale:
        raise ParameterError("matrix is not symmetric within 1e-12 relative tolerance")
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed on {a.shape[0]}x{a.shape[0]} matrix: {exc}") from exc


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) = -x log2 x - (1-x) log2 (1-x), in bits.

    0 log 0 is taken as 0; inputs within 1e-12 outside [0, 1] are clamped.
    """
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise DomainError(f"binary_entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    out = 0.0
    if x > 0.0:
        out -= x * np.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * np.log2(1.0 - x)
    return float(out)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy S(rho) = -sum_k lambda_k log2 lambda_k, in bits.

    Eigenvalues in [-1e-10, 0) are treated as roundoff and clamped to 0;
    anything more negative, a non-unit trace, a non-Hermitian input or a
    non-finite entry is rejected as an invalid state.
    """
    r = np.asarray(rho, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise StateValidityError(f"expected a square density matrix, got shape {r.shape}")
    if not np.abs(r - r.conj().T).max() <= 1e-10:
        raise StateValidityError("density matrix is not Hermitian within 1e-10")
    tr = np.real(np.trace(r))
    if not abs(tr - 1.0) <= 1e-9:
        raise StateValidityError(f"density matrix trace {tr} deviates from 1 beyond 1e-9")
    lam = np.linalg.eigvalsh(r)
    if lam.min() < -1e-10:
        raise StateValidityError(f"density matrix has eigenvalue {lam.min()} below -1e-10")
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))
