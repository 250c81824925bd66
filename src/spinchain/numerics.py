"""Numerical kernels: symmetric eigendecomposition and entropies."""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ParameterError, StateValidityError

def eigh_symmetric(matrix: np.ndarray):
    """Full eigendecomposition of a real symmetric or complex Hermitian
    matrix, as `np.linalg.eigh`.

    Returns (values, vectors): ascending eigenvalues and the orthonormal
    eigenvector columns, complex for a complex input.
    """
    a = np.asarray(matrix)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ParameterError(f"expected a non-empty square matrix, got shape {a.shape}")
    scale = max(1.0, np.abs(a).max())
    if not np.abs(a - a.conj().T).max() <= 1e-12 * scale:
        raise ParameterError("matrix is not Hermitian within 1e-12 relative tolerance")
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
    return float(_entropy_bits(np.array([x, 1.0 - x])))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy S(rho) = -sum_k lambda_k log2 lambda_k, in bits.

    Eigenvalues in [-1e-10, 0) are treated as roundoff and clamped to 0;
    anything more negative, a non-unit trace, a non-Hermitian input or a
    non-finite entry is rejected as an invalid state.
    """
    r = np.asarray(rho, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.size == 0:
        raise StateValidityError(f"expected a non-empty square density matrix, got shape {r.shape}")
    if not np.abs(r - r.conj().T).max() <= 1e-10:
        raise StateValidityError("density matrix is not Hermitian within 1e-10")
    tr = np.real(np.trace(r))
    if not abs(tr - 1.0) <= 1e-9:
        raise StateValidityError(f"density matrix trace {tr} deviates from 1 beyond 1e-9")
    lam = np.linalg.eigvalsh(r)
    if lam.min() < -1e-10:
        raise StateValidityError(f"density matrix has eigenvalue {lam.min()} below -1e-10")
    return float(_entropy_bits(lam))


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis, counting p <= 0 as 0."""
    positive = p > 0.0
    return 0.0 - np.sum(np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0), axis=-1)
