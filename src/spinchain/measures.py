"""Two-qubit information measures and related pure-state constructions.

All measures act on a 4x4 pair density matrix over the standard basis
{|00>,|01>,|10>,|11>} (|0> = spin down). Complex entries are supported
throughout even though thermal ring states are real in this basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MeasurementError, NumericError, ParameterError
from .numerics import binary_entropy, von_neumann_entropy
from .thermal import PairDensityMatrix, _check_pair, _full_basis_spins

# Concurrence below this is reported as exactly 0 (keeps the
# entanglement length well-defined against roundoff).
FLUSH_TOL = 1e-12

# Spin-flip matrix sigma_y (x) sigma_y, antidiagonal in the standard basis.
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)

# Single-qubit Paulis in the {|down>, |up>} ordering used by this package.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
# sigma_n (x) sigma_m for n, m in (x, y, z): the operators behind T_nm.
_PAULI_PRODUCTS = np.array(
    [[np.kron(sa, sb) for sb in (PAULI_X, PAULI_Y, PAULI_Z)] for sa in (PAULI_X, PAULI_Y, PAULI_Z)]
)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence plus the four spin-flip singular values, decreasing."""

    concurrence: float
    lambdas: np.ndarray


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, PairDensityMatrix):
        rho = rho.matrix
    m = np.asarray(rho, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ParameterError(f"expected a 4x4 pair state, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ParameterError("pair state has a non-finite entry")
    return m


def concurrence(rho) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit state.

    The square roots of the eigenvalues of rho (F rho* F) are computed as
    the singular values of Z = sqrt(rho) F conj(sqrt(rho)): Z Z^dag equals
    the Hermitian product sqrt(rho) rho_tilde sqrt(rho), and taking
    singular values avoids squaring, which would cost half the precision
    near pure states. C = max(l1 - l2 - l3 - l4, 0), flushed to 0 below
    FLUSH_TOL.
    """
    m = _as_matrix(rho)
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    if vals.min() < -1e-12:
        raise NumericError(f"input state has eigenvalue {vals.min()} below -1e-12")
    sqrt_m = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    lam = np.linalg.svd(sqrt_m @ _SPIN_FLIP @ sqrt_m.conj(), compute_uv=False)
    c = lam[0] - lam[1] - lam[2] - lam[3]
    c = 0.0 if c < FLUSH_TOL else float(c)
    return ConcurrenceResult(concurrence=c, lambdas=lam)


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation E = h((1 + sqrt(1 - C^2))/2), in ebits."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise DomainError(f"concurrence {c} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def analytic_two_qubit_concurrence(coupling: float, b_field: float, kt: float) -> float:
    """Closed-form thermal concurrence of the N=2 ring.

    C = 0 when exp(8J/kT) <= 3, otherwise
    C = (e^{8J/kT} - 3) / (1 + e^{-2B/kT} + e^{2B/kT} + e^{8J/kT}).
    Evaluated with all exponents shifted non-positive to avoid overflow.
    """
    if not kt > 0:
        raise DomainError("analytic concurrence requires kT > 0; use the numeric T=0 path")
    if 8.0 * coupling / kt <= math.log(3.0):
        return 0.0
    shift = max(8.0 * coupling, 2.0 * abs(b_field), 0.0) / kt
    num = math.exp(8.0 * coupling / kt - shift) - 3.0 * math.exp(-shift)
    den = (
        math.exp(-shift)
        + math.exp(-2.0 * b_field / kt - shift)
        + math.exp(2.0 * b_field / kt - shift)
        + math.exp(8.0 * coupling / kt - shift)
    )
    return max(0.0, num / den)


def single_site_rdms(rho) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces of a pair state onto its first and second site."""
    m = _as_matrix(rho).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", m), np.einsum("abad->bd", m)


def mutual_information(rho) -> float:
    """Quantum mutual information I = S(rho_i) + S(rho_j) - S(rho_ij), in bits."""
    rho_i, rho_j = single_site_rdms(rho)
    val = von_neumann_entropy(rho_i) + von_neumann_entropy(rho_j) - von_neumann_entropy(_as_matrix(rho))
    return max(0.0, float(val))


def correlation_matrix(rho) -> np.ndarray:
    """3x3 spin correlation matrix T_nm = Tr[rho sigma_n (x) sigma_m]."""
    return np.real(np.einsum("ab,nmba->nm", _as_matrix(rho), _PAULI_PRODUCTS))


def chsh_quantity(rho) -> float:
    """Horodecki CHSH quantity M: sum of the two largest eigenvalues of T^T T.

    The CHSH inequality is violated iff M > 1; the maximal CHSH value is
    2 sqrt(M).
    """
    t = correlation_matrix(rho)
    u = np.linalg.eigvalsh(t.T @ t)
    return float(u[-1] + u[-2])


def chsh_violated(m_value: float) -> bool:
    """Violation test with the absolute tolerance pinning product states at M=1."""
    return m_value > 1.0 + 1e-12


def x_state_eigenvalues(features) -> np.ndarray:
    """Eigenvalues (..., 4) of the states diag(p00, p01, p10, p11) + z (|01><10| + |10><01|)
    given as (..., 5) features (p00, p01, p10, p11, z)."""
    p00, p01, p10, p11, z = np.moveaxis(np.asarray(features, dtype=np.float64), -1, 0)
    mean = (p01 + p10) / 2.0
    radius = np.hypot((p01 - p10) / 2.0, z)
    return np.stack([p00, mean + radius, mean - radius, p11], axis=-1)


def x_state_measures(features):
    """C, E, I and M of the states of `x_state_eigenvalues`, elementwise.

    Closed forms of `concurrence` (flushed below FLUSH_TOL), `eof_from_concurrence`,
    `mutual_information` and `chsh_quantity` (Yu & Eberly, quant-ph/0503089;
    X. Wang, PRA 64, 012313): C = 2 max(0, |z| - sqrt(p00 p11)) and
    T = diag(2z, 2z, p00 - p01 - p10 + p11). Eigenvalues below 0 count as 0.
    """
    f = np.asarray(features, dtype=np.float64)
    p00, p01, p10, p11, z = np.moveaxis(f, -1, 0)
    c = 2.0 * (np.abs(z) - np.sqrt(p00 * p11))
    c = np.where(c < FLUSH_TOL, 0.0, c)
    x = (1.0 + np.sqrt(1.0 - np.minimum(c, 1.0) ** 2)) / 2.0
    e = _entropy_bits(np.stack([x, 1.0 - x], axis=-1))
    s_i = _entropy_bits(np.stack([p00 + p01, p10 + p11], axis=-1))
    s_j = _entropy_bits(np.stack([p00 + p10, p01 + p11], axis=-1))
    i = np.maximum(0.0, s_i + s_j - _entropy_bits(x_state_eigenvalues(f)))
    t_xx = 4.0 * z * z
    m = t_xx + np.maximum(t_xx, (p00 - p01 - p10 + p11) ** 2)
    return c, e, i, m


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis, counting p <= 0 as 0."""
    positive = p > 0.0
    return 0.0 - np.sum(np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0), axis=-1)


def w_state(n_spins: int) -> np.ndarray:
    """Equal one-magnon superposition over the full 2^N basis."""
    if n_spins < 2:
        raise ParameterError(f"n_spins must be >= 2, got {n_spins}")
    psi = np.zeros(1 << n_spins)
    amp = 1.0 / math.sqrt(n_spins)
    for site in range(n_spins):
        psi[1 << site] = amp
    return psi


def project_remaining_down(state, i: int, j: int):
    """Measure every site except (i, j) in the down state.

    Returns (pair_state, probability) where pair_state is the normalized
    post-measurement amplitude vector over {|00>,|01>,|10>,|11>}.
    """
    psi = np.asarray(state, dtype=np.complex128)
    n = _full_basis_spins(psi)
    _check_pair(n, i, j)
    amps = np.array([psi[(a << i) | (b << j)] for a in (0, 1) for b in (0, 1)])
    prob = float(np.vdot(amps, amps).real)
    if not prob > 1e-30:
        raise MeasurementError(f"all-others-down outcome has probability {prob}, not above 1e-30")
    return amps / math.sqrt(prob), prob
