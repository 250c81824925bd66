"""Two-qubit information measures and related pure-state constructions.

All measures act on a 4x4 pair density matrix over the standard basis
{|00>,|01>,|10>,|11>} (|0> = spin down). Complex entries are supported
throughout even though thermal ring states are real in this basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ModelParams, check_pair, check_real, separation
from .errors import DomainError, MeasurementError, ParameterError, StateValidityError

# Tolerance of every state check: on tr rho - 1, rho - rho^dag and the
# eigenvalues of a density matrix, and on ||psi||^2 - 1 of a pure state.
STATE_TOL = 1e-10

# Concurrence below this is reported as exactly 0 (keeps the
# entanglement length well-defined against roundoff).
FLUSH_TOL = 1e-12

# Single-qubit Paulis in the {|down>, |up>} ordering used by this package.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
# sigma_n (x) sigma_m for n, m in (x, y, z): the operators behind T_nm.
_PAULI_PRODUCTS = np.array(
    [[np.kron(sa, sb) for sb in (PAULI_X, PAULI_Y, PAULI_Z)] for sa in (PAULI_X, PAULI_Y, PAULI_Z)]
)
# Spin-flip matrix sigma_y (x) sigma_y, real and antidiagonal in the standard basis.
_SPIN_FLIP = _PAULI_PRODUCTS[1, 1].real


@dataclass(frozen=True)
class PairDensityMatrix:
    """4x4 reduced state of a spin pair over {|00>,|01>,|10>,|11>}.

    The first tensor slot is site i; |0> is spin down.
    """

    sites: tuple
    matrix: np.ndarray
    separation: int

    def validate(self) -> "PairDensityMatrix":
        if self.matrix.shape != (4, 4):
            raise StateValidityError(f"pair state must be 4x4, got {self.matrix.shape}")
        _check_state(self.matrix)
        return self


def _check_state(rho) -> np.ndarray:
    """Eigenvalues of a density matrix: a non-empty square matrix, Hermitian, of trace 1
    and without negative eigenvalues, each within STATE_TOL. Anything else raises
    StateValidityError."""
    r = np.asarray(rho, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.size == 0:
        raise StateValidityError(f"expected a non-empty square density matrix, got shape {r.shape}")
    if not np.abs(r - r.conj().T).max() <= STATE_TOL:
        raise StateValidityError(f"density matrix is not Hermitian within {STATE_TOL:g}")
    tr = np.real(np.trace(r))
    if not abs(tr - 1.0) <= STATE_TOL:
        raise StateValidityError(f"density matrix trace {tr} deviates from 1 beyond {STATE_TOL:g}")
    lam = np.linalg.eigvalsh(r)
    if not lam.min() >= -STATE_TOL:
        raise StateValidityError(f"density matrix has eigenvalue {lam.min()} below -{STATE_TOL:g}")
    return lam


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence plus the four spin-flip singular values, decreasing."""

    concurrence: float
    lambdas: np.ndarray


def _as_matrix(rho):
    """A pair state as a complex 4x4 matrix, with the eigenvalues its state check found."""
    if isinstance(rho, PairDensityMatrix):
        rho = rho.matrix
    m = np.asarray(rho, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ParameterError(f"expected a 4x4 pair state, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ParameterError("pair state has a non-finite entry")
    return m, _check_state(m)


def concurrence(rho) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit state.

    The square roots of the eigenvalues of rho (F rho* F) are computed as
    the singular values of Z = sqrt(rho) F conj(sqrt(rho)): Z Z^dag equals
    the Hermitian product sqrt(rho) rho_tilde sqrt(rho), and taking
    singular values avoids squaring, which would cost half the precision
    near pure states. C = max(l1 - l2 - l3 - l4, 0), flushed to 0 below
    FLUSH_TOL.
    """
    m = _as_matrix(rho)[0]
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    sqrt_m = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    lam = np.linalg.svd(sqrt_m @ _SPIN_FLIP @ sqrt_m.conj(), compute_uv=False)
    c = lam[0] - lam[1] - lam[2] - lam[3]
    c = 0.0 if c < FLUSH_TOL else float(c)
    return ConcurrenceResult(concurrence=c, lambdas=lam)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) = -x log2 x - (1-x) log2 (1-x), in bits.

    0 log 0 is taken as 0; inputs within 1e-12 outside [0, 1] are clamped.
    """
    check_real("x", x, finite=False)
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise DomainError(f"binary_entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return float(_entropy_bits(np.array([x, 1.0 - x])))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy S(rho) = -sum_k lambda_k log2 lambda_k, in bits.

    Eigenvalues in [-STATE_TOL, 0) are treated as roundoff and count as 0;
    a matrix that is not a density matrix raises StateValidityError.
    """
    return float(_entropy_bits(_check_state(rho)))


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis, counting p <= 0 as 0."""
    positive = p > 0.0
    return 0.0 - np.sum(np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0), axis=-1)


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation E = h((1 + sqrt(1 - C^2))/2), in ebits."""
    check_real("c", c, finite=False)
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise DomainError(f"concurrence {c} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def analytic_two_qubit_concurrence(coupling: float, b_field: float, kt: float) -> float:
    """Closed-form thermal concurrence of the N=2 ring.

    C = 0 when exp(8J/kT) <= 3, otherwise
    C = (e^{8J/kT} - 3) / (1 + e^{-2B/kT} + e^{2B/kT} + e^{8J/kT}).
    Every exponent is shifted in energy units, (E - max(8J, 2|B|, 0))/kT <= 0,
    so none overflows and a vanishing kT leaves no inf - inf. A J or B whose
    8|J| or 2|B| overflows float64 raises ParameterError.
    """
    for name, value in (("coupling", coupling), ("b_field", b_field), ("kt", kt)):
        check_real(name, value, finite=False)
    if not kt > 0:
        raise DomainError("analytic concurrence requires kT > 0; use the numeric T=0 path")
    if not (math.isfinite(coupling) and math.isfinite(b_field)):
        raise DomainError(f"analytic concurrence requires finite J and B, got J={coupling}, B={b_field}")
    if not math.isfinite(max(8.0 * abs(coupling), 2.0 * abs(b_field))):
        raise ParameterError(f"the N=2 levels overflow float64 at J={coupling}, B={b_field} (8|J| or 2|B|)")
    if 8.0 * coupling / kt <= math.log(3.0):
        return 0.0
    top = max(8.0 * coupling, 2.0 * abs(b_field), 0.0)
    singlet, triplet = math.exp((8.0 * coupling - top) / kt), math.exp(-top / kt)
    num = singlet - 3.0 * triplet
    den = triplet + math.exp((-2.0 * b_field - top) / kt) + math.exp((2.0 * b_field - top) / kt) + singlet
    return max(0.0, num / den)


def critical_temperature_two_qubit(coupling: float) -> float:
    """Temperature 8J/ln(3) above which the two-qubit ring is disentangled:
    the zero of `analytic_two_qubit_concurrence`, the same at every field.
    A J for which 8J/ln(3) overflows float64 raises ParameterError."""
    check_real("coupling", coupling)
    if not coupling > 0:
        raise ParameterError(f"critical temperature requires a finite antiferromagnetic J > 0, got {coupling}")
    kt = 8.0 * coupling / math.log(3.0)
    if math.isinf(kt):  # 8J overflowed before the division
        kt = 8.0 * (coupling / math.log(3.0))
    if not math.isfinite(kt):
        raise ParameterError(f"critical temperature 8J/ln(3) overflows float64 at J={coupling}")
    return kt


def _partial_traces(m: np.ndarray):
    m = m.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", m), np.einsum("abad->bd", m)


def mutual_information(rho) -> float:
    """Quantum mutual information I = S(rho_i) + S(rho_j) - S(rho_ij), in bits."""
    m, lam = _as_matrix(rho)
    rho_i, rho_j = _partial_traces(m)
    val = von_neumann_entropy(rho_i) + von_neumann_entropy(rho_j) - float(_entropy_bits(lam))
    return max(0.0, float(val))


def correlation_matrix(rho) -> np.ndarray:
    """3x3 spin correlation matrix T_nm = Tr[rho sigma_n (x) sigma_m]."""
    return np.real(np.einsum("ab,nmba->nm", _as_matrix(rho)[0], _PAULI_PRODUCTS))


def chsh_quantity(rho) -> float:
    """Horodecki CHSH quantity M: sum of the two largest eigenvalues of T^T T.

    The CHSH inequality is violated iff M > 1; the maximal CHSH value is
    2 sqrt(M).
    """
    t = correlation_matrix(rho)
    u = np.linalg.eigvalsh(t.T @ t)
    return float(u[-1] + u[-2])


def chsh_violated(m_value: float) -> bool:
    """Violation test with the absolute tolerance pinning product states at M=1.
    A NaN M raises DomainError rather than reading as "not violated"."""
    check_real("m_value", m_value, finite=False)
    if math.isnan(m_value):
        raise DomainError("CHSH quantity M is NaN")
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


def w_state(n_spins: int) -> np.ndarray:
    """Equal one-magnon superposition over the full 2^N basis."""
    ModelParams(n_spins=n_spins, coupling=0.0)
    psi = np.zeros(1 << n_spins)
    amp = 1.0 / math.sqrt(n_spins)
    for site in range(n_spins):
        psi[1 << site] = amp
    return psi


def project_remaining_down(state, i: int, j: int):
    """Measure every site except (i, j) in the down state.

    Returns (pair_state, probability) where pair_state is the normalized
    post-measurement amplitude vector over {|00>,|01>,|10>,|11>}: column 0
    of the state's `_pair_view`.
    """
    amps = _pair_view(np.asarray(state, dtype=np.complex128), i, j)[1][:, 0]
    prob = float(np.vdot(amps, amps).real)
    if not prob > 1e-30:
        raise MeasurementError(f"all-others-down outcome has probability {prob}, not above 1e-30")
    return amps / math.sqrt(prob), prob


def pure_state_pair_rdm(state, i: int, j: int) -> PairDensityMatrix:
    """Pair RDM m m^dag of a normalized pure state over the full 2^N basis,
    m the state's `_pair_view`."""
    n, m = _pair_view(np.asarray(state, dtype=np.complex128), i, j)
    rho = m @ m.conj().T
    if np.abs(rho.imag).max() < 1e-15:
        rho = rho.real
    return PairDensityMatrix(sites=(i, j), matrix=rho, separation=separation(n, i, j)).validate()


def _pair_view(psi: np.ndarray, i: int, j: int):
    """N and the (4, 2^(N-2)) view m of a full-basis state psi: m[2a + b, r]
    is the amplitude with spin i = a, spin j = b and the other spins in
    their r-th pattern, r = 0 being all down. A squared norm off 1 by more
    than STATE_TOL raises StateValidityError; NaN passes to the caller's check."""
    n = _full_basis_spins(psi)
    check_pair(n, i, j)
    norm2 = np.vdot(psi, psi).real
    if abs(norm2 - 1.0) > STATE_TOL:
        raise StateValidityError(f"state norm^2 {norm2} deviates from 1 beyond {STATE_TOL:g}")
    # Bit k of the index is axis N-1-k of psi as a (2,)*N tensor.
    return n, np.moveaxis(psi.reshape((2,) * n), (n - 1 - i, n - 1 - j), (0, 1)).reshape(4, -1)


def _full_basis_spins(psi: np.ndarray) -> int:
    """N of an amplitude vector over the full 2^N basis; rejects any other length."""
    if psi.ndim != 1 or psi.size == 0 or psi.size & (psi.size - 1):
        raise ParameterError(f"full-basis state length {psi.size} is not a power of 2")
    return psi.size.bit_length() - 1
