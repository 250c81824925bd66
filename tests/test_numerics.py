import warnings

import numpy as np
import pytest

from spinchain import (
    DomainError,
    NumericError,
    ParameterError,
    StateValidityError,
    binary_entropy,
    eigh_symmetric,
    von_neumann_entropy,
)


class TestEighSymmetric:
    def test_pauli_x_spectrum(self):
        values, _vectors = eigh_symmetric([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(values, [-1.0, 1.0])

    def test_identity(self):
        values, _vectors = eigh_symmetric(np.eye(3))
        assert np.allclose(values, 1.0)

    def test_two_by_two_closed_form(self):
        values, _vectors = eigh_symmetric([[-2.0, 4.0], [4.0, -2.0]])
        assert np.allclose(values, [-6.0, 2.0])

    @pytest.mark.parametrize("dim", [2, 6, 70, 924])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        a = a + a.T
        values, vectors = eigh_symmetric(a)
        recon = (vectors * values) @ vectors.T
        scale = max(1.0, np.abs(a).max())
        assert np.abs(recon - a).max() <= 1e-9 * scale
        assert np.abs(vectors.T @ vectors - np.eye(dim)).max() <= 1e-10
        assert np.all(np.diff(values) >= 0)

    def test_complex_hermitian_input(self):
        # Pauli Y: a cast to float64 would drop its imaginary part.
        pauli_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        values, vectors = eigh_symmetric(pauli_y)
        assert np.allclose(values, [-1.0, 1.0])
        assert np.abs(pauli_y @ vectors - vectors * values).max() <= 1e-15

    def test_rejects_non_hermitian_complex(self):
        with pytest.raises(ParameterError, match="Hermitian"):
            eigh_symmetric([[0.0, 1.0j], [1.0j, 0.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
    def test_rejects_non_finite_matrix_first(self, value):
        # Before the symmetry test, whose subtraction inf - inf would warn.
        a = np.array([[0.0, 1.0], [1.0, value]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="matrix must be finite"):
                eigh_symmetric(a)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ParameterError):
            eigh_symmetric([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ParameterError):
            eigh_symmetric([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ParameterError):
            eigh_symmetric(np.zeros((0, 0)))


    def test_solver_failure_is_a_numeric_error(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NumericError, match="eigensolver failed on 2x2 matrix: Eigenvalues did not converge"):
            eigh_symmetric(np.eye(2))


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_derived_value(self):
        # h at (1 + sqrt(1 - 0.25))/2, the C = 1/2 case of the EoF formula.
        x = (1.0 + np.sqrt(0.75)) / 2.0
        assert binary_entropy(x) == pytest.approx(0.354579, abs=1e-6)

    def test_symmetry(self):
        for x in np.linspace(0.0, 1.0, 101):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-15)

    def test_clamps_tiny_overshoot_but_rejects_more(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0
        with pytest.raises(DomainError):
            binary_entropy(1.01)
        with pytest.raises(DomainError):
            binary_entropy(np.nan)

    @pytest.mark.parametrize("x", ["x", None, 1j])
    def test_rejects_non_real_input(self, x):
        # A string compared with the bounds raised a bare TypeError.
        with pytest.raises(ParameterError, match="x must be a real number"):
            binary_entropy(x)


class TestVonNeumannEntropy:
    def test_pure_state_projector(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert von_neumann_entropy(np.outer(psi, psi)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_example(self):
        assert von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(0.811278, abs=1e-6)

    def test_rejects_bad_trace_and_negative_eigenvalue(self):
        with pytest.raises(StateValidityError):
            von_neumann_entropy(np.diag([0.8, 0.3]))
        with pytest.raises(StateValidityError):
            von_neumann_entropy(np.diag([1.1, -0.1]))
        with pytest.raises(StateValidityError):
            von_neumann_entropy(np.full((2, 2), np.nan))
        with pytest.raises(StateValidityError):
            von_neumann_entropy(np.zeros((0, 0)))
