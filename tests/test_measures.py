import numpy as np
import pytest

from spinchain import (
    DomainError,
    MeasurementError,
    ParameterError,
    analytic_two_qubit_concurrence,
    chsh_quantity,
    chsh_violated,
    concurrence,
    correlation_matrix,
    diagonalize_chain,
    eof_from_concurrence,
    gibbs_weights,
    mutual_information,
    pair_rdm,
    project_remaining_down,
    pure_state_pair_rdm,
    w_state,
)


def projector(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


SINGLET = projector([0, 1, -1, 0] / np.sqrt(2))
PSI_PLUS = projector([0, 1, 1, 0] / np.sqrt(2))
ZERO_ZERO = projector([1, 0, 0, 0])


def random_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestConcurrence:
    def test_singlet_is_maximally_entangled(self):
        res = concurrence(SINGLET)
        assert res.concurrence == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(res.lambdas) <= 0)

    def test_product_state(self):
        assert concurrence(ZERO_ZERO).concurrence == 0.0

    def test_werner_state_closed_form(self):
        # max(0, (3p-1)/2) at p = 0.8
        p = 0.8
        rho = p * SINGLET + (1 - p) * np.eye(4) / 4
        assert concurrence(rho).concurrence == pytest.approx(0.7, abs=1e-12)

    def test_complex_phase_state(self):
        # (|00> + i|11>)/sqrt(2) exercises the conjugation in the spin flip
        rho = projector(np.array([1, 0, 0, 1j]) / np.sqrt(2))
        assert concurrence(rho).concurrence == pytest.approx(1.0, abs=1e-12)

    def test_flush_to_zero(self):
        rho = (1 / 3 + 1e-14) * SINGLET + (2 / 3 - 1e-14) * np.eye(4) / 4
        assert concurrence(rho).concurrence == 0.0

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(7)
        rho = 0.6 * SINGLET + 0.4 * np.diag([0.4, 0.3, 0.2, 0.1])
        c0 = concurrence(rho).concurrence
        m0 = chsh_quantity(rho)
        for _ in range(10):
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert concurrence(rotated).concurrence == pytest.approx(c0, abs=1e-9)
            assert chsh_quantity(rotated) == pytest.approx(m0, abs=1e-9)


@pytest.mark.parametrize("measure", [concurrence, mutual_information, chsh_quantity])
def test_non_finite_pair_state_rejected(measure):
    for bad in (np.nan, np.inf):
        rho = SINGLET.copy()
        rho[1, 1] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            measure(rho)


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_half_concurrence(self):
        assert eof_from_concurrence(0.5) == pytest.approx(0.354579, abs=1e-6)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 1.0, 1000)
        vals = [eof_from_concurrence(c) for c in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eof_from_concurrence(1.5)
        with pytest.raises(DomainError):
            eof_from_concurrence(np.nan)


class TestAnalyticConcurrence:
    def test_zero_field_unit_temperature(self):
        expected = (np.exp(8) - 3) / (np.exp(8) + 3)
        assert analytic_two_qubit_concurrence(1.0, 0.0, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.997989, abs=1e-6)

    def test_threshold_temperature(self):
        kt = 8 / np.log(3)
        for b in (0.0, 1.0, 5.0):
            assert analytic_two_qubit_concurrence(1.0, b, kt) == 0.0
            assert analytic_two_qubit_concurrence(1.0, b, kt + 0.01) == 0.0

    def test_ferromagnet_never_entangled(self):
        for kt in (0.1, 1.0, 10.0):
            assert analytic_two_qubit_concurrence(-1.0, 2.0, kt) == 0.0

    def test_no_overflow_at_low_temperature(self):
        c = analytic_two_qubit_concurrence(2.0, 6.0, 0.05)
        # mathematically < 1, but indistinguishable from 1 in double precision
        assert 0.0 <= c <= 1.0

    def test_matches_numeric_pipeline_on_grid(self):
        for j in (0.5, 1.0, 2.0):
            sp = diagonalize_chain(2, j)
            for b in np.arange(0.0, 6.01, 0.5):
                for kt in np.geomspace(0.05, 10.0, 20):
                    num = concurrence(pair_rdm(gibbs_weights(sp, b, kt), 0, 1)).concurrence
                    ana = analytic_two_qubit_concurrence(j, b, kt)
                    assert abs(num - ana) < 1e-10

    def test_rejects_zero_temperature(self):
        with pytest.raises(DomainError):
            analytic_two_qubit_concurrence(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            analytic_two_qubit_concurrence(1.0, 0.0, np.nan)


class TestMutualInformation:
    def test_singlet(self):
        assert mutual_information(SINGLET) == pytest.approx(2.0, abs=1e-10)

    def test_product_state(self):
        assert mutual_information(ZERO_ZERO) == pytest.approx(0.0, abs=1e-12)

    def test_w_state_pair_against_entropy_oracle(self):
        n = 3
        rho = (2 / n) * PSI_PLUS + (1 - 2 / n) * ZERO_ZERO

        def entropy(m):
            lam = np.linalg.eigvalsh(m)
            lam = lam[lam > 1e-15]
            return float(-np.sum(lam * np.log2(lam)))

        rho_i = np.einsum("abcb->ac", rho.reshape(2, 2, 2, 2))
        rho_j = np.einsum("abad->bd", rho.reshape(2, 2, 2, 2))
        expected = entropy(rho_i) + entropy(rho_j) - entropy(rho)
        assert mutual_information(rho) == pytest.approx(expected, abs=1e-12)

    def test_entanglement_implies_correlation_on_thermal_states(self):
        sp = diagonalize_chain(6, 1.0)
        for b in (0.0, 2.0, 3.5):
            for kt in (0.1, 1.0, 3.0):
                rho = pair_rdm(gibbs_weights(sp, b, kt), 0, 1)
                if concurrence(rho).concurrence > 1e-9:
                    assert mutual_information(rho) > 0.0


class TestChsh:
    def test_singlet_violates_maximally(self):
        t = correlation_matrix(SINGLET)
        assert np.abs(t + np.eye(3)).max() < 1e-12
        m = chsh_quantity(SINGLET)
        assert m == pytest.approx(2.0, abs=1e-12)
        assert chsh_violated(m)

    def test_product_state_sits_at_threshold(self):
        t = correlation_matrix(ZERO_ZERO)
        assert np.abs(t - np.diag([0.0, 0.0, 1.0])).max() < 1e-12
        m = chsh_quantity(ZERO_ZERO)
        assert m == pytest.approx(1.0, abs=1e-12)
        assert not chsh_violated(m)

    def test_maximally_mixed(self):
        assert chsh_quantity(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)


class TestWState:
    def test_two_spins(self):
        psi = w_state(2)
        assert np.allclose(psi, [0, 1, 1, 0] / np.sqrt(2))

    def test_amplitudes_and_support(self):
        psi = w_state(3)
        hot = np.flatnonzero(psi)
        assert sorted(hot) == [1, 2, 4]
        assert np.allclose(psi[hot], 1 / np.sqrt(3))

    @pytest.mark.parametrize("n", range(2, 14))
    def test_pair_concurrence_is_two_over_n(self, n):
        rho = pure_state_pair_rdm(w_state(n), 0, 1)
        assert concurrence(rho).concurrence == pytest.approx(2 / n, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_one_magnon_ground_state_profile_in_window(self, n):
        # For even N the one-magnon ground state is the unique momentum-pi
        # magnon: |amp| = 1/sqrt(N) with alternating signs (signs not
        # asserted), and its pair concurrence matches the W value 2/N.
        # Odd N has a degenerate +-k doublet instead, whose thermal mixture
        # falls below 2/N; see the acceptance notes.
        from spinchain import magnetization_staircase

        st = magnetization_staircase(n, 1.0)
        b = (st.b_e + st.b_c_numeric) / 2
        sp = diagonalize_chain(n, 1.0)
        energies = (sp.energies + b * sp.slopes)[1 : n + 1]  # sector n_up = 1 follows n_up = 0
        ground = sp.blocks[1][1][:, np.argmin(energies)]
        assert np.allclose(np.abs(ground), 1 / np.sqrt(n), atol=1e-9)
        rho = pair_rdm(gibbs_weights(sp, b, 0.0), 0, 1)
        assert concurrence(rho).concurrence == pytest.approx(2 / n, abs=1e-9)


class TestProjectRemainingDown:
    def test_w_state_projects_onto_maximally_entangled_pair(self):
        pair, prob = project_remaining_down(w_state(4), 0, 1)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(pair, [0, 1, 1, 0] / np.sqrt(2))
        assert concurrence(projector(pair)).concurrence == pytest.approx(1.0, abs=1e-12)

    def test_all_down_state(self):
        psi = np.zeros(8)
        psi[0] = 1.0
        pair, prob = project_remaining_down(psi, 0, 2)
        assert prob == pytest.approx(1.0)
        assert np.allclose(pair, [1, 0, 0, 0])

    def test_all_up_state_has_zero_probability(self):
        psi = np.zeros(8)
        psi[-1] = 1.0
        with pytest.raises(MeasurementError):
            project_remaining_down(psi, 0, 1)
        with pytest.raises(MeasurementError):
            project_remaining_down(np.full(8, np.nan), 0, 1)
