import numpy as np
import pytest

from spinchain import (
    ParameterError,
    StateValidityError,
    diagonalize_chain,
    enumerate_sector,
    gibbs_weights,
    pair_rdm,
    pure_state_pair_rdm,
    w_state,
)
from oracles import dense_gibbs_state, dense_pair_rdm

SINGLET_RHO = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, -0.5, 0.0],
        [0.0, -0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=float,
)


class TestDiagonalizeChain:
    def test_two_spin_sector_energies(self):
        sp = diagonalize_chain(2, 1.0)
        assert np.allclose(sp.sectors[0].values, [2.0])
        assert np.allclose(sp.sectors[1].values, [-6.0, 2.0])
        assert np.allclose(sp.sectors[2].values, [2.0])
        assert sp.zeeman_slopes == (-2, 0, 2)

    def test_three_spin_sector_dimensions(self):
        sp = diagonalize_chain(3, 1.0)
        assert [sec.dim for sec in sp.sectors] == [1, 3, 3, 1]
        assert sp.exchange_energies().size == 8

    def test_six_spin_ground_energy_matches_dense_oracle(self):
        sp = diagonalize_chain(6, 1.0)
        dense = np.linalg.eigvalsh(dense_gibbs_oracle_hamiltonian())
        assert sp.sectors[3].values[0] == pytest.approx(dense[0], abs=1e-9)
        assert sp.sectors[3].values[0] == pytest.approx(-11.211, abs=1e-3)


def dense_gibbs_oracle_hamiltonian():
    from oracles import dense_hamiltonian

    h = dense_hamiltonian(6, 1.0, 0.0)
    return h.real


class TestGibbsWeights:
    def test_ferromagnet_zero_temperature_is_triplet_mixture(self):
        sp = diagonalize_chain(2, -1.0)
        ens = gibbs_weights(sp, 0.0, 0.0)
        flat = np.concatenate(ens.weights)
        # triplet states: all-down, symmetric one-up combo, all-up
        assert np.allclose(sorted(flat), [0.0, 1 / 3, 1 / 3, 1 / 3])

    def test_antiferromagnet_zero_temperature_is_pure_singlet(self):
        sp = diagonalize_chain(2, 1.0)
        ens = gibbs_weights(sp, 0.0, 0.0)
        assert np.allclose(np.concatenate(ens.weights), [0.0, 1.0, 0.0, 0.0])

    def test_singlet_weight_at_unit_temperature(self):
        sp = diagonalize_chain(2, 1.0)
        ens = gibbs_weights(sp, 0.0, 1.0)
        assert ens.weights[1][0] == pytest.approx(np.exp(8) / (np.exp(8) + 3), abs=1e-12)

    def test_crossing_point_mixes_both_ground_states(self):
        sp = diagonalize_chain(2, 1.0)
        ens = gibbs_weights(sp, 4.0, 0.0)  # B_c: singlet and |00> degenerate
        flat = np.concatenate(ens.weights)
        assert np.allclose(sorted(flat), [0.0, 0.0, 0.5, 0.5])

    @pytest.mark.parametrize("b,kt", [(-1.0, 1.0), (1.0, -0.5), (np.nan, 1.0), (1.0, np.inf)])
    def test_rejects_point_outside_domain(self, b, kt):
        with pytest.raises(ParameterError):
            gibbs_weights(diagonalize_chain(2, 1.0), b, kt)

    @pytest.mark.parametrize(
        "coupling,kt,expected,tol",
        [
            (0.0, 3.7, [0.25, 0.25, 0.25, 0.25], 0.0),  # degenerate levels share equally
            (1.0, 1e9, [0.25, 0.25, 0.25, 0.25], 1e-8),  # high-temperature limit
            (1.0, 1e-4, [0.0, 1.0, 0.0, 0.0], 0.0),  # singlet only, no overflow
            (1.0, 1.0, np.array([1.0, np.exp(8), 1.0, 1.0]) / (np.exp(8) + 3), 1e-12),
        ],
        ids=["degenerate", "hot", "cold", "unit"],
    )
    def test_two_spin_weight_limits(self, coupling, kt, expected, tol):
        flat = np.concatenate(gibbs_weights(diagonalize_chain(2, coupling), 0.0, kt).weights)
        assert np.abs(flat - expected).max() <= tol

    def test_weights_form_simplex(self):
        sp = diagonalize_chain(5, 1.0)
        for b, kt in [(0.0, 0.3), (3.0, 2.0), (6.0, 10.0)]:
            flat = np.concatenate(gibbs_weights(sp, b, kt).weights)
            assert flat.min() >= 0
            assert flat.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("b,kt", [(0.5, 0.8), (2.0, 1.5), (4.2, 3.0)])
    def test_energy_bookkeeping_against_logz_derivative(self, b, kt):
        sp = diagonalize_chain(5, 1.0)

        def log_z(beta):
            ens = gibbs_weights(sp, b, 1.0 / beta)
            return ens.log_z_shifted - beta * ens.energy_origin

        beta = 1.0 / kt
        h = 1e-6 * beta
        u_fd = -(log_z(beta + h) - log_z(beta - h)) / (2 * h)
        u = gibbs_weights(sp, b, kt).mean_energy()
        assert u == pytest.approx(u_fd, rel=1e-5)


class TestPairRdm:
    def test_singlet_ground_state(self):
        sp = diagonalize_chain(2, 1.0)
        rho = pair_rdm(gibbs_weights(sp, 0.0, 0.0), 0, 1)
        assert np.abs(rho.matrix - SINGLET_RHO).max() < 1e-12

    def test_polarized_ground_state_beyond_critical_field(self):
        sp = diagonalize_chain(4, 1.0)
        rho = pair_rdm(gibbs_weights(sp, 10.0, 0.0), 0, 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_w_state_pair_form(self):
        # (2/N)|psi+><psi+| + (1 - 2/N)|00><00| for the one-magnon state
        n = 3
        rho = pure_state_pair_rdm(w_state(n), 0, 1)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1 - 2 / n
        expected[1:3, 1:3] = 1 / n
        assert np.abs(rho.matrix - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_brute_force_partial_trace(self, n):
        sp = diagonalize_chain(n, 1.0)
        for b in (0.0, 2.0, 4.5):
            for kt in (0.2, 1.0, 5.0):
                dense_rho = dense_gibbs_state(n, 1.0, b, kt)
                for d in range(1, n // 2 + 1):
                    got = pair_rdm(gibbs_weights(sp, b, kt), 0, d).matrix
                    want = dense_pair_rdm(dense_rho, n, 0, d)
                    assert np.abs(got - want).max() < 1e-9

    def test_translation_invariance(self):
        sp = diagonalize_chain(6, 1.0)
        ens = gibbs_weights(sp, 3.5, 0.4)
        for d in (1, 2, 3):
            ref = pair_rdm(ens, 0, d).matrix
            for i in range(1, 6):
                other = pair_rdm(ens, i, (i + d) % 6).matrix
                assert np.abs(other - ref).max() < 1e-10

    def test_reflection_invariance(self):
        sp = diagonalize_chain(5, 1.0)
        ens = gibbs_weights(sp, 1.0, 0.7)
        rho_ij = pair_rdm(ens, 1, 3).matrix
        rho_ji = pair_rdm(ens, 3, 1).matrix
        assert np.abs(rho_ij - SWAP @ rho_ji @ SWAP).max() < 1e-12

    def test_low_temperature_matches_dense_oracle(self):
        # At kT=0.05 nearly every weight underflows; the full weighted sum
        # must still reproduce the brute-force partial trace.
        sp = diagonalize_chain(6, 1.0)
        got = pair_rdm(gibbs_weights(sp, 2.0, 0.05), 0, 1).matrix
        want = dense_pair_rdm(dense_gibbs_state(6, 1.0, 2.0, 0.05), 6, 0, 1)
        assert np.abs(got - want).max() < 1e-10

    def test_commutes_with_pair_magnetization(self):
        sp = diagonalize_chain(6, 1.0)
        rho = pair_rdm(gibbs_weights(sp, 1.5, 0.8), 0, 2).matrix
        mz = np.diag([-2.0, 0.0, 0.0, 2.0])
        assert np.abs(rho @ mz - mz @ rho).max() < 1e-10

    def test_invalid_pairs_rejected(self):
        sp = diagonalize_chain(4, 1.0)
        ens = gibbs_weights(sp, 0.0, 1.0)
        with pytest.raises(ParameterError):
            pair_rdm(ens, 2, 2)
        with pytest.raises(ParameterError):
            pair_rdm(ens, 0, 4)


class TestPureStatePairRdm:
    def test_sector_basis_input(self):
        basis = enumerate_sector(4, 1)
        amp = np.full(basis.dim, 0.5)
        rho = pure_state_pair_rdm(amp, 0, 1, basis=basis)
        full = pure_state_pair_rdm(w_state(4), 0, 1)
        assert np.abs(rho.matrix - full.matrix).max() < 1e-12

    def test_unnormalized_state_rejected(self):
        with pytest.raises(StateValidityError):
            pure_state_pair_rdm(np.full(4, 0.9), 0, 1)
