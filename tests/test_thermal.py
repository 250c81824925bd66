import numpy as np
import pytest

from spinchain import (
    ModelParams,
    ParameterError,
    StateValidityError,
    build_sector_hamiltonian,
    diagonalize_chain,
    enumerate_sector,
    gibbs_weights,
    magnetization_staircase,
    pair_rdm,
    project_remaining_down,
    pure_state_pair_rdm,
    w_state,
)
from spinchain.thermal import PairDensityMatrix, pair_features, weight_rows
from oracles import all_sector_features, all_sector_spectrum, dense_gibbs_state, dense_pair_rdm

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
        # Sectors n_up = 0, 1, 2 in turn: [2.0], [-6.0, 2.0], [2.0].
        assert np.allclose(sp.energies, [2.0, -6.0, 2.0, 2.0])
        assert sp.slopes.tolist() == [-2, 0, 0, 2]

    def test_three_spin_sector_dimensions(self):
        sp = diagonalize_chain(3, 1.0)
        assert [vectors.shape[1] for _states, vectors in sp.blocks] == [1, 3, 3, 1]
        assert sp.energies.size == 8

    def test_six_spin_ground_energy_matches_dense_oracle(self):
        sp = diagonalize_chain(6, 1.0)
        dense = np.linalg.eigvalsh(dense_gibbs_oracle_hamiltonian())
        sector_3_ground = sp.energies[sp.slopes == 0][0]  # n_up = 3, ascending
        assert sector_3_ground == pytest.approx(dense[0], abs=1e-9)
        assert sector_3_ground == pytest.approx(-11.211, abs=1e-3)


    @pytest.mark.parametrize("n", range(2, 10))
    def test_flipped_sectors_mirror_exactly(self, n):
        sp = diagonalize_chain(n, 0.7)
        rows = sector_rows(sp)
        pairs = [(i, k) for i in range(n) for k in range(n) if i != k]
        f = pair_features(sp, pairs)
        for n_up in range(n + 1):
            assert np.all(np.diff(sp.energies[rows[n_up]]) >= 0), n_up
            assert np.all(sp.slopes[rows[n_up]] == 2 * n_up - n)
        for k in range((n + 1) // 2):
            mine, mirror = rows[k], rows[n - k]
            assert np.array_equal(sp.energies[mirror], sp.energies[mine])
            assert np.array_equal(sp.slopes[mirror], -sp.slopes[mine])
            assert np.array_equal(f[mirror], f[mine][:, :, [3, 2, 1, 0, 4]])

    @pytest.mark.parametrize("n", range(2, 10))
    def test_blocks_hold_orthonormal_eigenvectors(self, n):
        sp = diagonalize_chain(n, -1.3)
        rows = sector_rows(sp)
        for n_up, block in enumerate(sp.blocks):
            v = block_vectors(block)
            h = build_sector_hamiltonian(ModelParams(n, -1.3), n_up)
            assert np.array_equal(block[0], h.basis.states)
            assert np.abs(v.T @ v - np.eye(v.shape[1])).max() < 1e-12
            assert np.abs(h.matrix @ v - v * sp.energies[rows[n_up]]).max() < 1e-12

    @pytest.mark.parametrize("j", [1.0, -1.0, 0.5, 0.0])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_pair_states_match_all_sector_path(self, n, j):
        # One eigh per sector, without the spin flip, must give the same
        # W @ F pair states for every ordered pair, at kT = 0 too. For J > 0
        # the B values include the staircase crossings, where the kT = 0
        # ground manifold spans two sectors.
        sp, ref = diagonalize_chain(n, j), all_sector_spectrum(n, j)
        pairs = [(i, k) for i in range(n) for k in range(n) if i != k]
        b_values = [0.0, 0.3, 1.7, 4.5]
        if j > 0:
            b_values += [c.b_value for c in magnetization_staircase(n, j).crossings]
        b = np.repeat(b_values, 3)
        kt = np.tile([0.0, 0.05, 1.0], len(b_values))
        got = weight_rows(sp, b, kt)[0] @ pair_features(sp, pairs).transpose(1, 0, 2)
        want = weight_rows(ref, b, kt)[0] @ all_sector_features(ref, pairs).transpose(1, 0, 2)
        assert np.abs(got - want).max() < 1e-12


def sector_rows(spectrum):
    """Slice of the flat eigen-table held by each sector n_up = 0..N."""
    ends = np.cumsum([block[1].shape[1] for block in spectrum.blocks])
    return [slice(end - block[1].shape[1], end) for block, end in zip(spectrum.blocks, ends)]


def block_vectors(block):
    """Eigenvector columns of one `blocks` entry, over its sector basis."""
    if len(block) == 2:
        return block[1]
    _states, u, parity = block
    return np.vstack([u, parity * u[::-1]]) / np.sqrt(2.0)


def dense_gibbs_oracle_hamiltonian():
    from oracles import dense_hamiltonian

    h = dense_hamiltonian(6, 1.0, 0.0)
    return h.real


class TestGibbsWeights:
    def test_ferromagnet_zero_temperature_is_triplet_mixture(self):
        sp = diagonalize_chain(2, -1.0)
        ens = gibbs_weights(sp, 0.0, 0.0)
        # triplet states: all-down, symmetric one-up combo, all-up
        assert np.allclose(sorted(ens.weights), [0.0, 1 / 3, 1 / 3, 1 / 3])

    def test_antiferromagnet_zero_temperature_is_pure_singlet(self):
        sp = diagonalize_chain(2, 1.0)
        ens = gibbs_weights(sp, 0.0, 0.0)
        assert np.allclose(ens.weights, [0.0, 1.0, 0.0, 0.0])

    def test_singlet_weight_at_unit_temperature(self):
        sp = diagonalize_chain(2, 1.0)
        ens = gibbs_weights(sp, 0.0, 1.0)
        assert ens.weights[1] == pytest.approx(np.exp(8) / (np.exp(8) + 3), abs=1e-12)

    def test_crossing_point_mixes_both_ground_states(self):
        sp = diagonalize_chain(2, 1.0)
        ens = gibbs_weights(sp, 4.0, 0.0)  # B_c: singlet and |00> degenerate
        assert np.allclose(sorted(ens.weights), [0.0, 0.0, 0.5, 0.5])

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
        flat = gibbs_weights(diagonalize_chain(2, coupling), 0.0, kt).weights
        assert np.abs(flat - expected).max() <= tol

    def test_weights_form_simplex(self):
        sp = diagonalize_chain(5, 1.0)
        for b, kt in [(0.0, 0.3), (3.0, 2.0), (6.0, 10.0)]:
            flat = gibbs_weights(sp, b, kt).weights
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

    # Ring states for the symmetry tests: odd and even N, both signs of J,
    # and kT = 0 (where the ground manifold must be mixed as a whole).
    SYMMETRY_CASES = [
        (6, 1.0, 3.5, 0.4),
        (5, 1.0, 1.0, 0.7),
        (3, 1.0, 0.5, 0.0),
        (4, 1.0, 0.0, 0.0),
        (7, 1.0, 3.7, 0.0),
        (8, 1.0, 2.0, 0.0),
        (5, -1.0, 0.0, 0.0),
        (8, -1.0, 0.3, 0.5),
        (7, -1.0, 1.0, 0.0),
    ]

    def test_translation_invariance(self):
        for n, j, b, kt in self.SYMMETRY_CASES:
            ens = gibbs_weights(diagonalize_chain(n, j), b, kt)
            for d in range(1, n // 2 + 1):
                ref = pair_rdm(ens, 0, d).matrix
                for i in range(1, n):
                    other = pair_rdm(ens, i, (i + d) % n).matrix
                    assert np.abs(other - ref).max() < 1e-10, (n, j, b, kt, i, d)

    def test_reflection_invariance(self):
        for n, j, b, kt in self.SYMMETRY_CASES:
            ens = gibbs_weights(diagonalize_chain(n, j), b, kt)
            for i in range(n):
                for k in range(n):
                    if i == k:
                        continue
                    rho_ik = pair_rdm(ens, i, k).matrix
                    # Swapping the two sites swaps the tensor slots ...
                    rho_ki = pair_rdm(ens, k, i).matrix
                    assert np.abs(rho_ik - SWAP @ rho_ki @ SWAP).max() < 1e-12, (n, j, b, kt, i, k)
                    # ... and mirroring the ring (site s -> -s) leaves the state unchanged.
                    rho_mirror = pair_rdm(ens, -i % n, -k % n).matrix
                    assert np.abs(rho_ik - rho_mirror).max() < 1e-10, (n, j, b, kt, i, k)

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

    def test_nan_pair_state_fails_validation(self):
        rho = SINGLET_RHO.copy()
        rho[1, 2] = rho[2, 1] = np.nan
        with pytest.raises(StateValidityError):
            PairDensityMatrix(sites=(0, 1), matrix=rho, separation=1).validate()

    def test_invalid_pairs_rejected(self):
        sp = diagonalize_chain(4, 1.0)
        ens = gibbs_weights(sp, 0.0, 1.0)
        with pytest.raises(ParameterError):
            pair_rdm(ens, 2, 2)
        with pytest.raises(ParameterError):
            pair_rdm(ens, 0, 4)
        with pytest.raises(ParameterError, match="integers"):
            pair_rdm(ens, 0.0, 1.0)
        with pytest.raises(ParameterError, match="integers"):
            pair_rdm(ens, 0, 1.5)
        assert pair_rdm(ens, np.int64(0), np.int64(1)).sites == (0, 1)


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
        with pytest.raises(StateValidityError):
            pure_state_pair_rdm(np.full(4, np.nan), 0, 1)

    @pytest.mark.parametrize("length", [0, 3, 6])
    @pytest.mark.parametrize("fn", [pure_state_pair_rdm, project_remaining_down])
    def test_full_basis_length_must_be_power_of_two(self, fn, length):
        with pytest.raises(ParameterError, match="not a power of 2"):
            fn(np.ones(length), 0, 1)
