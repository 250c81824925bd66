import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from spinchain import (
    MAX_SPINS,
    ModelParams,
    NumericError,
    ParameterError,
    StateValidityError,
    diagonalize_chain,
    gibbs_weights,
    magnetization_staircase,
    pair_rdm,
    project_remaining_down,
    pure_state_pair_rdm,
    w_state,
)
from spinchain.basis import separation
from spinchain.measures import correlation_matrix, x_state_eigenvalues
from spinchain.thermal import PairDensityMatrix, pair_states
from oracles import (
    SX, SY, SZ, all_sector_spectrum, build_sector_hamiltonian, dense_gibbs_state, dense_pair_rdm, member_rows,
    sector_spectrum, site_operator, weight_rows,
)

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
        assert [np.count_nonzero(sp.slopes == 2 * n_up - 3) for n_up in range(4)] == [1, 3, 3, 1]
        assert sp.energies.size == 8
        assert sp.features.shape == (8, 1, 5)

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
        f = sp.features[:, [separation(n, i, k) - 1 for i, k in pairs]]
        for n_up in range(n + 1):
            assert np.all(np.diff(sp.energies[rows[n_up]]) >= 0), n_up
            assert np.all(sp.slopes[rows[n_up]] == 2 * n_up - n)
        for k in range((n + 1) // 2):
            mine, mirror = rows[k], rows[n - k]
            assert np.array_equal(sp.energies[mirror], sp.energies[mine])
            assert np.array_equal(sp.slopes[mirror], -sp.slopes[mine])
            assert np.array_equal(f[mirror], f[mine][:, :, [3, 2, 1, 0, 4]])

    @pytest.mark.parametrize("n", range(2, 10))
    def test_features_are_pure_eigenstate_pair_states(self, n):
        sp, ref = diagonalize_chain(n, -1.3), all_sector_spectrum(n, -1.3)
        assert np.array_equal(sp.slopes, ref.slopes)
        assert np.abs(sp.energies - ref.energies).max() < 1e-12
        assert sp.features.shape == (2**n, n // 2, 5)
        assert np.abs(sp.features[:, :, :4].sum(axis=2) - 1.0).max() < 1e-12
        assert x_state_eigenvalues(sp.features).min() >= -1e-12

    @pytest.mark.parametrize("j", [1.0, -1.0, 0.5])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_feature_table_invariants(self, n, j):
        # Pair populations that vanish in a whole sector are exact zeros in
        # the multiplet expansion, and no population is negative.
        sp = diagonalize_chain(n, j)
        f, n_up = sp.features, (sp.slopes + n) // 2
        assert np.all(f[n_up == 0] == [1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.all(f[n_up == n] == [0.0, 0.0, 0.0, 1.0, 0.0])
        assert np.all(f[n_up <= 1][..., 3] == 0.0)
        assert np.all(f[n_up >= n - 1][..., 0] == 0.0)
        assert f[..., :4].min() >= 0.0
        # p01 and p10 are one value, bit for bit, so `Sectors.expand` needs
        # no swap for the order of a pair's sites.
        assert np.array_equal(f[..., 1], f[..., 2])

    @pytest.mark.parametrize("j", [1.0, -1.0, 0.5, 0.0])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_blocks_fold_the_dense_sector_matrix(self, n, j):
        # Each block (q, z) assembled from the separation operators is
        # W^H (H + J ALPHA S^2) W for W = U V: U the basis of the plain
        # middle-sector matrix of the ring adapted to the translations and,
        # for even N, the spin inversion Z, V its reflection-adapted real
        # basis, and S^2 built from Kronecker products of Pauli matrices;
        # J times the J = 1 block is that of the J ring, which shares its
        # eigenvectors. Each block carries its own (q, z), z = 1 for odd N;
        # they come in the order of q = 0..N//2 and then z = +1, -1, and
        # none is empty; with the conjugates N - q of the blocks
        # 0 < q < N/2, which conj(W) turns into the same real block, they
        # cover the sector once. Each separation operator O_d, the sum of
        # sigma^i . sigma^j over the pairs i < j at separation d, is
        # W^H O_d W: the block's exchange part of O_d plus its diagonal
        # sigma^z sigma^z part, which each zz row holds at its representative.
        from spinchain import thermal

        sh = build_sector_hamiltonian(ModelParams(n, j), n // 2)
        states = sh.basis.states
        paulis = [[site_operator(op, site, n) for site in range(n)] for op in (SX, SY, SZ)]
        total = [sum(op) for op in paulis]
        s2 = sum(op @ op for op in total) / 4.0
        assert np.abs(s2.imag).max() == 0.0
        dense = sh.matrix + j * thermal.ALPHA * s2.real[np.ix_(states, states)]

        def pair_sum(ops, d):  # sum of op_a op_b over `ops` and the pairs a < b at separation d, on the sector
            pairs = [(a, b) for a, b in itertools.combinations(range(n), 2) if separation(n, a, b) == d]
            return sum(op[a][states] @ op[b][:, states] for a, b in pairs for op in ops)

        seps = range(1, n // 2 + 1)
        separation_ops = [pair_sum(paulis, d) for d in seps]
        zz_sums = np.array([pair_sum(paulis[2:], d).diagonal().real for d in seps]).T
        flip = np.searchsorted(states, states ^ ((1 << n) - 1)) if n % 2 == 0 else None
        signs = (1, -1) if n % 2 == 0 else (1,)
        bases = {(q, z): symmetry_basis(states, n, q, z) for q in range(n) for z in signs}
        blocks = list(thermal._blocks(n))
        assert [block[:2] for block in blocks] == [(q, z) for q in range(n // 2 + 1) for z in signs if bases[q, z].shape[1]]
        covered = 0
        for q, z, matrix, exchange, zz_rows in blocks:
            covered += (1 if 2 * q % n == 0 else 2) * len(matrix)
            # O_d is its exchange part plus its sigma^z sigma^z diagonal.
            operators = [x_d + np.diag(zz_rows[:, d]) for d, x_d in enumerate(exchange)]
            assert len(operators) == len(separation_ops)
            for m in (matrix, *operators):
                assert m.dtype == np.float64
                assert np.abs(m - m.T).max() <= 1e-13
            v = reflection_basis(states, n, q, z)
            assert np.abs(v.conj().T @ v - np.eye(len(v))).max() <= 1e-13
            w = bases[q, z] @ v
            if flip is not None:
                assert np.abs(w[flip] - z * w).max() <= 1e-13  # Z W = z W
            mirror = bases[-q % n, z].conj().T @ w.conj()
            assert np.abs(mirror.conj().T @ mirror - np.eye(len(v))).max() <= 1e-13
            for basis in (w, w.conj()):
                want = basis.conj().T @ dense @ basis
                assert matrix.shape == want.shape
                assert np.abs(want.imag).max() <= 1e-13
                assert np.abs(j * matrix - want.real).max() <= 1e-13
                for op, o_d in zip(operators, separation_ops):
                    want = basis.conj().T @ o_d @ basis
                    assert op.shape == want.shape
                    assert np.abs(want.imag).max() <= 1e-13
                    assert np.abs(op - want.real).max() <= 1e-13
            want = zz_sums[np.searchsorted(states, block_representatives(states, n, q, z))]
            assert zz_rows.shape == want.shape
            assert np.abs(zz_rows - want).max() <= 1e-13
        assert covered == len(states)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_orbits_label_every_sector_pattern(self, n):
        # Every pattern of the sector n_up = N // 2 is T^shift Z^flip of its
        # orbit's representative, the orbits' sizes |G| / |stabilizer| add up
        # to the sector, and the reflection pairs the representatives:
        # P a = T^m Z^f a' for a' = reps[partner[a]], partner an involution.
        from spinchain import thermal

        states, reps, stabilizer, orbit, shift, flip, partner, m, f = thermal._orbits(n)
        for x, a, l, g in zip(states.tolist(), reps[orbit].tolist(), shift.tolist(), flip.tolist()):
            assert group_images(a, n)[l + n * g] == x
        assert (len(stabilizer) // np.count_nonzero(stabilizer, axis=0)).sum() == math.comb(n, n // 2)
        assert np.array_equal(partner[partner], np.arange(reps.size))
        for a, b, g in zip(reps.tolist(), reps[partner].tolist(), (m + n * f).tolist()):
            assert group_images(b, n).index(int(format(a, f"0{n}b")[::-1], 2)) == g

    @pytest.mark.parametrize("j", [0.5, 1e9])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_energies_scale_with_coupling(self, n, j):
        # The unit ring is solved for every J: energies are exactly J times
        # those at J = 1 and the pair features do not depend on J, so the
        # S^2 splitting never sinks under the roundoff of a large |J|.
        unit, sp = diagonalize_chain(n, 1.0), diagonalize_chain(n, j)
        assert np.array_equal(sp.energies, j * unit.energies)
        assert np.array_equal(sp.slopes, unit.slopes)
        assert np.array_equal(sp.features, unit.features)

    @pytest.mark.parametrize("factor,raises", [(10.0, True), (0.1, False)])
    def test_spin_check_tolerance(self, factor, raises, monkeypatch):
        # N=4 solves the block (q, z) = (0, +1) first; its vectors are, by
        # ascending H + ALPHA S^2, the S = 0 ground singlet and an S = 2 member.
        # Turning the first vector towards the second by theta moves its
        # <S^2> by 6 sin^2(theta).
        from spinchain import thermal

        theta = np.arcsin(np.sqrt(factor * thermal.SPIN_TOL / 6.0))
        real = thermal.eigh_symmetric
        solved = []

        def tilted(matrix):
            values, v = real(matrix)
            solved.append(len(matrix))
            if len(solved) == 1:
                turn = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
                v = v @ turn
            return values, v

        monkeypatch.setattr(thermal, "eigh_symmetric", tilted)
        if raises:
            with pytest.raises(NumericError, match=r"S\(S\+1\)"):
                diagonalize_chain(4, 1.0)
        else:
            assert diagonalize_chain(4, 1.0).energies.size == 16
        assert solved[0] == 2

    @pytest.mark.parametrize("mislabel,raises", [(True, True), (False, False)])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_spin_inversion_check(self, n, mislabel, raises, monkeypatch):
        # The S_z = 0 member of a spin-S multiplet has the Z eigenvalue
        # (-1)^(S + N/2), so the eigenvectors of a block handed over with
        # the other z fail the check.
        from spinchain import thermal

        real = thermal._blocks

        def labelled(n_spins):
            for k, (q, z, *block) in enumerate(real(n_spins)):
                yield (q, -z if mislabel and k == 0 else z, *block)

        monkeypatch.setattr(thermal, "_blocks", labelled)
        if raises:
            with pytest.raises(NumericError, match=r"Z block"):
                diagonalize_chain(n, 1.0)
        else:
            assert diagonalize_chain(n, 1.0).energies.size == 2**n

    @pytest.mark.parametrize("j", [1.0, -1.0])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_member_rows_match_the_per_sector_loop(self, n, j):
        # The spectrum's rows and the sector expansion of its features do
        # the per-sector loop's arithmetic, so they are bit-identical.
        from spinchain import thermal

        energies, two_s, s, zz, _ = thermal._multiplets(n, thermal._blocks(n))
        sp = diagonalize_chain(n, j)
        for mine, ref in zip((sp.energies, sp.slopes, sp.features), member_rows(n, j * energies, two_s, s, zz)):
            assert mine.dtype == ref.dtype and np.array_equal(mine, ref)

    def test_spectrum_memory_is_one_block_and_the_rows(self):
        # The blocks are folded from one term list and solved one at a time,
        # <O_d> one separation at a time, and the spectrum keeps each row's
        # multiplet instead of a feature table (2^14 x 7 x 5 floats,
        # 4.4 MiB): at N=14 the traced peak stays under 6 MiB and what is
        # kept under 2 MiB.
        diagonalize_chain(4, 1.0)  # lazy imports and caches stay outside the traced call
        tracemalloc.start()
        try:
            sp = diagonalize_chain(14, 1.0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sp.energies.size == 2**14
        assert peak <= 6 * 2**20
        assert kept <= 2 * 2**20

    def test_spectrum_memory_is_one_separation_operator(self, monkeypatch):
        # After `eigh`, each O_d's exchange part is formed from its d's slice
        # of the term list and dropped before the next, so no block holds
        # all N/2 dense O_d: at N=16 those of the largest block (8 x 415^2
        # floats, 10.5 MiB) held at once take the traced peak to about
        # 18 MiB, and the traced peak stays under 14 MiB.
        monkeypatch.setattr("spinchain.basis.MAX_SPINS", 16)
        diagonalize_chain(4, 1.0)  # lazy imports and caches stay outside the traced call
        tracemalloc.start()
        try:
            sp = diagonalize_chain(16, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.energies.size == 2**16
        assert peak <= 14 * 2**20

    @pytest.mark.parametrize("n", range(3, 14, 2))
    def test_odd_ground_level_is_a_momentum_doublet(self, n):
        # The odd-N antiferromagnet's ground level is two S = 1/2 doublets
        # at momenta +-k. Block N - q is not solved but copied from block q,
        # so in each of the sectors S_z = -+1/2 its two rows are bit-identical
        # and carry the momenta q and N - q, and the kT = 0 window mixes all
        # four members equally.
        sp = diagonalize_chain(n, 1.0)
        ground = []
        for slope in (-1, 1):
            rows = np.flatnonzero(sp.slopes == slope)
            rows = rows[sp.energies[rows] == sp.energies[rows].min()]
            assert rows.size == 2
            assert np.array_equal(sp.features[rows[0]], sp.features[rows[1]])
            q, conjugate = sorted(sp.momentum[sp.multiplet[rows]].tolist())
            assert 0 < q < n / 2 and conjugate == n - q
            ground += rows.tolist()
        w = gibbs_weights(sp, 0.0, 0.0).weights
        assert np.flatnonzero(w).tolist() == ground
        assert np.all(w[ground] == 0.25)

    @pytest.mark.parametrize("j", [1.0, -1.0, 0.5, 0.0])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_pair_states_match_all_sector_path(self, n, j):
        # The scan's pair states, summed sector by sector from the SU(2)
        # multiplets, must match the W @ F of one eigh per sector, without
        # the SU(2) and spin-flip symmetries, for every ordered pair, at
        # kT = 0 too. For J > 0 the B values include the staircase
        # crossings, where the kT = 0 ground manifold spans two sectors.
        pairs = [(i, k) for i in range(n) for k in range(n) if i != k]
        sp, ref = diagonalize_chain(n, j), all_sector_spectrum(n, j, pairs)
        b_values = [0.0, 0.3, 1.7, 4.5]
        if j > 0:
            b_values += [c.b_value for c in magnetization_staircase(n, j).crossings]
        kt_values = [0.0, 0.05, 1.0]
        got = pair_states(sp, b_values, kt_values, pairs)
        b, kt = np.repeat(b_values, len(kt_values)), np.tile(kt_values, len(b_values))
        want = weight_rows(ref, b, kt) @ ref.features.transpose(1, 0, 2)
        assert np.abs(got - want.transpose(1, 0, 2).reshape(got.shape)).max() < 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [13, 14])
    def test_pair_states_match_all_sector_path_at_benchmark_size(self, n):
        # The same check at the sizes `spinchain grid` is benchmarked at.
        self.test_pair_states_match_all_sector_path(n, 1.0)

    @pytest.mark.parametrize("j", [1.0, -1.0, 0.5])
    @pytest.mark.parametrize("n", range(2, MAX_SPINS + 1))
    def test_trace_sum_rules(self, n, j):
        # Traces over the full 2^N space hold for any correct flat table,
        # however it was blocked, so they check every N the package reaches.
        # Per separation d, zz and <sigma.sigma> average sigma^z_0 sigma^z_d
        # and sigma_0 . sigma_d over the translates; M is the total sigma^z,
        # each eigenstate's slope, and m = 2 at N = 2, whose ring visits its
        # one bond twice. Each residual is bounded by 1e-12 2^N |J|^k, with k
        # the power of J in the rule.
        sp = diagonalize_chain(n, j)
        dim, m = 1 << n, 2 if n == 2 else 1
        p00, p01, p10, p11, z = np.moveaxis(sp.features, -1, 0)
        zz = p00 + p11 - p01 - p10
        nearest = np.arange(1, n // 2 + 1) == 1
        rules = [
            (sp.energies.sum(), 0.0, 1),  # Tr H
            ((sp.energies**2).sum(), 3 * m * n * dim * j**2, 2),  # Tr H^2
            (sp.features[..., :4].sum(axis=0), dim / 4, 0),  # Tr |ab><ab|_(0, d)
            (z.sum(axis=0), 0.0, 0),  # Tr |01><10|_(0, d)
            (sp.energies @ (zz + 4 * z), np.where(nearest, 3 * m * dim * j, 0.0), 1),  # Tr H sigma_0 . sigma_d
            ((sp.slopes**2) @ zz, 2.0 * dim, 0),  # Tr M^2 sigma^z_0 sigma^z_d
        ]
        for got, want, k in rules:
            assert np.abs(got - want).max() <= 1e-12 * dim * abs(j) ** k


class TestFewMagnonSectors:
    # The sectors with few magnons, n_up <= 3 and their mirrors, are small at
    # any N, and there the Wigner-Eckart expansion reaches farthest from the
    # solved member m0, so a dense solve of each checks the rows of every N.

    @pytest.mark.parametrize("j", [1.0, -1.0, 0.5])
    @pytest.mark.parametrize("n", range(4, MAX_SPINS + 1))
    def test_match_dense_sector_solve(self, n, j):
        # Sorted energies and per-sector thermal averages
        # sum_i x_i F_i / sum_i x_i, x_i = exp(-(E_i - e0)/kT). A degenerate
        # level's projector is translation-invariant, so however the dense
        # solve picks its basis, the averages of the pair (0, d) are those of
        # the table's translation averages.
        def average(energies, f, kt):
            x = np.exp((energies.min() - energies) / kt)
            return np.tensordot(x, f, axes=1) / x.sum()

        sp = diagonalize_chain(n, j)
        features, rows = sp.features, sector_rows(sp)
        pairs = [(0, d) for d in range(1, n // 2 + 1)]
        for n_up in sorted({0, 1, 2, 3, n - 3, n - 2, n - 1, n}):
            values, f = sector_spectrum(n, j, n_up, pairs)
            energies = sp.energies[rows[n_up]]
            assert np.abs(energies - values).max() <= 1e-12 * n * abs(j)
            for kt in abs(j) * np.array([0.2, 1.0, 5.0]):
                got, want = average(energies, features[rows[n_up]], kt), average(values, f, kt)
                assert np.abs(got - want).max() <= 1e-12, (n_up, kt)

    @pytest.mark.parametrize("j", [1.0, -1.0, 0.5])
    @pytest.mark.parametrize("n", range(3, MAX_SPINS + 1))
    def test_one_magnon_closed_forms(self, n, j):
        # The sector n_up = 1 holds the one-magnon states of Bethe (1931),
        # the paper's W-window states: E_k = J(N - 4) + 4J cos k for
        # k = 2 pi q / N, with <sigma^z sigma^z> = 1 - 4/N and the coherence
        # z = cos(kd)/N at every separation d.
        sp = diagonalize_chain(n, j)
        k = 2 * np.pi * np.arange(n) / n
        energies = j * (n - 4) + 4 * j * np.cos(k)
        order = np.argsort(energies, kind="stable")
        one = sp.slopes == 2 - n
        p00, p01, p10, p11, z = np.moveaxis(sp.features[one], -1, 0)
        assert np.abs(sp.energies[one] - energies[order]).max() <= 1e-12 * n * abs(j)
        assert np.abs(p00 + p11 - p01 - p10 - (1 - 4 / n)).max() <= 1e-12
        assert np.abs(z - np.cos(np.outer(k[order], np.arange(1, n // 2 + 1))) / n).max() <= 1e-12


def group_images(a, n):
    """The images T^l Z^f a, at index l + N f, of the pattern a under the
    group G generated by the translation T (site i to site i+1) and, for
    even N, the spin inversion Z; for odd N, G holds the T^l alone."""
    full, images = (1 << n) - 1, []
    for f in range(2 if n % 2 == 0 else 1):
        for l in range(n):
            t = ((a << l) | (a >> (n - l))) & full
            images.append(t ^ full if f else t)
    return images


def character(n, q, z, g):
    """chi(T^l Z^f) = e^(ikl) z^f, k = 2 pi q / N, at the index g = l + N f."""
    return np.exp(2j * np.pi * q * (g % n) / n) * z ** (g // n)


def block_representatives(states, n, q, z):
    """The smallest pattern a of each orbit of G in the ascending sector
    `states` with chi = 1 on its stabilizer, in ascending order."""
    reps = []
    for a in states.tolist():
        images = group_images(a, n)
        stabilizer = [g for g, x in enumerate(images) if x == a]
        if min(images) == a and all(abs(character(n, q, z, g) - 1) < 1e-9 for g in stabilizer):
            reps.append(a)
    return reps


def symmetry_basis(states, n, q, z):
    """Columns |a> = R_a^(-1/2) sum_x conj(chi(g_x)) x over the members
    x = g_x a of the orbit of each `block_representatives` a, over the
    sector `states`; R_a is the orbit's size."""
    index = {s: r for r, s in enumerate(states.tolist())}
    columns = []
    for a in block_representatives(states, n, q, z):
        column = np.zeros(len(states), dtype=complex)
        for g, x in enumerate(group_images(a, n)):
            column[index[x]] += np.conj(character(n, q, z, g))
        columns.append(column / np.linalg.norm(column))
    return np.array(columns).reshape(-1, len(states)).T


def reflection_basis(states, n, q, z):
    """Real basis V of block (q, z), as columns over the `symmetry_basis`
    columns |a> of the same block.

    The reflection P (site i to site N-1-i) sends each representative a to
    T^m Z^f a' for a representative a' and the least m + N f. With
    phi = e^(ikm) z^f = e^(i tau), tau = km + pi f [z = -1], the column at
    a's position is e^(i tau/2)|a> if a' = a, (|a> + phi|a'>)/sqrt(2) if
    a < a', and i(|a'> - phi|a>)/sqrt(2) if a > a'."""
    k = 2 * np.pi * q / n
    reps = block_representatives(states, n, q, z)
    column = {a: c for c, a in enumerate(reps)}
    v = np.zeros((len(reps), len(reps)), dtype=complex)
    for a in reps:
        mirrored = int(format(a, f"0{n}b")[::-1], 2)
        partner = min(group_images(mirrored, n))
        f, m = divmod(group_images(partner, n).index(mirrored), n)
        tau = k * m + np.pi * f * (z == -1)
        own, other = column[a], column[partner]
        if partner == a:
            v[own, own] = np.exp(0.5j * tau)
        elif a < partner:
            v[own, own], v[other, own] = np.sqrt(0.5), np.exp(1j * tau) * np.sqrt(0.5)
        else:
            v[other, own], v[own, own] = 1j * np.sqrt(0.5), -1j * np.exp(1j * tau) * np.sqrt(0.5)
    return v


def sector_rows(spectrum):
    """Slice of the flat eigen-table held by each sector n_up = 0..N; the
    slopes 2 * n_up - N ascend with the sectors."""
    n = spectrum.n_spins
    bounds = np.searchsorted(spectrum.slopes, np.arange(-n, n + 3, 2))
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


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

    @pytest.mark.parametrize("j", [1.0, -1.0, 0.5])
    @pytest.mark.parametrize("n", range(2, MAX_SPINS + 1))
    def test_high_temperature_limit_of_the_correlation(self, n, j):
        # At B = 0, rho = (1 - H/kT)/2^N + O(kT^-2) with Tr H = 0, so
        # <sigma_0 . sigma_d> = -Tr(H sigma_0 . sigma_d)/(2^N kT): -3mJ/kT at
        # d = 1 (m = 2 at N = 2, whose ring visits its one bond twice) and 0
        # at every other d. The thermal path must keep this passing however
        # it forms the Gibbs sum (ROADMAP item 2).
        sp = diagonalize_chain(n, j)
        m = 2 if n == 2 else 1
        for kt in (100.0, 1000.0):
            ens = gibbs_weights(sp, 0.0, kt)
            for d in range(1, n // 2 + 1):
                got = np.trace(correlation_matrix(pair_rdm(ens, 0, d)))
                want = -3 * m * j / kt if d == 1 else 0.0
                assert abs(got - want) <= 20 * j**2 / kt**2

    def test_crossing_point_mixes_both_ground_states(self):
        sp = diagonalize_chain(2, 1.0)
        ens = gibbs_weights(sp, 4.0, 0.0)  # B_c: singlet and |00> degenerate
        assert np.allclose(sorted(ens.weights), [0.0, 0.0, 0.5, 0.5])

    # B = 1e308 is finite, but the levels' span 2(max|E| + N B) overflows float64.
    @pytest.mark.parametrize("b,kt", [(-1.0, 1.0), (1.0, -0.5), (np.nan, 1.0), (1.0, np.inf), (1e308, 1.0)])
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

    def test_tiny_temperature_is_the_ground_state_silently(self):
        # kT = 1e-320 sends every excited exponent to -inf: weight 0, with no
        # overflow warning (the suite turns RuntimeWarning into an error).
        sp = diagonalize_chain(2, 1.0)
        w = [gibbs_weights(sp, 0.0, kt).weights for kt in (1e-320, 0.0)]
        assert np.array_equal(w[0], w[1])
        assert w[1].tolist() == [0.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("j", [1.0, -1.0, 0.5])
    @pytest.mark.parametrize("n", range(2, 15))
    def test_weights_match_one_shot_weight_rows(self, n, j):
        # `gibbs_weights` builds its row sector by sector, x_i w_s; the
        # oracle exponentiates each E_i + B s - E0 at once. They must agree
        # within 1e-15 on B through 0 and, for J > 0, every staircase
        # crossing, where the kT = 0 window spans two sectors, and keep the
        # same kT = 0 window rows.
        sp = diagonalize_chain(n, j)
        b_values = [0.0, 0.3, 1.7, 4.5]
        if j > 0:
            b_values += [c.b_value for c in magnetization_staircase(n, j).crossings]
        kt_values = [0.0, 1e-3, 0.05, 1.0]
        b, kt = np.repeat(b_values, len(kt_values)), np.tile(kt_values, len(b_values))
        for (b_field, t), want in zip(zip(b, kt), weight_rows(sp, b, kt)):
            got = gibbs_weights(sp, b_field, t).weights
            assert np.abs(got - want).max() <= 1e-15, (b_field, t)
            if t == 0.0:
                assert np.array_equal(got > 0.0, want > 0.0), b_field

    @pytest.mark.parametrize("kt", [1e-300, 5e-324])
    def test_pair_states_at_tiny_temperature_silently(self, kt):
        # Gaps of order J = 1e9 over these kT overflow (E - e0)/kT in the
        # per-sector sums and in the sector weights alike: weight 0, with no
        # overflow warning, and finite states.
        sp = diagonalize_chain(6, 1e9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = pair_states(sp, np.array([0.0, 1e9, 3e9]), np.array([kt]), [(0, 1), (0, 3)])
        assert np.isfinite(states).all()
        assert np.abs(states[..., :4].sum(axis=-1) - 1.0).max() <= 1e-12

    def test_weights_form_simplex(self):
        sp = diagonalize_chain(5, 1.0)
        for b, kt in [(0.0, 0.3), (3.0, 2.0), (6.0, 10.0)]:
            flat = gibbs_weights(sp, b, kt).weights
            assert flat.min() >= 0
            assert flat.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("b,kt", [(0.5, 0.8), (2.0, 1.5), (4.2, 3.0)])
    def test_energy_bookkeeping_against_logz_derivative(self, b, kt):
        # The mean energy under the weights is -d log Z / d beta, with log Z
        # summed here from the levels E + B s, shifted by the ground level.
        sp = diagonalize_chain(5, 1.0)
        energies = sp.energies + b * sp.slopes
        e0 = energies.min()

        def log_z(beta):
            return np.log(np.exp(-beta * (energies - e0)).sum()) - beta * e0

        beta = 1.0 / kt
        h = 1e-6 * beta
        u_fd = -(log_z(beta + h) - log_z(beta - h)) / (2 * h)
        u = float(np.dot(energies, gibbs_weights(sp, b, kt).weights))
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

    @pytest.mark.parametrize("j", [1.0, -1.0, 0.5])
    @pytest.mark.parametrize("n", range(2, 15))
    def test_sector_sums_match_one_shot_product(self, n, j):
        # `pair_rdm` sums the weights against each sector's features as
        # `Sectors.expand` yields them: only the last bits may differ from
        # the one-shot product of the weights with the whole feature table.
        sp = diagonalize_chain(n, j)
        features = sp.features
        for b in (0.0, 1.7, 4.0, 4.5):
            for kt in (0.0, 0.05, 1.0):
                ens = gibbs_weights(sp, b, kt)
                for d in range(1, n // 2 + 1):
                    p00, p01, p10, p11, z = ens.weights @ features[:, d - 1]
                    want = np.diag([p00, p01, p10, p11])
                    want[1, 2] = want[2, 1] = z
                    assert np.abs(pair_rdm(ens, 0, d).matrix - want).max() < 1e-14, (b, kt, d)

    def test_memory_is_one_sector_at_a_time(self):
        # At N=14 the features of every eigenstate for one pair, a
        # (2^14, 1, 5) table, take 0.63 MiB; summed sector by sector, the
        # traced peak stays under 0.75 MiB.
        sp = diagonalize_chain(14, 1.0)
        for b, kt in ((0.0, 1.0), (4.0, 0.0)):
            ens = gibbs_weights(sp, b, kt)
            pair_rdm(ens, 0, 3)  # lazy imports and caches stay outside the traced call
            tracemalloc.start()
            try:
                pair_rdm(ens, 0, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.75 * 2**20, f"{peak / 2**20:.2f} MiB at B={b}, kT={kt}"

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
    def test_unnormalized_state_rejected(self):
        with pytest.raises(StateValidityError):
            pure_state_pair_rdm(np.full(4, 0.9), 0, 1)
        with pytest.raises(StateValidityError):
            pure_state_pair_rdm(np.full(4, np.nan), 0, 1)

    def test_one_norm_rule_for_both_pure_state_functions(self):
        # ||psi||^2 - 1 within STATE_TOL, checked before the pair is read.
        with pytest.raises(StateValidityError, match="norm"):
            project_remaining_down(2 * w_state(4), 0, 1)
        with pytest.raises(StateValidityError, match="norm"):
            pure_state_pair_rdm(w_state(4) * (1 + 0.9e-10), 0, 1)
        pure_state_pair_rdm(w_state(4) * (1 + 0.4e-10), 0, 1)  # within STATE_TOL

    @pytest.mark.parametrize("length", [0, 3, 6])
    @pytest.mark.parametrize("fn", [pure_state_pair_rdm, project_remaining_down])
    def test_full_basis_length_must_be_power_of_two(self, fn, length):
        with pytest.raises(ParameterError, match="not a power of 2"):
            fn(np.ones(length), 0, 1)
