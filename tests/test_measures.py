import itertools

import numpy as np
import pytest

from spinchain import (
    DomainError,
    MeasurementError,
    ModelParams,
    PairDensityMatrix,
    ParameterError,
    StateValidityError,
    analytic_two_qubit_concurrence,
    chsh_quantity,
    chsh_violated,
    concurrence,
    correlation_matrix,
    critical_temperature_two_qubit,
    diagonalize_chain,
    eof_from_concurrence,
    gibbs_weights,
    magnetization_staircase,
    mutual_information,
    pair_rdm,
    project_remaining_down,
    pure_state_pair_rdm,
    von_neumann_entropy,
    w_state,
)
from oracles import build_sector_hamiltonian, pair_amplitudes


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


# Every function that takes a pair state applies one state rule.
STATE_FUNCTIONS = {
    "concurrence": concurrence,
    "mutual_information": mutual_information,
    "chsh_quantity": chsh_quantity,
    "correlation_matrix": correlation_matrix,
    "von_neumann_entropy": von_neumann_entropy,
    "validate": lambda rho: PairDensityMatrix(sites=(0, 1), matrix=rho, separation=1).validate(),
}


@pytest.mark.parametrize("measure", STATE_FUNCTIONS.values(), ids=STATE_FUNCTIONS.keys())
@pytest.mark.parametrize(
    "rho",
    [5 * np.eye(4) / 4, np.triu(np.ones((4, 4))) / 4, np.diag([0.5, 0.5, 0.0, 0.0]) * (1 + 5e-10)],
    ids=["trace_5", "not_hermitian", "trace_off_by_1e-9"],
)
def test_matrix_off_the_state_contract_rejected(measure, rho):
    with pytest.raises(StateValidityError):
        measure(rho)


@pytest.mark.parametrize("measure", STATE_FUNCTIONS.values(), ids=STATE_FUNCTIONS.keys())
def test_roundoff_within_the_state_tolerance_accepted(measure):
    rho = np.diag([0.5 + 5e-12, 0.5, 0.0, -5e-12])
    measure(rho)
    assert concurrence(rho).concurrence == 0.0


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

    @pytest.mark.parametrize("c", ["x", None, 1j])
    def test_rejects_non_real_input(self, c):
        # A string compared with the bounds raised a bare TypeError.
        with pytest.raises(ParameterError, match="c must be a real number"):
            eof_from_concurrence(c)


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

    @pytest.mark.parametrize("j,b", [(np.nan, 0.0), (1.0, np.nan), (1.0, np.inf), (np.inf, 0.0)])
    def test_rejects_non_finite_coupling_or_field(self, j, b):
        # Bad input must not read as "not entangled" (C = 0).
        with pytest.raises(DomainError):
            analytic_two_qubit_concurrence(j, b, 1.0)

    @pytest.mark.parametrize(
        "j,b,kt,want", [(1.0, 0.0, 1e-308, 1.0), (1.0, 3.0, 1e-308, 1.0), (1000.0, 0.0, 1e-306, 1.0), (1.0, 4.0, 1e-308, 0.5)]
    )
    def test_vanishing_temperature_matches_numeric_pipeline(self, j, b, kt, want):
        # 8J/kT or 2B/kT overflows here; shifting each exponent by
        # max(8J, 2|B|, 0) in energy units, not after dividing by kT, keeps
        # inf - inf = NaN (read as C = 0) out of the closed form.
        num = concurrence(pair_rdm(gibbs_weights(diagonalize_chain(2, j), b, kt), 0, 1)).concurrence
        assert num == pytest.approx(want, abs=1e-12)
        assert analytic_two_qubit_concurrence(j, b, kt) == pytest.approx(num, abs=1e-12)

    @pytest.mark.parametrize("j,b", [(1e308, 0.0), (-1e308, 0.0), (1.0, 1e308), (1.0, -1e308)])
    def test_rejects_overflowing_levels(self, j, b):
        # 8|J| or 2|B| is not finite, so no shift can keep the exponents finite.
        with pytest.raises(ParameterError, match="overflow"):
            analytic_two_qubit_concurrence(j, b, 1.0)

    @pytest.mark.parametrize("args", [("1", 0.0, 1.0), (1.0, "0", 1.0), (1.0, 0.0, "1"), (None, 0.0, 1.0), (1.0, 0.0, 1j)])
    def test_rejects_non_real_input(self, args):
        # The comparisons with J, B and kT raised a bare TypeError for these.
        name = ("coupling", "b_field", "kt")[[isinstance(a, float) for a in args].index(False)]
        with pytest.raises(ParameterError, match=f"{name} must be a real number"):
            analytic_two_qubit_concurrence(*args)

    @pytest.mark.parametrize("coupling", ["1", None, 1j, [1.0]])
    def test_critical_temperature_rejects_non_real_coupling(self, coupling):
        with pytest.raises(ParameterError, match="coupling must be a finite real number"):
            critical_temperature_two_qubit(coupling)


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

    def test_checks_the_pair_state_once(self, monkeypatch):
        # Each state check is an eigendecomposition: the 4x4 state gets one,
        # and its eigenvalues give S(rho_ij), bit for bit.
        from spinchain import measures
        from spinchain.measures import single_site_rdms

        rho = (2 / 3) * PSI_PLUS + (1 / 3) * ZERO_ZERO
        rho_i, rho_j = single_site_rdms(rho)
        expected = von_neumann_entropy(rho_i) + von_neumann_entropy(rho_j) - von_neumann_entropy(rho)
        shapes = []
        real = measures._check_state

        def spy(r):
            shapes.append(np.shape(r))
            return real(r)

        monkeypatch.setattr(measures, "_check_state", spy)
        assert mutual_information(rho) == expected
        assert shapes.count((4, 4)) == 1

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

    @pytest.mark.parametrize("m", ["x", None, 1j])
    def test_violation_test_rejects_non_real_input(self, m):
        with pytest.raises(ParameterError, match="m_value must be a real number"):
            chsh_violated(m)

    def test_violation_test_rejects_nan(self):
        # NaN > 1 is False, which read as "not violated".
        with pytest.raises(DomainError):
            chsh_violated(np.nan)

    def test_maximally_mixed(self):
        assert chsh_quantity(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)


class TestWState:
    @pytest.mark.parametrize("n", [1, 3.0, 15, 70])
    def test_rejects_bad_spin_count(self, n):
        with pytest.raises(ParameterError):
            w_state(n)

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
        st = magnetization_staircase(n, 1.0)
        b = (st.b_e + st.b_c_numeric) / 2
        ground = np.linalg.eigh(build_sector_hamiltonian(ModelParams(n, 1.0), 1).matrix)[1][:, 0]
        assert np.allclose(np.abs(ground), 1 / np.sqrt(n), atol=1e-9)
        rho = pair_rdm(gibbs_weights(diagonalize_chain(n, 1.0), b, 0.0), 0, 1)
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


class TestPureStatesAgainstPairLabels:
    # Seeded random complex states and every ordered pair, i > j included:
    # the pair RDM and the all-others-down projection against the oracle's
    # table of amplitudes by pair label.
    @pytest.mark.parametrize("n", range(2, 9))
    def test_rdm_and_projection_match_the_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            psi /= np.linalg.norm(psi)
            for i, j in itertools.permutations(range(n), 2):
                m = pair_amplitudes(psi, i, j)
                rho = pure_state_pair_rdm(psi, i, j)
                assert rho.separation == min(abs(i - j), n - abs(i - j))
                assert np.abs(rho.matrix - np.einsum("ar,br->ab", m, m.conj())).max() <= 1e-15
                pair, prob = project_remaining_down(psi, i, j)
                assert prob == pytest.approx(np.vdot(m[:, 0], m[:, 0]).real, abs=1e-15)
                assert np.abs(pair - m[:, 0] / np.sqrt(prob)).max() <= 1e-15
