import math

import numpy as np
import pytest

from spinchain import (
    ModelParams,
    ParameterError,
    critical_field_closed_form,
    critical_temperature_two_qubit,
    diagonalize_chain,
)
from oracles import build_sector_hamiltonian, dense_hamiltonian


class TestSectorBuild:
    def test_two_spins_one_up_doubled_bond(self):
        sh = build_sector_hamiltonian(ModelParams(2, 1.0), 1)
        assert np.array_equal(sh.matrix, [[-2.0, 4.0], [4.0, -2.0]])
        assert np.allclose(np.linalg.eigvalsh(sh.matrix), [-6.0, 2.0])

    def test_two_spins_all_down(self):
        sh = build_sector_hamiltonian(ModelParams(2, 1.0), 0)
        assert np.array_equal(sh.matrix, [[2.0]])

    def test_four_spins_all_down(self):
        sh = build_sector_hamiltonian(ModelParams(4, 1.0), 0)
        assert np.array_equal(sh.matrix, [[4.0]])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("j", [1.0, -0.7])
    def test_matches_dense_oracle_restricted_to_sector(self, n, j):
        # N=2 covers the doubled bond: the cyclic sum visits (0, 1) twice.
        dense = dense_hamiltonian(n, j, 0.0)
        for n_up in range(n + 1):
            sh = build_sector_hamiltonian(ModelParams(n, j), n_up)
            block = dense[np.ix_(sh.basis.states, sh.basis.states)]
            assert np.abs(sh.matrix - block).max() <= 1e-12

    @pytest.mark.parametrize("n,n_up", [(3, 1), (5, 2), (8, 4), (10, 3)])
    def test_exact_symmetry(self, n, n_up):
        sh = build_sector_hamiltonian(ModelParams(n, 1.3), n_up)
        assert np.array_equal(sh.matrix, sh.matrix.T)


def levels(n, j, b=0.0):
    """(energies at field b, n_up) of all 2^N eigenstates of the multiplet-expanded
    spectrum, ascending in energy: each level is energy + B * slope, and
    n_up = (slope + N) / 2."""
    sp = diagonalize_chain(n, j)
    energies = sp.energies + b * sp.slopes
    order = np.argsort(energies, kind="stable")
    return energies[order], ((sp.slopes[order] + n) / 2).astype(int)


class TestFullEigenvalues:
    def test_two_spins_zero_field(self):
        evs, _ = levels(2, 1.0)
        assert np.allclose(evs, [-6.0, 2.0, 2.0, 2.0])

    def test_pure_zeeman(self):
        evs, _ = levels(2, 0.0, b=1.0)
        assert np.allclose(evs, [-2.0, 0.0, 0.0, 2.0])

    def test_ground_level_crossing_at_critical_field(self):
        evs, n_up = levels(2, 1.0, b=4.0)
        assert evs[0] == pytest.approx(-6.0, abs=1e-12)
        assert evs[1] == pytest.approx(-6.0, abs=1e-12)
        assert set(n_up[:2]) == {0, 1}  # polarized |00> and the singlet cross here

    def test_count_is_full_hilbert_space(self):
        assert levels(7, 0.9, b=1.1)[0].size == 2**7

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sector_assembly_matches_dense_diagonalization(self, n):
        j, b = 1.2, 0.8
        sector_evs, _ = levels(n, j, b)
        dense = dense_hamiltonian(n, j, b)
        assert np.abs(dense.imag).max() < 1e-14
        dense_evs = np.linalg.eigvalsh(dense.real)
        assert np.abs(sector_evs - dense_evs).max() < 1e-9

    @pytest.mark.parametrize("n", [3, 4, 6, 7])
    def test_zero_field_sector_spectrum_symmetry(self, n):
        evs, n_up = levels(n, 1.0)
        for k in range(n + 1):
            assert np.allclose(np.sort(evs[n_up == k]), np.sort(evs[n_up == n - k]), atol=1e-9)


class TestCriticalValues:
    def test_even_n_critical_field_is_4j(self):
        for n in (2, 4, 6, 8, 10, 12, 14):
            assert critical_field_closed_form(n, 1.0) == 4.0
        assert critical_field_closed_form(6, 2.5) == 10.0

    def test_odd_n_values(self):
        assert critical_field_closed_form(3, 1.0) == pytest.approx(3.0, abs=1e-12)
        assert critical_field_closed_form(5, 1.0) == pytest.approx(3.618034, abs=1e-6)

    def test_never_exceeds_4j(self):
        for n in range(2, 15):
            assert critical_field_closed_form(n, 1.0) <= 4.0 + 1e-12

    def test_critical_temperature(self):
        # 8J / ln 3, evaluated independently
        assert critical_temperature_two_qubit(1.0) == pytest.approx(7.2819138130, abs=1e-9)
        assert critical_temperature_two_qubit(2.0) == pytest.approx(2 * 8 / math.log(3), abs=1e-12)
        assert critical_temperature_two_qubit(math.log(3) / 8) == pytest.approx(1.0, abs=1e-12)

    def test_ferromagnetic_coupling_rejected(self):
        with pytest.raises(ParameterError):
            critical_field_closed_form(4, -1.0)
        with pytest.raises(ParameterError):
            critical_temperature_two_qubit(0.0)
        # NaN must fail the J > 0 check too.
        with pytest.raises(ParameterError):
            critical_field_closed_form(4, math.nan)
        with pytest.raises(ParameterError):
            critical_temperature_two_qubit(math.nan)
        # So must a non-integer N and an infinite J.
        with pytest.raises(ParameterError):
            critical_field_closed_form(2.5, 1.0)
        with pytest.raises(ParameterError):
            critical_field_closed_form(5, math.inf)

    def test_critical_temperature_where_only_8j_overflows(self):
        # For about 2.25e307 < J < 2.47e307, 8J overflows but 8J/ln(3) does
        # not; below that range the result keeps the bits of 8J/ln(3).
        assert critical_temperature_two_qubit(2.3e307) == 8.0 * (2.3e307 / math.log(3.0))
        assert critical_temperature_two_qubit(2.3e307) == pytest.approx(1.6748e308, rel=1e-4)
        assert critical_temperature_two_qubit(2.2e307) == 8.0 * 2.2e307 / math.log(3.0)
        with pytest.raises(ParameterError):
            critical_temperature_two_qubit(2.5e307)

    @pytest.mark.parametrize("coupling", [math.inf, -math.inf, math.nan, 1e308])
    def test_critical_temperature_needs_finite_coupling(self, coupling):
        # At J = 1e308 the temperature 8J/ln(3) itself is not finite.
        with pytest.raises(ParameterError):
            critical_temperature_two_qubit(coupling)
