import itertools
import math

import numpy as np
import pytest

from spinchain import (
    MAX_SPINS,
    ModelParams,
    ParameterError,
    ScanGrid,
    diagonalize_chain,
    enumerate_sector,
    gibbs_weights,
)

from oracles import exchange_partners


def binomial(n, r):
    return math.factorial(n) // (math.factorial(n - r) * math.factorial(r))


def test_two_spin_one_up_sector():
    basis = enumerate_sector(2, 1)
    assert list(basis.states) == [0b01, 0b10]


def test_four_spin_two_up_count():
    assert enumerate_sector(4, 2).dim == 6


def test_large_sector_count_matches_factorial_oracle():
    assert enumerate_sector(13, 6).dim == binomial(13, 6) == 1716


@pytest.mark.parametrize("n", range(2, MAX_SPINS + 1))
def test_sector_sizes_sum_to_full_space(n):
    total = sum(enumerate_sector(n, k).dim for k in range(n + 1))
    assert total == 2**n


def test_states_ascending_and_index_round_trip():
    basis = enumerate_sector(8, 3)
    assert all(b > a for a, b in zip(basis.states, basis.states[1:]))
    assert np.array_equal(np.searchsorted(basis.states, basis.states), np.arange(basis.dim))


@pytest.mark.parametrize("n,n_up", [(2, 1), (5, 2), (8, 4)])
def test_exchange_partners_swap_the_two_bits(n, n_up):
    states = enumerate_sector(n, n_up).states
    for a, b in itertools.permutations(range(n), 2):
        rows, partners = exchange_partners(states, a, b)
        want = [k for k, s in enumerate(states) if not (s >> a) & 1 and (s >> b) & 1]
        assert rows.tolist() == want
        assert np.array_equal(states[partners], states[rows] ^ ((1 << a) | (1 << b)))


@pytest.mark.parametrize(
    "n,k,expected", [(2, 0, -2), (2, 1, 0), (6, 1, -4), (6, 6, 6)]
)
def test_zeeman_eigenvalue(n, k, expected):
    # Every state of the sector n_up = k has Zeeman slope 2k - N.
    slopes = diagonalize_chain(n, 1.0).slopes
    assert np.count_nonzero(slopes == expected) == binomial(n, k)


@pytest.mark.parametrize("n", [2, 5, 9, 14])
def test_zeeman_antisymmetry_under_spin_flip(n):
    # Rows are grouped by sector n_up = 0..N, and the sectors k and N - k
    # have opposite slopes and equal sizes.
    slopes = diagonalize_chain(n, 1.0).slopes
    sizes = [binomial(n, k) for k in range(n + 1)]
    assert np.array_equal(slopes, np.repeat(2 * np.arange(n + 1) - n, sizes))
    assert np.array_equal(slopes, -slopes[::-1])


def test_out_of_range_arguments_rejected():
    with pytest.raises(ParameterError):
        enumerate_sector(MAX_SPINS + 1, 2)
    with pytest.raises(ParameterError):
        enumerate_sector(6, 7)
    with pytest.raises(ParameterError):
        enumerate_sector(6, -1)
    with pytest.raises(ParameterError):
        ModelParams(4.0, 1.0)
    with pytest.raises(ParameterError):
        diagonalize_chain(4.0, 1.0)
    with pytest.raises(ParameterError):
        enumerate_sector(4.0, 2)
    with pytest.raises(ParameterError):
        enumerate_sector(4, 2.0)
    assert ModelParams(np.int64(4), 1.0).n_spins == 4
    assert enumerate_sector(np.int64(4), np.int64(2)).dim == 6


def test_non_real_coupling_field_or_temperature_rejected():
    # math.isfinite alone raised a bare TypeError for these.
    with pytest.raises(ParameterError, match="coupling"):
        diagonalize_chain(4, "1")
    with pytest.raises(ParameterError, match="coupling"):
        ScanGrid(4, "1", [0.0], [0.1], ((0, 1),))
    with pytest.raises(ParameterError, match="field"):
        gibbs_weights(diagonalize_chain(2, 1.0), None, 0.1)
    for kwargs in ({"coupling": 1j}, {"field": 0.5 + 0j}, {"kt": [0.1]}, {"kt": "0.1"}):
        with pytest.raises(ParameterError, match="finite real number"):
            ModelParams(**{"n_spins": 4, "coupling": 1.0, **kwargs})
    # numpy scalars are real numbers.
    assert ModelParams(4, np.float32(1.0), field=np.int64(2), kt=np.float64(0.5)).field == 2
