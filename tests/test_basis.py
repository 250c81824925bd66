import itertools
import math

import numpy as np
import pytest

from spinchain import ModelParams, ParameterError, diagonalize_chain, enumerate_sector, zeeman_eigenvalue
from spinchain.basis import exchange_partners


def binomial(n, r):
    return math.factorial(n) // (math.factorial(n - r) * math.factorial(r))


def test_two_spin_one_up_sector():
    basis = enumerate_sector(2, 1)
    assert list(basis.states) == [0b01, 0b10]


def test_four_spin_two_up_count():
    assert enumerate_sector(4, 2).dim == 6


def test_large_sector_count_matches_factorial_oracle():
    assert enumerate_sector(13, 6).dim == binomial(13, 6) == 1716


@pytest.mark.parametrize("n", range(2, 15))
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
    assert zeeman_eigenvalue(n, k) == expected


@pytest.mark.parametrize("n", [2, 5, 9, 14])
def test_zeeman_antisymmetry_under_spin_flip(n):
    for k in range(n + 1):
        assert zeeman_eigenvalue(n, k) == -zeeman_eigenvalue(n, n - k)


def test_out_of_range_arguments_rejected():
    with pytest.raises(ParameterError):
        enumerate_sector(15, 2)
    with pytest.raises(ParameterError):
        enumerate_sector(6, 7)
    with pytest.raises(ParameterError):
        enumerate_sector(6, -1)
    with pytest.raises(ParameterError):
        zeeman_eigenvalue(4, 5)
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
