"""Property tests of the vectorized scan path.

The closed-form X-state measures must agree with the general 4x4 functions,
on arbitrary X-states and on the scan's thermal ring states, `pair_rdm`
must agree with the dense oracle, and the kT = 0 rule must be the kT -> 0+
limit away from level crossings.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (
    ScanGrid,
    chsh_quantity,
    concurrence,
    diagonalize_chain,
    eof_from_concurrence,
    gibbs_weights,
    magnetization_staircase,
    mutual_information,
    pair_rdm,
    scan_pair_measures,
)
from spinchain.measures import x_state_measures
from spinchain.thermal import DEGENERACY_TOL
from oracles import dense_gibbs_state, dense_pair_rdm

# Bounds hold exactly in real arithmetic; this is room for float roundoff.
ROUNDOFF = 1e-12


@lru_cache(maxsize=None)
def spectrum(n, j):
    return diagonalize_chain(n, j)


def ordered_pairs(n):
    """Any ordered pair (i, k) of distinct sites, i > k included."""
    return st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(lambda t: (t[0], (t[0] + t[1]) % n))


def ring_points(max_n):
    """(N, J, B, kT, pairs): B >= 0, kT >= 0 with kT = 0 drawn often, and
    1-4 distinct ordered site pairs."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from([1.0, -1.0, 0.5, 2.0]),
            st.floats(0.0, 8.0),
            st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
            st.lists(ordered_pairs(n), min_size=1, max_size=4, unique=True),
        )
    )


@settings(max_examples=150, deadline=None)
@given(ring_points(8))
def test_scan_measures_match_general_functions(point):
    # One scan over several pairs: each pair's slice must hold that pair's
    # measures, so the pair and feature axes of the stacked scan are checked.
    n, j, b, kt, pairs = point
    sp = spectrum(n, j)
    scan = scan_pair_measures(ScanGrid(n, j, [b], [kt], tuple(pairs)), spectrum=sp)
    ens = gibbs_weights(sp, b, kt)
    for p, (i, k) in enumerate(pairs):
        got = np.array([scan[name][0, 0, p] for name in "CEIM"])
        rho = pair_rdm(ens, i, k)
        c = concurrence(rho).concurrence
        expected = (c, eof_from_concurrence(c), mutual_information(rho), chsh_quantity(rho))
        assert np.abs(got - expected).max() < 1e-10
        c, _e, mi, m = got
        assert 0.0 <= c <= 1.0 + ROUNDOFF
        assert mi >= 0.0
        assert m <= 2.0 + ROUNDOFF


@settings(max_examples=60, deadline=None)
@given(ring_points(6))
def test_pair_rdm_matches_dense_oracle(point):
    # The first drawn pair is any ordered pair of distinct sites, so that the
    # site order of every feature is checked, not only that of the pairs (0, d).
    n, j, b, kt, ((i, k), *_rest) = point
    got = pair_rdm(gibbs_weights(spectrum(n, j), b, kt), i, k).matrix
    want = dense_pair_rdm(dense_gibbs_state(n, j, b, kt), n, i, k)
    assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("j", [1.0, -1.0, 0.5])
@pytest.mark.parametrize("n", range(2, 9))
def test_cold_limit_matches_kt_zero(n, j):
    # Away from level crossings, kT = gap/60 leaves every level above the
    # ground manifold a relative weight below exp(-60), so the kT = 0 rule
    # (uniform mixture of the ground manifold) must give the same measures.
    sp = spectrum(n, j)
    if j > 0:
        crossings = [c.b_value for c in magnetization_staircase(n, j).crossings]
        edges = np.unique([0.0, *crossings, crossings[-1] + 2.0 * j])
        b_values = (edges[:-1] + edges[1:]) / 2
    else:
        b_values = [0.0, 0.7, 3.0]
    for b in b_values:
        e = np.sort(sp.energies + b * sp.slopes)
        gap = e[e > e[0] + DEGENERACY_TOL * max(1.0, abs(e[0]))][0] - e[0]
        grid = ScanGrid.from_separations(n, j, [b], [0.0, gap / 60], range(1, n // 2 + 1))
        m = scan_pair_measures(grid, spectrum=sp)
        for name in "CEIM":
            assert np.abs(m[name][0, 0] - m[name][0, 1]).max() < 1e-10, (b, name)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda p: sum(p) > 1e-3),
    st.floats(-1.0, 1.0),
)
def test_x_state_measures_match_general_functions(weights, u):
    # Populations need not be symmetric under the site swap, as they are on rings.
    p00, p01, p10, p11 = np.array(weights) / sum(weights)
    z = u * np.sqrt(p01 * p10)  # keeps the middle block positive semidefinite
    rho = np.diag([p00, p01, p10, p11])
    rho[1, 2] = rho[2, 1] = z
    c = concurrence(rho).concurrence
    expected = (c, eof_from_concurrence(c), mutual_information(rho), chsh_quantity(rho))
    got = x_state_measures(np.array([p00, p01, p10, p11, z]))
    assert np.abs(np.array(got) - expected).max() < 1e-10
