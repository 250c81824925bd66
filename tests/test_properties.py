"""Property tests of the vectorized scan path.

The closed-form X-state measures must agree with the general 4x4 functions,
on arbitrary X-states and on the scan's thermal ring states, and `pair_rdm`
must agree with the dense oracle.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (
    ScanGrid,
    chsh_quantity,
    concurrence,
    diagonalize_chain,
    eof_from_concurrence,
    gibbs_weights,
    mutual_information,
    pair_rdm,
    scan_pair_measures,
)
from spinchain.measures import x_state_measures
from oracles import dense_gibbs_state, dense_pair_rdm

# Bounds hold exactly in real arithmetic; this is room for float roundoff.
ROUNDOFF = 1e-12


@lru_cache(maxsize=None)
def spectrum(n, j):
    return diagonalize_chain(n, j)


def ring_points(max_n):
    """(N, J, B, kT, d) with B >= 0 and kT >= 0, kT = 0 drawn often."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from([1.0, -1.0, 0.5, 2.0]),
            st.floats(0.0, 8.0),
            st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
            st.integers(1, n // 2),
        )
    )


@settings(max_examples=150, deadline=None)
@given(ring_points(8))
def test_scan_measures_match_general_functions(point):
    n, j, b, kt, d = point
    sp = spectrum(n, j)
    (row,) = scan_pair_measures(ScanGrid.from_separations(n, j, [b], [kt], (d,)), spectrum=sp)
    rho = pair_rdm(gibbs_weights(sp, b, kt), 0, d)
    c = concurrence(rho).concurrence
    expected = (c, eof_from_concurrence(c), mutual_information(rho), chsh_quantity(rho))
    assert np.abs(np.array(row[5:]) - expected).max() < 1e-10
    c, _e, i, m = row[5:]
    assert 0.0 <= c <= 1.0 + ROUNDOFF
    assert i >= 0.0
    assert m <= 2.0 + ROUNDOFF


@settings(max_examples=60, deadline=None)
@given(ring_points(6), st.data())
def test_pair_rdm_matches_dense_oracle(point, data):
    n, j, b, kt, _d = point
    # Any ordered pair of distinct sites, i > k included, so that the site
    # order of every feature is checked, not only that of the pairs (0, d).
    i = data.draw(st.integers(0, n - 1))
    k = (i + data.draw(st.integers(1, n - 1))) % n
    got = pair_rdm(gibbs_weights(spectrum(n, j), b, kt), i, k).matrix
    want = dense_pair_rdm(dense_gibbs_state(n, j, b, kt), n, i, k)
    assert np.abs(got - want).max() < 1e-10


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
