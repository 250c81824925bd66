import itertools
import math
import tracemalloc
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinchain import (
    MAX_SPINS,
    NumericError,
    ParameterError,
    ScanGrid,
    critical_field_closed_form,
    diagonalize_chain,
    entanglement_length,
    figure_dataset,
    lipschitz_check,
    magnetization_staircase,
    scan_pair_measures,
)
from spinchain import scans, thermal
from spinchain.basis import separation
from spinchain.scans import FIGURE_COLUMNS, SCAN_COLUMNS
from oracles import weight_rows


@lru_cache(maxsize=None)
def spectrum(n, j):
    return diagonalize_chain(n, j)


@lru_cache(maxsize=None)
def crossings(n, j):
    """Staircase crossing fields of an antiferromagnet; none for J <= 0."""
    return [c.b_value for c in magnetization_staircase(n, j).crossings] if j > 0 else []


@st.composite
def thermal_grids(draw):
    """(N, J, extra B values, extra kT values > 0, pairs) of a small ring."""
    n, j = draw(st.integers(2, 10)), draw(st.sampled_from([1.0, -1.0, 0.5]))
    b_extra = draw(st.lists(st.floats(0.01, 8.0), max_size=3))
    kt_extra = draw(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=3))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(lambda t: (t[0], (t[0] + t[1]) % n))
    return n, j, b_extra, kt_extra, draw(st.lists(pair, min_size=1, max_size=3, unique=True))


class TestScanGrid:
    def test_from_separations(self):
        grid = ScanGrid.from_separations(6, 1.0, [0.0, 1.0], [0.1], (1, 3))
        assert grid.pairs == ((0, 1), (0, 3))

    def test_rejects_bad_axes_and_pairs(self):
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, np.array([1.0, 0.5]), np.array([0.1]), ((0, 1),))
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, np.array([0.0]), np.array([]), ((0, 1),))
        # An axis must be 1-D: a scalar or a 2-D array is rejected.
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, 0.5, [0.1, 0.2], ((0, 1),))
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, [[0.0, 0.5]], [0.1, 0.2], ((0, 1),))
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, [0.0, 0.5], np.full((2, 2), 0.1), ((0, 1),))
        # So must a ragged axis and one that does not hold real numbers.
        for axis in ([[0.0], [0.5, 1.0]], "abc", [1.0 + 1.0j]):
            with pytest.raises(ParameterError):
                ScanGrid(4, 1.0, axis, [0.1], ((0, 1),))
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, np.array([0.0]), np.array([0.1]), ((0, 4),))
        # A separation outside 1..N//2 is named as such.
        for d in (0, -1, 3, 5, 1.0):
            with pytest.raises(ParameterError, match=rf"separations \[{d}\] out of range for N=4"):
                ScanGrid.from_separations(4, 1.0, [0.0], [0.1], (d,))
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, np.array([-1.0, 0.5]), np.array([0.1]), ((0, 1),))
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, np.array([0.0]), np.array([-0.1, 0.1]), ((0, 1),))
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, np.array([0.0]), np.array([1.0]), ((0.0, 1.0),))
        with pytest.raises(ParameterError, match="repeated"):
            ScanGrid(4, 1.0, np.array([0.0]), np.array([1.0]), ((0, 1), (1, 0), (0, 1)))
        with pytest.raises(ParameterError, match="repeated"):
            ScanGrid.from_separations(4, 1.0, [0.0], [0.1], (1, 1))
        # (0, 1) and (1, 0) are distinct pairs; numpy integer sites pass.
        assert ScanGrid(4, 1.0, np.array([0.0]), np.array([1.0]), ((0, 1), (1, 0))).pairs == ((0, 1), (1, 0))
        assert ScanGrid(4, 1.0, np.array([0.0]), np.array([1.0]), ((np.int64(0), np.int64(2)),)).pairs == ((0, 2),)

    def test_pairs_stored_as_tuples_of_int_pairs(self):
        # A list of lists, or an integer (P, 2) array, is stored as the
        # docstring says, so labels read "pair (0, 1)", not "pair [0, 1]".
        for pairs in ([[0, 1], [1, 3]], np.array([[0, 1], [1, 3]]), ((np.int64(0), 1), [1, np.int32(3)])):
            grid = ScanGrid(4, 1.0, [0.0], [0.1], pairs)
            assert grid.pairs == ((0, 1), (1, 3))
            assert all(type(site) is int for pair in grid.pairs for site in pair)

    @pytest.mark.parametrize(
        "pairs",
        [
            np.array([[0.0, 1.0]]),  # sites must be integers, not truncated floats
            ((0, 1.5),),
            ((0, 1, 2),),
            ((0,),),
            "01",
            ("01",),
            (),
            [],
            None,
            5,
            np.array([0, 1]),
        ],
        ids=repr,
    )
    def test_rejects_anything_but_a_nonempty_sequence_of_site_pairs(self, pairs):
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, [0.0], [0.1], pairs)


class TestScanPairMeasures:
    def test_row_order_is_b_major_then_kt_then_pair(self):
        grid = ScanGrid(4, 1.0, np.array([0.0, 1.0]), np.array([0.5, 2.0]), ((0, 1), (0, 2)))
        m = scan_pair_measures(grid)
        assert set(m) == {"C", "E", "I", "M"}
        assert all(a.shape == (2, 2, 2) for a in m.values())
        table = scans.scan_table(grid, m)
        assert tuple(table) == SCAN_COLUMNS
        key = list(zip(table["B"], table["kT"], table["i"], table["j"]))
        assert key == sorted(key)
        assert len(key) == 8
        assert table["i"].tolist() == [0] * 8
        assert table["j"].tolist() == table["d"].tolist() == [1, 2] * 4
        # Row (B=1, kT=0.5, pair (0, 2)) holds the measures of array entry [1, 0, 1].
        for name in "CEIM":
            assert table[name][5] == m[name][1, 0, 1]

    def test_two_qubit_ground_state_is_maximally_entangled(self):
        grid = ScanGrid(2, 1.0, np.array([0.0]), np.array([1e-4]), ((0, 1),))
        assert scan_pair_measures(grid)["E"][0, 0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_thermal_enhancement_above_critical_field(self):
        grid = ScanGrid(2, 1.0, np.array([4.6]), np.array([0.01, 1.0]), ((0, 1),))
        cold, warm = scan_pair_measures(grid)["E"][0, :, 0]
        assert cold < 1e-6
        assert warm > 0.05

    def test_results_independent_of_thread_count(self, monkeypatch):
        grid = ScanGrid(5, 1.0, np.linspace(0.0, 5.0, 6), np.geomspace(0.1, 5.0, 5), ((0, 1), (0, 2)))
        monkeypatch.setenv("SPINCHAIN_THREADS", "1")
        serial = scan_pair_measures(grid)
        monkeypatch.setenv("SPINCHAIN_THREADS", "4")
        parallel = scan_pair_measures(grid)
        assert all(np.array_equal(serial[name], parallel[name]) for name in "CEIM")

    @pytest.mark.parametrize("n", [6, 14])
    def test_pair_values_do_not_depend_on_the_other_pairs(self, n):
        # The per-pair W @ F product exists for this: a separation's C, E, I
        # and M carry the same bits alone, among all separations, or among
        # all in reverse order.
        sp = diagonalize_chain(n, 1.0)
        b, kt = np.linspace(0.0, 4.8, 5), np.array([0.0, 0.05, 0.4, 2.0])
        seps = range(1, n // 2 + 1)

        def scan(order):
            m = scan_pair_measures(ScanGrid.from_separations(n, 1.0, b, kt, order), sp)
            return {d: [m[name][..., p] for name in "CEIM"] for p, d in enumerate(order)}

        forward, backward = scan(tuple(seps)), scan(tuple(reversed(seps)))
        for d in seps:
            alone = scan((d,))[d]
            for grid_values in (forward[d], backward[d]):
                assert all(np.array_equal(a, g) for a, g in zip(alone, grid_values))

    @pytest.mark.parametrize("kt0", [0.0, 0.5])
    def test_point_values_bounded_across_grid_shapes(self, kt0):
        # BLAS picks its kernel, and so its summation order, by the size of
        # the products, so a point's last bits may depend on how many other
        # points share its grid (up to 1.1e-16 here, as the README states).
        sp = spectrum(10, -1.5)
        alone = thermal.pair_states(sp, [0.0], [kt0], [(0, 1)])[0, 0]
        for n_b, n_kt in itertools.product((1, 3, 200), (1, 3, 40)):
            kt = np.array([kt0]) if n_kt == 1 else np.r_[0.0, 0.5, np.linspace(1.0, 2.0, n_kt - 2)]
            states = thermal.pair_states(sp, np.linspace(0.0, 6.0, n_b), kt, [(0, 1)])
            np.testing.assert_allclose(states[0, np.flatnonzero(kt == kt0)[0]], alone, rtol=0, atol=1e-15)

    def test_kt_zero_routed_through_ground_manifold(self):
        grid = ScanGrid(2, 1.0, np.array([0.0]), np.array([0.0]), ((0, 1),))
        assert scan_pair_measures(grid)["C"][0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_spectrum_of_another_ring(self):
        grid = ScanGrid.from_separations(8, 1.0, [3.5], [0.1], (1,))
        with pytest.raises(ParameterError, match="N=6"):
            scan_pair_measures(grid, spectrum=diagonalize_chain(6, 1.0))
        ferro = ScanGrid(4, -1.0, np.array([0.0, 1.0]), np.array([0.5]), ((0, 1),))
        with pytest.raises(ParameterError, match="J=1.0"):
            scan_pair_measures(ferro, spectrum=diagonalize_chain(4, 1.0))

    def test_kt_positive_columns_expand_one_sector_at_a_time(self, monkeypatch):
        # Every column, kT = 0 included, sums each sector's rows as they are
        # expanded by one `Sectors`: no column joins the feature table of
        # every eigenstate (`ChainSpectrum.features`) or the weights of every
        # eigenstate (`gibbs_weights`), each expansion holds one sector's
        # rows, and a sector's rows are gone before the next sector's arrive.
        n, pairs = 10, [(0, 1), (2, 5), (0, 5)]
        sp, b_values = spectrum(n, 1.0), np.linspace(0.0, 5.0, 7)
        real, expanded, walks = thermal.Sectors.expand, [], []

        def seen(f):
            assert all(ref() is None for _, ref in expanded), "an earlier sector's rows are still held"
            expanded.append((f.shape, weakref.ref(f)))
            return f

        def spy(self, pairs):
            walks.append(self)
            return map(seen, real(self, pairs))

        def joined(*args):
            raise AssertionError("a column formed a table over every eigenstate")

        for kt_values in (np.array([0.05, 0.5, 2.0]), np.array([0.0, 0.05, 0.5, 2.0])):
            want = thermal.pair_states(sp, b_values, kt_values, pairs)
            expanded.clear()
            walks.clear()
            with monkeypatch.context() as patch:
                patch.setattr(thermal.Sectors, "expand", spy)
                patch.setattr(thermal.ChainSpectrum, "features", property(joined))
                patch.setattr(thermal, "gibbs_weights", joined)
                assert np.array_equal(thermal.pair_states(sp, b_values, kt_values, pairs), want)
            assert len(walks) == 1
            assert [shape for shape, _ in expanded] == [(math.comb(n, k), len(pairs), 5) for k in range(n + 1)]
            assert all(ref() is None for _, ref in expanded)

    @pytest.mark.parametrize(
        "b_values,kt_values",
        [([1.0], [-0.1]), ([-1.0], [1.0]), ([np.nan], [1.0]), ([1.0], [np.inf]), ([[0.0, 1.0]], [1.0]), ([1.0], [])],
        ids=["negative-kT", "negative-B", "nan-B", "inf-kT", "2-D-B", "empty-kT"],
    )
    def test_pair_states_rejects_axes_outside_domain(self, b_values, kt_values):
        # One check per call holds the grid's axes to the rule of `ScanGrid`
        # and `ModelParams`: nonempty, finite, 1-D, B >= 0 and kT >= 0.
        with pytest.raises(ParameterError):
            thermal.pair_states(spectrum(6, 1.0), b_values, kt_values, [(0, 1)])

    def test_pair_states_memory_for_largest_ring_on_default_grid(self):
        # N=14 has 2**14 eigenstates and the default grid 121 x 120 points, so a
        # (points x eigenstates) weight matrix would take about 1.9 GB. A kT = 0
        # column sums each sector's ground window, so it forms no (B x
        # eigenstates) weight matrix or feature table either (together 52 MiB).
        sp, pairs = spectrum(14, 1.0), [(0, d) for d in range(1, 8)]
        for kt_values, bound_mib in ((np.geomspace(0.01, 10.0, 120), 64), (np.linspace(0.0, 2.0, 21), 16)):
            tracemalloc.start()
            try:
                states = thermal.pair_states(sp, np.linspace(0.0, 6.0, 121), kt_values, pairs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert states.shape == (121, kt_values.size, 7, 5)
            assert peak <= bound_mib * 2**20, f"{peak / 2**20:.1f} MiB on {kt_values.size} kT values"

    @settings(max_examples=100, deadline=None)
    @given(case=thermal_grids())
    @example(case=(6, 1.0, [], [1e-300, 0.5], [(0, 1), (0, 3)]))
    @example(case=(7, 1e9, [5e8, 3e9], [1e-300, 1e8, 2e9], [(0, 1), (2, 5)]))
    @example(case=(8, 1e-12, [1e-12, 5e-12], [1e-13, 3e-12, 1.0], [(0, 4), (1, 3)]))
    def test_pair_states_match_one_shot_product(self, case):
        # `pair_states` sums each slope sector once per kT > 0; it must agree
        # with the one-shot W @ F over the flattened grid, B-major, on B grids
        # through 0 and the staircase crossings and kT grids through 0.
        n, j, b_extra, kt_extra, pairs = case
        sp = spectrum(n, j)
        b_values = np.unique([0.0, *crossings(n, j), *b_extra])
        kt_values = np.unique([0.0, *kt_extra])
        got = thermal.pair_states(sp, b_values, kt_values, pairs)
        b, kt = np.repeat(b_values, kt_values.size), np.tile(kt_values, b_values.size)
        f = sp.features[:, [separation(n, i, j) - 1 for i, j in pairs]]
        want = (weight_rows(sp, b, kt) @ f.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert got.shape == (b_values.size, kt_values.size, len(pairs), 5)
        assert np.abs(got - want.reshape(got.shape)).max() < 1e-13

    def test_unhealthy_pair_state_names_first_failing_point(self, monkeypatch):
        grid = ScanGrid(2, 1.0, np.array([0.0, 1.0]), np.array([0.5]), ((0, 1),))
        real = thermal.Sectors.expand

        def corrupted(self, pairs):
            for f in real(self, pairs):
                f[..., 4] *= 3.0  # coherence too large for a positive state
                yield f

        monkeypatch.setattr(thermal.Sectors, "expand", corrupted)
        with pytest.raises(NumericError, match=r"B=0\.0, kT=0\.5"):
            scan_pair_measures(grid)


class TestStaircase:
    def test_two_qubit_single_crossing(self):
        st = magnetization_staircase(2, 1.0)
        assert len(st.crossings) == 1
        assert st.b_c_numeric == pytest.approx(4.0, abs=1e-12)
        assert st.b_e == 0.0  # the one-up sector is already the B=0 ground sector

    def test_six_spins_b_e_matches_reference(self):
        st = magnetization_staircase(6, 1.0)
        assert 3.23 <= st.b_e <= 3.25
        assert st.b_c_numeric == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("coupling", ["1", None, 1j, [1.0]])
    def test_closed_form_critical_field_rejects_non_real_coupling(self, coupling):
        # `coupling > 0` raised a bare TypeError for these.
        with pytest.raises(ParameterError, match="coupling must be a finite real number"):
            critical_field_closed_form(4, coupling)

    @pytest.mark.parametrize("n", range(2, 14))
    def test_matches_closed_form_critical_field(self, n):
        st = magnetization_staircase(n, 1.0)
        assert abs(st.b_c_numeric - critical_field_closed_form(n, 1.0)) < 1e-9

    @pytest.mark.parametrize("n", range(2, 10))
    def test_sector_ground_energies_mirror_and_match_spectrum(self, n):
        eps = magnetization_staircase(n, 1.0).sector_ground_energies
        assert np.array_equal(eps, eps[::-1])  # sector N - k is sector k flipped
        sp = diagonalize_chain(n, 1.0)
        lowest = [sp.energies[sp.slopes == 2 * k - n].min() for k in range(n + 1)]
        assert np.abs(eps - lowest).max() < 1e-12

    @pytest.mark.parametrize("n", [7, 8])
    def test_solves_the_same_blocks_as_the_spectrum(self, n, monkeypatch):
        # `eigh` runs only on the sector n_up = N // 2, as its momentum
        # blocks q = 0..N//2 (N=7: dim 35 -> 5 orbits in each block), split
        # for even N by the spin inversion into z = +1 and z = -1 halves
        # (N=8: dim 70 -> 7 + 3, 3 + 5, 5 + 4, 3 + 5, 6 + 4). The staircase
        # reads the spectrum and solves nothing of its own.
        from spinchain import thermal

        built, solved, lapack = [], [], []
        real_enumerate = thermal.enumerate_sector

        def enumerating(n_spins, n_up):
            built.append(n_up)
            return real_enumerate(n_spins, n_up)

        def recording(solver, log):
            def solve(matrix, *args, **kwargs):
                log.append((built[-1] if built else None, len(matrix)))
                return solver(matrix, *args, **kwargs)

            return solve

        monkeypatch.setattr(thermal, "enumerate_sector", enumerating)
        monkeypatch.setattr(thermal, "eigh_symmetric", recording(thermal.eigh_symmetric, solved))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name), lapack))
        magnetization_staircase(n, 1.0)
        by_staircase = (built[:], solved[:], lapack[:])
        for log in (built, solved, lapack):
            log.clear()
        diagonalize_chain(n, 1.0)
        assert built == [n // 2]
        assert solved == {7: [(3, 5)] * 4, 8: [(4, d) for d in (7, 3, 3, 5, 5, 4, 3, 5, 6, 4)]}[n]
        assert lapack == solved
        assert by_staircase == (built, solved, lapack)

    def test_rejects_non_integer_spin_count(self):
        with pytest.raises(ParameterError):
            magnetization_staircase(4.0, 1.0)

    def test_crossings_strictly_increasing_and_ordered(self):
        st = magnetization_staircase(10, 1.0)
        b_vals = [c.b_value for c in st.crossings]
        assert all(b2 > b1 for b1, b2 in zip(b_vals, b_vals[1:]))
        assert st.crossings[0].from_n_up == 5
        assert st.crossings[-1].to_n_up == 0
        assert st.b_e < st.b_c_numeric

    def test_ferromagnet_rejected(self):
        with pytest.raises(ParameterError):
            magnetization_staircase(6, -1.0)

    @pytest.mark.parametrize("n", range(2, MAX_SPINS + 1))
    def test_each_crossing_lowers_n_up_by_one(self, n):
        st = magnetization_staircase(n, 1.0)
        assert [(c.from_n_up, c.to_n_up) for c in st.crossings] == [(k, k - 1) for k in range(n // 2, 0, -1)]

    @pytest.mark.usefixtures("skipped_sector")
    def test_skipped_sector_raises(self):
        with pytest.raises(NumericError, match="skip a sector"):
            magnetization_staircase(4, 1.0)


class TestEntanglementLength:
    @pytest.mark.parametrize("b,expected", [(2.0, 1), (3.5, 3), (6.0, 0)])
    def test_six_spin_reference_values(self, b, expected):
        res = entanglement_length(6, 1.0, b, 0.1)
        assert res.l_e == expected

    def test_distance_decay_in_w_window(self):
        res = entanglement_length(6, 1.0, 3.5, 0.1)
        assert res.c_by_separation[0] >= res.c_by_separation[-1] > 0

    def test_shared_spectrum_reuse(self):
        sp = diagonalize_chain(6, 1.0)
        grid = ScanGrid.from_separations(6, 1.0, [2.0], [0.1], (1, 2, 3))
        res = entanglement_length(6, 1.0, 2.0, 0.1)
        assert np.array_equal(scan_pair_measures(grid, sp)["C"][0, 0], res.c_by_separation)
        assert res.l_e == 1


class TestLipschitz:
    def test_two_qubit_grid_respects_bound(self):
        grid = ScanGrid(2, 1.0, np.arange(0.0, 6.001, 0.05), np.array([0.5, 1.0, 2.0]), ((0, 1),))
        rep = lipschitz_check(grid)
        assert rep.satisfied
        assert rep.max_ratio <= 1.0 + 1e-6

    def test_flat_region_has_tiny_ratio(self):
        grid = ScanGrid(2, 1.0, np.array([20.0, 20.5, 21.0]), np.array([8.0]), ((0, 1),))
        rep = lipschitz_check(grid)
        assert rep.max_ratio < 1e-3

    def test_checks_every_pair_of_the_grid(self):
        b_grid, kt_grid = np.linspace(0.0, 6.0, 25), np.array([0.3, 1.0])
        rep_02 = lipschitz_check(ScanGrid(6, 1.0, b_grid, kt_grid, ((0, 2),)))
        rep_01 = lipschitz_check(ScanGrid(6, 1.0, b_grid, kt_grid, ((0, 1),)))
        assert rep_02.max_ratio == pytest.approx(0.0521, abs=1e-4)
        assert rep_01.max_ratio == pytest.approx(0.1124, abs=1e-4)
        both = lipschitz_check(ScanGrid(6, 1.0, b_grid, kt_grid, ((0, 2), (0, 1))))
        assert both.max_ratio == rep_01.max_ratio
        assert both.worst_point == rep_01.worst_point

    def test_requires_multiple_b_samples(self):
        grid = ScanGrid(2, 1.0, np.array([1.0]), np.array([0.5]), ((0, 1),))
        with pytest.raises(ParameterError):
            lipschitz_check(grid)

    def test_requires_positive_temperatures(self):
        grid = ScanGrid(2, 1.0, np.array([0.0, 1.0]), np.array([0.0, 0.5]), ((0, 1),))
        with pytest.raises(ParameterError, match="kT > 0"):
            lipschitz_check(grid)


class TestFigureDatasets:
    def test_unknown_id_rejected(self):
        with pytest.raises(ParameterError):
            figure_dataset(9)

    def test_figure2_structure(self):
        ds = figure_dataset(2)
        assert tuple(ds.table) == FIGURE_COLUMNS
        assert all(col.shape == (121 * 3,) for col in ds.table.values())
        assert set(ds.table["d"].tolist()) == {1, 2, 3}
        assert ds.plot["kind"] == "lines"
        assert len(ds.plot["series"]) == 3
        # The d=2 curve is that column of the table, rows B-major then pair.
        assert ds.plot["series"][1]["y"] == ds.table["E"][1::3].tolist()

    def test_figure4_curves(self):
        ds = figure_dataset(4)
        assert set(ds.table["N"].tolist()) == {5, 6, 7, 8, 9, 10}
        assert np.all(ds.table["B"] == 4.2)
        labels = [s["label"] for s in ds.plot["series"]]
        assert labels == [f"N={n}" for n in (5, 6, 7, 8, 9, 10)]

    def test_figure5_has_both_signs_of_coupling(self):
        ds = figure_dataset(5)
        assert set(ds.table["J"].tolist()) == {1.0, -1.0}
        assert [s["label"] for s in ds.plot["series"]] == ["AF, I", "F, I", "AF, E"]

    def test_ferromagnet_mutual_information_rises_with_temperature(self):
        ds = figure_dataset(5)
        i_vals = ds.table["I"][ds.table["J"] < 0]
        assert max(i_vals) > i_vals[0] + 1e-6
        assert ds.plot["series"][1]["y"] == i_vals.tolist()


class TestPlotPayload:
    @staticmethod
    def payload(b_values, kt_values):
        grid = ScanGrid(2, 1.0, b_values, kt_values, ((0, 1),))
        return scans.plot_payload("t", [(grid, np.zeros((len(b_values), len(kt_values))), "pair")])

    def test_a_kt_axis_is_logarithmic_with_more_than_two_positive_values(self):
        # Along kT, a line plot follows the heatmap's rule for its kT axis.
        assert self.payload([1.0], [0.1, 0.5, 2.0])["logx"] is True
        for kt in ([0.0, 0.5, 2.0], [0.5, 2.0], [0.5]):
            assert self.payload([1.0], kt)["logx"] is False
        # A B axis is always linear.
        line = self.payload([0.0, 0.5, 2.0], [0.1])
        assert (line["kind"], line["xlabel"], line["logx"]) == ("lines", "B", False)

    def test_heatmap_kt_axis_rule(self):
        for kt, log in (([0.1, 0.5, 2.0], True), ([0.0, 0.5, 2.0], False), ([0.5, 2.0], False)):
            heat = self.payload([0.0, 1.0], kt)
            assert (heat["kind"], heat["ylabel"], heat["logy"]) == ("heatmap", "kT", log)
            assert heat["z"] == [[0.0, 0.0]] * len(kt)  # one row per kT value
