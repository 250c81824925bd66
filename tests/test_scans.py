import numpy as np
import pytest

from spinchain import (
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
from spinchain import scans
from spinchain.scans import FIGURE_COLUMNS, SCAN_COLUMNS


class TestScanGrid:
    def test_from_separations(self):
        grid = ScanGrid.from_separations(6, 1.0, [0.0, 1.0], [0.1], (1, 3))
        assert grid.pairs == ((0, 1), (0, 3))

    def test_rejects_bad_axes_and_pairs(self):
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, np.array([1.0, 0.5]), np.array([0.1]), ((0, 1),))
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, np.array([0.0]), np.array([]), ((0, 1),))
        with pytest.raises(ParameterError):
            ScanGrid(4, 1.0, np.array([0.0]), np.array([0.1]), ((0, 4),))
        with pytest.raises(ParameterError):
            ScanGrid.from_separations(4, 1.0, [0.0], [0.1], (3,))
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

    def test_kt_zero_routed_through_ground_manifold(self):
        grid = ScanGrid(2, 1.0, np.array([0.0]), np.array([0.0]), ((0, 1),))
        assert scan_pair_measures(grid)["C"][0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_spectrum_of_another_ring(self):
        grid = ScanGrid.from_separations(8, 1.0, [3.5], [0.1], (1,))
        with pytest.raises(ParameterError, match="N=6"):
            scan_pair_measures(grid, spectrum=diagonalize_chain(6, 1.0))
        with pytest.raises(ParameterError, match="N=6"):
            entanglement_length(8, 1.0, 3.5, 0.1, spectrum=diagonalize_chain(6, 1.0))
        ferro = ScanGrid(4, -1.0, np.array([0.0, 1.0]), np.array([0.5]), ((0, 1),))
        with pytest.raises(ParameterError, match="J=1.0"):
            scan_pair_measures(ferro, spectrum=diagonalize_chain(4, 1.0))
        with pytest.raises(ParameterError, match="J=1.0"):
            lipschitz_check(ferro, spectrum=diagonalize_chain(4, 1.0))

    def test_weight_chunks_bound_w_for_largest_ring_on_default_grid(self):
        # N=14 has 2**14 eigenstates; the default grid has 121 x 120 points.
        # Unchunked, W would hold 2.4e8 float64 entries (about 1.9 GB).
        n_points, n_states = 121 * 120, 2**14
        sizes = [len(range(n_points)[c]) for c in scans._weight_chunks(n_points, n_states)]
        assert sum(sizes) == n_points
        assert max(sizes) * n_states <= scans.WEIGHT_CHUNK_ENTRIES
        assert scans.WEIGHT_CHUNK_ENTRIES * 8 <= 64 * 2**20

    def test_chunked_scan_matches_single_chunk(self, monkeypatch):
        grid = ScanGrid(4, 1.0, np.linspace(0.0, 5.0, 3), np.array([0.0, 0.3, 2.0]), ((0, 1), (0, 2)))
        whole = scan_pair_measures(grid)
        shapes = []
        real = scans.weight_rows

        def spy(spectrum, b, kt):
            shapes.append((len(b), spectrum.energies.size))
            return real(spectrum, b, kt)

        monkeypatch.setattr(scans, "weight_rows", spy)
        monkeypatch.setattr(scans, "WEIGHT_CHUNK_ENTRIES", 32)  # two of the nine points per chunk
        chunked = scan_pair_measures(grid)
        assert shapes == [(2, 16)] * 4 + [(1, 16)]
        assert all(np.abs(chunked[name] - whole[name]).max() < 1e-13 for name in "CEIM")

    def test_unhealthy_pair_state_names_first_failing_point(self, monkeypatch):
        grid = ScanGrid(2, 1.0, np.array([0.0, 1.0]), np.array([0.5]), ((0, 1),))
        real = scans.pair_features

        def corrupted(spectrum, pairs):
            f = real(spectrum, pairs)
            f[..., 4] *= 3.0  # coherence too large for a positive state
            return f

        monkeypatch.setattr(scans, "pair_features", corrupted)
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
        from spinchain import thermal

        solved, current = [], []
        real_blocks = thermal._flip_blocks

        def blocks(params):
            for n_up, states, matrix in real_blocks(params):
                current[:] = [n_up]
                yield n_up, states, matrix

        def recording(solver):
            def solve(matrix):
                solved.append((current[0], len(matrix)))
                return solver(matrix)

            return solve

        monkeypatch.setattr(thermal, "_flip_blocks", blocks)
        monkeypatch.setattr(scans, "_flip_blocks", blocks)
        monkeypatch.setattr(thermal, "eigh_symmetric", recording(thermal.eigh_symmetric))
        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        magnetization_staircase(n, 1.0)
        by_staircase = solved[:]
        solved.clear()
        diagonalize_chain(n, 1.0)
        assert by_staircase == solved
        if n == 8:  # the middle sector (dim 70) only as its two flip halves
            assert solved == [(3, 56), (2, 28), (1, 8), (0, 1), (4, 35), (4, 35)]

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
        res = entanglement_length(6, 1.0, 2.0, 0.1, spectrum=sp)
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
