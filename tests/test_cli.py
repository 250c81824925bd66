import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spinchain
from spinchain.cli import _write_csv, main


def run(argv, capsys=None):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    return code


class TestGridCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            [
                "grid",
                "--n",
                "2",
                "--j",
                "1",
                "--b-range",
                "0:1:3",
                "--kt-range",
                "0.5:2:2",
                "--pair",
                "0,1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "B,kT,i,j,d,C,E,I,M"
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        assert first[:5] == ["0", "0.5", "0", "1", "1"]

    def test_json_output(self, tmp_path):
        out = tmp_path / "scan.json"
        code = run(
            ["grid", "--n", "2", "--j", "1", "--b-range", "0:0:1", "--kt-range", "1:1:1",
             "--sep", "1", "--out", str(out), "--format", "json"]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["columns"] == ["B", "kT", "i", "j", "d", "C", "E", "I", "M"]
        assert len(data["rows"]) == 1
        b, kt, i, j, d = data["rows"][0][:5]
        assert [type(v) for v in (i, j, d)] == [int, int, int]
        assert [type(v) for v in (b, kt)] == [float, float]

    def test_geometric_kt_range(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            ["grid", "--n", "2", "--j", "1", "--b-range", "0:0:1",
             "--kt-range", "0.01:10:4:geom", "--sep", "1", "--out", str(out)]
        )
        assert code == 0
        kts = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        ratios = [b / a for a, b in zip(kts, kts[1:])]
        assert all(abs(r - ratios[0]) < 1e-9 for r in ratios)

    def test_missing_required_flag_exits_2(self, capsys):
        assert run(["grid", "--j", "1", "--b-range", "0:1:2", "--kt-range", "1:1:1",
                    "--sep", "1", "--out", "x.csv"]) == 2

    def test_bad_range_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert run(["grid", "--n", "2", "--j", "1", "--b-range", "junk",
                    "--kt-range", "1:1:1", "--sep", "1", "--out", out]) == 2
        # A geometric range needs MIN > 0 even with one step.
        assert run(["grid", "--n", "2", "--j", "1", "--b-range", "0:1:2",
                    "--kt-range", "0:1:1:geom", "--sep", "1", "--out", out]) == 2
        # A non-finite end or span, or a geometric MAX <= 0, is rejected
        # before numpy samples the range, so numpy never warns.
        for b_range, kt_range in (
            ("0:inf:3", "1:1:1"),
            ("nan:1:3", "1:1:1"),
            ("-1.7e308:1.7e308:3", "1:1:1"),
            ("0:1:2", "0.1:-1:3:geom"),
        ):
            capsys.readouterr()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(["grid", "--n", "2", "--j", "1", f"--b-range={b_range}",
                            f"--kt-range={kt_range}", "--sep", "1", "--out", out]) == 2
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert "RuntimeWarning" not in capsys.readouterr().err

    def test_negative_field_exits_2(self, tmp_path):
        assert run(["grid", "--n", "2", "--j", "1", "--b-range=-1:1:3", "--kt-range", "1:1:1",
                    "--sep", "1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_invalid_threads_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPINCHAIN_THREADS", "0")
        assert run(["grid", "--n", "2", "--j", "1", "--b-range", "0:1:2", "--kt-range", "1:1:1",
                    "--sep", "1", "--out", str(tmp_path / "x.csv")]) == 2
        for command in ("staircase", "critical"):
            capsys.readouterr()
            assert run([command, "--n", "4", "--j", "1"]) == 2
            assert capsys.readouterr().out == ""

    def test_overflowing_coupling_exits_2(self, tmp_path, capsys):
        # Finite, but the Hamiltonian's levels overflow float64.
        assert run(["grid", "--n", "4", "--j", "1e308", "--b-range", "0:1:2", "--kt-range", "1:1:1",
                    "--sep", "1", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "J=1e+308" in err and "overflows float64" in err

    def test_overflowing_field_exits_2(self, tmp_path, capsys):
        # Finite, but the levels' span 2(max|E| + N B) overflows float64.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["grid", "--n", "4", "--j", "1", "--sep", "1", "--b-range", "0:1e308:2",
                        "--kt-range", "0:1:2", "--out", str(tmp_path / "x.csv")]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("spinchain: ") and "B=1e+308" in err and "overflow float64" in err

    def test_unhealthy_pair_state_exits_1(self, tmp_path, monkeypatch, capsys):
        from spinchain import thermal

        real = thermal.pair_features
        monkeypatch.setattr(thermal, "pair_features", lambda sp, pairs: 1.5 * real(sp, pairs))
        code = run(["grid", "--n", "2", "--j", "1", "--b-range", "0:1:2", "--kt-range", "0.5:1:2",
                    "--sep", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "B=0.0, kT=0.5" in capsys.readouterr().err

    def test_pair_and_sep_mutually_exclusive(self):
        assert run(["grid", "--n", "2", "--j", "1", "--b-range", "0:1:2",
                    "--kt-range", "1:1:1", "--pair", "0,1", "--sep", "1", "--out", "x.csv"]) == 2

    def test_svg_written_and_self_contained(self, tmp_path):
        # A 2-D grid draws a heatmap of its first pair, a 1-D grid one line per pair.
        out, svg = tmp_path / "scan.csv", tmp_path / "scan.svg"
        for n, grid, pairs in [
            ("2", ["--b-range", "0:6:13", "--kt-range", "0.1:5:6:geom"], ["0,1"]),
            ("4", ["--b-range", "1:1:1", "--kt-range", "0.1:5:6:geom"], ["0,1", "0,2"]),
        ]:
            pair_args = [arg for pair in pairs for arg in ("--pair", pair)]
            code = run(["grid", "--n", n, "--j", "1", *grid, *pair_args, "--out", str(out), "--svg", str(svg)])
            assert code == 0
            text = svg.read_text()
            assert text.startswith("<?xml")
            assert text.rstrip().endswith("</svg>")
            assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")
            if len(pairs) == 1:
                assert "<rect" in text and "<polyline" not in text  # heatmap cells
            else:
                assert text.count("<polyline") == len(pairs)
                assert "pair (0, 1)" in text and "pair (0, 2)" in text

    # A log-kT heatmap whose kT values reach the largest floats.
    NEAR_FLOAT_MAX = ["grid", "--n", "2", "--j", "1", "--b-range", "0:1:2", "--kt-range", "1e300:1.5e308:3:geom",
                      "--pair", "0,1"]

    def test_svg_of_a_kt_range_up_to_the_largest_float_exits_0(self, tmp_path):
        # The decades of a log axis must stop at 1e308: 10.0 ** 309 overflows.
        svg = tmp_path / "scan.svg"
        assert run([*self.NEAR_FLOAT_MAX, "--out", str(tmp_path / "scan.csv"), "--svg", str(svg)]) == 0
        assert svg.read_text().rstrip().endswith("</svg>")

    def test_svg_of_a_kt_range_up_to_the_largest_float_is_finite(self, tmp_path):
        # The geometric midpoint sqrt(a * b) of two kT values near 1e308
        # overflows; the midpoint of their pixels does not.
        svg = tmp_path / "scan.svg"
        run([*self.NEAR_FLOAT_MAX, "--out", str(tmp_path / "scan.csv"), "--svg", str(svg)])
        text = svg.read_text()
        assert "inf" not in text and "nan" not in text

    @pytest.mark.parametrize(
        "b_range,kt_range",
        [("0:5e-324:2", "1:2:2"), ("0:1:1", "1e17:1e17:1")],
        ids=["b-span-below-tick-resolution", "one-kt-where-adding-1-is-lost"],
    )
    def test_svg_of_a_degenerate_axis_exits_0_and_is_finite(self, tmp_path, b_range, kt_range):
        # A span whose fifth underflows to 0 gets one tick, and a one-value
        # axis at 1e17, where lo + 1.0 == lo, widens to the next float.
        svg = tmp_path / "scan.svg"
        assert run(["grid", "--n", "2", "--j", "1", "--pair", "0,1", f"--b-range={b_range}",
                    f"--kt-range={kt_range}", "--out", str(tmp_path / "scan.csv"), "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.rstrip().endswith("</svg>") and "inf" not in text and "nan" not in text

    def test_svg_of_600_kt_decades_labels_few_ticks(self, tmp_path):
        # Log ticks follow the linear rule on log10 kT, so 600 decades get a
        # few labels rather than one each.
        svg = tmp_path / "scan.svg"
        assert run(["grid", "--n", "2", "--j", "1", "--pair", "0,1", "--b-range", "0:1:2", "--kt-range",
                    "1e-300:1e300:3:geom", "--out", str(tmp_path / "scan.csv"), "--svg", str(svg)]) == 0
        assert svg.read_text().count("<text") <= 20

    def test_svg_of_one_kt_at_1e17_labels_it_once(self, tmp_path):
        # The tick step 5 does not move a tick at 1e17, and a tick that did
        # not move is not drawn again.
        svg = tmp_path / "scan.svg"
        assert run(["grid", "--n", "2", "--j", "1", "--pair", "0,1", "--b-range", "0:1:1", "--kt-range",
                    "1e17:1e17:1", "--out", str(tmp_path / "scan.csv"), "--svg", str(svg)]) == 0
        assert svg.read_text().count(">1e+17</text>") == 1

    def test_axis_ticks_end_where_the_step_is_below_the_float_spacing(self):
        # At 1e16 adding the 0.5 tick step leaves the tick unchanged, so ticks
        # made until one passes the axis end never end. The child gets 1 GiB
        # of address space and a time limit so that such a loop fails fast.
        import resource

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))

        code = "from spinchain.svgplot import _nice_ticks; print(len(_nice_ticks(1e16, 1.0000000000000002e16)))"
        src = str(Path(spinchain.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=60, preexec_fn=cap_memory)
        assert res.returncode == 0, res.stderr[-500:]
        assert 1 <= int(res.stdout) <= 6

    def test_csv_number_format(self, tmp_path):
        # One format per table: %d for integer columns, %.12g for all others.
        out = tmp_path / "t.csv"
        table = {"d": np.array([1, -2, 3, 40]), "x": np.array([-0.0, 1 / 3, 1e-300, 2.0])}
        _write_csv(out, table)
        assert out.read_text() == "d,x\n1,-0\n-2,0.333333333333\n3,1e-300\n40,2\n"

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "scan.csv"
        cfg.write_text(json.dumps({"n": 2, "j": 1.0, "b_range": "0:1:2",
                                   "kt_range": "1:1:1", "sep": [1], "out": "ignored.csv"}))
        code = run(["grid", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "config,flag",
        [({"sep": [1]}, ["--pair", "0,2"]), ({"pair": ["0,2"]}, ["--sep", "2"])],
        ids=["sep-in-config-pair-flag", "pair-in-config-sep-flag"],
    )
    def test_pair_or_sep_flag_overrides_both_config_keys(self, tmp_path, config, flag):
        # --pair and --sep are one choice: a flag for either one replaces the
        # config's pair or sep.
        cfg, out = tmp_path / "cfg.json", tmp_path / "scan.csv"
        cfg.write_text(json.dumps({"n": 4, "j": 1.0, "b_range": "0:1:2", "kt_range": "1:1:1", **config}))
        assert run(["grid", "--config", str(cfg), *flag, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert {tuple(row[2:5]) for row in rows} == {("0", "2", "2")}

    @pytest.mark.parametrize(
        "change",
        [{"n": "6"}, {"b_range": 5}, {"b_range": "0:1"}, {"pair": "0,x"}, {"format": "xml"}, [1, 2]],
        ids=["n-string", "range-number", "range-short", "pair-not-int", "format-choice", "not-object"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, change):
        cfg = tmp_path / "cfg.json"
        base = {"n": 2, "j": 1.0, "b_range": "0:1:2", "kt_range": "1:1:1", "sep": [1]}
        if isinstance(change, dict) and "pair" in change:
            del base["sep"]
        cfg.write_text(json.dumps({**base, **change} if isinstance(change, dict) else change))
        assert run(["grid", "--config", str(cfg), "--out", str(tmp_path / "scan.csv")]) == 2
        assert "error:" in capsys.readouterr().err.splitlines()[-1]


class TestFigureCommand:
    def test_unknown_id_exits_2(self, tmp_path):
        assert run(["figure", "--id", "9", "--outdir", str(tmp_path / "nope")]) == 2
        assert not (tmp_path / "nope").exists()

    def test_figure2_csv_and_svg(self, tmp_path):
        code = run(["figure", "--id", "2", "--outdir", str(tmp_path), "--svg"])
        assert code == 0
        lines = (tmp_path / "fig2.csv").read_text().splitlines()
        assert lines[0] == "N,J,B,kT,i,j,d,C,E,I,M"
        assert len(lines) == 1 + 121 * 3
        svg = (tmp_path / "fig2.svg").read_text()
        assert "<polyline" in svg and svg.rstrip().endswith("</svg>")

    def test_byte_identical_reruns_under_different_thread_counts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINCHAIN_THREADS", "1")
        for fig in ("1", "2"):  # a heatmap and a line plot
            run(["figure", "--id", fig, "--outdir", str(tmp_path / "a"), "--svg"])
        monkeypatch.setenv("SPINCHAIN_THREADS", "3")
        for fig in ("1", "2"):
            run(["figure", "--id", fig, "--outdir", str(tmp_path / "b"), "--svg"])
        for name in ("fig1.csv", "fig1.svg", "fig2.csv", "fig2.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_outputs_across_blas_thread_counts(self, tmp_path):
        # The README's reproducibility contract. The N=14 blocks may round
        # differently with 1 and 2 BLAS threads, so the grid's measures may move
        # in the last digits, by at most 1e-11; the figures' blocks are too
        # small for threaded BLAS, so they stay byte-identical. OpenBLAS reads
        # its thread count when numpy loads, so each setting runs in its own
        # interpreter.
        code = (
            "import sys\nfrom spinchain.cli import main\nout = sys.argv[1]\n"
            "seps = [a for d in '1234567' for a in ('--sep', d)]\n"
            "assert main(['grid', '--n', '14', '--j', '1', *seps, '--b-range', '0:4.8:13',\n"
            "             '--kt-range', '0.05:2:6:geom', '--out', out + '/grid.csv']) == 0\n"
            "for fig in '12345':\n"
            "    assert main(['figure', '--id', fig, '--outdir', out, '--svg']) == 0\n"
        )
        src = str(Path(spinchain.__file__).parents[1])
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-c", code, str(tmp_path / threads)], env=env, check=True, timeout=300)
        one, two = (np.array([row.split(",") for row in (tmp_path / t / "grid.csv").read_text().splitlines()])
                    for t in ("1", "2"))
        assert one.shape == two.shape == (1 + 13 * 6 * 7, 9)
        assert (one[:, :5] == two[:, :5]).all()  # header, B, kT, i, j, d
        assert np.abs(one[1:, 5:].astype(float) - two[1:, 5:].astype(float)).max() <= 1e-11
        for name in (f"fig{k}.{ext}" for k in range(1, 6) for ext in ("csv", "svg")):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


class TestJsonCommands:
    def test_staircase(self, capsys):
        assert run(["staircase", "--n", "6", "--j", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["B_E"] - 3.24) < 0.01
        assert data["B_c"] == pytest.approx(4.0, abs=1e-9)
        assert data["crossings"][-1]["to_n_up"] == 0

    def test_staircase_json_is_stable_key_ordered(self, capsys):
        run(["staircase", "--n", "4", "--j", "1"])
        out = capsys.readouterr().out
        data = json.loads(out)
        assert list(data.keys()) == sorted(data.keys())

    @pytest.mark.usefixtures("skipped_sector")
    def test_staircase_exits_1_when_a_sector_is_skipped(self, capsys):
        assert run(["staircase", "--n", "4", "--j", "1"]) == 1
        assert "skip a sector" in capsys.readouterr().err

    def test_critical(self, capsys):
        assert run(["critical", "--n", "5", "--j", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["B_c_closed_form"] == pytest.approx(3.618034, abs=1e-6)
        assert data["B_c_numeric"] == pytest.approx(data["B_c_closed_form"], abs=1e-9)

    def test_elength(self, capsys):
        assert run(["elength", "--n", "6", "--j", "1", "--kt", "0.1", "--b", "3.5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["l_E"] == 3
        assert len(data["C"]) == 3
        assert all(c > 0 for c in data["C"])

    def test_lipschitz(self, capsys):
        assert run(["lipschitz", "--n", "2", "--j", "1", "--b-range", "0:6:61",
                    "--kt-range", "0.5:2:3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["satisfied"] is True
        assert data["max_ratio"] <= 1.0 + 1e-6

    def test_output_file_instead_of_stdout(self, tmp_path):
        out = tmp_path / "crit.json"
        assert run(["critical", "--n", "6", "--j", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["B_c_closed_form"] == 4.0

    def test_invalid_model_parameters_exit_2(self, tmp_path):
        assert run(["staircase", "--n", "20", "--j", "1"]) == 2
        assert run(["staircase", "--n", "6", "--j", "-1"]) == 2
        assert run(["elength", "--n", "6", "--j", "1", "--b", "-1", "--kt", "0.1"]) == 2
        out = tmp_path / "x.csv"
        grid = ["grid", "--n", "4", "--j", "1", "--b-range", "0:1:2", "--kt-range", "1:1:1", "--out", str(out)]
        assert run(grid + ["--pair", "0,1", "--pair", "0,1"]) == 2
        assert run(grid + ["--sep", "1", "--sep", "1"]) == 2
        assert not out.exists()


def test_cli_import_loads_only_stdlib_and_numpy():
    # Every module that loading the command line pulls in counts against
    # each command's start-up time, so a fresh interpreter that imports
    # spinchain.cli may load nothing beyond the standard library and numpy.
    code = (
        "import sys; before = set(sys.modules); import spinchain.cli; "
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))"
    )
    src = str(Path(spinchain.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split())
    assert "spinchain" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "spinchain"} == set()


def test_star_import_binds_exactly_all():
    # A name left in __all__ after its object is gone fails here rather
    # than in a user's `from spinchain import *`.
    namespace = {}
    exec("from spinchain import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(spinchain.__all__)
    assert len(set(spinchain.__all__)) == len(spinchain.__all__)
