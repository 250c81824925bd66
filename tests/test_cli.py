import json

import pytest

from spinchain.cli import main


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

    def test_bad_range_exits_2(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert run(["grid", "--n", "2", "--j", "1", "--b-range", "junk",
                    "--kt-range", "1:1:1", "--sep", "1", "--out", out]) == 2
        # A geometric range needs MIN > 0 even with one step.
        assert run(["grid", "--n", "2", "--j", "1", "--b-range", "0:1:2",
                    "--kt-range", "0:1:1:geom", "--sep", "1", "--out", out]) == 2

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

    def test_unhealthy_pair_state_exits_1(self, tmp_path, monkeypatch, capsys):
        from spinchain import scans

        real = scans.pair_features
        monkeypatch.setattr(scans, "pair_features", lambda sp, pairs: 1.5 * real(sp, pairs))
        code = run(["grid", "--n", "2", "--j", "1", "--b-range", "0:1:2", "--kt-range", "0.5:1:2",
                    "--sep", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "B=0.0, kT=0.5" in capsys.readouterr().err

    def test_pair_and_sep_mutually_exclusive(self):
        assert run(["grid", "--n", "2", "--j", "1", "--b-range", "0:1:2",
                    "--kt-range", "1:1:1", "--pair", "0,1", "--sep", "1", "--out", "x.csv"]) == 2

    def test_svg_written_and_self_contained(self, tmp_path):
        out, svg = tmp_path / "scan.csv", tmp_path / "scan.svg"
        code = run(
            ["grid", "--n", "2", "--j", "1", "--b-range", "0:6:13",
             "--kt-range", "0.1:5:6:geom", "--pair", "0,1",
             "--out", str(out), "--svg", str(svg)]
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert text.rstrip().endswith("</svg>")
        assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")
        assert "<rect" in text  # heatmap cells for the 2D grid

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "scan.csv"
        cfg.write_text(json.dumps({"n": 2, "j": 1.0, "b_range": "0:1:2",
                                   "kt_range": "1:1:1", "sep": [1], "out": "ignored.csv"}))
        code = run(["grid", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.exists()

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
    def test_unknown_id_exits_2(self):
        assert run(["figure", "--id", "9", "--outdir", "/tmp/nope"]) == 2

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
        run(["figure", "--id", "2", "--outdir", str(tmp_path / "a")])
        monkeypatch.setenv("SPINCHAIN_THREADS", "3")
        run(["figure", "--id", "2", "--outdir", str(tmp_path / "b")])
        assert (tmp_path / "a/fig2.csv").read_bytes() == (tmp_path / "b/fig2.csv").read_bytes()


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
