import re
import shlex
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    match = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S)
    # Pad with blank lines so tracebacks point at README line numbers.
    source = "\n" * text[: match.start(1)].count("\n") + match.group(1)
    exec(compile(source, str(README), "exec"), {})
    c_and_e, b_e, shape = capsys.readouterr().out.splitlines()
    c, e = (float(v) for v in c_and_e.split())
    assert 0.0 < e < c < 1.0
    assert float(b_e) == pytest.approx(3.2360679, abs=1e-7)
    assert shape == "(2, 3, 3)"


def test_command_line_examples_run(tmp_path, monkeypatch):
    from spinchain.cli import main

    text = README.read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("spinchain ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
    assert (tmp_path / "scan.csv").exists() and (tmp_path / "out" / "fig3.svg").exists()
