import re
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
