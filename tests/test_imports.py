"""Module boundaries of the package's source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinchain"


def private_imports(src):
    """`file:line name` of every underscore name a module imports from the package."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "spinchain"):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    # A rule that two modules use has one owner that exports it under a
    # public name, so no private name is read across a module line.
    assert list(SRC.glob("*.py"))
    assert private_imports(SRC) == []
