"""Module boundaries of the package's source, and the warnings it may raise."""

import ast
import warnings
from pathlib import Path

import pytest

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


def unused_imports(src):
    """`file:line name` of every name a module other than `__init__.py` imports and never reads."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":  # imports to re-export
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                found += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    return found


def test_no_module_imports_a_name_it_does_not_use():
    assert unused_imports(SRC) == []


def test_unused_import_check_sees_a_stale_name(tmp_path):
    text = (SRC / "scans.py").read_text()
    stale = text.replace("from .thermal import ", "from .thermal import DEGENERACY_TOL, ", 1)
    assert stale != text
    (tmp_path / "scans.py").write_text(stale)
    assert [entry.split(" ")[1] for entry in unused_imports(tmp_path)] == ["DEGENERACY_TOL"]


def package_imports(path):
    """Package modules a source file imports from, by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinchain":
            found.add(node.module.partition(".")[2] or "spinchain")
    return found


def test_measures_imports_only_basis_and_errors():
    # The two-qubit state contract and its measures rest on the basis
    # conventions and the error types alone; `thermal` builds on them.
    assert package_imports(SRC / "measures.py") <= {"basis", "errors"}


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
def test_a_deprecation_warning_from_the_package_fails_the_suite(category):
    # pyproject's filterwarnings makes a deprecation met inside `spinchain`
    # an error, so a numpy API on its way out shows in the suite at once.
    with pytest.raises(category):
        warnings.warn_explicit("deprecated", category, "thermal.py", 1, module="spinchain.thermal")
