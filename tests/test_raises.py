"""Every raise in src/fpt names an fpt error class or AssertionError, and
every class in errors.py is raised somewhere: one class per CLI outcome."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fpt"


def error_classes(src: Path) -> set[str]:
    tree = ast.parse((src / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def raised_names(path: Path):
    """(name raised, line) of each raise statement; None for a bare raise."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield (exc.id if isinstance(exc, ast.Name) else None), node.lineno


def raise_violations(src: Path) -> tuple[list[str], set[str]]:
    """Raises of anything but the error classes and AssertionError, and
    the error classes never raised."""
    classes = error_classes(src)
    allowed = classes | {"AssertionError"}
    foreign, raised = [], set()
    for path in sorted(src.glob("*.py")):
        for name, line in sorted(raised_names(path), key=lambda hit: hit[1]):
            raised.add(name)
            if name not in allowed:
                foreign.append(f"{path.name}:{line} {name}")
    return foreign, classes - raised


def test_every_raise_names_an_fpt_error_or_assertion():
    foreign, unraised = raise_violations(SRC)
    assert error_classes(SRC) == {"FptError", "BudgetExceeded", "DependentPair"}
    assert foreign == []
    assert unraised == set()


def test_scan_flags_foreign_raises_and_unraised_classes(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class FptError(ValueError):\n    pass\n\n\nclass Unused(FptError):\n    pass\n"
    )
    (tmp_path / "mod.py").write_text(
        "from .errors import FptError\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise FptError('x')\n"
        "    if x is None:\n"
        "        raise AssertionError\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except ZeroDivisionError:\n"
        "        raise\n"
        "    raise ValueError('y')\n"
    )
    assert raise_violations(tmp_path) == (["mod.py:10 None", "mod.py:11 ValueError"], {"Unused"})
