"""Every module-level import in src/fpt is used by the module itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fpt"


def _module_imports(tree: ast.Module):
    """(bound name, line) of each import outside functions and classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            stack.extend(ast.iter_child_nodes(node))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exempt = _exported(tree)
    return [
        f"{path.name}:{line} {name}"
        for name, line in _module_imports(tree)
        if name not in used and name not in exempt
    ]


def test_no_unused_module_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [hit for path in modules for hit in unused_imports(path)]
    assert unused == []


def test_scan_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from .errors import Used, Unused\n"
        "__all__ = ['Exported']\n"
        "from .x import Exported\n"
        "def f() -> Used:\n"
        "    import sys\n"
        "    return os.sep\n"
    )
    assert unused_imports(mod) == ["mod.py:3 Unused"]
