"""Every name a package module imports is read in that module, and every
name the package imports is exported."""

import ast
from pathlib import Path

import pytest

import phrasecritic

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phrasecritic"
# __init__.py imports names to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree: ast.AST) -> set[str]:
    """The names a module binds by import. A __future__ import is a
    compiler directive, not a name."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported


def unused_imports(source: str) -> list[str]:
    """The names source binds by import and never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported_names(tree) - read)


def test_the_check_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .worldsim import Scene, Sentence as S\n"
              "def f(x: Scene):\n    return np.zeros(x)\n")
    assert unused_imports(source) == ["S", "os"]


def test_package_has_modules():
    assert "grounding.py" in MODULES and len(MODULES) > 10


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_package_exports_exactly_what_it_imports():
    """__all__ lists each name __init__.py imports, and __version__, once;
    each resolves on the package."""
    names = phrasecritic.__all__
    imported = imported_names(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert sorted(names) == sorted(imported | {"__version__"})
    assert [name for name in names if not hasattr(phrasecritic, name)] == []
