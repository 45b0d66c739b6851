"""Source hygiene: no module under ``src/`` keeps an unused top-level import."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads.

    A read is any ``Name`` node (the base of ``np.x`` included) or an entry
    of ``__all__``, which is how a package re-exports what it imports.
    ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from .dist import draw, sample\n__all__ = ['sample']\n"
              "x = np.zeros(1) + os.path.sep.count('/')\n")
    assert unused_imports(source) == ["math", "draw"]


def test_modules_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "cli.py", "dist.py"}


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
