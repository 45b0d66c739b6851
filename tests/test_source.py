"""Source and tooling hygiene: no module under ``src/`` keeps an unused
top-level import, every memo and every definition no program code reads
is a listed decision, and a failing property test fails the session."""

import ast
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src"
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
        if _assigns(node, "__all__"):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def _assigns(node, name: str) -> bool:
    """Whether ``node`` is an assignment to the name ``name``."""
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == name
        for target in node.targets)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from .dist import split_map, sample\n__all__ = ['sample']\n"
              "x = np.zeros(1) + os.path.sep.count('/')\n")
    assert unused_imports(source) == ["math", "split_map"]


def test_modules_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "cli.py", "dist.py"}


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


MEMO_NAMES = {"cache", "lru_cache", "cached_property"}

# Every memo under src/, by module and qualified name, with why it is kept.
MEMOS = {
    "cli._instance_law": "an instance law and its sampling tables are built "
                         "once per process, not once per row",
    "closeness.SecureCTParams.t_prime": "read by every derived size; a "
                                        "refused call caches nothing",
    "closeness.SecureCTParams.cap_level": "read by the secure votes, alpha "
                                          "and the split set size",
    "closeness.SecureCTParams.alpha": "read by the Bernoulli trial count",
    "closeness.SecureCTParams.bernoulli_trials": "read by the secure votes "
                                                 "and the closed-form bits",
    "closeness.SecureCTParams.splitset_size": "read by the secure votes and "
                                              "the threshold",
    "dist.Distribution.sampler": "a law's inverse-cdf tables are built on its "
                                 "first draw, not on every draw",
    "harness._label_code": "a pure function of a stream label, hashed on "
                           "every stream a row opens",
    "independence.ITParams.t_prime": "read by every derived size; a refused "
                                     "call caches nothing",
    "independence.ITParams.ell_target": "read by the vote kernel and the "
                                        "closed-form bit counts",
    "independence.JointDistribution.sampler": "a joint law's tables and each "
                                              "cell's row and column, built on "
                                              "its first draw",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_memo(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in MEMO_NAMES
            or isinstance(node, ast.Attribute) and node.attr in MEMO_NAMES)


def memos(source: str, module: str) -> list[str]:
    """Where ``source`` names ``functools.cache``, ``lru_cache`` or
    ``cached_property``: the qualified name of each function a decorator
    memoizes, and ``scope:line`` of any other use (an import excepted)."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}

    def scope(node) -> str:
        names = []
        while node in parents:
            node = parents[node]
            if isinstance(node, _DEFS):
                names.append(node.name)
        return ".".join([module, *reversed(names)])

    found, decorators = [], set()
    for node in ast.walk(tree):
        for decorator in getattr(node, "decorator_list", []):
            if isinstance(decorator, ast.Call):
                decorator = decorator.func
            if _is_memo(decorator):
                found.append(f"{scope(node)}.{node.name}")
                decorators.add(decorator)
    found += [f"{scope(node)}:{node.lineno}" for node in ast.walk(tree)
              if _is_memo(node) and node not in decorators]
    return sorted(found)


def test_the_check_sees_a_planted_memo():
    source = ("import functools\nfrom functools import cached_property\n"
              "@functools.lru_cache(maxsize=2)\ndef f(x):\n    return x\n"
              "class A:\n    @cached_property\n    def b(self):\n"
              "        return 1\n    def c(self):\n"
              "        return functools.cache(len)\n"
              "@functools.wraps(f)\ndef g():\n    pass\n"
              "h = functools.cache(g)\n")
    assert memos(source, "m") == ["m.A.b", "m.A.c:11", "m.f", "m:15"]


def test_every_memo_is_listed():
    found = {name for path in MODULES
             for name in memos(path.read_text(encoding="utf-8"),
                               path.stem)}
    assert found == set(MEMOS)


def test_a_failing_property_test_fails_the_session(tmp_path):
    # pytest under this project's warning filters: a failed @given test is
    # a test failure (exit 1), not an internal error (exit 3)
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr




# Top-level definitions under src/ that no code under src/ reads, that the
# package does not export and that perfbench/tracing.py does not trace, each
# with why it stays.
UNREAD = {
    "independence.far_joint": "the joint law at a chosen distance from "
                              "product, for the roadmap's off-promise curves",
    "dist.occurrence_from_text": "reads back the hardgen files that "
                                 "occurrence_to_text writes",
}


def unread_definitions(sources: dict) -> list[str]:
    """``module.name`` of each top-level function and class in ``sources``
    (module name -> source) that no module reads: by a ``Name`` or an
    ``Attribute`` outside the definition itself, or in an ``__all__``.
    Names match alone: one that a method read elsewhere shares counts as read."""
    defined, read = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, _DEFS) else None
            defined += [f"{module}.{own}"] if own else []
            if _assigns(top, "__all__"):
                read |= set(ast.literal_eval(top.value))
            read |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    return sorted(name for name in defined if name.split(".")[1] not in read)


def test_the_check_sees_a_planted_unread_definition():
    sources = {"a": "__all__ = ['f']\ndef f():\n    return k()\ndef k():\n    pass\n"
                    "def g():\n    pass\ndef h(x):\n    return h(x)\n"
                    "class C:\n    pass\n", "b": "from . import a\nx = a.g\n"}
    assert unread_definitions(sources) == ["a.C", "a.h"]


def test_every_definition_is_read_or_listed():
    # a target of tracing.py's TARGETS reads "disttest2p.module:Name.attr"
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(
        encoding="utf-8"))
    (targets,) = [top.value for top in tracing.body if _assigns(top, "TARGETS")]
    specs = [node.value.split(":") for node in ast.walk(targets)
             if isinstance(node, ast.Constant) and ":" in str(node.value)]
    traced = {f"{module.split('.')[1]}.{name.split('.')[0]}"
              for module, name in specs}
    assert {"sketch.RoundedRotation", "independence.run_repetition"} <= traced
    found = unread_definitions({path.stem: path.read_text(encoding="utf-8")
                                for path in MODULES})
    assert sorted(set(found) - traced) == sorted(UNREAD)
