"""Dead code in ``src/symprod``: imports never read, private helpers never used.

The test dependencies do not include pyflakes, so this is the same check
over the syntax tree.  An imported name is used when its module reads it or
lists it in ``__all__``.  A module-level ``_name`` is used when some module
reads it, takes it as an attribute or imports it.
"""

import ast
from pathlib import Path

import pytest

import symprod

SRC = Path(symprod.__file__).resolve().parent

# Imported only so that perfbench/tracer.py can patch them.  ROADMAP item 1b
# retargets the tracer and drops both imports, and this set with them.
TRACER_ONLY = {("selection", "dist_sorted"), ("fieldfile", "UnorderedTuple")}


def loaded_names(tree: ast.AST) -> set[str]:
    """Names a module reads, plus the strings its ``__all__`` exports."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(tree: ast.AST) -> set[str]:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - loaded_names(tree)


def private_definitions(tree: ast.AST) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def references(tree: ast.AST) -> set[str]:
    refs = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {a.name for a in node.names}
    return refs


def dead_code(modules: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) for each unused import and each private definition no module uses."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    referenced = set().union(*map(references, trees.values()))
    return ({(m, name) for m, tree in trees.items() for name in unused_imports(tree)}
            | {(m, name) for m, tree in trees.items()
               for name in private_definitions(tree) - referenced})


@pytest.mark.parametrize("source, found", [
    ("import os", {"os"}),
    ("import os\nos.getcwd()", set()),
    ("import os.path\nos.sep", set()),
    ("import numpy as np", {"np"}),
    ("from a import b as c\nc()", set()),
    ("from a import b, c\nb()", {"c"}),
    ("from a import b\n__all__ = ['b']", set()),
    ("from __future__ import annotations", set()),
    ("from a import B\ndef f(x: B): pass", set()),
    ("def f():\n    from a import b\n    return b", set()),
    ("def _f(): pass", {"_f"}),
    ("class _C: pass\n_X: int = 1", {"_C", "_X"}),
    ("def _f(): pass\ng = _f", set()),
    ("_X = 1\n__all__ = []", {"_X"}),
    ("def f():\n    _local = 1", set()),
])
def test_the_guard_sees_each_form(source, found):
    assert {name for _, name in dead_code({"m": source})} == found


def test_a_private_name_used_by_another_module_is_live():
    modules = {"a": "_X = 1\n_Y = 2\n_Z = 3", "b": "from .a import _X\nfrom . import a\na._Y\n_X"}
    assert dead_code(modules) == {("a", "_Z")}


def test_src_has_no_dead_imports_or_private_helpers():
    found = dead_code({p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))})
    assert found - TRACER_ONLY == set(), "imported and never read, or defined and never used"
    # When the tracer stops patching them, drop both imports and empty TRACER_ONLY.
    assert TRACER_ONLY <= found, "a tracer-only import is gone: update TRACER_ONLY"
