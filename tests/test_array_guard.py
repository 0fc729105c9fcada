"""Caller data becomes an array in one guarded place: ``core._asarray``.

``_asarray`` returns ``np.asarray(values)``, or raises InputError naming the
argument when the data is ragged or unreadable.  A hand-written
``try: np.asarray(...)`` elsewhere would be a second copy of that rule, free
to drift from it, so an ``asarray`` inside a ``try`` body in any module of
``src/`` other than ``core.py`` fails here first.
"""

import ast
from pathlib import Path

import pytest

import symprod

SRC = Path(symprod.__file__).resolve().parent
TRIES = (ast.Try, ast.TryStar)


def guarded_asarrays(tree: ast.AST, where: str = "", guarded: bool = False) -> list:
    """(enclosing definition, line) for each ``asarray``, bare or an attribute, in a ``try`` body.

    A definition's body runs later, outside any ``try`` around the definition,
    and a handler, ``else`` or ``finally`` block is not guarded by its ``try``.
    """
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += guarded_asarrays(node, f"{where}.{node.name}" if where else node.name)
            continue
        inside = guarded or isinstance(tree, TRIES) and any(node is stmt for stmt in tree.body)
        if inside and (isinstance(node, ast.Attribute) and node.attr == "asarray"
                       or isinstance(node, ast.Name) and node.id == "asarray"):
            found.append((where, node.lineno))
        found += guarded_asarrays(node, where, inside)
    return found


@pytest.mark.parametrize("source, where", [
    ("try:\n    x = np.asarray(v)\nexcept ValueError:\n    pass", [""]),
    ("try:\n    x = numpy.asarray(v, dtype=float)\nexcept TypeError:\n    raise", [""]),
    ("from numpy import asarray\ntry:\n    x = asarray(v)\nexcept TypeError:\n    pass", [""]),
    ("try:\n    if flag:\n        x = np.asarray(v)\nexcept ValueError:\n    pass", [""]),
    ("try:\n    n = len(np.asarray(v))\nexcept ValueError:\n    pass", [""]),
    ("try:\n    rows = list(map(np.asarray, parts))\nexcept ValueError:\n    pass", [""]),
    ("try:\n    x = np.asarray(v)\nfinally:\n    pass", [""]),
    ("try:\n    x = np.asarray(v)\nexcept* ValueError:\n    pass", [""]),
    ("def f(v):\n    try:\n        return np.asarray(v)\n    except TypeError:\n        pass", ["f"]),
    ("class C:\n    def m(self, v):\n        try:\n            x = np.asarray(v)\n"
     "        except ValueError:\n            pass", ["C.m"]),
    ("x = np.asarray(v)", []),
    ("try:\n    pass\nexcept ValueError:\n    x = np.asarray(v)", []),
    ("try:\n    pass\nexcept ValueError:\n    pass\nelse:\n    x = np.asarray(v)", []),
    ("try:\n    pass\nfinally:\n    x = np.asarray(v)", []),
    ("try:\n    def f(v):\n        return np.asarray(v)\nexcept ImportError:\n    pass", []),
    ("try:\n    x = np.array(v)\nexcept ValueError:\n    pass", []),
    ("try:\n    x = _asarray(v, 'not a permutation')\nexcept ValueError:\n    pass", []),
])
def test_the_guard_sees_each_guarded_asarray(source, where):
    assert [w for w, _ in guarded_asarrays(ast.parse(source))] == where


def test_only_core_guards_caller_arrays():
    found = [f"{path.name}:{line} in {where or 'module'}"
             for path in sorted(SRC.glob("*.py")) if path.name != "core.py"
             for where, line in guarded_asarrays(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], "turn caller data into an array with core._asarray: " + "; ".join(found)


def test_core_holds_the_one_guard():
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    assert [where for where, _ in guarded_asarrays(tree)] == ["_asarray"]
