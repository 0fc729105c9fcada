"""S_n is enumerated in one place: ``core.perm_matrix``, the one permutation table
(built by its cached helper ``core._perm_table``).

A stabilizer's elements take each block's rows from that table.  A second
enumerator would be a second cap refusal and a second row order, so an
``itertools.permutations`` anywhere in ``src/`` outside ``_perm_table`` fails
here first.
"""

import ast
from pathlib import Path

import pytest

import symprod

SRC = Path(symprod.__file__).resolve().parent


def enumerations(tree: ast.AST, where: str = "") -> list[tuple[str, int]]:
    """(enclosing definition, line) for each use of a ``permutations`` in a parsed module.

    A use is a call or any other reference, bare or as an attribute, and an
    import of the name (which an alias would otherwise hide).
    """
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += enumerations(node, f"{where}.{node.name}" if where else node.name)
            continue
        if (isinstance(node, ast.Name) and node.id == "permutations"
                or isinstance(node, ast.Attribute) and node.attr == "permutations"
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == "permutations" for alias in node.names)):
            found.append((where, node.lineno))
        found += enumerations(node, where)
    return found


@pytest.mark.parametrize("source, where", [
    ("itertools.permutations(range(3))", [""]),
    ("import itertools as it\nit.permutations(block)", [""]),
    ("from itertools import permutations\npermutations(block)", ["", ""]),
    ("from itertools import permutations as perms\nperms(block)", [""]),
    ("enumerate = itertools.permutations", [""]),
    ("np.array(list(itertools.permutations(block)))", [""]),
    ("itertools.chain.from_iterable(itertools.permutations(range(n)))", [""]),
    ("def f(n):\n    return itertools.permutations(range(n))", ["f"]),
    ("class S:\n    def elements(self):\n        return permutations(self.block)", ["S.elements"]),
    ("rng.permutation(n)", []), ("rng.permuted(x, axis=1)", []), ("perm_matrix(n)", []),
    ("np.random.permutation(5)", []), ('"permutations"', []), ("import itertools", []),
])
def test_the_guard_sees_each_enumeration(source, where):
    assert [w for w, _ in enumerations(ast.parse(source))] == where


def test_only_perm_matrix_enumerates_permutations():
    found = [f"{path.name}:{line} in {where or 'module'}"
             for path in sorted(SRC.glob("*.py"))
             for where, line in enumerations(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, where) != ("core.py", "_perm_table")]
    assert found == [], "enumerate S_n with core.perm_matrix: " + "; ".join(found)


def test_perm_matrix_holds_the_one_enumerator():
    found = enumerations(ast.parse((SRC / "core.py").read_text(encoding="utf-8")))
    assert [where for where, _ in found] == ["_perm_table"]
