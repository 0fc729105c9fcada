"""Dead code in ``src/symprod``: unread imports, and private helpers, exports and members never used.

The test dependencies do not include pyflakes, so this is the same check
over the syntax tree.  An imported name is used when its module reads it or
lists it in ``__all__``.  A module-level ``_name`` is used when some module
reads it, takes it as an attribute or imports it.  A name in a module's
``__all__`` is used when a statement other than its own definition reads it
that way, in ``src/symprod``, ``demos/`` or ``perfbench/``; tests do not count.
A public member (field, property or method) of an exported class is used when
code in the same places reads it as an attribute outside its own definition;
dunders and ``_private`` members are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import symprod

SRC = Path(symprod.__file__).resolve().parent
ROOT = SRC.parents[1]

# Imported only so that perfbench/tracer.py can patch them.  ROADMAP item 1b
# retargets the tracer and drops both imports, and this set with them.
TRACER_ONLY = {("selection", "dist_sorted"), ("fieldfile", "UnorderedTuple")}

# Exports that nothing in src/symprod, demos/ or perfbench/ reads, kept on purpose.
KEPT_EXPORTS = {
    ("core", "apply_perm"): "compose's docstring and Distance.attaining_perm's contract "
                            "are stated in terms of this action",
    ("core", "is_perm"): "ROADMAP item 2 keeps it: it is not one expression over public names",
}

# Public members of exported classes that nothing in src/symprod, demos/ or
# perfbench/ reads, kept on purpose: (module, "Class.member") to the reason.
KEPT_MEMBERS: dict[tuple[str, str], str] = {}


def is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets)


def exported(tree: ast.Module) -> set[str]:
    """The strings a module's ``__all__`` lists."""
    return set().union(*(ast.literal_eval(node.value) for node in tree.body if is_all(node)))


def name_loads(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def loaded_names(tree: ast.AST) -> set[str]:
    """Names a module reads, plus the strings its ``__all__`` exports."""
    return name_loads(tree) | exported(tree)


def unused_imports(tree: ast.AST) -> set[str]:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - loaded_names(tree)


def defined_names(node: ast.stmt) -> set[str]:
    """Names a module-level statement defines: a function, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def private_definitions(tree: ast.AST) -> set[str]:
    names = set().union(*map(defined_names, tree.body))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def reads(tree: ast.AST) -> set[str]:
    """Names read as a ``Name``, taken as an attribute or imported by ``from``."""
    refs = name_loads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {a.name for a in node.names}
    return refs


def references(tree: ast.Module) -> set[str]:
    return reads(tree) | exported(tree)


def dead_code(modules: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) for each unused import and each private definition no module uses."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    referenced = set().union(*map(references, trees.values()))
    return ({(m, name) for m, tree in trees.items() for name in unused_imports(tree)}
            | {(m, name) for m, tree in trees.items()
               for name in private_definitions(tree) - referenced})


def dead_exports(modules: dict[str, str], readers: tuple[str, ...] = ()) -> set[tuple[str, str]]:
    """(module, name) for each ``__all__`` name no statement reads outside its own definition.

    ``modules`` are the exporting sources by module name; ``readers`` are other
    sources whose reads count.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    bodies = [*((m, tree.body) for m, tree in trees.items()),
              *((None, ast.parse(source).body) for source in readers)]
    # (module, names the statement defines, names it reads) per statement, __all__ left out
    statements = [(m, defined_names(node), reads(node))
                  for m, body in bodies for node in body if not is_all(node)]
    return {(m, name) for m, tree in trees.items() for name in exported(tree)
            if not any(name in read and not (where == m and name in defined)
                       for where, defined, read in statements)}


def attribute_reads(tree: ast.AST) -> Counter:
    """How many times each name is read as an attribute (``x.name`` loaded, not stored)."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def dead_members(modules: dict[str, str], readers: tuple[str, ...] = ()) -> set[tuple[str, str]]:
    """(module, "Class.member") for each public member of an exported class read nowhere else.

    A member is read when some ``x.member`` loads it outside the class-body
    statement that defines it; reads match by name, whatever ``x`` is.
    ``modules`` and ``readers`` are as in ``dead_exports``.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = sum(map(attribute_reads, [*trees.values(), *map(ast.parse, readers)]), Counter())
    return {(m, f"{cls.name}.{name}") for m, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name in exported(tree)
            for node in cls.body for name in defined_names(node)
            if not name.startswith("_") and read[name] == attribute_reads(node)[name]}


def package_sources(root: Path) -> tuple[dict[str, str], tuple[str, ...]]:
    """``src/symprod``'s sources by module name, and the sources of ``demos/`` and ``perfbench/``."""
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((root / "src" / "symprod").glob("*.py"))}
    readers = tuple(p.read_text(encoding="utf-8") for folder in ("demos", "perfbench")
                    for p in sorted((root / folder).rglob("*.py")))
    return modules, readers


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


@pytest.mark.parametrize("source, reader, found", [
    ("def f(): pass\n__all__ = ['f']", "", {"f"}),
    ("__all__ = ['f']\ndef f(): pass", "", {"f"}),
    ("def f(): pass\ng = f\n__all__ = ['f']", "", set()),
    ("def f(): pass\ndef g():\n    return f()\n__all__ = ['f', 'g']", "", {"g"}),
    ("def f():\n    return f()\n__all__ = ['f']", "", {"f"}),
    ("class C:\n    def m(self):\n        return C\n__all__ = ['C']", "", {"C"}),
    ("X = 1\n__all__ = ['X']", "", {"X"}),
    ("X: int = 1\nY = X\n__all__ = ['X']", "", set()),
    ("def f(): pass\n__all__ = ['f']", "import m\nm.f()", set()),
    ("def f(): pass\n__all__ = ['f']", "from m import f", set()),
    ("def f(): pass\n__all__ = ['f']", "f()", set()),
    ("def f(): pass\n__all__ = ['f']", "f = 1", {"f"}),
    ("def f(): pass\n__all__ = ['f']", "print('f')", {"f"}),
    ("def f(): pass\n__all__ = ['f']", "__all__ = ['f']", {"f"}),
])
def test_the_export_guard_sees_each_form(source, reader, found):
    assert {name for _, name in dead_exports({"m": source}, (reader,))} == found


def test_an_export_read_by_another_module_is_live():
    modules = {"a": "def f(): pass\ndef g(): pass\n__all__ = ['f', 'g']",
               "b": "from .a import f\nf()\n__all__ = []"}
    assert dead_exports(modules) == {("a", "g")}


def test_every_export_is_read_outside_its_definition():
    modules, readers = package_sources(ROOT)
    assert len(readers) >= 5, "demos/ and perfbench/ not found beside src/"
    found = dead_exports(modules, readers)
    assert found - set(KEPT_EXPORTS) == set(), "exported and read nowhere: remove it"
    assert set(KEPT_EXPORTS) <= found, "a kept export is read now: drop it from KEPT_EXPORTS"


DATACLASS = "from dataclasses import dataclass\n@dataclass\nclass C:\n    x: int\n__all__ = ['C']"
PROPERTY = "class C:\n    @property\n    def p(self):\n        return 1\n__all__ = ['C']"


@pytest.mark.parametrize("source, reader, found", [
    (DATACLASS, "", {"C.x"}),
    (DATACLASS, "C(x=1)", {"C.x"}),
    (DATACLASS, "C(1).x", set()),
    (DATACLASS, "getattr(C(1), 'x')", {"C.x"}),
    (DATACLASS, "c = C(1)\nc.x = 2", {"C.x"}),
    (PROPERTY, "", {"C.p"}),
    (PROPERTY, "any_object.p", set()),
    ("class C:\n    @property\n    def p(self):\n        return 1\n"
     "    def q(self):\n        return self.p\n__all__ = ['C']", "C().q()", set()),
    ("class C:\n    def m(self):\n        return self.m()\n__all__ = ['C']", "", {"C.m"}),
    ("class C:\n    X = 1\n    @classmethod\n    def make(cls): pass\n__all__ = ['C']",
     "C.make()", {"C.X"}),
    ("class C:\n    def __len__(self):\n        return 0\n__all__ = ['C']", "", set()),
    ("class C:\n    _x: int = 0\n    def _m(self): pass\n__all__ = ['C']", "", set()),
    ("class C:\n    def m(self): pass\n__all__ = []", "", set()),
    ("class A:\n    def f(self):\n        return B().g\nclass B:\n    def g(self): pass\n"
     "    def h(self): pass\n__all__ = ['A', 'B']", "A().f()", {"B.h"}),
])
def test_the_member_guard_sees_each_form(source, reader, found):
    assert {name for _, name in dead_members({"m": source}, (reader,))} == found


@pytest.mark.parametrize("folder, found", [
    ("tests", {"C.p"}), ("demos", set()), ("perfbench", set()), ("src/symprod", set()),
])
def test_a_member_counts_as_read_from_src_demos_and_perfbench_only(tmp_path, folder, found):
    (tmp_path / "src" / "symprod").mkdir(parents=True)
    (tmp_path / "src" / "symprod" / "m.py").write_text(PROPERTY, encoding="utf-8")
    (tmp_path / folder).mkdir(parents=True, exist_ok=True)
    (tmp_path / folder / "reader.py").write_text("from symprod.m import C\nC().p", encoding="utf-8")
    assert {name for _, name in dead_members(*package_sources(tmp_path))} == found


def test_a_member_read_by_another_module_is_live():
    modules = {"a": "class C:\n    def f(self): pass\n    def g(self): pass\n__all__ = ['C']",
               "b": "from .a import C\nC().f()\n__all__ = []"}
    assert dead_members(modules) == {("a", "C.g")}


def test_every_public_member_is_read_outside_its_definition():
    modules, readers = package_sources(ROOT)
    assert len(readers) >= 5, "demos/ and perfbench/ not found beside src/"
    found = dead_members(modules, readers)
    assert found - set(KEPT_MEMBERS) == set(), "a public member read nowhere: remove it"
    assert set(KEPT_MEMBERS) <= found, "a kept member is read now: drop it from KEPT_MEMBERS"


def test_src_has_no_dead_imports_or_private_helpers():
    found = dead_code({p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))})
    assert found - TRACER_ONLY == set(), "imported and never read, or defined and never used"
    # When the tracer stops patching them, drop both imports and empty TRACER_ONLY.
    assert TRACER_ONLY <= found, "a tracer-only import is gone: update TRACER_ONLY"
