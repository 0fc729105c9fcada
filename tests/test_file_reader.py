"""Every input file is read by ``core.read_text``, so every line number follows one rule.

``read_text`` opens its file with universal newlines and names the line of a
byte that is not UTF-8 by the rule the parsers count lines by: "\\r\\n", "\\r"
and "\\n" each end one.  A second way to open a file for reading, or a call of
``read_text`` with a newline setting, would give a second rule, so the guard
below must fail on it first.  Writing a file is not reading one.
"""

import ast
import re
from pathlib import Path

import pytest

import symprod

SRC = Path(symprod.__file__).resolve().parent
# Calls that open or load a file; "open" may also open one for writing.
OPENERS = {"open", "read_bytes", "fromfile", "loadtxt", "genfromtxt", "load", "memmap"}
MODE = re.compile(r"[rwxabt+]+")


def called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def opens_for_reading(call: ast.Call) -> bool:
    """Whether a call of an opener may read: its mode, when a literal, has no "r" and no "+"."""
    if called_name(call) != "open":
        return True
    modes = [k.value for k in call.keywords if k.arg == "mode"] + list(call.args)
    for mode in modes:
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
                and MODE.fullmatch(mode.value):
            return "r" in mode.value or "+" in mode.value
    return True  # no literal mode: the default "r", or one the guard cannot see


def reads(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, enclosing function, what) for each file read in a parsed module.

    A read is a call that opens a file for reading, or a call of
    ``read_text`` with anything but the one path.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = called_name(child)
                if name in OPENERS and opens_for_reading(child):
                    found.append((child.lineno, function, f"{name}()"))
                elif name == "read_text" and (len(child.args) != 1 or child.keywords):
                    found.append((child.lineno, function, "read_text() with more than the path"))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("source, count", [
    ("open(path)", 1), ("open(path, 'rb')", 1), ("open(path, mode='r+')", 1),
    ("path.open()", 1), ("path.open('a+')", 1), ("open(path, flags)", 1), ("os.open(path, 0)", 1),
    ("path.read_bytes()", 1), ("np.load(path)", 1), ("np.fromfile(path)", 1),
    ("path.read_text()", 1), ("path.read_text(encoding='utf-8')", 1),
    ("read_text(path, newline='')", 1), ("read_text(path, '')", 1),
    ("def f():\n    with open(a) as h, tmp.open('r') as g:\n        pass", 2),
    ("tmp.open('w', encoding='utf-8')", 0), ("open(path, 'xb')", 0), ("read_text(path)", 0),
    ("core.read_text(args.file)", 0), ("handle.write(text)", 0),
])
def test_the_guard_sees_each_read(source, count):
    assert len(reads(ast.parse(source))) == count


def test_the_guard_names_the_enclosing_function():
    source = "def outer():\n    def inner():\n        open(a)\n    open(b)\nopen(c)"
    assert [where for _, where, _ in reads(ast.parse(source))] == ["inner", "outer", "<module>"]


def test_only_core_read_text_reads_a_file():
    found = [(path.name, line, where, what)
             for path in sorted(SRC.glob("*.py"))
             for line, where, what in reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert [(name, where) for name, _, where, _ in found] == [("core.py", "read_text")], (
        "a file read outside core.read_text, or read_text given more than the path: "
        + "; ".join(f"{name}:{line} in {where}: {what}" for name, line, where, what in found)
    )
