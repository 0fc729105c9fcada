"""Text becomes lines in one place: ``core._lines``, the one line cutter.

``core.read_text`` reads every file with universal newlines, and ``core._lines``
cuts the text about 64k characters at a time.  A second cutter would be a
second line rule, so a ``.split("\\n")`` or a ``.splitlines`` in any other
module of ``src/`` fails here first.
"""

import ast
from pathlib import Path

import pytest

import symprod

SRC = Path(symprod.__file__).resolve().parent


def line_cuts(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for every cut of text into lines in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "splitlines":
            found.append((node.lineno, ".splitlines"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("split", "rsplit")):
            seps = node.args[:1] + [k.value for k in node.keywords if k.arg == "sep"]
            if any(isinstance(sep, ast.Constant) and sep.value == "\n" for sep in seps):
                found.append((node.lineno, f'.{node.func.attr}("\\n")'))
    return found


@pytest.mark.parametrize("source, count", [
    ('text.split("\\n")', 1), ('text.rsplit("\\n", 1)', 1), ('text.split(sep="\\n")', 1),
    ("text.splitlines()", 1), ("text.splitlines(keepends=True)", 1),
    ("map(str.splitlines, texts)", 1),
    ('[line.strip() for line in read_text(path).split("\\n") if line.strip()]', 1),
    ('text.split(",")', 0), ("text.split()", 0), ('"\\n".join(lines)', 0), ("text.split(sep)", 0),
])
def test_the_guard_sees_each_line_cut(source, count):
    assert len(line_cuts(ast.parse(source))) == count


def test_only_core_cuts_text_into_lines():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py")) if path.name != "core.py"
             for line, what in line_cuts(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], "cut text into lines with core._lines: " + "; ".join(found)


def test_core_holds_the_one_cutter():
    assert [what for _, what in line_cuts(ast.parse((SRC / "core.py").read_text("utf-8")))] == [
        '.split("\\n")'
    ]
