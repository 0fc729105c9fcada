"""symprod calls no BLAS routine, so the CLI starts numpy with a one-thread OpenBLAS.

The CLI sets OPENBLAS_NUM_THREADS=1 unless it is already set; the library
never sets it, since a host program's BLAS threading is its own.  The guard
below keeps the premise true: a matrix product added to ``src/`` would run
single-threaded under the CLI, so it must fail here first.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symprod

SRC = Path(symprod.__file__).resolve().parent
BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


def blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for every BLAS-backed operation in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "the @ operator"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if BLAS_NAMES.intersection(names) or "linalg" in (node.module or ""):
                found.append((node.lineno, f"from {node.module} import {', '.join(names)}"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if "linalg" in a.name]
    return found


@pytest.mark.parametrize("source, count", [
    ("c = a @ b", 1), ("a @= b", 1), ("np.dot(a, b)", 1), ("a.dot(b)", 1), ("np.matmul(a, b)", 1),
    ("np.linalg.norm(a)", 1), ("np.einsum('i,i', a, b)", 1), ("from numpy import inner", 1),
    ("from numpy.linalg import norm", 1), ("import numpy.linalg", 1),
    ("np.vdot(a, np.tensordot(a, b))", 2),
    ("inner = ', '.join(parts)", 0), ("np.sort(np.abs(a - b)).sum()", 0),
])
def test_the_guard_sees_each_blas_form(source, count):
    assert len(blas_uses(ast.parse(source))) == count


def test_no_module_calls_blas():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in blas_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], "a BLAS call runs single-threaded under the CLI: " + "; ".join(found)


PROBE = """
import json, os, sys
exec(sys.argv[1])
task = "/proc/self/task"
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"),
                  len(os.listdir(task)) if os.path.isdir(task) else None,
                  "numpy" in sys.modules]))
"""


def probe(statement: str, **env) -> tuple:
    """OPENBLAS_NUM_THREADS, the thread count and whether numpy loaded, after ``statement``.

    ``statement`` runs in a fresh interpreter whose environment lacks the
    variable unless ``env`` gives it.
    """
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run(
        [sys.executable, "-c", PROBE, statement],
        env={**base, "PYTHONPATH": str(SRC.parent), **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return tuple(json.loads(result.stdout))


def test_the_cli_starts_a_one_thread_openblas():
    # `import symprod.cli` loads no numpy; a subcommand does, after the variable is set.
    value, threads, numpy_loaded = probe(
        "import contextlib, io, symprod.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert symprod.cli.main(['canon', '--t', '1,2']) == 0"
    )
    assert value == "1" and numpy_loaded
    if threads is not None:  # Linux: the pool would add a thread per extra CPU
        assert threads == 1


def test_the_cli_keeps_a_value_already_set():
    assert probe("import symprod.cli", OPENBLAS_NUM_THREADS="2")[0] == "2"


def test_the_library_leaves_the_variable_unset():
    statement = ("import symprod, symprod.metric, symprod.monodromy, symprod.lemmas, "
                 "symprod.fieldfile, symprod.selection")
    value, _, numpy_loaded = probe(statement)
    assert value is None and numpy_loaded
