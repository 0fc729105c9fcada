"""Public output pinned: CLI children's digests against ``tests/golden_outputs.json``.

Each case is a real ``python -m symprod.cli`` child: the seven invocations
of perfbench's two workloads at seed 0, on inputs from perfbench's own
generators, and three error paths (brute force past its cap, a field
whose edge distance overflows, a field file with a broken line).  A case
records the SHA-256 of its stdout, its stderr and each file it writes, and
its exit code.  Children run in the input directory on relative paths, so
no digest holds a temporary path.

A change that means to alter public output rewrites the file with

    PYTHONPATH=src python3 tests/test_golden_outputs.py

and says which digests changed, and why.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEED = 0


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def cases(workdir: Path) -> dict[str, list[str]]:
    """Each case's name -> its argv after ``symprod``, its inputs written to ``workdir``."""
    workloads = _workloads()
    found = {}
    for workload in sorted(workloads.WORKLOADS):
        for i, inv in enumerate(workloads.prepare(workload, workdir, SEED).invocations):
            argv = [os.path.relpath(a, workdir) if a.startswith(str(workdir)) else a
                    for a in inv.argv]
            found[f"{workload}-{i}-{inv.part}"] = argv
    found["dist-brute-past-the-cap"] = [
        "dist", "--engine", "brute", "--a", "1,2,3,4,5,6,7,8,9", "--b", "9,8,7,6,5,4,3,2,1"]
    (workdir / "overflow.jsonl").write_text(
        '{"meta": {"m": 1, "n": 2, "adjacency": "path"}}\n'
        '{"point": [0.0], "tuple": [1e308, -1e308]}\n'
        '{"point": [1.0], "tuple": [1e308, 1e308]}\n')
    found["lift-overflowing-edge"] = [
        "lift", "--input", "overflow.jsonl", "--output", "overflow-out.jsonl"]
    rows, _ = workloads.make_lift_rows(SEED, 200)
    lines = workloads.field_file_bytes(rows).decode().splitlines(keepends=True)
    lines[57] = lines[57][: len(lines[57]) // 2] + "\n"  # cut one row's line in half
    (workdir / "damaged.jsonl").write_text("".join(lines))
    found["lift-damaged-file"] = [
        "lift", "--input", "damaged.jsonl", "--output", "damaged-out.jsonl"]
    return found


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(workdir: Path) -> dict[str, dict]:
    """Every case run as a child in ``workdir``: its argv, exit code and digests.

    An ``--output`` file's digest is None when the child wrote none.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("SYMPROD_SEED", None)
    found = {}
    for name, argv in cases(workdir).items():
        result = subprocess.run([sys.executable, "-m", "symprod.cli", *argv], cwd=workdir,
                                env=env, capture_output=True, timeout=300)
        out = workdir / argv[argv.index("--output") + 1] if "--output" in argv else None
        found[name] = {
            "argv": argv,
            "exit": result.returncode,
            "stdout": _sha(result.stdout),
            "stderr": _sha(result.stderr),
            "output": _sha(out.read_bytes()) if out is not None and out.exists() else None,
        }
    return found


def test_public_output_matches_the_golden_digests(tmp_path):
    assert digests(tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(Path(tmp)), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
