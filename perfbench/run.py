"""symprod benchmark: seeded CLI workloads, output checks, end-to-end and per-layer metrics.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload lift-dist --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: it repeats the workload's
real CLI invocations, one child at a time, until ``--seconds`` is used
up, checks every output, and between iterations times ``setup_s`` (fresh
interpreter, ``import symprod.cli``, ``build_parser()``) a few times and
reports its median.

The wall time of the CLI calls is printed (median, a percentile and the
fastest), but the gated time is ``wall_per_ref``: each invocation's wall
time divided by the time of a fixed reference kernel run just before and
just after it, the median of that ratio over the run, summed over the
workload's invocations.  On a shared host the speed of a core drifts by
tens of percent over seconds and minutes, so raw wall times of the same
code spread by 20-35% from run to run; the kernel slows with the host but
not with the program, so the ratio keeps a change in the program and
drops most of the drift.

``--trace 1`` is the separate traced run: ``python -X importtime`` in
fresh interpreters for the import layer, then alternating untraced and
traced in-process runs of the same invocations (``tracer.py``) for the
other layers.  Per-layer times come from spans recorded around the calls
into each module; the traced-minus-untraced difference is the tracing
overhead.

Report lines go first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.  ``layers.json`` records which
end-to-end metric each layer metric should move on which workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tracer import DIAGONAL_CALLS as DIAGONAL_NAMES  # noqa: E402

SETUP_REPS = 7
IMPORT_REPS = 3
# Reference-kernel passes timed on each side of every CLI invocation.
REF_REPS = 12
# Every run must end well inside 180 s, whatever --seconds says.
RUN_BUDGET_S = 160.0

SETUP_CODE = "import symprod.cli; symprod.cli.build_parser()"

END_TO_END_UNITS = {"wall_per_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

LEMMA_NAMES = tuple(workloads.LEMMA_EXPECTED_TRIALS)
TRACK_LOOP_KS = tuple(k for k, _ in workloads.HOLONOMY_RUNS)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    units = {
        "import.symprod_s": "s",
        "import.scipy_optimize_s": "s",
        "cli.parse_tuple_text_s": "s",
        "cli.cmd_self_s": "s",
        "fieldfile.read_field_file_s": "s",
        "fieldfile.read_bytes": "bytes",
        "fieldfile.write_lifted_file_s": "s",
        "fieldfile.write_bytes": "bytes",
        "fieldfile.to_sampled_field_s": "s",
        "selection.lift_field_s": "s",
        "selection.continuity_report_self_s": "s",
        "selection.edges": "count",
        "selection.zero_edges": "count",
        "metric.dist_sorted_calls": "count",
        "metric.dist_sorted_s": "s",
        "metric.unordered_tuple_calls": "count",
        "metric.unordered_tuple_s": "s",
        "metric.dist_bruteforce_calls": "count",
        "metric.dist_bruteforce_rows": "count",
        "metric.dist_bruteforce_s": "s",
        "metric.dist_assignment_calls": "count",
        "metric.dist_assignment_s": "s",
        "monodromy.track_loop_self_s": "s",
        **{f"monodromy.track_loop_self_s.k{k}": "s" for k in TRACK_LOOP_KS},
        "monodromy.min_intra_gap_s": "s",
        "monodromy.gap_bytes_computed": "bytes",
        "monodromy.steps": "count",
        **{f"diagonal.{d}_{s}": u for d in DIAGONAL_NAMES for s, u in (("calls", "count"), ("s", "s"))},
        **{f"lemmas.{c}_{s}": u for c in LEMMA_NAMES for s, u in (("s", "s"), ("trials", "count"))},
        "lemmas.self_s": "s",
        "core.perm_matrix_calls": "count",
        "core.perm_matrix_s": "s",
        "core.compose_calls": "count",
        "core.compose_s": "s",
        "trace.traced_s": "s",
        "trace.untraced_s": "s",
        "trace.overhead_s": "s",
    }
    return units


# ------------------------------------------------------------------ children


class Child(NamedTuple):
    """Outcome of one child process: wall time, exit code, peak RSS."""

    wall_s: float
    code: int
    maxrss_mb: float


def spawn(cmd: list[str], env: dict, stdout, stderr, deadline: float) -> Child:
    """Run one child to completion; kill it if it outlives ``deadline``.

    ``os.wait4`` gives the child's own ``ru_maxrss``.  The alarm only
    signals this process; its handler kills the child, so the wait returns.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr)

    def kill(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def time_setup(env: dict, deadline: float) -> float:
    child = spawn([sys.executable, "-c", SETUP_CODE], env,
                  subprocess.DEVNULL, subprocess.DEVNULL, deadline)
    if child.code != 0:
        raise SystemExit(f"setup failed: {SETUP_CODE!r} exited {child.code}")
    return child.wall_s


def import_times(env: dict, workdir: Path, deadline: float) -> dict[str, float]:
    """Split ``import symprod.cli`` with ``python -X importtime`` in a fresh interpreter."""
    log = workdir / "importtime.err"
    with open(log, "w") as err:
        child = spawn([sys.executable, "-X", "importtime", "-c", "import symprod.cli"],
                      env, subprocess.DEVNULL, err, deadline)
    if child.code != 0:
        raise SystemExit(f"import of symprod.cli failed (exit {child.code})")
    return parse_importtime(log.read_text())


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of every top-level symprod import and of scipy.optimize."""
    symprod_us = scipy_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        package = name.strip()
        if level == 0 and (package == "symprod" or package.startswith("symprod.")):
            symprod_us += int(cumulative)
        if package == "scipy.optimize":
            scipy_us += int(cumulative)
    if symprod_us == 0:
        raise SystemExit("importtime log holds no symprod import")
    return {"import.symprod_s": symprod_us / 1e6, "import.scipy_optimize_s": scipy_us / 1e6}


# --------------------------------------------------------------- statistics


def summarize(values: list[float]) -> str:
    """Median plus the highest percentile that has at least ten samples beyond it."""
    count = len(values)
    text = f"median {statistics.median(values):.6g} n={count}"
    if count >= 11:
        pct = 100 * (count - 10) // count
        ranked = sorted(values)
        text += f" p{pct} {ranked[math.ceil(pct / 100 * count) - 1]:.6g}"
    else:
        text += " (no percentile has 10 samples beyond it)"
    return text


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -------------------------------------------------------------- timed run


class ReferenceKernel:
    """A fixed job of the benchmark's own, timed around every CLI invocation.

    It mixes interpreted Python, JSON and a numpy sort, the kinds of work
    the CLI does, and never calls symprod, so its time follows the host's
    speed and not the program's.
    """

    def __init__(self):
        self.values = np.random.default_rng(0).random(50_000)
        self.rows = [[i * 0.5, str(i)] for i in range(2000)]

    def seconds(self, reps: int = REF_REPS) -> float:
        """Mean wall time of one pass, over ``reps`` passes."""
        start = time.perf_counter()
        for _ in range(reps):
            total = 0
            for i in range(60_000):
                total += i * i % 7
            json.loads(json.dumps(self.rows))
            np.sort(self.values)
        return (time.perf_counter() - start) / reps


def relative_wall(ratios: list[list[float]]) -> float:
    """Sum over invocations of the median, over iterations, of wall / reference time."""
    return sum(statistics.median(per_inv) for per_inv in zip(*ratios))


def run_invocations(prepared, env: dict, workdir: Path, kernel: ReferenceKernel, deadline: float):
    """One iteration: every CLI invocation of the workload, each output checked.

    Returns the wall time of each invocation, its ratio to the reference
    kernel's time around it, the largest peak RSS, the number of
    invocations whose check failed and the problems found.
    """
    walls, ratios, rss, problems = [], [], 0.0, []
    failed = 0
    for i, inv in enumerate(prepared.invocations):
        out_path, err_path = workdir / f"cli{i}.out", workdir / f"cli{i}.err"
        before = kernel.seconds()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            child = spawn([sys.executable, "-m", "symprod.cli", *inv.argv], env, out, err, deadline)
        after = kernel.seconds()
        walls.append(child.wall_s)
        ratios.append(child.wall_s / ((before + after) / 2))
        rss = max(rss, child.maxrss_mb)
        found = inv.check(out_path.read_text(), err_path.read_text(), child.code)
        if found:
            failed += 1
            problems.extend(found)
    return walls, ratios, rss, failed, problems


def timed_run(prepared, env, workdir, seconds, deadline):
    """Repeat the workload's invocations for ``seconds``; time setup between iterations.

    The setup samples are spread over the run rather than taken in one
    block, so a slow spell of the host moves only some of them.
    """
    kernel = ReferenceKernel()
    setup, walls, ratios, rsss, problems = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    iteration_s = []
    while True:
        t0 = time.perf_counter()
        wall, ratio, rss, bad, found = run_invocations(prepared, env, workdir, kernel, deadline)
        if len(setup) < SETUP_REPS:
            setup.append(time_setup(env, deadline))
        iteration_s.append(time.perf_counter() - t0)
        walls.append(wall)
        ratios.append(ratio)
        rsss.append(rss)
        attempted += len(prepared.invocations)
        failed += bad
        problems.extend(found)
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(iteration_s)
        if next_end > seconds or time.perf_counter() + max(iteration_s) > deadline:
            break
    while len(setup) < SETUP_REPS:
        setup.append(time_setup(env, deadline))
    print(f"wall_per_ref [ratio]: {relative_wall(ratios):.6g} over {len(ratios)} iterations "
          f"(reference kernel {1e3 * kernel.seconds():.4g} ms at the end)")
    print(f"wall_s [s]: {summarize([sum(w) for w in walls])}, "
          f"best {sum(min(per_inv) for per_inv in zip(*walls)):.6g}")
    for part in dict.fromkeys(inv.part for inv in prepared.invocations):
        mine = [i for i, inv in enumerate(prepared.invocations) if inv.part == part]
        print(f"  part {part}: wall_per_ref "
              f"{relative_wall([[r[i] for i in mine] for r in ratios]):.6g}, "
              f"wall_s median {statistics.median(sum(w[i] for i in mine) for w in walls):.6g}")
    metrics = {"wall_per_ref": metric(relative_wall(ratios), "ratio")}
    for name, samples in (("setup_s", setup), ("peak_rss_mb", rsss)):
        unit = END_TO_END_UNITS[name]
        print(f"{name} [{unit}]: {summarize(samples)}")
        metrics[name] = metric(statistics.median(samples), unit)
    print(f"error_rate [ratio]: {failed / attempted:.6g} ({failed} of {attempted} invocations)")
    return attempted, failed, problems, metrics


# ------------------------------------------------------------- traced run


def inprocess_run(prepared, env, workdir: Path, trace: bool, deadline: float):
    """Run every invocation inside one fresh child via tracer.py; check outputs."""
    outdir = workdir / ("traced" if trace else "untraced")
    outdir.mkdir(exist_ok=True)
    spec_path = outdir / "spec.json"
    spec = {"argvs": [inv.argv for inv in prepared.invocations], "trace": trace,
            "outdir": str(outdir)}
    spec_path.write_text(json.dumps(spec))
    child = spawn([sys.executable, str(HERE / "tracer.py"), str(spec_path)], env,
                  subprocess.DEVNULL, None, deadline)
    if child.code != 0:
        return None, len(prepared.invocations), [f"in-process run exited {child.code}"]
    result = json.loads((outdir / "result.json").read_text())
    failed, problems = 0, []
    for i, (inv, rec) in enumerate(zip(prepared.invocations, result["invocations"])):
        found = inv.check((outdir / f"inv{i}.out").read_text(),
                          (outdir / f"inv{i}.err").read_text(), rec["code"])
        if found:
            failed += 1
            problems.extend(found)
    return result, failed, problems


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer totals, self times and counts from one traced in-process run."""
    duration, calls, self_s, by_tag = {}, {}, {}, {}
    child_s: dict[int, float] = {}
    for span_id, parent, _run, name, start, end, tag in result["spans"]:
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start) / 1e9
    for span_id, parent, _run, name, start, end, tag in result["spans"]:
        dur = (end - start) / 1e9
        own = dur - child_s.get(span_id, 0.0)
        duration[name] = duration.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if tag is not None:
            by_tag[(name, tag)] = by_tag.get((name, tag), 0.0) + own
    counts = result["counts"]
    out = {
        "cli.parse_tuple_text_s": duration.get("cli.parse_tuple_text", 0.0),
        "cli.cmd_self_s": self_s.get("cli.main", 0.0),
        "fieldfile.read_field_file_s": duration.get("fieldfile.read_field_file", 0.0),
        "fieldfile.write_lifted_file_s": duration.get("fieldfile.write_lifted_file", 0.0),
        "fieldfile.to_sampled_field_s": duration.get("fieldfile.to_sampled_field", 0.0),
        "selection.lift_field_s": duration.get("selection.lift_field", 0.0),
        "selection.continuity_report_self_s": self_s.get("selection.continuity_report", 0.0),
        "monodromy.track_loop_self_s": self_s.get("monodromy.track_loop", 0.0),
        "monodromy.min_intra_gap_s": duration.get("monodromy.min_intra_gap", 0.0),
        "lemmas.self_s": self_s.get("lemmas.run_lemma_suite", 0.0),
    }
    for k in TRACK_LOOP_KS:
        out[f"monodromy.track_loop_self_s.k{k}"] = by_tag.get(("monodromy.track_loop", f"k{k}"), 0.0)
    for name in ("dist_sorted", "unordered_tuple", "dist_bruteforce", "dist_assignment"):
        out[f"metric.{name}_calls"] = calls.get(f"metric.{name}", 0)
        out[f"metric.{name}_s"] = duration.get(f"metric.{name}", 0.0)
    for name in ("perm_matrix", "compose"):
        out[f"core.{name}_calls"] = calls.get(f"core.{name}", 0)
        out[f"core.{name}_s"] = duration.get(f"core.{name}", 0.0)
    for name in DIAGONAL_NAMES:
        out[f"diagonal.{name}_calls"] = calls.get(f"diagonal.{name}", 0)
        out[f"diagonal.{name}_s"] = duration.get(f"diagonal.{name}", 0.0)
    for name in LEMMA_NAMES:
        out[f"lemmas.{name}_s"] = duration.get(f"lemmas.{name}", 0.0)
    for name in ("fieldfile.read_bytes", "fieldfile.write_bytes", "selection.edges",
                 "selection.zero_edges", "metric.dist_bruteforce_rows",
                 "monodromy.gap_bytes_computed", "monodromy.steps",
                 *(f"lemmas.{c}_trials" for c in LEMMA_NAMES)):
        out[name] = counts.get(name, 0)
    return out


def traced_run(prepared, env, workdir, seconds, deadline):
    imports = [import_times(env, workdir, deadline) for _ in range(IMPORT_REPS)]
    samples: list[dict[str, float]] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    pair_s = []
    while True:
        t0 = time.perf_counter()
        untraced, bad_u, found_u = inprocess_run(prepared, env, workdir, False, deadline)
        traced, bad_t, found_t = inprocess_run(prepared, env, workdir, True, deadline)
        pair_s.append(time.perf_counter() - t0)
        attempted += 2 * len(prepared.invocations)
        failed += bad_u + bad_t
        problems.extend(found_u + found_t)
        if untraced is None or traced is None:
            break
        layers = layer_metrics(traced)
        layers["trace.untraced_s"] = sum(r["seconds"] for r in untraced["invocations"])
        layers["trace.traced_s"] = sum(r["seconds"] for r in traced["invocations"])
        layers["trace.overhead_s"] = layers["trace.traced_s"] - layers["trace.untraced_s"]
        samples.append(layers)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pair_s) > seconds or time.perf_counter() + max(pair_s) > deadline:
            break
    metrics = {}
    if samples:
        for name, unit in per_layer_units().items():
            values = [s[name] for s in (imports if name in imports[0] else samples)]
            print(f"{name} [{unit}]: {summarize(values)}")
            metrics[name] = metric(statistics.median(values), unit)
    return attempted, failed, problems, metrics


# ------------------------------------------------------------------- main


def machine_context(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "symprod" / "cli.py").is_file():
        print("error: run from the root of a symprod checkout (no src/symprod/cli.py)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        prepared = workloads.prepare(args.workload, workdir, args.seed)
        print("context: " + json.dumps(machine_context(args.seed)))
        print(f"workload {args.workload}: " + json.dumps(prepared.known))
        run = traced_run if args.trace else timed_run
        attempted, failed, problems, metrics = run(prepared, env, workdir, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
