"""Seeded inputs, CLI invocations and independent output checks per workload.

A workload is made of parts, each with its own generator.  It is
prepared once per run into a scratch directory: each part's generator
writes its input files and returns a ``Prepared`` record that carries the
argv of every CLI invocation in one iteration, the counts the generator
knows about its own data, and the arrays the checks need.  The program
only ever sees the files and the argv.

Every check recomputes the expected answer by its own route (numpy sort,
closed-form chord sums, the known trial counts of the lemma suite) and
returns a list of problems; an empty list means the output is correct.
A check that finds nothing to compare reports that as a problem, so no
check can pass vacuously.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

LIFT_N = 25_000
LIFT_DIM = 6
LIFT_REPEAT_SHARE = 0.05
LIFT_TIE_SHARE = 0.02
LIFT_STEP_SCALE = 0.1

HOLONOMY_RUNS = ((3, 3 * 64), (8, 8 * 16), (64, 2048))

LEMMA_N = (2, 3, 4, 5, 6)
LEMMA_TRIALS = 150
# Trials reported per check at --trials 150; the grid check is capped at 50.
LEMMA_EXPECTED_TRIALS = {
    "displacement-bound": 3 * LEMMA_TRIALS,
    "exterior-openness": 10 * LEMMA_TRIALS,
    "interior-order-uniqueness": LEMMA_TRIALS,
    "boundary-has-ties": LEMMA_TRIALS,
    "stabilizer-minimality": LEMMA_TRIALS,
    "stabilizer-order": LEMMA_TRIALS,
    "diagonal-distance-closed-form": min(LEMMA_TRIALS, 50),
}

DIST_REAL_N = 250_000
DIST_COMPLEX_N = 1000
# Printed values carry 12 significant digits.
PRINTED_REL_TOL = 1e-11


@dataclass
class Invocation:
    """One CLI call: its argv after ``symprod`` and the check for its output."""

    argv: list[str]
    check: Callable[[str, str, int], list[str]]
    part: str = ""


@dataclass
class Prepared:
    invocations: list[Invocation]
    known: dict = field(default_factory=dict)


# ----------------------------------------------------------------- lift-25k


def make_lift_rows(seed: int, count: int = LIFT_N) -> tuple[np.ndarray, dict]:
    """Random walk of ``count`` real 6-tuples, stored in shuffled component order.

    About LIFT_REPEAT_SHARE of the samples repeat the previous multiset
    exactly, which makes those path edges take the equal-class branch, and
    about LIFT_TIE_SHARE of the fresh samples get two equal components.
    """
    rng = np.random.default_rng([seed, 1])
    steps = rng.normal(0.0, LIFT_STEP_SCALE, size=(count, LIFT_DIM))
    walk = np.cumsum(steps, axis=0)
    repeat = rng.random(count) < LIFT_REPEAT_SHARE
    repeat[0] = False
    tie = (rng.random(count) < LIFT_TIE_SHARE) & ~repeat
    tie_pairs = rng.integers(0, LIFT_DIM, size=(count, 2))
    for i in np.flatnonzero(tie):
        a, b = tie_pairs[i]
        walk[i, (a + 1 + b % (LIFT_DIM - 1)) % LIFT_DIM] = walk[i, a]
    for i in np.flatnonzero(repeat):
        walk[i] = walk[i - 1]
    rows = rng.permuted(walk, axis=1)
    sorted_rows = np.sort(rows, axis=1)
    known = {
        "samples": count,
        "n": LIFT_DIM,
        "edges": count - 1,
        "repeat_edges": int(repeat.sum()),
        "tie_rows": int(np.any(np.diff(sorted_rows, axis=1) == 0, axis=1).sum()),
    }
    return rows, known


def lift_points(count: int) -> np.ndarray:
    return np.arange(count, dtype=float) / count


def field_file_bytes(rows: np.ndarray) -> bytes:
    lines = [json.dumps({"meta": {"m": 1, "n": rows.shape[1], "adjacency": "path"}})]
    for p, row in zip(lift_points(rows.shape[0]).tolist(), rows.tolist()):
        lines.append('{"point": [%r], "tuple": [%s]}' % (p, ", ".join(map(repr, row))))
    return ("\n".join(lines) + "\n").encode()


def read_lifted(path: Path) -> tuple[np.ndarray, np.ndarray, dict | None]:
    """Parse a lifted JSON-lines file into (points, tuples, meta)."""
    meta = None
    points, tuples = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            obj = json.loads(line)
            if "meta" in obj:
                meta = obj["meta"]
                continue
            points.append(obj["point"])
            tuples.append(obj["tuple"])
    return np.asarray(points, dtype=float), np.asarray(tuples, dtype=float), meta


LIFT_SUMMARY = re.compile(
    r"max_ratio = (\S+) worst_edge = .*\(ratio edges: (\d+), equal-class edges: (\d+)\)"
)


def check_lift(
    rows: np.ndarray, known: dict, out_path: Path, stdout: str, stderr: str, code: int
) -> list[str]:
    problems = []
    if code != 0:
        return [f"lift exited {code}: {stderr.strip()[-300:]}"]
    match = LIFT_SUMMARY.search(stderr)
    if match is None:
        return [f"lift printed no summary line: {stderr.strip()[-300:]!r}"]
    if float(match.group(1)) != 1.0:
        problems.append(f"max_ratio = {match.group(1)}, expected 1")
    ratio_edges, zero_edges = int(match.group(2)), int(match.group(3))
    if zero_edges != known["repeat_edges"]:
        problems.append(f"equal-class edges {zero_edges} != generated {known['repeat_edges']}")
    if ratio_edges != known["edges"] - known["repeat_edges"]:
        problems.append(
            f"ratio edges {ratio_edges} != generated {known['edges'] - known['repeat_edges']}"
        )
    try:
        points, lifted, meta = read_lifted(out_path)
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"lifted file unreadable: {exc}"]
    if lifted.shape != rows.shape:
        return problems + [f"lifted shape {lifted.shape} != input shape {rows.shape}"]
    if meta != {"m": 1, "n": rows.shape[1], "adjacency": "path"}:
        problems.append(f"lifted meta line {meta!r}")
    if not np.array_equal(points[:, 0], lift_points(rows.shape[0])):
        problems.append("lifted sample points differ from the input points")
    bad = np.flatnonzero(np.any(lifted != np.sort(rows, axis=1), axis=1))
    if bad.size:
        problems.append(f"{bad.size} lifted rows differ from np.sort of the input (first {bad[0]})")
    tie_rows = int(np.any(np.diff(lifted, axis=1) == 0, axis=1).sum())
    if tie_rows != known["tie_rows"]:
        problems.append(f"lifted file has {tie_rows} tie rows, generated {known['tie_rows']}")
    return problems


def prepare_lift(workdir: Path, seed: int) -> Prepared:
    rows, known = make_lift_rows(seed)
    in_path, out_path = workdir / "field.jsonl", workdir / "lifted.jsonl"
    in_path.write_bytes(field_file_bytes(rows))
    known["input_bytes"] = in_path.stat().st_size
    argv = ["lift", "--input", str(in_path), "--output", str(out_path)]
    return Prepared([Invocation(argv, functools.partial(check_lift, rows, known, out_path))], known)


# ----------------------------------------------------------- holonomy-roots

_CYCLE_LINE = re.compile(r"^cycle type = (\d+)-cycle \(([\d ]+)\)$", re.M)


def printed_value(stdout: str, key: str) -> str | None:
    match = re.search(rf"^{re.escape(key)} = (\S+)$", stdout, re.M)
    return match.group(1) if match else None


def check_holonomy(k: int, steps: int, stdout: str, stderr: str, code: int) -> list[str]:
    if code != 0:
        return [f"holonomy k={k} exited {code}: {stderr.strip()[-300:]}"]
    problems = []
    match = _CYCLE_LINE.search(stdout)
    if match is None:
        problems.append(f"holonomy k={k}: no single-cycle line in {stdout!r}")
    else:
        cycle = [int(i) for i in match.group(2).split()]
        if int(match.group(1)) != k or sorted(cycle) != list(range(k)):
            problems.append(f"holonomy k={k}: reported {match.group(0)!r}, expected a {k}-cycle")
    if printed_value(stdout, "steps") != str(steps):
        problems.append(f"holonomy k={k}: steps line != {steps}")
    cost = printed_value(stdout, "total cost")
    expected = 2 * k * steps * math.sin(math.pi / (k * steps))
    if cost is None:
        problems.append(f"holonomy k={k}: no total cost line")
    elif not math.isclose(float(cost), expected, rel_tol=PRINTED_REL_TOL):
        problems.append(f"holonomy k={k}: total cost {cost} != chord sum {expected!r}")
    return problems


def prepare_holonomy(workdir: Path, seed: int) -> Prepared:
    invocations = [
        Invocation(["holonomy", "--k", str(k), "--steps", str(steps)],
                   functools.partial(check_holonomy, k, steps))
        for k, steps in HOLONOMY_RUNS
    ]
    return Prepared(invocations, {"runs": [list(r) for r in HOLONOMY_RUNS]})


# -------------------------------------------------------------- lemmas-full

_LEMMA_ROW = re.compile(r"^(\S+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(PASS|FAIL)$", re.M)


def check_lemmas(seed: int, stdout: str, stderr: str, code: int) -> list[str]:
    problems = [] if code == 0 else [f"lemmas exited {code}: {stderr.strip()[-300:]}"]
    rows = _LEMMA_ROW.findall(stdout)
    expected = {(name, n): t for name, t in LEMMA_EXPECTED_TRIALS.items() for n in LEMMA_N}
    seen = {}
    for name, n, trials, violations, status in rows:
        seen[(name, int(n))] = (int(trials), int(violations), status)
    if len(rows) != len(expected) or set(seen) != set(expected):
        problems.append(f"lemmas printed {len(rows)} rows, expected {len(expected)}")
    for key, trials in expected.items():
        got = seen.get(key)
        if got is None:
            continue
        if got != (trials, 0, "PASS"):
            problems.append(f"lemmas {key}: {got}, expected ({trials}, 0, 'PASS')")
    summary = f"all {len(expected)} checks passed (seed = {seed})"
    if summary not in stdout:
        problems.append(f"lemmas: missing summary {summary!r}")
    return problems


def prepare_lemmas(workdir: Path, seed: int) -> Prepared:
    argv = ["lemmas", "--n", "2..6", "--trials", str(LEMMA_TRIALS), "--seed", str(seed)]
    return Prepared([Invocation(argv, functools.partial(check_lemmas, seed))],
                    {"checks": len(LEMMA_EXPECTED_TRIALS) * len(LEMMA_N)})


# --------------------------------------------------------------- dist-large


def make_dist_pairs(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, 2])
    a = rng.uniform(-10.0, 10.0, size=DIST_REAL_N)
    b = rng.uniform(-10.0, 10.0, size=DIST_REAL_N)
    za = rng.normal(size=DIST_COMPLEX_N) + 1j * rng.normal(size=DIST_COMPLEX_N)
    zb = rng.normal(size=DIST_COMPLEX_N) + 1j * rng.normal(size=DIST_COMPLEX_N)
    return a, b, za, zb


def tuple_file_bytes(a: np.ndarray, b: np.ndarray) -> bytes:
    return ("\n".join(",".join(map(repr, v.tolist())) for v in (a, b)) + "\n").encode()


def check_dist(
    a: np.ndarray, b: np.ndarray, engine: str, expected: float | None,
    stdout: str, stderr: str, code: int,
) -> list[str]:
    """Check a printed distance and minimizer.

    ``expected`` is the sorted-row l1 distance for real input; for complex
    input only the minimizer's recomputed cost is compared.
    """
    if code != 0:
        return [f"dist exited {code}: {stderr.strip()[-300:]}"]
    problems = []
    value_text = printed_value(stdout, "distance")
    perm_text = printed_value(stdout, "minimizer")
    if value_text is None or perm_text is None:
        return [f"dist printed no distance or minimizer: {stdout[:200]!r}"]
    value = float(value_text)
    if printed_value(stdout, "engine") != engine:
        problems.append(f"dist engine {printed_value(stdout, 'engine')!r}, expected {engine!r}")
    if expected is not None and not math.isclose(value, expected, rel_tol=PRINTED_REL_TOL):
        problems.append(f"dist {value_text} != numpy sorted-row l1 {expected!r}")
    perm = np.array(perm_text.split(","), dtype=np.int64)
    if perm.size != a.size or not np.array_equal(np.sort(perm), np.arange(a.size)):
        return problems + [f"dist minimizer is not a permutation of range({a.size})"]
    cost = float(np.abs(a - b[perm]).sum())
    if not math.isclose(cost, value, rel_tol=PRINTED_REL_TOL):
        problems.append(f"dist minimizer costs {cost!r}, printed {value_text}")
    return problems


def prepare_dist(workdir: Path, seed: int) -> Prepared:
    a, b, za, zb = make_dist_pairs(seed)
    real_path, complex_path = workdir / "real_pair.txt", workdir / "complex_pair.txt"
    real_path.write_bytes(tuple_file_bytes(a, b))
    complex_path.write_bytes(tuple_file_bytes(za, zb))
    expected = float(np.abs(np.sort(a) - np.sort(b)).sum())
    return Prepared(
        [
            Invocation(["dist", "--file", str(real_path)],
                       functools.partial(check_dist, a, b, "sorted", expected)),
            Invocation(["dist", "--file", str(complex_path)],
                       functools.partial(check_dist, za, zb, "assignment", None)),
        ],
        {"real_n": DIST_REAL_N, "complex_n": DIST_COMPLEX_N, "real_distance": expected},
    )


PARTS: dict[str, Callable[[Path, int], Prepared]] = {
    "lift-25k": prepare_lift,
    "dist-large": prepare_dist,
    "holonomy-roots": prepare_holonomy,
    "lemmas-full": prepare_lemmas,
}

# Each workload runs its parts' invocations in turn, so one run spans the
# real-tuple layers (fieldfile, selection, sorted metric, cli parser) or
# the complex and combinatorial ones (monodromy, engines, lemmas, diagonal).
WORKLOADS: dict[str, tuple[str, ...]] = {
    "lift-dist": ("lift-25k", "dist-large"),
    "holonomy-lemmas": ("holonomy-roots", "lemmas-full"),
}


def prepare(workload: str, workdir: Path, seed: int) -> Prepared:
    """Prepare every part of ``workload``; invocations keep their part's name."""
    invocations, known = [], {}
    for part in WORKLOADS[workload]:
        prepared = PARTS[part](workdir, seed)
        for inv in prepared.invocations:
            inv.part = part
        invocations.extend(prepared.invocations)
        known[part] = prepared.known
    return Prepared(invocations, known)
