"""Acceptance checks, one test per criterion, one printed verdict line each.

Every criterion recomputes its expectations from independent routes
(explicit enumeration, grid search, closed-form spectra) rather than
trusting the code under test.  Tolerances are pinned constants below.
"""

import time

import numpy as np
import pytest

from oracles import (
    grid_min_block_cost,
    min_matching_cost,
    perm_rows,
    symmetric_2x2_eigenvalues,
)
from symprod.core import apply_perm
from symprod.diagonal import BlockPartition, dist_to_diagonal, equality_partition
from symprod.lemmas import (
    check_boundary_has_ties,
    check_displacement_bound,
    check_interior_order_uniqueness,
    check_stabilizer_minimality,
)
from symprod.metric import dist_assignment, dist_bruteforce, dist_sorted, l1_norm
from symprod.monodromy import ComplexLoop, cycle_type, roots_loop_generator, track_loop
from symprod.selection import SampledField, canonicalize, continuity_report, lift_field

TOL_IDENTITY = 1e-12
TOL_SYMMETRY = 1e-12
TOL_TRIANGLE = 1e-9
TOL_ENGINE = 1e-9
TOL_ISOMETRY = 1e-9
TOL_RATIO = 1e-9
TOL_GRID = 2e-3

N_RANGE_METRIC = range(2, 8)
N_RANGE_LEMMAS = range(2, 7)


def announce(capsys, number: int, label: str, ok: bool, detail: str):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {number}: {verdict} - {label} ({detail})")


def test_criterion_1_metric_axioms(capsys):
    rng = np.random.default_rng(101)
    violations = 0
    checked = 0
    for n in N_RANGE_METRIC:
        for _ in range(2000):
            x = rng.uniform(-10, 10, size=n)
            y = rng.uniform(-10, 10, size=n)
            z = rng.uniform(-10, 10, size=n)
            d_xy = dist_bruteforce(x, y).value
            d_yx = dist_bruteforce(y, x).value
            d_xz = dist_bruteforce(x, z).value
            d_yz = dist_bruteforce(y, z).value
            s, t = tuple(rng.permutation(n).tolist()), tuple(rng.permutation(n).tolist())

            # identity of indiscernibles, both directions
            same_class = bool(np.allclose(np.sort(x), np.sort(y), atol=TOL_IDENTITY))
            if (d_xy <= TOL_IDENTITY) != same_class:
                violations += 1
            if dist_bruteforce(x, apply_perm(s, x)).value > TOL_IDENTITY:
                violations += 1
            # symmetry
            if abs(d_xy - d_yx) > TOL_SYMMETRY:
                violations += 1
            # triangle inequality
            if d_xz > d_xy + d_yz + TOL_TRIANGLE:
                violations += 1
            # permutation invariance of d
            if abs(dist_bruteforce(apply_perm(s, x), apply_perm(t, y)).value - d_xy) > TOL_SYMMETRY:
                violations += 1
            checked += 1
    ok = violations == 0
    announce(
        capsys,
        1,
        "metric axioms (brute-force ground truth)",
        ok,
        f"{checked} triples over n=2..7, {violations} violations",
    )
    assert ok


def test_criterion_2_engine_equivalence(capsys):
    rng = np.random.default_rng(102)
    worst_real = 0.0
    worst_complex = 0.0
    for n in N_RANGE_METRIC:
        for _ in range(1000):
            y = rng.uniform(-10, 10, size=n)
            z = rng.uniform(-10, 10, size=n)
            reference = dist_bruteforce(y, z).value
            worst_real = max(
                worst_real,
                abs(dist_sorted(y, z).value - reference),
                abs(dist_assignment(y, z).value - reference),
            )
        for _ in range(500):
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            worst_complex = max(
                worst_complex,
                abs(dist_assignment(y, z).value - min_matching_cost(y, z)),
            )
    ok = worst_real <= TOL_ENGINE and worst_complex <= TOL_ENGINE
    announce(
        capsys,
        2,
        "engine equivalence",
        ok,
        f"worst real deviation {worst_real:.2e}, worst complex {worst_complex:.2e}",
    )
    assert ok


def test_criterion_3_displacement_bound(capsys):
    rng = np.random.default_rng(103)
    checks = [check_displacement_bound(n, 500, rng) for n in N_RANGE_LEMMAS]
    violations = sum(c.violations for c in checks)
    trials = sum(c.trials for c in checks)
    ok = violations == 0
    announce(
        capsys,
        3,
        "stabilizer displacement < 2*eps near the diagonal",
        ok,
        f"{trials} trials (500 per (n, eps), eps in 0.1/1/10), {violations} violations",
    )
    assert ok


def test_criterion_4_order_uniqueness(capsys):
    rng = np.random.default_rng(104)
    interior = [check_interior_order_uniqueness(n, 200, rng) for n in N_RANGE_LEMMAS]
    minimal = [check_stabilizer_minimality(n, 200, rng) for n in N_RANGE_LEMMAS]
    violations = sum(c.violations for c in interior + minimal)
    ok = violations == 0
    announce(
        capsys,
        4,
        "only identity (resp. stabilizer) keeps sorted order, exhaustive",
        ok,
        f"200 base points per n=2..6, all permutations, {violations} violations",
    )
    assert ok


def test_criterion_5_boundary_has_ties(capsys):
    rng = np.random.default_rng(105)
    checks = [check_boundary_has_ties(n, 500, rng) for n in N_RANGE_LEMMAS]
    violations = sum(c.violations for c in checks)
    ok = violations == 0
    announce(
        capsys,
        5,
        "boundary vectors have a nonempty equality partition at tol 0",
        ok,
        f"{sum(c.trials for c in checks)} vectors, {violations} violations",
    )
    assert ok


def test_criterion_6_sorting_is_isometric(capsys):
    rng = np.random.default_rng(106)
    worst = 0.0
    for n in N_RANGE_METRIC:
        for _ in range(1000):
            y = rng.uniform(-10, 10, size=n)
            z = rng.uniform(-10, 10, size=n)
            moved = l1_norm(canonicalize(y) - canonicalize(z))
            worst = max(worst, abs(moved - dist_bruteforce(y, z).value))
    worst_ratio_dev = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        count = int(rng.integers(5, 40))
        field = SampledField.path(
            np.linspace(0.0, 1.0, count).reshape(-1, 1),
            [rng.uniform(-5, 5, size=n) for _ in range(count)],
        )
        report = continuity_report(lift_field(field), field)
        worst_ratio_dev = max(worst_ratio_dev, abs(report.max_ratio - 1.0))
    ok = worst <= TOL_ISOMETRY and worst_ratio_dev <= TOL_RATIO
    announce(
        capsys,
        6,
        "sorting moves exactly the matching distance",
        ok,
        f"worst isometry gap {worst:.2e}, worst field ratio deviation {worst_ratio_dev:.2e}",
    )
    assert ok


def test_criterion_7_complex_failure_real_success(capsys):
    failures = []

    h2 = track_loop(roots_loop_generator(2, 256))
    if cycle_type(h2.permutation) != (2,):
        failures.append(f"k=2 gave {cycle_type(h2.permutation)}")
    h3 = track_loop(roots_loop_generator(3, 512))
    if cycle_type(h3.permutation) != (3,):
        failures.append(f"k=3 gave {cycle_type(h3.permutation)}")
    for k, steps in ((2, 256), (3, 512), (4, 512)):
        coarse = cycle_type(track_loop(roots_loop_generator(k, steps)).permutation)
        fine = cycle_type(track_loop(roots_loop_generator(k, steps * 2)).permutation)
        if coarse != fine:
            failures.append(f"k={k} refinement changed {coarse} -> {fine}")

    # analogous real loop: spectra of [[cos t, sin t], [sin t, -cos t]]
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    spectra = np.array(
        [symmetric_2x2_eigenvalues(np.cos(t), np.sin(t), -np.cos(t)) for t in thetas]
    )
    sorted_rows = np.stack([canonicalize(row) for row in spectra])
    if np.abs(np.diff(np.vstack([sorted_rows, sorted_rows[:1]]), axis=0)).max() > TOL_ISOMETRY:
        failures.append("sorted eigenvalue labels jumped between neighbors")
    h_real = track_loop(ComplexLoop(samples=sorted_rows.astype(complex)))
    if h_real.permutation != tuple(range(len(h_real.permutation))):
        failures.append("real eigenvalue loop tracked to a non-identity relabeling")

    ok = not failures
    announce(
        capsys,
        7,
        "k-th roots loops give k-cycles, real spectra lift with identity relabeling",
        ok,
        "; ".join(failures) if failures else "k=2 -> 2-cycle, k=3 -> 3-cycle, refinement stable",
    )
    assert ok, failures


def test_criterion_8_diagonal_distance_grid_oracle(capsys):
    rng = np.random.default_rng(108)
    worst = 0.0
    pairs = 0
    for n in N_RANGE_LEMMAS:
        for _ in range(200):
            x = rng.uniform(-10, 10, size=n)
            labels = rng.integers(0, max(2, n - 1), size=n)
            part = equality_partition(labels.astype(float))
            if not part.blocks:
                part = BlockPartition(blocks=(tuple(range(n)),), n=n)
            closed_form = dist_to_diagonal(x, part)
            oracle = sum(grid_min_block_cost(x[list(b)]) for b in part.blocks)
            worst = max(worst, abs(closed_form - oracle))
            pairs += 1
    ok = worst <= TOL_GRID
    announce(
        capsys,
        8,
        "diagonal distance closed form vs 1e-3 grid search",
        ok,
        f"{pairs} (x, partition) pairs, worst gap {worst:.2e}",
    )
    assert ok


def test_criterion_9_performance_smoke(capsys):
    rng = np.random.default_rng(109)
    y = rng.uniform(-10, 10, size=1_000_000)
    z = rng.uniform(-10, 10, size=1_000_000)
    start = time.perf_counter()
    sorted_result = dist_sorted(y, z)
    sorted_seconds = time.perf_counter() - start

    yc = rng.normal(size=500) + 1j * rng.normal(size=500)
    zc = rng.normal(size=500) + 1j * rng.normal(size=500)
    start = time.perf_counter()
    assignment_result = dist_assignment(yc, zc)
    assignment_seconds = time.perf_counter() - start

    completed = np.isfinite(sorted_result.value) and np.isfinite(assignment_result.value)
    announce(
        capsys,
        9,
        "performance smoke (informative, not gating)",
        bool(completed),
        f"sorted n=1e6 in {sorted_seconds:.3f}s (budget 1s), "
        f"assignment n=500 in {assignment_seconds:.3f}s (budget 10s)",
    )
    assert completed
    assert sorted_result.value >= 0.0 and assignment_result.value >= 0.0
