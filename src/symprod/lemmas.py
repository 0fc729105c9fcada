"""Executable property suite for the diagonal-set machinery.

Each check turns one provable statement about coincidence patterns,
stabilizers, and the sorted cone into a randomized (or exhaustive)
verification run.  The suite is deterministic given a seed and powers the
``symprod lemmas`` CLI subcommand as well as the acceptance tests.

Checks (names as reported):

- displacement-bound: a vector within eps of a diagonal set is moved by
  less than 2*eps by every stabilizer permutation.
- exterior-openness: around any out-of-order vector there is an explicit
  1-norm ball (a quarter of one inversion's height) of out-of-order vectors.
- interior-order-uniqueness: a strictly ascending vector stays sorted under
  no permutation but the identity (exhaustive over S_n).
- boundary-has-ties: a sorted vector on the cone's boundary has at least
  one exact coincidence, so its equality partition is nonempty.
- stabilizer-minimality: for a boundary vector's own coincidence pattern,
  exactly the stabilizer permutations keep it sorted (exhaustive over S_n).
- stabilizer-order: the enumerated stabilizer's size is the block-factorial product.
- diagonal-distance-closed-form: the closed-form distance to a diagonal set
  matches a dense 1-D grid minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import perm_matrix
from .diagonal import (
    BlockPartition,
    boundary_class,
    dist_to_diagonal,
    equality_partition,
    stabilizer_of,
)
from .errors import InputError

DISPLACEMENT_EPSILONS = (0.1, 1.0, 10.0)

# Test-only fault switch: flips the displacement comparison so the suite
# can demonstrate that it is able to fail.  Never set outside CI/tests.
KNOWN_FAULTS = ("flip-displacement",)


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of one property check at one tuple size."""

    name: str
    n: int
    trials: int
    violations: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_partition(n: int, rng: np.random.Generator) -> BlockPartition:
    """A random nonempty block partition: disjoint blocks of size >= 2."""
    order = [int(i) for i in rng.permutation(n)]
    blocks = []
    pos = 0
    while n - pos >= 2:
        size = int(rng.integers(2, min(4, n - pos) + 1))
        blocks.append(tuple(order[pos : pos + size]))
        pos += size
        if blocks and rng.random() < 0.5:
            break
    return BlockPartition(blocks=tuple(blocks), n=n)


def _random_boundary_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted vector with at least one exact tie."""
    x = np.sort(rng.uniform(-10.0, 10.0, size=n))
    ties = 1 + int(rng.integers(0, n - 1))
    positions = rng.choice(n - 1, size=ties, replace=False)
    for j in sorted(int(p) for p in positions):
        x[j + 1] = x[j]
    return x


def _random_exterior_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    for _ in range(100):
        x = rng.uniform(-10.0, 10.0, size=n)
        if np.any(np.diff(x) < 0):
            return x
    raise AssertionError("could not sample an out-of-order vector")


def _random_l1_perturbation(n: int, budget: float, rng: np.random.Generator) -> np.ndarray:
    """A vector with 1-norm strictly below ``budget``."""
    weights = rng.dirichlet(np.ones(n))
    signs = rng.choice((-1.0, 1.0), size=n)
    scale = budget * rng.uniform(0.1, 0.99)
    return weights * signs * scale


def check_displacement_bound(
    n: int, trials: int, rng: np.random.Generator, fault: str | None = None
) -> LemmaCheck:
    """Within eps of a diagonal set, every stabilizer element moves x < 2*eps."""
    violations = 0
    for eps in DISPLACEMENT_EPSILONS:
        for _ in range(trials):
            partition = _random_partition(n, rng)
            base = np.empty(n)
            base[:] = rng.uniform(-10.0, 10.0, size=n)
            for block in partition.blocks:
                base[list(block)] = rng.uniform(-10.0, 10.0)
            x = base + _random_l1_perturbation(n, eps, rng)
            if not dist_to_diagonal(x, partition) < eps:
                raise AssertionError("sampler broke its own precondition")
            stab = np.array(stabilizer_of(partition).elements, dtype=np.intp)
            displacement = np.abs(x[stab] - x[np.newaxis, :]).sum(axis=1)
            if fault == "flip-displacement":
                ok = bool(np.all(displacement > 2.0 * eps))
            else:
                ok = bool(np.all(displacement < 2.0 * eps))
            if not ok:
                violations += 1
    return LemmaCheck(
        name="displacement-bound",
        n=n,
        trials=trials * len(DISPLACEMENT_EPSILONS),
        violations=violations,
        detail=f"eps in {DISPLACEMENT_EPSILONS}, strict 2*eps bound",
    )


def check_exterior_openness(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """A quarter of one inversion's height is a safe out-of-order radius."""
    violations = 0
    probes = 10
    for _ in range(trials):
        x = _random_exterior_vector(n, rng)
        running_max = np.maximum.accumulate(x)[:-1]
        c = float(np.max(running_max - x[1:]))  # largest inversion height
        if not c > 0:
            raise AssertionError("sampler broke its own precondition")
        for _ in range(probes):
            y = x + _random_l1_perturbation(n, c / 4.0, rng)
            if boundary_class(y) != "exterior":
                violations += 1
    return LemmaCheck(
        name="exterior-openness",
        n=n,
        trials=trials * probes,
        violations=violations,
        detail="10 probes per vector inside the c/4 ball",
    )


def check_interior_order_uniqueness(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """Only the identity keeps a strictly ascending vector non-descending."""
    perms = perm_matrix(n)
    identity_row = int(np.flatnonzero((perms == np.arange(n)).all(axis=1))[0])
    violations = 0
    for _ in range(trials):
        x = np.sort(rng.uniform(-10.0, 10.0, size=n))
        while not np.all(np.diff(x) > 0):  # ties have probability zero
            x = np.sort(rng.uniform(-10.0, 10.0, size=n))
        nondesc = np.all(np.diff(x[perms], axis=1) >= 0, axis=1)
        if not (nondesc.sum() == 1 and bool(nondesc[identity_row])):
            violations += 1
    return LemmaCheck(
        name="interior-order-uniqueness",
        n=n,
        trials=trials,
        violations=violations,
        detail=f"exhaustive over all {math.factorial(n)} permutations",
    )


def check_boundary_has_ties(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """Boundary vectors of the sorted cone have a nonempty equality partition."""
    violations = 0
    for _ in range(trials):
        x = _random_boundary_vector(n, rng)
        if boundary_class(x) != "boundary":
            raise AssertionError("sampler broke its own precondition")
        if not equality_partition(x, 0.0).blocks:
            violations += 1
    return LemmaCheck(
        name="boundary-has-ties",
        n=n,
        trials=trials,
        violations=violations,
    )


def check_stabilizer_minimality(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """Exactly the coincidence stabilizer keeps a boundary vector sorted."""
    perms = perm_matrix(n)
    violations = 0
    for _ in range(trials):
        x = _random_boundary_vector(n, rng)
        labels = stabilizer_of(equality_partition(x, 0.0)).labels
        keeps_sorted = np.all(np.diff(x[perms], axis=1) >= 0, axis=1)
        if not np.array_equal(keeps_sorted, np.all(labels[perms] == labels, axis=1)):
            violations += 1
    return LemmaCheck(
        name="stabilizer-minimality",
        n=n,
        trials=trials,
        violations=violations,
        detail=f"exhaustive over all {math.factorial(n)} permutations",
    )


def check_stabilizer_order(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """The enumerated stabilizer's size is the product of block factorials."""
    violations = 0
    for _ in range(trials):
        partition = _random_partition(n, rng)
        expected = math.prod(math.factorial(len(b)) for b in partition.blocks)
        if len(stabilizer_of(partition).elements) != expected:
            violations += 1
    return LemmaCheck(
        name="stabilizer-order",
        n=n,
        trials=trials,
        violations=violations,
    )


def grid_min_block_cost(values: np.ndarray, lo: float, hi: float, step: float) -> float:
    """Dense-grid minimization of sum |v - c| over c in [lo, hi]."""
    grid = np.arange(lo, hi + step, step)
    return float(np.abs(values[np.newaxis, :] - grid[:, np.newaxis]).sum(axis=1).min())


def check_diagonal_distance_closed_form(
    n: int, trials: int, rng: np.random.Generator
) -> LemmaCheck:
    """Closed-form distance to a diagonal set vs a 1e-3 grid over [-10, 10]."""
    violations = 0
    for _ in range(trials):
        partition = _random_partition(n, rng)
        x = rng.uniform(-10.0, 10.0, size=n)
        by_grid = sum(
            grid_min_block_cost(x[list(block)], -10.0, 10.0, 1e-3)
            for block in partition.blocks
        )
        if abs(dist_to_diagonal(x, partition) - by_grid) > 2e-3:
            violations += 1
    return LemmaCheck(
        name="diagonal-distance-closed-form",
        n=n,
        trials=trials,
        violations=violations,
        detail="grid step 1e-3 on [-10, 10], tolerance 2e-3",
    )


def run_lemma_suite(
    n_values: Iterable[int] = (2, 3, 4, 5, 6),
    trials: int = 500,
    seed: int | None = 0,
    fault: str | None = None,
    grid_trials: int | None = None,
) -> list[LemmaCheck]:
    """Run every check at every requested tuple size, deterministically.

    ``grid_trials`` caps the (slower) grid-oracle check; default is
    min(trials, 50) per n.  ``fault`` must be None outside of tests.
    """
    if fault is not None and fault not in KNOWN_FAULTS:
        raise InputError(f"unknown fault {fault!r}; known: {KNOWN_FAULTS}")
    n_values = sorted(set(int(n) for n in n_values))
    if not n_values:
        raise InputError("need at least one tuple size")
    if any(n < 2 for n in n_values):
        raise InputError("lemma checks need n >= 2")
    if trials < 1:
        raise InputError(f"need trials >= 1, got {trials}")
    if grid_trials is None:
        grid_trials = min(trials, 50)
    if grid_trials < 1:
        raise InputError(f"need grid_trials >= 1, got {grid_trials}")
    rng = np.random.default_rng(seed)
    results: list[LemmaCheck] = []
    for n in n_values:
        results.append(check_displacement_bound(n, trials, rng, fault=fault))
        results.append(check_exterior_openness(n, trials, rng))
        results.append(check_interior_order_uniqueness(n, trials, rng))
        results.append(check_boundary_has_ties(n, trials, rng))
        results.append(check_stabilizer_minimality(n, trials, rng))
        results.append(check_stabilizer_order(n, trials, rng))
        results.append(check_diagonal_distance_closed_form(n, grid_trials, rng))
    return results


def all_passed(results: Sequence[LemmaCheck]) -> bool:
    return all(r.passed for r in results)


__all__ = [
    "DISPLACEMENT_EPSILONS",
    "KNOWN_FAULTS",
    "LemmaCheck",
    "all_passed",
    "grid_min_block_cost",
    "run_lemma_suite",
]
