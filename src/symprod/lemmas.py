"""Executable property suite for the diagonal-set machinery.

Each check turns one provable statement about coincidence patterns,
stabilizers, and the sorted cone into a randomized (or exhaustive)
verification run.  The suite is deterministic given a seed and powers the
``symprod lemmas`` CLI subcommand as well as the acceptance tests.

Every check draws its trials as one ``(trials, n)`` batch and tests its
property with array expressions over the trial axis, through the library's
own batch forms (``boundary_class``, ``dist_to_diagonal``,
``equality_partition``).  Random partitions are drawn as one batch of block
labels and grouped by distinct rows.  Only the piece under test runs per
partition: one stabilizer enumeration per distinct random partition.

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

from .core import as_count, nondescending, perm_matrix, row_chunks
from .diagonal import (
    BlockPartition,
    _partition_of_labels,
    boundary_class,
    dist_to_diagonal,
    equality_partition,
    stabilizer_of,
)
from .errors import InputError

DISPLACEMENT_EPSILONS = (0.1, 1.0, 10.0)


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


def _random_partition_labels(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` random nonempty block partitions, as ``(count, n)`` ``Stabilizer.labels`` rows.

    Each row takes a uniform permutation and cuts blocks off its front, of
    sizes uniform in 2..min(4, rest), stopping after each block with
    probability 1/2 or when fewer than two indices remain.
    """
    order = rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
    labels = np.tile(np.arange(n), (count, 1))
    pos = np.zeros(count, dtype=np.intp)
    rows = np.arange(count)  # rows still cutting blocks
    span = np.arange(4)
    while rows.size:
        size = rng.integers(2, np.minimum(4, n - pos[rows]) + 1)
        members = order[rows[:, np.newaxis], np.minimum(pos[rows, np.newaxis] + span, n - 1)]
        inside = span < size[:, np.newaxis]
        smallest = np.where(inside, members, n).min(axis=1)
        r, j = np.nonzero(inside)
        labels[rows[r], members[r, j]] = smallest[r]
        pos[rows] += size
        go_on = rng.random(rows.size) >= 0.5
        rows = rows[go_on & (n - pos[rows] >= 2)]
    return labels


def _partition_groups(
    n: int, trials: int, rng: np.random.Generator
) -> dict[BlockPartition, np.ndarray]:
    """One random partition per trial, grouped: each distinct partition -> its trial indices.

    Local to one check, so it holds at most ``trials`` keys.
    """
    labels = _random_partition_labels(n, trials, rng)
    distinct, which, counts = np.unique(labels, axis=0, return_inverse=True, return_counts=True)
    ids = np.split(np.argsort(which.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    return {_partition_of_labels(row): group for row, group in zip(distinct, ids)}


def _random_boundary_vectors(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` sorted rows, each with one or more exact ties at uniformly chosen places."""
    x = np.sort(rng.uniform(-10.0, 10.0, size=(count, n)), axis=1)
    ties = 1 + rng.integers(0, n - 1, size=count)
    # a random order of the n - 1 gaps per row; the gaps ranked below `ties` are tied
    tied = rng.permuted(np.tile(np.arange(n - 1), (count, 1)), axis=1) < ties[:, np.newaxis]
    for j in range(1, n):  # left to right, so a run of ties carries one value along
        x[:, j] = np.where(tied[:, j - 1], x[:, j - 1], x[:, j])
    return x


def _random_exterior_vectors(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` out-of-order rows; each is redrawn while sorted, at most 100 draws in all."""
    x = np.empty((count, n))
    redraw = np.arange(count)
    for _ in range(100):
        x[redraw] = rng.uniform(-10.0, 10.0, size=(redraw.size, n))
        redraw = redraw[nondescending(x[redraw])]
        if redraw.size == 0:
            return x
    raise AssertionError("could not sample an out-of-order vector")


def _random_l1_perturbation(
    n: int, budget: float | np.ndarray, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` rows, each of 1-norm strictly below its ``budget`` (a scalar or one per row)."""
    weights = rng.dirichlet(np.ones(n), size=count)
    signs = rng.choice((-1.0, 1.0), size=(count, n))
    scale = budget * rng.uniform(0.1, 0.99, size=count)
    return weights * signs * scale[:, np.newaxis]


def check_displacement_bound(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """Within eps of a diagonal set, every stabilizer element moves x < 2*eps."""
    violations = 0
    for eps in DISPLACEMENT_EPSILONS:
        groups = _partition_groups(n, trials, rng)
        x = rng.uniform(-10.0, 10.0, size=(trials, n))
        for partition, ids in groups.items():
            for block in partition.blocks:  # one common value per trial and block
                x[ids[:, np.newaxis], list(block)] = rng.uniform(-10.0, 10.0, size=(ids.size, 1))
        x += _random_l1_perturbation(n, eps, rng, trials)
        for partition, ids in groups.items():
            near = x[ids]
            if not np.all(dist_to_diagonal(near, partition) < eps):
                raise AssertionError("sampler broke its own precondition")
            stab = np.array(stabilizer_of(partition).elements, dtype=np.intp)
            for rows in row_chunks(ids.size, stab.size):
                displacement = np.abs(near[rows][:, stab] - near[rows][:, np.newaxis]).sum(axis=2)
                ok = np.all(displacement < 2.0 * eps, axis=1)
                violations += int(np.count_nonzero(~ok))
    return LemmaCheck(
        name="displacement-bound",
        n=n,
        trials=trials * len(DISPLACEMENT_EPSILONS),
        violations=violations,
        detail=f"eps in {DISPLACEMENT_EPSILONS}, strict 2*eps bound",
    )


def check_exterior_openness(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """A quarter of one inversion's height is a safe out-of-order radius."""
    probes = 10
    violations = 0
    # A block of vectors and all their probes.  A probe's draws, sum and class
    # label take about eight times its n floats, so a block stays near one
    # chunk of float64s in all.
    for rows in row_chunks(trials, 8 * probes * n):
        count = len(range(trials)[rows])
        x = _random_exterior_vectors(n, count, rng)
        running_max = np.maximum.accumulate(x, axis=1)[:, :-1]
        c = np.max(running_max - x[:, 1:], axis=1)  # largest inversion height per vector
        if not np.all(c > 0):
            raise AssertionError("sampler broke its own precondition")
        y = np.repeat(x, probes, axis=0)  # each vector's probes are consecutive rows
        y += _random_l1_perturbation(n, np.repeat(c / 4.0, probes), rng, count * probes)
        violations += int(np.count_nonzero(boundary_class(y) != "exterior"))
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
    x = np.empty((trials, n))
    redraw = np.arange(trials)
    while redraw.size:  # ties have probability zero
        x[redraw] = np.sort(rng.uniform(-10.0, 10.0, size=(redraw.size, n)), axis=1)
        redraw = redraw[~np.all(np.diff(x[redraw], axis=1) > 0, axis=1)]
    violations = 0
    for rows in row_chunks(trials, perms.size):
        nondesc = nondescending(x[rows][:, perms])
        violations += int(np.count_nonzero((nondesc.sum(axis=1) != 1) | ~nondesc[:, identity_row]))
    return LemmaCheck(
        name="interior-order-uniqueness",
        n=n,
        trials=trials,
        violations=violations,
        detail=f"exhaustive over all {math.factorial(n)} permutations",
    )


def check_boundary_has_ties(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """Boundary vectors of the sorted cone have a nonempty equality partition."""
    x = _random_boundary_vectors(n, trials, rng)
    if not np.all(boundary_class(x) == "boundary"):
        raise AssertionError("sampler broke its own precondition")
    untied = np.all(equality_partition(x, 0.0) == np.arange(n), axis=1)
    violations = int(np.count_nonzero(untied))
    return LemmaCheck(
        name="boundary-has-ties",
        n=n,
        trials=trials,
        violations=violations,
    )


def check_stabilizer_minimality(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """Exactly the coincidence stabilizer keeps a boundary vector sorted."""
    perms = perm_matrix(n)
    x = _random_boundary_vectors(n, trials, rng)
    labels = equality_partition(x, 0.0)  # each row in the Stabilizer.labels convention
    violations = 0
    for rows in row_chunks(trials, perms.size):
        keeps_sorted = nondescending(x[rows][:, perms])
        fixes_labels = np.all(labels[rows][:, perms] == labels[rows][:, np.newaxis], axis=2)
        violations += int(np.count_nonzero(np.any(keeps_sorted != fixes_labels, axis=1)))
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
    for partition, ids in _partition_groups(n, trials, rng).items():
        expected = math.prod(math.factorial(len(b)) for b in partition.blocks)
        if len(stabilizer_of(partition).elements) != expected:
            violations += ids.size
    return LemmaCheck(
        name="stabilizer-order",
        n=n,
        trials=trials,
        violations=violations,
    )


def grid_min_block_cost(values: np.ndarray, lo: float, hi: float, step: float):
    """Dense-grid minimization of sum |v - c| over c in [lo, hi].

    ``values`` is one block's components (a float comes back) or a ``(B, k)``
    batch of blocks (a ``(B,)`` array).  The k costs at a grid point are
    summed in component order, over the grid's contiguous axis.
    """
    grid = np.arange(lo, hi + step, step)
    blocks = np.asarray(values, dtype=float)
    batch = blocks.reshape(-1, blocks.shape[-1])
    best = np.concatenate([
        np.abs(batch[rows, :, np.newaxis] - grid).sum(axis=1).min(axis=1)
        for rows in row_chunks(len(batch), batch.shape[1] * grid.size)
    ])
    return float(best[0]) if blocks.ndim == 1 else best


def check_diagonal_distance_closed_form(
    n: int, trials: int, rng: np.random.Generator
) -> LemmaCheck:
    """Closed-form distance to a diagonal set vs a 1e-3 grid over [-10, 10]."""
    groups = _partition_groups(n, trials, rng)
    x = rng.uniform(-10.0, 10.0, size=(trials, n))
    violations = 0
    for partition, ids in groups.items():
        near = x[ids]
        by_grid = sum(
            grid_min_block_cost(near[:, list(block)], -10.0, 10.0, 1e-3)
            for block in partition.blocks
        )
        gap = np.abs(dist_to_diagonal(near, partition) - by_grid)
        violations += int(np.count_nonzero(gap > 2e-3))
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
    grid_trials: int | None = None,
) -> list[LemmaCheck]:
    """Run every check at every requested tuple size, deterministically.

    Each check draws from its own generator, spawned from ``seed``, so no
    check's samples depend on how much another one drew.  ``grid_trials``
    caps the (slower) grid-oracle check; default is min(trials, 50) per n.
    """
    try:
        n_values = sorted(set(as_count(n, "n", 2) for n in n_values))
    except TypeError:  # not iterable
        raise InputError(f"n_values must be a sequence of tuple sizes, got {n_values!r}") from None
    if not n_values:
        raise InputError("need at least one tuple size")
    trials = as_count(trials, "trials", 1)
    grid_trials = as_count(min(trials, 50) if grid_trials is None else grid_trials,
                           "grid_trials", 1)
    rng = np.random.default_rng(None if seed is None else as_count(seed, "seed", 0))
    results: list[LemmaCheck] = []
    for n in n_values:
        g = rng.spawn(7)
        results.append(check_displacement_bound(n, trials, g[0]))
        results.append(check_exterior_openness(n, trials, g[1]))
        results.append(check_interior_order_uniqueness(n, trials, g[2]))
        results.append(check_boundary_has_ties(n, trials, g[3]))
        results.append(check_stabilizer_minimality(n, trials, g[4]))
        results.append(check_stabilizer_order(n, trials, g[5]))
        results.append(check_diagonal_distance_closed_form(n, grid_trials, g[6]))
    return results


def all_passed(results: Sequence[LemmaCheck]) -> bool:
    return all(r.passed for r in results)


__all__ = [
    "LemmaCheck",
    "all_passed",
    "run_lemma_suite",
]
