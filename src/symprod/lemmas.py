"""Executable property suite for the diagonal-set machinery.

Each check turns one provable statement about coincidence patterns,
stabilizers, and the sorted cone into a randomized (or exhaustive)
verification run.  The suite is deterministic given a seed and powers the
``symprod lemmas`` CLI subcommand as well as the acceptance tests.

Every check draws its trials as one ``(trials, n)`` batch, each sample with
its property by construction, and tests the property with array expressions
over the trial axis, through the library's batch forms (``boundary_class``,
``dist_to_diagonal``, ``equality_partition``).  A random partition is a row
of n small integers, k < n distinct values, so every row ties; equal values
make a block, so every partition with a block can be drawn, up to the
all-equal one.  A boundary vector is a sorted point of such a diagonal set,
an interior vector a running sum of steps of at least 0.1, and an exterior
vector a uniform row, reversed if it came out sorted.  Per distinct
partition only the piece under test runs: one distance call and one
stabilizer enumeration.  displacement-bound draws its three epsilons as one
batch, so each partition is grouped, measured and enumerated once for all
three; it and stabilizer-order walk a stabilizer's table in slices.

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
- stabilizer-order: the enumerated stabilizer lists the block-factorial product of
  distinct members and nothing else.
- diagonal-distance-closed-form: the closed-form distance to a diagonal set
  matches each block's exact minimum, taken over the block's own values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import BRUTE_FORCE_CAP, as_count, nondescending, perm_matrix, row_chunks
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

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_partition_labels(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` random partitions with a block, as ``(count, n)`` ``Stabilizer.labels`` rows."""
    # n values from range(k), k uniform in 1..n - 1, always tie; a label is the first equal index
    values = rng.integers(0, rng.integers(1, n, size=(count, 1)), size=(count, n))
    return np.argmax(values[:, :, np.newaxis] == values[:, np.newaxis, :], axis=2)


def _partition_groups(labels: np.ndarray) -> dict[BlockPartition, np.ndarray]:
    """Rows of a ``(count, n)`` labels batch, grouped: each distinct partition -> its row indices.

    Local to one check, so it holds at most ``count`` keys.
    """
    n = labels.shape[1]
    keys = (labels * n ** np.arange(n)[::-1]).sum(axis=1)  # n base-n digits, first column leading
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order], prepend=-1, append=-1)).tolist()  # runs of one key
    return {_partition_of_labels(labels[order[lo]]): order[lo:hi] for lo, hi in zip(cuts, cuts[1:])}


def _random_boundary_vectors(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` sorted points of random diagonal sets: each row has one or more exact ties."""
    labels = _random_partition_labels(n, count, rng)
    return np.sort(np.take_along_axis(rng.uniform(-10.0, 10.0, size=labels.shape), labels, axis=1))


def _random_l1_perturbation(
    n: int, budget: float | np.ndarray, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` rows, each of 1-norm strictly below its ``budget`` (a scalar or one per row)."""
    weights = rng.dirichlet(np.ones(n), size=count)
    weights *= rng.choice((-1.0, 1.0), size=(count, n))
    weights *= (budget * rng.uniform(0.1, 0.99, size=count))[:, np.newaxis]
    return weights


def check_displacement_bound(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """Within eps of a diagonal set, every stabilizer element moves x < 2*eps."""
    perm_matrix(n)  # S_n's table, built once as set-up: the all-equal pattern's stabilizer
    eps = np.repeat(DISPLACEMENT_EPSILONS, trials)  # the three batches as one, eps per row
    labels = _random_partition_labels(n, eps.size, rng)
    # one common value per row and block: each component takes its block label's draw
    x = np.take_along_axis(rng.uniform(-10.0, 10.0, size=labels.shape), labels, axis=1)
    x += _random_l1_perturbation(n, eps, rng, eps.size)
    violations = 0
    for partition, ids in _partition_groups(labels).items():
        near, bound = x[ids], eps[ids]
        if not np.all(dist_to_diagonal(near, partition) < bound):
            raise AssertionError("sampler broke its own precondition")
        table = stabilizer_of(partition)._table()
        ok = np.ones(ids.size, dtype=bool)
        for elements in row_chunks(len(table), 8 * 8 * n):  # then rows: a (rows, |slice|, n) array
            stab = table[elements]
            for rows in row_chunks(ids.size, 8 * 8 * stab.size):
                moved = near[rows][:, stab]
                moved -= near[rows][:, np.newaxis]
                displacement = np.abs(moved, out=moved).sum(axis=2)
                ok[rows] &= np.all(displacement < 2.0 * bound[rows, np.newaxis], axis=1)
        violations += int(np.count_nonzero(~ok))
    return LemmaCheck(
        name="displacement-bound",
        n=n,
        trials=trials * len(DISPLACEMENT_EPSILONS),
        violations=violations,
    )


def check_exterior_openness(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """A quarter of one inversion's height is a safe out-of-order radius."""
    probes, group = 10, 64
    violations = 0
    # Each group of vectors draws from a generator spawned for it, so no sample depends on
    # the block size.  A block of whole groups and their probes is an eighth of a chunk in
    # all: a probe's draws, sum and class label take about eight times its n floats.
    starts = range(0, trials, group)
    for groups in row_chunks(len(starts), group * 8 * 8 * probes * n):
        y = []
        for start in starts[groups]:
            g = rng.spawn(1)[0]
            x = g.uniform(-10.0, 10.0, size=(min(group, trials - start), n))
            x = np.where(nondescending(x)[:, np.newaxis], x[:, ::-1], x)  # a sorted row, reversed
            running_max = np.maximum.accumulate(x, axis=1)[:, :-1]
            c = np.max(running_max - x[:, 1:], axis=1)  # largest inversion height per vector
            if not np.all(c > 0):
                raise AssertionError("sampler broke its own precondition")
            delta = _random_l1_perturbation(n, np.repeat(c / 4.0, probes), g, len(x) * probes)
            y.append(np.repeat(x, probes, axis=0) + delta)  # a vector's probes are consecutive
        violations += int(np.count_nonzero(boundary_class(np.concatenate(y)) != "exterior"))
    return LemmaCheck(
        name="exterior-openness",
        n=n,
        trials=trials * probes,
        violations=violations,
    )


def _keeps_sorted(x: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """``nondescending(x[:, perms])`` one column pair at a time, each column gathered once."""
    prev = x[:, perms[:, 0]]
    keeps = np.ones(prev.shape, dtype=bool)
    for column in perms.T[1:]:
        cur = x[:, column]
        keeps &= cur >= prev
        prev = cur
    return keeps


def check_interior_order_uniqueness(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """Only the identity keeps a strictly ascending vector non-descending."""
    perms = perm_matrix(n)
    # ascending rows: every step is at least 0.1, far above a rounding error, so none ties
    x = np.cumsum(rng.uniform(0.1, 2.5, size=(trials, n)), axis=1) - 10.0
    violations = 0
    for rows in row_chunks(trials, 8 * 4 * len(perms)):  # keeps, two columns, a comparison
        keeps = _keeps_sorted(x[rows], perms)
        # Column 0 is the identity, since perm_matrix lists its rows in lexicographic order.
        violations += int(np.count_nonzero((keeps.sum(axis=1) != 1) | ~keeps[:, 0]))
    return LemmaCheck(
        name="interior-order-uniqueness",
        n=n,
        trials=trials,
        violations=violations,
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
    # fixes, keeps, two value columns, a label column and a comparison
    for rows in row_chunks(trials, 8 * 6 * len(perms)):
        row_labels = labels[rows]
        fixes = np.ones((len(row_labels), len(perms)), dtype=bool)
        for j, column in enumerate(perms.T):
            fixes &= row_labels[:, column] == row_labels[:, j, np.newaxis]
        violations += int(np.count_nonzero(np.any(_keeps_sorted(x[rows], perms) != fixes, axis=1)))
    return LemmaCheck(
        name="stabilizer-minimality",
        n=n,
        trials=trials,
        violations=violations,
    )


def check_stabilizer_order(n: int, trials: int, rng: np.random.Generator) -> LemmaCheck:
    """The enumerated stabilizer lists the block-factorial product of distinct members, only."""
    perm_matrix(n)  # S_n's table, built once as set-up: the all-equal pattern's stabilizer
    violations = 0
    for partition, ids in _partition_groups(_random_partition_labels(n, trials, rng)).items():
        expected = math.prod(math.factorial(len(b)) for b in partition.blocks)
        stab = stabilizer_of(partition)
        table, labels = stab._table(), stab.labels
        # the rows that are permutations keeping every index in its block, a slice at a
        # time, each keyed by its value as n base-n digits
        keys, count = np.empty(len(table), dtype=np.intp), 0
        for rows in row_chunks(len(table), 8 * 8 * n):
            members = table[rows][np.all(np.sort(table[rows]) == np.arange(n), axis=1)]
            members = members[np.all(labels[members] == labels, axis=1)]
            keys[count : count + len(members)] = (members * n ** np.arange(n)).sum(axis=1)
            count += len(members)
        keys = np.sort(keys[:count])
        distinct = count and 1 + np.count_nonzero(keys[1:] != keys[:-1])
        if not len(table) == distinct == expected:
            violations += ids.size
    return LemmaCheck(
        name="stabilizer-order",
        n=n,
        trials=trials,
        violations=violations,
    )


def _min_block_cost(values: np.ndarray) -> np.ndarray:
    """Each row's min over c of sum |v - c|, for a ``(B, k)`` batch of blocks.

    The cost is convex and piecewise linear in c, with its kinks at the
    row's own values, so one of them attains the minimum.
    """
    return np.abs(values[:, :, None] - values[:, None]).sum(axis=1).min(axis=1)


def check_diagonal_distance_closed_form(
    n: int, trials: int, rng: np.random.Generator
) -> LemmaCheck:
    """Closed-form distance to a diagonal set vs each block's exact minimum."""
    groups = _partition_groups(_random_partition_labels(n, trials, rng))
    x = rng.uniform(-10.0, 10.0, size=(trials, n))
    violations = 0
    for partition, ids in groups.items():
        exact = sum(_min_block_cost(x[np.ix_(ids, block)]) for block in partition.blocks)
        gap = np.abs(dist_to_diagonal(x[ids], partition) - exact)
        violations += int(np.count_nonzero(gap > 1e-9))
    return LemmaCheck(
        name="diagonal-distance-closed-form",
        n=n,
        trials=trials,
        violations=violations,
    )


def run_lemma_suite(
    n_values: Iterable[int] = (2, 3, 4, 5, 6),
    trials: int = 500,
    seed: int | None = 0,
) -> list[LemmaCheck]:
    """Run every check at every requested tuple size, deterministically.

    Each check draws from its own generator, spawned from ``seed``, so no
    check's samples depend on how much another one drew.  The
    diagonal-distance closed-form check runs min(trials, 50) trials per n.
    """
    if isinstance(n_values, range) and n_values[BRUTE_FORCE_CAP:]:
        # Too many sizes to all run, so its least or its largest is refused below: keep its ends.
        n_values = (n_values[0], n_values[-1])
    try:
        n_values = sorted(set(as_count(n, "n", 2) for n in n_values))
    except TypeError:  # not iterable
        raise InputError(f"n_values must be a sequence of tuple sizes, got {n_values!r}") from None
    if not n_values:
        raise InputError("need at least one tuple size")
    trials = as_count(trials, "trials", 1)
    rng = np.random.default_rng(None if seed is None else as_count(seed, "seed", 0))
    perm_matrix(n_values[-1])  # refuses a size past the brute-force cap before any check runs
    results: list[LemmaCheck] = []
    for n in n_values:
        g = rng.spawn(7)
        results.append(check_displacement_bound(n, trials, g[0]))
        results.append(check_exterior_openness(n, trials, g[1]))
        results.append(check_interior_order_uniqueness(n, trials, g[2]))
        results.append(check_boundary_has_ties(n, trials, g[3]))
        results.append(check_stabilizer_minimality(n, trials, g[4]))
        results.append(check_stabilizer_order(n, trials, g[5]))
        results.append(check_diagonal_distance_closed_form(n, min(trials, 50), g[6]))
    return results


def all_passed(results: Sequence[LemmaCheck]) -> bool:
    return all(r.passed for r in results)


__all__ = [
    "LemmaCheck",
    "all_passed",
    "run_lemma_suite",
]
