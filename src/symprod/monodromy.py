"""Component tracking around loops of unordered complex tuples.

Over the reals, sorting selects one representative per class continuously.
Over the complex numbers no such selection exists, and this module shows
why constructively: follow each component of an unordered tuple around a
closed loop by minimal-cost matching between consecutive samples, and the
components may come back permuted.  A nontrivial composite permutation
(holonomy) rules out any continuous labeling along that loop.

Tracking accepts a step only when its optimal cost C is below half the
minimal intra-tuple gap; then every component's unique optimal partner is
its nearest neighbour (all others are more than gap - C > gap/2 away), so
one vectorised nearest-neighbour pass over all steps is exact.

The stock example is the set of k-th roots of a point circling the origin:
one turn of the base point multiplies the composite by a k-cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BRUTE_FORCE_CAP, CHUNK_ELEMENTS, Perm, as_array, compose, identity_perm
from .errors import InputError, UndersampledLoopError
from .metric import Distance, dist_assignment, dist_bruteforce


@dataclass(frozen=True)
class ComplexLoop:
    """A closed path of unordered complex tuples, sampled discretely.

    ``samples[j]`` holds the tuple at loop parameter j/step_count of a full
    turn; the edge from the last sample back to sample 0 closes the loop.
    Component order within each sample is arbitrary but fixed by storage.
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = as_array(self.samples, dtype=complex, ranks=(2,), name="loop samples")
        if arr.shape[0] < 2:
            raise InputError(f"loop samples must have steps >= 2 rows, got shape {arr.shape}")
        object.__setattr__(self, "samples", arr)

    @property
    def step_count(self) -> int:
        return self.samples.shape[0]

    @property
    def tuple_n(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class Holonomy:
    """Composite relabeling after one full loop, plus the summed matching cost.

    A component stored at index j in sample 0 returns to index
    ``permutation[j]`` after the loop.  Identity holonomy on every loop is
    what a continuous selection would require.  ``margin`` is the worst
    step cost divided by half the minimal intra-tuple gap, attained at step
    ``worst_step``; it is below 1 on every tracked loop.
    """

    permutation: Perm
    total_path_cost: float
    margin: float
    worst_step: int

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.permutation))


def min_intra_gap(samples) -> float:
    """Smallest pairwise distance between components within any one sample."""
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    n = arr.shape[1]
    if n < 2:
        return math.inf
    rows = max(1, CHUNK_ELEMENTS // n)
    column_gaps = [  # component j against every later one, over a chunk of samples
        np.abs(arr[a : a + rows, j, np.newaxis] - arr[a : a + rows, j + 1 :]).min()
        for a in range(0, arr.shape[0], rows)
        for j in range(n - 1)
    ]
    return float(np.min(column_gaps))


def _match(prev: np.ndarray, next_: np.ndarray) -> Distance:
    if prev.size <= BRUTE_FORCE_CAP:
        return dist_bruteforce(prev, next_)  # lexicographically smallest minimizer
    return dist_assignment(prev, next_)


def match_step(prev, next_) -> Perm:
    """Minimal-cost matching of one tuple's components onto the next.

    The component at index j of ``prev`` continues at index ``perm[j]`` of
    ``next_``.  Ties break to the lexicographically smallest permutation for
    n <= 8 and are solver-deterministic above.
    """
    prev = as_array(prev, dtype=complex, name="prev")
    next_ = as_array(next_, dtype=complex, name="next")
    if prev.size != next_.size:
        raise InputError(f"dimension mismatch: {prev.size} vs {next_.size}")
    return _match(prev, next_).attaining_perm


def track_loop(loop: ComplexLoop) -> Holonomy:
    """Compose matchings around the loop, wrap-around edge included.

    Tracking is only trustworthy when consecutive samples move less than
    half the smallest intra-tuple gap (then the minimal matching is the one
    a continuous motion would realize); anything else raises
    UndersampledLoopError with a suggested step count.  Below that bound a
    step's nearest-neighbour map is its unique minimal matching, and its cost
    sum bounds the minimal cost from below, so a step is accepted exactly
    when that sum is below gap/2.  Such a map is a bijection: two components
    sharing a nearest neighbour are at least gap apart, so they cost >= gap.
    """
    samples = loop.samples
    m, n = samples.shape
    gap = min_intra_gap(samples)
    if gap == 0.0:
        raise UndersampledLoopError(
            "loop has a sample with two equal components; tracking through a "
            "collision is ambiguous at any sampling rate"
        )

    composite = identity_perm(n)
    step_costs = np.empty(m)
    chunk = max(1, CHUNK_ELEMENTS // (n * n))
    for start in range(0, m, chunk):
        steps = np.arange(start, min(start + chunk, m))
        cost = np.abs(samples[steps, :, np.newaxis] - samples[(steps + 1) % m, np.newaxis, :])
        nearest = cost.argmin(axis=2)
        nearest_cost = np.take_along_axis(cost, nearest[:, :, np.newaxis], axis=2)[:, :, 0]
        step_costs[steps] = nearest_cost.sum(axis=1)
        accepted = step_costs[steps] < 0.5 * gap
        if not accepted.all():
            # The first refused step costs at least gap/2, more than any step before it.
            i = int(steps[np.argmin(accepted)])
            step = _match(samples[i], samples[(i + 1) % m])
            suggested = _suggest_steps(m, step.value, gap)
            raise UndersampledLoopError(
                f"undersampled loop: consecutive matching distance {step.value:.6g} "
                f"is not below half the minimal intra-tuple gap ({0.5 * gap:.6g}); "
                f"try about {suggested} steps",
                suggested_steps=suggested,
            )
        composite = compose(_chain(nearest), composite)
    worst_step = int(np.argmax(step_costs))
    return Holonomy(
        permutation=composite,
        # summed in step order, one step at a time
        total_path_cost=float(np.add.accumulate(step_costs)[-1]),
        margin=float(step_costs[worst_step] / (0.5 * gap)),
        worst_step=worst_step,
    )


def _chain(maps: np.ndarray) -> Perm:
    """Composite of the rows of ``maps`` taken in order, the last row acting last."""
    while len(maps) > 1:
        even = len(maps) // 2 * 2
        paired = np.take_along_axis(maps[1:even:2], maps[0:even:2], axis=1)
        maps = np.concatenate([paired, maps[even:]])
    return tuple(int(i) for i in maps[0])


def _suggest_steps(steps: int, worst: float, gap: float) -> int:
    # Consecutive movement shrinks like 1/steps; aim 25% under the threshold.
    factor = worst / (0.5 * gap)
    return int(math.ceil(steps * factor * 1.25)) + 1


def roots_loop_generator(k: int, steps: int, radius: float = 1.0) -> ComplexLoop:
    """Loop of the k-th roots of a point circling the origin once.

    Sample j holds the k complex roots of radius * exp(2*pi*i*j/steps).
    One full turn of the base point advances each root a k-th of a turn,
    so the tracked holonomy is a k-cycle.
    """
    if k < 2:
        raise InputError(f"need k >= 2, got {k}")
    if steps < 2:
        raise InputError(f"need steps >= 2, got {steps}")
    if radius <= 0:
        raise InputError(f"need radius > 0, got {radius}")
    if steps < 8 * k:
        raise UndersampledLoopError(
            f"undersampled loop: {steps} steps for k = {k} roots; need at least {8 * k}",
            suggested_steps=8 * k,
        )
    r = radius ** (1.0 / k)
    j = np.arange(steps)[:, np.newaxis]
    l = np.arange(k)[np.newaxis, :]
    angles = (2.0 * np.pi * j / steps + 2.0 * np.pi * l) / k
    return ComplexLoop(samples=r * np.exp(1j * angles))


def disjoint_cycles(perm: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition; each cycle starts at its smallest element."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        pos = perm[start]
        while pos != start:
            cycle.append(pos)
            seen[pos] = True
            pos = perm[pos]
        cycles.append(tuple(cycle))
    return cycles


def cycle_type(perm: Perm) -> tuple[int, ...]:
    """Cycle lengths in descending order (the conjugacy-class invariant)."""
    return tuple(sorted((len(c) for c in disjoint_cycles(perm)), reverse=True))


def describe_cycles(perm: Perm) -> str:
    """Human-readable cycle structure: "identity", "3-cycle", "(0 1)(2 4 5)", ..."""
    nontrivial = [c for c in disjoint_cycles(perm) if len(c) > 1]
    if not nontrivial:
        return "identity"
    notation = "".join("(" + " ".join(str(i) for i in c) + ")" for c in nontrivial)
    if len(nontrivial) == 1:
        return f"{len(nontrivial[0])}-cycle {notation}"
    return f"cycle type {cycle_type(perm)} {notation}"


__all__ = [
    "ComplexLoop",
    "Holonomy",
    "cycle_type",
    "describe_cycles",
    "disjoint_cycles",
    "match_step",
    "min_intra_gap",
    "roots_loop_generator",
    "track_loop",
]
