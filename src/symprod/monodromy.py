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

Most steps need no search at all.  When a step's stored-order cost (each
component against the one stored at its own index next) is below gap/4,
every component's stored partner is within gap/4 and every other point
more than 3*gap/4 away, so the stored order is the nearest-neighbour map.
One O(steps*n) pass certifies those steps; only the rest pay the n x n
search.  On a roots loop that is the wrap-around step alone, where storage
shifts by one root.

The minimal gap that both bounds rest on is found by a sorted sweep, the
strip step of Shamos and Hoey's closest-pair method ("Closest-point
problems", FOCS 1975): it compares only the component pairs that could beat
the best distance so far, and returns the all-pairs minimum exactly.

The stock example is the set of k-th roots of a point circling the origin:
one turn of the base point multiplies the composite by a k-cycle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import BRUTE_FORCE_CAP, Perm, as_array, as_count, as_perm, compose, row_chunks
from .errors import InputError, UndersampledLoopError
from .metric import dist_assignment, dist_bruteforce


@dataclass(frozen=True, eq=False)
class ComplexLoop:
    """A closed path of unordered complex tuples, sampled discretely.

    ``samples[j]`` holds the tuple at loop parameter j/step_count of a full
    turn; the edge from the last sample back to sample 0 closes the loop.
    Component order within each sample is arbitrary but fixed by storage.
    Loops compare and hash by identity.
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


@np.errstate(over="ignore")
def min_intra_gap(samples) -> float:
    """Smallest pairwise distance between components within any one sample; inf past float range.

    A sorted sweep: each sample is sorted by its wider-spread coordinate, and
    components d places apart (d = 1, 2, ...) are compared only where that
    coordinate differs by less than the best distance so far.  The coordinate
    difference is exactly one part of the ``a - b`` whose modulus ``np.abs``
    takes, and a modulus is never below either part, so every skipped pair is
    at least the best; differences grow with d, so the first offset with no
    such pair ends the sweep.  The result is the all-pairs minimum, bit for bit.
    """
    arr = np.atleast_2d(as_array(samples, dtype=complex, ranks=(1, 2), name="samples"))
    n = arr.shape[1]
    best = math.inf
    # A thirty-second of a chunk of samples at a time, since the sweep makes about
    # a dozen sorted copies, masks and differences of them.
    for rows in row_chunks(arr.shape[0], 32 * n):
        chunk = arr[rows]
        by_imag = np.ptp(chunk.imag, axis=1) > np.ptp(chunk.real, axis=1)
        key = np.where(by_imag[:, np.newaxis], chunk.imag, chunk.real)
        order = np.argsort(key, axis=1)
        key = np.take_along_axis(key, order, axis=1)
        chunk = np.take_along_axis(chunk, order, axis=1)
        for d in range(1, n):
            near = key[:, d:] - key[:, :-d] < best
            if not near.any():
                break
            best = min(best, float(np.abs(chunk[:, d:][near] - chunk[:, :-d][near]).min()))
    return best


@np.errstate(over="ignore")  # an overflowed cost is inf: searched, then refused
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

    A step whose stored-order cost is below gap/4 is certified without a
    search: its stored order is the nearest-neighbour map, with the same
    costs.  Float subtraction errs relative to its result, so rounding
    cannot close the 3x gap between a stored partner (< gap/4) and any other
    point (> 3*gap/4).  Tracking is O(steps*n) when storage follows the motion.
    """
    samples = loop.samples
    m, n = samples.shape
    gap = min_intra_gap(samples)
    if gap == 0.0:
        raise UndersampledLoopError(
            "loop has a sample with two equal components; tracking through a "
            "collision is ambiguous at any sampling rate"
        )

    composite = tuple(range(n))
    # Stored-order costs, summed as the search sums a step's nearest costs.
    step_costs = np.empty(m)
    step_costs[:-1] = np.abs(samples[:-1] - samples[1:]).sum(axis=1)
    step_costs[-1] = np.abs(samples[-1] - samples[0]).sum()
    searched = np.flatnonzero(~(step_costs < 0.25 * gap))  # "not <" also searches a nan
    for rows in row_chunks(searched.size, n * n):
        steps = searched[rows]
        cost = np.abs(samples[steps, :, np.newaxis] - samples[(steps + 1) % m, np.newaxis, :])
        nearest = cost.argmin(axis=2)
        step_costs[steps] = np.take_along_axis(cost, nearest[..., np.newaxis], 2)[..., 0].sum(1)
        accepted = step_costs[steps] < 0.5 * gap
        if not accepted.all():
            # The first refused step costs at least gap/2, more than any step before
            # it; a certified step costs less than gap/4, so none is refused.
            i = int(steps[np.argmin(accepted)])
            match = dist_bruteforce if n <= BRUTE_FORCE_CAP else dist_assignment
            step = match(samples[i], samples[(i + 1) % m])
            suggested = _suggest_steps(m, step.value, gap)
            raise UndersampledLoopError(
                f"undersampled loop: consecutive matching distance {step.value:.6g} "
                f"is not below half the minimal intra-tuple gap ({0.5 * gap:.6g}); "
                + (f"try about {suggested} steps" if suggested else "no step count will do"),
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


def _suggest_steps(steps: int, worst: float, gap: float) -> int | None:
    # Consecutive movement shrinks like 1/steps; aim 25% under the threshold.
    # None when the gap is too small for any float count of steps to do.
    target = steps * (worst / (0.5 * gap)) * 1.25 if 0.5 * gap > 0.0 else math.inf
    return int(math.ceil(target)) + 1 if math.isfinite(target) else None


def roots_loop_generator(k: int, steps: int, radius: float = 1.0) -> ComplexLoop:
    """Loop of the k-th roots of a point circling the origin once.

    Sample j holds the k complex roots of radius * exp(2*pi*i*j/steps).
    One full turn of the base point advances each root a k-th of a turn,
    so the tracked holonomy is a k-cycle.
    """
    k = as_count(k, "k", 2)
    steps = as_count(steps, "steps", 2)
    if not (isinstance(radius, numbers.Real) and 0 < radius < math.inf):  # NaN fails too
        raise InputError(f"need a finite radius > 0, got {radius!r}")
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
    perm = as_perm(perm).tolist()
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
    "min_intra_gap",
    "roots_loop_generator",
    "track_loop",
]
