"""Coincidence patterns of tuple components and their permutation stabilizers.

A *block partition* lists disjoint index blocks, each of size >= 2.  It
describes the set of vectors whose components agree within every block
(a "diagonal" set).  This module computes, for such patterns:

- the partition of near-equal components of a concrete vector,
- the subgroup of permutations fixing every vector with that pattern,
- the 1-norm distance from a vector to the diagonal set (closed form),
- how far a permutation moves a vector,
- order classification of a vector relative to the sorted cone.

Pure functions on immutable values throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import (
    STABILIZER_ORDER_CAP,
    Perm,
    apply_perm,
    as_array,
    is_perm,
)
from .errors import CapExceededError, InputError


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint index blocks over range(n), every block of size >= 2.

    An empty block list is allowed and describes the whole space (no
    coincidence constraints).  Indices are 0-based.
    """

    blocks: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"need n >= 1, got n = {self.n}")
        seen: set[int] = set()
        normalized = []
        for block in self.blocks:
            ids = tuple(sorted(int(i) for i in block))
            if len(ids) < 2:
                raise InputError(f"block {ids} has size < 2")
            if len(set(ids)) != len(ids):
                raise InputError(f"block {ids} repeats an index")
            if ids[0] < 0 or ids[-1] >= self.n:
                raise InputError(f"block {ids} out of range for n = {self.n}")
            if seen & set(ids):
                raise InputError("blocks are not pairwise disjoint")
            seen.update(ids)
            normalized.append(ids)
        normalized.sort()
        object.__setattr__(self, "blocks", tuple(normalized))

    @property
    def constrained(self) -> frozenset[int]:
        """Indices that belong to some block."""
        return frozenset(i for block in self.blocks for i in block)


@dataclass(frozen=True)
class Stabilizer:
    """The permutations fixing every vector of a diagonal set pointwise.

    Exactly the permutations shuffling indices within blocks and fixing
    everything else, so the group is kept as its partition: the order is the
    product of the block factorials, membership is one O(n) label test, and
    the elements are enumerated only when asked for.
    """

    partition: BlockPartition

    @property
    def order(self) -> int:
        return math.prod(math.factorial(len(b)) for b in self.partition.blocks)

    @property
    def labels(self) -> np.ndarray:
        """labels[i]: the smallest index of i's block, or i if i is in no block."""
        labels = np.arange(self.partition.n)
        for block in self.partition.blocks:
            labels[list(block)] = block[0]
        return labels

    def __contains__(self, perm) -> bool:
        labels, p = self.labels, np.asarray(perm)
        if p.shape != labels.shape or p.dtype.kind not in "biuf" or not is_perm(p.tolist()):
            return False
        return bool(np.array_equal(labels[p.astype(np.intp)], labels))

    @property
    def elements(self) -> tuple[Perm, ...]:
        """Every element, lexicographically sorted; raises past the enumeration cap."""
        order, cap = self.order, STABILIZER_ORDER_CAP
        if order > cap:
            raise CapExceededError(f"stabilizer order {order} exceeds enumeration cap {cap}")
        blocks = self.partition.blocks
        positions = [i for block in blocks for i in block]
        elements = []
        for choice in itertools.product(*map(itertools.permutations, blocks)):
            word = list(range(self.partition.n))
            for pos, img in zip(positions, itertools.chain(*choice)):
                word[pos] = img
            elements.append(tuple(word))
        return tuple(sorted(elements))


def equality_partition(x, tol: float = 0.0) -> BlockPartition:
    """Group indices whose components coincide within ``tol``.

    Indices j, k land in the same block iff |x[j] - x[k]| <= tol, closed
    transitively.  On the real line that closure is exactly the runs of the
    sorted components whose consecutive gaps are <= tol, because float
    subtraction is monotone.  Blocks of size 1 are omitted; an all-distinct
    vector yields an empty block list.
    """
    x = as_array(x)
    if tol < 0:
        raise InputError(f"tolerance must be nonnegative, got {tol}")
    order = np.argsort(x, kind="stable")
    cuts = np.flatnonzero(~(np.diff(x[order]) <= tol)) + 1  # "not <=" also cuts at tol = nan
    bounds = [0, *cuts.tolist(), x.size]
    order = order.tolist()
    blocks = tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]) if b - a >= 2)
    return BlockPartition(blocks=blocks, n=x.size)


def stabilizer_of(partition: BlockPartition) -> Stabilizer:
    """The subgroup fixing the partition's diagonal set, kept as its blocks (never enumerated)."""
    return Stabilizer(partition)


def nearest_diagonal_point(x, partition: BlockPartition) -> np.ndarray:
    """A closest point (1-norm) of the diagonal set to ``x``, or to each row of a batch.

    ``x`` is one vector or a ``(B, n)`` batch, all against the one partition;
    a vector is the batch of one.  Within each block the optimal common value
    is a median of the block's components; the lower median is returned for
    determinism (the distance itself is unaffected by the choice).
    Unconstrained components stay.
    """
    x = as_array(x, ranks=(1, 2))
    if partition.n != x.shape[-1]:
        raise InputError(f"partition over n = {partition.n} against tuple of size {x.shape[-1]}")
    y = x.copy()
    for block in partition.blocks:
        values = np.sort(x[..., list(block)], axis=-1)
        y[..., list(block)] = values[..., (len(block) - 1) // 2, np.newaxis]
    return y


def dist_to_diagonal(x, partition: BlockPartition) -> float | np.ndarray:
    """1-norm distance from ``x`` to the partition's diagonal set, in closed form.

    A float for one vector, a ``(B,)`` array for a ``(B, n)`` batch.
    """
    x = as_array(x, ranks=(1, 2))
    d = np.abs(x - nearest_diagonal_point(x, partition)).sum(axis=-1)
    return float(d) if x.ndim == 1 else d


def perm_displacement(x, perm: Sequence[int]) -> float:
    """How far ``perm`` moves ``x``: the 1-norm of ``apply_perm(perm, x) - x``."""
    x = as_array(x)
    return float(np.abs(apply_perm(perm, x) - x).sum())


def is_nondescending(x) -> bool:
    """True iff x[0] <= x[1] <= ... <= x[n-1] (exact comparison)."""
    x = as_array(x)
    return bool(np.all(np.diff(x) >= 0))


BoundaryClass = Literal["interior", "boundary", "exterior"]


def boundary_class(x) -> BoundaryClass | np.ndarray:
    """Position of ``x`` relative to the cone of non-descending vectors.

    "interior": strictly ascending; "boundary": non-descending with at
    least one tie; "exterior": not non-descending.  Comparisons are exact:
    the classification describes the vector as given, not measurement noise.
    One vector gives its class; a ``(B, n)`` batch gives a ``(B,)`` array of
    class names, one per row.
    """
    x = as_array(x, ranks=(1, 2))
    diffs = np.diff(x, axis=-1)
    classes = np.where(
        np.any(diffs < 0, axis=-1),
        "exterior",
        np.where(np.any(diffs == 0, axis=-1), "boundary", "interior"),
    )
    return str(classes) if x.ndim == 1 else classes


__all__ = [
    "BlockPartition",
    "Stabilizer",
    "boundary_class",
    "dist_to_diagonal",
    "equality_partition",
    "is_nondescending",
    "nearest_diagonal_point",
    "perm_displacement",
    "stabilizer_of",
]
