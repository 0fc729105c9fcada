"""Coincidence patterns of tuple components and their permutation stabilizers.

A *block partition* lists disjoint index blocks, each of size >= 2.  It
describes the set of vectors whose components agree within every block
(a "diagonal" set).  This module computes, for such patterns:

- the partition of near-equal components of a concrete vector,
- the subgroup of permutations fixing every vector with that pattern,
- the 1-norm distance from a vector to the diagonal set (closed form),
- order classification of a vector relative to the sorted cone.

Pure functions on immutable values throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import (
    STABILIZER_ORDER_CAP,
    Perm,
    as_array,
    as_count,
    as_perm,
    nondescending,
    perm_matrix,
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
        object.__setattr__(self, "n", as_count(self.n, "n", 1))
        try:
            blocks = [tuple(sorted(as_count(i, "block index", 0) for i in b)) for b in self.blocks]
        except TypeError:  # the blocks, or one of them, not iterable
            raise InputError(f"blocks must be sequences of indices, got {self.blocks!r}") from None
        seen: set[int] = set()
        for ids in blocks:
            if len(ids) < 2:
                raise InputError(f"block {ids} has size < 2")
            if len(set(ids)) != len(ids):
                raise InputError(f"block {ids} repeats an index")
            if ids[-1] >= self.n:
                raise InputError(f"block {ids} out of range for n = {self.n}")
            if seen & set(ids):
                raise InputError("blocks are not pairwise disjoint")
            seen.update(ids)
        object.__setattr__(self, "blocks", tuple(sorted(blocks)))


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
        labels = self.labels
        try:
            p = as_perm(perm, labels.size)
        except InputError:
            return False
        return bool(np.array_equal(labels[p], labels))

    def _table(self) -> np.ndarray:
        """The elements as sorted rows of a read-only ``(order, n)`` array; raises past the cap."""
        order, cap = self.order, STABILIZER_ORDER_CAP
        if order > cap:
            raise CapExceededError(f"stabilizer order {order} exceeds enumeration cap {cap}")
        n, blocks = self.partition.n, self.partition.blocks
        if order == math.factorial(n):  # all of S_n: perm_matrix's own cached, lexicographic table
            return perm_matrix(n)
        # One axis per block, so an element is one choice of permutation along each axis.
        sizes = [math.factorial(len(block)) for block in blocks]
        table = np.full((*sizes, n), np.arange(n))
        for axis, block in enumerate(blocks):  # the block's permutations, laid along its axis
            shape = [1] * len(blocks) + [len(block)]
            shape[axis] = sizes[axis]
            table[..., list(block)] = np.asarray(block)[perm_matrix(len(block))].reshape(shape)
        table = table.reshape(order, n)
        table = table[np.lexsort(table.T[::-1])]
        table.setflags(write=False)
        return table

    @property
    def elements(self) -> tuple[Perm, ...]:
        """Every element, lexicographically sorted; raises past the enumeration cap."""
        return tuple(map(tuple, self._table().tolist()))


def equality_partition(x, tol: float = 0.0) -> BlockPartition | np.ndarray:
    """Group indices whose components coincide within ``tol``.

    Indices j, k land in the same block iff |x[j] - x[k]| <= tol, closed
    transitively.  On the real line that closure is exactly the runs of the
    sorted components whose consecutive gaps are <= tol, because float
    subtraction is monotone.  Blocks of size 1 are omitted; an all-distinct
    vector yields an empty block list.

    A ``(B, n)`` batch gives ``(B, n)`` labels instead, row by row in the
    ``Stabilizer.labels`` convention: the smallest index of each index's
    block, or the index itself.  Both forms cut the same sorted runs.
    """
    x = as_array(x, ranks=(1, 2))
    if not (isinstance(tol, numbers.Real) and tol >= 0):  # NaN and non-numbers fail too
        raise InputError(f"tolerance must be a nonnegative number, got {tol!r}")
    rows = np.atleast_2d(x)  # a vector is the batch of one
    order = np.argsort(rows, axis=1, kind="stable")
    ascending = np.sort(rows, axis=1)
    starts = np.ones(rows.shape, dtype=bool)  # where a run of a sorted row begins
    starts[:, 1:] = ascending[:, 1:] - ascending[:, :-1] > tol
    smallest = np.minimum.reduceat(order.ravel(), np.flatnonzero(starts))  # per run
    labels = np.empty_like(order)
    np.put_along_axis(labels, order, smallest[np.cumsum(starts).reshape(rows.shape) - 1], axis=1)
    return labels if x.ndim == 2 else _partition_of_labels(labels[0])


def _partition_of_labels(labels) -> BlockPartition:
    """The partition whose ``Stabilizer.labels`` are ``labels``: equal labels make a block."""
    blocks: dict = {}
    for i, label in enumerate(np.asarray(labels).tolist()):
        blocks.setdefault(label, []).append(i)
    return BlockPartition(tuple(b for b in blocks.values() if len(b) >= 2), len(labels))


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
    classes = np.where(
        ~nondescending(x),
        "exterior",
        np.where(np.any(x[..., 1:] == x[..., :-1], axis=-1), "boundary", "interior"),
    )
    return str(classes) if x.ndim == 1 else classes


__all__ = [
    "BlockPartition",
    "Stabilizer",
    "boundary_class",
    "dist_to_diagonal",
    "equality_partition",
    "nearest_diagonal_point",
    "stabilizer_of",
]
