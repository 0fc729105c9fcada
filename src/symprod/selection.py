"""Sorting as a continuous selection of unordered tuples.

``canonicalize`` sends a multiset of reals to its unique non-descending
representative.  Applied pointwise to a field of unordered tuples (a
sampled map from R^m into the quotient space), it produces an ordered
field whose class at every point equals the input class.  The selection
is an isometry between the quotient metric and the plain 1-norm, which
``continuity_report`` checks over all edges of a sampled field at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _asarray, as_array, as_count, nondescending, row_chunks
from .errors import InputError, InvariantViolation
from .metric import _OVERFLOW, UnorderedTuple
# perfbench/tracer.py patches this name; ROADMAP item 1b drops the import.
from .metric import dist_sorted  # noqa: F401

# Lifted values of two samples in the same class must coincide to this level.
EQUAL_CLASS_TOL = 1e-12


def canonicalize(values) -> np.ndarray:
    """The unique non-descendingly sorted representative of a multiset.

    Accepts an UnorderedTuple or any ordering of the components; idempotent
    and multiset-preserving.
    """
    return np.sort(as_array(values.canonical if isinstance(values, UnorderedTuple) else values))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is read-only and owns its data (a field's own), else a read-only copy."""
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _as_points(points) -> np.ndarray:
    """Sample locations as a read-only (N, m) float64 array; a 1-D list is N points of R^1."""
    pts = as_array(points, ranks=(1, 2), name="points")
    return _read_only(pts[:, np.newaxis] if pts.ndim == 1 else pts)


def _as_rows(values, count: int) -> np.ndarray:
    """Validate per-sample tuples as a read-only (N, n) float64 array, N = count."""
    rows = as_array(values, ranks=(2,), name="tuple values")
    if rows.shape[0] != count:
        raise InputError(f"{count} points against {rows.shape[0]} tuples")
    return _read_only(rows)


def _check_adjacency(adjacency, count: int) -> np.ndarray:
    """Edges as a read-only (E, 2) intp array of indices below ``count``; no edges is (0, 2)."""
    edges = _asarray(adjacency, "adjacency must be an (E, 2) array of sample indices")
    if edges.ndim == 1 and edges.size == 0:
        edges = np.empty((0, 2), dtype=np.intp)
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        raise InputError(
            f"adjacency must be an (E, 2) array of integer sample indices, "
            f"got shape {edges.shape} of {edges.dtype}"
        )
    outside = ((edges < 0) | (edges >= count)).any(axis=1)
    if outside.any():
        a, b = edges[np.argmax(outside)].tolist()
        raise InputError(f"adjacency edge {(a, b)} out of range for {count} samples")
    return _read_only(edges.astype(np.intp, copy=False))


def path_adjacency(count: int) -> np.ndarray:
    """Consecutive samples are neighbors: the read-only (count - 1, 2) edges (i, i + 1)."""
    index = np.arange(as_count(count, "count", 1), dtype=np.intp)
    edges = np.stack((index[:-1], index[1:]), axis=1)
    edges.setflags(write=False)
    return edges


@dataclass(frozen=True, eq=False)
class SampledField:
    """A quotient-space-valued map sampled on finitely many points of R^m.

    ``points`` is an (N, m) array, ``values`` an (N, n) array whose row i is
    the unordered tuple at point i, in the order given; both are read-only
    copies, never the caller's writable array.  ``adjacency`` declares which
    samples count as neighbors (grid edges, consecutive path points, ...),
    as a read-only (E, 2) intp array of sample indices.  Fields compare and
    hash by identity.
    """

    points: np.ndarray
    values: np.ndarray
    adjacency: np.ndarray

    def __post_init__(self):
        points = _as_points(self.points)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", _as_rows(self.values, points.shape[0]))
        object.__setattr__(self, "adjacency", _check_adjacency(self.adjacency, points.shape[0]))

    @classmethod
    def path(cls, points, values) -> "SampledField":
        """Build a field whose samples form a path in sample order."""
        points = _as_points(points)
        return cls(points=points, values=values, adjacency=path_adjacency(points.shape[0]))


class LiftedField(SampledField):
    """An ordered-representative field: a sampled field whose rows are sorted."""

    def __post_init__(self):
        super().__post_init__()
        if not nondescending(self.values).all():
            raise InputError("lifted values must be non-descending rows")


def lift_field(field: SampledField) -> LiftedField:
    """Apply ``canonicalize`` to every row; classes are preserved at every point.

    The lifted field shares the source's read-only points and adjacency
    arrays; only the sorted rows are new.
    """
    values = np.sort(field.values, axis=1)
    values.setflags(write=False)
    return LiftedField(points=field.points, values=values, adjacency=field.adjacency)


@dataclass(frozen=True)
class ContinuityReport:
    """Worst ratio of lifted movement to quotient distance over field edges.

    Edges whose endpoint classes coincide exactly are checked against
    EQUAL_CLASS_TOL and excluded from the ratio.  ``max_ratio`` is 1.0 by
    convention when every edge falls in that branch.
    """

    max_ratio: float
    worst_edge: tuple[int, int] | None
    ratio_edges: int
    zero_edges: int


def continuity_report(lifted: LiftedField, field: SampledField) -> ContinuityReport:
    """Compare lifted 1-norm steps with quotient distances along adjacency.

    For the sorted selection both sides agree exactly, so ``max_ratio`` must
    come out as 1 (the acceptance suite pins the tolerance).  A zero-distance
    edge with differing lifted values is impossible by construction and
    raises InvariantViolation.  An edge whose distance overflows float64
    raises InputError, as ``dist`` does.
    """
    if not np.array_equal(lifted.adjacency, field.adjacency):
        raise InputError("mismatched fields: adjacency differs")
    if not np.array_equal(lifted.points, field.points):
        raise InputError("mismatched fields: sample points differ")

    edges = field.adjacency
    moved, d = np.empty(len(edges)), np.empty(len(edges))
    with np.errstate(over="ignore"):  # an overflowed edge sum is inf, refused below
        # Two endpoint gathers and their difference per slice of edges
        for rows in row_chunks(len(edges), 8 * 3 * field.values.shape[1]):
            a, b = edges[rows, 0], edges[rows, 1]
            moved[rows] = np.abs(lifted.values[a] - lifted.values[b]).sum(axis=1)
            # The quotient distance by its own route: sort the field's rows as
            # given (dist_sorted's arithmetic), never reusing the lifted array.
            d[rows] = np.abs(np.sort(field.values[a], axis=1)
                             - np.sort(field.values[b], axis=1)).sum(axis=1)
    if not np.isfinite(d).all():  # finite values near the float limit, as dist refuses them
        i = int(np.argmax(~np.isfinite(d)))
        raise InputError(f"edge {tuple(edges[i].tolist())}: {_OVERFLOW}")
    zero = d == 0.0
    broken = zero & (moved > EQUAL_CLASS_TOL)
    if broken.any():
        i = int(np.argmax(broken))
        raise InvariantViolation(
            f"edge {tuple(field.adjacency[i].tolist())}: equal classes lifted {moved[i]:.3e} apart"
        )
    zero_edges = int(zero.sum())
    ratio_index = np.flatnonzero(~zero)
    if ratio_index.size == 0:
        return ContinuityReport(1.0, None, 0, zero_edges)
    ratios = moved[ratio_index] / d[ratio_index]
    worst = int(np.argmax(ratios))  # first maximum, as in adjacency order
    worst_edge = tuple(field.adjacency[ratio_index[worst]].tolist())
    return ContinuityReport(float(ratios[worst]), worst_edge, ratio_index.size, zero_edges)


__all__ = [
    "ContinuityReport",
    "LiftedField",
    "SampledField",
    "canonicalize",
    "continuity_report",
    "lift_field",
    "path_adjacency",
]
