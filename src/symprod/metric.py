"""The matching distance on unordered n-tuples, with three engines.

A point of the quotient space is a size-n multiset of reals.  The distance
between two multisets is the minimum over all pairings of the summed
absolute differences, i.e. a minimal-cost linear assignment under the
1-norm.  Three interchangeable engines compute it:

- ``dist_bruteforce``: enumerate all n! pairings (the oracle, n <= 8);
- ``dist_sorted``: pair sorted order statistics (real tuples, any n);
- ``dist_assignment``: an O(n^3) assignment solver (real or complex).

All engines return identical values on common ground; the test suite
cross-validates them.  Everything here is pure and allocates per call,
so concurrent use is safe; two threads racing the first assignment call at
worst each load scipy's solver module once, with the same result.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .core import Perm, as_array, perm_matrix
from .errors import InputError


def l1_norm(x) -> float:
    """Sum of absolute values of the components; inf entries sum to inf."""
    try:
        x = np.asarray(x)
    except (TypeError, ValueError) as exc:  # ragged input
        raise InputError(f"l1_norm needs an array of numbers: {exc}") from None
    if x.dtype.kind not in "biufc":
        raise InputError(f"l1_norm needs numbers, got dtype {x.dtype}")
    if x.dtype.kind in "biu":  # in their own dtype, abs and sum would wrap around
        x = x.astype(np.float64)
    with np.errstate(over="ignore"):  # components too large to sum, or a huge modulus, give inf
        return float(np.abs(x).sum())


class UnorderedTuple:
    """An unordered n-tuple of reals, stored as its sorted representative.

    Construction from any reordering of the same multiset yields the same
    canonical value, so equality and hashing are well-defined on classes.
    """

    __slots__ = ("_canonical",)

    def __init__(self, values):
        arr = np.sort(as_array(values))
        arr.setflags(write=False)
        self._canonical = arr

    @property
    def canonical(self) -> np.ndarray:
        """The non-descendingly sorted representative (read-only array)."""
        return self._canonical

    @property
    def n(self) -> int:
        return self._canonical.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnorderedTuple):
            return NotImplemented
        return self._canonical.shape == other._canonical.shape and bool(
            np.all(self._canonical == other._canonical)
        )

    def __hash__(self) -> int:
        return hash(self._canonical.tobytes())

    def __repr__(self) -> str:
        inner = ", ".join(repr(float(v)) for v in self._canonical)
        return f"UnorderedTuple([{inner}])"


@dataclass(frozen=True)
class Distance:
    """A distance value, one pairing that attains it, and the engine used.

    ``attaining_perm`` is the permutation p with
    ``value == l1_norm(y - apply_perm(p, z))``.
    """

    value: float
    attaining_perm: Perm
    engine: str


def _is_complex(values) -> bool:
    """Whether ``values`` holds complex components; unreadable input is left to as_array."""
    if isinstance(values, UnorderedTuple):
        return False
    try:
        return np.iscomplexobj(values)
    except (TypeError, ValueError):  # ragged
        return False


def _coerce_pair(y, z, *, allow_complex: bool):
    dtype = complex if allow_complex and (_is_complex(y) or _is_complex(z)) else float
    ya, za = (
        as_array(v.canonical if isinstance(v, UnorderedTuple) else v, dtype=dtype, name=name)
        for v, name in ((y, "first tuple"), (z, "second tuple"))
    )
    if ya.size != za.size:
        raise InputError(f"dimension mismatch: {ya.size} vs {za.size}")
    return ya, za


_OVERFLOW = "the distance between these tuples overflows float64"


def _finite(value: float) -> float:
    """``value``, or InputError: finite components so far apart that their distance overflows."""
    if not np.isfinite(value):
        raise InputError(_OVERFLOW)
    return value


def dist_bruteforce(y, z) -> Distance:
    """Minimize over all n! pairings explicitly (n <= 8).

    Ties are broken by the lexicographically smallest permutation.  Accepts
    real or complex tuples; costs use the absolute value / modulus.
    """
    y, z = _coerce_pair(y, z, allow_complex=True)
    perms = perm_matrix(y.size)  # refuses n past the brute-force cap
    with np.errstate(over="ignore"):  # an overflowed cost is inf, refused below if minimal
        costs = np.abs(y[np.newaxis, :] - z[perms]).sum(axis=1)
    best = int(np.argmin(costs))  # first minimum = lexicographically smallest
    return Distance(_finite(float(costs[best])), tuple(perms[best].tolist()), "brute")


def _stable_argsort(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")`` of a 1-D array, built from the faster unstable sort.

    The unstable order is right up to the order inside each run of equal
    values; keying each index by (run, index) and sorting the keys puts every
    run in index order.  The keys stay below n**2, exact in int64 for any n
    that fits in memory.
    """
    n = x.size
    order = np.argsort(x)
    ranked = x[order]
    run = np.concatenate(([0], np.cumsum(ranked[1:] != ranked[:-1])))
    return np.sort(run * n + order) % n


def dist_sorted(y, z) -> Distance:
    """Pair the order statistics of two real tuples.

    Sorting both inputs non-descendingly and summing componentwise absolute
    differences attains the minimum over all pairings (components live on
    the real line, so any crossing pairing can be uncrossed without
    increasing cost).  Works at any n; ties follow stable sort order.
    """
    y, z = _coerce_pair(y, z, allow_complex=False)
    order_y = _stable_argsort(y)
    order_z = _stable_argsort(z)
    with np.errstate(over="ignore"):
        value = _finite(float(np.abs(y[order_y] - z[order_z]).sum()))
    # Pair y[order_y[i]] with z[order_z[i]]: the minimizing p has
    # p[order_y[i]] = order_z[i].
    p = np.empty(y.size, dtype=np.intp)
    p[order_y] = order_z
    return Distance(value, tuple(p.tolist()), "sorted")


def _linear_sum_assignment():
    """scipy's compiled assignment solver, loaded without running ``scipy/optimize/__init__.py``.

    ``scipy.optimize._lsap`` is one C extension (Crouse's shortest augmenting
    path, IEEE TAES 2016).  It is loaded under its real name, so a later
    ``import scipy.optimize`` reuses it; a scipy laid out differently falls
    back to the public import.
    """
    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        spec = scipy_spec and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, "optimize") for d in scipy_spec.submodule_search_locations or ()]
        )
        if spec is None:
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        module = importlib.util.module_from_spec(spec)
        # Registered only once executed: no thread sees a half-loaded module,
        # and a failed load leaves none behind.
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.linear_sum_assignment


def dist_assignment(y, z) -> Distance:
    """Solve the pairing as a minimal-cost assignment (real or complex).

    The cost of pairing component j of ``y`` with component k of ``z`` is
    ``abs(y[j] - z[k])``.  Deterministic for a fixed input (single-threaded
    solver), but tie-breaking among equal-cost pairings is solver-defined.
    Only scipy's compiled solver module is loaded, here on first use and by
    no other engine; the rest of ``scipy.optimize`` is not.
    """
    linear_sum_assignment = _linear_sum_assignment()
    y, z = _coerce_pair(y, z, allow_complex=True)
    with np.errstate(over="ignore"):  # the solver avoids inf costs where it can
        cost = np.abs(y[:, np.newaxis] - z[np.newaxis, :])
        try:
            rows, cols = linear_sum_assignment(cost)
        except ValueError:  # "infeasible": every pairing has an overflowed cost
            raise InputError(_OVERFLOW) from None
        value = _finite(float(cost[rows, cols].sum()))
    return Distance(value, tuple(cols.tolist()), "assignment")


_ENGINES = {
    "sorted": dist_sorted,
    "assignment": dist_assignment,
    "brute": dist_bruteforce,
}


def dist(y, z, engine: str = "auto") -> Distance:
    """Distance between two unordered tuples.

    ``engine`` is one of "sorted", "assignment", "brute", or "auto"
    (sorted for real input, assignment for complex).
    """
    if engine == "auto":
        engine = "assignment" if _is_complex(y) or _is_complex(z) else "sorted"
    try:
        fn = _ENGINES[engine]
    except (KeyError, TypeError):  # an unknown name, or an unhashable one
        raise InputError(f"unknown engine {engine!r}; choose from {sorted(_ENGINES)}") from None
    return fn(y, z)


def engine_names() -> list[str]:
    return sorted(_ENGINES)


__all__ = [
    "Distance",
    "UnorderedTuple",
    "dist",
    "dist_assignment",
    "dist_bruteforce",
    "dist_sorted",
    "engine_names",
    "l1_norm",
]
