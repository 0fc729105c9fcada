"""Permutations and tuple arithmetic shared by every other module.

Permutations are stored in 0-based word (one-line) notation: the tuple
``p`` represents the bijection ``i -> p[i]`` on ``range(n)``.  Applying a
permutation to a vector places component ``p[k]`` at position ``k``:

>>> apply_perm((1, 0), (3.0, 7.0))
array([7., 3.])

All operations here are pure functions on immutable values; there is no
shared mutable state, so everything is safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import CapExceededError, InputError

Perm = tuple[int, ...]

# Largest n for which we enumerate all n! permutations (8! = 40320).
BRUTE_FORCE_CAP = 8

# Largest group order we materialize as an explicit element list.
STABILIZER_ORDER_CAP = math.factorial(BRUTE_FORCE_CAP)

# Array elements a batched pass holds per chunk of samples or trials (at least
# one sample's worth), so its memory does not grow with the sample count.
CHUNK_ELEMENTS = 1 << 20


def as_array(values, *, dtype=float, ranks=(1,), name: str = "tuple") -> np.ndarray:
    """Coerce caller data to a float64 (or, with ``dtype=complex``, complex128) array.

    The one validator behind every tuple, batch, field and loop argument.  Complex
    components where reals are wanted, ragged or non-numeric input, a rank
    outside ``ranks``, no components and NaN/inf each raise InputError.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c" and dtype is float:
            raise TypeError("got complex components")
        if arr.dtype.kind not in "biufcO":
            raise TypeError(f"got {arr.dtype} components")
        arr = arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "real numbers" if dtype is float else "numbers"
        raise InputError(f"{name} must hold {kind}: {exc}") from None
    if arr.ndim not in ranks:
        ranks_text = " or ".join(f"{r}-D" for r in ranks)
        raise InputError(f"{name} must be {ranks_text}, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError(f"{name} must have at least one component, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"non-finite components in {name}")
    return arr


def as_real_vector(values, *, name: str = "tuple") -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting NaN/inf entries."""
    return as_array(values, name=name)


def as_complex_vector(values, *, name: str = "tuple") -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting non-finite entries."""
    return as_array(values, dtype=complex, name=name)


def is_perm(p: Sequence[int]) -> bool:
    """True iff ``p`` is a permutation of ``range(len(p))``.

    >>> is_perm((1, 2, 0)), is_perm((0, 0, 2))
    (True, False)
    """
    return len(p) >= 1 and sorted(p) == list(range(len(p)))


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def apply_perm(p: Sequence[int], x) -> np.ndarray:
    """Reorder ``x`` by ``p``: component ``k`` of the result is ``x[p[k]]``.

    The result is always a permutation of the input multiset.
    """
    x = np.asarray(x)
    if x.ndim != 1 or len(p) != x.size:
        raise InputError(f"permutation of size {len(p)} applied to tuple of size {x.size}")
    idx = np.asarray(p, dtype=np.intp)
    if not is_perm(tuple(int(i) for i in idx)):
        raise InputError(f"not a permutation of range({len(p)}): {tuple(p)}")
    return x[idx]


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Function composition ``p after q``: ``compose(p, q)[i] == p[q[i]]``.

    Composing on the left of ``apply_perm`` acts on the right of the vector:
    ``apply_perm(compose(p, q), x) == apply_perm(q, apply_perm(p, x))``.

    >>> compose((1, 2, 0), (2, 1, 0))
    (0, 2, 1)
    """
    if len(p) != len(q):
        raise InputError("cannot compose permutations of different sizes")
    return tuple(p[i] for i in q)


def invert(p: Sequence[int]) -> Perm:
    """The inverse bijection: ``invert(p)[p[i]] == i``.

    >>> invert((1, 2, 0))
    (2, 0, 1)
    """
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def enumerate_perms(n: int) -> tuple[Perm, ...]:
    """All n! permutations of ``range(n)`` in lexicographic order.

    Raises CapExceededError above the brute-force cap.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if n > BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"brute force too large: n = {n} exceeds cap {BRUTE_FORCE_CAP} ({n}! permutations)"
        )
    return tuple(itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def perm_matrix(n: int) -> np.ndarray:
    """All permutations of range(n) as an (n!, n) int array, lexicographic rows.

    Row order matters: argmin over rows picks the lexicographically smallest
    minimizer for free.  Cached per n; read-only.
    """
    table = np.array(enumerate_perms(n), dtype=np.intp)
    table.setflags(write=False)
    return table


def random_perm(n: int, rng: np.random.Generator) -> Perm:
    return tuple(int(i) for i in rng.permutation(n))


__all__ = [
    "BRUTE_FORCE_CAP",
    "STABILIZER_ORDER_CAP",
    "Perm",
    "apply_perm",
    "as_complex_vector",
    "as_real_vector",
    "compose",
    "enumerate_perms",
    "identity_perm",
    "invert",
    "is_perm",
    "random_perm",
]
