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
        # float() refuses a Python complex but casts a numpy complex scalar with only a warning.
        if dtype is float and (arr.dtype.kind == "c" or arr.dtype.kind == "O" and any(
            isinstance(v, np.complexfloating) for v in arr.flat
        )):
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


def as_count(value, name: str, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``, else InputError.

    The one validator for counts and sizes.  Bools and integral floats count
    as their ints, as in ``as_perm``; a fraction or a non-number is refused.
    """
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InputError(f"need {name} >= {minimum}, got {value}")
    return int(value)


def row_chunks(count: int, row_elements: int):
    """Slices over ``count`` rows holding at most CHUNK_ELEMENTS elements (at least one row)."""
    rows = max(1, CHUNK_ELEMENTS // row_elements)
    return (slice(a, a + rows) for a in range(0, count, rows))


def read_text(path, newline: str | None = None) -> str:
    """The whole text of a UTF-8 file, opened with ``newline``; the one file reader.

    Bytes that are not UTF-8 raise InputError naming the line of the first
    of them, wherever it sits, before any parser sees the text.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:  # read() decodes the file's bytes in one call
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(f"line {line_no}: not UTF-8 text ({exc.reason})") from None


def as_perm(p, n: int | None = None) -> np.ndarray:
    """``p`` as an intp array holding each of ``0..len(p) - 1`` once, else InputError.

    The one permutation validator.  Bools and integral floats count as their
    ints; ``n``, when given, is the required length.
    """
    try:
        arr = np.asarray(p)
    except (TypeError, ValueError) as exc:
        raise InputError(f"not a permutation: {exc}") from None
    size = arr.size if n is None else n
    # Sorted, the entries are exactly 0..size - 1: no fraction, nan, repeat or gap.
    if not (arr.ndim == 1 and 0 < arr.size == size and arr.dtype.kind in "biuf"
            and np.array_equal(np.sort(arr), np.arange(size))):
        raise InputError(f"not a permutation of range({size}): {p!r}")
    return arr.astype(np.intp)


def is_perm(p: Sequence[int]) -> bool:
    """True iff ``p`` is a permutation of ``range(len(p))``.

    >>> is_perm((1, 2, 0)), is_perm((0, 0, 2))
    (True, False)
    """
    try:
        as_perm(p)
    except InputError:
        return False
    return True


def nondescending(x: np.ndarray) -> np.ndarray:
    """Which rows (along the last axis) are non-descending; compared, so nothing overflows."""
    return np.all(x[..., 1:] >= x[..., :-1], axis=-1)


def identity_perm(n: int) -> Perm:
    return tuple(range(as_count(n, "n", 1)))


def apply_perm(p: Sequence[int], x) -> np.ndarray:
    """Reorder ``x`` by ``p``: component ``k`` of the result is ``x[p[k]]``.

    The result is always a permutation of the input multiset.
    """
    try:
        x = np.asarray(x)
    except (TypeError, ValueError) as exc:  # ragged input
        raise InputError(f"a permutation applies to a 1-D tuple: {exc}") from None
    if x.ndim != 1:
        raise InputError(f"a permutation applies to a 1-D tuple, got shape {x.shape}")
    return x[as_perm(p, x.size)]


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Function composition ``p after q``: ``compose(p, q)[i] == p[q[i]]``.

    Composing on the left of ``apply_perm`` acts on the right of the vector:
    ``apply_perm(compose(p, q), x) == apply_perm(q, apply_perm(p, x))``.

    >>> compose((1, 2, 0), (2, 1, 0))
    (0, 2, 1)
    """
    p = as_perm(p)
    return tuple(p[as_perm(q, p.size)].tolist())


def invert(p: Sequence[int]) -> Perm:
    """The inverse bijection: ``invert(p)[p[i]] == i``.

    >>> invert((1, 2, 0))
    (2, 0, 1)
    """
    p = as_perm(p)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size)
    return tuple(inv.tolist())


def enumerate_perms(n: int) -> tuple[Perm, ...]:
    """All n! permutations of ``range(n)`` in lexicographic order.

    Raises CapExceededError above the brute-force cap.
    """
    n = as_count(n, "n", 1)
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


__all__ = [
    "BRUTE_FORCE_CAP",
    "STABILIZER_ORDER_CAP",
    "Perm",
    "apply_perm",
    "as_array",
    "compose",
    "enumerate_perms",
    "identity_perm",
    "invert",
    "is_perm",
]
