"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written from scratch against the plain
definitions (minimum over all permutations, grid search, quadratic
formula) so the library under test is never its own oracle.
"""

import itertools
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from symprod.errors import InputError, InvariantViolation


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def perm_rows(n: int) -> np.ndarray:
    """All permutations of range(n) as an (n!, n) index array, lex order."""
    return np.array(all_perms(n), dtype=np.intp)


def min_matching(y, z) -> tuple[float, tuple[int, ...]]:
    """Min over permutations p of sum_k |y[k] - z[p[k]]|, first lex minimizer.

    Works for real and complex inputs (complex modulus costs).
    """
    y = np.asarray(y)
    z = np.asarray(z)
    rows = perm_rows(len(y))
    costs = np.abs(y[np.newaxis, :] - z[rows]).sum(axis=1)
    best = int(np.argmin(costs))  # argmin takes the first, i.e. lex-smallest
    return float(costs[best]), all_perms(len(y))[best]


def min_matching_cost(y, z) -> float:
    return min_matching(y, z)[0]


def reference_match(prev, next_) -> tuple[int, ...]:
    """A loop step as a minimal-cost assignment: the component at j goes to ``perm[j]``.

    Brute force over all permutations for n <= 8 (the first lexicographic
    minimizer), scipy's assignment solver above: a search over pairings,
    independent of the tracker's nearest-neighbour pass.
    """
    if len(prev) <= 8:
        return min_matching(prev, next_)[1]
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(np.asarray(prev)[:, np.newaxis] - np.asarray(next_)[np.newaxis, :])
    return tuple(linear_sum_assignment(cost)[1].tolist())


def triu_gap(samples) -> float:
    """All component pairs of all samples in one array, then the minimum; inf past float range."""
    n = samples.shape[1]
    if n < 2:
        return math.inf
    j, k = np.triu_indices(n, k=1)
    with np.errstate(over="ignore"):
        return float(np.abs(samples[:, j] - samples[:, k]).min())


def discriminant_winding(samples) -> tuple[int, float]:
    """Winding number w of the discriminant prod_{i<j} (z_i - z_j)^2 around a closed loop.

    Each sample's phase is the sum of 2 * arg(z_i - z_j) over i < j, which no
    reordering of its components changes (a swap adds 2 * pi).  The phase
    steps between consecutive samples, the closing one included, are unwrapped
    into [-pi, pi) and summed.  No matching is involved: a loop of distinct
    roots returns them permuted by a permutation of sign (-1)**w.  Also
    returns the largest step's size, since unwrapping is only sound well below pi.
    """
    samples = np.asarray(samples, dtype=complex)
    i, j = np.triu_indices(samples.shape[1], k=1)
    phase = 2.0 * np.angle(samples[:, i] - samples[:, j]).sum(axis=1)
    steps = (np.diff(phase, append=phase[:1]) + np.pi) % (2.0 * np.pi) - np.pi
    turns = float(steps.sum()) / (2.0 * np.pi)
    winding = round(turns)
    assert abs(turns - winding) < 1e-6, turns
    return winding, float(np.abs(steps).max())


def sign_by_inversions(p) -> int:
    """(-1) to the number of pairs i < j with p[i] > p[j]."""
    p = list(p)
    return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


def grid_min_block_cost(values, lo=-12.0, hi=12.0, step=1e-3) -> float:
    """min over c in the grid of sum_j |values[j] - c|, by exhaustive search."""
    values = np.asarray(values, dtype=float)
    grid = np.arange(lo, hi + step / 2, step)
    return float(np.abs(values[np.newaxis, :] - grid[:, np.newaxis]).sum(axis=1).min())


def symmetric_2x2_eigenvalues(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues of [[a, b], [b, c]] by the quadratic formula, ascending."""
    mean = (a + c) / 2.0
    radius = np.hypot((a - c) / 2.0, b)
    return (mean - radius, mean + radius)


def compose_by_application(p, q, n: int) -> tuple[int, ...]:
    """The permutation r with apply(r, x) == apply(q, apply(p, x)) for all x.

    Derived by pushing the basis tuple (0, 1, ..., n-1) through both maps:
    apply(p, x)[k] = x[p[k]], so the composite picks x[p[q[k]]].
    """
    return tuple(p[q[k]] for k in range(n))


def invert_by_search(p) -> tuple[int, ...]:
    """Inverse permutation found by brute index search."""
    n = len(p)
    return tuple(list(p).index(k) for k in range(n))


def equality_blocks_by_closure(x, tol: float) -> tuple[tuple[int, ...], ...]:
    """Blocks of size >= 2 of the transitive closure of |x[j] - x[k]| <= tol.

    Grows each component by checking every pair, straight from the
    definition; blocks and their members come out ascending.
    """
    x = [float(v) for v in x]
    n = len(x)
    seen: set[int] = set()
    blocks = []
    for start in range(n):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            j = frontier.pop()
            for k in range(n):
                if k not in component and abs(x[j] - x[k]) <= tol:
                    component.add(k)
                    frontier.append(k)
        seen |= component
        if len(component) >= 2:
            blocks.append(tuple(sorted(component)))
    return tuple(sorted(blocks))


def blocks_of_labels(labels) -> tuple[tuple[int, ...], ...]:
    """Blocks of size >= 2 named by a labels row.

    Also checks that each label is the least index of its block.
    """
    members: dict[int, list[int]] = {}
    for i, label in enumerate(int(v) for v in labels):
        members.setdefault(label, []).append(i)
    assert all(label == block[0] for label, block in members.items())
    return tuple(sorted(tuple(block) for block in members.values() if len(block) >= 2))


def random_partition_law(n: int) -> dict[tuple[int, ...], float]:
    """Exact probability of each labels row of the small-integer partition draw.

    The draw: k uniform in 1..n - 1, then n values uniform in range(k).  A
    row's label for index i is the least index holding i's value.  Found by
    walking every k and every one of its k**n value rows.
    """
    law: dict[tuple[int, ...], float] = {}
    for k in range(1, n):
        for values in itertools.product(range(k), repeat=n):
            key = tuple(values.index(v) for v in values)
            law[key] = law.get(key, 0.0) + 1.0 / (n - 1) / k**n
    return law


def field_file_arrays(text: str):
    """(meta, points, tuples) of a field file with no read error, by the layout's definition.

    Each non-blank line is one ``json.loads`` object; a leading meta line is
    dropped; numbers become floats one at a time, and [re, im] pairs become
    ``complex(re, im)``, which keeps a -0.0 real part.
    """
    objs = [json.loads(line) for line in text.split("\n") if line.strip()]
    meta = objs.pop(0)["meta"] if "meta" in objs[0] else {}
    points = np.array([[float(v) for v in obj["point"]] for obj in objs])
    rows = [obj["tuple"] for obj in objs]
    if isinstance(rows[0][0], list):
        tuples = np.array([[complex(re, im) for re, im in row] for row in rows])
    else:
        tuples = np.array([[float(v) for v in row] for row in rows])
    return meta, points, tuples


# A JSON number, by exact type: a bool is not one.
_NUMBER_TYPES = {float, int}


def _plain_numbers(lists, pairs: bool = False) -> bool:
    """Whether ``lists`` are nonempty lists of one length holding only JSON numbers.

    With ``pairs`` they hold only [re, im] pairs of numbers instead.
    """
    if set(map(type, lists)) != {list} or len(set(map(len, lists))) != 1 or not lists[0]:
        return False
    if pairs:
        lists = list(itertools.chain.from_iterable(lists))
        if set(map(type, lists)) != {list} or set(map(len, lists)) != {2}:
            return False
    return set(map(type, itertools.chain.from_iterable(lists))) <= _NUMBER_TYPES


def _check_floats(values, line_no: int):
    """Refuse NaN, an infinity and a JSON integer too large for a float, as the block route does."""
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:
        raise InputError(f"line {line_no}: integer too large for a float") from None
    if not finite:
        raise InputError(f"line {line_no}: number is not finite")


def field_file_read_error(lines, path: Path):
    """Raise the first read error in a field file's lines, by one walk from line 1.

    An ``InputError`` names the 1-based line of the first read error, or says
    ``{path}: no samples found``; a file with neither is an ``InvariantViolation``.
    The reader must name the same error from the one block it declines.
    """
    meta_seen, first, complex_mode = False, None, None  # first: the first sample's sizes
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {line_no}: invalid JSON ({exc.msg})") from None
        except ValueError as exc:  # an integer literal longer than int() accepts
            raise InputError(f"line {line_no}: {exc}") from None
        except RecursionError:
            raise InputError(f"line {line_no}: JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise InputError(f"line {line_no}: expected a JSON object")
        if "meta" in obj:
            if meta_seen or first:
                raise InputError(f"line {line_no}: meta line must come first")
            if not isinstance(obj["meta"], dict):
                raise InputError(f"line {line_no}: meta must be an object")
            meta_seen = True
            continue
        if "point" not in obj or "tuple" not in obj:
            raise InputError(f'line {line_no}: need both "point" and "tuple"')
        point, value = obj["point"], obj["tuple"]
        if not _plain_numbers([point]):
            raise InputError(f"line {line_no}: point must be a list of numbers")
        if not (isinstance(value, list) and value):
            raise InputError(f"line {line_no}: tuple must be a nonempty list")
        for entry in value:
            pair = _plain_numbers([entry]) and len(entry) == 2
            if not (pair or type(entry) in _NUMBER_TYPES):
                raise InputError(
                    f"line {line_no}: tuple entries must be numbers or [re, im] pairs, got {entry!r}"
                )
            _check_floats(entry if pair else [entry], line_no)
            if complex_mode not in (None, pair):
                raise InputError(
                    f"line {line_no}: mixed real and complex tuple entries in one file"
                )
            complex_mode = pair
        if first and len(point) != first[0]:
            raise InputError(f"line {line_no}: point dimension {len(point)} != {first[0]}")
        if first and len(value) != first[1]:
            raise InputError(f"line {line_no}: tuple size {len(value)} != {first[1]}")
        _check_floats(point, line_no)
        first = first or (len(point), len(value))
    if not first:
        raise InputError(f"{path}: no samples found")
    raise InvariantViolation(f"{path}: the block reader declined a file with no read error")


def set_partitions(n: int):
    """Every set partition of range(n), as lists of blocks, by placing one index at a time."""
    if n == 0:
        yield []
        return
    for rest in set_partitions(n - 1):
        yield rest + [[n - 1]]
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n - 1]] + rest[i + 1 :]


def stabilizer_rows(partition) -> np.ndarray:
    """The permutations of range(n) that keep every index in its block, as lex-ordered rows.

    A filter over all n! permutations (n <= 7 here) by the defining property,
    with each index labelled by the least index of its block.
    """
    labels = np.arange(partition.n)
    for block in partition.blocks:
        labels[list(block)] = min(block)
    rows = perm_rows(partition.n)
    return rows[np.all(labels[rows] == labels, axis=1)]

