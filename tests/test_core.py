import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import symprod
from oracles import all_perms, compose_by_application, invert_by_search
from symprod.core import (
    BRUTE_FORCE_CAP,
    apply_perm,
    as_array,
    as_perm,
    compose,
    is_perm,
    perm_matrix,
)
from symprod.diagonal import BlockPartition, Stabilizer, boundary_class, equality_partition
from symprod.errors import CapExceededError, InputError
from symprod.lemmas import run_lemma_suite
from symprod.metric import dist
from symprod.monodromy import ComplexLoop, min_intra_gap, roots_loop_generator
from symprod.selection import SampledField

perms_upto_6 = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(n))).map(tuple)
)


def test_apply_perm_identity():
    x = np.array([3.0, 1.0, 4.0])
    assert np.array_equal(apply_perm((0, 1, 2), x), x)


def test_apply_perm_transposition():
    assert np.array_equal(apply_perm((1, 0), np.array([3.0, 7.0])), [7.0, 3.0])


def test_apply_perm_picks_source_components():
    x = np.array([10.0, 20.0, 30.0])
    p = (2, 0, 1)
    out = apply_perm(p, x)
    for k in range(3):
        assert out[k] == x[p[k]]


def test_apply_perm_dimension_mismatch():
    with pytest.raises(InputError):
        apply_perm((0, 1), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InputError, match=r"^a permutation applies to a 1-D tuple, got shape \(1, 1\)$"):
        apply_perm((0,), np.zeros((1, 1)))


def test_apply_perm_rejects_non_permutation():
    with pytest.raises(InputError):
        apply_perm((0, 0), np.array([1.0, 2.0]))


@given(
    st.permutations(list(range(4))),
    st.permutations(list(range(4))),
    st.lists(st.floats(-100, 100), min_size=4, max_size=4),
)
def test_composition_matches_sequential_application(p, q, xs):
    p, q = tuple(p), tuple(q)
    x = np.array(xs)
    composite = compose(p, q)
    assert composite == compose_by_application(p, q, 4)
    assert np.array_equal(apply_perm(composite, x), apply_perm(q, apply_perm(p, x)))


def perm_tuples(n):
    """``perm_matrix(n)``'s rows as tuples."""
    return [tuple(row) for row in perm_matrix(n).tolist()]


def test_enumerate_perms_counts():
    assert perm_tuples(1) == [(0,)]
    assert len(perm_tuples(3)) == 6
    assert len(set(perm_tuples(3))) == 6
    assert len(set(perm_tuples(5))) == 120


def test_enumerate_perms_all_bijections():
    for n in (1, 2, 3, 4):
        assert len(perm_tuples(n)) == math.factorial(n)
        assert all(is_perm(p) for p in perm_tuples(n))


def test_enumerate_perms_cap():
    assert len(perm_matrix(BRUTE_FORCE_CAP)) == math.factorial(BRUTE_FORCE_CAP)
    with pytest.raises(CapExceededError) as exc:
        perm_matrix(BRUTE_FORCE_CAP + 1)
    assert str(exc.value) == "brute force too large: n = 9 exceeds cap 8 (9! permutations)"


# Every count and size goes through as_count: a fraction, a non-number or a value
# below the minimum is InputError, never truncated, rounded or left to numpy.
BAD_COUNTS = {
    "perm_matrix-fraction": lambda: perm_matrix(2.5),
    "perm_matrix-string": lambda: perm_matrix("3"),
    "perm_matrix-zero": lambda: perm_matrix(0),
    "perm_matrix-list": lambda: perm_matrix([3]),
    "perm_matrix-dict": lambda: perm_matrix({}),
    "partition-n-fraction": lambda: BlockPartition(((0, 1),), 2.5),
    "partition-index-fraction": lambda: BlockPartition(((0, 1.5),), 3),
    "partition-index-negative": lambda: BlockPartition(((-1, 1),), 3),
    "partition-index-nan": lambda: BlockPartition(((0, math.nan),), 3),
    "roots-k-fraction": lambda: roots_loop_generator(3.5, 100),
    "roots-k-one": lambda: roots_loop_generator(1, 100),
    "roots-steps-fraction": lambda: roots_loop_generator(3, 100.5),
    "roots-steps-none": lambda: roots_loop_generator(3, None),
    "lemmas-n-fraction": lambda: run_lemma_suite(n_values=(2.5,)),
    "lemmas-n-one": lambda: run_lemma_suite(n_values=(1,)),
    "lemmas-trials-fraction": lambda: run_lemma_suite(n_values=(2,), trials=2.5),
    "lemmas-trials-inf": lambda: run_lemma_suite(n_values=(2,), trials=math.inf),
    "lemmas-seed-negative": lambda: run_lemma_suite(n_values=(2,), trials=1, seed=-1),
    "lemmas-seed-fraction": lambda: run_lemma_suite(n_values=(2,), trials=1, seed=1.5),
}


@pytest.mark.parametrize("call", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
def test_bad_counts_are_input_errors(call):
    with pytest.raises(InputError):
        call()


def test_integral_float_counts_act_as_their_ints():
    assert np.array_equal(perm_matrix(3.0), perm_matrix(3))
    assert BlockPartition(((0.0, 2.0),), 3.0) == BlockPartition(((0, 2),), 3)
    assert np.array_equal(roots_loop_generator(3.0, 96.0).samples,
                          roots_loop_generator(3, 96).samples)
    table = [(r.name, r.n, r.trials, r.violations)
             for r in run_lemma_suite(n_values=(2.0,), trials=4.0, seed=2.0)]
    assert table == [(r.name, r.n, r.trials, r.violations)
                     for r in run_lemma_suite(n_values=(2,), trials=4, seed=2)]


def test_perm_matrix_matches_enumeration():
    mat = perm_matrix(4)
    assert mat.shape == (24, 4)
    assert tuple(tuple(int(v) for v in row) for row in mat) == all_perms(4)
    assert not mat.flags.writeable  # cached array must stay frozen
    for n in range(1, BRUTE_FORCE_CAP + 1):
        mat = perm_matrix(n)
        assert mat.dtype == np.intp and mat.shape == (math.factorial(n), n)
        assert mat.tolist() == [list(p) for p in all_perms(n)]
        assert not mat.flags.writeable and perm_matrix(n) is mat


def test_invert_round_trip_against_index_search():
    rng = np.random.default_rng(7)
    x = {n: rng.normal(size=n) for n in range(2, 7)}
    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = tuple(rng.permutation(n).tolist())
        inverse = invert_by_search(p)
        assert np.array_equal(apply_perm(inverse, apply_perm(p, x[n])), x[n])
        assert np.array_equal(apply_perm(p, apply_perm(inverse, x[n])), x[n])


@given(perms_upto_6, st.data())
def test_apply_perm_preserves_multiset(p, data):
    xs = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(p), max_size=len(p)))
    out = apply_perm(p, np.array(xs))
    assert sorted(out.tolist()) == sorted(xs)


def test_is_perm_rejects_bad_words():
    assert not is_perm((0, 0))
    assert not is_perm((1, 2))
    assert not is_perm(())
    assert is_perm((2, 0, 1))


# Words that are no permutation of range(len); each entry point refuses them.
NOT_PERMUTATIONS = {
    "repeat": (0, 0),
    "repeat-cycle": (1, 1),
    "repeat-long": (1, 2, 1),
    "out-of-range": (0, 5),
    "too-large": (5,),
    "negative": (-1, 0),
    "fraction": (0.7, 1),
    "nan": (float("nan"), 1.0),
    "huge": (0, 2**70),
    "strings": ("0", "1"),
    "text": "01",
    "none": None,
    "empty": (),
    "2-D": [[0, 1], [1, 0]],
    "ragged": [[0, 1], [0]],
}


@pytest.mark.parametrize("p", NOT_PERMUTATIONS.values(), ids=NOT_PERMUTATIONS.keys())
def test_non_permutations_are_refused_at_every_entry_point(p):
    with pytest.raises(InputError, match="not a permutation"):
        as_perm(p)
    assert not is_perm(p)
    for call in (
        lambda: apply_perm(p, [1.0, 2.0]),
        lambda: compose(p, (0, 1)),
        lambda: compose((0, 1), p),
    ):
        with pytest.raises(InputError):
            call()
    assert p not in Stabilizer(BlockPartition(blocks=((0, 1),), n=2))


def test_cycle_functions_refuse_non_permutations_in_bounded_time():
    # A cycle walk over a repeated index never returns to its start, so run it apart.
    script = (
        "import json, sys\n"
        "from symprod.errors import InputError\n"
        "from symprod.monodromy import cycle_type, describe_cycles, disjoint_cycles\n"
        "for p in json.loads(sys.argv[1]):\n"
        "    for f in (disjoint_cycles, cycle_type, describe_cycles):\n"
        "        try:\n"
        "            f(p)\n"
        "        except InputError:\n"
        "            continue\n"
        "        sys.exit(f'{f.__name__}({p!r}) returned')\n"
    )
    src = str(Path(symprod.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(list(NOT_PERMUTATIONS.values()))],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "p, word",
    [
        ((1, 2, 0), [1, 2, 0]),
        ([True, False], [1, 0]),
        ((1.0, 0.0), [1, 0]),
        (np.array([2, 0, 1], dtype=np.uint8), [2, 0, 1]),
    ],
)
def test_as_perm_counts_bools_and_integral_floats_as_their_ints(p, word):
    idx = as_perm(p, len(word))
    assert idx.dtype == np.intp and idx.tolist() == word
    assert is_perm(p)
    assert p in Stabilizer(BlockPartition(blocks=(tuple(range(len(word))),), n=len(word)))
    with pytest.raises(InputError, match="not a permutation"):
        as_perm(p, len(word) + 1)


def test_as_real_vector_validation():
    v = as_array([1, 2, 3])
    assert v.dtype == np.float64
    with pytest.raises(InputError):
        as_array([])
    with pytest.raises(InputError):
        as_array([1.0, float("nan")])
    with pytest.raises(InputError):
        as_array([1.0, float("inf")])
    with pytest.raises(InputError):
        as_array([[1.0, 2.0]])
    with pytest.raises(InputError):
        as_array([1 + 2j, 0j])


def test_as_complex_vector_validation():
    v = as_array([1 + 2j, 3], dtype=complex)
    assert v.dtype == np.complex128
    with pytest.raises(InputError):
        as_array([complex("nan"), 0j], dtype=complex)
    with pytest.raises(InputError):
        as_array([], dtype=complex)


NAN, INF = float("nan"), float("inf")

# Each malformed input in a one-row (rank 1) and a two-row (rank 2) form.
MALFORMED = {
    "ragged": ([1.0, [2.0, 3.0]], [[1.0, 2.0], [3.0]]),
    "string": (["a", "b"], [["a", "b"], ["c", "d"]]),
    "empty": ([], np.empty((2, 0))),
    "wrong-rank": (np.ones((2, 2, 2)), np.ones((2, 2, 2))),
    "nan": ([1.0, NAN], [[1.0, NAN], [2.0, 3.0]]),
    "inf": ([1.0, INF], [[1.0, 2.0], [-INF, 3.0]]),
    "complex-list": ([1 + 5j, 2], [[1 + 5j, 2], [3, 4]]),
    "complex-array": (np.array([1 + 5j, 2]), np.array([[1 + 5j, 2], [3, 4]])),
    # float() casts a numpy complex scalar with only a ComplexWarning.
    "complex-scalar-object": (
        np.array([np.complex128(1 + 1j), Fraction(1)], dtype=object),
        np.array([[np.complex128(1 + 1j), Fraction(1)], [Fraction(2), 3.0]], dtype=object),
    ),
}
COMPLEX = ("complex-list", "complex-array", "complex-scalar-object")

# (id, call, rank of the input it takes, the MALFORMED kinds that are valid input there)
ENTRY_POINTS = [
    ("as_real_vector", as_array, 1, ()),  # as_array's rank-1 real and complex vectors
    ("as_complex_vector", lambda v: as_array(v, dtype=complex), 1, COMPLEX),
    ("field-points", lambda v: SampledField(v, [[1.0], [2.0]], [(0, 1)]), 1, ()),
    ("field-values", lambda v: SampledField([0.0, 1.0], v, [(0, 1)]), 2, ()),
    ("loop-samples", ComplexLoop, 2, COMPLEX),
    # "auto" picks the engine by dtype, and reads an object array as real.
    ("dist", lambda v: dist(v, [0.0, 0.0]), 1, COMPLEX[:2]),
    ("dist-sorted", lambda v: dist(v, [0.0, 0.0], engine="sorted"), 1, ()),
    ("boundary_class", boundary_class, 1, ()),
    ("equality_partition", equality_partition, 1, ()),
    ("equality_partition-batch", equality_partition, 2, ()),
    ("min_intra_gap", min_intra_gap, 2, COMPLEX),
]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, MALFORMED[kind][rank - 1], id=f"{entry}-{kind}")
        for entry, call, rank, valid in ENTRY_POINTS
        for kind in MALFORMED
        if kind not in valid
    ],
)
def test_malformed_input_is_input_error_at_every_entry_point(call, value):
    with pytest.raises(InputError):
        call(value)


def test_enumerate_is_lexicographic():
    assert tuple(perm_tuples(3)) == all_perms(3)
