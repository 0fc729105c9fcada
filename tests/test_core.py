import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import all_perms, compose_by_application, invert_by_search
from symprod.core import (
    BRUTE_FORCE_CAP,
    apply_perm,
    as_complex_vector,
    as_real_vector,
    compose,
    enumerate_perms,
    identity_perm,
    invert,
    is_perm,
    perm_matrix,
    random_perm,
)
from symprod.diagonal import boundary_class
from symprod.errors import CapExceededError, InputError
from symprod.metric import dist
from symprod.monodromy import ComplexLoop
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


def test_enumerate_perms_counts():
    assert enumerate_perms(1) == ((0,),)
    assert len(enumerate_perms(3)) == 6
    assert len(set(enumerate_perms(3))) == 6
    assert len(set(enumerate_perms(5))) == 120


def test_enumerate_perms_all_bijections():
    for n in (1, 2, 3, 4):
        assert len(enumerate_perms(n)) == math.factorial(n)
        assert all(is_perm(p) for p in enumerate_perms(n))


def test_enumerate_perms_cap():
    assert len(enumerate_perms(BRUTE_FORCE_CAP)) == math.factorial(BRUTE_FORCE_CAP)
    with pytest.raises(CapExceededError, match="brute force too large"):
        enumerate_perms(BRUTE_FORCE_CAP + 1)


def test_perm_matrix_matches_enumeration():
    mat = perm_matrix(4)
    assert mat.shape == (24, 4)
    assert tuple(tuple(int(v) for v in row) for row in mat) == enumerate_perms(4)
    assert not mat.flags.writeable  # cached array must stay frozen


def test_invert_identity():
    assert invert((0, 1, 2)) == (0, 1, 2)


def test_invert_three_cycle():
    assert invert((1, 2, 0)) == (2, 0, 1)


def test_invert_round_trip_against_index_search():
    rng = np.random.default_rng(7)
    x = {n: rng.normal(size=n) for n in range(2, 7)}
    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = random_perm(n, rng)
        assert invert(p) == invert_by_search(p)
        assert np.array_equal(apply_perm(invert(p), apply_perm(p, x[n])), x[n])


@given(perms_upto_6)
def test_invert_is_involution(p):
    assert invert(invert(p)) == p


@given(perms_upto_6, st.data())
def test_apply_perm_preserves_multiset(p, data):
    xs = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(p), max_size=len(p)))
    out = apply_perm(p, np.array(xs))
    assert sorted(out.tolist()) == sorted(xs)


def test_identity_perm():
    assert identity_perm(4) == (0, 1, 2, 3)
    assert is_perm(identity_perm(1))


def test_is_perm_rejects_bad_words():
    assert not is_perm((0, 0))
    assert not is_perm((1, 2))
    assert not is_perm(())
    assert is_perm((2, 0, 1))


def test_as_real_vector_validation():
    v = as_real_vector([1, 2, 3])
    assert v.dtype == np.float64
    with pytest.raises(InputError):
        as_real_vector([])
    with pytest.raises(InputError):
        as_real_vector([1.0, float("nan")])
    with pytest.raises(InputError):
        as_real_vector([1.0, float("inf")])
    with pytest.raises(InputError):
        as_real_vector([[1.0, 2.0]])
    with pytest.raises(InputError):
        as_real_vector([1 + 2j, 0j])


def test_as_complex_vector_validation():
    v = as_complex_vector([1 + 2j, 3])
    assert v.dtype == np.complex128
    with pytest.raises(InputError):
        as_complex_vector([complex("nan"), 0j])
    with pytest.raises(InputError):
        as_complex_vector([])


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
}

# (id, call, rank of the input it takes, whether complex components are valid)
ENTRY_POINTS = [
    ("as_real_vector", as_real_vector, 1, False),
    ("as_complex_vector", as_complex_vector, 1, True),
    ("field-points", lambda v: SampledField(v, [[1.0], [2.0]], [(0, 1)]), 1, False),
    ("field-values", lambda v: SampledField([0.0, 1.0], v, [(0, 1)]), 2, False),
    ("loop-samples", ComplexLoop, 2, True),
    ("dist", lambda v: dist(v, [0.0, 0.0]), 1, True),
    ("dist-sorted", lambda v: dist(v, [0.0, 0.0], engine="sorted"), 1, False),
    ("boundary_class", boundary_class, 1, False),
]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, MALFORMED[kind][rank - 1], id=f"{entry}-{kind}")
        for entry, call, rank, takes_complex in ENTRY_POINTS
        for kind in MALFORMED
        if not (takes_complex and kind.startswith("complex"))
    ],
)
def test_malformed_input_is_input_error_at_every_entry_point(call, value):
    with pytest.raises(InputError):
        call(value)


def test_enumerate_is_lexicographic():
    assert enumerate_perms(3) == all_perms(3)
