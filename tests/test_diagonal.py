import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import blocks_of_labels, equality_blocks_by_closure, grid_min_block_cost
from symprod import diagonal
from symprod.core import apply_perm, compose, enumerate_perms, invert, perm_matrix
from symprod.diagonal import (
    BlockPartition,
    Stabilizer,
    _partition_of_labels,
    boundary_class,
    dist_to_diagonal,
    equality_partition,
    nearest_diagonal_point,
    stabilizer_of,
)
from symprod.errors import CapExceededError, InputError
from symprod.metric import l1_norm


def test_equality_partition_frozen_examples():
    assert equality_partition([1.0, 1.0, 2.0]).blocks == ((0, 1),)
    assert equality_partition([5.0, 5.0, 5.0, 5.0]).blocks == ((0, 1, 2, 3),)
    assert equality_partition([0.0, 1e-12, 7.0], tol=1e-9).blocks == ((0, 1),)
    assert equality_partition([1.0, 2.0, 3.0]).blocks == ()


def test_equality_partition_is_transitively_closed():
    # 0~1 and 1~2 within tol, but |x0 - x2| > tol: still one block
    assert equality_partition([0.0, 0.5, 1.0], tol=0.6).blocks == ((0, 1, 2),)


def test_equality_partition_matches_pairwise_closure():
    rng = np.random.default_rng(31)
    tols = (0.0, 0.05, 0.1, 0.5, 1.0, float("inf"))
    for n in list(range(1, 10)) + [40, 120]:
        rows = []
        for _ in range(60 if n < 40 else 8):
            # a coarse grid plus small jitter gives exact ties and near-ties
            x = rng.integers(-4, 5, size=n) * 0.5
            x = x + np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-0.05, 0.05, size=n))
            rows.append(x)
            for tol in tols:
                expected = equality_blocks_by_closure(x, tol)
                assert equality_partition(x, tol).blocks == expected, (x.tolist(), tol)
        # the batch form: each row's labels name that vector's blocks
        for tol in tols:
            labels = equality_partition(np.array(rows), tol)
            assert labels.shape == (len(rows), n)
            for x, row in zip(rows, labels):
                expected = equality_blocks_by_closure(x, tol)
                assert blocks_of_labels(row) == expected, (x.tolist(), tol)


def test_equality_partition_rejects_negative_tol():
    with pytest.raises(InputError):
        equality_partition([1.0, 2.0], tol=-1e-9)


@pytest.mark.parametrize("x", [[1.0, 2.0, 1.0], [[1.0, 2.0, 1.0], [0.0, 0.0, 3.0]]],
                         ids=["vector", "batch"])
def test_equality_partition_rejects_nan_tol(x):
    with pytest.raises(InputError):
        equality_partition(x, tol=float("nan"))


@st.composite
def label_rows(draw):
    """A labels row in the ``Stabilizer.labels`` convention: each index names
    its block's smallest index, or itself."""
    row = []
    for i in range(draw(st.integers(1, 12))):
        heads = [j for j in range(i) if row[j] == j]
        row.append(draw(st.sampled_from([i, *heads])))
    return row


@given(label_rows())
def test_partition_of_labels_round_trips_through_stabilizer_labels(row):
    partition = _partition_of_labels(np.array(row))
    assert partition.n == len(row)
    assert partition.blocks == blocks_of_labels(row)
    assert Stabilizer(partition).labels.tolist() == row
    assert _partition_of_labels(row) == partition  # a plain list groups the same


def test_partition_of_labels_groups_without_equality_partition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("labels are grouped directly, not cut into runs again")

    monkeypatch.setattr(diagonal, "equality_partition", refuse)
    partition = _partition_of_labels(np.array([0, 1, 0, 3, 1, 5]))
    assert partition == BlockPartition(((0, 2), (1, 4)), 6)


def test_partition_validation():
    with pytest.raises(InputError):
        BlockPartition(blocks=((0,),), n=2)
    with pytest.raises(InputError):
        BlockPartition(blocks=((0, 1), (1, 2)), n=3)
    with pytest.raises(InputError):
        BlockPartition(blocks=((0, 3),), n=3)
    with pytest.raises(InputError):
        BlockPartition(blocks=((0, 0),), n=3)
    part = BlockPartition(blocks=((2, 0),), n=3)
    assert part.blocks == ((0, 2),)  # normalized to sorted form
    assert part.constrained == frozenset({0, 2})


def test_stabilizer_trivial():
    stab = stabilizer_of(BlockPartition(blocks=(), n=3))
    assert stab.elements == ((0, 1, 2),)
    assert stab.order == 1


def test_stabilizer_single_pair_block():
    stab = stabilizer_of(BlockPartition(blocks=((0, 1),), n=3))
    assert stab.order == 2
    assert set(stab.elements) == {(0, 1, 2), (1, 0, 2)}


def test_stabilizer_order_12_against_filter_oracle():
    part = BlockPartition(blocks=((0, 1), (2, 3, 4)), n=5)
    stab = stabilizer_of(part)
    assert stab.order == 12

    # Oracle: of all 120 permutations, keep those fixing z = (a,a,b,b,b)
    # for generic distinct a, b; that is the defining property.
    z = np.array([2.0, 2.0, 7.0, 7.0, 7.0])
    fixing = {p for p in enumerate_perms(5) if np.array_equal(apply_perm(p, z), z)}
    assert set(stab.elements) == fixing
    for p in stab.elements:
        assert np.array_equal(apply_perm(p, z), z)


def test_stabilizer_is_a_group():
    part = BlockPartition(blocks=((0, 1), (2, 3, 4)), n=5)
    elements = set(stabilizer_of(part).elements)
    for p in elements:
        assert invert(p) in elements
        for q in elements:
            assert compose(p, q) in elements


def test_stabilizer_order_formula_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, n + 1))
        indices = rng.permutation(n)[:k]
        split = int(rng.integers(2, k)) if k >= 4 else k
        blocks = [tuple(indices[:split])]
        if k - split >= 2:
            blocks.append(tuple(indices[split:]))
        part = BlockPartition(blocks=tuple(blocks), n=n)
        expected = math.prod(math.factorial(len(b)) for b in part.blocks)
        assert stabilizer_of(part).order == expected


def test_stabilizer_cap():
    part = BlockPartition(blocks=(tuple(range(7)), tuple(range(7, 14))), n=14)
    stab = stabilizer_of(part)  # kept as its blocks, so building it is never capped
    assert stab.order == 5040**2
    with pytest.raises(CapExceededError):
        stab.elements  # 5040 * 5040 elements is past the cap


def random_block_partition(n, rng):
    """Any partition of range(n), singletons dropped: empty, one block or several."""
    labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    blocks = [tuple(np.flatnonzero(labels == k).tolist()) for k in np.unique(labels)]
    return BlockPartition(blocks=tuple(b for b in blocks if len(b) >= 2), n=n)


def test_stabilizer_membership_agrees_with_labels_and_elements():
    rng = np.random.default_rng(17)
    seen_sizes = set()
    for _ in range(60):
        n = int(rng.integers(1, 7))
        stab = stabilizer_of(random_block_partition(n, rng))
        perms = perm_matrix(n)
        labels = stab.labels
        label_mask = np.all(labels[perms] == labels, axis=1)
        elements = set(stab.elements)
        assert len(elements) == stab.order == int(label_mask.sum())
        for row, in_mask in zip(perms, label_mask):
            p = tuple(row.tolist())
            assert (p in stab) == bool(in_mask) == (p in elements)
        seen_sizes.add(stab.order)
    assert {1, 2, 6} <= seen_sizes


def test_stabilizer_labels_and_non_members():
    stab = stabilizer_of(BlockPartition(blocks=((1, 3), (0, 2, 4)), n=6))
    assert stab.labels.tolist() == [0, 1, 0, 1, 0, 5]
    assert (2, 3, 4, 1, 0, 5) in stab
    assert np.array([2, 3, 4, 1, 0, 5]) in stab
    assert (0.0, 1.0, 2.0, 3.0, 4.0, 5.0) in stab  # equal to a member, as tuples compare
    assert (False, True, 2, 3, 4, 5) in stab
    for p in [
        (0, 1, 2, 3, 4),  # too short
        (0, 1, 2, 3, 4, 5, 6),  # too long
        (0, 0, 2, 3, 4, 5),  # repeats 0; its labels still match
        (0, 1, 2, 3, 4, -1),
        (0, 1, 2, 3, 4, 6),
        (0.5, 1.0, 2.0, 3.0, 4.0, 5.0),
        ("0", "1", "2", "3", "4", "5"),
        None,
        (1, 0, 2, 3, 4, 5),  # a permutation that mixes two blocks
        (),
    ]:
        assert p not in stab
    assert [field.name for field in dataclasses.fields(Stabilizer)] == ["partition"]


def test_dist_to_diagonal_frozen_examples():
    assert dist_to_diagonal([3.0, 3.0, 9.0], BlockPartition(((0, 1),), 3)) == 0.0
    assert dist_to_diagonal([0.0, 2.0], BlockPartition(((0, 1),), 2)) == 2.0
    assert dist_to_diagonal([0.0, 1.0, 5.0], BlockPartition(((0, 1, 2),), 3)) == 5.0


def test_dist_to_diagonal_matches_grid_oracle_on_frozen_examples():
    assert grid_min_block_cost([0.0, 2.0]) == pytest.approx(2.0, abs=2e-3)
    assert grid_min_block_cost([0.0, 1.0, 5.0]) == pytest.approx(5.0, abs=2e-3)


def test_dist_to_diagonal_matches_grid_oracle_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        x = rng.uniform(-10, 10, size=n)
        part = equality_partition(rng.choice([-1.0, 0.0, 1.0], size=n))
        if not part.blocks:
            part = BlockPartition(blocks=(tuple(range(n)),), n=n) if n >= 2 else part
        closed_form = dist_to_diagonal(x, part)
        oracle = sum(grid_min_block_cost(x[list(b)]) for b in part.blocks)
        assert closed_form == pytest.approx(oracle, abs=2e-3)


def test_nearest_diagonal_point_lies_in_set_and_attains():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        x = rng.uniform(-10, 10, size=n)
        part = BlockPartition(blocks=(tuple(range(n)),), n=n)
        y = nearest_diagonal_point(x, part)
        assert len(set(y.tolist())) == 1  # all components equal: in the set
        assert float(np.abs(x - y).sum()) == pytest.approx(dist_to_diagonal(x, part))


def test_nearest_diagonal_point_takes_lower_median():
    part = BlockPartition(blocks=((0, 1),), n=2)
    assert np.array_equal(nearest_diagonal_point([0.0, 2.0], part), [0.0, 0.0])
    part4 = BlockPartition(blocks=((0, 1, 2, 3),), n=4)
    assert np.array_equal(
        nearest_diagonal_point([4.0, 1.0, 3.0, 2.0], part4), [2.0, 2.0, 2.0, 2.0]
    )


def test_nearest_diagonal_point_dimension_mismatch():
    with pytest.raises(InputError):
        nearest_diagonal_point([1.0, 2.0], BlockPartition(((0, 1),), 3))


def test_perm_displacement_examples():
    def displacement(x, p):  # how far p moves x
        x = np.asarray(x)
        return l1_norm(apply_perm(p, x) - x)

    rng = np.random.default_rng(21)
    x = rng.uniform(-5, 5, size=4)
    assert displacement(x, (0, 1, 2, 3)) == 0.0
    assert displacement([0.0, 1.0], (1, 0)) == 2.0
    assert displacement([1.0, 1.0, 4.0], (1, 0, 2)) == 0.0


def test_is_nondescending_examples():
    assert boundary_class([1.0, 2.0, 2.0, 5.0]) != "exterior"
    assert boundary_class([2.0, 1.0]) == "exterior"
    assert boundary_class([7.0]) != "exterior"


def test_boundary_class_examples():
    assert boundary_class([1.0, 2.0, 3.0]) == "interior"
    assert boundary_class([1.0, 1.0, 3.0]) == "boundary"
    assert boundary_class([3.0, 1.0]) == "exterior"
    assert boundary_class([5.0]) == "interior"


def test_order_tests_compare_neighbours_without_overflow():
    # Differences of these neighbours overflow to inf; comparing them warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert boundary_class([-1e308, 1e308]) != "exterior"
        assert boundary_class([1e308, -1e308]) == "exterior"
        batch = [[-1e308, 1e308], [1e308, -1e308], [1e308, 1e308]]
        assert boundary_class(batch).tolist() == ["interior", "exterior", "boundary"]


def test_boundary_implies_nonempty_partition():
    rng = np.random.default_rng(27)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        x = np.sort(rng.integers(0, n - 1, size=n)).astype(float)  # pigeonhole tie
        assert boundary_class(x) == "boundary"
        assert equality_partition(x, tol=0.0).blocks != ()


def test_exterior_has_open_neighborhood():
    # Largest descent r = (x_i - x_j) over an inversion; perturbations
    # smaller than r/4 in the 1-norm cannot repair the inversion.
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        x = rng.uniform(-10, 10, size=n)
        if boundary_class(x) != "exterior":
            x = x[::-1].copy()
        if boundary_class(x) != "exterior":  # all components equal, no inversion to keep
            continue
        drops = np.maximum.accumulate(x)[:-1] - x[1:]
        r = float(drops.max())
        assert r > 0
        for _ in range(20):
            delta = rng.uniform(-1, 1, size=n)
            delta *= (r / 4) * rng.uniform(0, 0.999) / np.abs(delta).sum()
            assert boundary_class(x + delta) == "exterior"


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.floats(-100, 100, width=64), min_size=n, max_size=n
        )
    )
)
def test_interior_only_under_identity(xs):
    x = np.sort(np.array(xs))
    if boundary_class(x) != "interior":
        return
    n = x.size
    for p in enumerate_perms(n):
        moved = apply_perm(p, x)
        if p == tuple(range(n)):
            assert boundary_class(moved) != "exterior"
        else:
            assert boundary_class(moved) == "exterior"


def test_stabilizer_exactly_preserves_sorted_boundary_vector():
    x = np.array([1.0, 1.0, 3.0, 7.0, 7.0])
    part = equality_partition(x)
    stab = stabilizer_of(part)
    keepers = {
        p for p in enumerate_perms(5) if boundary_class(apply_perm(p, x)) != "exterior"
    }
    assert keepers == set(stab.elements)


def random_blocks(n, rng):
    """A random partition: a shuffled range(n) cut into runs of 1..4, runs of >= 2 kept."""
    order = rng.permutation(n).tolist()
    blocks, pos = [], 0
    while pos < n:
        size = int(rng.integers(1, 5))
        if size >= 2 and pos + size <= n:
            blocks.append(tuple(order[pos : pos + size]))
        pos += size
    return BlockPartition(blocks=tuple(blocks), n=n)


def random_batch(n, rng):
    """Rows with exact ties (values from a small pool), sorted rows, and repeated rows."""
    batch = int(rng.integers(1, 25))
    pool = rng.uniform(-5.0, 5.0, size=max(1, n // 2 + 1))
    x = rng.choice(pool, size=(batch, n))
    x[rng.random(batch) < 0.2] = rng.uniform(-5.0, 5.0, size=n)  # all distinct
    sort = rng.random(batch) < 0.4
    x[sort] = np.sort(x[sort], axis=1)  # on or inside the sorted cone
    x[rng.random(batch) < 0.2] = x[0]  # repeated rows
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 17, 40])
def test_batch_forms_equal_their_per_row_results(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(40):
        x = random_batch(n, rng)
        part = random_blocks(n, rng)
        classes = boundary_class(x)
        assert isinstance(classes, np.ndarray) and classes.shape == (len(x),)
        assert classes.tolist() == [boundary_class(row) for row in x]
        nearest = nearest_diagonal_point(x, part)
        assert np.array_equal(nearest, [nearest_diagonal_point(row, part) for row in x])
        d = dist_to_diagonal(x, part)
        assert isinstance(d, np.ndarray) and d.shape == (len(x),)
        assert d.tolist() == [dist_to_diagonal(row, part) for row in x]
        assert np.array_equal(boundary_class(x[:1]), [boundary_class(x[0])])  # batch of one
        assert dist_to_diagonal(x[:1], part).tolist() == [dist_to_diagonal(x[0], part)]


def test_batch_forms_cover_every_class():
    x = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 3.0], [3.0, 1.0, 2.0], [2.0, 2.0, 2.0]])
    assert boundary_class(x).tolist() == ["interior", "boundary", "exterior", "boundary"]
    assert type(boundary_class(x[0])) is str
    assert type(dist_to_diagonal(x[0], BlockPartition(((0, 1),), 3))) is float


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 2, 2)),
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        [],
        [[1.0, np.nan], [0.0, 1.0]],
        [[1.0, 2.0], [np.inf, 0.0]],
        [[1.0, 2.0], [1.0]],
        [[1 + 1j, 0.0]],
    ],
    ids=["3-D", "no-rows", "no-columns", "empty", "nan", "inf", "ragged", "complex"],
)
def test_batch_forms_reject_bad_input(bad):
    with pytest.raises(InputError):
        boundary_class(bad)
    with pytest.raises(InputError):
        dist_to_diagonal(bad, BlockPartition((), 2))
    with pytest.raises(InputError):
        nearest_diagonal_point(bad, BlockPartition((), 2))


def test_batch_distance_checks_the_partition_size():
    with pytest.raises(InputError, match="partition over n = 3"):
        dist_to_diagonal(np.zeros((4, 2)), BlockPartition(((0, 1),), 3))
