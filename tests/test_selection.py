import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import min_matching_cost, symmetric_2x2_eigenvalues
from symprod.core import apply_perm, enumerate_perms
from symprod.diagonal import is_nondescending
from symprod.errors import InputError, InvariantViolation
from symprod.metric import UnorderedTuple, dist_bruteforce, dist_sorted, l1_norm
from symprod.selection import (
    EQUAL_CLASS_TOL,
    ContinuityReport,
    LiftedField,
    SampledField,
    canonicalize,
    continuity_report,
    lift_field,
    path_adjacency,
)


def test_canonicalize_examples():
    assert np.array_equal(canonicalize([3.0, 1.0, 2.0]), [1.0, 2.0, 3.0])
    assert np.array_equal(canonicalize([5.0, 5.0]), [5.0, 5.0])


def test_canonicalize_idempotent_and_sorted():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.uniform(-10, 10, size=int(rng.integers(1, 8)))
        c = canonicalize(x)
        assert is_nondescending(c)
        assert np.array_equal(canonicalize(c), c)
        assert sorted(x.tolist()) == c.tolist()


def test_canonicalize_permutation_invariant_exhaustive():
    rng = np.random.default_rng(4)
    for n in range(2, 7):
        x = rng.uniform(-10, 10, size=n)
        outputs = {canonicalize(apply_perm(p, x)).tobytes() for p in enumerate_perms(n)}
        assert len(outputs) == 1  # bitwise identical for every input order


def test_embedding_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.uniform(-10, 10, size=5)
        assert UnorderedTuple(canonicalize(x)) == UnorderedTuple(x)


def test_isometry_against_bruteforce():
    rng = np.random.default_rng(8)
    for n in range(2, 8):
        for _ in range(100):
            y = rng.uniform(-10, 10, size=n)
            z = rng.uniform(-10, 10, size=n)
            moved = l1_norm(canonicalize(y) - canonicalize(z))
            assert abs(moved - dist_bruteforce(y, z).value) <= 1e-9


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            hnp.arrays(np.float64, n, elements=st.floats(-1e4, 1e4, width=64)),
            hnp.arrays(np.float64, n, elements=st.floats(-1e4, 1e4, width=64)),
        )
    )
)
def test_isometry_hypothesis(pair):
    y, z = pair
    moved = l1_norm(canonicalize(y) - canonicalize(z))
    assert abs(moved - dist_bruteforce(y, z).value) <= 1e-9


def test_path_adjacency():
    edges = path_adjacency(4)
    assert edges.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert edges.dtype == np.intp and not edges.flags.writeable
    assert path_adjacency(1).shape == (0, 2)


@pytest.mark.parametrize("kind", [list, tuple, np.array])
def test_adjacency_is_one_read_only_edge_array(kind):
    edges = kind([kind([0, 2]), kind([2, 1]), kind([1, 1])])
    field = SampledField(points=[0.0, 0.5, 1.0], values=[[1.0], [2.0], [3.0]], adjacency=edges)
    assert field.adjacency.shape == (3, 2) and field.adjacency.dtype == np.intp
    assert not field.adjacency.flags.writeable
    assert field.adjacency.tolist() == [[0, 2], [2, 1], [1, 1]]
    empty = SampledField(points=[0.0], values=[[1.0]], adjacency=kind([]))
    assert empty.adjacency.shape == (0, 2) and empty.adjacency.dtype == np.intp
    assert not empty.adjacency.flags.writeable


def test_adjacency_is_not_the_callers_array():
    given = np.array([[0, 1], [1, 2]])
    field = SampledField(points=[0.0, 0.5, 1.0], values=[[1.0], [2.0], [3.0]], adjacency=given)
    assert field.adjacency is not given
    given[0] = [2, 2]
    assert field.adjacency.tolist() == [[0, 1], [1, 2]]
    with pytest.raises(ValueError):
        field.adjacency[0, 0] = 2
    lifted = lift_field(field)
    assert lifted.adjacency is field.adjacency


def test_sampled_field_validation():
    with pytest.raises(InputError):
        SampledField.path([[0.0], [1.0]], [[1.0, 2.0]])  # 2 points, 1 value
    with pytest.raises(InputError):
        SampledField.path([[0.0], [1.0]], [[1.0, 2.0], [1.0, 2.0, 3.0]])
    with pytest.raises(InputError):
        SampledField(
            points=[[0.0], [1.0]],
            values=([1.0, 2.0], [3.0, 4.0]),
            adjacency=((0, 5),),
        )


@pytest.mark.parametrize(
    "values, adjacency",
    [
        ([[1.0, 2.0], [3.0, 4.0]], ((0, 1.7),)),  # a non-integer index
        ([[1.0, 2.0], [3.0, 4.0]], ((0, 1, 1),)),  # a 3-index edge
        ([[1.0, 2.0], [3.0, 4.0]], ((0, -1),)),
        ([[1.0, 2.0], [3.0, 4.0]], (("a", 1),)),
        ([[1.0, 2.0], [3.0, 4.0]], ((0, 1), (1,))),  # ragged
        ([[1.0, np.inf], [3.0, 4.0]], ((0, 1),)),
        ([[1.0, np.nan], [3.0, 4.0]], ((0, 1),)),
        ([[1.0, 2.0j], [3.0, 4.0]], ((0, 1),)),
        ([[1.0, "x"], [3.0, 4.0]], ((0, 1),)),
        ([[], []], ()),
        ([1.0, 2.0], ()),  # one number per point is not a tuple row
    ],
)
def test_sampled_field_rejects_malformed_input(values, adjacency):
    with pytest.raises(InputError):
        SampledField(points=[[0.0], [1.0]], values=values, adjacency=adjacency)


def test_sampled_field_values_are_one_read_only_array():
    given = np.array([[3.0, 1.0], [2.0, 2.0], [0.5, -1.0]])
    field = SampledField(points=[0.0, 0.5, 1.0], values=given, adjacency=[[0, 2], [2, 1]])
    assert field.values.shape == (3, 2) and field.values.dtype == np.float64
    assert np.array_equal(field.values, given)  # rows as given, not sorted
    assert not field.values.flags.writeable
    given[0, 0] = 99.0
    assert field.values[0, 0] == 3.0  # the field keeps its own copy
    assert field.adjacency.tolist() == [[0, 2], [2, 1]]
    assert field.adjacency.dtype == np.intp and not field.adjacency.flags.writeable
    assert field.tuple_n == 2 and field.dim_m == 1


@pytest.mark.parametrize("shape", [(3, 2), (3,)], ids=["2-d", "1-d"])
def test_sampled_field_points_are_a_read_only_copy(shape):
    given = np.arange(3.0 * int(np.prod(shape[1:]))).reshape(shape)
    field = SampledField.path(given, [[3.0, 1.0], [2.0, 2.0], [0.5, -1.0]])
    assert not field.points.flags.writeable
    expected = field.points.copy()
    given[...] = 99.0
    assert np.array_equal(field.points, expected)  # the field keeps its own copy
    lifted = lift_field(field)
    assert lifted.points is field.points  # a field's own read-only points are shared
    assert not lifted.values.flags.writeable


def test_lifted_field_is_a_sampled_field():
    field = SampledField.path([[0.0], [1.0]], [[3.0, 1.0], [1.1, 2.9]])
    lifted = lift_field(field)
    assert isinstance(lifted, SampledField)
    assert lifted.adjacency.tolist() == field.adjacency.tolist() == [[0, 1]]
    assert lifted.tuple_n == 2 and lifted.dim_m == 1
    with pytest.raises(InputError):
        LiftedField(points=[0.0, 1.0], values=[[1.0, 2.0], [np.nan, 3.0]], adjacency=[[0, 1]])
    with pytest.raises(InputError):
        LiftedField(points=[0.0, 1.0], values=[[1.0, 2.0], [2.0, 3.0]], adjacency=[[0, 2]])


def test_lifted_field_shares_the_validated_source_arrays():
    field = SampledField.path([[0.0], [1.0], [2.0]], [[3.0, 1.0], [1.1, 2.9], [0.0, 0.0]])
    lifted = lift_field(field)
    assert lifted.points is field.points
    assert lifted.adjacency is field.adjacency
    assert not lifted.values.flags.writeable
    rebuilt = LiftedField(points=field.points, values=lifted.values, adjacency=[[0, 1], [1, 2]])
    assert rebuilt.points is lifted.points and rebuilt.values is lifted.values
    assert rebuilt.adjacency.tolist() == lifted.adjacency.tolist()


def test_lift_single_point():
    field = SampledField.path([[0.0]], [[2.0, -1.0]])
    lifted = lift_field(field)
    assert np.array_equal(lifted.values, [[-1.0, 2.0]])


def test_lift_constant_field():
    field = SampledField.path([[0.0], [0.5], [1.0]], [[3.0, 0.0]] * 3)
    lifted = lift_field(field)
    assert np.array_equal(lifted.values, [[0.0, 3.0]] * 3)
    report = continuity_report(lifted, field)
    assert report.max_ratio == 1.0  # vacuous by convention
    assert report.ratio_edges == 0
    assert report.zero_edges == 2


def test_lift_preserves_classes_pointwise():
    rng = np.random.default_rng(10)
    pts = rng.uniform(0, 1, size=(20, 2))
    vals = [rng.uniform(-5, 5, size=4) for _ in range(20)]
    field = SampledField.path(pts, vals)
    lifted = lift_field(field)
    for row, v in zip(lifted.values, vals):
        assert UnorderedTuple(row) == UnorderedTuple(v)
        assert is_nondescending(row)


def test_lift_is_pointwise_in_sample_order():
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 1, size=(10, 1))
    vals = [rng.uniform(-5, 5, size=3) for _ in range(10)]
    lifted = lift_field(SampledField.path(pts, vals)).values
    order = rng.permutation(10)
    relifted = lift_field(
        SampledField.path(pts[order], [vals[i] for i in order])
    ).values
    assert np.array_equal(relifted, lifted[order])


def test_eigenvalue_field_lifts_to_constant():
    # Symmetric family [[cos t, sin t], [sin t, -cos t]]: spectra by the
    # quadratic formula stay {-1, +1} while eigenvectors rotate.
    ts = np.arange(0.0, 6.3 + 1e-12, 0.1)
    spectra = []
    for t in ts:
        a, b, c = np.cos(t), np.sin(t), -np.cos(t)
        lo, hi = symmetric_2x2_eigenvalues(a, b, c)
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
        spectra.append([hi, lo] if int(t * 10) % 2 else [lo, hi])  # scrambled order
    field = SampledField.path(ts.reshape(-1, 1), spectra)
    lifted = lift_field(field)
    assert np.allclose(lifted.values, np.tile([-1.0, 1.0], (len(ts), 1)), atol=1e-9)
    report = continuity_report(lifted, field)
    assert report.max_ratio == 1.0
    assert report.ratio_edges == 0


def test_eigenvalue_field_against_numpy_eigvalsh():
    # Second route: numpy's symmetric eigensolver agrees with the formula.
    for t in (0.0, 0.7, 2.0, 4.4):
        a, b, c = np.cos(t), np.sin(t), -np.cos(t)
        expected = np.sort(np.linalg.eigvalsh(np.array([[a, b], [b, c]])))
        assert np.allclose(expected, symmetric_2x2_eigenvalues(a, b, c), atol=1e-12)


def test_continuity_report_two_point_example():
    field = SampledField.path([[0.0], [1.0]], [[0.0, 1.0], [0.5, 0.5]])
    lifted = lift_field(field)
    report = continuity_report(lifted, field)
    # moved = |0-0.5| + |1-0.5| = 1 and the matching distance is also 1
    assert report.max_ratio == pytest.approx(1.0, abs=1e-12)
    assert report.worst_edge == (0, 1)
    assert all(type(i) is int for i in report.worst_edge)  # plain ints, not numpy scalars
    assert report.ratio_edges == 1


def test_continuity_report_random_path_fields():
    rng = np.random.default_rng(14)
    for n in range(2, 8):
        pts = np.linspace(0, 1, 30).reshape(-1, 1)
        vals = [rng.uniform(-5, 5, size=n) for _ in range(30)]
        field = SampledField.path(pts, vals)
        report = continuity_report(lift_field(field), field)
        assert abs(report.max_ratio - 1.0) <= 1e-9
        # oracle route: recompute the worst edge against brute force
        a, b = report.worst_edge
        moved = l1_norm(canonicalize(vals[a]) - canonicalize(vals[b]))
        assert moved == pytest.approx(
            dist_bruteforce(vals[a], vals[b]).value, abs=1e-9
        )
        assert moved == pytest.approx(min_matching_cost(vals[a], vals[b]), abs=1e-9)


def test_continuity_report_rejects_mismatched_fields():
    field = SampledField.path([[0.0], [1.0]], [[0.0, 1.0], [2.0, 3.0]])
    other = SampledField.path([[0.0], [1.0], [2.0]], [[0.0, 1.0]] * 3)
    with pytest.raises(InputError):
        continuity_report(lift_field(other), field)


def test_continuity_report_flags_broken_lift():
    # Hand-build a lift that disagrees on a zero-distance edge.
    field = SampledField.path([[0.0], [1.0]], [[1.0, 2.0], [2.0, 1.0]])
    bad = LiftedField(
        points=field.points,
        values=np.array([[1.0, 2.0], [1.0, 2.0 + 1e-6]]),
        adjacency=field.adjacency,
    )
    with pytest.raises(InvariantViolation):
        continuity_report(bad, field)


def test_lifted_field_rejects_descending_rows():
    with pytest.raises(InputError):
        LiftedField(
            points=np.array([[0.0]]),
            values=np.array([[2.0, 1.0]]),
            adjacency=(),
        )


def test_report_is_plain_data():
    r = ContinuityReport(max_ratio=1.0, worst_edge=(0, 1), ratio_edges=3, zero_edges=0)
    assert r.max_ratio == 1.0
    assert r.worst_edge == (0, 1)


def report_by_edge_loop(lifted, field):
    """The per-edge formulation: one dist_sorted call per adjacency edge."""
    max_ratio, worst, zero_edges = None, None, 0
    for a, b in field.adjacency.tolist():
        moved = float(np.abs(lifted.values[a] - lifted.values[b]).sum())
        d = dist_sorted(field.values[a], field.values[b]).value
        if d == 0.0:
            if moved > EQUAL_CLASS_TOL:
                raise InvariantViolation(f"edge {(a, b)}: equal classes lifted {moved:.3e} apart")
            zero_edges += 1
            continue
        ratio = moved / d
        if max_ratio is None or ratio > max_ratio:
            max_ratio, worst = ratio, (a, b)
    if max_ratio is None:
        return ContinuityReport(1.0, None, 0, zero_edges)
    return ContinuityReport(max_ratio, worst, len(field.adjacency) - zero_edges, zero_edges)


def random_explicit_field(rng):
    """Tie rows, repeated samples, self-loops, duplicate and reversed edges."""
    count = int(rng.integers(1, 25))
    n = int(rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 9, 40]))
    if rng.random() < 0.5:
        values = rng.integers(-3, 4, size=(count, n)).astype(float)  # many ties
    else:
        values = rng.normal(0.0, 2.0, size=(count, n))
    for i in range(1, count):
        if rng.random() < 0.25:  # repeat an earlier sample in another order
            values[i] = rng.permutation(values[int(rng.integers(0, i))])
    edges = [tuple(e) for e in rng.integers(0, count, size=(int(rng.integers(0, 2 * count + 1)), 2))]
    edges += [(i, i) for i in rng.integers(0, count, size=int(rng.integers(0, 3)))]
    if edges:
        picks = rng.integers(0, len(edges), size=int(rng.integers(0, 4)))
        edges += [edges[k] for k in picks] + [edges[k][::-1] for k in picks]
    order = rng.permutation(len(edges))
    edges = tuple((int(edges[k][0]), int(edges[k][1])) for k in order)
    points = rng.uniform(0.0, 1.0, size=(count, 2))
    return SampledField(points=points, values=values, adjacency=edges)


def outcome(report_fn, lifted, field):
    try:
        return report_fn(lifted, field)
    except InvariantViolation as exc:
        return ("InvariantViolation", str(exc))


def test_continuity_report_matches_per_edge_loop():
    rng = np.random.default_rng(41)
    seen = {"ratio": 0, "zero": 0, "violation": 0, "empty": 0}
    for _ in range(400):
        field = random_explicit_field(rng)
        true_lift = lift_field(field)
        # Whole-row scales of 1 or 2 keep rows sorted, give exact ties in the
        # ratio (first maximum wins) and break some equal-class edges.
        scales = rng.choice([1.0, 1.0, 2.0], size=(field.values.shape[0], 1))
        scaled = LiftedField(
            points=field.points, values=true_lift.values * scales, adjacency=field.adjacency
        )
        for lifted in (true_lift, scaled):
            expected = outcome(report_by_edge_loop, lifted, field)
            got = outcome(continuity_report, lifted, field)
            assert got == expected
            if isinstance(got, tuple):
                seen["violation"] += 1
            else:
                assert type(got.max_ratio) is float
                seen["ratio"] += got.ratio_edges > 0
                seen["zero"] += got.zero_edges > 0
                seen["empty"] += field.adjacency.shape == (0, 2)
    assert min(seen.values()) > 0, seen
