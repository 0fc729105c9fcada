import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    all_perms,
    blocks_of_labels,
    grid_min_block_cost,
    random_partition_law,
)
from symprod import core, lemmas
from symprod.diagonal import BlockPartition, Stabilizer
from symprod.errors import CapExceededError, InputError
from symprod.lemmas import (
    DISPLACEMENT_EPSILONS,
    all_passed,
    check_boundary_has_ties,
    check_diagonal_distance_closed_form,
    check_displacement_bound,
    check_exterior_openness,
    check_interior_order_uniqueness,
    check_stabilizer_minimality,
    check_stabilizer_order,
    run_lemma_suite,
)

CHECK_NAMES = {
    "displacement-bound",
    "exterior-openness",
    "interior-order-uniqueness",
    "boundary-has-ties",
    "stabilizer-minimality",
    "stabilizer-order",
    "diagonal-distance-closed-form",
}


def test_suite_passes_with_small_trial_count():
    results = run_lemma_suite(n_values=(2, 3, 4), trials=60, seed=1)
    assert all_passed(results)
    assert {r.name for r in results} == CHECK_NAMES
    assert {r.n for r in results} == {2, 3, 4}
    for r in results:
        assert r.violations == 0
        assert r.passed


def test_suite_passes_at_the_largest_sizes():
    results = run_lemma_suite(n_values=(7, 8), trials=60, seed=0)
    assert len(results) == 2 * len(CHECK_NAMES)
    assert all_passed(results)


def test_suite_is_deterministic_for_a_seed():
    a = run_lemma_suite(n_values=(2, 3), trials=40, seed=9)
    b = run_lemma_suite(n_values=(2, 3), trials=40, seed=9)
    assert [(r.name, r.n, r.trials, r.violations) for r in a] == [
        (r.name, r.n, r.trials, r.violations) for r in b
    ]


def test_displacement_bound_counts_all_epsilons():
    rng = np.random.default_rng(0)
    check = check_displacement_bound(4, 30, rng)
    assert check.trials == 30 * len(DISPLACEMENT_EPSILONS)
    assert check.violations == 0


def list_a_foreign_permutation(monkeypatch):
    """List the n-cycle in place of each stabilizer's last element.

    The n-cycle lies in no stabilizer but S_n's, where it repeats an element.
    The number of rows stays, so of the suite's checks only displacement-bound
    and stabilizer-order, which counts distinct members, can see it.
    """
    table = Stabilizer._table

    def foreign(stab):
        rows = table(stab).copy()  # the table itself is read-only
        rows[-1] = np.roll(np.arange(stab.partition.n), -1)
        return rows

    monkeypatch.setattr(Stabilizer, "_table", foreign)


def test_injected_fault_is_caught(monkeypatch):
    list_a_foreign_permutation(monkeypatch)
    results = run_lemma_suite(n_values=(2, 3), trials=40, seed=0)
    assert not all_passed(results)
    assert {r.name for r in results if not r.passed} == {"displacement-bound", "stabilizer-order"}


def test_n_values_validated_and_deduplicated():
    results = run_lemma_suite(n_values=(3, 2, 3), trials=10, seed=0)
    assert [r.n for r in results[:: len(CHECK_NAMES)]] == [2, 3]
    with pytest.raises(InputError):
        run_lemma_suite(n_values=(1,), trials=10, seed=0)
    with pytest.raises(InputError):
        run_lemma_suite(n_values=(), trials=10, seed=0)


def test_a_size_past_the_cap_is_refused_before_any_check_runs(monkeypatch):
    def fail(*args):
        raise AssertionError("a check ran before the cap was checked")

    monkeypatch.setattr(lemmas, "check_displacement_bound", fail)
    with pytest.raises(CapExceededError, match="n = 9 exceeds cap 8"):
        run_lemma_suite(n_values=(2, 9), trials=10, seed=0)


def test_exterior_openness_standalone():
    rng = np.random.default_rng(11)
    check = check_exterior_openness(5, 40, rng)
    assert check.passed
    assert check.trials == 40 * 10  # 10 probes per sampled vector


def test_check_fields_are_reportable():
    results = run_lemma_suite(n_values=(2,), trials=10, seed=3)
    for r in results:
        assert r.trials > 0


def drop_first_block(partition):
    return BlockPartition(blocks=partition.blocks[1:], n=partition.n)


def drop_first_block_labels(labels):
    """``drop_first_block`` on each row of a ``(B, n)`` batch of ``Stabilizer.labels``."""
    labels = labels.copy()
    index = np.arange(labels.shape[1])
    for row in labels:
        tied = np.flatnonzero(row != index)  # members of a block other than its smallest
        if tied.size:
            first = row[tied].min()  # the first block's smallest index
            row[row == first] = index[row == first]
    return labels


@pytest.mark.parametrize("n", [2, 4, 6])
def test_stabilizer_minimality_catches_a_missing_block(monkeypatch, n):
    check = check_stabilizer_minimality(n, 30, np.random.default_rng(2))
    assert check.passed
    real_partition = lemmas.equality_partition
    monkeypatch.setattr(
        lemmas,
        "equality_partition",
        lambda x, tol: drop_first_block_labels(real_partition(x, tol)),
    )
    check = check_stabilizer_minimality(n, 30, np.random.default_rng(2))
    assert check.violations == check.trials == 30  # every boundary vector has a tie to lose


@pytest.mark.parametrize("n", [2, 4, 6])
def test_stabilizer_order_catches_a_missing_block(monkeypatch, n):
    check = check_stabilizer_order(n, 30, np.random.default_rng(4))
    assert check.passed
    real_stabilizer = lemmas.stabilizer_of
    monkeypatch.setattr(lemmas, "stabilizer_of", lambda p: real_stabilizer(drop_first_block(p)))
    check = check_stabilizer_order(n, 30, np.random.default_rng(4))
    assert check.violations == check.trials == 30  # every sampled partition has a block


def test_stabilizer_order_counts_the_enumerated_elements(monkeypatch):
    # The check must enumerate, not compare the factorial formula with itself.
    table = Stabilizer._table
    monkeypatch.setattr(Stabilizer, "_table", lambda stab: table(stab)[:-1])
    check = check_stabilizer_order(4, 30, np.random.default_rng(4))
    assert check.violations == check.trials == 30


@pytest.mark.parametrize("n", [2, 4, 6])
def test_stabilizer_order_catches_a_repeated_element(monkeypatch, n):
    # The first element listed again in place of the last: the row count
    # stays, so only a count of distinct members sees the lost element.
    table = Stabilizer._table

    def repeat_first(stab):
        rows = table(stab).copy()  # the table itself is read-only
        rows[-1] = rows[0]
        return rows

    monkeypatch.setattr(Stabilizer, "_table", repeat_first)
    check = check_stabilizer_order(n, 30, np.random.default_rng(4))
    assert check.violations == check.trials == 30  # every sampled partition has a block


@pytest.mark.parametrize("extra", ["duplicate", "foreign"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_stabilizer_order_catches_an_extra_row(monkeypatch, n, extra):
    # Every element listed, plus one row: a repeat of the first element, or a row
    # of zeros that is no permutation.  Only the row count sees either.
    table = Stabilizer._table

    def one_row_more(stab):
        rows = table(stab)
        row = rows[0] if extra == "duplicate" else np.zeros_like(rows[0])
        return np.vstack([rows, row])

    monkeypatch.setattr(Stabilizer, "_table", one_row_more)
    check = check_stabilizer_order(n, 30, np.random.default_rng(4))
    assert check.violations == check.trials == 30


@st.composite
def labels_batches(draw):
    """A ``(count, n)`` batch in the ``Stabilizer.labels`` convention: one row, equal rows or any."""
    n = draw(st.integers(1, 8))

    def row():  # any set partition of range(n): each index labelled by its block's least index
        group = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        return [group.index(g) for g in group]

    shape = draw(st.sampled_from(["one", "equal", "random"]))
    if shape == "one":
        rows = [row()]
    elif shape == "equal":
        rows = [row()] * draw(st.integers(2, 40))
    else:
        rows = [row() for _ in range(draw(st.integers(2, 40)))]
    return np.array(rows, dtype=np.intp)


@given(labels_batches())
def test_partition_groups_match_a_plain_grouping(labels):
    expected: dict[tuple, list[int]] = {}
    for i, row in enumerate(labels.tolist()):
        expected.setdefault(tuple(row), []).append(i)
    n = labels.shape[1]
    groups = lemmas._partition_groups(labels)
    assert all(partition.n == n for partition in groups)
    assert {p.blocks: ids.tolist() for p, ids in groups.items()} == {
        blocks_of_labels(row): ids for row, ids in expected.items()
    }


def test_exterior_openness_catches_a_classifier_that_never_says_exterior(monkeypatch):
    real_class = lemmas.boundary_class
    def never_exterior(y):
        classes = real_class(y)
        return np.where(classes == "exterior", "boundary", classes)

    monkeypatch.setattr(lemmas, "boundary_class", never_exterior)
    check = check_exterior_openness(4, 30, np.random.default_rng(5))
    assert check.violations == check.trials == 300


@pytest.mark.parametrize("n", [4, 6])
def test_displacement_bound_catches_a_too_large_stabilizer(monkeypatch, n):
    real_stabilizer = lemmas.stabilizer_of
    everything = BlockPartition(blocks=(tuple(range(n)),), n=n)  # all of S_n
    monkeypatch.setattr(lemmas, "stabilizer_of", lambda p: real_stabilizer(everything))
    check = check_displacement_bound(n, 30, np.random.default_rng(6))
    assert check.violations > 0


@pytest.mark.parametrize("n", [4, 6])
def test_displacement_bound_counts_each_row_at_or_past_twice_its_epsilon(monkeypatch, n):
    # With all of S_n as every stabilizer, a row's largest displacement is that of
    # its reversed sort (rearrangement inequality).  Some rows must fall in
    # [2 eps, 4 eps), so a check with a 4 eps bound would miss them.
    real_stabilizer = lemmas.stabilizer_of
    everything = BlockPartition(blocks=(tuple(range(n)),), n=n)
    monkeypatch.setattr(lemmas, "stabilizer_of", lambda p: real_stabilizer(everything))
    check = check_displacement_bound(n, 30, np.random.default_rng(6))
    rng = np.random.default_rng(6)  # the check's own draws, in its order
    eps = np.repeat(DISPLACEMENT_EPSILONS, 30)
    labels = lemmas._random_partition_labels(n, eps.size, rng)
    x = np.take_along_axis(rng.uniform(-10.0, 10.0, size=labels.shape), labels, axis=1)
    x += lemmas._random_l1_perturbation(n, eps, rng, eps.size)
    ascending = np.sort(x, axis=1)
    largest = np.abs(ascending[:, ::-1] - ascending).sum(axis=1)
    assert check.violations == np.count_nonzero(largest >= 2.0 * eps)
    assert np.any((largest >= 2.0 * eps) & (largest < 4.0 * eps))


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("identity_kept", [True, False], ids=["identity-kept", "identity-lost"])
def test_interior_order_uniqueness_catches_a_second_keeping_permutation(monkeypatch, n,
                                                                         identity_kept):
    # The last column is the reversal, which never keeps a strict row: mark it as
    # keeping every row, with or without the identity in column 0.
    real_keeps = lemmas._keeps_sorted

    def reversal_keeps(x, perms):
        keeps = real_keeps(x, perms)
        keeps[:, -1] = True
        keeps[:, 0] &= identity_kept
        return keeps

    monkeypatch.setattr(lemmas, "_keeps_sorted", reversal_keeps)
    check = check_interior_order_uniqueness(n, 30, np.random.default_rng(8))
    assert check.violations == check.trials == 30


@pytest.mark.parametrize("n", [3, 5])
def test_stabilizer_minimality_catches_a_partition_too_coarse(monkeypatch, n):
    # One block holding every index: every permutation fixes the labels, but only
    # those that keep the row sorted should, so each row not all one value counts.
    monkeypatch.setattr(lemmas, "equality_partition",
                        lambda x, tol: np.zeros(x.shape, dtype=np.intp))
    check = check_stabilizer_minimality(n, 30, np.random.default_rng(9))
    x = lemmas._random_boundary_vectors(n, 30, np.random.default_rng(9))
    spread = np.count_nonzero(x[:, 0] != x[:, -1])  # sorted rows: not all one value
    assert spread > 0
    assert check.violations == spread


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("shift", [0.01, 1e-6])
def test_closed_form_check_catches_a_shifted_distance(monkeypatch, shift, n):
    real_distance = lemmas.dist_to_diagonal
    monkeypatch.setattr(lemmas, "dist_to_diagonal", lambda x, p: real_distance(x, p) + shift)
    check = check_diagonal_distance_closed_form(n, 20, np.random.default_rng(7))
    assert check.violations == check.trials == 20


def test_batched_checks_do_not_depend_on_the_chunk_size(monkeypatch):
    def table():
        results = run_lemma_suite(n_values=(2, 3, 4), trials=25, seed=5)
        return [(r.name, r.n, r.trials, r.violations) for r in results]

    def faulty_counts():
        # One check alone: a fault's count, unlike a pass, depends on the
        # draws, so it shows a check whose own draws follow the chunk size.
        with pytest.MonkeyPatch.context() as mp:
            list_a_foreign_permutation(mp)
            return [
                check_displacement_bound(n, 25, np.random.default_rng(5)).violations
                for n in (2, 3, 4)
            ]

    default, faulty = table(), faulty_counts()
    assert any(faulty)
    for elements in (1, 7, 100):
        monkeypatch.setattr(core, "CHUNK_ELEMENTS", elements)
        assert table() == default
        assert faulty_counts() == faulty


def test_suite_draws_do_not_depend_on_the_chunk_size(monkeypatch):
    # Each check draws from a generator of its own, so the blocks that
    # exterior-openness draws in cannot shift the samples of a later check.
    # With every stabilizer all of S_n, the violation counts show the samples.
    real_stabilizer = lemmas.stabilizer_of
    monkeypatch.setattr(lemmas, "stabilizer_of", lambda p: real_stabilizer(
        BlockPartition(blocks=(tuple(range(p.n)),), n=p.n)))

    def violations():
        results = run_lemma_suite(n_values=(2, 3, 4), trials=25, seed=5)
        return [(r.name, r.n, r.violations) for r in results]

    default = violations()
    assert any(v for _, n, v in default if n > 2)
    for elements in (1, 7):
        monkeypatch.setattr(core, "CHUNK_ELEMENTS", elements)
        assert violations() == default


def test_exterior_openness_memory_does_not_grow_with_trials(monkeypatch):
    # With blocks far smaller than the probes of 2,000 vectors, ten times the
    # vectors must not raise the peak: only one block is held at a time.
    monkeypatch.setattr(core, "CHUNK_ELEMENTS", 1 << 14)

    def peak(trials):
        tracemalloc.start()
        try:
            check = lemmas.check_exterior_openness(6, trials, np.random.default_rng(1))
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check.trials == 10 * trials and check.passed
        return peak_bytes

    peak(200)  # first-call set-up is not part of either measurement
    few, many = peak(2_000), peak(20_000)
    assert many <= 1.25 * few


ALL_CHECKS = [
    lemmas.check_displacement_bound,
    lemmas.check_exterior_openness,
    lemmas.check_interior_order_uniqueness,
    lemmas.check_boundary_has_ties,
    lemmas.check_stabilizer_minimality,
    lemmas.check_stabilizer_order,
    lemmas.check_diagonal_distance_closed_form,
]
# What a check may hold at the default CHUNK_ELEMENTS beside its samples: its
# blocks take an eighth of a chunk of float64s, 1 MB, at most.  The largest
# measured peak above the samples is 0.74 MB, displacement-bound at n = 8 with
# 50 trials (a 0.83 MB peak against a 1.09 MB bound); the exhaustive checks
# there reach 0.71 MB.
# The samples are ten float64s per drawn component at most.  A (150, 720, 6)
# float64 gather alone is 5.2 MB.
WORKING_SET_BYTES = 1 << 20
SAMPLE_BYTES = 80


def check_peak(check, n, trials):
    """``check``'s tracemalloc peak at ``n`` and ``trials``, and the trials it reports."""
    check(n, 5, np.random.default_rng(0))  # first-call set-up (perm_matrix's cache) is not measured
    tracemalloc.start()
    try:
        result = check(n, trials, np.random.default_rng(1))
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    return peak_bytes, result.trials


@pytest.mark.parametrize("n, trials", [(6, 150), (6, 1_500), (8, 50)])
@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda check: check.__name__[6:])
def test_each_check_holds_a_small_working_set(check, n, trials):
    peak_bytes, drawn = check_peak(check, n, trials)
    assert peak_bytes <= WORKING_SET_BYTES + SAMPLE_BYTES * drawn * n


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda check: check.__name__[6:])
def test_check_memory_grows_no_faster_than_the_samples(check):
    (few, few_drawn), (many, many_drawn) = check_peak(check, 6, 150), check_peak(check, 6, 1_500)
    assert many - few <= SAMPLE_BYTES * (many_drawn - few_drawn) * 6


def test_suite_calls_the_classifier_once_per_batch(monkeypatch):
    # A guard on the shape of the work, not its speed: the per-trial loop
    # would make these counts grow with the trial count.
    def counts(trials):
        calls = {"boundary_class": 0, "dist_to_diagonal": 0, "equality_partition": 0}
        for name in calls:
            real = getattr(lemmas, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(lemmas, name, counted)
        run_lemma_suite(n_values=(2, 3), trials=trials, seed=8)
        monkeypatch.undo()
        return calls

    few, many = counts(40), counts(160)
    assert few["boundary_class"] == many["boundary_class"] == 2 * 2  # two checks, two sizes
    # one distance call per distinct partition of a batch: n = 2 has one possible
    # partition, n = 3 has four, and two batches per n use them (displacement-bound
    # with all three epsilons in one batch, and the closed-form check)
    assert few["dist_to_diagonal"] <= 2 * (1 + 4)
    assert many["dist_to_diagonal"] <= 2 * (1 + 4)
    # boundary-has-ties and stabilizer-minimality each label their whole batch
    # in one call per size
    assert few["equality_partition"] == 2 * (1 + 1)
    assert many["equality_partition"] == 2 * (1 + 1)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_sampler_laws(n):
    tie_counts = set()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        budget = rng.uniform(0.01, 10.0, size=50)
        for b in (budget, float(budget[0])):
            delta = lemmas._random_l1_perturbation(n, b, rng, 50)
            assert delta.shape == (50, n)
            assert np.all(np.abs(delta).sum(axis=1) < b)
        boundary = lemmas._random_boundary_vectors(n, 40, rng)
        steps = np.diff(boundary, axis=1)
        assert np.all(steps >= 0)
        ties = np.count_nonzero(steps == 0, axis=1)
        assert np.all(ties >= 1)
        tie_counts.update(ties.tolist())
    assert tie_counts == set(range(1, n))  # every tie count from 1 to n - 1 is drawn


def test_boundary_draw_ties_every_nonempty_set_of_gaps():
    # At n = 5 a sorted row has 4 gaps, so 2**4 - 1 = 15 nonempty sets of them can tie.
    x = lemmas._random_boundary_vectors(5, 2_000, np.random.default_rng(0))
    patterns = Counter(map(tuple, (np.diff(x, axis=1) == 0).tolist()))
    assert len(patterns) == 15
    assert (False,) * 4 not in patterns


def drawn_vectors(monkeypatch, check, n, trials, seed, name):
    """The rows ``check`` hands to ``lemmas.<name>``, unperturbed, in order."""
    seen = []
    real = getattr(lemmas, name)
    monkeypatch.setattr(lemmas, name, lambda x, *rest: seen.append(x.copy()) or real(x, *rest))
    # zero perturbations, drawn as before: each exterior probe is its own vector
    real_delta = lemmas._random_l1_perturbation
    monkeypatch.setattr(lemmas, "_random_l1_perturbation", lambda *a: 0.0 * real_delta(*a))
    assert check(n, trials, np.random.default_rng(seed)).passed
    monkeypatch.undo()
    return np.concatenate(seen)


@pytest.mark.parametrize("n", range(2, 9))
def test_interior_draw_ascends_by_steps_of_at_least_a_tenth(monkeypatch, n):
    x = drawn_vectors(monkeypatch, check_interior_order_uniqueness, n, 300, n, "_keeps_sorted")
    assert x.shape == (300, n)
    assert np.all(np.diff(x, axis=1) >= 0.1)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_exterior_draw_is_out_of_order(monkeypatch, n):
    x = drawn_vectors(monkeypatch, check_exterior_openness, n, 150, n, "boundary_class")
    assert x.shape == (10 * 150, n)
    assert np.all(np.any(np.diff(x, axis=1) < 0, axis=1))


def test_exterior_draw_gives_every_unsorted_ordering(monkeypatch):
    # Three components have 3! orderings; all but the sorted one must appear.
    x = drawn_vectors(monkeypatch, check_exterior_openness, 3, 200, 4, "boundary_class")
    orderings = {tuple(order) for order in np.argsort(x, axis=1).tolist()}
    assert orderings == set(all_perms(3)) - {(0, 1, 2)}


def test_exterior_openness_draws_do_not_depend_on_the_chunk_size(monkeypatch):
    # Every probe that boundary_class is given, in order, at three block sizes:
    # a group of vectors draws from its own spawned generator, whatever the block.
    real_class = lemmas.boundary_class

    def probes(n, trials):
        seen = []
        monkeypatch.setattr(lemmas, "boundary_class",
                            lambda y: seen.append(y.copy()) or real_class(y))
        assert check_exterior_openness(n, trials, np.random.default_rng(17)).passed
        return np.concatenate(seen)

    default_elements = core.CHUNK_ELEMENTS
    for n, trials in ((2, 150), (6, 500), (3, 1)):
        monkeypatch.setattr(core, "CHUNK_ELEMENTS", default_elements)
        default = probes(n, trials)
        assert default.shape == (10 * trials, n)
        for elements in (1, 7):
            monkeypatch.setattr(core, "CHUNK_ELEMENTS", elements)
            assert np.array_equal(probes(n, trials), default)


# Coarse values repeat within a block, so ties and runs of equal values are common.
BLOCK_VALUES = st.sampled_from([-10.0, -2.5, 0.0, 0.5, 3.0]) | st.floats(-10.0, 10.0)


@given(st.integers(2, 8).flatmap(lambda k: st.lists(
    st.lists(BLOCK_VALUES, min_size=k, max_size=k), min_size=1, max_size=4)))
@example([[1.5, 1.5, 1.5]])
def test_min_block_cost_is_each_blocks_exact_minimum(rows):
    costs = lemmas._min_block_cost(np.array(rows))
    assert costs.shape == (len(rows),)
    for row, cost in zip(rows, costs):
        assert cost == min(sum(abs(v - c) for v in row) for c in row)
        assert abs(cost - grid_min_block_cost(row)) <= 2e-3


def test_boundary_has_ties_catches_a_batch_form_without_ties(monkeypatch):
    check = check_boundary_has_ties(5, 30, np.random.default_rng(9))
    assert check.passed
    real_partition = lemmas.equality_partition

    def all_singletons(x, tol):  # the batch form loses every tie
        if np.ndim(x) == 2:
            return np.tile(np.arange(x.shape[1]), (len(x), 1))
        return real_partition(x, tol)

    monkeypatch.setattr(lemmas, "equality_partition", all_singletons)
    check = check_boundary_has_ties(5, 30, np.random.default_rng(9))
    assert check.violations == check.trials == 30


def test_partition_sampler_draws_a_block_of_five_and_the_all_equal_row():
    # A sampler that cuts blocks of at most 4 draws neither at n = 6, so no check
    # would see a stabilizer as large as S_5 or all of S_6.
    labels = lemmas._random_partition_labels(6, 500, np.random.default_rng(0))
    largest = {int(np.bincount(row).max()) for row in labels}  # each row's largest block
    assert {5, 6} <= largest


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_partition_sampler_law(n):
    # Frequencies of the batch sampler against the exact probabilities of its
    # small-integer draw, each within five binomial standard deviations.
    rows = 20_000
    law = random_partition_law(n)
    labels = lemmas._random_partition_labels(n, rows, np.random.default_rng(100 + n))
    assert labels.shape == (rows, n)
    counts = Counter(map(tuple, labels.tolist()))
    assert set(counts) <= set(law)  # every row is a partition the draw can give
    for row in counts:  # and names its partition in the Stabilizer.labels convention
        assert tuple(Stabilizer(lemmas._partition_of_labels(np.array(row))).labels) == row
    for row, p in law.items():
        bound = 5.0 * math.sqrt(rows * p * (1.0 - p))
        assert abs(counts[row] - rows * p) <= bound, (row, counts[row], rows * p)
