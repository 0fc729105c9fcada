import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracles import random_partition_law
from symprod import core, lemmas
from symprod.diagonal import BlockPartition, Stabilizer, _partition_of_labels
from symprod.errors import InputError
from symprod.lemmas import (
    DISPLACEMENT_EPSILONS,
    all_passed,
    check_boundary_has_ties,
    check_diagonal_distance_closed_form,
    check_displacement_bound,
    check_exterior_openness,
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


def test_suite_is_deterministic_for_a_seed():
    a = run_lemma_suite(n_values=(2, 3), trials=40, seed=9)
    b = run_lemma_suite(n_values=(2, 3), trials=40, seed=9)
    assert [(r.name, r.n, r.trials, r.violations, r.detail) for r in a] == [
        (r.name, r.n, r.trials, r.violations, r.detail) for r in b
    ]


def test_displacement_bound_counts_all_epsilons():
    rng = np.random.default_rng(0)
    check = check_displacement_bound(4, 30, rng)
    assert check.trials == 30 * len(DISPLACEMENT_EPSILONS)
    assert check.violations == 0


def list_a_foreign_permutation(monkeypatch):
    """List the n-cycle in place of each stabilizer's last element.

    The n-cycle lies in no stabilizer but S_n's.  The number of elements
    stays, so of the suite's checks only displacement-bound can see it.
    """
    listed = Stabilizer.elements.fget
    monkeypatch.setattr(Stabilizer, "elements", property(
        lambda stab: listed(stab)[:-1] + ((*range(1, stab.partition.n), 0),)
    ))


def test_injected_fault_is_caught(monkeypatch):
    list_a_foreign_permutation(monkeypatch)
    results = run_lemma_suite(n_values=(2, 3), trials=40, seed=0)
    assert not all_passed(results)
    broken = [r for r in results if not r.passed]
    assert broken
    assert all(r.name == "displacement-bound" for r in broken)
    untouched = [r for r in results if r.name != "displacement-bound"]
    assert all(r.passed for r in untouched)


def test_n_values_validated_and_deduplicated():
    results = run_lemma_suite(n_values=(3, 2, 3), trials=10, seed=0)
    assert [r.n for r in results[:: len(CHECK_NAMES)]] == [2, 3]
    with pytest.raises(InputError):
        run_lemma_suite(n_values=(1,), trials=10, seed=0)
    with pytest.raises(InputError):
        run_lemma_suite(n_values=(), trials=10, seed=0)


def test_exterior_openness_standalone():
    rng = np.random.default_rng(11)
    check = check_exterior_openness(5, 40, rng)
    assert check.passed
    assert check.trials == 40 * 10  # 10 probes per sampled vector


def test_check_fields_are_reportable():
    results = run_lemma_suite(n_values=(2,), trials=10, seed=3)
    for r in results:
        assert isinstance(r.detail, str)
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
    listed = Stabilizer.elements.fget
    monkeypatch.setattr(Stabilizer, "elements", property(lambda stab: listed(stab)[:-1]))
    check = check_stabilizer_order(4, 30, np.random.default_rng(4))
    assert check.violations == check.trials == 30


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


def test_closed_form_check_catches_a_shifted_distance(monkeypatch):
    real_distance = lemmas.dist_to_diagonal
    monkeypatch.setattr(lemmas, "dist_to_diagonal", lambda x, p: real_distance(x, p) + 0.01)
    check = check_diagonal_distance_closed_form(4, 20, np.random.default_rng(7))
    assert check.violations == check.trials == 20


def test_batched_checks_do_not_depend_on_the_chunk_size(monkeypatch):
    def table():
        results = run_lemma_suite(n_values=(2, 3, 4), trials=25, seed=5, grid_trials=6)
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
    # one distance call per distinct partition and epsilon (or grid batch): n = 2 has one
    # possible partition, n = 3 has four, and four batches per n use them
    assert few["dist_to_diagonal"] <= 4 * (1 + 4)
    assert many["dist_to_diagonal"] <= 4 * (1 + 4)
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
        exterior = lemmas._random_exterior_vectors(n, 40, rng)
        assert np.all(np.any(np.diff(exterior, axis=1) < 0, axis=1))
        boundary = lemmas._random_boundary_vectors(n, 40, rng)
        steps = np.diff(boundary, axis=1)
        assert np.all(steps >= 0)
        ties = np.count_nonzero(steps == 0, axis=1)
        assert np.all(ties >= 1)
        tie_counts.update(ties.tolist())
    assert tie_counts == set(range(1, n))  # every tie count from 1 to n - 1 is drawn


def test_exterior_sampler_gives_up_after_100_draws():
    class SortedDraws:
        draws = 0

        def uniform(self, lo, hi, size):
            self.draws += 1
            return np.sort(np.random.default_rng(self.draws).uniform(lo, hi, size=size), axis=1)

    rng = SortedDraws()
    with pytest.raises(AssertionError, match="could not sample an out-of-order vector"):
        lemmas._random_exterior_vectors(3, 5, rng)
    assert rng.draws == 100


def test_batched_grid_oracle_equals_the_old_layout():
    rng = np.random.default_rng(12)
    grid = np.arange(-10.0, 10.0 + 1e-3, 1e-3)
    checked = 0
    for n in (2, 3, 4, 5, 6):
        partitions = [_partition_of_labels(lemmas._random_partition_labels(n, 1, rng)[0])
                      for _ in range(8)]
        x = rng.uniform(-10.0, 10.0, size=(8, n))
        for partition in partitions:
            for block in partition.blocks:
                values = x[:, list(block)]
                batched = lemmas.grid_min_block_cost(values, -10.0, 10.0, 1e-3)
                old = [float(np.abs(v[np.newaxis, :] - grid[:, np.newaxis]).sum(axis=1).min())
                       for v in values]
                assert batched.tolist() == old
                assert lemmas.grid_min_block_cost(values[0], -10.0, 10.0, 1e-3) == old[0]
                checked += len(old)
    assert checked >= 40


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_partition_sampler_law(n):
    # Frequencies of the batch sampler against the exact probabilities of the
    # decision tree, each within five binomial standard deviations.
    rows = 20_000
    law = random_partition_law(n)
    labels = lemmas._random_partition_labels(n, rows, np.random.default_rng(100 + n))
    assert labels.shape == (rows, n)
    counts = Counter(map(tuple, labels.tolist()))
    assert set(counts) <= set(law)  # every row is a partition the tree can draw
    for row in counts:  # and names its partition in the Stabilizer.labels convention
        assert tuple(Stabilizer(lemmas._partition_of_labels(np.array(row))).labels) == row
    for row, p in law.items():
        bound = 5.0 * math.sqrt(rows * p * (1.0 - p))
        assert abs(counts[row] - rows * p) <= bound, (row, counts[row], rows * p)
