import numpy as np
import pytest

from symprod import lemmas
from symprod.diagonal import BlockPartition, Stabilizer
from symprod.errors import InputError
from symprod.lemmas import (
    DISPLACEMENT_EPSILONS,
    KNOWN_FAULTS,
    all_passed,
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


def test_injected_fault_is_caught():
    results = run_lemma_suite(n_values=(2, 3), trials=40, seed=0, fault="flip-displacement")
    assert not all_passed(results)
    broken = [r for r in results if not r.passed]
    assert broken
    assert all(r.name == "displacement-bound" for r in broken)
    untouched = [r for r in results if r.name != "displacement-bound"]
    assert all(r.passed for r in untouched)


def test_unknown_fault_rejected():
    with pytest.raises(InputError):
        run_lemma_suite(n_values=(2,), trials=5, seed=0, fault="no-such-fault")
    assert KNOWN_FAULTS == ("flip-displacement",)


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


@pytest.mark.parametrize("n", [2, 4, 6])
def test_stabilizer_minimality_catches_a_missing_block(monkeypatch, n):
    check = check_stabilizer_minimality(n, 30, np.random.default_rng(2))
    assert check.passed
    real_partition = lemmas.equality_partition
    monkeypatch.setattr(
        lemmas, "equality_partition", lambda x, tol: drop_first_block(real_partition(x, tol))
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
