import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (discriminant_winding, min_matching, reference_match,
                     sign_by_inversions, triu_gap)
from symprod import core, monodromy
from symprod.core import apply_perm, compose, is_perm
from symprod.errors import InputError, UndersampledLoopError
from symprod.metric import dist_bruteforce
from symprod.monodromy import (
    ComplexLoop,
    cycle_type,
    describe_cycles,
    disjoint_cycles,
    min_intra_gap,
    roots_loop_generator,
    track_loop,
)
from symprod.selection import canonicalize


# A loop step matched by search: the lexicographically smallest minimal-cost assignment.
def test_match_step_equal_tuples_is_identity():
    prev = np.array([1.0 + 0j, 3.0 + 1j, -2.0 - 1j])
    assert dist_bruteforce(prev, prev.copy()).attaining_perm == (0, 1, 2)


def test_match_step_frozen_swap():
    # costs: keep = |1+1.01| + |-1-1.01| = 4.02, swap = 0.01 + 0.01 = 0.02
    assert dist_bruteforce([1.0, -1.0], [-1.01, 1.01]).attaining_perm == (1, 0)


def test_match_step_small_perturbations_stay_identity():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        prev = rng.normal(size=n) + 1j * rng.normal(size=n)
        gap = min_intra_gap(prev.reshape(1, -1))
        delta = rng.normal(size=n) + 1j * rng.normal(size=n)
        delta *= (gap / 4) * rng.uniform(0, 0.99) / np.abs(delta).sum()
        assert dist_bruteforce(prev, prev + delta).attaining_perm == tuple(range(n))


def test_match_step_agrees_with_independent_matching():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        prev = rng.normal(size=n) + 1j * rng.normal(size=n)
        next_ = rng.normal(size=n) + 1j * rng.normal(size=n)
        _, oracle_perm = min_matching(prev, next_)
        assert dist_bruteforce(prev, next_).attaining_perm == oracle_perm


def test_match_step_dimension_mismatch():
    with pytest.raises(InputError):
        dist_bruteforce([1.0 + 0j], [1.0 + 0j, 2.0 + 0j])


def test_min_intra_gap():
    samples = np.array([[0.0 + 0j, 3.0 + 0j], [1.0 + 1j, 1.0 + 2j]])
    assert min_intra_gap(samples) == pytest.approx(1.0)  # |1+2j - (1+1j)|


def test_min_intra_gap_matches_all_pairs_formula(monkeypatch):
    rng = np.random.default_rng(47)
    cases = []
    for _ in range(60):
        n = int(rng.integers(1, 41))
        steps = int(rng.integers(1, 300))
        cases.append(rng.normal(size=(steps, n)) + 1j * rng.normal(size=(steps, n)))
    for samples in cases:
        assert min_intra_gap(samples) == triu_gap(samples)
    # chunks of one or a few samples still scan every pair
    monkeypatch.setattr(core, "CHUNK_ELEMENTS", 7)
    for samples in cases[:20]:
        assert min_intra_gap(samples) == triu_gap(samples)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    steps=st.integers(1, 8),
    line=st.sampled_from(["plane", "vertical", "horizontal"]),
    ties=st.booleans(),
    repeat=st.booleans(),
    huge=st.booleans(),
    chunk=st.sampled_from([1, 7, core.CHUNK_ELEMENTS]),
)
def test_min_intra_gap_sweep_equals_all_pairs_oracle(seed, n, steps, line, ties, repeat, huge,
                                                     chunk):
    rng = np.random.default_rng(seed)
    re, im = rng.normal(size=(2, steps, n))
    if ties:  # one decimal: many equal coordinates and equal distances
        re, im = re.round(1), im.round(1)
    if line == "vertical":  # every component of a sample shares its real part
        re[:] = re[:, :1]
    elif line == "horizontal":
        im[:] = im[:, :1]
    if huge:  # entries whose differences overflow
        re[rng.random(re.shape) < 0.2] = 1e308 * rng.choice([-1.0, 1.0])
    samples = re + 1j * im
    if repeat and n >= 2:  # a repeated component: the gap is 0
        samples[:, -1] = samples[:, 0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "CHUNK_ELEMENTS", chunk)
        assert min_intra_gap(samples) == triu_gap(samples)  # exact, inf included


def test_min_intra_gap_past_float_range_is_inf_without_a_warning():
    samples = np.array([[1e308, -1e308], [-1e308j, 1e308j], [1e308 + 1e308j, -1e308 - 1e308j]])
    assert min_intra_gap(samples) == triu_gap(samples) == math.inf


def test_constant_loop_identity_holonomy():
    loop = ComplexLoop(samples=np.tile([1.0 + 0j, 2.0 + 0j, 3.0 + 0j], (16, 1)))
    h = track_loop(loop)
    assert h.permutation == (0, 1, 2)
    assert h.permutation == tuple(range(len(h.permutation)))
    assert h.total_path_cost == pytest.approx(0.0)


def test_square_roots_give_transposition():
    h = track_loop(roots_loop_generator(2, 256))
    assert h.permutation == (1, 0)
    assert h.permutation != tuple(range(len(h.permutation)))
    assert cycle_type(h.permutation) == (2,)
    # one full turn of the base point moves each root half a turn, so the
    # summed matching cost approaches the circle's circumference
    assert h.total_path_cost == pytest.approx(2 * np.pi, rel=1e-3)


def test_cube_roots_give_three_cycle():
    h = track_loop(roots_loop_generator(3, 512))
    assert cycle_type(h.permutation) == (3,)


def test_refinement_preserves_cycle_type():
    for k, steps in ((2, 256), (3, 512), (4, 512)):
        coarse = track_loop(roots_loop_generator(k, steps))
        fine = track_loop(roots_loop_generator(k, steps * 2))
        assert cycle_type(coarse.permutation) == (k,)
        assert cycle_type(fine.permutation) == cycle_type(coarse.permutation)


def test_nontrivial_holonomy_permutes_any_consistent_labeling():
    loop = roots_loop_generator(2, 256)
    h = track_loop(loop)
    labels = list(range(loop.tuple_n))
    perm = tuple(range(loop.tuple_n))
    for j in range(loop.step_count):
        step = reference_match(loop.samples[j], loop.samples[(j + 1) % loop.step_count])
        perm = compose(step, perm)
    assert perm == h.permutation
    assert [labels[i] for i in perm] != labels  # labeling comes back permuted


def test_roots_generator_sample_shape_and_value():
    loop = roots_loop_generator(2, 256)
    assert loop.samples.shape == (256, 2)
    theta = 2 * np.pi * np.arange(256) / 256
    # every sample solves w^2 = e^(i theta)
    assert np.allclose(loop.samples**2, np.exp(1j * theta)[:, None], atol=1e-12)


def test_roots_generator_sample0_cube_roots_of_unity():
    loop = roots_loop_generator(3, 64)
    expected = {1.0 + 0j, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)}
    got = set(loop.samples[0])
    assert all(min(abs(g - e) for e in expected) < 1e-12 for g in got)
    assert len(got) == 3


@pytest.mark.parametrize("k,radius", [(2, 1.0), (3, 1.0), (4, 2.5), (5, 0.3)])
def test_roots_generator_vieta_product(k, radius):
    steps = 16 * k
    loop = roots_loop_generator(k, steps, radius=radius)
    theta = 2 * np.pi * np.arange(steps) / steps
    expected = (-1.0) ** (k + 1) * radius * np.exp(1j * theta)
    assert np.allclose(np.prod(loop.samples, axis=1), expected, atol=1e-9)


def test_roots_generator_rejects_fewer_than_two_steps():
    for steps in (-4, 0, 1):
        with pytest.raises(InputError):
            roots_loop_generator(3, steps)


def test_roots_generator_rejects_small_k_or_steps():
    with pytest.raises(InputError):
        roots_loop_generator(1, 64)
    with pytest.raises(UndersampledLoopError) as exc_info:
        roots_loop_generator(3, 23)
    assert exc_info.value.suggested_steps == 24


def test_track_loop_detects_undersampling():
    # 4 samples for square roots: consecutive jumps are comparable to the
    # intra-tuple gap, so the minimal matching is ambiguous
    theta = 2 * np.pi * np.arange(4) / 4
    samples = np.stack([np.exp(1j * theta / 2), -np.exp(1j * theta / 2)], axis=1)
    with pytest.raises(UndersampledLoopError) as exc_info:
        track_loop(ComplexLoop(samples=samples))
    assert exc_info.value.suggested_steps is not None
    assert exc_info.value.suggested_steps > 4


@pytest.mark.parametrize("k, engine, message, suggested", [
    (3, "dist_bruteforce",
     "consecutive matching distance 2.05212 is not below half the minimal intra-tuple gap "
     "(0.866025); try about 10 steps", 10),
    (12, "dist_assignment",
     "consecutive matching distance 0.523557 is not below half the minimal intra-tuple gap "
     "(0.258819); try about 32 steps", 32),
])
def test_a_refused_step_is_priced_by_the_engine_for_its_size(k, engine, message, suggested,
                                                             monkeypatch):
    # k samples of the k-th roots loop: each step turns every root by 2*pi/k**2.
    # The engine is looked up on the module when the step is refused, so a patch there sees it.
    called = []
    for name in ("dist_bruteforce", "dist_assignment"):
        real = getattr(monodromy, name)
        monkeypatch.setattr(monodromy, name,
                            lambda y, z, real=real, name=name: called.append(name) or real(y, z))
    turn = 2 * np.pi * (np.arange(k)[:, np.newaxis] / k + np.arange(k)) / k
    with pytest.raises(UndersampledLoopError) as caught:
        track_loop(ComplexLoop(samples=np.exp(1j * turn)))
    assert str(caught.value) == "undersampled loop: " + message
    assert caught.value.suggested_steps == suggested
    assert called == [engine]


def test_track_loop_rejects_colliding_components():
    samples = np.tile([1.0 + 0j, 1.0 + 0j], (8, 1))
    with pytest.raises(UndersampledLoopError):
        track_loop(ComplexLoop(samples=samples))


def test_real_loop_identity_holonomy_and_sorted_cross_check():
    # Real-valued loop: two components oscillate but never collide.
    theta = 2 * np.pi * np.arange(64) / 64
    low = np.cos(theta) - 3.0
    high = np.sin(theta) + 3.0
    samples = np.stack([high, low], axis=1).astype(complex)  # stored unsorted
    h = track_loop(ComplexLoop(samples=samples))
    assert h.permutation == tuple(range(len(h.permutation)))

    # cross-check: sorted labels step by step never swap either
    for j in range(64):
        a = canonicalize(samples[j].real)
        b = canonicalize(samples[(j + 1) % 64].real)
        assert reference_match(a.astype(complex), b.astype(complex)) == (0, 1)


def test_eigenvalue_family_loop_is_identity():
    # spectra of [[cos t, sin t], [sin t, -cos t]] stay {-1, +1}
    theta = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    samples = np.tile([-1.0 + 0j, 1.0 + 0j], (32, 1))
    assert samples.shape == (theta.size, 2)
    h = track_loop(ComplexLoop(samples=samples))
    assert h.permutation == tuple(range(len(h.permutation)))
    assert h.total_path_cost == 0.0


def test_holonomy_permutation_is_valid():
    for k in (2, 3, 4):
        h = track_loop(roots_loop_generator(k, 64 * k))
        assert is_perm(h.permutation)
        assert h.total_path_cost >= 0.0


def test_complex_loop_validation():
    with pytest.raises(InputError):
        ComplexLoop(samples=np.zeros((1, 3), dtype=complex))  # needs >= 2 samples
    with pytest.raises(InputError):
        ComplexLoop(samples=np.array([[np.nan + 0j, 1], [0, 1]]))


def test_disjoint_cycles_and_type():
    assert disjoint_cycles((1, 0, 2)) == [(0, 1), (2,)]
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type((0, 1, 2)) == (1, 1, 1)


def test_describe_cycles():
    assert describe_cycles((0, 1, 2)) == "identity"
    assert "2-cycle" in describe_cycles((1, 0))
    desc = describe_cycles((1, 2, 0, 4, 3))
    assert "(0 1 2)" in desc and "(3 4)" in desc


def test_apply_perm_consistency_of_holonomy():
    # Tracking re-labels components: sample0 relabeled by the holonomy must
    # pair each component with where it actually arrived after one turn.
    loop = roots_loop_generator(2, 256)
    h = track_loop(loop)
    start = loop.samples[0]
    relabeled = apply_perm(h.permutation, start)
    assert np.allclose(np.sort_complex(relabeled), np.sort_complex(start))
    assert not np.allclose(relabeled, start)  # genuinely permuted


def reference_track(samples):
    """Optimal matching step by step, costs summed in step order.

    Returns ("accepted", permutation, total, margin, worst_step) or
    ("rejected", message, suggested_steps), following the tracking rule:
    a step is refused when its minimal cost is not below half the gap.
    """
    m = samples.shape[0]
    gap = min_intra_gap(samples)
    perm = tuple(range(samples.shape[1]))
    total, worst, costs = 0.0, 0.0, []
    for i in range(m):
        prev, next_ = samples[i], samples[(i + 1) % m]
        step = reference_match(prev, next_)
        value = float(np.abs(prev - next_[list(step)]).sum())
        worst = max(worst, value)
        if value >= 0.5 * gap:
            suggested = int(math.ceil(m * (worst / (0.5 * gap)) * 1.25)) + 1
            message = (
                f"undersampled loop: consecutive matching distance {value:.6g} "
                f"is not below half the minimal intra-tuple gap ({0.5 * gap:.6g}); "
                f"try about {suggested} steps"
            )
            return ("rejected", message, suggested)
        total += value
        costs.append(value)
        perm = compose(step, perm)
    worst_step = int(np.argmax(costs))
    return ("accepted", perm, total, costs[worst_step] / (0.5 * gap), worst_step)


def is_identity_perm(perm) -> bool:
    return list(perm) == sorted(perm)


def tracked(samples):
    try:
        h = track_loop(ComplexLoop(samples=samples))
    except UndersampledLoopError as exc:
        return ("rejected", str(exc), exc.suggested_steps)
    return ("accepted", h.permutation, h.total_path_cost, h.margin, h.worst_step)


def assert_tracks_like_reference(samples, monkeypatch):
    expected = reference_track(samples)
    assert tracked(samples) == expected
    # the same result when every chunk holds a single step or just a few
    for elements in (1, 3 * samples.shape[1] ** 2 + 1):
        with monkeypatch.context() as patch:
            patch.setattr(core, "CHUNK_ELEMENTS", elements)
            assert tracked(samples) == expected
    return expected


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 64])
def test_track_loop_matches_stepwise_reference_on_roots_loops(k, monkeypatch):
    for steps in (8 * k, 16 * k, 64 * k):
        kind, perm, total, margin, _ = assert_tracks_like_reference(
            roots_loop_generator(k, steps).samples, monkeypatch
        )
        assert kind == "accepted"
        assert cycle_type(perm) == (k,)
        assert 0.0 < margin < 1.0


def polynomial_roots(coeffs) -> np.ndarray:
    """Each row's roots of z**k + c_1 z**(k-1) + ... + c_k, in np.roots's order.

    One batched eigvals call on the companion matrices that np.roots builds.
    """
    m, k = coeffs.shape
    companion = np.zeros((m, k, k), dtype=complex)
    companion[:, 1:, :-1] = np.eye(k - 1)
    companion[:, 0, :] = -coeffs
    return np.linalg.eigvals(companion)


def test_holonomy_sign_is_the_discriminant_winding_parity():
    """sign(holonomy) == (-1)**w, w from the discriminant's phase alone: no matching."""
    rng = np.random.default_rng(33)
    steps = 2048
    turn = np.exp(2j * np.pi * np.arange(steps) / steps)[:, np.newaxis]
    parities, skipped = {1: 0, -1: 0}, 0
    for _ in range(30):
        k = int(rng.integers(2, 9))
        c0, a = rng.normal(size=(2, k, 2)) @ np.array([1.0, 1j])  # complex k-vectors
        samples = polynomial_roots(c0 + a * turn)  # c(t) = c0 + a e^{it}
        assert np.array_equal(samples[0], np.roots(np.r_[1.0, c0 + a]))
        winding, largest_step = discriminant_winding(samples)
        relabelled = rng.permuted(samples, axis=1)  # each sample's components at random
        if largest_step >= 0.5 * np.pi:
            skipped += 1
            continue
        try:
            signs = [sign_by_inversions(track_loop(ComplexLoop(s)).permutation)
                     for s in (samples, relabelled)]
        except UndersampledLoopError:
            skipped += 1
            continue
        assert signs == [(-1) ** winding] * 2, (k, winding)
        parities[(-1) ** winding] += 1
    assert skipped <= 5
    assert min(parities.values()) >= 5, parities


def random_closed_walk(rng) -> np.ndarray:
    """A closed random walk of n complex points, each sample stored shuffled.

    Half of the walks ride on n points circling their centre by one n-th of
    a turn, so their holonomy is an n-cycle.  The step scale spans three
    decades, so many walks are undersampled.
    """
    n = int(rng.integers(2, 12))
    steps = int(rng.integers(3, 65))
    moves = rng.normal(size=(steps, n)) + 1j * rng.normal(size=(steps, n))
    moves *= 10 ** rng.uniform(-3.0, 0.5)
    moves -= moves.mean(axis=0)
    walk = np.cumsum(moves, axis=0)
    if rng.random() < 0.5:
        turn = (np.arange(steps)[:, np.newaxis] / steps + np.arange(n)) / n
        walk += n * np.exp(2j * np.pi * turn)
    else:
        walk += n * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return rng.permuted(walk, axis=1)


def test_track_loop_matches_stepwise_reference_on_random_walks(monkeypatch):
    rng = np.random.default_rng(53)
    results = [assert_tracks_like_reference(random_closed_walk(rng), monkeypatch) for _ in range(300)]
    accepted = [r for r in results if r[0] == "accepted"]
    # both outcomes, and nontrivial holonomy among the accepted, are well represented
    assert len(accepted) >= 60
    assert len(results) - len(accepted) >= 60
    assert sum(not is_identity_perm(r[1]) for r in accepted) >= 30


def stored_order_costs(samples) -> np.ndarray:
    """Each step's cost with every component matched to the one stored at its own index."""
    return np.array([np.abs(samples[i] - samples[(i + 1) % len(samples)]).sum()
                     for i in range(len(samples))])


@pytest.mark.parametrize("k", [2, 3, 5, 8, 16, 64])
def test_track_loop_matches_stepwise_reference_on_partly_shuffled_roots_loops(k, monkeypatch):
    # Storage reshuffled at a few samples: the steps into and out of them need
    # the search, every other step is certified by its stored order.
    rng = np.random.default_rng(59 + k)
    for steps in (8 * k, 16 * k):
        samples = roots_loop_generator(k, steps).samples.copy()
        for j in rng.choice(steps, size=3, replace=False):
            samples[j] = samples[j, rng.permutation(k)]
        quarter_gap = 0.25 * min_intra_gap(samples)
        costs = stored_order_costs(samples)
        assert (costs < quarter_gap).any() and (costs >= quarter_gap).any()
        kind, perm, _, margin, _ = assert_tracks_like_reference(samples, monkeypatch)
        assert kind == "accepted"
        assert cycle_type(perm) == (k,)
        assert 0.0 < margin < 1.0


def rotating_polygon(rng) -> np.ndarray:
    """A regular n-gon turning one n-th of a turn at an uneven pace.

    The pace swings by up to 80% around its mean, and the mean step is a few
    n-ths of the gap, so a loop's step costs spread over both sides of gap/4
    and some reach gap/2.
    """
    n = int(rng.integers(2, 11))
    steps = int(rng.uniform(2.5, 6.0) * n) + 3
    swing = rng.uniform(0.3, 0.8)
    t = np.arange(steps) / steps
    phase = rng.uniform(0.0, 2.0 * np.pi)
    pace = swing * (np.sin(2.0 * np.pi * t + phase) - np.sin(phase)) / (2.0 * np.pi)
    angle = 2.0 * np.pi / n * (t + pace)
    radius = 10 ** rng.uniform(-3.0, 3.0)
    corners = 2.0 * np.pi * np.arange(n) / n
    return radius * np.exp(1j * (angle[:, np.newaxis] + corners))


def test_track_loop_matches_stepwise_reference_between_a_quarter_and_half_the_gap(monkeypatch):
    rng = np.random.default_rng(61)
    mixed = 0
    outcomes = set()
    for _ in range(120):
        samples = rotating_polygon(rng)
        n = samples.shape[1]
        gap = min_intra_gap(samples)
        costs = stored_order_costs(samples)
        kind, perm, *_ = assert_tracks_like_reference(samples, monkeypatch)
        outcomes.add(kind)
        window = (costs >= 0.25 * gap) & (costs < 0.5 * gap)
        if kind == "accepted":
            assert cycle_type(perm) == (n,)
            mixed += bool(window.any() and (costs < 0.25 * gap).any())
    # accepted loops whose searched steps lie in [gap/4, gap/2) among certified ones
    assert mixed >= 30
    assert outcomes == {"accepted", "rejected"}


def test_track_loop_memory_is_linear_in_the_loop():
    # The n x n cost matrices of a chunk of steps took 32 MB here; only the
    # searched steps build them now, so the peak stays near the 2 MB of samples.
    loop = roots_loop_generator(64, 2048)
    tracemalloc.start()
    try:
        holonomy = track_loop(loop)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cycle_type(holonomy.permutation) == (64,)
    assert peak_bytes < 8 * 2**20
