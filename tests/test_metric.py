import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import symprod
from oracles import min_matching, min_matching_cost
from symprod.core import apply_perm, enumerate_perms
from symprod.errors import CapExceededError, InputError
from symprod.metric import (
    UnorderedTuple,
    _stable_argsort,
    dist,
    dist_assignment,
    dist_bruteforce,
    dist_sorted,
    engine_names,
    l1_norm,
)

ALL_ENGINES = (dist_bruteforce, dist_sorted, dist_assignment)


def real_tuples(n):
    return hnp.arrays(np.float64, n, elements=st.floats(-100, 100, width=64))


def test_l1_norm_examples():
    assert l1_norm([0.0, 0.0, 0.0]) == 0.0
    assert l1_norm([1.0, -2.0]) == 3.0
    assert l1_norm([-5.0]) == 5.0
    assert l1_norm([1.0, -np.inf]) == np.inf


def test_l1_norm_of_integers_does_not_wrap_around():
    # Summed in their own dtype, these came back as -2**63 and -128.
    assert l1_norm(np.array([2**62, 2**62])) == 9.223372036854776e18
    assert l1_norm([-2**63]) == 9.223372036854776e18
    assert l1_norm(np.array([-128], dtype=np.int8)) == 128.0
    assert l1_norm(np.array([2**64 - 1, 1], dtype=np.uint64)) == 2.0**64
    assert l1_norm(np.array([True, False, True])) == 2.0


@pytest.mark.parametrize(
    "bad",
    ["ab", ["a", 1], np.array(["a", "b"], dtype=object), [[1.0], [1.0, 2.0]]],
    ids=["str", "mixed-list", "object-strings", "ragged"],
)
def test_l1_norm_refuses_non_numbers(bad):
    with pytest.raises(InputError):
        l1_norm(bad)


def test_bruteforce_same_class_is_zero():
    assert dist_bruteforce([1.0, 2.0], [2.0, 1.0]).value == 0.0


def test_bruteforce_all_pairings_equal():
    r = dist_bruteforce([0.0, 0.0], [1.0, 1.0])
    assert r.value == 2.0
    assert r.attaining_perm == (0, 1)  # tie broken toward the lex-smallest


def test_bruteforce_identity_beats_swap():
    # pairing 1-2 and 5-3 costs 3; the crossed pairing 1-3, 5-2 costs 5
    r = dist_bruteforce([1.0, 5.0], [2.0, 3.0])
    assert r.value == 3.0
    assert r.attaining_perm == (0, 1)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_engines_agree_on_frozen_example(engine):
    assert engine([1.0, 5.0], [2.0, 3.0]).value == 3.0


def test_distance_names_the_engine_that_computed_it():
    real, cplx = ([1.0, 5.0], [2.0, 3.0]), ([1 + 2j, 0j], [0j, 1 + 2j])
    for name in engine_names():
        assert dist(*real, engine=name).engine == name
    assert [engine(*real).engine for engine in ALL_ENGINES] == ["brute", "sorted", "assignment"]
    assert dist(*real).engine == "sorted"
    assert dist(*cplx).engine == "assignment"
    assert repr(dist(*real)) == "Distance(value=3.0, attaining_perm=(0, 1), engine='sorted')"


def test_sorted_identical_classes():
    rng = np.random.default_rng(3)
    y = rng.uniform(-10, 10, size=6)
    z = y[rng.permutation(6)]
    assert dist_sorted(y, z).value == 0.0


def test_sorted_matches_bruteforce_randomized():
    rng = np.random.default_rng(11)
    for n in range(2, 8):
        for _ in range(100):
            y = rng.uniform(-10, 10, size=n)
            z = rng.uniform(-10, 10, size=n)
            assert abs(dist_sorted(y, z).value - dist_bruteforce(y, z).value) <= 1e-9


def test_assignment_matches_bruteforce_real():
    rng = np.random.default_rng(13)
    for n in range(2, 8):
        for _ in range(50):
            y = rng.uniform(-10, 10, size=n)
            z = rng.uniform(-10, 10, size=n)
            assert abs(dist_assignment(y, z).value - dist_bruteforce(y, z).value) <= 1e-9


def test_assignment_complex_equal_multisets():
    assert dist_assignment([1j, -1j], [-1j, 1j]).value == 0.0


def test_assignment_complex_against_enumeration():
    rng = np.random.default_rng(17)
    for n in range(2, 8):
        for _ in range(30):
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert abs(dist_assignment(y, z).value - min_matching_cost(y, z)) <= 1e-9


def test_bruteforce_matches_independent_enumeration():
    rng = np.random.default_rng(19)
    for n in range(2, 6):
        y = rng.uniform(-10, 10, size=n)
        z = rng.uniform(-10, 10, size=n)
        value, perm = min_matching(y, z)
        r = dist_bruteforce(y, z)
        assert r.value == pytest.approx(value, abs=0)
        assert r.attaining_perm == perm


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_attaining_perm_attains_value(engine):
    rng = np.random.default_rng(23)
    for n in (2, 4, 7):
        y = rng.uniform(-10, 10, size=n)
        z = rng.uniform(-10, 10, size=n)
        r = engine(y, z)
        assert l1_norm(y - apply_perm(r.attaining_perm, z)) == pytest.approx(r.value, abs=1e-12)


def test_singleton_tuples():
    assert dist([3.0], [5.0]).value == 2.0
    assert dist_bruteforce([3.0], [5.0]).attaining_perm == (0,)


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(real_tuples(n), real_tuples(n))))
def test_symmetry(pair):
    y, z = pair
    assert abs(dist(y, z).value - dist(z, y).value) <= 1e-12


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(real_tuples(n), real_tuples(n), real_tuples(n))
    )
)
def test_triangle_inequality(triple):
    x, y, z = triple
    assert dist(x, z).value <= dist(x, y).value + dist(y, z).value + 1e-9


@given(st.integers(2, 5).flatmap(lambda n: st.tuples(real_tuples(n), real_tuples(n))))
def test_identity_of_indiscernibles(pair):
    y, z = pair
    d = dist(y, z).value
    classes_equal = UnorderedTuple(y) == UnorderedTuple(z)
    if classes_equal:
        assert d <= 1e-12
    if d <= 1e-12:
        assert np.allclose(np.sort(y), np.sort(z), atol=1e-12)
    assert d >= 0.0


def test_well_definedness_under_relabeling():
    rng = np.random.default_rng(29)
    for n in range(2, 7):
        y = rng.uniform(-10, 10, size=n)
        z = rng.uniform(-10, 10, size=n)
        base = dist(y, z).value
        for _ in range(20):
            s, t = tuple(rng.permutation(n).tolist()), tuple(rng.permutation(n).tolist())
            assert dist(apply_perm(s, y), apply_perm(t, z)).value == pytest.approx(
                base, abs=1e-12
            )


def test_perm_invariance_exhaustive_small():
    y = np.array([0.3, -1.2, 4.0])
    z = np.array([1.1, 0.0, -2.5])
    base = dist_bruteforce(y, z).value
    for s in enumerate_perms(3):
        for t in enumerate_perms(3):
            assert dist_bruteforce(apply_perm(s, y), apply_perm(t, z)).value == pytest.approx(
                base, abs=1e-12
            )


def test_unordered_tuple_canonical_and_equality():
    a = UnorderedTuple([3.0, 1.0, 2.0])
    b = UnorderedTuple([2.0, 3.0, 1.0])
    assert np.array_equal(a.canonical, [1.0, 2.0, 3.0])
    assert a == b
    assert hash(a) == hash(b)
    assert a != UnorderedTuple([1.0, 2.0, 4.0])
    assert a.n == 3
    with pytest.raises(ValueError):
        a.canonical[0] = 99.0  # canonical representative is frozen


def test_unordered_tuple_rejects_bad_input():
    with pytest.raises(InputError):
        UnorderedTuple([])
    with pytest.raises(InputError):
        UnorderedTuple([1.0, float("nan")])


def test_dist_accepts_unordered_tuples():
    assert dist(UnorderedTuple([1.0, 5.0]), UnorderedTuple([2.0, 3.0])).value == 3.0


def test_dimension_mismatch():
    for engine in ALL_ENGINES:
        with pytest.raises(InputError):
            engine([1.0, 2.0], [1.0, 2.0, 3.0])


def test_bruteforce_cap():
    rng = np.random.default_rng(31)
    with pytest.raises(CapExceededError):
        dist_bruteforce(rng.normal(size=9), rng.normal(size=9))


def test_bruteforce_cap_has_one_message():
    with pytest.raises(CapExceededError) as excinfo:
        dist_bruteforce(np.arange(9.0), np.arange(9.0))
    assert str(excinfo.value) == "brute force too large: n = 9 exceeds cap 8 (9! permutations)"


# Finite components whose distance overflows float64: every pairing's cost
# overflows, or only some pairings' costs do and the rest overflow their sum.
OVERFLOWING_PAIRS = {
    "real-every-pairing": ([1e308, 1e308], [-1e308, -1e308]),
    "real-some-pairings": ([1e308, 0.0], [-1e308, 0.0]),
    "complex-every-pairing": ([1e308 + 1e308j] * 2, [-1e308 - 1e308j] * 2),
    "complex-some-pairings": ([1e308 + 1e308j, 0.0], [-1e308 + 0j, 0.0]),
}


@pytest.mark.parametrize(
    "engine, pair",
    [
        pytest.param(engine, pair, id=f"{engine.__name__}-{name}")
        for name, pair in OVERFLOWING_PAIRS.items()
        for engine in ALL_ENGINES
        if not (engine is dist_sorted and name.startswith("complex"))
    ],
)
def test_overflowing_distance_is_input_error(engine, pair):
    y, z = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        with pytest.raises(InputError, match="overflows float64"):
            engine(y, z)


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda f: f.__name__)
def test_largest_finite_distances_are_unchanged(engine):
    assert engine([8e307, 0.0], [-8e307, 0.0]).value == 1.6e308
    assert engine([1e308, -1e308], [-1e308, 1e308]).value == 0.0
    if engine is not dist_sorted:
        assert engine([1e308 + 0j, 0.0], [0.0, -5e307 + 0j]).value == 1.5e308


def test_sorted_rejects_complex():
    with pytest.raises(InputError):
        dist_sorted([1j, 0], [0, 1j])


def test_dispatcher():
    assert dist([1.0, 5.0], [2.0, 3.0], engine="auto").value == 3.0
    assert dist([1j, -1j], [-1j, 1j], engine="auto").value == 0.0
    assert dist([1.0, 5.0], [2.0, 3.0], engine="brute").value == 3.0
    with pytest.raises(InputError):
        dist([1.0], [1.0], engine="hungarian")
    assert engine_names() == ["assignment", "brute", "sorted"]


@settings(max_examples=50)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(real_tuples(n), real_tuples(n))))
def test_sorted_equals_brute_hypothesis(pair):
    y, z = pair
    assert abs(dist_sorted(y, z).value - dist_bruteforce(y, z).value) <= 1e-9


def test_scipy_loads_only_with_the_assignment_engine():
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "import symprod, symprod.cli\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "rng = np.random.default_rng(59)\n"
        "y, z = (rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(2))\n"
        "d = symprod.dist_assignment(y, z)\n"
        "print(json.dumps([before, [[v.real, v.imag] for v in (*y, *z)], d.value, d.attaining_perm]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(symprod.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded_at_import, pairs, value, perm = json.loads(out.stdout)
    assert loaded_at_import is False
    points = np.array([complex(a, b) for a, b in pairs])
    oracle_value, oracle_perm = min_matching(points[:6], points[6:])
    assert value == pytest.approx(oracle_value, rel=1e-12)
    assert tuple(perm) == oracle_perm


def _python(code, *args) -> bytes:
    """Stdout of ``code`` run in a fresh interpreter that imports this checkout's symprod."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(symprod.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env,
                          check=True, timeout=300).stdout


def test_assignment_engine_loads_the_solver_module_not_scipy_optimize():
    code = (
        "import json, sys\n"
        "import symprod\n"
        "symprod.dist_assignment([1j, 2.0, -1.0], [2.0, -1j, 0.5])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "solver = sys.modules['scipy.optimize._lsap'].linear_sum_assignment\n"
        "import scipy.optimize\n"
        "print(json.dumps([loaded, scipy.optimize.linear_sum_assignment is solver]))\n"
    )
    loaded, reused = json.loads(_python(code))
    assert "scipy.optimize" not in loaded and "scipy.optimize._lsap" in loaded, loaded
    assert reused is True


def test_installed_scipy_takes_the_direct_solver_route():
    # With the package import blocked, the public fallback raises ImportError.
    code = (
        "import sys\n"
        "sys.modules['scipy.optimize'] = None\n"
        "import symprod\n"
        "print(symprod.dist_assignment([1j, 2.0, -1.0], [2.0, -1j, 0.5]).attaining_perm)\n"
    )
    assert _python(code).strip() == b"(2, 0, 1)"


# Makes the solver's spec lookup find nothing, as on a scipy laid out differently.
FORCE_FALLBACK = (
    "import importlib.util\n"
    "find_spec = importlib.util.find_spec\n"
    "importlib.util.find_spec = lambda name, package=None: "
    "None if name == 'scipy' else find_spec(name, package)\n"
)

ASSIGNMENT_PAIRS = (
    "import json, sys\n"
    "import numpy as np\n"
    "from symprod.metric import dist_assignment\n"
    "rng = np.random.default_rng(83)\n"
    "out = []\n"
    "for i in range(200):\n"
    "    n = int(rng.integers(1, 61))\n"
    "    parts = rng.integers(-3, 4, size=(4, n)) / 2 if i % 4 < 2 else rng.normal(size=(4, n))\n"
    "    y, z = (parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]) if i % 2 else parts[:2]\n"
    "    d = dist_assignment(y, z)\n"
    "    out.append([d.value, d.attaining_perm, d.engine])\n"
    "print(json.dumps(['scipy.optimize' in sys.modules, out]))\n"
)

CLI_MAIN = "import sys\nfrom symprod.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def test_forced_fallback_solver_gives_the_same_answers(tmp_path):
    direct_loaded, direct = json.loads(_python(ASSIGNMENT_PAIRS))
    fallback_loaded, fallback = json.loads(_python(FORCE_FALLBACK + ASSIGNMENT_PAIRS))
    assert (direct_loaded, fallback_loaded) == (False, True)  # each route really taken
    assert sum(1 for value, _, _ in direct if value > 0) > 150
    assert fallback == direct

    rng = np.random.default_rng(84)
    pair = tmp_path / "complex_pair.txt"
    pair.write_text("".join(
        ",".join(map(repr, (rng.normal(size=1000) + 1j * rng.normal(size=1000)).tolist())) + "\n"
        for _ in range(2)
    ))
    argv = ("dist", "--file", str(pair))
    direct_out = _python(CLI_MAIN, *argv)
    assert b"engine = assignment" in direct_out
    assert _python(FORCE_FALLBACK + CLI_MAIN, *argv) == direct_out


TIED_VALUES = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0])


@given(values=st.lists(TIED_VALUES, min_size=1, max_size=300))
def test_exact_stable_argsort_equals_numpys_stable_sort(values):
    x = np.array(values)
    assert np.array_equal(_stable_argsort(x), np.argsort(x, kind="stable"))


def test_exact_stable_argsort_on_large_tied_inputs():
    rng = np.random.default_rng(4)
    for x in (rng.integers(0, 3, 100_000).astype(float), np.repeat(rng.uniform(size=50_000), 2),
              rng.uniform(size=100_000), np.zeros(1000), np.arange(1000.0)[::-1]):
        assert np.array_equal(_stable_argsort(x), np.argsort(x, kind="stable"))


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_attaining_perm_holds_python_ints(engine):
    result = engine([3.0, 1.0, 1.0, 2.0], [1.0, 2.0, 2.0, 0.5])
    assert all(type(i) is int for i in result.attaining_perm)
