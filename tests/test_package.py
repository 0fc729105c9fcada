import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symprod
from symprod.errors import InputError, UndersampledLoopError

SUBMODULES = ("core", "diagonal", "errors", "fieldfile", "lemmas", "metric", "monodromy",
              "selection")

PUBLIC_NAMES = [
    "BRUTE_FORCE_CAP", "BlockPartition", "CapExceededError", "ComplexLoop", "ContinuityReport",
    "Distance", "FieldDocument", "Holonomy", "InputError", "InvariantViolation", "LemmaCheck",
    "LiftedField", "Perm", "STABILIZER_ORDER_CAP", "SampledField", "Stabilizer", "SymprodError",
    "UndersampledLoopError", "UnorderedTuple", "__version__", "all_passed", "apply_perm",
    "as_array", "boundary_class", "canonicalize", "compose", "continuity_report", "cycle_type",
    "describe_cycles", "disjoint_cycles", "dist", "dist_assignment", "dist_bruteforce",
    "dist_sorted", "dist_to_diagonal", "engine_names", "enumerate_perms", "equality_partition",
    "identity_perm", "invert", "is_perm", "l1_norm", "lift_field", "min_intra_gap",
    "nearest_diagonal_point", "path_adjacency", "read_csv_field", "read_field_file",
    "roots_loop_generator", "run_lemma_suite", "stabilizer_of", "track_loop",
    "write_lifted_file", "write_loop_file",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 54
    assert sorted(symprod.__all__) == PUBLIC_NAMES


def test_each_public_name_comes_from_one_submodule_and_resolves():
    owners = {}
    for module_name in SUBMODULES:
        module = importlib.import_module(f"symprod.{module_name}")
        for name in module.__all__:
            assert name not in owners, f"{name} exported by {owners[name]} and {module_name}"
            owners[name] = module_name
            assert getattr(symprod, name) is getattr(module, name)
    assert sorted([*owners, "__version__"]) == sorted(symprod.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from symprod import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC_NAMES


def test_names_left_out_of_the_export_lists_stay_importable_by_module_path():
    from symprod.core import as_count  # noqa: F401
    from symprod.core import read_text, row_chunks  # noqa: F401
    from symprod.diagonal import BoundaryClass  # noqa: F401
    from symprod.lemmas import DISPLACEMENT_EPSILONS, grid_min_block_cost  # noqa: F401
    from symprod.selection import EQUAL_CLASS_TOL  # noqa: F401


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(symprod))
    assert set(PUBLIC_NAMES) <= listed
    assert {*SUBMODULES, "cli"} <= listed


def test_every_export_returns_or_raises_input_error_on_arbitrary_data():
    # In a fresh interpreter with a timeout: a call that hangs fails the test.
    src = str(Path(symprod.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("api_fuzz.py")), "100"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize(
    "call",
    [
        lambda: symprod.equality_partition([1.0, 2.0], tol="a"),
        lambda: symprod.equality_partition([1.0, 2.0], tol=None),
        lambda: symprod.identity_perm("a"),
        lambda: symprod.identity_perm(2.5),
        lambda: symprod.identity_perm(-1),
        lambda: symprod.path_adjacency("a"),
        lambda: symprod.path_adjacency(-3),
        lambda: symprod.roots_loop_generator(3, 100, radius="a"),
        lambda: symprod.roots_loop_generator(3, 100, radius=math.inf),
        lambda: symprod.roots_loop_generator(3, 100, radius=math.nan),
        lambda: symprod.BlockPartition(5, 3),
        lambda: symprod.BlockPartition((5,), 3),
        lambda: symprod.run_lemma_suite(n_values=5),
        lambda: symprod.dist([1.0], [2.0], engine=[]),
        lambda: symprod.apply_perm((0, 1), [1.0, [2.0, 3.0]]),
    ],
    ids=["tol-str", "tol-none", "identity-str", "identity-fraction", "identity-negative",
         "path-str", "path-negative", "radius-str", "radius-inf", "radius-nan", "blocks-int",
         "block-int", "n-values-int", "engine-list", "apply-ragged"],
)
def test_probed_escapes_from_the_exit_2_contract_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_overflow_past_float_range_is_inf_or_refused_without_a_warning():
    assert symprod.l1_norm([1e308, 1e308]) == math.inf
    assert symprod.min_intra_gap([1e308, -1e308]) == math.inf
    with pytest.raises(InputError, match="overflows"):
        symprod.track_loop(symprod.ComplexLoop([[1e308], [-1e308]]))
    # Half the gap underflows to 0: no float count of steps is suggested.
    with pytest.raises(UndersampledLoopError, match="no step count will do") as exc_info:
        symprod.track_loop(symprod.ComplexLoop([[0.0, 5e-324], [0.0, 5e-324]]))
    assert exc_info.value.suggested_steps is None
