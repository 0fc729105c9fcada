import importlib

import symprod

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
    from symprod.diagonal import BoundaryClass  # noqa: F401
    from symprod.fieldfile import utf8_text  # noqa: F401
    from symprod.lemmas import DISPLACEMENT_EPSILONS, grid_min_block_cost  # noqa: F401
    from symprod.selection import EQUAL_CLASS_TOL  # noqa: F401


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(symprod))
    assert set(PUBLIC_NAMES) <= listed
    assert {*SUBMODULES, "cli"} <= listed
