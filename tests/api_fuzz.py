"""Fuzz every exported callable of ``symprod`` with arbitrary data.

Each call gets arbitrary scalars, strings, ragged lists, NaN/inf and
non-permutations in its data arguments: numbers, sequences, arrays,
permutations, counts, tolerances and engine names.  It must return or raise
InputError (CapExceededError is one), or UndersampledLoopError where that is
documented.  Any other exception, or a numpy RuntimeWarning, fails.  An
argument that is a library object gets a valid one built from arbitrary data;
passing anything else there is out of scope, since an AttributeError is
ordinary duck typing.

Run as ``python tests/api_fuzz.py [EXAMPLES [NAME ...]]`` with ``src`` on the path; the
exit status is 1 if any export fails, and each failure is printed with its
falsifying example.  ``tests/test_package.py`` runs it in a subprocess with a
timeout, so a hang fails instead of stalling the suite.
"""

import math
import resource
import sys
import traceback
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symprod
from symprod.errors import InputError, UndersampledLoopError

NON_INTEGERS = (
    st.floats() | st.complex_numbers() | st.booleans() | st.none() | st.text(max_size=3)
)
SCALARS = st.integers(-10, 10) | st.integers() | NON_INTEGERS


def nested(leaves):
    """``leaves``, and tuples and lists of them nested to any depth: ragged lists come free."""
    return st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=5) | st.tuples(inner, inner), max_leaves=12
    )


ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
)
PERMUTATIONS = st.integers(0, 6).flatmap(lambda n: st.permutations(range(n)))
# Words that repeat, skip or overshoot an index.
NON_PERMUTATIONS = st.lists(st.integers(-2, 6), max_size=6)
SEQUENCES = nested(SCALARS) | ARRAYS | PERMUTATIONS
PERMS = PERMUTATIONS | NON_PERMUTATIONS | SEQUENCES


def counts(top: int):
    """Counts up to ``top`` and non-counts.

    A count is a size that the call allocates, so its integers, and its
    floats, which count as their ints when integral, stay small.
    """
    return (st.integers(-3, top) | st.integers(max_value=-1) | st.floats(max_value=top)
            | st.sampled_from([math.nan, math.inf]) | st.complex_numbers() | st.booleans()
            | st.none() | st.text(max_size=3))


COUNTS = counts(9)
TOLERANCES = st.floats(0, 10) | SCALARS
ENGINES = st.sampled_from(["auto", "sorted", "assignment", "brute"]) | nested(SCALARS)
# The lemma suite runs every check, so its sizes are n <= 4 and trials <= 3.
SUITE_NS = nested(counts(4))
SUITE_COUNTS = counts(3)


def built(make, *strategies):
    """The library object ``make`` builds from arbitrary data, where it builds one."""

    def attempt(args):
        try:
            return make(*args)
        except InputError:
            return None

    return st.tuples(*strategies).map(attempt).filter(lambda obj: obj is not None)


def matrices(dtype, rows):
    return hnp.arrays(dtype, st.tuples(st.just(rows), st.integers(1, 4)))


def fields(count: int):
    edges = hnp.arrays(np.int64, st.tuples(st.integers(0, 6), st.just(2)),
                       elements=st.integers(0, count - 1))
    return built(symprod.SampledField, matrices(np.float64, count), matrices(np.float64, count),
                 edges)


PARTITIONS = built(
    lambda n, cut: symprod.BlockPartition([b for b in np.split(np.arange(n), cut) if b.size > 1], n),
    st.integers(1, 5),
    st.lists(st.integers(0, 5), max_size=3).map(sorted),
)
FIELDS = st.integers(1, 6).flatmap(fields)
LOOPS = st.integers(2, 12).flatmap(
    lambda steps: built(symprod.ComplexLoop, matrices(np.complex128, steps))
)


# Each callable export: its positional argument strategies, then its keyword ones.
CALLS = {
    # core
    "apply_perm": ((PERMS, SEQUENCES), {}),
    "as_array": ((SEQUENCES,), {}),
    "compose": ((PERMS, PERMS), {}),
    "is_perm": ((PERMS,), {}),
    # diagonal
    "BlockPartition": ((PERMS, COUNTS), {}),
    "Stabilizer": ((PARTITIONS,), {}),
    "boundary_class": ((SEQUENCES,), {}),
    "dist_to_diagonal": ((SEQUENCES, PARTITIONS), {}),
    "equality_partition": ((SEQUENCES,), {"tol": TOLERANCES}),
    "nearest_diagonal_point": ((SEQUENCES, PARTITIONS), {}),
    "stabilizer_of": ((PARTITIONS,), {}),
    # errors
    "CapExceededError": ((SCALARS,), {}),
    "InputError": ((SCALARS,), {}),
    "InvariantViolation": ((SCALARS,), {}),
    "SymprodError": ((SCALARS,), {}),
    "UndersampledLoopError": ((SCALARS,), {"suggested_steps": COUNTS}),
    # fieldfile: the readers and writers take paths, fuzzed through file bytes in
    # tests/test_fieldfile.py
    "FieldDocument": ((SEQUENCES, SEQUENCES, SEQUENCES), {}),
    # lemmas
    "LemmaCheck": ((SCALARS, COUNTS, COUNTS, COUNTS), {}),
    "run_lemma_suite": (
        (),
        {"n_values": SUITE_NS, "trials": SUITE_COUNTS, "seed": COUNTS},
    ),
    # metric
    "Distance": ((SCALARS, PERMS, SCALARS), {}),
    "UnorderedTuple": ((SEQUENCES,), {}),
    "dist": ((SEQUENCES, SEQUENCES), {"engine": ENGINES}),
    "dist_assignment": ((SEQUENCES, SEQUENCES), {}),
    "dist_bruteforce": ((SEQUENCES, SEQUENCES), {}),
    "dist_sorted": ((SEQUENCES, SEQUENCES), {}),
    "l1_norm": ((SEQUENCES,), {}),
    # monodromy
    "ComplexLoop": ((SEQUENCES,), {}),
    "Holonomy": ((PERMS, SCALARS, SCALARS, COUNTS), {}),
    "cycle_type": ((PERMS,), {}),
    "describe_cycles": ((PERMS,), {}),
    "disjoint_cycles": ((PERMS,), {}),
    "min_intra_gap": ((SEQUENCES,), {}),
    "roots_loop_generator": ((COUNTS, counts(80)), {"radius": TOLERANCES}),
    "track_loop": ((LOOPS,), {}),
    # selection
    "ContinuityReport": ((SCALARS, SEQUENCES, COUNTS, COUNTS), {}),
    "LiftedField": ((SEQUENCES, SEQUENCES, SEQUENCES), {}),
    "SampledField": ((SEQUENCES, SEQUENCES, SEQUENCES), {}),
    "canonicalize": ((SEQUENCES,), {}),
    "lift_field": ((FIELDS,), {}),
    "path_adjacency": ((COUNTS,), {}),
}
# continuity_report takes a lifted field and its source: one drawn pair.
PAIRED = {"continuity_report": FIELDS.map(lambda field: (symprod.lift_field(field), field))}
UNDERSAMPLED_OK = {"roots_loop_generator", "track_loop"}
OUT_OF_SCOPE = {
    "Perm": "the type alias tuple[int, ...]",
    "all_passed": "takes LemmaCheck results only",
    "read_csv_field": "takes a path; file bytes are fuzzed in tests/test_fieldfile.py",
    "read_field_file": "takes a path; file bytes are fuzzed in tests/test_fieldfile.py",
    "write_lifted_file": "takes a path and a lifted field",
    "write_loop_file": "takes a path and a loop",
}


def fuzz(name: str, examples: int) -> bool:
    fn = getattr(symprod, name)
    allowed = (InputError, UndersampledLoopError) if name in UNDERSAMPLED_OK else InputError
    if name in PAIRED:
        calls = st.tuples(PAIRED[name], st.just({}))
    else:
        positional, keywords = CALLS[name]
        calls = st.tuples(st.tuples(*positional), st.fixed_dictionaries({}, optional=keywords))

    @settings(max_examples=examples, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(calls)
    def call(arguments):
        args, kwargs = arguments
        try:
            fn(*args, **kwargs)
        except allowed:
            pass

    try:
        call()
    except Exception:
        print(f"FAIL {name}", flush=True)
        traceback.print_exc(file=sys.stdout)
        return False
    return True


def main(examples: int, names: list[str]) -> int:
    # A runaway allocation fails its call instead of taking the machine's memory.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    exported = {name for name in symprod.__all__ if callable(getattr(symprod, name))}
    covered = {*CALLS, *PAIRED}
    if exported != covered | OUT_OF_SCOPE.keys():
        print(f"untabled exports: {sorted(exported - covered - OUT_OF_SCOPE.keys())}; "
              f"stale entries: {sorted((covered | OUT_OF_SCOPE.keys()) - exported)}")
        return 1
    warnings.simplefilter("error", RuntimeWarning)
    warnings.simplefilter("error", np.exceptions.ComplexWarning)
    chosen = sorted(names or covered)
    failed = [name for name in chosen if not fuzz(name, examples)]
    print(f"{len(chosen) - len(failed)} of {len(chosen)} exports passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 100, sys.argv[2:]))
