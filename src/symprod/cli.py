"""Command-line front end.

Subcommands: dist, canon, lift, holonomy, lemmas, bench.  Exit codes:
0 success, 1 invariant violation (or failed checks), 2 input error (input
too large to allocate included), 3 undersampled loop.  Randomized commands
take --seed, falling back to the SYMPROD_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import errno
import gc
import importlib
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # symprod calls no BLAS: skip the pool's start-up

from .errors import InputError, InvariantViolation, UndersampledLoopError

LIFT_RATIO_TOL = 1e-6
ENGINE_NAMES = ("assignment", "brute", "sorted")  # sorted(metric._ENGINES), without loading metric


def _deferred(module: str, name: str):
    """Stand-in for ``module.name`` that imports ``module`` on its first call.

    A subcommand then loads only the modules it calls, and the name stays a
    ``cli`` attribute that callers can wrap or replace.
    """

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


dist = _deferred("metric", "dist")
canonicalize = _deferred("selection", "canonicalize")
lift_field = _deferred("selection", "lift_field")
continuity_report = _deferred("selection", "continuity_report")
roots_loop_generator = _deferred("monodromy", "roots_loop_generator")
track_loop = _deferred("monodromy", "track_loop")
describe_cycles = _deferred("monodromy", "describe_cycles")
run_lemma_suite = _deferred("lemmas", "run_lemma_suite")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def parse_tuple_text(text: str) -> np.ndarray:
    """Parse "1,5" or "1+2j,-1j" into a real or complex vector."""
    import numpy as np

    entries = text.split(",")
    try:  # every entry a real number: float() of each is what the loop below gives
        return np.fromiter(map(float, entries), dtype=float)
    except ValueError:  # a blank, complex or malformed entry
        pass
    values = []
    for entry in map(str.strip, entries):
        if not entry:
            continue
        try:
            values.append(float(entry))
            continue
        except ValueError:
            pass
        try:
            values.append(complex(entry.replace("i", "j")))
        except ValueError:
            raise InputError(f"cannot parse component {entry!r}") from None
    if not values:
        raise InputError(f"empty tuple: {text!r}")
    return np.asarray(values)  # floats give float64; a complex among them gives complex128


def _parse_n_values(text: str) -> range | list[int]:
    """Accept "4", "2..6", or "2,3,5"; a range stays a ``range``, so a long one is never a list."""
    try:
        if ".." in text:
            lo, hi = map(int, text.split(".."))
            values, smallest = range(lo, hi + 1), lo
        else:
            values = [int(part) for part in text.split(",")]
            smallest = min(values)
    except ValueError:
        raise InputError(f"cannot parse n range {text!r} (use e.g. 4, 2..6, or 2,3,5)") from None
    if not values or smallest < 1:
        raise InputError(f"invalid n range {text!r}")
    return values


def _resolve_seed(value: int | None) -> int:
    if value is None:
        env = os.environ.get("SYMPROD_SEED", "0")
        try:
            value = int(env)
        except ValueError:
            raise InputError(f"SYMPROD_SEED must be an integer, got {env!r}") from None
    from .core import as_count

    return as_count(value, "seed", 0)  # numpy's generators take non-negative seeds only


def _cmd_dist(args) -> int:
    if args.file is not None:
        if args.a is not None or args.b is not None:
            raise InputError("give either --file or --a/--b, not both")
        from .core import _lines, read_text

        lines = [s for s in map(str.strip, _lines(read_text(args.file))) if s]
        if len(lines) != 2:
            raise InputError(f"{args.file}: expected exactly two tuple lines, got {len(lines)}")
        a, b = parse_tuple_text(lines[0]), parse_tuple_text(lines[1])
    else:
        if args.a is None or args.b is None:
            raise InputError("need --a and --b (or --file)")
        a, b = parse_tuple_text(args.a), parse_tuple_text(args.b)
    result = dist(a, b, engine=args.engine)
    print(f"distance = {_fmt(result.value)}")
    print(f"engine = {result.engine}")
    # One "%d" template over the index tuple: one C call, with no list, repr or replace copy.
    perm = result.attaining_perm
    print("minimizer = " + ("%d," * len(perm))[:-1] % perm)
    return 0


def _cmd_canon(args) -> int:
    import numpy as np

    values = parse_tuple_text(args.t)
    if np.iscomplexobj(values):
        raise InputError("canon is defined for real tuples only")
    print(",".join(_fmt(v) for v in canonicalize(values)))
    return 0


def _cmd_lift(args) -> int:
    from . import fieldfile

    out_dir = os.path.dirname(args.output) or "."
    if not os.path.isdir(out_dir):  # fail before the read and the lift, not after them
        code = errno.ENOTDIR if os.path.exists(out_dir) else errno.ENOENT
        raise OSError(code, os.strerror(code), args.output)
    in_path = args.input
    if args.csv or str(in_path).endswith(".csv"):
        doc = fieldfile.read_csv_field(in_path)
    else:
        doc = fieldfile.read_field_file(in_path)
    field = doc.to_sampled_field()
    lifted = lift_field(field)
    report = continuity_report(lifted, field)
    print(
        f"max_ratio = {_fmt(report.max_ratio)} worst_edge = {report.worst_edge} "
        f"(ratio edges: {report.ratio_edges}, equal-class edges: {report.zero_edges})",
        file=sys.stderr,
    )
    if not abs(report.max_ratio - 1.0) <= LIFT_RATIO_TOL:  # a nan ratio fails too
        raise InvariantViolation(
            f"sorted lift must be an isometry; max_ratio = {report.max_ratio!r}"
        )
    fieldfile.write_lifted_file(args.output, lifted)
    return 0


def _cmd_holonomy(args) -> int:
    if args.input is not None:
        if (args.k, args.steps, args.radius) != (None, None, None):
            raise InputError("give either --input or --k/--steps, not both")
        from . import fieldfile, monodromy

        loop = monodromy.ComplexLoop(fieldfile.read_field_file(args.input).tuples)
    else:
        if args.k is None or args.steps is None:
            raise InputError("need --k and --steps (or --input)")
        radius = 1.0 if args.radius is None else args.radius
        loop = roots_loop_generator(args.k, args.steps, radius=radius)
    holonomy = track_loop(loop)
    print(f"cycle type = {describe_cycles(holonomy.permutation)}")
    print(f"total cost = {_fmt(holonomy.total_path_cost)}")
    print(f"steps = {loop.step_count}")
    print(f"margin = {_fmt(holonomy.margin)} at step {holonomy.worst_step}")
    return 0


def _cmd_lemmas(args) -> int:
    n_values = _parse_n_values(args.n)
    seed = _resolve_seed(args.seed)
    results = run_lemma_suite(n_values=n_values, trials=args.trials, seed=seed)
    width = max(len(r.name) for r in results)
    print(f"{'check':<{width}}  n  trials  violations  status")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.n}  {r.trials:>6}  {r.violations:>10}  {status}")
    failed = sum(1 for r in results if not r.passed)
    if failed:
        print(f"{failed} check(s) FAILED (seed = {seed})", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed (seed = {seed})")
    return 0


def _cmd_bench(args) -> int:
    from statistics import median  # np.median imports numpy.ma: about 11 ms, against 3 ms

    import numpy as np

    from .core import BRUTE_FORCE_CAP, as_count

    n_values = _parse_n_values(args.n)
    reps = as_count(args.reps, "--reps", 1)
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    mismatch = False
    print("n engine median_ms value")
    for n in n_values:
        y = rng.uniform(-10.0, 10.0, size=n)
        z = rng.uniform(-10.0, 10.0, size=n)
        engines = ["sorted", "assignment"] + (["brute"] if n <= BRUTE_FORCE_CAP else [])
        values = {}
        for engine in engines:
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                result = dist(y, z, engine=engine)
                times.append(time.perf_counter() - start)
            values[engine] = result.value
            print(f"{n} {engine} {median(times) * 1e3:.3f} {_fmt(result.value)}")
        if "brute" in values:
            worst = max(abs(values[e] - values["brute"]) for e in engines)
            agree = worst <= 1e-9
            print(f"{n} cross-check {'ok' if agree else 'MISMATCH'} (max deviation {worst:.3e})")
            mismatch = mismatch or not agree
    if mismatch:
        raise InvariantViolation("engines disagree beyond 1e-9 on benchmark inputs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symprod",
        description="Distances, sorted selections, and loop holonomy for unordered tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two unordered tuples")
    p.add_argument("--a", help='first tuple, e.g. "1,5" or "1+2j,-1j"')
    p.add_argument("--b", help="second tuple")
    p.add_argument("--file", help="file with the two tuples on two lines")
    p.add_argument(
        "--engine",
        choices=["auto", *ENGINE_NAMES],
        default="auto",
        help="auto picks sorted for real input, assignment for complex",
    )
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("canon", help="sorted representative of a real tuple")
    p.add_argument("--t", required=True, help='tuple, e.g. "3,1,2"')
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("lift", help="sort a sampled field pointwise and check the step ratios")
    p.add_argument("--input", required=True, help="JSON-lines field file (or CSV with --csv)")
    p.add_argument("--output", required=True, help="where to write the lifted JSON-lines file")
    p.add_argument("--csv", action="store_true", help="read the input as CSV")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("holonomy", help="track components of a complex loop")
    p.add_argument("--k", type=int, help="track the k-th roots of a circling point")
    p.add_argument("--steps", type=int, help="number of loop samples")
    p.add_argument("--radius", type=float, help="radius of the base circle (default 1)")
    p.add_argument("--input", help="complex-mode JSON-lines loop file instead of --k/--steps")
    p.set_defaults(func=_cmd_holonomy)

    p = sub.add_parser("lemmas", help="run the diagonal-set property suite")
    p.add_argument("--n", default="2..6", help='tuple sizes: "4", "2..6", or "2,3,5"')
    p.add_argument("--trials", type=int, default=500, help="trials per check per size")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: SYMPROD_SEED or 0)")
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("bench", help="time the distance engines and cross-check values")
    p.add_argument("--n", default="2..7", help='tuple sizes: "4", "2..6", or "2,3,5"')
    p.add_argument("--reps", type=int, default=5, help="repetitions per timing")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: SYMPROD_SEED or 0)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UndersampledLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # input too large to hold: exit 1 stays for violations
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def _script() -> None:
    """The process entry of ``python -m symprod.cli`` and the ``symprod`` command.

    A run leaves only the argument parser's cycles, so the cyclic collector is
    off from before numpy loads (in the subcommand) to the exit.  ``gc.freeze()``
    keeps the collection at interpreter shutdown, which runs even so, from
    walking what numpy's import made.  Only here, never in ``main``, which
    tests and host programs call repeatedly.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    _script()
