"""Run symprod CLI invocations in one process, optionally traced.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py SPEC.json

SPEC holds ``argvs`` (the invocations, each the argv after ``symprod``),
``trace`` (whether to record spans) and ``outdir``.  Invocation i writes its
stdout and stderr to ``outdir/inv<i>.out`` / ``.err``; the exit codes,
in-process times, spans and counts go to ``outdir/result.json`` when the
run ends.

Tracing wraps the names one module looks up in another, from this file,
and restores them afterwards; nothing under ``src/`` changes.  A span is
``(span_id, parent_id, run_id, name, start_ns, end_ns, tag)``; spans and
counts are kept in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import sys
import time
import traceback

from workloads import LEMMA_EXPECTED_TRIALS

DIAGONAL_CALLS = ("equality_partition", "stabilizer_of", "dist_to_diagonal", "boundary_class")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list = []

    def add(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, amount: int):
        self.counts[name] = max(self.counts.get(name, 0), amount)

    def wrap(self, name: str, fn, after=None, tag=None):
        """Return ``fn`` recording one span per call; ``after(args, result)`` counts."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, parent, self.run_id, name, start, end, tag(*args) if tag else None)
                )
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None, tag=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, after, tag))
        self._restore.append(lambda: setattr(owner, attr, original))

    def patch_item(self, mapping: dict, key: str, name: str, after=None):
        original = mapping[key]
        mapping[key] = self.wrap(name, original, after)
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def restore(self):
        while self._restore:
            self._restore.pop()()


def install(tracer: Tracer):
    """Wrap every cross-module call the per-layer metrics are built from."""
    import symprod.cli as cli
    import symprod.fieldfile as fieldfile
    import symprod.lemmas as lemmas
    import symprod.metric as metric
    import symprod.monodromy as monodromy
    import symprod.selection as selection

    def file_bytes(counter):
        return lambda args, result: tracer.add(counter, os.path.getsize(args[0]))

    def brute_rows(args, result):
        tracer.add("metric.dist_bruteforce_rows", math.factorial(len(result.attaining_perm)))

    def continuity(args, result):
        tracer.add("selection.edges", len(args[1].adjacency))
        tracer.add("selection.zero_edges", result.zero_edges)

    def gap_bytes(args, result):
        steps, n = args[0].shape if args[0].ndim == 2 else (1, args[0].size)
        # one complex128 difference per sample and component pair
        tracer.peak("monodromy.gap_bytes_computed", steps * n * (n - 1) // 2 * 16)

    def lemma_trials(args, result):
        tracer.add(f"lemmas.{result.name}_trials", result.trials)

    tracer.patch(cli, "parse_tuple_text", "cli.parse_tuple_text")
    tracer.patch(fieldfile, "read_field_file", "fieldfile.read_field_file",
                 after=file_bytes("fieldfile.read_bytes"))
    tracer.patch(fieldfile, "write_lifted_file", "fieldfile.write_lifted_file",
                 after=file_bytes("fieldfile.write_bytes"))
    tracer.patch(fieldfile.FieldDocument, "to_sampled_field", "fieldfile.to_sampled_field")
    tracer.patch(fieldfile, "UnorderedTuple", "metric.unordered_tuple")
    tracer.patch(cli, "lift_field", "selection.lift_field")
    tracer.patch(cli, "continuity_report", "selection.continuity_report", after=continuity)
    tracer.patch(selection, "dist_sorted", "metric.dist_sorted")
    tracer.patch_item(metric._ENGINES, "sorted", "metric.dist_sorted")
    tracer.patch_item(metric._ENGINES, "assignment", "metric.dist_assignment")
    tracer.patch_item(metric._ENGINES, "brute", "metric.dist_bruteforce", after=brute_rows)
    tracer.patch(cli, "roots_loop_generator", "monodromy.roots_loop_generator")
    tracer.patch(cli, "track_loop", "monodromy.track_loop",
                 after=lambda args, result: tracer.add("monodromy.steps", args[0].step_count),
                 tag=lambda loop: f"k{loop.tuple_n}")
    tracer.patch(monodromy, "min_intra_gap", "monodromy.min_intra_gap", after=gap_bytes)
    tracer.patch(monodromy, "dist_bruteforce", "metric.dist_bruteforce", after=brute_rows)
    tracer.patch(monodromy, "dist_assignment", "metric.dist_assignment")
    tracer.patch(monodromy, "compose", "core.compose")
    tracer.patch(metric, "perm_matrix", "core.perm_matrix")
    tracer.patch(lemmas, "perm_matrix", "core.perm_matrix")
    tracer.patch(cli, "run_lemma_suite", "lemmas.run_lemma_suite")
    for check_name in LEMMA_EXPECTED_TRIALS:
        fn_name = "check_" + check_name.replace("-", "_")
        tracer.patch(lemmas, fn_name, f"lemmas.{check_name}", after=lemma_trials)
    for fn_name in DIAGONAL_CALLS:
        tracer.patch(lemmas, fn_name, f"diagonal.{fn_name}")


def run(spec: dict) -> dict:
    import symprod.cli as cli

    tracer = Tracer() if spec["trace"] else None
    main = cli.main
    if tracer is not None:
        install(tracer)
        main = tracer.wrap("cli.main", cli.main)
    invocations = []
    try:
        for i, argv in enumerate(spec["argvs"]):
            base = os.path.join(spec["outdir"], f"inv{i}")
            with open(base + ".out", "w", encoding="utf-8") as out, \
                    open(base + ".err", "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.run_id = i
                start = time.perf_counter()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # an escaped traceback is exit 1 on the real CLI too
                    traceback.print_exc()
                    code = 1
                invocations.append({"code": code, "seconds": time.perf_counter() - start})
    finally:
        if tracer is not None:
            tracer.restore()
    return {
        "invocations": invocations,
        "spans": tracer.spans if tracer else [],
        "counts": tracer.counts if tracer else {},
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(os.path.join(spec["outdir"], "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
