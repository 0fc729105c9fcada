"""Self-tests for the benchmark: seeded generators, output checks, metric names.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL_LIFT = 3000


def cli(argv: list[str]) -> tuple[str, str, int]:
    """Run the real CLI in-process and return (stdout, stderr, exit code)."""
    from symprod.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def replace_line(text: str, key: str, value: str) -> str:
    return re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)


# ------------------------------------------------------------- generators


def test_lift_generator_is_deterministic_per_seed():
    rows_a, known_a = wl.make_lift_rows(5, SMALL_LIFT)
    rows_b, known_b = wl.make_lift_rows(5, SMALL_LIFT)
    rows_c, _ = wl.make_lift_rows(6, SMALL_LIFT)
    assert wl.field_file_bytes(rows_a) == wl.field_file_bytes(rows_b)
    assert known_a == known_b
    assert wl.field_file_bytes(rows_a) != wl.field_file_bytes(rows_c)


def test_lift_generator_records_its_counts():
    rows, known = wl.make_lift_rows(3, wl.LIFT_N)
    sorted_rows = np.sort(rows, axis=1)
    repeats = int(np.all(sorted_rows[1:] == sorted_rows[:-1], axis=1).sum())
    assert known["repeat_edges"] == repeats
    assert 0.04 * wl.LIFT_N < repeats < 0.06 * wl.LIFT_N
    assert known["tie_rows"] > 0.01 * wl.LIFT_N
    assert known["edges"] == wl.LIFT_N - 1
    # component order is shuffled, so the program has real sorting to do
    assert np.mean(np.any(np.diff(rows, axis=1) < 0, axis=1)) > 0.9


def test_dist_generator_is_deterministic_per_seed():
    a = wl.make_dist_pairs(9)
    b = wl.make_dist_pairs(9)
    c = wl.make_dist_pairs(10)
    assert wl.tuple_file_bytes(a[0], a[1]) == wl.tuple_file_bytes(b[0], b[1])
    assert wl.tuple_file_bytes(a[2], a[3]) == wl.tuple_file_bytes(b[2], b[3])
    assert wl.tuple_file_bytes(a[0], a[1]) != wl.tuple_file_bytes(c[0], c[1])
    assert a[0].size == wl.DIST_REAL_N and np.iscomplexobj(a[2])


def test_workloads_run_every_part_once(tmp_path):
    parts = [part for parts in wl.WORKLOADS.values() for part in parts]
    assert sorted(parts) == sorted(wl.PARTS)
    prepared = wl.prepare("holonomy-lemmas", tmp_path, 4)
    assert [inv.part for inv in prepared.invocations] == ["holonomy-roots"] * 3 + ["lemmas-full"]
    assert set(prepared.known) == {"holonomy-roots", "lemmas-full"}


def test_prepared_inputs_repeat_bytes(tmp_path):
    for name, prepare in wl.PARTS.items():
        if name == "lift-25k":
            continue  # covered above at a smaller size
        first, second = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        first.mkdir()
        second.mkdir()
        p1, p2 = prepare(first, 4), prepare(second, 4)
        assert [i.argv[:-1] for i in p1.invocations] == [i.argv[:-1] for i in p2.invocations]
        for f in first.iterdir():
            assert f.read_bytes() == (second / f.name).read_bytes()


# ------------------------------------------------------------------ checks


@pytest.fixture(scope="module")
def small_lift(tmp_path_factory):
    work = tmp_path_factory.mktemp("lift")
    rows, known = wl.make_lift_rows(2, SMALL_LIFT)
    in_path, out_path = work / "in.jsonl", work / "out.jsonl"
    in_path.write_bytes(wl.field_file_bytes(rows))
    stdout, stderr, code = cli(["lift", "--input", str(in_path), "--output", str(out_path)])
    return rows, known, out_path, stdout, stderr, code


def test_lift_check_accepts_real_output(small_lift):
    rows, known, out_path, stdout, stderr, code = small_lift
    assert known["repeat_edges"] > 0 and known["tie_rows"] > 0
    assert wl.check_lift(rows, known, out_path, stdout, stderr, code) == []


def test_lift_check_rejects_swapped_entries(small_lift, tmp_path):
    rows, known, out_path, stdout, stderr, code = small_lift
    lines = out_path.read_text().splitlines()
    record = json.loads(lines[7])
    record["tuple"][0], record["tuple"][-1] = record["tuple"][-1], record["tuple"][0]
    lines[7] = json.dumps(record)
    bad = tmp_path / "swapped.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert any("differ from np.sort" in p for p in wl.check_lift(rows, known, bad, stdout, stderr, code))


def test_lift_check_rejects_wrong_counts_and_ratio(small_lift, tmp_path):
    rows, known, out_path, stdout, stderr, code = small_lift
    zero = known["repeat_edges"]
    assert wl.check_lift(rows, known, out_path, stdout, stderr.replace(
        f"equal-class edges: {zero}", f"equal-class edges: {zero + 1}"), code)
    assert wl.check_lift(rows, known, out_path, stdout, stderr.replace("max_ratio = 1 ", "max_ratio = 1.5 "), code)
    assert wl.check_lift(rows, known, out_path, stdout, stderr, 1)
    assert wl.check_lift(rows, known, out_path, stdout, "", code)
    missing = tmp_path / "missing.jsonl"
    assert wl.check_lift(rows, known, missing, stdout, stderr, code)
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("\n".join(out_path.read_text().splitlines()[:-1]) + "\n")
    assert wl.check_lift(rows, known, truncated, stdout, stderr, code)


def test_lift_check_rejects_lost_ties(small_lift, tmp_path):
    rows, known, out_path, stdout, stderr, code = small_lift
    wrong = dict(known, tie_rows=known["tie_rows"] + 1)
    assert wl.check_lift(rows, wrong, out_path, stdout, stderr, code)


def test_holonomy_check_accepts_real_output_and_rejects_corruption():
    k, steps = 3, 192
    stdout, stderr, code = cli(["holonomy", "--k", str(k), "--steps", str(steps)])
    assert wl.check_holonomy(k, steps, stdout, stderr, code) == []
    wrong_cycle = replace_line(stdout, "cycle type", "2-cycle (0 1)")
    assert wl.check_holonomy(k, steps, wrong_cycle, stderr, code)
    assert wl.check_holonomy(k, steps, replace_line(stdout, "cycle type", "identity"), stderr, code)
    assert wl.check_holonomy(k, steps, replace_line(stdout, "steps", "191"), stderr, code)
    cost = float(wl.printed_value(stdout, "total cost"))
    off = replace_line(stdout, "total cost", f"{cost + 1e-6:.12g}")
    assert wl.check_holonomy(k, steps, off, stderr, code)
    assert wl.check_holonomy(k, steps, "", stderr, code)
    assert wl.check_holonomy(k, steps, stdout, stderr, 3)


def test_lemmas_check_accepts_real_output_and_rejects_fail_rows():
    seed = 1
    stdout, stderr, code = cli(["lemmas", "--n", "2..6", "--trials", str(wl.LEMMA_TRIALS),
                                "--seed", str(seed)])
    assert wl.check_lemmas(seed, stdout, stderr, code) == []
    lines = stdout.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("stabilizer-order"))
    failing = lines.copy()
    failing[row] = failing[row].replace("         0  PASS", "         1  FAIL")
    assert failing != lines
    assert wl.check_lemmas(seed, "\n".join(failing), stderr, code)
    missing = lines[:row] + lines[row + 1:]
    assert wl.check_lemmas(seed, "\n".join(missing), stderr, code)
    fewer = lines.copy()
    fewer[row] = fewer[row].replace(f" {wl.LEMMA_TRIALS} ", f" {wl.LEMMA_TRIALS - 1} ")
    assert fewer != lines
    assert wl.check_lemmas(seed, "\n".join(fewer), stderr, code)
    assert wl.check_lemmas(seed + 1, stdout, stderr, code)
    assert wl.check_lemmas(seed, "", stderr, code)


@pytest.fixture(scope="module")
def real_dist(tmp_path_factory):
    work = tmp_path_factory.mktemp("dist")
    prepared = wl.prepare_dist(work, 3)
    real, complex_ = prepared.invocations
    return real, complex_, cli(real.argv), cli(complex_.argv), prepared.known


def test_dist_check_accepts_real_output(real_dist):
    real, complex_, real_out, complex_out, _ = real_dist
    assert real.check(*real_out) == []
    assert complex_.check(*complex_out) == []


def test_dist_check_rejects_value_off_by_1e_6(real_dist):
    real, complex_, (stdout, stderr, code), (cout, cerr, ccode), known = real_dist
    value = float(wl.printed_value(stdout, "distance"))
    assert real.check(replace_line(stdout, "distance", f"{value + 1e-6:.12g}"), stderr, code)
    cvalue = float(wl.printed_value(cout, "distance"))
    assert complex_.check(replace_line(cout, "distance", f"{cvalue + 1e-6:.12g}"), cerr, ccode)


def test_dist_check_rejects_bad_minimizers(real_dist):
    real, complex_, (stdout, stderr, code), (cout, cerr, ccode), _ = real_dist
    for out, err, rc, check in ((stdout, stderr, code, real.check), (cout, cerr, ccode, complex_.check)):
        perm = wl.printed_value(out, "minimizer").split(",")
        repeated = perm.copy()
        repeated[1] = repeated[0]
        assert check(replace_line(out, "minimizer", ",".join(repeated)), err, rc)
        swapped = perm.copy()
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert check(replace_line(out, "minimizer", ",".join(swapped)), err, rc)
        assert check(replace_line(out, "minimizer", ",".join(perm[:-1])), err, rc)
        assert check(replace_line(out, "engine", "brute"), err, rc)
        assert check(out, err, 2)


# ------------------------------------------------------- metrics and trace


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units():
    bench = benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for entry in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
    for name, unit in run.per_layer_units().items():
        assert NAME.match(name) and UNIT.match(unit)


def test_relative_wall_follows_the_program_not_the_host():
    walls = [[2.0, 1.0], [3.0, 1.5], [2.2, 1.1]]
    refs = [[0.01, 0.01], [0.015, 0.015], [0.011, 0.011]]
    ratios = [[w / r for w, r in zip(ws, rs)] for ws, rs in zip(walls, refs)]
    assert run.relative_wall(ratios) == pytest.approx(300.0)
    slower_host = [[w * 1.3 / (r * 1.3) for w, r in zip(ws, rs)] for ws, rs in zip(walls, refs)]
    assert run.relative_wall(slower_host) == pytest.approx(300.0)
    slower_program = [[2 * w / r for w, r in zip(ws, rs)] for ws, rs in zip(walls, refs)]
    assert run.relative_wall(slower_program) == pytest.approx(600.0)


def test_benchmark_json_matches_the_code():
    bench = benchmark_json()
    assert {w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = [name for row in layers["rows"] for name in row["metrics"]]
    assert sorted(mapped) == sorted(run.per_layer_units())
    for row in layers["rows"]:
        assert set(row["moves_on"] + row["unchanged_on"]) <= set(wl.WORKLOADS)
        assert set(row["moves"]) <= set(run.END_TO_END_UNITS)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       400 |        500 | numpy",
        "import time:       300 |        300 |     scipy.optimize._x",
        "import time:       200 |        500 |   scipy.optimize",
        "import time:        50 |       1200 | symprod",
        "import time:        20 |         30 | symprod.cli",
        "import time:        10 |         10 | unrelated",
    ])
    assert run.parse_importtime(text) == pytest.approx(
        {"import.symprod_s": 1230e-6, "import.scipy_optimize_s": 500e-6})


def test_layer_metrics_self_time_subtracts_children():
    ms = 1_000_000
    spans = [
        (1, 0, 0, "metric.dist_sorted", 10 * ms, 12 * ms, None),
        (4, 3, 0, "metric.dist_bruteforce", 21 * ms, 25 * ms, None),
        (3, 0, 0, "monodromy.track_loop", 20 * ms, 30 * ms, "k8"),
        (0, None, 0, "cli.main", 0, 100 * ms, None),
    ]
    out = run.layer_metrics({"spans": spans, "counts": {"selection.edges": 7}})
    assert out["cli.cmd_self_s"] == pytest.approx(0.088)
    assert out["metric.dist_sorted_calls"] == 1
    assert out["monodromy.track_loop_self_s"] == pytest.approx(0.006)
    assert out["monodromy.track_loop_self_s.k8"] == pytest.approx(0.006)
    assert out["monodromy.track_loop_self_s.k64"] == 0.0
    assert out["metric.dist_bruteforce_s"] == pytest.approx(0.004)
    assert out["selection.edges"] == 7
    assert set(out) | {"import.symprod_s", "import.scipy_optimize_s", "trace.traced_s",
                       "trace.untraced_s", "trace.overhead_s"} == set(run.per_layer_units())


def test_tracer_restores_every_wrapped_name():
    import symprod.cli
    import symprod.fieldfile
    import symprod.lemmas
    import symprod.metric
    import symprod.monodromy
    import symprod.selection

    modules = [symprod.cli, symprod.fieldfile, symprod.lemmas, symprod.metric,
               symprod.monodromy, symprod.selection]
    before = [dict(vars(m)) for m in modules]
    engines = dict(symprod.metric._ENGINES)
    to_sampled = symprod.fieldfile.FieldDocument.to_sampled_field
    t = tracer.Tracer()
    tracer.install(t)
    assert symprod.selection.dist_sorted is not before[5]["dist_sorted"]
    t.restore()
    assert [dict(vars(m)) for m in modules] == before
    assert symprod.metric._ENGINES == engines
    assert symprod.fieldfile.FieldDocument.to_sampled_field is to_sampled


def test_traced_inprocess_run_records_spans(tmp_path):
    spec = {"argvs": [["holonomy", "--k", "3", "--steps", "192"],
                      ["dist", "--a", "1,5", "--b", "2,3"]],
            "trace": True, "outdir": str(tmp_path)}
    result = tracer.run(spec)
    assert [r["code"] for r in result["invocations"]] == [0, 0]
    names = {s[3] for s in result["spans"]}
    assert {"cli.main", "monodromy.track_loop", "metric.dist_bruteforce",
            "cli.parse_tuple_text", "metric.dist_sorted"} <= names
    assert {s[2] for s in result["spans"]} == {0, 1}
    assert result["counts"]["monodromy.steps"] == 192
    out = run.layer_metrics(result)
    assert out["metric.dist_bruteforce_calls"] == 192
    assert out["metric.dist_bruteforce_rows"] == 192 * 6
