import ast
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symprod import cli, lemmas, metric, selection
from symprod.diagonal import BlockPartition
from symprod.errors import InputError
from symprod.metric import Distance
from symprod.monodromy import roots_loop_generator
from symprod.selection import LiftedField


def write_lines(path, lines):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))


def test_dist_inline(capsys):
    assert cli.main(["dist", "--a", "1,5", "--b", "2,3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "distance = 3"
    assert out[1] == "engine = sorted"
    assert out[2] == "minimizer = 0,1"


def test_dist_same_class_is_zero(capsys):
    assert cli.main(["dist", "--a", "1,2", "--b", "2,1"]) == 0
    assert "distance = 0" in capsys.readouterr().out


def test_dist_engines_agree(capsys):
    values = {}
    for engine in ("brute", "sorted", "assignment"):
        assert cli.main(["dist", "--a", "1,5", "--b", "2,3", "--engine", engine]) == 0
        out = capsys.readouterr().out
        values[engine] = out.splitlines()[0]
        assert f"engine = {engine}" in out
    assert len(set(values.values())) == 1


def test_dist_complex_routes_to_assignment(capsys):
    assert cli.main(["dist", "--a", "1+2i,0", "--b", "0,1+2i"]) == 0
    out = capsys.readouterr().out
    assert "distance = 0" in out
    assert "engine = assignment" in out


def test_dist_engine_choices_come_from_the_engine_table(capsys):
    with pytest.raises(SystemExit):
        cli.main(["dist", "--a", "1", "--b", "2", "--engine", "nope"])
    assert "(choose from 'auto', 'assignment', 'brute', 'sorted')" in capsys.readouterr().err


def test_dist_brute_past_the_cap_is_refused_with_one_message(capsys):
    nine = ",".join(map(str, range(9)))
    assert cli.main(["dist", "--a", nine, "--b", nine, "--engine", "brute"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: brute force too large: n = 9 exceeds cap 8 (9! permutations)\n"


DIST_HELP = """\
usage: symprod dist [-h] [--a A] [--b B] [--file FILE]
                    [--engine {auto,assignment,brute,sorted}]

options:
  -h, --help            show this help message and exit
  --a A                 first tuple, e.g. "1,5" or "1+2j,-1j"
  --b B                 second tuple
  --file FILE           file with the two tuples on two lines
  --engine {auto,assignment,brute,sorted}
                        auto picks sorted for real input, assignment for
                        complex
"""


def test_engine_choices_are_the_engine_table_names(capsys, monkeypatch):
    from symprod import metric

    assert list(cli.ENGINE_NAMES) == sorted(metric._ENGINES)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["dist", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == DIST_HELP


def test_dist_twelve_significant_digits(capsys):
    assert cli.main(["dist", "--a", "0,0", "--b", "0.1,0.1"]) == 0
    assert "distance = 0.2" in capsys.readouterr().out


def test_dist_from_file(tmp_path, capsys):
    path = tmp_path / "pair.txt"
    path.write_text("1,5\n2,3\n")
    assert cli.main(["dist", "--file", str(path)]) == 0
    assert "distance = 3" in capsys.readouterr().out


def test_dist_input_errors(tmp_path, capsys):
    assert cli.main(["dist", "--a", "1,x", "--b", "2,3"]) == 2
    assert "cannot parse" in capsys.readouterr().err
    assert cli.main(["dist", "--a", "1,2"]) == 2
    assert cli.main(["dist", "--a", "1,2", "--b", "1,2,3"]) == 2
    path = tmp_path / "bad.txt"
    path.write_text("1,2\n")
    assert cli.main(["dist", "--file", str(path)]) == 2
    assert cli.main(["dist", "--file", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()
    assert cli.main(["dist", "--file", str(path), "--a", "1,2"]) == 2
    assert capsys.readouterr().err == "error: give either --file or --a/--b, not both\n"


@pytest.mark.parametrize("data, lines", [
    (b"1,5\r\n2,3\r\n", 2),
    (b"1,5\r2,3\r", 2),
    (b"1,5\r\n\r\n2,3", 2),
    (b"\n\n 1,5 \n\t\n\t2,3\t\n\n", 2),
    (b"  1,5\r\n \r 2,3 \r\n\r\n", 2),
    (b"1,5\x0c\n\x0b2,3\n\x1c\n", 2),
    (b"1,5\r\n2,3\r\n4,4\r\n", 3),
    (b"1,5\r\r\r", 1),
    (b"\r\n \r\n", 0),
], ids=["crlf", "cr", "blank-crlf", "blank-and-whitespace", "mixed-ends",
        "other-whitespace", "three-crlf-lines", "one-cr-line", "only-blank"])
def test_dist_file_line_ends_blank_lines_and_whitespace(tmp_path, capsys, data, lines):
    # Every line end counts as one, blank lines are skipped and each line is stripped.
    path = tmp_path / "pair.txt"
    path.write_bytes(data)
    code = cli.main(["dist", "--file", str(path)])
    captured = capsys.readouterr()
    if lines == 2:
        assert (code, captured.err) == (0, "")
        assert captured.out == "distance = 3\nengine = sorted\nminimizer = 0,1\n"
    else:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: expected exactly two tuple lines, got {lines}\n"


@pytest.mark.parametrize("engine", ["auto", "sorted", "brute", "assignment"])
@pytest.mark.parametrize(
    "a, b",
    [("1e308,1e308", "-1e308,-1e308"), ("1e308,0", "-1e308,0"),
     ("1e308+1e308j,1e308+1e308j", "-1e308-1e308j,-1e308-1e308j"), ("1e308+1e308j,0", "-1e308,0")],
    ids=["real-every-pairing", "real-some-pairings", "complex-every-pairing",
         "complex-some-pairings"],
)
def test_dist_overflow_is_input_error(capsys, engine, a, b):
    code = cli.main(["dist", f"--a={a}", f"--b={b}", "--engine", engine])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    if engine == "sorted" and "j" in a:
        assert "complex" in captured.err
    else:
        assert captured.err == "error: the distance between these tuples overflows float64\n"


def test_dist_overflow_prints_no_numpy_warning():
    # The real stderr of a fresh interpreter, where numpy's warnings would land.
    src = str(Path(cli.__file__).resolve().parents[1])
    for engine in ("sorted", "brute", "assignment"):
        result = subprocess.run(
            [sys.executable, "-W", "default", "-c",
             "import sys; from symprod.cli import main; sys.exit(main(sys.argv[1:]))",
             "dist", "--a=1e308,0", "--b=-1e308,0", "--engine", engine],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2
        assert result.stderr == "error: the distance between these tuples overflows float64\n"


@pytest.mark.parametrize("n", [1, 2, 250_000])
def test_dist_file_output_is_the_joined_minimizer(tmp_path, capsys, n):
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(2, n)).tolist()
    path = tmp_path / "pair.txt"
    path.write_text(",".join(map(repr, a)) + "\n" + ",".join(map(repr, b)) + "\n")
    assert cli.main(["dist", "--file", str(path)]) == 0
    result = metric.dist(np.array(a), np.array(b))
    assert capsys.readouterr().out == (
        f"distance = {cli._fmt(result.value)}\nengine = sorted\n"
        f"minimizer = {','.join(map(str, result.attaining_perm))}\n"
    )


def test_canon(capsys):
    assert cli.main(["canon", "--t", "3,1,2"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,3"
    assert cli.main(["canon", "--t", "1i,0"]) == 2


def test_lift_and_byte_identical_shuffle(tmp_path, capsys):
    rng = np.random.default_rng(0)
    samples = [rng.uniform(-5, 5, size=4).tolist() for _ in range(12)]
    plain = tmp_path / "field.jsonl"
    write_lines(
        plain,
        [{"point": [i / 12], "tuple": row} for i, row in enumerate(samples)],
    )
    shuffled = tmp_path / "shuffled.jsonl"
    write_lines(
        shuffled,
        [
            {"point": [i / 12], "tuple": [row[j] for j in rng.permutation(4)]}
            for i, row in enumerate(samples)
        ],
    )
    out1, out2 = tmp_path / "out1.jsonl", tmp_path / "out2.jsonl"
    assert cli.main(["lift", "--input", str(plain), "--output", str(out1)]) == 0
    err = capsys.readouterr().err
    assert "max_ratio = 1" in err
    assert cli.main(["lift", "--input", str(shuffled), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_lift_constant_field(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    write_lines(path, [{"point": [float(i)], "tuple": [2.0, -1.0]} for i in range(5)])
    out = tmp_path / "out.jsonl"
    assert cli.main(["lift", "--input", str(path), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    tuples = [json.loads(line)["tuple"] for line in lines[1:]]
    assert tuples == [[-1.0, 2.0]] * 5  # identical sorted lines


TWO_SAMPLES = [{"point": [0.0], "tuple": [3.0, 1.0]}, {"point": [1.0], "tuple": [0.0, 2.0]}]


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"meta": {"adjacency": [["a", 1]]}}),
        json.dumps({"meta": {"m": "x"}}),
        json.dumps({"meta": {"adjacency": [[0, 1.7]]}}),  # once truncated to (0, 1)
        json.dumps({"meta": {"adjacency": [[0, True]]}}),
        json.dumps({"meta": {"n": 2.0}}),
        json.dumps({"point": [0.5], "tuple": [10**400, 1.0]}),  # 401 digits
        '{"point": [0.5], "tuple": [%s, 1.0]}' % ("9" * 5000),  # beyond int()'s digit limit
        json.dumps({"meta": {"adjacency": [[0, 99]]}}),
    ],
    ids=["adjacency-string", "meta-m-string", "adjacency-float", "adjacency-bool",
         "meta-n-float", "tuple-overflow", "tuple-long-literal", "adjacency-out-of-range"],
)
def test_lift_malformed_field_file_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "bad.jsonl"
    path.write_text(text + "\n" + "".join(json.dumps(obj) + "\n" for obj in TWO_SAMPLES))
    out = tmp_path / "out.jsonl"
    assert cli.main(["lift", "--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_lift_writes_no_output_when_the_isometry_gate_fails(tmp_path, capsys, monkeypatch):
    real_lift = selection.lift_field

    def stretched_lift(field):
        lifted = real_lift(field)
        return LiftedField(lifted.points, 2.0 * lifted.values, lifted.adjacency)

    monkeypatch.setattr(selection, "lift_field", stretched_lift)
    path = tmp_path / "f.jsonl"
    write_lines(path, TWO_SAMPLES)
    out = tmp_path / "out.jsonl"
    assert cli.main(["lift", "--input", str(path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "max_ratio = 2 " in err
    assert "invariant violation: sorted lift must be an isometry" in err
    assert not out.exists()


def test_lift_gate_fails_closed_on_a_nan_ratio(tmp_path, capsys):
    # Finite tuples whose edge sum overflows: refused as input, as dist refuses it.
    path = tmp_path / "f.jsonl"
    write_lines(path, [{"point": [0.0], "tuple": [1e308, 0.0]},
                       {"point": [1.0], "tuple": [-1e308, 0.0]}])
    out = tmp_path / "out.jsonl"
    assert cli.main(["lift", "--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: edge (0, 1): the distance between these tuples overflows float64\n")
    assert not out.exists()


DEEP_JSON = b'{"point": [0.0], "tuple": [1.0, 2.0]}\n' + b"[" * 100_000 + b"\n"


@pytest.mark.parametrize(
    "argv, data, expected",
    [
        (["lift"], b"\xff\xfe" + json.dumps(TWO_SAMPLES[0]).encode() + b"\n",
         "line 1: not UTF-8 text"),
        (["lift", "--csv"], b"point_0,tuple_0,tuple_1\n\xff\xfe,1,2\n", "line 2: not UTF-8 text"),
        (["dist", "--file"], b"1,2\n\xff\xfe\n", "line 2: not UTF-8 text"),
        (["lift"], DEEP_JSON, "line 2: JSON nested too deeply"),
    ],
    ids=["lift-utf16-bom", "lift-csv-utf16-bom", "dist-file-utf16-bom", "lift-deep-nesting"],
)
def test_undecodable_or_over_deep_input_is_input_error(tmp_path, capsys, argv, data, expected):
    path = tmp_path / "bad.in"
    path.write_bytes(data)
    out = tmp_path / "out.jsonl"
    if argv[0] == "lift":
        argv = argv + ["--input", str(path), "--output", str(out)]
    else:
        argv = argv + [str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {expected}")
    assert not out.exists()


def test_lift_refuses_complex(tmp_path, capsys):
    path = tmp_path / "loop.jsonl"
    write_lines(path, [{"point": [0.0], "tuple": [[1.0, 0.0], [0.0, 1.0]]}] * 2)
    assert cli.main(["lift", "--input", str(path), "--output", str(tmp_path / "o")]) == 2
    assert "holonomy" in capsys.readouterr().err


def test_lift_csv_input(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("point_0,tuple_0,tuple_1\n0.0,3.0,1.0\n1.0,1.5,2.5\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["lift", "--input", str(path), "--output", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[1])["tuple"] == [1.0, 3.0]


def test_holonomy_generated(capsys):
    assert cli.main(["holonomy", "--k", "2", "--steps", "256"]) == 0
    out = capsys.readouterr().out
    assert "cycle type = 2-cycle (0 1)" in out
    assert "steps = 256" in out
    lines = out.splitlines()
    assert [line.split(" = ")[0] for line in lines] == ["cycle type", "total cost", "steps", "margin"]
    value, at_step = lines[3].removeprefix("margin = ").split(" at step ")
    assert 0.0 < float(value) < 1.0
    assert 0 <= int(at_step) < 256
    assert cli.main(["holonomy", "--k", "3", "--steps", "512"]) == 0
    assert "3-cycle" in capsys.readouterr().out


def test_holonomy_from_file(tmp_path, capsys):
    from symprod.fieldfile import write_loop_file

    path = tmp_path / "loop.jsonl"
    write_loop_file(path, roots_loop_generator(2, 64))
    assert cli.main(["holonomy", "--input", str(path)]) == 0
    assert "2-cycle" in capsys.readouterr().out


def test_holonomy_constant_loop_identity(tmp_path, capsys):
    path = tmp_path / "const.jsonl"
    write_lines(path, [{"point": [0.0], "tuple": [[1.0, 0.0], [2.0, 0.0]]}] * 8)
    assert cli.main(["holonomy", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cycle type = identity" in out
    assert "total cost = 0" in out


@pytest.mark.parametrize("adjacency", [[[0, 99]], [[0, True]]], ids=["out-of-range", "bool"])
def test_holonomy_file_with_a_bad_edge_is_input_error(tmp_path, capsys, adjacency):
    path = tmp_path / "loop.jsonl"
    write_lines(path, [{"meta": {"adjacency": adjacency}}]
                + [{"point": [0.0], "tuple": [[1.0, 0.0], [2.0, 0.0]]}] * 8)
    assert cli.main(["holonomy", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("extra", [["--steps", "5"], ["--radius", "3"], ["--steps", "5", "--radius", "3"]])
def test_holonomy_input_refuses_generator_options(tmp_path, capsys, extra):
    from symprod.fieldfile import write_loop_file

    path = tmp_path / "loop.jsonl"
    write_loop_file(path, roots_loop_generator(2, 64))
    assert cli.main(["holonomy", "--input", str(path), *extra]) == 2
    assert "give either --input or --k/--steps" in capsys.readouterr().err
    # without --input, --radius still sizes the generated loop, and 1 is its default
    outputs = []
    for radius in ([], ["--radius", "1"], ["--radius", "3"]):
        assert cli.main(["holonomy", "--k", "2", "--steps", "64", *radius]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]
    assert "2-cycle" in outputs[2]


def test_holonomy_undersampled_exit_code(capsys):
    assert cli.main(["holonomy", "--k", "2", "--steps", "8"]) == 3
    assert "need at least 16" in capsys.readouterr().err


def test_holonomy_argument_validation(capsys):
    assert cli.main(["holonomy"]) == 2
    assert cli.main(["holonomy", "--k", "2"]) == 2


def test_holonomy_fewer_than_two_steps_is_input_error(capsys):
    for steps in ("-4", "0", "1"):
        assert cli.main(["holonomy", "--k", "3", "--steps", steps]) == 2
        assert "undersampled" not in capsys.readouterr().err
    assert cli.main(["holonomy", "--k", "3", "--steps", "2"]) == 3
    assert "need at least 24" in capsys.readouterr().err


def test_holonomy_too_large_to_allocate_is_input_error(capsys):
    # 10^13 sample angles need 80 TB: the first allocation is refused at once.
    assert cli.main(["holonomy", "--k", "2", "--steps", "10000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_lemmas_pass_table(capsys):
    assert cli.main(["lemmas", "--n", "2..3", "--trials", "15"]) == 0
    out = capsys.readouterr().out
    for name in (
        "displacement-bound",
        "exterior-openness",
        "interior-order-uniqueness",
        "boundary-has-ties",
        "stabilizer-minimality",
        "stabilizer-order",
        "diagonal-distance-closed-form",
    ):
        assert name in out
    assert "FAIL" not in out
    assert "all 14 checks passed (seed = 0)" in out


def test_lemmas_fault_injection_fails(capsys, monkeypatch):
    # A mutation: every stabilizer is all of S_n, which moves points off their diagonal.
    real_stabilizer = lemmas.stabilizer_of
    monkeypatch.setattr(
        lemmas, "stabilizer_of",
        lambda p: real_stabilizer(BlockPartition(blocks=(tuple(range(p.n)),), n=p.n)),
    )
    assert cli.main(["lemmas", "--n", "2..3", "--trials", "15"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "FAILED" in captured.err
    with pytest.raises(SystemExit) as exc:  # no option switches a fault on
        cli.main(["lemmas", "--inject-fault", "flip-displacement"])
    assert exc.value.code == 2


def test_lemmas_seed_sources(capsys, monkeypatch):
    monkeypatch.setenv("SYMPROD_SEED", "7")
    assert cli.main(["lemmas", "--n", "2", "--trials", "10"]) == 0
    assert "(seed = 7)" in capsys.readouterr().out
    assert cli.main(["lemmas", "--n", "2", "--trials", "10", "--seed", "3"]) == 0
    assert "(seed = 3)" in capsys.readouterr().out
    monkeypatch.setenv("SYMPROD_SEED", "twelve")
    assert cli.main(["lemmas", "--n", "2", "--trials", "10"]) == 2


def test_lemmas_bad_n_range(capsys):
    assert cli.main(["lemmas", "--n", "abc"]) == 2
    assert cli.main(["lemmas", "--n", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["lemmas", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: invalid n range '0'\n"


def test_a_long_lemma_range_is_refused_unread(capsys):
    # Only the range's ends are read, never a list of 3 million sizes.  symprod.lemmas is
    # imported above, so the trace holds only the parse and the refusal.
    tracemalloc.start()
    try:
        assert cli.main(["lemmas", "--n", "2..3000000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (
        "error: brute force too large: n = 3000000 exceeds cap 8 (3000000! permutations)\n"
    )
    assert peak < 1 << 20


def test_lemmas_without_trials_is_input_error(capsys):
    for extra in (["--trials", "-5"], ["--trials", "0"]):
        assert cli.main(["lemmas", "--n", "2", *extra]) == 2
        captured = capsys.readouterr()
        assert "passed" not in captured.out
        assert "need" in captured.err


def test_lemmas_has_no_grid_trials_option(capsys):
    # The closed-form check runs a fixed min(trials, 50); the grid-era option is gone.
    with pytest.raises(SystemExit) as exc:
        cli.main(["lemmas", "--n", "2", "--grid-trials", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --grid-trials 5" in captured.err


def test_bench(capsys):
    assert cli.main(["bench", "--n", "2,5", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "cross-check ok" in out
    for engine in ("sorted", "assignment", "brute"):
        assert engine in out


def test_bench_exits_1_when_an_engine_disagrees(capsys, monkeypatch):
    real = metric._ENGINES["assignment"]

    def off_by_one(y, z):
        result = real(y, z)
        return Distance(result.value + 1.0, result.attaining_perm, result.engine)

    monkeypatch.setitem(metric._ENGINES, "assignment", off_by_one)
    assert cli.main(["bench", "--n", "3", "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith("3 cross-check MISMATCH (max deviation 1.000e+00)\n")
    assert captured.err == "invariant violation: engines disagree beyond 1e-9 on benchmark inputs\n"


def test_bench_skips_brute_above_cap(capsys):
    assert cli.main(["bench", "--n", "9", "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "brute" not in out
    assert "cross-check" not in out


def test_bench_without_reps_is_input_error(capsys):
    for reps in ("0", "-1"):
        assert cli.main(["bench", "--n", "2", "--reps", reps]) == 2
        assert "--reps" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["frobnicate"])
    assert exc_info.value.code == 2


def test_parse_tuple_text():
    assert np.array_equal(cli.parse_tuple_text("1, 2,3"), [1.0, 2.0, 3.0])
    assert cli.parse_tuple_text("1+2i,0").dtype == np.complex128
    with pytest.raises(Exception):
        cli.parse_tuple_text("")


def per_component(text):
    """The per-component parser, the reference for the whole-text fast path."""
    entries = [e.strip() for e in text.split(",") if e.strip()]
    if not entries:
        raise InputError(f"empty tuple: {text!r}")
    values = []
    any_complex = False
    for entry in entries:
        try:
            values.append(float(entry))
            continue
        except ValueError:
            pass
        try:
            values.append(complex(entry.replace("i", "j")))
            any_complex = True
        except ValueError:
            raise InputError(f"cannot parse component {entry!r}") from None
    return np.asarray(values, dtype=complex if any_complex else float)


def parse_outcome(parse, text):
    try:
        values = parse(text)
    except InputError as exc:
        return ("error", str(exc))
    return ("values", values.dtype, values.shape, values.tobytes())


TUPLE_TEXT_TOKENS = list("0123456789+-.e, \t\n#_ji") + ["nan", "inf", "1e400", "\u00a0", "\u0661"]
REPR_TEXT = st.builds(
    lambda sep, values: sep.join(map(repr, values)),
    st.sampled_from([",", ", ", " ,", ",\t"]),
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**20), 10**20),
        min_size=1, max_size=6,
    ),
)


@given(text=st.lists(st.sampled_from(TUPLE_TEXT_TOKENS), max_size=24).map("".join) | REPR_TEXT)
def test_tuple_text_parse_agrees_with_the_per_component_parser(text):
    assert parse_outcome(cli.parse_tuple_text, text) == parse_outcome(per_component, text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1, ,2", [1.0, 2.0]),
        ("1,2,  ", [1.0, 2.0]),
        ("1_0,2", [10.0, 2.0]),
        ("nan,1", [np.nan, 1.0]),
        ("\n1,2\n", [1.0, 2.0]),
    ],
)
def test_tuple_text_forms(text, expected):
    np.testing.assert_array_equal(cli.parse_tuple_text(text), expected)


@pytest.mark.parametrize("text", ["1,2#3", "1\n2", "1,2\n3,4", "", " , "])
def test_tuple_text_refusals(text):
    with pytest.raises(InputError):
        cli.parse_tuple_text(text)


@pytest.mark.parametrize("command", ["lemmas", "bench"])
def test_negative_seed_is_input_error(command, capsys, monkeypatch):
    argv = [command, "--n", "2", "--" + ("trials" if command == "lemmas" else "reps"), "1"]
    assert cli.main(argv + ["--seed", "-1"]) == 2
    assert "need seed >= 0, got -1" in capsys.readouterr().err
    monkeypatch.setenv("SYMPROD_SEED", "-3")
    assert cli.main(argv) == 2


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Small input files of every kind the CLI reads, plus a directory and a missing path."""
    root = tmp_path_factory.mktemp("argv")
    write_lines(root / "field.jsonl", [{"point": [0.0], "tuple": [2.0, 1.0]},
                                       {"point": [1.0], "tuple": [0.5, 3.0]}])
    (root / "field.csv").write_text("point_0,tuple_0,tuple_1\n0.0,3.0,1.0\n1.0,1.5,2.5\n")
    (root / "pair.txt").write_text("1,5\n2,3\n")
    (root / "junk.jsonl").write_bytes(b"\xff{[\n")
    loop = tmp_path_factory.mktemp("loop") / "loop.jsonl"
    from symprod.fieldfile import write_loop_file
    write_loop_file(loop, roots_loop_generator(2, 16))
    names = ["field.jsonl", "field.csv", "pair.txt", "junk.jsonl", "missing.jsonl", "out.jsonl"]
    return [str(root / name) for name in names] + [str(root), str(loop)]


ARGV_COMMANDS = ["dist", "canon", "lift", "holonomy", "lemmas", "bench"]
ARGV_FLAGS = [
    "--a", "--b", "--file", "--engine", "--t", "--input", "--output", "--csv", "--k", "--steps",
    "--radius", "--n", "--trials", "--seed", "--grid-trials", "--inject-fault", "--reps",
]
# Small numbers only, so that every accepted command finishes quickly.
ARGV_VALUES = [
    "1,5", "3,1,2", "1+2j,-1j", "", ",", "nan", "inf", "-1", "0", "1", "2", "3", "9", "1e400",
    "2..3", "3..2", "..", "x", "sorted", "brute", "assignment", "auto", "flip-displacement",
    "bogus", "-", "--",
]


@given(data=st.data())
def test_any_argv_exits_with_a_known_code(argv_files, data):
    values = st.sampled_from(ARGV_VALUES + argv_files) | st.text(max_size=6)
    words = st.sampled_from(ARGV_COMMANDS + ARGV_FLAGS) | values
    options = st.lists(st.tuples(st.sampled_from(ARGV_FLAGS), values), max_size=4)
    argv = data.draw(
        st.lists(words, max_size=8)
        | st.tuples(st.sampled_from(ARGV_COMMANDS), options).map(
            lambda c: [c[0], *(word for pair in c[1] for word in pair)]
        )
    )
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: usage errors exit 2, --help exits 0
        assert exc.code in (0, 2)
        return
    assert code in (0, 2, 3)  # exit 1 is an invariant violation, which no argv here reaches


def test_importing_the_cli_loads_no_statistics_modules():
    # Only `bench` takes a median, and it imports statistics.median in its own
    # body; at module level statistics would pull in fractions and decimal at
    # every start.
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", "import sys, symprod.cli; "
         "print(sorted({'statistics', 'fractions', 'decimal'} & sys.modules.keys()))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


LOAD_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
import symprod
code = None
if argv is not None:
    import symprod.cli
    symprod.cli.build_parser()
    if argv:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = symprod.cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("symprod."))]))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (None, []),
        ([], ["cli", "errors"]),
        (["holonomy", "--k", "3", "--steps", "24"], ["cli", "core", "errors", "metric", "monodromy"]),
        (["lemmas", "--n", "2", "--trials", "2"], ["cli", "core", "diagonal", "errors", "lemmas"]),
        (["canon", "--t", "3,1,2"], ["cli", "core", "errors", "metric", "selection"]),
        (["dist", "--a", "1,5", "--b", "2,3"], ["cli", "core", "errors", "metric"]),
        (["dist", "--file"], ["cli", "core", "errors", "metric"]),
        (["bench", "--n", "2", "--reps", "1"], ["cli", "core", "errors", "metric"]),
        (["lift"], ["cli", "core", "errors", "fieldfile", "metric", "selection"]),
        (["holonomy", "--input"],
         ["cli", "core", "errors", "fieldfile", "metric", "monodromy", "selection"]),
    ],
    ids=["import-symprod", "build-parser", "holonomy", "lemmas", "canon", "dist", "dist-file",
         "bench", "lift", "holonomy-input"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, loaded, tmp_path):
    # A fresh interpreter: `import symprod` loads no submodule, and a subcommand
    # loads the modules it calls and nothing more.
    if argv == ["lift"]:
        field = tmp_path / "field.jsonl"
        write_lines(field, [{"point": [0.0], "tuple": [2.0, 1.0]},
                            {"point": [1.0], "tuple": [1.0, 3.0]}])
        argv = argv + ["--input", str(field), "--output", str(tmp_path / "out.jsonl")]
    if argv == ["holonomy", "--input"]:
        loop = tmp_path / "loop.jsonl"
        write_lines(loop, [{"point": [0.0], "tuple": [[1.0, 0.0], [2.0, 0.0]]}] * 4)
        argv = argv + [str(loop)]
    if argv == ["dist", "--file"]:
        pair = tmp_path / "pair.txt"
        pair.write_text("1,5\n2,3\n")
        argv = argv + [str(pair)]
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stdout)
    assert code == (0 if argv else None)
    assert modules == [f"symprod.{name}" for name in loaded]


# The argvs of the module-loading test above, read from its parametrize mark, so an
# argv added there is checked here too.
LOAD_CASES = next(mark for mark in test_each_subcommand_loads_only_the_modules_it_runs.pytestmark
                  if mark.name == "parametrize")


def readme_load_table() -> tuple[set[str], dict[str, set[str]]]:
    """README's parser modules, and its "subcommand / also loads" rows as label -> modules."""
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    parser = re.search(r"Building its\s+parser loads ([^;]*);", readme)
    table = readme[readme.index("\n| subcommand | also loads |"):].split("\n\n", 1)[0]
    rows = {}
    for line in table.strip().splitlines()[2:]:
        labels, modules = (re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:3])
        rows.update((label, set(modules)) for label in labels)
    return set(re.findall(r"`(\w+)`", parser.group(1))), rows


def test_readme_load_table_lists_the_pinned_module_sets():
    # A label such as "dist --a/--b" covers each argv whose leading words it lists.
    def covers(label, argv):
        words = label.split()
        return len(argv) >= len(words) and all(a in w.split("/") for a, w in zip(argv, words))

    base, rows = readme_load_table()
    pinned = {tuple(argv): set(loaded) for argv, loaded in LOAD_CASES.args[1] if argv is not None}
    assert len(rows) >= 8, rows  # a parse that finds no rows cannot pass
    assert base == pinned.pop(()) == {"cli", "errors"}
    for argv, loaded in pinned.items():
        labels = [label for label in rows if covers(label, argv)]
        assert len(labels) == 1, (argv, labels)
        assert rows[labels[0]] | base == loaded, labels[0]
    for label in rows:
        assert any(covers(label, argv) for argv in pinned), f"{label}: no pinned argv"


@pytest.mark.parametrize("argv", [argv for argv, _ in LOAD_CASES.args[1]],
                         ids=LOAD_CASES.kwargs["ids"])
def test_no_subcommand_loads_numpy_ma(argv, tmp_path):
    # np.unique, np.median and np.quantile import numpy.ma (about 11 ms) on numpy 2.x.
    if argv == ["lift"]:
        field = tmp_path / "field.jsonl"
        write_lines(field, [{"point": [0.0], "tuple": [2.0, 1.0]},
                            {"point": [1.0], "tuple": [1.0, 3.0]}])
        argv = argv + ["--input", str(field), "--output", str(tmp_path / "out.jsonl")]
    if argv == ["holonomy", "--input"]:
        loop = tmp_path / "loop.jsonl"
        write_lines(loop, [{"point": [0.0], "tuple": [[1.0, 0.0], [2.0, 0.0]]}] * 4)
        argv = argv + [str(loop)]
    if argv == ["dist", "--file"]:
        pair = tmp_path / "pair.txt"
        pair.write_text("1,5\n2,3\n")
        argv = argv + [str(pair)]
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE + 'print(json.dumps("numpy.ma" in sys.modules))\n',
         json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    probe_line, ma_line = result.stdout.splitlines()
    assert json.loads(probe_line)[0] == (0 if argv else None)
    assert ma_line == "false"


def test_the_command_and_the_module_run_share_one_entry():
    tomllib = pytest.importorskip("tomllib")
    path = Path(cli.__file__).resolve()
    scripts = tomllib.loads((path.parents[2] / "pyproject.toml").read_text())["project"]["scripts"]
    (block,) = [node for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in block.body] == ["_script()"]
    assert scripts == {"symprod": "symprod.cli:_script"}


FREEZE_PROBE = """
import contextlib, gc, io, json, sys
import symprod.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [symprod.cli.main(["canon", "--t", "3,1,2"]) for _ in range(2)]
    frozen_by_main, enabled_after_main = gc.get_freeze_count(), gc.isenabled()
    sys.argv[1:] = ["canon", "--t", "3,1,2"]
    try:
        symprod.cli._script()
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([codes, frozen_by_main, gc.get_freeze_count(), enabled_after_main]))
"""


def test_only_the_process_entry_freezes_the_heap():
    # main() is called repeatedly in one process (tests, the tracer, host programs),
    # so it must leave their garbage collectable; the entry freezes just before exit.
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    codes, frozen_by_main, frozen_by_entry, enabled_after_main = json.loads(result.stdout)
    assert codes == [0, 0, 0]
    assert frozen_by_main == 0
    assert enabled_after_main  # the collector is the entry's to stop, never main()'s
    assert frozen_by_entry > 0


ENTRY_PROBE = """
import gc, json, sys
import symprod.cli

def probe():
    print(json.dumps([gc.isenabled(), "numpy" in sys.modules]))
    return 7

symprod.cli.main = probe
symprod.cli._script()
"""


def test_the_process_entry_stops_the_collector_before_numpy_loads():
    # The collector finds next to nothing in a CLI run (see the test below), but it
    # runs dozens of times while numpy's import builds its objects.
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", ENTRY_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 7, result.stderr
    assert json.loads(result.stdout) == [False, False]  # collector off, numpy not loaded yet


def unreachable_after_main(argv) -> int:
    """Objects that ``cli.main(argv)`` leaves in unreachable cycles, collected once after it."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


def test_a_run_without_the_collector_leaves_cycles_that_do_not_grow_with_its_input(tmp_path):
    # What a run without the collector never frees: equal counts at a small and a
    # large input mean the cycles are the run's fixed overhead, not its data.
    def lift_argv(rows):
        path = tmp_path / f"field{rows}.jsonl"
        rng = np.random.default_rng(rows)
        write_lines(path, [{"point": [float(i)], "tuple": rng.uniform(-1, 1, 4).tolist()}
                           for i in range(rows)])
        return ["lift", "--input", str(path), "--output", str(tmp_path / "out.jsonl")]

    pairs = [
        (lift_argv(50), lift_argv(5000)),
        (["lemmas", "--trials", "5", "--seed", "1"], ["lemmas", "--trials", "150", "--seed", "1"]),
        (["holonomy", "--k", "3", "--steps", "24"], ["holonomy", "--k", "64", "--steps", "2048"]),
    ]
    for small, large in pairs:
        unreachable_after_main(small)  # the first run's imports are not a run's cost
        counts = [unreachable_after_main(small), unreachable_after_main(large)]
        assert counts[0] == counts[1], (small[0], counts)


@pytest.mark.parametrize("argv, code", [
    (["canon", "--t", "3,1,2"], 0),
    (["lemmas", "--n", "2..9"], 2),
    (["holonomy", "--k", "3", "--steps", "12"], 3),
], ids=["canon", "lemmas-past-cap", "holonomy-undersampled"])
def test_module_run_matches_in_process_main(argv, code, capsys):
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "symprod.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert (result.stdout, result.stderr, result.returncode) == (captured.out, captured.err, code)


def test_a_profiled_module_run_writes_its_profile(tmp_path, capsys):
    # A profile of the real child is how per-layer times are taken: the run must end
    # through the normal exit path (SystemExit, not os._exit), which cProfile catches
    # before it writes the profile.
    import pstats

    argv, profile = ["holonomy", "--k", "3", "--steps", "192"], tmp_path / "holonomy.prof"
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(profile), "-m", "symprod.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert cli.main(argv) == 0
    assert (result.stdout, result.returncode) == (capsys.readouterr().out, 0), result.stderr
    functions = pstats.Stats(str(profile)).stats  # keyed by (file, line, function name)
    assert any(Path(file).name == "monodromy.py" and name == "track_loop"
               for file, _, name in functions)


def test_lift_overflow_prints_no_numpy_warning(tmp_path):
    # The real stderr of a fresh interpreter, where numpy's warnings would land.
    path = tmp_path / "f.jsonl"
    write_lines(path, [{"point": [0.0], "tuple": [1e308, 0.0]},
                       {"point": [1.0], "tuple": [-1e308, 0.0]}])
    out = tmp_path / "out.jsonl"
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-W", "default", "-c",
         "import sys; from symprod.cli import main; sys.exit(main(sys.argv[1:]))",
         "lift", "--input", str(path), "--output", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2
    assert "RuntimeWarning" not in result.stderr
    assert result.stderr.splitlines() == [
        "error: edge (0, 1): the distance between these tuples overflows float64",
    ]
    assert not out.exists()


@pytest.mark.parametrize("parent, reason", [
    ("missing-dir", "[Errno 2] No such file or directory"),
    ("regular-file", "[Errno 20] Not a directory"),
], ids=["missing-dir", "regular-file"])
def test_a_failed_output_open_names_the_requested_path(tmp_path, parent, reason):
    # Two fresh interpreters, so two process ids: the temporary file's name would differ.
    path = tmp_path / "f.jsonl"
    write_lines(path, [{"point": [0.0], "tuple": [2.0, 1.0]}, {"point": [1.0], "tuple": [1.0, 3.0]}])
    if parent == "regular-file":
        (tmp_path / parent).write_bytes(b"")
    out = tmp_path / parent / "x.jsonl"
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = [subprocess.run(
        [sys.executable, "-m", "symprod.cli", "lift", "--input", str(path), "--output", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    ) for _ in range(2)]
    assert [r.returncode for r in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr == f"error: {reason}: '{out}'\n"  # refused before the lift reports
    assert ".tmp" not in runs[0].stderr
    assert {p.name for p in tmp_path.iterdir()} - {parent} == {"f.jsonl"}


LEMMA_TABLE_SEED_3 = "".join(
    f"{name:<29}  {n}  {trials:>6}           0  PASS\n"
    for n in range(2, 7)
    for name, trials in [
        ("displacement-bound", 450),
        ("exterior-openness", 1500),
        ("interior-order-uniqueness", 150),
        ("boundary-has-ties", 150),
        ("stabilizer-minimality", 150),
        ("stabilizer-order", 150),
        ("diagonal-distance-closed-form", 50),
    ]
)


def test_lemmas_golden_table(capsys):
    assert cli.main(["lemmas", "--n", "2..6", "--trials", "150", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        "check                          n  trials  violations  status\n"
        + LEMMA_TABLE_SEED_3
        + "all 35 checks passed (seed = 3)\n"
    )


HOLONOMY_GOLDEN = {
    ("3", "192"): (
        "cycle type = 3-cycle (0 1 2)\n"
        "total cost = 6.28315415541\n"
        "steps = 192\n"
        "margin = 0.0377872994061 at step 176\n"
    ),
    ("8", "128"): (
        "cycle type = 8-cycle (0 1 2 3 4 5 6 7)\n"
        "total cost = 6.28317545055\n"
        "steps = 128\n"
        "margin = 0.128271317899 at step 93\n"
    ),
    ("64", "2048"): (
        "cycle type = 64-cycle (" + " ".join(map(str, range(64))) + ")\n"
        "total cost = 6.28318530658\n"
        "steps = 2048\n"
        "margin = 0.0625251067541 at step 1561\n"
    ),
}


@pytest.mark.parametrize("k, steps", list(HOLONOMY_GOLDEN))
def test_holonomy_golden_output(capsys, k, steps):
    assert cli.main(["holonomy", "--k", k, "--steps", steps]) == 0
    assert capsys.readouterr().out == HOLONOMY_GOLDEN[k, steps]


def loop_file_lines(k: int, steps: int) -> list[str]:
    """The lines ``write_loop_file`` writes for a roots loop."""
    samples = roots_loop_generator(k, steps).samples
    meta = json.dumps({"meta": {"m": 1, "n": k, "adjacency": "path"}})
    return [meta] + [json.dumps({"point": [j / steps],
                                 "tuple": [[z.real, z.imag] for z in row.tolist()]})
                     for j, row in enumerate(samples)]


# A small valid file per command: its name, its lines and the command's argv.
FUZZ_FILES = {
    "lift": ("f.jsonl", [
        json.dumps({"meta": {"m": 1, "n": 3, "adjacency": "path"}}),
        json.dumps({"point": [0.0], "tuple": [3.0, 1.0, 2.0]}),
        json.dumps({"point": [0.5], "tuple": [2.5, 1.5, 2.0]}),
        json.dumps({"point": [1.0], "tuple": [2.0, 2.0, 1.0]}),
    ], ["lift", "--output", "{dir}/out.jsonl", "--input"]),
    "lift-csv": ("f.csv", ["point_0,tuple_0,tuple_1", "0.0,3.0,1.0", "0.5,2.0,2.0", "1.0,1.5,2.5"],
                 ["lift", "--csv", "--output", "{dir}/out.jsonl", "--input"]),
    "holonomy": ("loop.jsonl", loop_file_lines(2, 16), ["holonomy", "--input"]),
    "dist": ("pair.txt", ["1,5,2.5", "2+1j,3,-1j"], ["dist", "--file"]),
}
FUZZ_TOKENS = [b"1e308", b"-1e308", b"+1e308", b"1e-320", b"-0", b"nan", b"x", b"\xff",
               b",", b"[", b"]", b"{", b"}", b'"', b":", b" "]
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@st.composite
def mutated_file(draw, lines):
    """``lines`` as bytes after 0-3 line splits, deletions, duplications or token edits."""
    lines = [line.encode() for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, max(0, len(lines) - 1)))
        line = lines[at] if lines else b""
        kind = draw(st.sampled_from(["split", "delete", "duplicate", "insert", "replace"]))
        cut = draw(st.integers(0, len(line)))
        token = draw(st.sampled_from(FUZZ_TOKENS))
        if kind == "split":
            lines[at:at + 1] = [line[:cut], line[cut:]]
        elif kind == "delete" and lines:
            del lines[at]
        elif kind == "duplicate" and lines:
            lines.insert(at, line)
        elif kind == "insert":
            lines[at:at + 1] = [line[:cut] + token + line[cut:]]
        elif kind == "replace" and (numbers := list(NUMBER.finditer(line))):
            number = numbers[draw(st.integers(0, len(numbers) - 1))]
            lines[at] = line[:number.start()] + token + line[number.end():]
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return end.join(lines) + draw(st.sampled_from([end, b""]))


@pytest.mark.parametrize("command", FUZZ_FILES)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_files_exit_0_2_or_3_and_never_raise(tmp_path, command, data):
    """Never exit 1: a finite component past 1e307 whose edge distance overflows is input."""
    name, lines, argv = FUZZ_FILES[command]
    path = tmp_path / name
    path.write_bytes(data.draw(mutated_file(lines)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([arg.format(dir=tmp_path) for arg in argv] + [str(path)])
    assert code in (0, 2, 3), err.getvalue()
