import contextlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symprod import cli, fieldfile
from symprod.errors import InputError
from symprod.fieldfile import (
    FieldDocument,
    read_csv_field,
    read_field_file,
    write_lifted_file,
    write_loop_file,
)
from symprod.monodromy import ComplexLoop, roots_loop_generator
from symprod.selection import SampledField, lift_field


def write_lines(path, lines):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))


def test_read_real_field(tmp_path):
    path = tmp_path / "f.jsonl"
    write_lines(
        path,
        [
            {"meta": {"m": 1, "n": 2, "adjacency": "path"}},
            {"point": [0.0], "tuple": [3.0, 1.0]},
            {"point": [1.0], "tuple": [1.5, 2.5]},
        ],
    )
    doc = read_field_file(path)
    assert not doc.complex_mode
    assert np.array_equal(doc.points, [[0.0], [1.0]])
    assert np.array_equal(doc.tuples, [[3.0, 1.0], [1.5, 2.5]])
    assert doc.adjacency.tolist() == [[0, 1]]
    assert doc.adjacency.dtype == np.intp and not doc.adjacency.flags.writeable


def test_meta_is_optional(tmp_path):
    path = tmp_path / "f.jsonl"
    write_lines(path, [{"point": [0.0], "tuple": [1.0, 2.0]}, {"point": [1.0], "tuple": [0.0, 0.0]}])
    doc = read_field_file(path)
    assert doc.adjacency.tolist() == [[0, 1]]
    assert doc.adjacency.dtype == np.intp and not doc.adjacency.flags.writeable


def test_explicit_edge_list(tmp_path):
    path = tmp_path / "f.jsonl"
    write_lines(
        path,
        [
            {"meta": {"adjacency": [[0, 2], [1, 2]]}},
            {"point": [0.0], "tuple": [1.0]},
            {"point": [1.0], "tuple": [2.0]},
            {"point": [2.0], "tuple": [3.0]},
        ],
    )
    edges = read_field_file(path).adjacency
    assert edges.tolist() == [[0, 2], [1, 2]]
    assert edges.dtype == np.intp and not edges.flags.writeable


def test_complex_mode_is_read_from_the_tuples_dtype(tmp_path):
    real, complex_, table = tmp_path / "r.jsonl", tmp_path / "c.jsonl", tmp_path / "t.csv"
    write_lines(real, [{"point": [0.0], "tuple": [1.0, 2.0]}])
    write_lines(complex_, [{"point": [0.0], "tuple": [[1.0, 0.5], [2.0, 0.0]]}])
    table.write_text("point_0,tuple_0,tuple_1\n0.0,1.0,2.0\n")
    for doc, kind in (
        (read_field_file(real), "f"),
        (read_field_file(complex_), "c"),
        (read_csv_field(table), "f"),
    ):
        assert doc.tuples.dtype.kind == kind
        assert doc.complex_mode == (kind == "c")
    points, edges = np.zeros((2, 1)), np.array([[0, 1]])
    assert not FieldDocument(points, np.zeros((2, 3)), edges).complex_mode
    assert FieldDocument(points, np.zeros((2, 3), dtype=complex), edges).complex_mode


def test_complex_mode_parses_and_refuses_sorting(tmp_path):
    path = tmp_path / "f.jsonl"
    write_lines(
        path,
        [
            {"point": [0.0], "tuple": [[1.0, 0.5], [0.0, -1.0]]},
            {"point": [0.5], "tuple": [[1.0, 0.6], [0.0, -0.9]]},
        ],
    )
    doc = read_field_file(path)
    assert doc.complex_mode
    assert doc.tuples[0, 0] == 1.0 + 0.5j
    with pytest.raises(InputError, match="cannot be lifted"):
        doc.to_sampled_field()
    loop = doc.to_loop()
    assert loop.step_count == 2


def test_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("not json {", "line 1"),
        ('{"point": [0.0]}', "line 1"),
        ('{"point": [0.0], "tuple": []}', "line 1"),
        ('{"point": [], "tuple": [1.0]}', "line 1"),
        ('{"point": [0.0], "tuple": [1.0]}\n{"point": [0.0], "tuple": [1.0, 2.0]}', "line 2"),
        (
            '{"point": [0.0], "tuple": [1.0]}\n{"point": [0.0, 1.0], "tuple": [2.0]}',
            "line 2",
        ),
        (
            '{"point": [0.0], "tuple": [1.0, [1.0, 2.0]]}',
            "line 1",
        ),
        (
            '{"point": [0.0], "tuple": [1.0]}\n{"meta": {"m": 1}}',
            "line 2: meta line must come first",
        ),
    ]
    for text, fragment in cases:
        path = tmp_path / "bad.jsonl"
        path.write_text(text + "\n")
        with pytest.raises(InputError, match=fragment):
            read_field_file(path)


@pytest.mark.parametrize("rows", [10, 1000], ids=["in-first-8kb", "past-first-8kb"])
def test_bad_bytes_are_named_before_a_syntax_error_wherever_they_sit(tmp_path, rows):
    # Bad JSON on line 1 and a bad byte after the rows: the bad byte is reported
    # whether or not it falls in the first block the text decoder reads.
    row = b'{"point": [0.0], "tuple": [1.0, 2.0]}\n'
    data = b"{not json\n" + row * rows + b"\xff\n"
    assert (data.index(b"\xff") > 8192) == (rows == 1000)
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    with pytest.raises(InputError, match=f"^line {rows + 2}: not UTF-8 text"):
        read_field_file(path)


def test_mixed_real_and_complex_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"point": [0.0], "tuple": [1.0, 2.0]}\n'
        '{"point": [1.0], "tuple": [[1.0, 0.0], [2.0, 0.0]]}\n'
    )
    with pytest.raises(InputError, match="line 2: mixed real and complex"):
        read_field_file(path)


def test_meta_shape_mismatch(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(
        path,
        [{"meta": {"m": 2, "n": 2}}, {"point": [0.0], "tuple": [1.0, 2.0]}],
    )
    with pytest.raises(InputError, match="meta declares m = 2"):
        read_field_file(path)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**63, -(2**63) - 1])
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.integers(-2, 3) | st.floats(-2.0, 2.0)
NEAR_NUMBERS = NUMBERS | st.sampled_from([10**400, 2**63, True]) | JSON_VALUES
VALID_SAMPLES = st.tuples(
    st.lists(NUMBERS, min_size=1, max_size=1), st.lists(NUMBERS, min_size=2, max_size=2)
)
FUZZED_SAMPLES = st.tuples(
    st.lists(NEAR_NUMBERS, min_size=1, max_size=2) | JSON_VALUES,
    st.lists(NEAR_NUMBERS | st.lists(NEAR_NUMBERS, min_size=2, max_size=2), min_size=1, max_size=3)
    | JSON_VALUES,
)


@given(
    meta=st.fixed_dictionaries(
        {},
        optional={
            "m": NEAR_NUMBERS,
            "n": NEAR_NUMBERS,
            "adjacency": st.just("path")
            | st.lists(st.lists(NEAR_NUMBERS, min_size=2, max_size=2) | JSON_VALUES, max_size=3)
            | JSON_VALUES,
        },
    )
    | JSON_VALUES,
    samples=st.lists(VALID_SAMPLES, min_size=1, max_size=3)
    | st.lists(VALID_SAMPLES | FUZZED_SAMPLES, min_size=1, max_size=3),
)
def test_arbitrary_json_gives_document_or_input_error(tmp_path_factory, meta, samples):
    path = tmp_path_factory.mktemp("fuzz") / "f.jsonl"
    write_lines(path, [{"meta": meta}] + [{"point": p, "tuple": t} for p, t in samples])
    try:
        doc = read_field_file(path)
    except InputError:
        return
    assert isinstance(doc, FieldDocument)
    try:
        field = doc.to_loop() if doc.complex_mode else doc.to_sampled_field()
    except InputError:
        return
    assert field is not None


VALID_FILES = [
    b'{"meta": {"m": 1, "n": 2}}\n{"point": [0.0], "tuple": [3.0, 1.0]}\n'
    b'{"point": [1.0], "tuple": [0.5, 2.0]}\n',
    b'{"point": [0.0], "tuple": [[1.0, 0.0], [0.0, 1.0]]}\n',
    b"point_0,tuple_0,tuple_1\n0.0,3.0,1.0\n1.0,1.5,2.5\n",
]
JUNK = st.binary(max_size=8) | st.sampled_from(
    [b"\xff\xfe", b"\xe9", b"\r", b"\x00", b"[" * 100_000]
)


def overwrite(base: bytes, at: int, junk: bytes) -> bytes:
    return base[:at] + junk + base[at + len(junk):]


ARBITRARY_BYTES = st.binary(max_size=64) | st.builds(
    overwrite, st.sampled_from(VALID_FILES), st.integers(0, 120), JUNK
)


@given(data=ARBITRARY_BYTES)
def test_arbitrary_bytes_give_document_or_input_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("bytes") / "f"
    path.write_bytes(data)
    for reader in (read_field_file, read_csv_field):
        try:
            doc = reader(path)
        except InputError:
            continue
        assert isinstance(doc, FieldDocument)


def test_csv_cell_past_the_field_size_limit_is_input_error(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("point_0,tuple_0\n0.0," + "1" * 200_000 + "\n")
    with pytest.raises(InputError, match="line 2: field larger than field limit"):
        read_csv_field(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n")
    with pytest.raises(InputError, match="no samples"):
        read_field_file(path)


def test_lift_write_read_round_trip(tmp_path):
    src = tmp_path / "field.jsonl"
    write_lines(
        src,
        [
            {"meta": {"m": 1, "n": 3, "adjacency": "path"}},
            {"point": [0.0], "tuple": [0.3, -1.25, 4.0]},
            {"point": [0.5], "tuple": [4.125, 0.25, -1.0]},
        ],
    )
    doc = read_field_file(src)
    lifted = lift_field(doc.to_sampled_field())
    out = tmp_path / "lifted.jsonl"
    write_lifted_file(out, lifted)

    again = read_field_file(out)
    assert np.array_equal(again.tuples, lifted.values)
    assert np.array_equal(again.points, doc.points)

    # the lifted file is a fixed point: lifting it again changes no byte
    relifted = lift_field(again.to_sampled_field())
    out2 = tmp_path / "lifted2.jsonl"
    write_lifted_file(out2, relifted)
    assert out.read_bytes() == out2.read_bytes()


def test_write_preserves_shortest_repr(tmp_path):
    src = tmp_path / "field.jsonl"
    # 0.1 has no finite binary expansion; the shortest repr must survive
    write_lines(src, [{"point": [0.1], "tuple": [0.30000000000000004, 0.2]}])
    doc = read_field_file(src)
    lifted = lift_field(doc.to_sampled_field())
    out = tmp_path / "out.jsonl"
    write_lifted_file(out, lifted)
    text = out.read_text()
    assert "0.30000000000000004" in text
    assert "0.1" in text


def test_loop_file_round_trip(tmp_path):
    loop = roots_loop_generator(3, 48)
    path = tmp_path / "loop.jsonl"
    write_loop_file(path, loop)
    doc = read_field_file(path)
    assert doc.complex_mode
    back = doc.to_loop()
    assert back.step_count == 48
    assert np.allclose(back.samples, loop.samples, atol=0)  # exact float copies


def loop_file_by_json(loop) -> str:
    """A loop file built one ``json.dumps`` per line from Python floats."""
    m = loop.step_count
    lines = [json.dumps({"meta": {"m": 1, "n": loop.tuple_n, "adjacency": "path"}})]
    lines += [
        json.dumps({"point": [j / m], "tuple": [[z.real, z.imag] for z in loop.samples[j].tolist()]})
        for j in range(m)
    ]
    return "".join(line + "\n" for line in lines)


def test_loop_file_bytes_match_json_dumps(tmp_path):
    rng = np.random.default_rng(29)
    loops = [roots_loop_generator(k, 8 * k + 3) for k in (2, 3, 7, 64)]
    for _ in range(20):
        m, n = int(rng.integers(2, 40)), int(rng.integers(1, 9))
        magnitude = 10.0 ** rng.uniform(-300, 300, size=(m, n))
        loops.append(ComplexLoop(magnitude * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))))
    # signed zeros, subnormals and the float64 extremes
    loops.append(ComplexLoop([[complex(-0.0, 5e-324), complex(1.79e308, -0.0)],
                              [complex(2.2e-308, -0.0), complex(-1.79e308, 1.0)]]))
    path = tmp_path / "loop.jsonl"
    for loop in loops:
        write_loop_file(path, loop)
        assert path.read_text(encoding="utf-8") == loop_file_by_json(loop)


def test_read_csv_field(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(
        "point_0,point_1,tuple_0,tuple_1,tuple_2\n"
        "0.0,0.0,3.0,1.0,2.0\n"
        "0.5,1.0,-1.0,0.0,0.25\n"
    )
    doc = read_csv_field(path)
    assert doc.points.shape == (2, 2)
    assert doc.tuples.shape == (2, 3)
    assert not doc.complex_mode
    assert doc.adjacency.tolist() == [[0, 1]]
    assert doc.adjacency.dtype == np.intp and not doc.adjacency.flags.writeable
    assert np.array_equal(doc.tuples[0], [3.0, 1.0, 2.0])


def test_csv_header_order_enforced(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("tuple_0,point_0\n1.0,0.0\n")
    with pytest.raises(InputError, match="ordered"):
        read_csv_field(path)


def test_csv_requires_both_column_kinds(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("point_0,value_0\n0.0,1.0\n")
    with pytest.raises(InputError, match="header"):
        read_csv_field(path)


def test_csv_cell_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("point_0,tuple_0\n0.0,1.0\n0.5,oops\n")
    with pytest.raises(InputError, match="line 3"):
        read_csv_field(path)
    path.write_text("point_0,tuple_0\n0.0\n")
    with pytest.raises(InputError, match="line 2: expected 2 cells"):
        read_csv_field(path)


def test_csv_reader_memory_grows_no_faster_than_the_file(tmp_path):
    # Every cell held as a string, plus a copy of the text at 4 bytes per
    # character, peaked near 12 times the file; the text alone is 1 to 2 times.
    rng = np.random.default_rng(3)

    def peak(rows):
        path = tmp_path / f"f{rows}.csv"
        with path.open("w") as handle:
            handle.write("point_0,tuple_0,tuple_1,tuple_2,tuple_3,tuple_4,tuple_5\n")
            handle.writelines(",".join(map(repr, r)) + "\n"
                              for r in rng.uniform(-10.0, 10.0, (rows, 7)).tolist())
        tracemalloc.start()
        try:
            doc = read_csv_field(path)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert doc.tuples.shape == (rows, 6)
        return peak_bytes, path.stat().st_size

    peak(100)  # first-call set-up is not part of either measurement
    (few, few_size), (many, many_size) = peak(2_000), peak(20_000)
    assert many <= 1.25 * few * many_size / few_size
    assert many <= 3 * many_size


def test_csv_and_jsonl_agree(tmp_path):
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("point_0,tuple_0,tuple_1\n0.0,3.5,1.5\n1.0,0.5,2.5\n")
    jsonl_path = tmp_path / "f.jsonl"
    write_lines(
        jsonl_path,
        [
            {"point": [0.0], "tuple": [3.5, 1.5]},
            {"point": [1.0], "tuple": [0.5, 2.5]},
        ],
    )
    a, b = read_csv_field(csv_path), read_field_file(jsonl_path)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.tuples, b.tuples)


def small_lifted():
    return lift_field(SampledField.path([[0.0], [0.5], [1.0]], [[2.0, 1.0], [0.5, 3.0], [1.0, 1.0]]))


# small_lifted() as written, byte for byte
SMALL_LIFTED_TEXT = (
    '{"meta": {"m": 1, "n": 2, "adjacency": "path"}}\n'
    '{"point": [0.0], "tuple": [1.0, 2.0]}\n'
    '{"point": [0.5], "tuple": [0.5, 3.0]}\n'
    '{"point": [1.0], "tuple": [1.0, 1.0]}\n'
)


def test_lifted_write_replaces_the_whole_file(tmp_path):
    out = tmp_path / "lifted.jsonl"
    out.write_text("an older, longer file\n" * 10)
    write_lifted_file(out, small_lifted())
    assert out.read_text(encoding="utf-8") == SMALL_LIFTED_TEXT
    assert [p.name for p in tmp_path.iterdir()] == ["lifted.jsonl"]  # no temporary left


def fail_on_write(monkeypatch, call, error):
    """Make the ``call``-th ``write`` on fieldfile's output handle raise ``error``."""
    calls = itertools.count()
    real_replacing = fieldfile._replacing

    class FailingHandle:
        def __init__(self, handle):
            self.handle = handle

        def write(self, text):
            if next(calls) == call:
                raise error
            return self.handle.write(text)

    @contextlib.contextmanager
    def replacing(path):
        with real_replacing(path) as handle:
            yield FailingHandle(handle)

    monkeypatch.setattr(fieldfile, "_replacing", replacing)


@pytest.mark.parametrize("existing", [True, False])
def test_failed_lifted_write_leaves_the_target_alone(tmp_path, monkeypatch, existing):
    out = tmp_path / "lifted.jsonl"
    if existing:
        out.write_bytes(b"previous output\n")
    fail_on_write(monkeypatch, 2, RuntimeError("interrupted"))  # after the header and one row
    with pytest.raises(RuntimeError, match="interrupted"):
        write_lifted_file(out, small_lifted())
    if existing:
        assert out.read_bytes() == b"previous output\n"
    assert [p.name for p in tmp_path.iterdir()] == (["lifted.jsonl"] if existing else [])


def test_failed_loop_write_leaves_the_target_alone(tmp_path, monkeypatch):
    path = tmp_path / "loop.jsonl"
    path.write_bytes(b"previous loop\n")
    fail_on_write(monkeypatch, 5, RuntimeError("interrupted"))  # after the header and 4 rows
    with pytest.raises(RuntimeError, match="interrupted"):
        write_loop_file(path, roots_loop_generator(3, 48))
    assert path.read_bytes() == b"previous loop\n"
    assert [p.name for p in tmp_path.iterdir()] == ["loop.jsonl"]


def test_lift_cli_write_failure_keeps_the_old_output(tmp_path, monkeypatch, capsys):
    src = tmp_path / "field.jsonl"
    write_lines(src, [{"point": [0.0], "tuple": [2.0, 1.0]}, {"point": [1.0], "tuple": [0.5, 3.0]}])
    out = tmp_path / "lifted.jsonl"
    out.write_bytes(b"previous output\n")
    fail_on_write(monkeypatch, 1, OSError("No space left on device"))
    assert cli.main(["lift", "--input", str(src), "--output", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == b"previous output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["field.jsonl", "lifted.jsonl"]


# The real-mode fast reader against the per-line parser it stands in for.

EDGE_NUMBERS = st.sampled_from(
    [2**53 - 1, 2**53 + 1, 2**53 + 3, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1,
     -(2**63) - 1, -(2**64) - 3, 2**70 + 12345, 10**308, 10**309, 2**1024, -0.0, 5e-324, 1e308,
     True, False, None, "1", [1.0, 2.0]]
)
FIELD_NUMBERS = st.integers(-3, 3) | st.floats(width=64) | EDGE_NUMBERS


@contextlib.contextmanager
def per_line_only():
    """Make the fast reader decline, so only the per-line parser runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldfile, "_read_real_lines", lambda lines: None)
        yield


def read_outcome(path):
    """What reading ``path`` gives: the parsed document's contents or the error text."""
    try:
        doc = read_field_file(path)
    except InputError as exc:
        return ("error", str(exc))
    edges = doc.adjacency
    return (
        "doc",
        doc.points.dtype, doc.points.shape, doc.points.tobytes(),
        doc.tuples.dtype, doc.tuples.shape, doc.tuples.tobytes(),
        edges.dtype, edges.shape, edges.flags.writeable, edges.tolist(), doc.complex_mode,
    )


def assert_same_as_per_line(path):
    fast = read_outcome(path)
    with per_line_only():
        assert read_outcome(path) == fast
    return fast


@st.composite
def field_file_lines(draw):
    """Mostly well-formed real field files of one shape, with a few damaged lines."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    numbers = st.integers(-3, 3) | st.floats(-5.0, 5.0) if draw(st.booleans()) else FIELD_NUMBERS
    samples = draw(st.lists(
        st.fixed_dictionaries({
            "point": st.lists(numbers, min_size=m, max_size=m),
            "tuple": st.lists(numbers, min_size=n, max_size=n),
        }),
        min_size=1, max_size=5,
    ))
    lines = [json.dumps(s) for s in samples]
    if draw(st.booleans()):
        meta = draw(st.sampled_from([{"m": m, "n": n, "adjacency": "path"}, {"n": n + 1},
                                     {"adjacency": [[0, 0]]}, {"m": True}, "path"]))
        lines.insert(0, json.dumps({"meta": meta}))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        damage = draw(st.sampled_from(["blank", "meta", "pair", "split", "mixed", "swap", "pad"]))
        if damage == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
        elif damage == "meta":
            lines.insert(at, json.dumps({"meta": {"n": n}}))
        elif damage == "pair" and at < len(lines) - 1:  # two objects on one line
            lines[at: at + 2] = [lines[at] + draw(st.sampled_from([", ", " ", ""])) + lines[at + 1]]
        elif damage == "split" and at < len(lines):  # one object over two lines
            cut = draw(st.integers(1, max(1, len(lines[at]) - 1)))
            lines[at: at + 1] = [lines[at][:cut], lines[at][cut:]]
        elif damage == "mixed":
            lines.insert(at, json.dumps({"point": [0.0] * m, "tuple": [1.0] * (n + 1)}))
        elif damage == "swap":
            lines.insert(at, json.dumps({"tuple": [1.0] * n, "point": [0.0] * m}))
        elif damage == "pad":
            lines.insert(at, "  " + json.dumps({"point": [0.0] * m, "tuple": [2.0] * n}) + " ")
    return lines


@given(lines=field_file_lines())
def test_fast_reader_agrees_with_the_per_line_parser(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("agree") / "f.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_same_as_per_line(path)


def fast_result(tmp_path, text):
    path = tmp_path / "f.jsonl"
    path.write_text(text, encoding="utf-8")
    assert_same_as_per_line(path)
    return fieldfile._read_real_lines([s for s in map(str.strip, text.split("\n")) if s])


def test_fast_reader_takes_plain_real_files(tmp_path):
    out = tmp_path / "lifted.jsonl"
    write_lifted_file(out, small_lifted())
    assert fast_result(tmp_path, out.read_text(encoding="utf-8")) is not None
    assert fast_result(tmp_path, '\n{"point": [0], "tuple": [2, 1.5]}\n\n') is not None


@pytest.mark.parametrize(
    "text",
    [
        '{"point": [0.0], "tuple": [[1.0, 0.0], [0.0, 1.0]]}\n',  # complex mode
        '{"point": [0], "tuple": [1, 2]}, {"point": [1], "tuple": [3, 4]}\n',
        # one object over two lines, balanced by two objects on one line
        '{"point": [0], "tuple": [1\n2]}\n'
        '{"point": [1], "tuple": [3, 4]}, {"point": [2], "tuple": [5, 6]}\n',
        # a string spanning the join, its text dropped by a repeated key
        '{"point": "}\n{", "point": [0], "tuple": [1]}\n'
        '{"point": [1], "tuple": [3]}, {"point": [2], "tuple": [5]}\n',
        '{"point": [0], "tuple": [true]}\n',
        '{"point": [0], "tuple": [1e999999]}\n{"point": [1], "tuple": [' + "9" * 400 + ']}\n',
        '{"point": [0], "tuple": [1]}\n{"meta": {"m": 1}}\n',
        '{"tuple": [1], "point": [0]}\n',
        '{"point": [0], "tuple": [1], "note": 0}\n',
    ],
)
def test_fast_reader_declines_what_it_cannot_vouch_for(tmp_path, text):
    assert fast_result(tmp_path, text) is None


@given(rows=st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
    min_size=1, max_size=5,
))
def test_lifted_rows_are_the_json_dumps_text(tmp_path_factory, rows):
    lifted = lift_field(SampledField.path(np.arange(len(rows), dtype=float) / 7, rows))
    out = tmp_path_factory.mktemp("rows") / "lifted.jsonl"
    write_lifted_file(out, lifted)
    expected = [json.dumps({"meta": {"m": 1, "n": 3, "adjacency": "path"}})] + [
        json.dumps({"point": p, "tuple": r})
        for p, r in zip(lifted.points.tolist(), lifted.values.tolist())
    ]
    assert out.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def test_lift_writes_explicit_edges_back_as_json_integers(tmp_path):
    meta = {"meta": {"m": 1, "n": 2, "adjacency": [[0, 2], [2, 1], [1, 1]]}}
    rows = [[3.0, 1.0], [0.5, 0.5], [-1.0, 2.0]]
    source, out, again = (tmp_path / f"{name}.jsonl" for name in ("field", "lifted", "again"))
    write_lines(source, [meta] + [{"point": [float(i)], "tuple": r} for i, r in enumerate(rows)])
    assert cli.main(["lift", "--input", str(source), "--output", str(out)]) == 0
    written = out.read_bytes()
    assert written == "".join(
        json.dumps(obj) + "\n"
        for obj in [meta] + [{"point": [float(i)], "tuple": sorted(r)} for i, r in enumerate(rows)]
    ).encode()
    head = b'{"meta": {"m": 1, "n": 2, "adjacency": [[0, 2], [2, 1], [1, 1]]}}\n'
    assert written.startswith(head)  # the edges as JSON integers, not floats or strings
    assert cli.main(["lift", "--input", str(out), "--output", str(again)]) == 0
    assert again.read_bytes() == written  # a lifted file lifts to the same bytes


@pytest.mark.parametrize(
    "edges, written",
    [
        ([[0, 1], [1, 2]], "path"),  # exactly the path, in order
        ([[1, 2], [0, 1]], [[1, 2], [0, 1]]),
        ([[0, 1]], [[0, 1]]),  # a part of the path is not the path
        ([[0, 1], [1, 2], [0, 1]], [[0, 1], [1, 2], [0, 1]]),
        ([], []),
    ],
)
def test_writer_takes_the_edges_from_the_field(tmp_path, edges, written):
    field = SampledField([0.0, 1.0, 2.0], [[1.0, 0.0], [2.0, 3.0], [5.0, 4.0]], edges)
    out = tmp_path / "lifted.jsonl"
    write_lifted_file(out, lift_field(field))
    meta = json.loads(out.read_text(encoding="utf-8").split("\n")[0])["meta"]
    assert meta["adjacency"] == written
    assert read_field_file(out).adjacency.tolist() == edges


def test_fields_and_loops_compare_and_hash_by_identity(tmp_path):
    rows = [[1.0, 0.0], [2.0, 3.0]]
    path = tmp_path / "f.jsonl"
    write_lines(path, [{"point": [float(i)], "tuple": r} for i, r in enumerate(rows)])
    for make in (
        lambda: SampledField.path([0.0, 1.0], rows),
        lambda: lift_field(SampledField.path([0.0, 1.0], rows)),
        lambda: read_field_file(path),
        lambda: roots_loop_generator(3, 48),
    ):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("explicit", [True, False])
def test_lift_checks_the_edges_once(tmp_path, monkeypatch, capsys, explicit):
    # No edge list is converted twice: the document's checked array is the
    # field's, and the lifted field shares it.
    rows = np.random.default_rng(17).uniform(-5.0, 5.0, size=(40, 3)).round(3).tolist()
    edges = [[i, (7 * i + 3) % 40] for i in range(40)] if explicit else "path"
    meta = {"meta": {"m": 1, "n": 3, "adjacency": edges}}
    source, out = tmp_path / "field.jsonl", tmp_path / "lifted.jsonl"
    write_lines(source, [meta] + [{"point": [float(i)], "tuple": r} for i, r in enumerate(rows)])
    seen = {}
    real_read, real_report = fieldfile.read_field_file, cli.continuity_report

    def read(path):
        seen["doc"] = real_read(path)
        return seen["doc"]

    def report(lifted, field):
        seen["lifted"], seen["field"] = lifted, field
        return real_report(lifted, field)

    monkeypatch.setattr(fieldfile, "read_field_file", read)
    monkeypatch.setattr(cli, "continuity_report", report)
    assert cli.main(["lift", "--input", str(source), "--output", str(out)]) == 0
    doc, field, lifted = seen["doc"], seen["field"], seen["lifted"]
    assert lifted.adjacency is field.adjacency
    assert field.adjacency is doc.adjacency
    if explicit:
        assert field.adjacency.tolist() == edges
    else:
        assert field.adjacency.tolist() == [[i, i + 1] for i in range(39)]
    expected = [json.dumps(meta)] + [
        json.dumps({"point": [float(i)], "tuple": sorted(r)}) for i, r in enumerate(rows)
    ]
    assert out.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    assert capsys.readouterr().err.startswith("max_ratio = 1 ")
