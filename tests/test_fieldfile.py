import contextlib
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import field_file_arrays, field_file_read_error
from symprod import cli, fieldfile, selection
from symprod.errors import InputError, InvariantViolation
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
    assert doc.tuples.dtype.kind != "c"
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
    points, edges = np.zeros((2, 1)), np.array([[0, 1]])
    assert FieldDocument(points, np.zeros((2, 3)), edges).to_sampled_field().values.shape == (2, 3)
    with pytest.raises(InputError, match="cannot be lifted"):
        FieldDocument(points, np.zeros((2, 3), dtype=complex), edges).to_sampled_field()


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
    assert doc.tuples.dtype.kind == "c"
    assert doc.tuples[0, 0] == 1.0 + 0.5j
    with pytest.raises(InputError, match="cannot be lifted"):
        doc.to_sampled_field()
    loop = ComplexLoop(doc.tuples)
    assert loop.step_count == 2


def test_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("not json {", "line 1"),
        ('{"point": [0.0], "tuple": [1.0]}\n[1, 2]', "^line 2: expected a JSON object$"),
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
        (
            '{"meta": {"n": 5, "m": 7}}\n{"meta": {}}\n{"point": [0.0], "tuple": [1.0, 2.0]}\n'
            '{"point": [1.0], "tuple": [3.0, 4.0]}',
            "line 2: meta line must come first",
        ),
        (
            '{"point": [0.0], "tuple": [1.0]}\n{"point": [' + "9" * 400 + '], "tuple": [2.0]}',
            "line 2: integer too large for a float",
        ),
        (
            '{"point": [0.0], "tuple": [[1.0, ' + str(2**1024) + ']]}',
            "line 1: integer too large for a float",
        ),
    ]
    for text, fragment in cases:
        path = tmp_path / "bad.jsonl"
        path.write_text(text + "\n")
        with pytest.raises(InputError, match=fragment):
            read_field_file(path)


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("where", ["point", "tuple"])
@pytest.mark.parametrize("complex_mode", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("later_block", [False, True], ids=["first-block", "later-block"])
def test_a_non_finite_number_names_its_line(tmp_path, capsys, spelling, where, complex_mode,
                                            later_block):
    # 12345.5 marks where the spelling goes: the point, or a tuple entry (an imaginary part).
    value = [[0.5, 0.0], [1.5, -1.0]] if complex_mode else [0.5, 1.5]
    bad_value = [[0.5, 12345.5], [1.5, -1.0]] if complex_mode else [0.5, 12345.5]
    lines = [json.dumps({"meta": {"m": 1, "n": 2}})]
    lines += [sample_line([float(i)], value)
              for i in range(fieldfile._DECODE_LINES + 3 if later_block else 2)]
    bad_line = len(lines) - 1  # the second last line, 1-based
    lines[bad_line - 1] = (sample_line([12345.5], value) if where == "point"
                           else sample_line([0.0], bad_value)).replace("12345.5", spelling)
    text = "\n".join(lines) + "\n"
    assert_routes_agree(text)
    path, out = tmp_path / "f.jsonl", tmp_path / "out.jsonl"
    path.write_text(text, encoding="utf-8")
    for argv in (["lift", "--input", str(path), "--output", str(out)],
                 ["holonomy", "--input", str(path)]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: line {bad_line}: number is not finite\n")
    assert not out.exists()


def test_a_meta_line_alone_in_the_first_block_is_skipped(tmp_path, monkeypatch):
    def declined(lines, path):
        raise AssertionError("the block route declined a well-formed file")

    monkeypatch.setattr(fieldfile, "_DECODE_LINES", 1)
    monkeypatch.setattr(fieldfile, "_raise_read_error", declined)
    path = tmp_path / "f.jsonl"
    write_lines(path, [{"meta": {"m": 1, "n": 2, "adjacency": [[1, 0]]}},
                       {"point": [0.0], "tuple": [3.0, 1.0]},
                       {"point": [1.0], "tuple": [1.5, 2.5]}])
    doc = read_field_file(path)
    assert doc.points.tolist() == [[0.0], [1.0]]
    assert doc.tuples.tolist() == [[3.0, 1.0], [1.5, 2.5]]
    assert doc.adjacency.tolist() == [[1, 0]]


@pytest.mark.parametrize("block", [1, fieldfile._DECODE_LINES])
@pytest.mark.parametrize("text, error", [
    ('{"meta": {}}\n', "{path}: no samples found"),
    ('{"meta": 5}\n', "line 1: meta must be an object"),
    ('{"meta": null}\n', "line 1: meta must be an object"),
    ("\n  \n\t\n", "{path}: no samples found"),
    ("", "{path}: no samples found"),
    ('{"meta": {}}\n\n  \n', "{path}: no samples found"),
    ('{"meta": []}\n{"meta": {}}\n', "line 1: meta must be an object"),
], ids=["meta-only", "meta-number", "meta-null", "blank-only", "empty", "meta-then-blanks",
        "meta-list-then-meta"])
def test_a_file_with_no_samples_names_its_error(tmp_path, monkeypatch, block, text, error):
    monkeypatch.setattr(fieldfile, "_DECODE_LINES", block)
    path = tmp_path / "f.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError) as caught:
        read_field_file(path)
    assert str(caught.value) == error.format(path=path)


@pytest.mark.parametrize("case, error", [
    ("good", None),
    ("size", "line 516: tuple size 3 != 2"),
    ("edge", "line 1: adjacency edge (0, 99999) out of range for 517 samples"),
], ids=["good", "size", "edge"])
def test_the_reader_cuts_its_text_once(tmp_path, monkeypatch, case, error):
    # One block and 5 rows more, so a read error in the second block is named
    # from that block, and a meta error from the line number kept by the walk.
    meta = {"m": 1, "n": 2, **({"adjacency": [[0, 99999]]} if case == "edge" else {})}
    lines = [json.dumps({"meta": meta})]
    lines += [sample_line([float(i)], [1.0, 2.0]) for i in range(fieldfile._DECODE_LINES + 5)]
    if case == "size":
        lines[515] = sample_line([0.0], [1.0, 2.0, 3.0])
    path = tmp_path / "f.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cuts, cut = [], fieldfile._lines

    def counted(text):
        cuts.append(len(text))
        return cut(text)

    monkeypatch.setattr(fieldfile, "_lines", counted)
    if error is None:
        assert read_field_file(path).tuples.shape == (fieldfile._DECODE_LINES + 5, 2)
    else:
        with pytest.raises(InputError) as caught:
            read_field_file(path)
        assert str(caught.value) == error
    assert len(cuts) == 1


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


@pytest.mark.parametrize("pad", [0, 9000], ids=["in-first-8kb", "past-first-8kb"])
@pytest.mark.parametrize("ending", ["\r", "\r\n"], ids=["cr", "crlf"])
@pytest.mark.parametrize("layout", ["jsonl", "csv"])
def test_a_bad_byte_and_a_syntax_error_on_one_line_name_the_same_line(tmp_path, pad, ending,
                                                                      layout):
    # "\r\n", "\r" and "\n" each end a line, for the decoder's error as for the parsers'.
    if layout == "jsonl":
        first, second = sample_line([0.0], [1.0]), '{"point": [1.0], "tuple": [%s2.0]}' % (" " * pad)
        bad, broken = b'{"point": [\xff2.0]', b'{"point": [2.0'
    else:
        first, second = "point_0,tuple_0", "1.0," + " " * pad + "2.0"
        bad, broken = b"2.0,\xff", b"2.0,abc"
    head = (first + ending + second + ending).encode()
    assert (len(head) > 8192) == (pad > 0)
    path = tmp_path / f"f.{layout}"
    reader = read_field_file if layout == "jsonl" else read_csv_field
    path.write_bytes(head + bad + ending.encode())
    with pytest.raises(InputError, match="^line 3: not UTF-8 text"):
        reader(path)
    path.write_bytes(head + broken + ending.encode())
    with pytest.raises(InputError, match="^line 3: "):
        reader(path)


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


@pytest.mark.parametrize("meta, shown", [({"m": True}, "m must be an integer, got True"),
                                         ({"n": 2.0}, "n must be an integer, got 2.0")])
def test_meta_sizes_must_be_json_integers(tmp_path, meta, shown):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [{"meta": meta}, {"point": [0.0], "tuple": [1.0, 2.0]}])
    with pytest.raises(InputError, match=f"meta {shown}$"):
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
        field = (ComplexLoop(doc.tuples) if doc.tuples.dtype.kind == "c"
                 else doc.to_sampled_field())
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


@pytest.mark.parametrize("lead", ["", "\n\n", " \n\t\n  "], ids=["none", "blank", "spaces"])
@pytest.mark.parametrize("meta, shown", [
    ({"adjacency": 5}, 'adjacency must be "path" or an edge list'),
    ({"adjacency": [[0, True]]}, "adjacency indices must be integers, not true or false"),
    ({"adjacency": [[0, 5]]}, "adjacency edge (0, 5) out of range for 2 samples"),
    ({"adjacency": [[0, 1.5]]},
     "adjacency must be an (E, 2) array of integer sample indices, got shape (1, 2) of float64"),
    ({"adjacency": [[0, 2**70]]},
     "adjacency must be an (E, 2) array of integer sample indices, got shape (1, 2) of object"),
    ({"n": 3}, "meta declares n = 3 but data has n = 1"),
    ({"m": True}, "meta m must be an integer, got True"),
], ids=["not-a-list", "bool-index", "out-of-range", "float-index", "past-int64", "n-mismatch",
        "bool-m"])
def test_adjacency_errors_name_the_meta_line(tmp_path, capsys, lead, meta, shown):
    # Every error in the meta line's contents names that line, after any blank lines.
    path = tmp_path / "f.jsonl"
    path.write_text(lead + json.dumps({"meta": meta}) + "\n"
                    + '{"point": [0.0], "tuple": [1.0]}\n{"point": [1.0], "tuple": [2.0]}\n')
    message = f"line {lead.count(chr(10)) + 1}: {shown}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        read_field_file(path)
    assert cli.main(["lift", "--input", str(path), "--output", str(tmp_path / "out.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
    assert doc.tuples.dtype.kind == "c"
    back = ComplexLoop(doc.tuples)
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


def lifted_file_by_json(lifted, adjacency) -> str:
    """A lifted file built one ``json.dumps`` per line from Python floats."""
    meta = {"m": lifted.points.shape[1], "n": lifted.values.shape[1], "adjacency": adjacency}
    lines = [json.dumps({"meta": meta})]
    lines += [json.dumps({"point": p, "tuple": r})
              for p, r in zip(lifted.points.tolist(), lifted.values.tolist())]
    return "".join(line + "\n" for line in lines)


BLOCK = fieldfile._DECODE_LINES
# signed zeros, the smallest subnormal, exponent forms, the float64 extremes, integral floats
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 1.79e308, -1.79e308, 3.0, -2.0, 1e22, 2.0**53]


@pytest.mark.parametrize("path_edges", [True, False], ids=["path", "edge-list"])
@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_lifted_file_bytes_match_json_dumps(tmp_path, m, count, path_edges):
    # Counts on both sides of the writer's block boundaries, in each point dimension.
    rng = np.random.default_rng([m, count])

    def floats(shape):
        spread = 10.0 ** rng.uniform(-300, 300, shape) * rng.choice([-1.0, 1.0], shape)
        return np.where(rng.random(shape) < 0.3, rng.choice(EDGE_FLOATS, shape), spread)

    points, rows = floats((count, m)), floats((count, 2 * m - 1))
    rows.ravel()[:len(EDGE_FLOATS)] = EDGE_FLOATS[:rows.size]
    edges = rng.integers(0, count, (count, 2)).tolist()  # never the path: it has count - 1 edges
    field = (SampledField.path(points, rows) if path_edges
             else SampledField(points=points, values=rows, adjacency=edges))
    lifted = lift_field(field)
    path = tmp_path / "lifted.jsonl"
    write_lifted_file(path, lifted)
    expected = lifted_file_by_json(lifted, "path" if path_edges else edges)
    assert path.read_text(encoding="utf-8").splitlines() == expected.splitlines()


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
    assert doc.tuples.dtype.kind != "c"
    assert doc.adjacency.tolist() == [[0, 1]]
    assert doc.adjacency.dtype == np.intp and not doc.adjacency.flags.writeable
    assert np.array_equal(doc.tuples[0], [3.0, 1.0, 2.0])


def test_csv_header_order_enforced(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("tuple_0,point_0\n1.0,0.0\n")
    with pytest.raises(InputError, match="ordered"):
        read_csv_field(path)


def test_csv_header_without_rows_has_no_samples(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("point_0,tuple_0\n")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: no samples found$"):
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


@pytest.mark.parametrize("text", [
    'point_0,"tuple\n_0"\n0.0,1.0\nabc,2.0\n',
    'point_0,tuple_0\n0.0,"1.0\n"\nabc,2.0\n',
], ids=["in-header", "in-row"])
def test_a_csv_error_names_the_last_line_of_its_record(tmp_path, text):
    # A quoted cell over two lines makes a record of two lines: the count is of lines.
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(InputError, match="^line 4: could not convert string to float: 'abc'$"):
        read_csv_field(path)
    path.write_text(text.replace("abc", "1" * 200_000))
    with pytest.raises(InputError, match="^line 4: field larger than field limit"):
        read_csv_field(path)


def test_a_quoted_csv_cell_keeps_its_line_ends(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b'point_0,tuple_0\r\n0.0,"1\r\n"\r\n')
    assert read_csv_field(path).tuples.tolist() == [[1.0]]
    path.write_bytes(b'point_0,tuple_0\n0.0,"1\n2"\n')  # "1\n2", never 12
    with pytest.raises(InputError, match=re.escape("line 3: could not convert string to float: '1\\n2'")):
        read_csv_field(path)


@pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity", "1e999"])
@pytest.mark.parametrize("column", [0, 2], ids=["point", "tuple"])
def test_a_non_finite_csv_cell_names_its_line(tmp_path, capsys, cell, column):
    rows = [["0.0", "1.0", "2.0"], [], ["1.0", "3.0", "4.0"], ["2.0", "5.0", "6.0"]]
    rows[2][column] = cell
    path, out = tmp_path / "f.csv", tmp_path / "out.jsonl"
    path.write_text("point_0,tuple_0,tuple_1\n" + "".join(",".join(r) + "\n" for r in rows))
    assert cli.main(["lift", "--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: line 4: number is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("later", ["2.0,3.0", "2.0,abc,3.0", "2.0,3.0,4.0,5.0"])
@pytest.mark.parametrize("cell", ["inf", "nan", "1e999"])
def test_an_earlier_non_finite_csv_cell_wins_over_a_later_row_error(tmp_path, capsys, cell, later):
    # The rows read are tested for finite cells once, before any row error is raised.
    path, out = tmp_path / "f.csv", tmp_path / "out.jsonl"
    path.write_text(f"point_0,tuple_0,tuple_1\n0.0,1.0,2.0\n1.0,{cell},3.0\n\n{later}\n")
    assert cli.main(["lift", "--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: line 3: number is not finite\n")
    assert not out.exists()


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


@pytest.mark.parametrize("layout", ["jsonl", "csv"])
def test_a_field_adopts_the_documents_arrays(tmp_path, layout):
    # Each reader hands over read-only arrays it owns, so the field holds no second copy.
    path = tmp_path / f"f.{layout}"
    if layout == "jsonl":
        write_lines(path, [{"point": [0.0], "tuple": [3.5, 1.5]}, {"point": [1.0], "tuple": [0.5, 2.5]}])
        doc = read_field_file(path)
    else:
        path.write_text("point_0,tuple_0,tuple_1\n0.0,3.5,1.5\n1.0,0.5,2.5\n")
        doc = read_csv_field(path)
    field = doc.to_sampled_field()
    assert np.shares_memory(doc.points, field.points)
    assert np.shares_memory(doc.tuples, field.values)


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


# Rows past two blocks: the writer makes a write for the header and one per block,
# so its third write comes after a whole block of rows was written.
BLOCKS_AND_A_ROW = 2 * BLOCK + 1


@pytest.mark.parametrize("existing", [True, False])
def test_failed_lifted_write_leaves_the_target_alone(tmp_path, monkeypatch, existing):
    out = tmp_path / "lifted.jsonl"
    if existing:
        out.write_bytes(b"previous output\n")
    rows = np.random.default_rng(3).uniform(-5.0, 5.0, (BLOCKS_AND_A_ROW, 2))
    lifted = lift_field(SampledField.path(np.arange(BLOCKS_AND_A_ROW, dtype=float), rows))
    fail_on_write(monkeypatch, 2, RuntimeError("interrupted"))  # after the header and one block
    with pytest.raises(RuntimeError, match="interrupted"):
        write_lifted_file(out, lifted)
    if existing:
        assert out.read_bytes() == b"previous output\n"
    assert [p.name for p in tmp_path.iterdir()] == (["lifted.jsonl"] if existing else [])


def test_failed_loop_write_leaves_the_target_alone(tmp_path, monkeypatch):
    path = tmp_path / "loop.jsonl"
    path.write_bytes(b"previous loop\n")
    fail_on_write(monkeypatch, 2, RuntimeError("interrupted"))  # after the header and one block
    with pytest.raises(RuntimeError, match="interrupted"):
        write_loop_file(path, roots_loop_generator(3, BLOCKS_AND_A_ROW))
    assert path.read_bytes() == b"previous loop\n"
    assert [p.name for p in tmp_path.iterdir()] == ["loop.jsonl"]


def test_a_failed_rename_names_the_requested_path(tmp_path):
    out = tmp_path / "lifted.jsonl"
    out.mkdir()  # the rename over it fails, after the temporary file was written
    with pytest.raises(IsADirectoryError) as caught:
        write_lifted_file(out, small_lifted())
    assert caught.value.filename == str(out) and caught.value.filename2 is None
    assert [p.name for p in tmp_path.iterdir()] == ["lifted.jsonl"]


def test_a_file_for_a_parent_directory_names_the_requested_path(tmp_path):
    # The temporary file's removal fails too; that second error must not replace the first.
    (tmp_path / "afile").write_bytes(b"")
    out = tmp_path / "afile" / "out.jsonl"
    with pytest.raises(NotADirectoryError) as caught:
        write_lifted_file(out, small_lifted())
    assert caught.value.filename == str(out)
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


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


# The block reader against the per-line pass, which names a read error, and the oracle.

EDGE_NUMBERS = st.sampled_from(
    [2**53 - 1, 2**53 + 1, 2**53 + 3, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1,
     -(2**63) - 1, -(2**64) - 3, 2**70 + 12345, 10**308, 10**309, 2**1024, -0.0, 5e-324, 1e308,
     True, False, None, "1", [1.0, 2.0]]
)
FIELD_NUMBERS = st.integers(-3, 3) | st.floats(width=64) | EDGE_NUMBERS


def per_line_verdict(lines):
    """The whole-file walk's verdict on ``lines``: True if it finds a read error, False if none."""
    with pytest.raises((InputError, InvariantViolation)) as caught:
        field_file_read_error(lines, Path("f.jsonl"))
    return caught.errisinstance(InputError)


@contextlib.contextmanager
def per_line_only():
    """Read without the block reader: the whole-file walk's error, else the oracle's arrays."""
    def read(lines, path):
        lines = list(lines)  # the reader passes its lines as a one-pass iterator
        with contextlib.suppress(InvariantViolation):  # no read error: the oracle's arrays
            field_file_read_error(lines, path)
        first = next(i for i, line in enumerate(lines, start=1) if line.strip())
        return (*field_file_arrays("\n".join(lines)), first)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldfile, "_read_valid_lines", read)
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
        edges.dtype, edges.shape, edges.flags.writeable, edges.tolist(),
    )


def assert_same_as_per_line(path):
    fast = read_outcome(path)
    with per_line_only():
        assert read_outcome(path) == fast
    return fast


def assert_routes_agree(text):
    """The block reader declines exactly the files with a read error, else gives the oracle's arrays.

    A declined block's error is the one the whole-file walk names.
    """
    lines = text.split("\n")
    try:
        taken, error = fieldfile._read_valid_lines(lines, Path("f.jsonl")), None
    except InputError as exc:  # a declined block
        taken, error = None, str(exc)
    if per_line_verdict(lines):
        assert taken is None
        with pytest.raises(InputError) as walked:
            field_file_read_error(lines, Path("f.jsonl"))
        assert error == str(walked.value)
        return
    assert taken is not None
    (meta, *arrays), (expected_meta, *expected_arrays) = taken, field_file_arrays(text)
    assert meta == expected_meta
    for got, want in zip(arrays, expected_arrays):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def sample_line(point, value, layout="plain"):
    """One sample line, its keys in the usual order, swapped, or with an extra key."""
    if layout == "swapped":
        return json.dumps({"tuple": value, "point": point})
    extra = {"note": "}, {"} if layout == "note" else {}
    return json.dumps({"point": point, "tuple": value, **extra})


@st.composite
def field_file_lines(draw):
    """Mostly well-formed field files of one shape and mode, with a few damaged lines."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    numbers = st.integers(-3, 3) | st.floats(-5.0, 5.0) if draw(st.booleans()) else FIELD_NUMBERS
    pairs = draw(st.booleans())  # complex mode: n [re, im] pairs per tuple
    entries = st.lists(numbers, min_size=2, max_size=2) if pairs else numbers
    layouts = st.sampled_from(["plain", "plain", "swapped", "note"])
    samples = draw(st.lists(
        st.tuples(st.lists(numbers, min_size=m, max_size=m),
                  st.lists(entries, min_size=n, max_size=n), layouts),
        min_size=1, max_size=8,
    ))
    lines = [sample_line(*s) for s in samples]

    def row(dim=m, size=n, complex_=pairs):
        return sample_line([0.0] * dim, [[1.0, -0.0]] * size if complex_ else [1.0] * size)

    if draw(st.booleans()):
        meta = draw(st.sampled_from([{"m": m, "n": n, "adjacency": "path"}, {"n": n + 1},
                                     {"adjacency": [[0, 0]]}, {"m": True}, "path", {}]))
        lines.insert(0, json.dumps({"meta": meta}))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        damage = draw(st.sampled_from(
            ["blank", "blanks", "meta", "pair", "split", "size", "dim", "mode", "entry", "swap", "pad",
             "no-samples"]
        ))
        if damage == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
        elif damage == "blanks":  # a run of blank lines longer than a small block
            lines[at:at] = [""] * draw(st.integers(2, 9))
        elif damage == "no-samples":  # a meta line that is not an object, and nothing else
            lines[:] = [json.dumps({"meta": draw(st.sampled_from([5, None, [], "path"]))})]
            lines += [""] * draw(st.integers(0, 5))
        elif damage == "meta":  # a meta line after the first line, or a repeated one
            meta_line = {"meta": draw(st.sampled_from([{"n": n}, {}]))}
            if draw(st.booleans()):  # a meta line with sample keys is still a meta line
                meta_line.update(json.loads(row()))
            lines.insert(at, json.dumps(meta_line))
        elif damage == "pair" and at < len(lines) - 1:  # two objects on one line
            lines[at: at + 2] = [lines[at] + draw(st.sampled_from([", ", " ", ""])) + lines[at + 1]]
        elif damage == "split" and at < len(lines):  # one object over two lines
            cut = draw(st.integers(1, max(1, len(lines[at]) - 1)))
            lines[at: at + 1] = [lines[at][:cut], lines[at][cut:]]
        elif damage == "size":
            lines.insert(at, row(size=n + 1))
        elif damage == "dim":
            lines.insert(at, row(dim=m + 1))
        elif damage == "mode":
            lines.insert(at, row(complex_=not pairs))
        elif damage == "entry":  # a complex entry that is not a pair
            lines.insert(at, sample_line([0.0] * m, [[1.0] * draw(st.sampled_from([1, 3]))] * n))
        elif damage == "swap":
            lines.insert(at, json.dumps({"tuple": json.loads(row())["tuple"], "point": [0.0] * m}))
        elif damage == "pad":
            lines.insert(at, "  " + row() + " ")
    return lines


# Small blocks put a change of size, dimension or mode in a later block.
@given(lines=field_file_lines(), block=st.integers(1, 4) | st.just(fieldfile._DECODE_LINES))
def test_fast_reader_agrees_with_the_per_line_parser(tmp_path_factory, lines, block):
    path = tmp_path_factory.mktemp("agree") / "f.jsonl"
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldfile, "_DECODE_LINES", block)
        assert_same_as_per_line(path)
        assert_routes_agree(text)


@pytest.mark.parametrize("change", ["size", "dim", "mode", "meta"])
def test_a_change_in_a_later_block_is_the_per_line_parsers_error(tmp_path, change):
    rows = [[[1.0, 0.5], [-0.0, 2.0]], [0.25, 1.0]] if change == "mode" else [[0.25, 1.0]] * 2
    first, later = rows
    lines = ['{"meta": {"m": 1, "n": 2}}'] + [sample_line([0.0], first)] * fieldfile._DECODE_LINES
    lines.append({
        "size": sample_line([1.0], [0.25, 1.0, 2.0]),
        "dim": sample_line([1.0, 2.0], later),
        "mode": sample_line([1.0], later),
        "meta": json.dumps({"meta": {}}),
    }[change])
    text = "\n".join(lines) + "\n"
    assert_routes_agree(text)
    path = tmp_path / "f.jsonl"
    path.write_text(text, encoding="utf-8")
    outcome = assert_same_as_per_line(path)
    assert outcome[0] == "error" and outcome[1].startswith(f"line {len(lines)}: ")


@pytest.mark.parametrize("block", [1, 2, fieldfile._DECODE_LINES])
@pytest.mark.parametrize("change, error", [
    ("size", "tuple size 3 != 2"),
    ("dim", "point dimension 2 != 1"),
    ("mode", "mixed real and complex tuple entries in one file"),
])
def test_a_later_block_of_another_shape_is_named_at_its_first_line(tmp_path, monkeypatch, block,
                                                                    change, error):
    # Every line of the third block has the other shape, so no line of it differs
    # from the next: only the first sample, from the earlier blocks, shows the change.
    bad = {"size": sample_line([1.0], [0.25, 1.0, 2.0]), "dim": sample_line([1.0, 2.0], [0.25, 1.0]),
           "mode": sample_line([1.0], [[0.25, 0.0], [1.0, 0.0]])}[change]
    lines = ['{"meta": {"m": 1, "n": 2}}'] + [sample_line([0.0], [0.25, 1.0])] * (2 * block - 1)
    lines += [bad] * block
    monkeypatch.setattr(fieldfile, "_DECODE_LINES", block)
    path = tmp_path / "f.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert read_outcome(path) == ("error", f"line {2 * block + 1}: {error}")


@given(runs=st.lists(st.tuples(st.sampled_from(["\n", "x", "\r", " "]), st.integers(0, 70_000)),
                     max_size=6))
@example(runs=[("\n", 70_000)])
@example(runs=[("x", 65_536), ("\n", 1), ("x", 70_000), ("\n", 2)])
@example(runs=[])
def test_the_line_cutter_is_split_less_an_empty_last_line(runs):
    # Texts past 64k characters, single lines past 64k and long runs of bare newlines.
    text = "".join(char * count for char, count in runs)
    expected = text.split("\n")
    if expected[-1] == "":  # the text ends in "\n", or is empty
        expected.pop()
    assert list(fieldfile._lines(text)) == expected


def fast_result(tmp_path, text):
    path = tmp_path / "f.jsonl"
    path.write_text(text, encoding="utf-8")
    assert_same_as_per_line(path)
    assert_routes_agree(text)
    try:
        return fieldfile._read_valid_lines(text.split("\n"), path)
    except InputError:  # a declined block
        return None


def test_fast_reader_takes_plain_real_files(tmp_path):
    out = tmp_path / "lifted.jsonl"
    write_lifted_file(out, small_lifted())
    assert fast_result(tmp_path, out.read_text(encoding="utf-8")) is not None
    assert fast_result(tmp_path, '\n{"point": [0], "tuple": [2, 1.5]}\n\n') is not None


def test_fast_reader_takes_well_formed_files(tmp_path):
    for text in [
        '{"point": [0.0], "tuple": [[1.0, 0.0], [0.0, 1.0]]}\n',  # complex mode
        '{"tuple": [1], "point": [0]}\n',
        '{"point": [0], "tuple": [1], "note": 0}\n',
    ]:
        assert fast_result(tmp_path, text) is not None
    tuples = fast_result(
        tmp_path, '{"meta": {}}\n{"point": [-0.0], "tuple": [[-0.0, -0.0], [0, 1e308]]}\n'
    )[2]
    assert np.signbit(tuples.real[0, 0]) and np.signbit(tuples.imag[0, 0])  # -0.0 survives


@pytest.mark.parametrize(
    "text",
    [
        # a complex-mode file that turns real, and swapped keys before a late meta line
        '{"point": [0.0], "tuple": [[1.0, 0.0], [0.0, 1.0]]}\n{"point": [1.0], "tuple": [1.0, 2.0]}\n',
        '{"tuple": [1], "point": [0]}\n{"meta": {}}\n',
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
        '{"meta": {}}\n{"meta": {}, "point": [0], "tuple": [1]}\n',
        '{"point": [0], "tuple": [[1.0, 2.0, 3.0]]}\n',
        '{"point": [0], "tuple": [[1.0]]}\n',
    ],
)
def test_fast_reader_declines_what_it_cannot_vouch_for(tmp_path, text):
    assert fast_result(tmp_path, text) is None


def test_written_files_take_the_block_route(tmp_path, monkeypatch):
    # The writers' own output must never reach the per-line pass.
    def refuse(lines, path):
        raise AssertionError(f"{path} reached the per-line pass")

    monkeypatch.setattr(fieldfile, "_raise_read_error", refuse)
    rows = np.random.default_rng(5).uniform(-5.0, 5.0, (fieldfile._DECODE_LINES + 7, 3))
    lifted = lift_field(SampledField.path(np.arange(len(rows), dtype=float), rows))
    loops = [roots_loop_generator(3, fieldfile._DECODE_LINES + 5),
             ComplexLoop([[complex(-0.0, 5e-324), complex(1.79e308, -0.0)]] * 2)]
    out = tmp_path / "out.jsonl"
    write_lifted_file(out, lifted)
    assert np.array_equal(read_field_file(out).tuples, lifted.values)
    for loop in loops:
        write_loop_file(out, loop)
        assert read_field_file(out).tuples.tobytes() == loop.samples.tobytes()


def test_a_valid_file_the_block_route_declines_is_an_invariant_violation(
    tmp_path, monkeypatch, capsys
):
    # No silent fall-back: the per-line pass finds no read error and says so.  The
    # decline is injected into the block route's decoder; the per-line pass uses
    # json.loads, whose decoder was made at import.
    class Declining(json.JSONDecoder):
        def raw_decode(self, s, idx=0):
            raise ValueError("declined")

    source, out = tmp_path / "field.jsonl", tmp_path / "lifted.jsonl"
    write_lines(source, [{"point": [0.0], "tuple": [2.0, 1.0]}, {"point": [1.0], "tuple": [0.5, 3.0]}])
    monkeypatch.setattr(json, "JSONDecoder", Declining)
    with pytest.raises(InvariantViolation, match="declined a file with no read error"):
        read_field_file(source)
    assert cli.main(["lift", "--input", str(source), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("invariant violation: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["field.jsonl"]


def test_field_file_reader_memory_grows_no_faster_than_the_file(tmp_path):
    # Every number held as a Python object peaked near 5 times the file, and the
    # text with a list of its lines at 2.4 times.  The peak is now read_text's
    # own: the file's bytes and its text, both held while it decodes (2.0 times).
    rng = np.random.default_rng(11)

    def peak(blocks):
        rows = np.cumsum(rng.normal(0.0, 0.1, (blocks * fieldfile._DECODE_LINES, 6)), axis=0)
        path = tmp_path / f"f{blocks}.jsonl"
        write_lifted_file(path, lift_field(SampledField.path(np.arange(len(rows)) / len(rows), rows)))
        tracemalloc.start()
        try:
            doc = read_field_file(path)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert doc.tuples.shape == rows.shape
        return peak_bytes, path.stat().st_size

    peak(1)  # first-call set-up is not part of either measurement
    (few, few_size), (many, many_size) = peak(4), peak(16)
    assert many <= 1.25 * few * many_size / few_size
    assert many <= 2.1 * many_size


def test_field_file_writer_memory_grows_no_faster_than_the_file(tmp_path):
    # The whole field as Python floats peaked near 2.2 times the file, the
    # path's edges, built whole to compare the field's with, at 0.16 times, and
    # the edge test on whole columns at 0.057 times (9 bytes a row).  One block
    # of rows at a time and the edge test a slice of edges at a time are each a
    # fixed size: 0.024 times at 200 blocks (102,400 rows).
    rng = np.random.default_rng(11)

    def peak(blocks):
        rows = np.cumsum(rng.normal(0.0, 0.1, (blocks * fieldfile._DECODE_LINES, 6)), axis=0)
        lifted = lift_field(SampledField.path(np.arange(len(rows)) / len(rows), rows))
        path = tmp_path / f"f{blocks}.jsonl"
        tracemalloc.start()
        try:
            write_lifted_file(path, lifted)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(read_field_file(path).tuples, lifted.values)
        return peak_bytes, path.stat().st_size

    peak(1)  # first-call set-up is not part of either measurement
    (few, few_size), (many, many_size) = peak(4), peak(200)
    assert many <= 1.25 * few * many_size / few_size
    assert many <= 0.03 * many_size


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
    real_read, real_report = fieldfile.read_field_file, selection.continuity_report

    def read(path):
        seen["doc"] = real_read(path)
        return seen["doc"]

    def report(lifted, field):
        seen["lifted"], seen["field"] = lifted, field
        return real_report(lifted, field)

    monkeypatch.setattr(fieldfile, "read_field_file", read)
    monkeypatch.setattr(selection, "continuity_report", report)
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
