"""Reading and writing sampled fields as JSON-lines (and CSV for real data).

The JSON-lines layout, one object per line:

    {"meta": {"m": 1, "n": 2, "adjacency": "path"}}     <- optional header
    {"point": [0.0], "tuple": [0.25, 1.5]}
    {"point": [0.1], "tuple": [[0.25, 0.0], [1.5, 0.1]]}  <- complex mode

- "point" is the sample location in R^m, "tuple" the unordered value.
- Real mode stores n numbers per tuple; complex mode stores n [re, im]
  pairs.  The mode is uniform across a file and inferred from the data.
- "adjacency" is "path" (consecutive samples are neighbors, the default)
  or an explicit edge list [[a, b], ...], 0-based.

Floats are written with Python's shortest round-trip repr, so a file read
back and rewritten is byte-identical.  CSV input covers real tuples only:
a required header of m "point_*" columns followed by n "tuple_*" columns,
one sample per row, path adjacency.
"""

from __future__ import annotations

import csv
import json
import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .core import read_text
from .errors import InputError
# perfbench/tracer.py patches this name; ROADMAP item 1b drops the import.
from .metric import UnorderedTuple  # noqa: F401
from .monodromy import ComplexLoop
from .selection import LiftedField, SampledField, _check_adjacency, path_adjacency

# Lines per json.loads call in the real-mode reader; the joined text of one
# block is all the extra copy of the input it holds.
_DECODE_LINES = 2048


@dataclass(frozen=True, eq=False)
class FieldDocument:
    """Parsed contents of a field file, before semantic interpretation; equal only to itself."""

    points: np.ndarray
    tuples: np.ndarray  # (N, n); complex dtype in complex mode
    adjacency: np.ndarray  # the checked read-only (E, 2) intp edges; "path" becomes its edges

    @property
    def complex_mode(self) -> bool:
        """Whether the tuples are complex: a complex-mode file, to be tracked as a loop."""
        return self.tuples.dtype.kind == "c"

    def to_sampled_field(self) -> SampledField:
        if self.complex_mode:
            raise InputError(
                "complex-mode input cannot be lifted by sorting; use `symprod holonomy` "
                "to track components around a loop instead"
            )
        return SampledField(self.points, self.tuples, self.adjacency)

    def to_loop(self) -> ComplexLoop:
        return ComplexLoop(samples=self.tuples)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _to_float(value, line_no: int) -> float:
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"line {line_no}: integer too large for a float") from None


def _parse_tuple_entry(entry, line_no: int):
    if _is_number(entry):
        return _to_float(entry, line_no), False
    if isinstance(entry, list) and len(entry) == 2 and all(_is_number(v) for v in entry):
        return complex(_to_float(entry[0], line_no), _to_float(entry[1], line_no)), True
    raise InputError(
        f"line {line_no}: tuple entries must be numbers or [re, im] pairs, got {entry!r}"
    )


def _parse_adjacency(spec, count: int) -> np.ndarray:
    """The meta adjacency, "path" or an edge list, as edges checked as ``SampledField`` does.

    Only what the array pass cannot see is checked here: JSON true/false
    would become the indices 1 and 0.
    """
    if spec == "path":
        return path_adjacency(count)
    if not isinstance(spec, list):
        raise InputError('line 1: adjacency must be "path" or an edge list')
    if any(type(i) is bool for edge in spec if isinstance(edge, list) for i in edge):
        raise InputError("line 1: adjacency indices must be integers, not true or false")
    return _check_adjacency(spec, count)


def _plain_numbers(lists) -> bool:
    """Whether ``lists`` are nonempty lists of one length holding only JSON numbers.

    Exact types: a bool is not a number here, as ``_is_number`` says.
    """
    return (
        set(map(type, lists)) == {list}
        and len(set(map(len, lists))) == 1
        and len(lists[0]) > 0
        and set(map(type, chain.from_iterable(lists))) <= {float, int}
    )


def _read_real_lines(lines: list[str]):
    """(meta, points, tuples) of a real-mode file, one json.loads per block of lines, or None.

    None means the per-line parser must decide: it alone raises errors, so
    this returns a result only for input that parser accepts with the same
    arrays.  Each stripped line must be one ``{...}``, and every object after
    an optional meta line exactly ``{"point": [...], "tuple": [...]}`` of
    numbers.  Then a block holds no strings but those two keys and no object
    inside an array, so each comma joining ``}`` to ``{`` separates the
    top-level objects, and one object per line means each line is one of them.
    """
    if not lines:
        return None
    try:
        head = json.loads(lines[0])
    except (ValueError, RecursionError):
        return None
    meta = {}
    if isinstance(head, dict) and "meta" in head:
        if not isinstance(head["meta"], dict):
            return None
        meta, lines = head["meta"], lines[1:]
    if not lines or not all(line[0] == "{" and line[-1] == "}" for line in lines):
        return None
    pairs = []
    for start in range(0, len(lines), _DECODE_LINES):  # a block's text at a time
        block = lines[start : start + _DECODE_LINES]
        try:
            objs = json.loads("[" + ",".join(block) + "]", object_pairs_hook=tuple)
            pairs += [(p, t) for (pk, p), (tk, t) in objs if pk == "point" and tk == "tuple"]
        except (ValueError, TypeError, RecursionError):  # not JSON, or not two key-value pairs
            return None
        if len(objs) != len(block):
            return None
    if len(pairs) != len(lines):
        return None
    points, rows = zip(*pairs)
    if not (_plain_numbers(points) and _plain_numbers(rows)):
        return None
    try:
        return meta, np.array(points, dtype=float), np.array(rows, dtype=float)
    except OverflowError:
        return None


def _read_lines(lines: list[str], path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Parse field-file lines one at a time; every read error is raised here."""
    meta: dict = {}
    points: list[list[float]] = []
    rows: list[list] = []
    complex_mode: bool | None = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {line_no}: invalid JSON ({exc.msg})") from None
        except ValueError as exc:  # an integer literal longer than int() accepts
            raise InputError(f"line {line_no}: {exc}") from None
        except RecursionError:
            raise InputError(f"line {line_no}: JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise InputError(f"line {line_no}: expected a JSON object")
        if "meta" in obj:
            if points or rows:
                raise InputError(f"line {line_no}: meta line must come first")
            if not isinstance(obj["meta"], dict):
                raise InputError(f"line {line_no}: meta must be an object")
            meta = obj["meta"]
            continue
        if "point" not in obj or "tuple" not in obj:
            raise InputError(f'line {line_no}: need both "point" and "tuple"')
        point = obj["point"]
        if not (isinstance(point, list) and point and all(map(_is_number, point))):
            raise InputError(f"line {line_no}: point must be a list of numbers")
        value = obj["tuple"]
        if not (isinstance(value, list) and value):
            raise InputError(f"line {line_no}: tuple must be a nonempty list")
        parsed = []
        for entry in value:
            num, is_complex = _parse_tuple_entry(entry, line_no)
            if complex_mode is None:
                complex_mode = is_complex
            elif complex_mode != is_complex:
                raise InputError(
                    f"line {line_no}: mixed real and complex tuple entries in one file"
                )
            parsed.append(num)
        if points and len(point) != len(points[0]):
            raise InputError(
                f"line {line_no}: point dimension {len(point)} != {len(points[0])}"
            )
        if rows and len(parsed) != len(rows[0]):
            raise InputError(
                f"line {line_no}: tuple size {len(parsed)} != {len(rows[0])}"
            )
        points.append([_to_float(v, line_no) for v in point])
        rows.append(parsed)
    if not rows:
        raise InputError(f"{path}: no samples found")
    dtype = complex if complex_mode else float
    return meta, np.asarray(points, dtype=float), np.asarray(rows, dtype=dtype)


def read_field_file(path) -> FieldDocument:
    """Parse a JSON-lines field file; errors carry 1-based line numbers.

    A real-mode file is decoded a block of lines at a time (``_read_real_lines``);
    any other file, and any file that route declines, goes through the
    per-line parser, so both routes give the same arrays and the same errors.
    """
    path = Path(path)
    lines = read_text(path).split("\n")
    stripped = [s for s in map(str.strip, lines) if s]
    meta, points, tuples = _read_real_lines(stripped) or _read_lines(lines, path)
    m, n = points.shape[1], tuples.shape[1]
    for key, actual in (("m", m), ("n", n)):
        if key not in meta:
            continue
        if not _is_int(meta[key]):
            raise InputError(f"meta {key} must be an integer, got {meta[key]!r}")
        if meta[key] != actual:
            raise InputError(f"meta declares {key} = {meta[key]} but data has {key} = {actual}")
    adjacency = _parse_adjacency(meta.get("adjacency", "path"), points.shape[0])
    return FieldDocument(points=points, tuples=tuples, adjacency=adjacency)


# A line with its ending, cut where a handle opened with newline="" cuts: at
# "\r\n", "\r" and "\n" only (str.splitlines cuts at more characters).
_CSV_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _csv_records(text: str):
    """The CSV records of ``text``, one at a time; a malformed record is InputError."""
    reader = csv.reader(match.group() for match in _CSV_LINE.finditer(text))
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise InputError(f"line {reader.line_num}: {exc}") from None


def read_csv_field(path) -> FieldDocument:
    """Parse the real-only CSV layout: point_* columns then tuple_* columns.

    Rows are converted as they are read, into one flat buffer of doubles, so
    the file's text is the only copy of its cells held as strings.
    """
    path = Path(path)
    records = _csv_records(read_text(path, newline=""))
    header = next(records, None)
    if header is None:
        raise InputError(f"{path}: empty CSV file")
    names = [h.strip() for h in header]
    m = sum(1 for h in names if h.startswith("point"))
    n = sum(1 for h in names if h.startswith("tuple"))
    if m == 0 or n == 0 or m + n != len(names):
        raise InputError(
            'CSV header must list "point_*" columns then "tuple_*" columns'
        )
    if any(h.startswith("tuple") for h in names[:m]) or any(
        h.startswith("point") for h in names[m:]
    ):
        raise InputError("CSV columns must be ordered: point_* first, then tuple_*")
    values = array("d")
    for line_no, row in enumerate(records, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != m + n:
            raise InputError(f"line {line_no}: expected {m + n} cells, got {len(row)}")
        try:
            values.extend(map(float, row))
        except ValueError as exc:
            raise InputError(f"line {line_no}: {exc}") from None
    if not values:
        raise InputError(f"{path}: no samples found")
    table = np.frombuffer(values).reshape(-1, m + n)
    return FieldDocument(
        points=np.array(table[:, :m]),
        tuples=np.array(table[:, m:]),
        adjacency=path_adjacency(len(table)),
    )


@contextmanager
def _replacing(path):
    """A text handle on a fresh file beside ``path``, renamed over ``path`` once written.

    Readers see the old file or the whole new one, never a partial write.  If
    writing fails, the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(path, meta: dict, points: np.ndarray, rows: np.ndarray):
    """Write a meta header line, then one ``{"point": ..., "tuple": ...}`` line per row.

    A row is written from the repr of its float lists: for finite floats that
    is ``json.dumps``'s text (the same ``float.__repr__``, the same ``", "``).
    """
    with _replacing(path) as handle:
        handle.write(json.dumps({"meta": meta}) + "\n")
        for point, row in zip(points.tolist(), rows.tolist()):
            handle.write(f'{{"point": {point}, "tuple": {row}}}\n')


def write_lifted_file(path, lifted: LiftedField):
    """Write a lifted field as JSON-lines with a meta header line.

    The meta adjacency is the field's own edges: "path" when they are exactly
    the path's, in order, else the edge list.
    """
    count, m = lifted.points.shape
    edges = lifted.adjacency
    adjacency = "path" if np.array_equal(edges, path_adjacency(count)) else edges.tolist()
    meta = {"m": m, "n": lifted.values.shape[1], "adjacency": adjacency}
    _write_rows(path, meta, lifted.points, lifted.values)


def write_loop_file(path, loop: ComplexLoop):
    """Write a loop as a complex-mode field file; the point is the step fraction."""
    m, z = loop.step_count, loop.samples
    meta = {"m": 1, "n": loop.tuple_n, "adjacency": "path"}
    _write_rows(path, meta, (np.arange(m) / m)[:, np.newaxis], np.stack((z.real, z.imag), -1))


__all__ = [
    "FieldDocument",
    "read_csv_field",
    "read_field_file",
    "write_lifted_file",
    "write_loop_file",
]
