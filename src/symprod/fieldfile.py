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
import math
import os
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain, count, islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import _lines, read_text, row_chunks
from .errors import InputError, InvariantViolation
# perfbench/tracer.py patches this name; ROADMAP item 1b drops the import.
from .metric import UnorderedTuple  # noqa: F401
from .selection import LiftedField, SampledField, _check_adjacency, path_adjacency

if TYPE_CHECKING:  # write_loop_file's annotation only, so that no reader loads monodromy
    from .monodromy import ComplexLoop

# Lines per block in the block reader and the writer: one block's objects are
# all the Python copy of the numbers it holds.  With 2048, reading a k=64 loop
# file peaked at 4.6 times the file; with 512, at 2.2 times.
_DECODE_LINES = 512
# A JSON number, by exact type: a bool is not one.
_NUMBER_TYPES = {float, int}


@dataclass(frozen=True, eq=False)
class FieldDocument:
    """Parsed contents of a field file, before semantic interpretation; equal only to itself."""

    points: np.ndarray
    tuples: np.ndarray  # (N, n); complex dtype in complex mode
    adjacency: np.ndarray  # the checked read-only (E, 2) intp edges; "path" becomes its edges

    def to_sampled_field(self) -> SampledField:
        if self.tuples.dtype.kind == "c":
            raise InputError(
                "complex-mode input cannot be lifted by sorting; use `symprod holonomy` "
                "to track components around a loop instead"
            )
        return SampledField(self.points, self.tuples, self.adjacency)


def _parse_adjacency(spec, count: int) -> np.ndarray:
    """The meta adjacency, "path" or an edge list, as edges checked as ``SampledField`` does.

    Only what the array pass cannot see is checked here: JSON true/false
    would become the indices 1 and 0.
    """
    if spec == "path":
        return path_adjacency(count)
    if not isinstance(spec, list):
        raise InputError('adjacency must be "path" or an edge list')
    if any(type(i) is bool for edge in spec if isinstance(edge, list) for i in edge):
        raise InputError("adjacency indices must be integers, not true or false")
    return _check_adjacency(spec, count)


def _plain_numbers(lists, pairs: bool = False) -> bool:
    """Whether ``lists`` are nonempty lists of one length holding only JSON numbers.

    With ``pairs`` they hold only [re, im] pairs of numbers instead.
    """
    if set(map(type, lists)) != {list} or len(set(map(len, lists))) != 1 or not lists[0]:
        return False
    if pairs:
        lists = list(chain.from_iterable(lists))
        if set(map(type, lists)) != {list} or set(map(len, lists)) != {2}:
            return False
    return set(map(type, chain.from_iterable(lists))) <= _NUMBER_TYPES


def _read_valid_lines(lines, path: Path):
    """(meta, points, tuples, first non-blank line's number) of a field file, a block at a time.

    Each line is decoded whole; "point" and "tuple" may come in any order among
    other keys.  A declined block has a read error, which ``_raise_read_error``
    names after ``heads``: the first two non-blank lines, which set its state.
    """
    decode, lines, size = json.JSONDecoder().raw_decode, iter(lines), _DECODE_LINES
    meta, blocks, heads, shape = {}, [], [], None
    for start, raw in zip(count(1, size), iter(lambda: list(islice(lines, size)), [])):
        block, objs = [s for s in map(str.strip, raw) if s], []
        try:
            for line in block:
                obj, end = decode(line)
                if end != len(line) or not isinstance(obj, dict):
                    raise ValueError
                objs.append(obj)
            if not heads and objs and "meta" in objs[0]:  # the optional meta line
                meta = objs.pop(0)["meta"]
            points, rows = [o.get("point") for o in objs], [o.get("tuple") for o in objs]
            if not isinstance(meta, dict) or objs and not (
                    all("meta" not in o for o in objs) and _plain_numbers(points)
                    and (_plain_numbers(rows) or _plain_numbers(rows, pairs=True))):
                raise ValueError
            if objs:
                p, r = np.array(points, dtype=float), np.array(rows, dtype=float)
                shape = shape or (p.shape[1:], r.shape[1:])  # the first sample's sizes and mode
                finite = np.isfinite(p).all() and np.isfinite(r).all()
                if shape != (p.shape[1:], r.shape[1:]) or not finite:
                    raise ValueError  # another shape, NaN, Infinity or past the float range
                blocks.append((p, r))
        except (ValueError, RecursionError, OverflowError):  # or not JSON, or past the float range
            objs = None  # declined, and named outside this handler so that nothing chains to it
        if objs is None:
            _raise_read_error([*heads, *enumerate(raw, start)], path)
        heads += islice(((i, s) for i, s in enumerate(raw, start) if s.strip()), 2 - len(heads))
    if not blocks:
        raise InputError(f"{path}: no samples found")
    points, tuples = map(np.concatenate, zip(*blocks))
    for arr in (points, tuples):  # the reader's own: a field adopts them uncopied
        arr.setflags(write=False)
    if tuples.ndim == 3:  # [re, im] pairs; re + 1j * im would lose a -0.0 real part
        tuples = tuples.view(complex)[..., 0]
    return meta, points, tuples, heads[0][0]


def _check_floats(values, line_no: int):
    """Refuse NaN, an infinity and a JSON integer too large for a float, as the block route does."""
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:
        raise InputError(f"line {line_no}: integer too large for a float") from None
    if not finite:
        raise InputError(f"line {line_no}: number is not finite")


def _raise_read_error(lines, path: Path):
    """Raise the first read error in ``(line number, line)`` pairs, naming its line; build nothing.

    ``_read_valid_lines`` declines exactly the blocks with a read error, so a
    block it sends with none is an ``InvariantViolation``: the two disagree.
    """
    meta_seen, first, complex_mode = False, None, None  # first: the first sample's sizes
    for line_no, raw in lines:
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
            if meta_seen or first:
                raise InputError(f"line {line_no}: meta line must come first")
            if not isinstance(obj["meta"], dict):
                raise InputError(f"line {line_no}: meta must be an object")
            meta_seen = True
            continue
        if "point" not in obj or "tuple" not in obj:
            raise InputError(f'line {line_no}: need both "point" and "tuple"')
        point, value = obj["point"], obj["tuple"]
        if not _plain_numbers([point]):
            raise InputError(f"line {line_no}: point must be a list of numbers")
        if not (isinstance(value, list) and value):
            raise InputError(f"line {line_no}: tuple must be a nonempty list")
        for entry in value:
            pair = _plain_numbers([entry]) and len(entry) == 2
            if not (pair or type(entry) in _NUMBER_TYPES):
                raise InputError(
                    f"line {line_no}: tuple entries must be numbers or [re, im] pairs, got {entry!r}"
                )
            _check_floats(entry if pair else [entry], line_no)
            if complex_mode not in (None, pair):
                raise InputError(
                    f"line {line_no}: mixed real and complex tuple entries in one file"
                )
            complex_mode = pair
        if first and len(point) != first[0]:
            raise InputError(f"line {line_no}: point dimension {len(point)} != {first[0]}")
        if first and len(value) != first[1]:
            raise InputError(f"line {line_no}: tuple size {len(value)} != {first[1]}")
        _check_floats(point, line_no)
        first = first or (len(point), len(value))
    raise InvariantViolation(f"{path}: the block reader declined a file with no read error")


def read_field_file(path) -> FieldDocument:
    """Parse a JSON-lines field file; errors carry 1-based line numbers.

    A well-formed file is decoded a block of lines at a time (``_read_valid_lines``),
    the one route that builds its arrays.  A block that route declines has a
    read error, and a per-line pass over that block names its first bad line.
    """
    path = Path(path)
    meta, points, tuples, meta_line = _read_valid_lines(_lines(read_text(path)), path)
    try:
        for key, actual in (("m", points.shape[1]), ("n", tuples.shape[1])):
            if type(meta.get(key, actual)) is not int:
                raise InputError(f"meta {key} must be an integer, got {meta[key]!r}")
            if meta.get(key, actual) != actual:
                raise InputError(f"meta declares {key} = {meta[key]} but data has {key} = {actual}")
        adjacency = _parse_adjacency(meta.get("adjacency", "path"), points.shape[0])
    except InputError as exc:  # only a meta line fails here: the first non-blank line
        raise InputError(f"line {meta_line}: {exc}") from None
    return FieldDocument(points=points, tuples=tuples, adjacency=adjacency)


def read_csv_field(path) -> FieldDocument:
    """Parse the real-only CSV layout: point_* columns then tuple_* columns.

    Rows are converted as they are read, into one flat buffer of doubles, so
    the file's text is the only copy of its cells held as strings.  A row's
    error names the last line of its record.
    """
    path = Path(path)
    # Each line keeps its "\n": without it, csv joins the lines of a quoted cell.
    reader = csv.reader(line + "\n" for line in _lines(read_text(path)))
    values, line_nums = array("d"), array("q")  # the rows' doubles, and each row's last line
    error = None
    try:
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty CSV file")
        kinds = [h.strip()[:5] for h in header]
        m, n = kinds.count("point"), kinds.count("tuple")
        if m == 0 or n == 0 or m + n != len(kinds):
            raise InputError('CSV header must list "point_*" columns then "tuple_*" columns')
        if kinds != ["point"] * m + ["tuple"] * n:
            raise InputError("CSV columns must be ordered: point_* first, then tuple_*")
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != m + n:
                raise ValueError(f"expected {m + n} cells, got {len(row)}")
            values.extend(map(float, row))
            line_nums.append(reader.line_num)
    except InputError:  # the header's, which names no line
        raise
    except (csv.Error, ValueError) as exc:  # a row's, or e.g. a cell past csv.field_size_limit()
        error = InputError(f"line {reader.line_num}: {exc}")
    if not line_nums:
        raise error or InputError(f"{path}: no samples found")
    # The rows read, tested once: a non-finite cell goes before a later row's error.
    table = np.frombuffer(values, count=len(line_nums) * (m + n)).reshape(-1, m + n)
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise InputError(f"line {line_nums[int(np.argmax(bad))]}: number is not finite")
    if error:
        raise error
    points, tuples = np.array(table[:, :m]), np.array(table[:, m:])
    for arr in (points, tuples):  # the reader's own: a field adopts them uncopied
        arr.setflags(write=False)
    return FieldDocument(points=points, tuples=tuples, adjacency=path_adjacency(len(table)))


@contextmanager
def _replacing(path):
    """A text handle on a fresh file beside ``path``, renamed over ``path`` once written.

    Readers see the old file or the whole new one, never a partial write.  If
    writing fails, the temporary file is removed and ``path`` is left as it was.
    An error on the temporary file is reported as one on ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # a failed cleanup must not replace the error it follows
            tmp.unlink()
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _write_rows(path, meta: dict, points: np.ndarray, rows: np.ndarray):
    """Write a meta header line, then one ``{"point": ..., "tuple": ...}`` line per row.

    A line is a ``%r`` template nested like one row: for finite floats
    ``float.__repr__`` and ``", "`` are ``json.dumps``'s text.  A block of rows
    is one ``%`` of the template repeated, over the block's numbers in row order.
    """
    def nested(shape):  # "%r" per number, nested as a list of this shape
        return "%r" if not shape else "[" + ", ".join([nested(shape[1:])] * shape[0]) + "]"

    line = f'{{"point": {nested(points.shape[1:])}, "tuple": {nested(rows.shape[1:])}}}\n'
    with _replacing(path) as handle:
        handle.write(json.dumps({"meta": meta}) + "\n")
        for start in range(0, len(points), _DECODE_LINES):  # one block of Python floats at a time
            p, r = points[start:start + _DECODE_LINES], rows[start:start + _DECODE_LINES]
            numbers = np.hstack((p, r.reshape(len(p), -1))).ravel().tolist()
            handle.write(line * len(p) % tuple(numbers))


def write_lifted_file(path, lifted: LiftedField):
    """Write a lifted field as JSON-lines with a meta header line.

    The meta adjacency is the field's own edges: "path" when they are exactly
    the path's, in order, else the edge list.
    """
    count, m = lifted.points.shape
    first, second = lifted.adjacency.T  # a slice at a time: the path's edges never exist whole
    is_path = len(first) == count - 1 and all(
        np.array_equal(first[rows], np.arange(*rows.indices(len(first))))
        and np.array_equal(second[rows], first[rows] + 1)
        for rows in row_chunks(len(first), 8 * 3))  # an index, its successor and a comparison
    adjacency = "path" if is_path else lifted.adjacency.tolist()
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
