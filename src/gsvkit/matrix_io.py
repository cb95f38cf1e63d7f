"""CSV ingestion and emission for the batch front-end.

Matrix files are headerless CSV, one row per matrix row, comma-separated
decimal values.  Floats are emitted with 17 significant digits so every file
written by the toolkit re-parses to bit-identical values.
"""

from __future__ import annotations

import contextlib
import csv
import itertools

import numpy as np

from .errors import ParseError
from .spectra_core import _real


# Fields converted per np.array call: the parse holds one block of strings, not the file's.
_BLOCK_FIELDS = 4096


def format_float(x):
    """Decimal serialization with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


@contextlib.contextmanager
def _csv_reader(path):
    """A csv reader of UTF-8 ``path`` (BOM skipped); a csv fault or non-UTF-8 byte is a ParseError."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:  # a field past the csv module's size limit, say
            raise ParseError(path, reader.line_num, str(exc)) from None
        except UnicodeDecodeError:  # decoded ~8 KB ahead of line_num: rescan the bytes by line
            with open(path, "rb") as raw:
                for line_no, text in enumerate(raw.read().splitlines(keepends=True), 1):
                    try:
                        text.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise ParseError(path, line_no, f"not UTF-8 text: byte "
                                         f"{text[exc.start]:#04x} ({exc.reason})") from None
            raise  # no line fails alone: the decoder's own error stands


def _records(reader):
    """``(line, fields)`` for each non-blank record of ``reader``, from the line it starts on."""
    line_no = reader.line_num
    for fields in reader:
        if fields:
            yield line_no + 1, fields
        line_no = reader.line_num  # a quoted field may span lines


def _parse_body(path, reader, width=None, id_pos=None):
    """Parse the CSV records left in ``reader`` into a dense float matrix, in one pass.

    Blank records are skipped.  Every other record must have ``width`` fields
    (default: the first record's count); field ``id_pos``, if given, is left
    out of the numeric parse and returned stripped.  Returns ``(ids, data)``.
    Records are parsed in blocks of ``max(1, _BLOCK_FIELDS // width)``, each
    converted by one ``np.array`` call, which parses each field as ``float()``
    does.  Only a block whose width differs, whose call fails or that holds a
    non-finite value is rescanned, by :func:`_raise_first_fault`.
    """
    start = reader.line_num + 1
    records = _records(reader)
    first = next(records, None)
    if first is None:
        raise ParseError(path, start, "file contains no data rows")
    width = width or len(first[1])
    records = itertools.chain([first], records)
    ids, blocks = [], []
    while block := list(itertools.islice(records, max(1, _BLOCK_FIELDS // width))):
        if all(len(fields) == width for _, fields in block):
            flat = list(itertools.chain.from_iterable(fields for _, fields in block))
            if id_pos is not None:
                ids += (i.strip() for i in flat[id_pos::width])
                del flat[id_pos::width]
            try:
                data = np.array(flat, dtype=float)
            except ValueError:
                pass
            else:
                if np.isfinite(data).all():
                    blocks.append(data.reshape(len(block), -1))
                    continue
        _raise_first_fault(path, block, width, id_pos)
    return ids, np.concatenate(blocks)


def _raise_first_fault(path, block, width, id_pos):
    """Raise the ParseError of ``block``'s first faulty line (a wrong field count before a bad value)."""
    for line_no, fields in block:
        if len(fields) != width:
            raise ParseError(path, line_no, f"row has {len(fields)} values, expected {width}")
        for token in fields if id_pos is None else fields[:id_pos] + fields[id_pos + 1 :]:
            try:
                value = float(token)
            except ValueError:
                raise ParseError(
                    path, line_no, f"not a decimal number: {token.strip()!r}"
                ) from None
            if not np.isfinite(value):
                raise ParseError(path, line_no, f"non-finite value: {token.strip()!r}")
    raise AssertionError("np.array rejected a block that float() accepts")


def read_matrix_csv(path):
    """Parse a headerless CSV file into a dense real matrix.

    Raises ParseError (with file and line) on malformed values, ragged rows,
    or an empty file.
    """
    with _csv_reader(path) as reader:
        return _parse_body(path, reader)[1]


def write_matrix_csv(path, arr):
    """Emit a real matrix as lossless headerless CSV; ComplexInput, before any write, if complex."""
    arr = np.atleast_2d(_real(arr, "matrix is complex"))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(format_float(v) for v in row))
            fh.write("\n")


def write_vector_csv(path, vec):
    """Emit a real vector as one value per row; ComplexInput for a complex ``vec``."""
    write_matrix_csv(path, _real(vec, "vector is complex").reshape(-1, 1))


def read_probability_csv(path):
    """Parse a single-column CSV with header ``rho`` into a probability vector."""
    with _csv_reader(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "file is empty") from None
        if [h.strip() for h in header] != ["rho"]:
            raise ParseError(path, 1, f"expected header 'rho', got {header!r}")
        return _parse_body(path, reader, 1)[1].ravel()


def read_table_csv(path):
    """Parse a CSV with an ``id`` column plus numeric data columns.

    Returns ``(ids, column_names, data)`` where ``data`` is a dense float
    matrix over the non-id columns.
    """
    with _csv_reader(path) as reader:
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(path, 1, "file is empty") from None
        if "id" not in header:
            raise ParseError(path, 1, f"missing 'id' column in header {header!r}")
        id_pos = header.index("id")
        names = [h for i, h in enumerate(header) if i != id_pos]
        if not names:
            raise ParseError(path, 1, "need at least one numeric column besides 'id'")
        ids, data = _parse_body(path, reader, len(header), id_pos)
    return ids, names, data
