"""CSV ingestion and emission for the batch front-end.

Matrix files are headerless CSV, one row per matrix row, comma-separated
decimal values.  Floats are emitted with 17 significant digits so every file
written by the toolkit re-parses to bit-identical values.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import ParseError
from .spectra_core import _real


def format_float(x):
    """Decimal serialization with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def _parse_body(path, reader, start, width=None, id_pos=None):
    """Parse the CSV records from line ``start`` on into a dense float matrix.

    Blank records are skipped.  Every other record must have ``width`` fields
    (default: the first record's count); field ``id_pos``, if given, is left
    out of the numeric parse.  Returns ``(records, data)``, ``records`` being
    the non-blank ``(line_no, fields)`` pairs.  The body is converted by one
    ``np.array`` call, which parses each field as ``float()`` does.  Only when
    a width differs, that call fails or a value is non-finite are the records
    rescanned in file order, to raise the ParseError of the first faulty line
    (on one line, a wrong field count before a bad value).
    """
    records = [(line_no, fields) for line_no, fields in enumerate(reader, start) if fields]
    if not records:
        raise ParseError(path, start, "file contains no data rows")
    width = width or len(records[0][1])
    numeric = [f if id_pos is None else f[:id_pos] + f[id_pos + 1 :] for _, f in records]
    if all(len(fields) == width for _, fields in records):
        try:
            data = np.array(numeric, dtype=float)
        except ValueError:
            pass
        else:
            if np.isfinite(data).all():
                return records, data
    for (line_no, fields), row in zip(records, numeric):
        if len(fields) != width:
            raise ParseError(path, line_no, f"row has {len(fields)} values, expected {width}")
        for token in row:
            try:
                value = float(token)
            except ValueError:
                raise ParseError(
                    path, line_no, f"not a decimal number: {token.strip()!r}"
                ) from None
            if not np.isfinite(value):
                raise ParseError(path, line_no, f"non-finite value: {token.strip()!r}")
    raise AssertionError("np.array rejected a body that float() accepts")


def read_matrix_csv(path):
    """Parse a headerless CSV file into a dense real matrix.

    Raises ParseError (with file and line) on malformed values, ragged rows,
    or an empty file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        return _parse_body(path, csv.reader(fh), 1)[1]


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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "file is empty") from None
        if [h.strip() for h in header] != ["rho"]:
            raise ParseError(path, 1, f"expected header 'rho', got {header!r}")
        return _parse_body(path, reader, 2, 1)[1].ravel()


def read_table_csv(path):
    """Parse a CSV with an ``id`` column plus numeric data columns.

    Returns ``(ids, column_names, data)`` where ``data`` is a dense float
    matrix over the non-id columns.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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
        records, data = _parse_body(path, reader, 2, len(header), id_pos)
    return [fields[id_pos].strip() for _, fields in records], names, data
