"""CSV ingestion of trapezoidal datasets.

The expected format is a header ``id,a,b,c,d,frequency`` followed by one row
per fuzzy observation: four trapezoid knots in non-decreasing order and a
non-negative integer frequency.  Records round-trip through
``emit_dataset`` / ``parse_dataset`` unchanged.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .empirical import make_frv
from .exceptions import OrderViolation, ParseError
from .fuzzyset import make_trapezoid

_HEADER = ["id", "a", "b", "c", "d", "frequency"]


@dataclass(frozen=True)
class DatasetRecord:
    """One labelled trapezoidal observation with its frequency."""

    id: str
    a: float
    b: float
    c: float
    d: float
    frequency: int

    def to_fuzzy(self):
        return make_trapezoid(self.a, self.b, self.c, self.d)


def parse_dataset(text):
    """Parse CSV text into a list of DatasetRecords.

    Raises ParseError (with the offending line number) for malformed rows,
    non-finite knots included, and OrderViolation when trapezoid knots are
    out of order.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input", line=1) from None
    if [h.strip() for h in header] != _HEADER:
        raise ParseError(
            f"expected header {','.join(_HEADER)!r}, got {','.join(header)!r}", line=1
        )
    records = []
    seen = set()
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 6:
            raise ParseError(f"expected 6 fields, got {len(row)}", line=line)
        rid = row[0].strip()
        if not rid:
            raise ParseError("empty id", line=line)
        if rid in seen:
            raise ParseError(f"duplicate id {rid!r}", line=line)
        seen.add(rid)
        try:
            knots = [float(v) for v in row[1:5]]
        except ValueError as err:
            raise ParseError(f"bad knot value: {err}", line=line) from None
        if not all(map(math.isfinite, knots)):
            raise ParseError(f"knots must be finite, got {tuple(knots)}", line=line)
        try:
            frequency = int(row[5])
        except ValueError:
            raise ParseError(f"frequency must be an integer, got {row[5]!r}", line=line) from None
        if frequency < 0:
            raise ParseError(f"frequency must be non-negative, got {frequency}", line=line)
        a, b, c, d = knots
        if not (a <= b <= c <= d):
            raise OrderViolation(
                f"knots must satisfy a <= b <= c <= d, got {(a, b, c, d)}", line=line
            )
        records.append(DatasetRecord(rid, a, b, c, d, frequency))
    if not records:
        raise ParseError("no data rows", line=1)
    return records


def emit_dataset(records):
    """Render records back to CSV text; inverse of parse_dataset."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_HEADER)
    for rec in records:
        writer.writerow([rec.id, f"{rec.a:g}", f"{rec.b:g}", f"{rec.c:g}", f"{rec.d:g}", rec.frequency])
    return out.getvalue()


def records_frv(records):
    """Build the empirical variable and the query list from records.

    Returns (x, queries, ids): the variable is frequency-weighted over the
    positive-frequency records, while every record stays a query.
    """
    queries = [rec.to_fuzzy() for rec in records]
    ids = [rec.id for rec in records]
    x = make_frv(queries, frequencies=[rec.frequency for rec in records])
    return x, queries, ids


# A nine-group quality survey layout: identical symmetric trapezoids on a
# 0..5 scale, centered at i/2 for group i, with the frequencies of a 279-tree
# field census.  The middle group carries both the modal frequency and the
# weighted median, so every depth method should rank it first.
TREES_FREQUENCIES = (22, 16, 39, 36, 85, 22, 35, 12, 12)


def trees_like_records():
    """Synthetic nine-group dataset with a symmetric layout."""
    records = []
    for k, freq in enumerate(TREES_FREQUENCIES, start=1):
        m = 0.5 * k
        records.append(
            DatasetRecord(f"T{k}", m - 0.5, m - 0.25, m + 0.25, m + 0.5, freq)
        )
    return records
