"""Training data for virtual measurement: records plus summary statistics.

A dataset pairs process-variable feature vectors with one measured
quality characteristic per record. Records are treated as independent
observations, which is what lets the likelihood factorize over them.

The per-feature and target summary statistics computed here travel with
every trained model and report: they document what data the model saw,
which is the minimum needed to judge later whether new parts still
resemble the training distribution. Each column's mean and sample sd
come from the routine Monte Carlo uses for its sample
(:func:`~uncertlab.propagation._mean_and_sd`): numpy's np.mean and
np.std(ddof=1) bit for bit, except where numpy's mean rounds outside
the column's range, where it is that bound (a constant column has sd
0), taken again on the values scaled by an exact power of two where a
sum leaves the double range, so finite data always give a finite mean
and, unless the spread itself passes about 1.8e308, a finite sd.

One reader, :func:`_read_csv`, takes both training files and parts
files, in two stages. The header is read by the csv module. The body
then goes through numpy's C tokenizer (``np.loadtxt``, every column as
a float, no quoting, no comments), which gives the bits ``float``
gives: both round by CPython's correctly rounded string-to-double
routine. That stage holds only where csv's would: when every non-empty
line is the header's width of numbers, none is longer than csv's field
limit, and every selected value is finite; it counts the skipped empty
lines from the file's line count. Any other body (a non-numeric column,
used or not, a quoted cell, a short, long or over-long row, a
whitespace-only line, no rows, a non-finite value, or a file that
cannot be read twice) is read again in one pass by the csv module: a
blank row is counted, a row of the wrong width is refused at once, and
each selected cell of every other row goes to ``float`` straight into
one flat array of doubles that becomes the table, so no cell is kept as
a string. The first bad row and, in it, the first bad cell name the
error. Files are read as UTF-8 in any locale, without the byte-order
mark a spreadsheet may write first. A byte UTF-8 refuses, or a cell
past csv's field limit, is a DatasetError that names the file and the
line.
"""

import csv
import functools
import math
import warnings
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DatasetError
from .propagation import _mean_and_sd

__all__ = [
    "ColumnSummary",
    "DatasetSummary",
    "Dataset",
    "make_dataset",
    "ingest_dataset",
    "ingest_parts",
]


@dataclass(frozen=True)
class ColumnSummary:
    name: str
    mean: float
    sd: float
    min: float
    max: float


@dataclass(frozen=True)
class DatasetSummary:
    n_records: int
    features: tuple[ColumnSummary, ...]
    target: ColumnSummary


@dataclass(frozen=True)
class Dataset:
    """Feature matrix x (D rows, F columns) and target vector y (D)."""

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    target_name: str
    summary: DatasetSummary
    n_rejected_rows: int = 0

    @property
    def n_records(self) -> int:
        return len(self.y)

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


def _column_summary(name: str, values: np.ndarray) -> ColumnSummary:
    lo, hi = float(np.min(values)), float(np.max(values))
    if len(values) == 1:    # a single record has no spread to estimate
        return ColumnSummary(name, lo, 0.0, lo, hi)
    # sample sd (ddof=1), also where its sum of squares overflows
    return ColumnSummary(name, *_mean_and_sd(values, lo, hi), lo, hi)


def make_dataset(
    x: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
    target_name: str = "y",
    n_rejected_rows: int = 0,
) -> Dataset:
    """Assemble and validate a dataset from arrays."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] != len(y):
        raise DatasetError(
            f"{x.shape[0]} feature rows but {len(y)} target values")
    if x.shape[1] < 1:
        raise DatasetError("at least one feature column is required")
    if x.shape[1] != len(feature_names):
        raise DatasetError(
            f"{x.shape[1]} feature columns but {len(feature_names)} names")
    if len(y) < 1:
        raise DatasetError("dataset has no records")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise DatasetError("dataset contains non-finite values")
    names = tuple(feature_names)
    for i, name in enumerate(names):
        # a feature named like the target would train on the target itself
        if name == target_name:
            raise DatasetError(f"feature {name!r} is the target column")
        if name in names[:i]:
            raise DatasetError(f"feature {name!r} is named twice")
    summary = DatasetSummary(
        len(y),
        tuple(_column_summary(n, x[:, i]) for i, n in enumerate(names)),
        _column_summary(target_name, y),
    )
    return Dataset(x, y, names, target_name, summary, n_rejected_rows)


def _parse_cell(path: str, lineno: int, column: str, raw: str) -> float:
    """The finite number in a cell, else the error naming it. The cell
    is stripped first: float alone refuses the separators \\x1c-\\x1f
    that strip and numpy's reader remove."""
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError:
        raise DatasetError(f"{path}: row {lineno}, column {column!r}: "
                           f"non-numeric value {raw!r}") from None
    if not math.isfinite(value):
        raise DatasetError(f"{path}: row {lineno}, column {column!r}: "
                           f"non-finite value {raw!r}")
    return value


def _read_numbers(fh, width: int, picked: list[int]) -> Optional[np.ndarray]:
    """The ``picked`` columns of the rest of ``fh``, read by numpy's C
    tokenizer, or None unless every non-empty line holds ``width``
    numbers, there is at least one, and every picked value is finite."""
    with warnings.catch_warnings():
        # a warning such as "input contained no data" refuses too
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(fh, dtype=np.float64, delimiter=",",
                               comments=None, quotechar=None, ndmin=2)
        except (ValueError, Warning):
            return None
    if not len(table) or table.shape[1] != width:
        return None
    values = table[:, picked]
    return values if np.isfinite(values).all() else None


def _count_lines(raw, limit: int) -> tuple[int, bool]:
    """The lines in the binary file ``raw`` from its position on, each
    ended by b"\\n", b"\\r\\n", a lone b"\\r" or the end of the file, as
    csv splits them, and whether one is longer than ``limit`` bytes; in
    UTF-8 these bytes are only those characters."""
    lines, last, run, long = 0, b"\n", 0, False
    for chunk in iter(functools.partial(raw.read, 1 << 20), b""):
        lines += chunk.count(b"\n")
        if b"\r" in chunk:    # a search, much faster than a count
            lines += chunk.count(b"\r") - chunk.count(b"\r\n")
        # a b"\r\n" split between two chunks ends one line
        lines -= last == b"\r" and chunk[:1] == b"\n"
        last = chunk[-1:]
        # a line with ``run`` bytes before chunk[pos] ends in the next
        # limit + 1 - run bytes (at the last end there) or is too long
        pos = 0
        while not long:
            stop = pos + limit + 1 - run
            end = max(chunk.rfind(b"\n", pos, stop),
                      chunk.rfind(b"\r", pos, stop))
            if end < 0:
                run += len(chunk) - pos
                long = run > limit
                break
            run, pos = 0, end + 1
    return lines + (last not in b"\r\n"), long


def _unreadable(path: str, fh, reader, err: Exception) -> DatasetError:
    """The error for a csv error of ``reader`` or a decoding error of
    ``fh``, naming the line. The decoder reads ahead of the reader, so a
    file that can be read again is decoded again whole to find the line
    of a bad byte; a pipe's message names no line."""
    if isinstance(err, csv.Error):
        return DatasetError(f"{path}: line {reader.line_num}: {err}")
    where = ""
    if fh.seekable():
        fh.buffer.seek(0)
        data = fh.buffer.read()
        try:
            data.decode(fh.encoding)
        except UnicodeDecodeError as whole:
            err, n = whole, whole.start
            ends = (data.count(b"\n", 0, n) + data.count(b"\r", 0, n)
                    - data.count(b"\r\n", 0, n))
            where = f"line {ends + 1}: "
    return DatasetError(f"{path}: {where}not UTF-8 text: byte "
                        f"0x{err.object[err.start]:02x}, {err.reason}")


def _read_csv(
    path: str, kind: str, choose: Callable[[list[str]], list[str]]
) -> tuple[list[str], np.ndarray, int]:
    """Read the columns ``choose(header)`` selects from a CSV file.

    The header must name each column once, every other non-blank line
    must have the header's width, and every selected cell must be a
    finite number; errors name the file line and column. Returns the
    selected names, their (rows, columns) values, and the number of
    fully blank lines skipped. The body is read by
    :func:`_read_numbers` where that stage holds, else in one pass of
    the csv module that parses each selected cell as it reads its row
    and stops at the first bad row or cell.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as err:
        raise DatasetError(f"cannot read {kind} {path!r}: {err}") from err
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        except (csv.Error, UnicodeDecodeError) as err:
            raise _unreadable(path, fh, reader, err) from None
        seen: set[str] = set()
        for h in header:
            if h in seen:
                raise DatasetError(f"{path}: duplicate header column {h!r}")
            seen.add(h)
        names = choose(header)
        missing = [n for n in names if n not in seen]
        if missing:
            raise DatasetError(
                f"{path}: feature column(s) not found: {', '.join(missing)}")
        columns = [(n, header.index(n)) for n in names]

        # numpy's stage, where a file it refuses can be read again
        if fh.seekable():
            values = _read_numbers(fh, len(header), [i for _, i in columns])
            if values is not None:
                # what numpy skipped is the empty lines; csv takes a line
                # longer in bytes, so maybe in characters, than its limit
                fh.buffer.seek(0)
                lines, long = _count_lines(fh.buffer, csv.field_size_limit())
                if not long:
                    return names, values, lines - reader.line_num - len(values)
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)

        values = array("d")
        add = values.append
        blank = 0
        try:
            # line 1 is the header, so data rows are numbered from 2
            for lineno, row in enumerate(reader, start=2):
                if not "".join(row).strip():
                    blank += 1
                    continue
                if len(row) != len(header):
                    raise DatasetError(f"{path}: row {lineno} has {len(row)} "
                                       f"cells, expected {len(header)}")
                for n, i in columns:
                    add(_parse_cell(path, lineno, n, row[i]))
        except (csv.Error, UnicodeDecodeError) as err:
            raise _unreadable(path, fh, reader, err) from None

    if not values:
        raise DatasetError(f"{path}: no data rows")
    return names, np.frombuffer(values).reshape(-1, len(columns)), blank


def ingest_dataset(
    path: str,
    target: str,
    features: Optional[Sequence[str]] = None,
) -> Dataset:
    """Read a CSV file with a header row into a Dataset.

    ``features`` selects and orders the feature columns; by default all
    non-target columns are used in file order. Fully blank lines are
    skipped and counted as rejected rows; any other malformed content
    (wrong column count, non-numeric or non-finite cell) is an error
    naming the file line and column, since silently dropping records
    would bias the training data.
    """
    def choose(header: list[str]) -> list[str]:
        if target not in header:
            raise DatasetError(
                f"{path}: target column {target!r} not found "
                f"(columns: {', '.join(header)})")
        names = list(features) if features is not None else \
            [h for h in header if h != target]
        if not names:
            raise DatasetError(f"{path}: no feature columns besides the target")
        return names + [target]

    names, values, rejected = _read_csv(path, "dataset", choose)
    # copies: x and y each own contiguous memory, not views of one table
    return make_dataset(values[:, :-1].copy(), values[:, -1].copy(),
                        names[:-1], target, n_rejected_rows=rejected)


def ingest_parts(path: str, feature_names: Sequence[str]) -> np.ndarray:
    """Read new-part feature rows from a CSV with a header.

    The file must contain every column in ``feature_names``; extra
    columns are ignored and blank lines skipped. Returns the features
    as an (n, F) array in the requested column order, with the same
    strictness about the header and malformed cells as
    :func:`ingest_dataset`.
    """
    _, values, _ = _read_csv(path, "parts file",
                             lambda header: list(feature_names))
    return values
