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
np.std(ddof=1) bit for bit, taken again on the values scaled by an
exact power of two where a sum leaves the double range, so finite data
always give a finite mean and, unless the spread itself passes about
1.8e308, a finite sd.

One reader, :func:`_read_csv`, takes both training files and parts
files, in two stages. The header is read by the csv module. The body
then goes through numpy's C tokenizer (``np.loadtxt``, every column as
a float, no quoting, no comments), which gives the bits ``float``
gives: both round by CPython's correctly rounded string-to-double
routine. That stage holds only when every non-empty line is the
header's width of numbers and every selected value is finite; it
counts the skipped empty lines from the file's line count. Any other
body (a quoted or non-numeric cell, a short or long row, a whitespace-
only line, no rows, a non-finite value, or a file that cannot be read
twice) is read again row by row with the csv module, which accepts and
refuses exactly as before and names the first bad row and column.
"""

import csv
import functools
import math
import operator
import warnings
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


def _parse_cell(path: str, lineno: int, column: str, raw: str) -> None:
    """Raise the error for a cell that is not a finite number."""
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError:
        raise DatasetError(f"{path}: row {lineno}, column {column!r}: "
                           f"non-numeric value {raw!r}") from None
    if not math.isfinite(value):
        raise DatasetError(f"{path}: row {lineno}, column {column!r}: "
                           f"non-finite value {raw!r}")


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


def _count_lines(raw) -> int:
    """The lines in the binary file ``raw`` from its position on, each
    ended by b"\\n", b"\\r\\n", a lone b"\\r" or the end of the file, as
    csv splits them; in every ASCII-compatible encoding these bytes are
    only ever those characters."""
    lines, last = 0, b"\n"
    for chunk in iter(functools.partial(raw.read, 1 << 20), b""):
        lines += chunk.count(b"\n")
        if b"\r" in chunk:    # a search, much faster than a count
            lines += chunk.count(b"\r") - chunk.count(b"\r\n")
        # a b"\r\n" split between two chunks ends one line
        lines -= last == b"\r" and chunk[:1] == b"\n"
        last = chunk[-1:]
    return lines + (last not in b"\r\n")


def _read_csv(
    path: str, kind: str, choose: Callable[[list[str]], list[str]]
) -> tuple[list[str], np.ndarray, int]:
    """Read the columns ``choose(header)`` selects from a CSV file.

    The header must name each column once, every other non-blank line
    must have the header's width, and every selected cell must be a
    finite number; errors name the file line and column. Returns the
    selected names, their (rows, columns) values, and the number of
    fully blank lines skipped. The body is read by
    :func:`_read_numbers` where that stage holds, else row by row.
    """
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise DatasetError(f"cannot read {kind} {path!r}: {err}") from err
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
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
        picked = [i for _, i in columns]

        # numpy's stage, where a file it refuses can be read again
        if fh.seekable():
            values = _read_numbers(fh, len(header), picked)
            if values is not None:
                # what numpy skipped is the empty lines
                fh.buffer.seek(0)
                blank = _count_lines(fh.buffer) - reader.line_num - len(values)
                return names, values, blank
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)

        # itemgetter gives a tuple for two or more indices, else the cell
        pick = operator.itemgetter(*picked)
        cells: list[str] = []
        add = cells.extend if len(columns) > 1 else cells.append
        kept: list[tuple[int, list[str]]] = []
        blank = 0
        # line 1 is the header, so data rows are numbered from 2
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                blank += 1
                continue
            kept.append((lineno, row))
            if len(row) != len(header):
                break
            add(pick(row))

    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
        valid = (len(cells) == len(kept) * len(columns)
                 and bool(np.isfinite(values).all()))
    except ValueError:
        valid = False
    if not valid:
        # replay the checks row by row: the first bad row in file order,
        # and in it the first bad cell, names the error
        for lineno, row in kept:
            if len(row) != len(header):
                raise DatasetError(f"{path}: row {lineno} has {len(row)} "
                                   f"cells, expected {len(header)}")
            for n, i in columns:
                _parse_cell(path, lineno, n, row[i])
        # every cell is a number once stripped: float alone refuses the
        # separators \x1c-\x1f that strip and numpy's reader remove
        values = np.fromiter((float(c.strip()) for c in cells), np.float64,
                             len(cells))
    if not kept:
        raise DatasetError(f"{path}: no data rows")
    return names, values.reshape(len(kept), len(columns)), blank


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
