"""Training data for virtual measurement: records plus summary statistics.

A dataset pairs process-variable feature vectors with one measured
quality characteristic per record. Records are treated as independent
observations, which is what lets the likelihood factorize over them.

The per-feature and target summary statistics computed here travel with
every trained model and report: they document what data the model saw,
which is the minimum needed to judge later whether new parts still
resemble the training distribution.
"""

import csv
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DatasetError

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
    # sample sd (ddof=1); a single record has no spread to estimate
    sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return ColumnSummary(name, float(np.mean(values)), sd,
                         float(np.min(values)), float(np.max(values)))


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


def _read_csv(
    path: str, kind: str, choose: Callable[[list[str]], list[str]]
) -> tuple[list[str], np.ndarray, int]:
    """Read the columns ``choose(header)`` selects from a CSV file.

    The header must name each column once, every other non-blank line
    must have the header's width, and every selected cell must be a
    finite number; errors name the file line and column. Returns the
    selected names, their (rows, columns) values, and the number of
    fully blank lines skipped.
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

        # itemgetter gives a tuple for two or more indices, else the cell
        pick = operator.itemgetter(*[i for _, i in columns])
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
