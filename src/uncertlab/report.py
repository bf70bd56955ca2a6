"""Run reports: the documentation record of every computation.

A report is a JSON document with four blocks: tool identity, the fully
resolved config (defaults materialized, seeds included), the results,
and a UTC timestamp. Everything outside the timestamp is a pure
function of config plus referenced inputs, so rerunning a config
reproduces the ``results`` block byte for byte; the test suite holds
the tool to that. Dataset-backed runs embed the dataset's summary
statistics and the SHA-256 of the file, not the data itself.

Reports, model files and configs are RFC 8259 JSON, which has no NaN
or Infinity: a non-finite number is refused on the way in and on the
way out; that covers literals outside the double range, such as
``1e400``, which Python's json would read as inf.

A report with one row per part or per decision (``results.parts`` of
predict, ``results.decisions`` of conformity) holds its rows as a
:class:`RowBlock` of columns. :func:`write_report` renders them
:data:`ROWS_PER_BLOCK` at a time through one %-template per row shape,
between the text before and after them, and writes each block as it
goes. The bytes are exactly ``json.dumps(report, sort_keys=True)`` of
the same rows built as dicts: floats by ``float.__repr__``, ``true``,
``false`` and ``null``, the ``", "`` and ``": "`` separators, ASCII
only, and one newline at the end.
"""

import hashlib
import itertools
import json
import math
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from typing import Iterable, Iterator, Optional

import numpy as np

from . import __version__
from .conformity import ZONES, ConformityDecision
from .errors import ConfigError, DomainError
from .propagation import MeasurementResult, implied_coverage
from .vi import TrainResult

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "load_json",
    "dump_json",
    "file_sha256",
    "measurement_to_dict",
    "budget_to_dicts",
    "train_result_to_dict",
    "build_report",
    "RowBlock",
    "ROWS_PER_BLOCK",
    "part_rows",
    "decision_rows",
    "write_text",
    "write_report",
]

REPORT_SCHEMA_VERSION = 2


def _reject_non_finite(literal: str) -> float:
    """``parse_constant`` hook: RFC 8259 JSON has no NaN or Infinity."""
    raise ValueError(f"non-finite number {literal} is not allowed")


def _in_double_range(literal: str, kind: type = float):
    """``parse_float``/``parse_int`` hook: refuse what no double holds."""
    value = float(literal)
    if math.isinf(value):
        raise ValueError(f"number {literal:.24} is outside the double range")
    return value if kind is float else kind(literal)


def load_json(path: str) -> dict:
    """The JSON object in UTF-8 file ``path``, a config or a model file.

    An unreadable file, invalid JSON, a non-finite literal, a number
    outside the double range or a top level that is not an object is a
    ConfigError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_non_finite,
                            parse_float=_in_double_range,
                            parse_int=partial(_in_double_range, kind=int))
    except OSError as err:
        raise ConfigError(f"cannot read {path!r}: {err}") from err
    except ValueError as err:  # json.JSONDecodeError is one
        raise ConfigError(f"{path}: not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    return doc


def write_text(path: str, pieces: Iterable[str]) -> None:
    """Write ``pieces`` one after another to ``path``, as UTF-8.

    A file that cannot be written, for example in a missing directory,
    is a ConfigError naming the path.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err}") from err


def dump_json(doc: dict) -> str:
    """Compact deterministic JSON of ``doc``; non-finite numbers are errors."""
    try:
        # doc is a tree the program built: no cycle to look for
        return json.dumps(doc, sort_keys=True, allow_nan=False,
                          check_circular=False)
    except ValueError as err:
        raise DomainError(
            f"result holds a non-finite number ({err}); the model "
            "overflows or leaves its domain at these inputs") from err


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def measurement_to_dict(r: MeasurementResult) -> dict:
    out = {
        "y": r.y,
        "u": r.u,
        "k": r.k,
        "U": r.U,
        "implied_coverage": implied_coverage(r.k),
        "interval": [r.interval[0], r.interval[1]],
        "method": r.method,
    }
    if r.mc_diagnostics is not None:
        out["mc_diagnostics"] = asdict(r.mc_diagnostics)
    # a measurement the report cannot hold is refused before its budget
    dump_json(out)
    return out


def budget_to_dicts(rows: list[dict]) -> list[dict]:
    """The budget rows; one whose sensitivity or contribution is not a
    finite double is a DomainError naming the input and the quantity."""
    for row in rows:
        for key in ("sensitivity", "contribution"):
            if not math.isfinite(row[key]):
                raise DomainError(
                    f"budget row {row['name']}: its {key} is {row[key]}, "
                    "outside the double range, so the budget cannot be "
                    "reported")
    return rows


def train_result_to_dict(t: TrainResult) -> dict:
    return {
        "family": t.posterior.family,
        "n_weights": t.posterior.n_weights,
        "n_steps": t.n_steps,
        "converged": t.converged,
        "stop_reason": t.stop_reason,
        "initial_free_energy": t.initial_free_energy,
        "final_free_energy": t.final_free_energy,
    }


def build_report(mode: str, resolved_config: dict, results: dict,
                 dataset_summary: Optional[dict] = None,
                 dataset_sha256: Optional[str] = None) -> dict:
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": {"name": "uncertlab", "version": __version__},
        "mode": mode,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": resolved_config,
        "results": results,
    }
    if dataset_summary is not None:
        report["dataset_summary"] = dataset_summary
    if dataset_sha256 is not None:
        report["dataset_sha256"] = dataset_sha256
    return report


# rows rendered in one piece and written together
ROWS_PER_BLOCK = 1024

_PLACEHOLDER = "<rows>"
# a field of a row's shape, as json.dumps writes it: the column's name
_FIELD = re.compile(r'"\\u0000(\w+)"')
_JSON_BOOL = ("false", "true")
_JSON_ZONE = {zone: json.dumps(zone) for zone in ZONES}


def _field(name: str) -> str:
    """A value of a row's shape: the row's entry of column ``name``."""
    return f"\x00{name}"


_DECISION_SHAPE = {"zone": _field("zone"), "y": _field("y"),
                   "U": _field("U"), "no_reliable_zone": _field("no_zone"),
                   "resulting_tolerance": _field("tolerance")}


class RowBlock:
    """A report's list of rows, kept as columns until it is written.

    ``shape`` is one row: a dict whose values are constants,
    :func:`_field` values, and lists and dicts of them. ``numbers`` maps
    the name of each float field to its column, and the columns are
    held as one array; their entries print as ``json.dumps`` prints a
    float (``float.__repr__``). ``texts`` maps the name of each other
    field to a function of a block's (start, stop) that gives its rows'
    JSON texts. The one %-template, ``json.dumps(shape,
    sort_keys=True)`` with each field made a ``%s``, then renders every
    row as ``json.dumps`` would: sorted keys, its separators, ASCII.
    """

    def __init__(self, shape: dict, numbers: dict, texts: dict):
        template = json.dumps(shape, sort_keys=True).replace("%", "%%")
        self.names = _FIELD.findall(template)
        self.template = _FIELD.sub("%s", template)
        self.number_names = list(numbers)
        # a row per column: each column contiguous, one finite check
        self.table = np.array(list(numbers.values()), dtype=np.float64)
        self.texts = texts

    def check_finite(self) -> None:
        """dump_json's DomainError for the first number, column by
        column, that is not finite."""
        finite = np.isfinite(self.table)
        if not finite.all():
            dump_json(self.table[~finite][0].item())

    def blocks(self) -> Iterator[str]:
        """The rows' text, ``ROWS_PER_BLOCK`` rows at a time, with the
        separators between them. A column is printed once per block,
        however many fields show it."""
        for start in range(0, self.table.shape[1], ROWS_PER_BLOCK):
            stop = start + ROWS_PER_BLOCK
            columns = self.table[:, start:stop].tolist()
            texts = {name: list(map(repr, column))
                     for name, column in zip(self.number_names, columns)}
            texts.update((name, text(start, stop))
                         for name, text in self.texts.items())
            rows = zip(*[texts[name] for name in self.names])
            yield ((", " if start else "")
                   + ", ".join([self.template % row for row in rows]))


def _decision_columns(d: ConformityDecision) -> tuple[dict, dict]:
    """The number and text columns of a decision's fields. A resulting
    tolerance is printed only where 2U < usl - lsl, which keeps it
    finite."""
    zone, y, U, no_zone = np.atleast_1d(d.zone, d.y, d.U, d.no_reliable_zone)
    with np.errstate(over="ignore"):
        lower, upper = d.spec.lsl + U, d.spec.usl - U

    def tolerance(start, stop):
        return ["null" if nz else "[%r, %r]" % (lo, hi)
                for nz, lo, hi in zip(no_zone[start:stop].tolist(),
                                      lower[start:stop].tolist(),
                                      upper[start:stop].tolist())]

    return {"y": y, "U": U}, {
        "zone": lambda start, stop: [_JSON_ZONE[z] for z in
                                     zone[start:stop].tolist()],
        "no_zone": lambda start, stop: [_JSON_BOOL[nz] for nz in
                                        no_zone[start:stop].tolist()],
        "tolerance": tolerance}


def decision_rows(d: ConformityDecision) -> RowBlock:
    """The conformity report's rows: one per decision of ``d``."""
    return RowBlock(_DECISION_SHAPE, *_decision_columns(d))


def part_rows(x: np.ndarray, vm: MeasurementResult,
              decisions: Optional[ConformityDecision] = None) -> RowBlock:
    """The predict report's rows: one per part, ``x`` its features and
    ``vm`` its virtual measurement, with ``decisions`` its conformity."""
    shape = {"x": [_field(f"x{j}") for j in range(x.shape[1])],
             "y_hat": _field("y"), "sigma_hat": _field("u"),
             "aleatoric_var": _field("aleatoric"),
             "epistemic_var": _field("epistemic"),
             "k": vm.k, "interval": [_field("lower"), _field("upper")]}
    numbers = {f"x{j}": x[:, j] for j in range(x.shape[1])}
    numbers.update(y=vm.y, u=vm.u, aleatoric=vm.aleatoric_var,
                   epistemic=vm.epistemic_var, lower=vm.interval[0],
                   upper=vm.interval[1])
    texts = {}
    if decisions is not None:
        shape["conformity"] = _DECISION_SHAPE
        # the decisions' y and U are the parts' y and k * u
        decision_numbers, texts = _decision_columns(decisions)
        numbers.update(decision_numbers)
    return RowBlock(shape, numbers, texts)


def write_report(report: dict, path: Optional[str]) -> None:
    """Write ``report`` as deterministic JSON and a newline to ``path``,
    or to stdout when ``path`` is None.

    A report whose ``results`` hold a :class:`RowBlock` gets its rows
    written :data:`ROWS_PER_BLOCK` at a time between the text before and
    after them. Every number is checked finite before the first byte is
    written, so a refused report writes nothing.
    """
    pieces = _encode(report)
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        write_text(path, pieces)


def _encode(report: dict) -> Iterable[str]:
    """``dump_json(report)`` and a newline, in pieces: the whole text
    for a report without a row block, else its head with the first
    block of rows, the other blocks, and its tail. Raises before
    returning if a number is not finite."""
    results = report["results"]
    found = [key for key, value in results.items()
             if isinstance(value, RowBlock)]
    if not found:
        return [dump_json(report), "\n"]
    [key] = found
    rows = results[key]
    rows.check_finite()
    # a placeholder string stands in for the rows; one whose JSON text
    # the rest of the report also holds is passed over
    for n in itertools.count():
        placeholder = f"{_PLACEHOLDER}{n}"
        text = dump_json({**report,
                          "results": {**results, key: placeholder}})
        pieces = text.split(json.dumps(placeholder))
        if len(pieces) == 2:
            head, tail = pieces
            # each write costs as much as rendering a few rows
            blocks = rows.blocks()
            return itertools.chain([head + "[" + next(blocks, "")], blocks,
                                   ["]" + tail + "\n"])
