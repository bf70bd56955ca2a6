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
"""

import hashlib
import json
import math
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from typing import Iterable, Optional

from . import __version__
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
    """The JSON object in ``path``, a config or a model file.

    An unreadable file, invalid JSON, a non-finite literal, a number
    outside the double range or a top level that is not an object is a
    ConfigError naming the file.
    """
    try:
        with open(path) as fh:
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


def write_text(path: str, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to ``path``.

    A file that cannot be written, for example in a missing directory,
    is a ConfigError naming the path.
    """
    try:
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err}") from err


def dump_json(doc: dict) -> str:
    """Compact deterministic JSON of ``doc``; non-finite numbers are errors."""
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False)
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


def write_report(report: dict, path: Optional[str]) -> str:
    """Serialize deterministically; write to ``path`` when given.

    Returns the serialized text either way, so callers can also print
    it to stdout.
    """
    text = dump_json(report)
    if path is not None:
        write_text(path, [text])
    return text
