"""Run configuration: JSON schemas, validation, and object assembly.

Every CLI run starts from a JSON config document. The document is
schema-validated before any computation touches it, unknown keys are
rejected (a typo must not silently fall back to a default), and every
defaulted parameter is materialized into the resolved config that the
report echoes, so a report never hides an implicit choice.

Relative file paths inside a config resolve against the config file's
own directory, which keeps config+data bundles relocatable.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Any, Optional

import jsonschema
import numpy as np

from .distributions import (Gaussian, InputQuantity, JointInputModel,
                            Rectangular, Triangular, normal_cdf,
                            normal_quantile)
from .errors import ConfigError, ParseError
from .expr import MeasurementModelExpr, parse_model
from .vi import VIConfig

__all__ = [
    "load_json",
    "reject_non_finite",
    "validate_config",
    "PropagateRun",
    "TrainRun",
    "PredictRun",
    "ConformityRun",
    "VerifyRun",
    "resolve_propagate",
    "resolve_train",
    "resolve_predict",
    "resolve_conformity",
    "resolve_verify",
]

_DIST_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": "gaussian"},
                "mean": {"type": "number"},
                "sd": {"type": "number"},
            },
            "required": ["kind", "mean", "sd"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "rectangular"},
                "lower": {"type": "number"},
                "upper": {"type": "number"},
            },
            "required": ["kind", "lower", "upper"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "triangular"},
                "lower": {"type": "number"},
                "mode": {"type": "number"},
                "upper": {"type": "number"},
            },
            "required": ["kind", "lower", "mode", "upper"],
            "additionalProperties": False,
        },
    ]
}

_QUANTITY_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "dist": _DIST_SCHEMA,
    },
    "required": ["name", "dist"],
    "additionalProperties": False,
}

PROPAGATE_SCHEMA = {
    "type": "object",
    "properties": {
        "model": {
            "type": "object",
            "properties": {"expression": {"type": "string", "minLength": 1}},
            "required": ["expression"],
            "additionalProperties": False,
        },
        "inputs": {
            "type": "object",
            "properties": {
                "quantities": {
                    "type": "array",
                    "items": _QUANTITY_SCHEMA,
                    "minItems": 1,
                },
                "correlation": {
                    "type": "array",
                    "items": {"type": "number"},
                },
            },
            "required": ["quantities"],
            "additionalProperties": False,
        },
        "method": {
            "enum": ["analytic", "taylor1", "taylor2", "monte_carlo"]},
        "M": {"type": "integer", "minimum": 100},
        "seed": {"type": "integer", "minimum": 0},
        "k": {"type": "number", "exclusiveMinimum": 0},
        "coverage": {
            "type": ["number", "null"],
            "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "dump_samples": {"type": ["string", "null"]},
    },
    "required": ["model", "inputs", "method"],
    "additionalProperties": False,
}

TRAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "dataset": {
            "type": "object",
            "properties": {
                "path": {"type": "string", "minLength": 1},
                "target": {"type": "string", "minLength": 1},
                "features": {
                    "type": "array",
                    "items": {"type": "string", "minLength": 1},
                    "minItems": 1,
                },
            },
            "required": ["path", "target"],
            "additionalProperties": False,
        },
        "model": {
            "type": "object",
            "properties": {
                "mean_degree": {"type": "integer", "minimum": 0},
                "noise_degree": {"type": "integer", "minimum": 0},
                "mean_include_bias": {"type": "boolean"},
                "prior_tau": {"type": "number", "exclusiveMinimum": 0},
                "standardize": {"type": "boolean"},
                "fixed_noise_sd": {
                    "type": ["number", "null"], "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "vi": {
            "type": "object",
            "properties": {
                "family": {"enum": ["mean_field", "full_rank"]},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "schedule": {"enum": ["constant", "cosine"]},
                "n_mc": {"type": "integer", "minimum": 1},
                "max_steps": {"type": "integer", "minimum": 1},
                "tolerance": {"type": "number", "minimum": 0},
                "window": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "init_scale": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "model_out": {"type": "string", "minLength": 1},
        "store_trajectory": {"type": "boolean"},
    },
    "required": ["dataset", "model_out"],
    "additionalProperties": False,
}

PREDICT_SCHEMA = {
    "type": "object",
    "properties": {
        "model_path": {"type": "string", "minLength": 1},
        "parts": {
            "type": "object",
            "properties": {
                "path": {"type": "string", "minLength": 1},
                "inline": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 1,
                    },
                    "minItems": 1,
                },
            },
            "additionalProperties": False,
        },
        "n_samples": {"type": "integer", "minimum": 2},
        "k": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "spec": {
            "type": "object",
            "properties": {
                "lsl": {"type": "number"},
                "usl": {"type": "number"},
            },
            "required": ["lsl", "usl"],
            "additionalProperties": False,
        },
    },
    "required": ["model_path", "parts"],
    "additionalProperties": False,
}

CONFORMITY_SCHEMA = {
    "type": "object",
    "properties": {
        "spec": {
            "type": "object",
            "properties": {
                "lsl": {"type": "number"},
                "usl": {"type": "number"},
            },
            "required": ["lsl", "usl"],
            "additionalProperties": False,
        },
        "measurements": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "y": {"type": "number"},
                    "U": {"type": "number", "minimum": 0},
                },
                "required": ["y", "U"],
                "additionalProperties": False,
            },
            "minItems": 1,
        },
    },
    "required": ["spec", "measurements"],
    "additionalProperties": False,
}

VERIFY_SCHEMA = {
    "type": "object",
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "n_records": {"type": "integer", "minimum": 10},
        "n_samples": {"type": "integer", "minimum": 100},
    },
    "additionalProperties": False,
}

_SCHEMAS = {
    "propagate": PROPAGATE_SCHEMA,
    "train": TRAIN_SCHEMA,
    "predict": PREDICT_SCHEMA,
    "conformity": CONFORMITY_SCHEMA,
    "verify": VERIFY_SCHEMA,
}


def reject_non_finite(literal: str) -> float:
    """``parse_constant`` hook: RFC 8259 JSON has no NaN or Infinity."""
    raise ValueError(f"non-finite number {literal} is not allowed")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=reject_non_finite)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    except ValueError as err:  # json.JSONDecodeError is one
        raise ConfigError(f"{path}: not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def validate_config(doc: dict, mode: str) -> None:
    """Schema-check a config document for one run mode."""
    try:
        schema = _SCHEMAS[mode]
    except KeyError:
        raise ConfigError(f"unknown run mode {mode!r}") from None
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise ConfigError(f"config invalid at {e.json_path}: {e.message}")


def _marginal_from_dict(d: dict) -> Any:
    kind = d["kind"]
    if kind == "gaussian":
        return Gaussian(d["mean"], d["sd"])
    if kind == "rectangular":
        return Rectangular(d["lower"], d["upper"])
    return Triangular(d["lower"], d["mode"], d["upper"])


def _resolve_path(base_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise ConfigError(f"{what} file does not exist: {path}")
    return path


@dataclass(frozen=True)
class PropagateRun:
    expr: MeasurementModelExpr
    joint: JointInputModel
    method: str
    M: int
    seed: int
    k: float
    coverage: Optional[float]
    dump_samples: Optional[str]
    resolved: dict = field(repr=False)


def resolve_propagate(doc: dict, base_dir: str = ".") -> PropagateRun:
    validate_config(doc, "propagate")
    text = doc["model"]["expression"]
    quantities = [
        InputQuantity(q["name"], _marginal_from_dict(q["dist"]))
        for q in doc["inputs"]["quantities"]
    ]
    names = [q.name for q in quantities]
    try:
        expr = parse_model(text, declared=names)
    except ParseError as err:
        raise ConfigError(f"model.expression: {err}") from err
    unknown = [v for v in expr.variables if v not in names]
    if unknown:
        raise ConfigError(
            f"model references input(s) without a distribution: "
            f"{', '.join(unknown)}")
    correlation = None
    if "correlation" in doc["inputs"]:
        flat = doc["inputs"]["correlation"]
        n = len(quantities)
        if len(flat) != n * n:
            raise ConfigError(
                f"inputs.correlation must hold {n * n} row-major entries "
                f"for {n} inputs, got {len(flat)}")
        correlation = np.asarray(flat, dtype=np.float64).reshape(n, n)
    joint = JointInputModel(quantities, correlation)

    method = doc["method"]
    m_count = int(doc.get("M", 200_000))
    seed = int(doc.get("seed", 0))
    # k and coverage are two views of one choice: an explicit coverage
    # wins and fixes k; otherwise the (possibly default) k implies the
    # Gaussian two-sided coverage. Reports echo both resolved values.
    k = float(doc.get("k", 2.0))
    coverage = doc.get("coverage", None)
    if coverage is not None:
        coverage = float(coverage)
        k = float(normal_quantile(0.5 * (1.0 + coverage)))
    else:
        coverage = 2.0 * float(normal_cdf(k)) - 1.0
    dump = doc.get("dump_samples", None)
    if dump is not None:
        dump = _resolve_path(base_dir, dump)

    resolved = {
        "model": {"expression": text},
        "inputs": doc["inputs"],
        "method": method,
        "M": m_count,
        "seed": seed,
        "k": k,
        "coverage": coverage,
        "dump_samples": dump,
    }
    return PropagateRun(expr, joint, method, m_count, seed, k, coverage,
                        dump, resolved)


@dataclass(frozen=True)
class TrainRun:
    dataset_path: str
    target: str
    features: Optional[list[str]]
    model_kwargs: dict
    vi_config: VIConfig
    model_out: str
    store_trajectory: bool
    resolved: dict = field(repr=False)


def resolve_train(doc: dict, base_dir: str = ".") -> TrainRun:
    validate_config(doc, "train")
    ds = doc["dataset"]
    path = _require_file(_resolve_path(base_dir, ds["path"]), "dataset")
    features = list(ds["features"]) if "features" in ds else None

    model_doc = doc.get("model", {})
    model_kwargs = {
        "mean_degree": int(model_doc.get("mean_degree", 2)),
        "noise_degree": int(model_doc.get("noise_degree", 1)),
        "mean_include_bias": bool(model_doc.get("mean_include_bias", True)),
        "prior_tau": float(model_doc.get("prior_tau", 1.0)),
        "standardize": bool(model_doc.get("standardize", True)),
        "fixed_noise_sd": model_doc.get("fixed_noise_sd", None),
    }
    vi_doc = doc.get("vi", {})
    vi_config = VIConfig(
        family=vi_doc.get("family", "mean_field"),
        learning_rate=float(vi_doc.get("learning_rate", 1e-2)),
        schedule=vi_doc.get("schedule", "constant"),
        n_mc=int(vi_doc.get("n_mc", 8)),
        max_steps=int(vi_doc.get("max_steps", 20000)),
        tolerance=float(vi_doc.get("tolerance", 1e-5)),
        window=int(vi_doc.get("window", 500)),
        seed=int(vi_doc.get("seed", 0)),
        init_scale=float(vi_doc.get("init_scale", 0.1)),
    )
    model_out = _resolve_path(base_dir, doc["model_out"])
    store_trajectory = bool(doc.get("store_trajectory", False))

    resolved = {
        "dataset": {"path": path, "target": ds["target"],
                    "features": features},
        "model": model_kwargs,
        "vi": {
            "family": vi_config.family,
            "learning_rate": vi_config.learning_rate,
            "schedule": vi_config.schedule,
            "n_mc": vi_config.n_mc,
            "max_steps": vi_config.max_steps,
            "tolerance": vi_config.tolerance,
            "window": vi_config.window,
            "seed": vi_config.seed,
            "init_scale": vi_config.init_scale,
        },
        "model_out": model_out,
        "store_trajectory": store_trajectory,
    }
    return TrainRun(path, ds["target"], features, model_kwargs, vi_config,
                    model_out, store_trajectory, resolved)


@dataclass(frozen=True)
class PredictRun:
    model_path: str
    parts_path: Optional[str]
    parts_inline: Optional[np.ndarray]
    n_samples: int
    k: float
    seed: int
    spec: Optional[tuple[float, float]]
    resolved: dict = field(repr=False)


def resolve_predict(doc: dict, base_dir: str = ".") -> PredictRun:
    validate_config(doc, "predict")
    model_path = _require_file(_resolve_path(base_dir, doc["model_path"]),
                               "model")
    parts = doc["parts"]
    has_path = "path" in parts
    has_inline = "inline" in parts
    if has_path == has_inline:
        raise ConfigError(
            "parts must carry exactly one of 'path' (CSV) or 'inline' (rows)")
    parts_path = None
    parts_inline = None
    if has_path:
        parts_path = _require_file(_resolve_path(base_dir, parts["path"]),
                                   "parts")
    else:
        rows = parts["inline"]
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ConfigError("inline parts rows differ in length")
        parts_inline = np.asarray(rows, dtype=np.float64)

    n_samples = int(doc.get("n_samples", 2000))
    k = float(doc.get("k", 2.0))
    seed = int(doc.get("seed", 0))
    spec = None
    if "spec" in doc:
        spec = (float(doc["spec"]["lsl"]), float(doc["spec"]["usl"]))

    resolved = {
        "model_path": model_path,
        "parts": {"path": parts_path} if has_path
        else {"inline": [list(map(float, r)) for r in parts["inline"]]},
        "n_samples": n_samples,
        "k": k,
        "seed": seed,
        "spec": {"lsl": spec[0], "usl": spec[1]} if spec else None,
    }
    return PredictRun(model_path, parts_path, parts_inline, n_samples, k,
                      seed, spec, resolved)


@dataclass(frozen=True)
class ConformityRun:
    lsl: float
    usl: float
    measurements: list[tuple[float, float]]
    resolved: dict = field(repr=False)


def resolve_conformity(
    doc: dict,
    lsl_override: Optional[float] = None,
    usl_override: Optional[float] = None,
) -> ConformityRun:
    validate_config(doc, "conformity")
    lsl = lsl_override if lsl_override is not None else float(doc["spec"]["lsl"])
    usl = usl_override if usl_override is not None else float(doc["spec"]["usl"])
    measurements = [(float(m["y"]), float(m["U"]))
                    for m in doc["measurements"]]
    resolved = {
        "spec": {"lsl": lsl, "usl": usl},
        "measurements": [{"y": y, "U": u} for y, u in measurements],
    }
    return ConformityRun(lsl, usl, measurements, resolved)


@dataclass(frozen=True)
class VerifyRun:
    seed: int
    n_records: int
    n_samples: int
    resolved: dict = field(repr=False)


def resolve_verify(doc: Optional[dict]) -> VerifyRun:
    doc = doc or {}
    validate_config(doc, "verify")
    seed = int(doc.get("seed", 0))
    n_records = int(doc.get("n_records", 200))
    n_samples = int(doc.get("n_samples", 100_000))
    resolved = {"seed": seed, "n_records": n_records, "n_samples": n_samples}
    return VerifyRun(seed, n_records, n_samples, resolved)
