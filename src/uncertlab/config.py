"""JSON documents: run configs and model files, schemas and validation.

Every CLI run starts from a JSON config document. The document is
schema-validated before any computation touches it, unknown keys are
rejected (a typo must not silently fall back to a default), and every
defaulted parameter is materialized into the resolved config that the
report echoes, so a report never hides an implicit choice.

A trained model file is checked on load by the same schema walk, so
predict runs only on a model that train could have written. Its
``model`` block repeats the resolved train config's model settings and
adds the feature names and standardization constants; its
``training.config`` repeats the ``vi`` block, but nothing reads it, so
``training`` and the dataset summary are checked only to be objects.
Loading rebuilds the exact in-memory objects; files written before the
bias term and the noise floor became constants load at their values.

Each setting's default has one home: the library dataclass field or
function parameter that the setting feeds. The schemas point at those
through the JSON Schema ``default`` annotation; only settings that
exist in the CLI alone carry a literal there. The resolved config is
the validated document with every absent default filled in and every
number cast to the type the run uses. One walk over the document does
both: it checks each JSON Schema keyword the schemas use (Draft
2020-12 semantics) in the same pass that fills the defaults, so no
validation library is loaded. Each schema node is compiled on first
use, never at import, into one closure cached by the node's identity
that holds its keywords and its children's closures, so a value costs
a closure call and the walk never reads the schema again.

Relative file paths inside a config resolve against the config file's
own directory, which keeps config+data bundles relocatable. Each
``resolve_*`` returns that resolved config (propagate adds the parsed
model and input distributions); the CLI runs from it. ``verify`` names
no file, so it runs from :func:`validate_config`'s result itself.
The CLI writes its command-line overrides into the document before
validation, so the schema checks them like any other key. An input
marginal's keys are its class's fields in ``MARGINALS``.
"""

import inspect
import numbers
import operator
import os
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Optional

import numpy as np

from .dataset import ColumnSummary, DatasetSummary
from .distributions import MARGINALS, InputQuantity, JointInputModel
from .errors import ConfigError, ParseError
from .expr import MeasurementModelExpr, parse_model
from .propagation import (propagate_monte_carlo, propagate_taylor1,
                          resolve_coverage)
from .regression import NOISE_FLOOR, BayesianVMModel
from .report import dump_json, load_json, train_result_to_dict, write_text
from .vi import (FAMILIES, SCHEDULES, TrainResult, VariationalPosterior,
                 VIConfig, predict_parts)

__all__ = [
    "MODEL_SCHEMA_VERSION",
    "validate_config",
    "save_model",
    "load_model",
    "PropagateRun",
    "resolve_propagate",
    "resolve_train",
    "resolve_predict",
]


def _default(fn, name: str) -> Any:
    """Default value of parameter ``name`` in ``fn``'s signature."""
    return inspect.signature(fn).parameters[name].default


MODEL_SCHEMA_VERSION = 1


def save_model(
    path: str,
    model: BayesianVMModel,
    train: TrainResult,
    train_config: VIConfig,
    dataset_summary: DatasetSummary,
    dataset_sha256: Optional[str] = None,
    store_trajectory: bool = False,
) -> None:
    """Write the trained model document to ``path``."""
    q = train.posterior
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "model": {key: value.tolist() if isinstance(value, np.ndarray)
                  else value for key, value in asdict(model).items()},
        # row-major flat scale: the diagonal vector for mean_field, the
        # full lower-triangular matrix for full_rank
        "posterior": {"family": q.family, "mu": q.mu.tolist(),
                      "scale": q.scale.ravel().tolist()},
        "training": {"config": asdict(train_config),
                     **train_result_to_dict(train)},
        "dataset_summary": asdict(dataset_summary),
        "dataset_sha256": dataset_sha256,
    }
    if store_trajectory:
        doc["training"]["trajectory"] = train.trajectory.tolist()
    write_text(path, [dump_json(doc), "\n"])


_DIST_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": kind},
                           **{f.name: {"type": "number"}
                              for f in fields(cls)}},
            "required": ["kind", *(f.name for f in fields(cls))],
            "additionalProperties": False,
        }
        for kind, cls in MARGINALS.items()
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

_SPEC_SCHEMA = {
    "type": "object",
    "properties": {
        "lsl": {"type": "number"},
        "usl": {"type": "number"},
    },
    "required": ["lsl", "usl"],
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
        "M": {"type": "integer", "minimum": 100,
              "default": _default(propagate_monte_carlo, "M")},
        "seed": {"type": "integer", "minimum": 0,
                 "default": _default(propagate_monte_carlo, "seed")},
        "k": {"type": "number", "exclusiveMinimum": 0,
              "default": _default(propagate_taylor1, "k")},
        "coverage": {
            "type": ["number", "null"],
            "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": None},
        "dump_samples": {"type": ["string", "null"], "default": None},
    },
    "required": ["model", "inputs", "method"],
    "additionalProperties": False,
}

# the train config's model settings; a model file repeats them resolved
_MODEL_SETTINGS = {
    "mean_degree": {"type": "integer", "minimum": 0,
                    "default": BayesianVMModel.mean_degree},
    "noise_degree": {"type": "integer", "minimum": 0,
                     "default": BayesianVMModel.noise_degree},
    "prior_tau": {"type": "number", "exclusiveMinimum": 0,
                  "default": BayesianVMModel.prior_tau},
    "standardize": {"type": "boolean",
                    "default": BayesianVMModel.standardize},
    "fixed_noise_sd": {"type": ["number", "null"], "exclusiveMinimum": 0,
                       "default": BayesianVMModel.fixed_noise_sd},
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
                    "default": None,
                },
            },
            "required": ["path", "target"],
            "additionalProperties": False,
        },
        "model": {
            "type": "object",
            "properties": _MODEL_SETTINGS,
            "additionalProperties": False,
            "default": {},
        },
        "vi": {
            "type": "object",
            "properties": {
                "family": {"enum": list(FAMILIES),
                           "default": VIConfig.family},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0,
                                  "default": VIConfig.learning_rate},
                "schedule": {"enum": list(SCHEDULES),
                             "default": VIConfig.schedule},
                "n_mc": {"type": "integer", "minimum": 1,
                         "default": VIConfig.n_mc},
                "max_steps": {"type": "integer", "minimum": 1,
                              "default": VIConfig.max_steps},
                "tolerance": {"type": "number", "minimum": 0,
                              "default": VIConfig.tolerance},
                "window": {"type": "integer", "minimum": 1,
                           "default": VIConfig.window},
                "seed": {"type": "integer", "minimum": 0,
                         "default": VIConfig.seed},
            },
            "additionalProperties": False,
            "default": {},
        },
        "model_out": {"type": "string", "minLength": 1},
        "store_trajectory": {
            "type": "boolean",
            "default": _default(save_model, "store_trajectory")},
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
        # accepted and validated, but predict draws nothing: neither
        # has an effect or a default
        "n_samples": {"type": "integer", "minimum": 2},
        "k": {"type": "number", "exclusiveMinimum": 0,
              "default": _default(predict_parts, "k")},
        "seed": {"type": "integer", "minimum": 0},
        "spec": {**_SPEC_SCHEMA, "default": None},
    },
    "required": ["model_path", "parts"],
    "additionalProperties": False,
}

CONFORMITY_SCHEMA = {
    "type": "object",
    "properties": {
        "spec": _SPEC_SCHEMA,
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
        "seed": {"type": "integer", "minimum": 0, "default": 0},
    },
    "additionalProperties": False,
}

_NUMBERS = {"type": "array", "items": {"type": "number"}}

# a ColumnSummary: the column's name, mean, sd, min and max
_COLUMN_SUMMARY = {
    "type": "object",
    "properties": {f.name: {"type": "string"} if f.name == "name"
                   else {"type": "number"} for f in fields(ColumnSummary)},
    "required": [f.name for f in fields(ColumnSummary)],
    "additionalProperties": False,
}

MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": MODEL_SCHEMA_VERSION},
        "model": {
            "type": "object",
            "properties": {
                "feature_names": {"type": "array", "minItems": 1,
                                  "items": {"type": "string"}},
                "x_mean": _NUMBERS,
                "x_sd": _NUMBERS,
                **_MODEL_SETTINGS,
                # former settings, now constants, in older files
                "mean_include_bias": {"const": True},
                "noise_floor": {"const": NOISE_FLOOR},
                "n_weights": {"type": "integer"},
            },
            "required": [f.name for f in fields(BayesianVMModel)],
            "additionalProperties": False,
        },
        "posterior": {
            "type": "object",
            "properties": {"family": {"enum": list(FAMILIES)},
                           "mu": _NUMBERS, "scale": _NUMBERS},
            "required": ["family", "mu", "scale"],
            "additionalProperties": False,
        },
        "training": {"type": "object"},
        # predict echoes it into every report
        "dataset_summary": {
            "type": "object",
            "properties": {
                "n_records": {"type": "integer", "minimum": 1},
                "features": {"type": "array", "items": _COLUMN_SUMMARY},
                "target": _COLUMN_SUMMARY,
            },
            "required": [f.name for f in fields(DatasetSummary)],
            "additionalProperties": False,
        },
        "dataset_sha256": {"type": ["string", "null"]},
    },
    "required": ["schema_version", "model", "posterior"],
    "additionalProperties": False,
}

_SCHEMAS = {
    "propagate": PROPAGATE_SCHEMA,
    "train": TRAIN_SCHEMA,
    "predict": PREDICT_SCHEMA,
    "conformity": CONFORMITY_SCHEMA,
    "verify": VERIFY_SCHEMA,
}


class _Invalid(Exception):
    """A schema violation; ``path`` collects its location, innermost
    segment first, as the walk unwinds."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: list[str] = []


# JSON Schema Draft 2020-12 types: a bool is no number, and a float with
# no fractional part is an integer
_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: (isinstance(v, numbers.Number)
                         and not isinstance(v, bool)),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _same(a: Any, b: Any) -> bool:
    """JSON equality of scalars for ``enum``/``const``: true is not 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


# node closures by schema identity; each entry keeps its schema alive,
# so no other schema can take over its id
_COMPILED: dict[int, tuple[dict, Callable[[Any], Any]]] = {}
_ABSENT = object()
_BOUNDS = (("minimum", operator.lt, "less than the minimum"),
           ("exclusiveMinimum", operator.le,
            "less than or equal to the minimum"),
           ("exclusiveMaximum", operator.ge,
            "greater than or equal to the maximum"))


def _compile(schema: dict) -> Callable[[Any], Any]:
    """``schema``'s node closure, built on first use, then cached."""
    if id(schema) not in _COMPILED:
        _COMPILED[id(schema)] = (schema, _build(schema))
    return _COMPILED[id(schema)][1]


def _build(schema: dict) -> Callable[[Any], Any]:
    """One schema node as a closure that checks a value with Draft
    2020-12 semantics, raising :class:`_Invalid` at the first violation,
    and returns it with absent properties at their ``default``, a
    ``number`` as float, an ``integer`` as int and all else (nullable
    values, ``oneOf`` subtrees, objects with no ``properties``) as is."""
    kind = schema.get("type")
    type_ok = (None if kind is None else _TYPE_CHECKS[kind]
               if isinstance(kind, str)
               else lambda v: any(_TYPE_CHECKS[k](v) for k in kind))
    limits = [(test, schema[key], text) for key, test, text in _BOUNDS
              if key in schema]

    def bounds(value):
        for test, limit, text in limits:
            if test(value, limit):
                raise _Invalid(f"{value!r} is {text} of {limit!r}")

    if kind in ("number", "integer"):
        cast = float if kind == "number" else int

        def plain(value):   # an exact float or int passes on its type
            t = type(value)
            if t is not cast and t is not int and not type_ok(value):
                raise _Invalid(f"{value!r} is not of type {kind!r}")
            if limits:
                bounds(value)
            return value if t is cast else cast(value)
    else:
        on_dict, on_list = _object(schema), _array(schema)
        min_length = schema.get("minLength", 0)

        def plain(value):
            if type_ok is not None and not type_ok(value):
                raise _Invalid(f"{value!r} is not of type {kind!r}")
            if isinstance(value, dict):
                return on_dict(value)
            if isinstance(value, list):
                return on_list(value)
            if isinstance(value, str) and len(value) < min_length:
                raise _Invalid(f"{value!r} is too short")
            if limits and _TYPE_CHECKS["number"](value):
                bounds(value)
            return value
    if not {"enum", "const", "oneOf"} & schema.keys():
        return plain
    enum, const = schema.get("enum"), schema.get("const", _ABSENT)
    branches = [_compile(sub) for sub in schema.get("oneOf", ())]

    def node(value):
        if type_ok is not None and not type_ok(value):
            raise _Invalid(f"{value!r} is not of type {kind!r}")
        if enum is not None and not any(_same(value, e) for e in enum):
            raise _Invalid(f"{value!r} is not one of {enum!r}")
        if const is not _ABSENT and not _same(value, const):
            raise _Invalid(f"{const!r} was expected")
        if branches:
            matches = 0
            for branch in branches:
                try:
                    branch(value)
                    matches += 1
                except _Invalid:
                    pass
            if matches != 1:
                raise _Invalid(f"{value!r} matches {matches} of the "
                               f"{len(branches)} oneOf schemas, not 1")
        return plain(value)

    return node


def _object(schema: dict) -> Callable[[dict], Any]:
    """A node's walk of a dict."""
    props = schema.get("properties", {})
    required = schema.get("required", ())
    closed = schema.get("additionalProperties") is False
    keep = schema.get("type") == "object" and "properties" in schema
    children = [(key, _compile(sub), sub.get("default", _ABSENT))
                for key, sub in props.items()]

    def walk(value):
        for key in required:
            if key not in value:
                raise _Invalid(f"{key!r} is a required property")
        if closed and not value.keys() <= props.keys():
            raise _Invalid("additional properties are not allowed: "
                           + ", ".join(repr(key) for key in value
                                       if key not in props))
        out = {}
        try:
            for key, child, default in children:
                if key in value:
                    out[key] = child(value[key])
                elif default is not _ABSENT:
                    out[key] = None if default is None else child(default)
        except _Invalid as err:
            err.path.append(f".{key}")
            raise
        return out if keep else value

    return walk


def _array(schema: dict) -> Callable[[list], Any]:
    """A node's walk of a list."""
    min_items = schema.get("minItems", 0)
    item = _compile(schema["items"]) if "items" in schema else None
    keep = schema.get("type") == "array"

    def walk(value):
        if len(value) < min_items:
            raise _Invalid(f"{value!r} is too short")
        if item is None:
            return value
        out = []
        try:
            for v in value:
                out.append(item(v))
        except _Invalid as err:
            err.path.append(f"[{len(out)}]")
            raise
        return out if keep else value

    return walk


def _validated(schema: dict, doc: dict, what: str) -> dict:
    """``doc`` resolved, or ``ConfigError("<what> invalid at $...")``."""
    try:
        return _compile(schema)(doc)
    except _Invalid as err:
        path = "$" + "".join(reversed(err.path))
        raise ConfigError(f"{what} invalid at {path}: {err}") from None


def validate_config(doc: dict, mode: str) -> dict:
    """Schema-check a config document for one run mode; return it resolved.

    Raises ``ConfigError("config invalid at $.a.b[3]: ...")`` at the
    first violation found.
    """
    try:
        schema = _SCHEMAS[mode]
    except KeyError:
        raise ConfigError(f"unknown run mode {mode!r}") from None
    return _validated(schema, doc, "config")


def load_model(path: str) -> tuple[BayesianVMModel, VariationalPosterior, dict]:
    """Read a trained model document; returns (model, posterior, document).

    A ``MODEL_SCHEMA`` violation is a ConfigError naming the file.
    """
    doc = _validated(MODEL_SCHEMA, load_json(path), f"{path}: model file")
    m, q = doc["model"], doc["posterior"]
    kwargs = {f.name: m[f.name] for f in fields(BayesianVMModel)}
    kwargs.update(feature_names=tuple(m["feature_names"]),
                  x_mean=np.asarray(m["x_mean"], dtype=np.float64),
                  x_sd=np.asarray(m["x_sd"], dtype=np.float64))
    mu = np.asarray(q["mu"], dtype=np.float64)
    scale = np.asarray(q["scale"], dtype=np.float64)
    try:
        model = BayesianVMModel(**kwargs)
        if q["family"] == "full_rank":
            scale = scale.reshape(len(mu), len(mu))
        posterior = VariationalPosterior(q["family"], mu, scale)
        if posterior.n_weights != model.n_weights:
            raise ConfigError(
                f"posterior has {posterior.n_weights} weights but the "
                f"model defines {model.n_weights}")
    except (ValueError, ConfigError) as err:
        raise ConfigError(f"{path}: malformed model document: {err}") from err
    return model, posterior, doc


def _resolve_path(base_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise ConfigError(f"{what} file does not exist: {path}")
    return path


@dataclass(frozen=True)
class PropagateRun:
    """The parsed model and input distributions beside the resolved config."""

    expr: MeasurementModelExpr
    joint: JointInputModel
    resolved: dict


def resolve_propagate(doc: dict, base_dir: str = ".") -> PropagateRun:
    r = validate_config(doc, "propagate")
    quantities = []
    for q in r["inputs"]["quantities"]:
        params = dict(q["dist"])
        kind = params.pop("kind")
        quantities.append(InputQuantity(q["name"], MARGINALS[kind](**params)))
    names = [q.name for q in quantities]
    try:
        expr = parse_model(r["model"]["expression"], declared=names)
    except ParseError as err:
        raise ConfigError(f"model.expression: {err}") from err
    unknown = [v for v in expr.variables if v not in names]
    if unknown:
        raise ConfigError(
            f"model references input(s) without a distribution: "
            f"{', '.join(unknown)}")
    correlation = None
    if "correlation" in r["inputs"]:
        flat = r["inputs"]["correlation"]
        n = len(quantities)
        if len(flat) != n * n:
            raise ConfigError(
                f"inputs.correlation must hold {n * n} row-major entries "
                f"for {n} inputs, got {len(flat)}")
        correlation = np.asarray(flat, dtype=np.float64).reshape(n, n)
    joint = JointInputModel(quantities, correlation)

    # reports echo both views of the coverage choice
    r["k"], r["coverage"] = resolve_coverage(r["k"], r["coverage"])
    if r["dump_samples"] is not None:
        r["dump_samples"] = _resolve_path(base_dir, r["dump_samples"])
    return PropagateRun(expr, joint, r)


def resolve_train(doc: dict, base_dir: str = ".") -> dict:
    r = validate_config(doc, "train")
    ds = r["dataset"]
    ds["path"] = _require_file(_resolve_path(base_dir, ds["path"]), "dataset")
    r["model_out"] = _resolve_path(base_dir, r["model_out"])
    return r


def resolve_predict(doc: dict, base_dir: str = ".") -> dict:
    r = validate_config(doc, "predict")
    r["model_path"] = _require_file(_resolve_path(base_dir, r["model_path"]),
                                    "model")
    parts = r["parts"]
    if ("path" in parts) == ("inline" in parts):
        raise ConfigError(
            "parts must carry exactly one of 'path' (CSV) or 'inline' (rows)")
    if "path" in parts:
        parts["path"] = _require_file(_resolve_path(base_dir, parts["path"]),
                                      "parts")
    elif len({len(row) for row in parts["inline"]}) != 1:
        raise ConfigError("inline parts rows differ in length")
    return r
