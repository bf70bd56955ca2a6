"""Config and model-file validation against jsonschema as an oracle.

``config.validate_config`` checks each document in the same walk that
fills its defaults, and ``config.load_model`` runs model files through
that walk too. Every config and model file in the corpora below must
get the verdict jsonschema's Draft 2020-12 validator gives; a rejected
one must name a path jsonschema also reports, and an accepted one must
resolve exactly as the pre-walk materializer (kept here as
``reference_resolved``) resolved a jsonschema-validated document. The
corpora include the benchmark's full-size configs, since the walk is
compiled into closures once per schema node and a document of any size
must go through the same ones.
"""

import copy
import functools
import json
import operator
import os
from dataclasses import fields

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from uncertlab import config
from uncertlab.distributions import MARGINALS
from uncertlab.errors import ConfigError

DELETE = object()


def reference_resolved(schema, value):
    """The resolved block as built after a separate jsonschema check:
    absent properties take their default, ``number`` becomes float,
    ``integer`` int, anything else is kept as written."""
    if value is None:
        return None
    kind = schema.get("type")
    if kind == "object" and "properties" in schema:
        return {key: reference_resolved(sub, value[key] if key in value
                                        else sub["default"])
                for key, sub in schema["properties"].items()
                if key in value or "default" in sub}
    if kind == "array":
        return [reference_resolved(schema["items"], v) for v in value]
    if kind == "number":
        return float(value)
    if kind == "integer":
        return int(value)
    return value


def _gaussian(name, mean, sd):
    return {"name": name, "dist": {"kind": "gaussian", "mean": mean, "sd": sd}}


# Valid documents shaped like the benchmark's configs, one name each.
BASE = {
    "propagate_taylor": ("propagate", {
        "model": {"expression": "sin(X1) + X2 ^ 2"},
        "inputs": {"quantities": [_gaussian("X1", 0.25, 0.05),
                                  _gaussian("X2", 1, 0.1)]},
        "method": "taylor2",
    }),
    "propagate_analytic": ("propagate", {
        "model": {"expression": "1.5 + 2 * X1 - X2"},
        "inputs": {"quantities": [_gaussian("X1", -1.0, 0.2),
                                  _gaussian("X2", 0.5, 0.3)],
                   "correlation": [1, 0.3, 0.3, 1.0]},
        "method": "analytic",
        "k": 2,
    }),
    "propagate_mc": ("propagate", {
        "model": {"expression": "X1 * X2 / X3"},
        "inputs": {"quantities": [
            _gaussian("X1", 2.0, 0.1),
            {"name": "X2", "dist": {"kind": "rectangular", "lower": 1,
                                    "upper": 3.5}},
            {"name": "X3", "dist": {"kind": "triangular", "lower": 0.5,
                                    "mode": 1, "upper": 2.0}},
        ]},
        "method": "monte_carlo",
        "M": 3000.0,
        "seed": 7,
        "coverage": 0.95,
        "dump_samples": "samples.csv",
    }),
    "train": ("train", {
        "dataset": {"path": "train.csv", "target": "y",
                    "features": ["x1", "x2"]},
        "model": {"mean_degree": 2, "noise_degree": 1.0, "prior_tau": 1,
                  "standardize": False},
        "vi": {"family": "full_rank", "learning_rate": 0.05,
               "schedule": "cosine", "n_mc": 4, "max_steps": 300,
               "tolerance": 0, "window": 300, "seed": 1},
        "model_out": "model.json",
        "store_trajectory": True,
    }),
    "train_fixed_noise": ("train", {
        "dataset": {"path": "train.csv", "target": "y"},
        "model": {"fixed_noise_sd": 1},
        "model_out": "model.json",
    }),
    "predict_inline": ("predict", {
        "model_path": "model.json",
        "parts": {"inline": [[0.5, 1], [1.5, -2.0]]},
        "n_samples": 500.0,
        "k": 3,
        "spec": {"lsl": -1, "usl": 4.5},
    }),
    "predict_csv": ("predict", {
        "model_path": "model.json",
        "parts": {"path": "parts.csv"},
    }),
    "conformity": ("conformity", {
        "spec": {"lsl": 10, "usl": 10.2},
        "measurements": [{"y": 10.1, "U": 0.02}, {"y": 10, "U": 0},
                         {"y": 10.25, "U": 0.02}, {"y": 9.9, "U": 1}],
    }),
    "verify_default": ("verify", {}),
    "verify": ("verify", {"seed": 3}),
}

# (keyword the mutation violates, base document, path, new value)
INVALID = [
    ("type", "propagate_mc", ("k",), "2"),
    ("type", "propagate_mc", ("k",), True),
    ("type", "propagate_mc", ("M",), 3000.5),
    ("type", "propagate_mc", ("M",), True),
    ("type", "propagate_mc", ("seed",), None),
    ("type", "propagate_mc", ("dump_samples",), 5),
    ("type", "propagate_mc", ("coverage",), "0.95"),
    ("type", "propagate_taylor", ("model",), []),
    ("type", "propagate_taylor", ("model", "expression"), 5),
    ("type", "propagate_taylor", ("inputs", "quantities"), {}),
    ("type", "propagate_taylor", ("inputs", "quantities", 1), "X2"),
    ("type", "propagate_analytic", ("inputs", "correlation", 2), "0.3"),
    ("type", "propagate_analytic", ("inputs", "correlation", 3), False),
    ("type", "train", ("model", "standardize"), 1),
    ("type", "train", ("model", "noise_degree"), 1.5),
    ("type", "train", ("dataset", "features", 1), 2),
    ("type", "train_fixed_noise", ("model", "fixed_noise_sd"), "1"),
    ("type", "train_fixed_noise", ("store_trajectory",), 0),
    ("type", "predict_inline", ("parts", "inline", 1, 0), None),
    ("type", "predict_inline", ("spec",), None),
    ("type", "predict_inline", ("spec", "usl"), True),
    ("type", "conformity", ("measurements", 3, "U"), False),
    ("type", "verify", ("seed",), 3.5),
    ("type", "verify", (), []),
    ("required", "propagate_taylor", ("method",), DELETE),
    ("required", "propagate_taylor", ("inputs", "quantities", 1, "name"),
     DELETE),
    ("required", "propagate_mc", ("inputs", "quantities", 2, "dist"), DELETE),
    ("required", "train", ("dataset", "target"), DELETE),
    ("required", "predict_csv", ("parts",), DELETE),
    ("required", "conformity", ("spec", "usl"), DELETE),
    ("required", "conformity", ("measurements", 2, "y"), DELETE),
    ("additionalProperties", "propagate_taylor", ("methods",), "taylor1"),
    ("additionalProperties", "propagate_taylor", ("model", "variables"), []),
    ("additionalProperties", "train", ("vi", "init_scale"), 0.1),
    ("additionalProperties", "train", ("model", "mean_include_bias"), True),
    ("additionalProperties", "predict_csv", ("parts", "csv"), "parts.csv"),
    ("additionalProperties", "conformity", ("measurements", 1, "u"), 0.01),
    ("additionalProperties", "verify_default", ("n_steps",), 10),
    # verify's tolerances hold only for its built-in problem size
    ("additionalProperties", "verify", ("n_records",), 100000),
    ("additionalProperties", "verify", ("n_samples",), 100),
    ("items", "propagate_analytic", ("inputs", "correlation", 0), [1]),
    ("items", "predict_inline", ("parts", "inline", 0, 1), "1"),
    ("properties", "train", ("vi", "n_mc"), 0),
    ("minItems", "propagate_taylor", ("inputs", "quantities"), []),
    ("minItems", "predict_inline", ("parts", "inline"), []),
    ("minItems", "predict_inline", ("parts", "inline", 1), []),
    ("minItems", "train", ("dataset", "features"), []),
    ("minItems", "conformity", ("measurements",), []),
    ("minLength", "propagate_mc", ("inputs", "quantities", 1, "name"), ""),
    ("minLength", "propagate_taylor", ("model", "expression"), ""),
    ("minLength", "predict_csv", ("model_path",), ""),
    ("minLength", "train", ("dataset", "features", 0), ""),
    ("minimum", "propagate_mc", ("M",), 99),
    ("minimum", "propagate_mc", ("seed",), -1),
    ("minimum", "train", ("vi", "tolerance"), -1e-12),
    ("minimum", "train", ("model", "mean_degree"), -1),
    ("minimum", "predict_inline", ("n_samples",), 1),
    ("minimum", "conformity", ("measurements", 1, "U"), -0.001),
    ("minimum", "verify", ("seed",), -1),
    ("exclusiveMinimum", "propagate_analytic", ("k",), 0),
    ("exclusiveMinimum", "propagate_mc", ("coverage",), 0.0),
    ("exclusiveMinimum", "train", ("vi", "learning_rate"), -0.5),
    ("exclusiveMinimum", "train", ("model", "prior_tau"), 0),
    ("exclusiveMinimum", "train_fixed_noise", ("model", "fixed_noise_sd"), 0),
    ("exclusiveMaximum", "propagate_mc", ("coverage",), 1),
    ("exclusiveMaximum", "propagate_mc", ("coverage",), 1.5),
    ("enum", "propagate_taylor", ("method",), "taylor3"),
    ("enum", "propagate_taylor", ("method",), None),
    ("enum", "train", ("vi", "family"), "full"),
    ("enum", "train", ("vi", "schedule"), True),
    ("oneOf", "propagate_mc", ("inputs", "quantities", 1, "dist", "kind"),
     "uniform"),
    ("oneOf", "propagate_mc", ("inputs", "quantities", 0, "dist", "mean"),
     True),
    ("oneOf", "propagate_mc", ("inputs", "quantities", 0, "dist", "upper"),
     3.0),
    ("oneOf", "propagate_mc", ("inputs", "quantities", 2, "dist", "mode"),
     DELETE),
    ("oneOf", "propagate_mc", ("inputs", "quantities", 2, "dist"), None),
    ("oneOf", "propagate_taylor", ("inputs", "quantities", 0, "dist", "kind"),
     DELETE),
]

# Keywords the real schemas only use in ways no document can reach on
# its own (every ``const`` sits in a ``oneOf`` branch, and the branches
# exclude each other), checked on small schemas of their own:
# (keyword violated or None, schema, document)
SYNTHETIC = [
    ("const", {"const": 1}, True),
    (None, {"const": 1}, 1.0),
    ("const", {"const": "gaussian"}, "Gaussian"),
    (None, {"const": "gaussian"}, "gaussian"),
    ("enum", {"enum": [0, "a"]}, False),
    ("enum", {"enum": [True]}, 1),
    (None, {"enum": [1, "a"]}, 1.0),
    ("oneOf", {"oneOf": [{"type": "number"}, {"type": "integer"}]}, 3),
    ("oneOf", {"oneOf": [{"type": "number"}, {"type": "integer"}]}, 3.0),
    (None, {"oneOf": [{"type": "number"}, {"type": "integer"}]}, 3.5),
    ("oneOf", {"oneOf": [{"type": "number"}, {"type": "integer"}]}, "3"),
    ("oneOf", {"oneOf": [
        {"type": "object", "properties": {"a": {"type": "number"}}},
        {"type": "object", "required": ["b"]}]}, {"a": 1, "b": 2}),
    (None, {"oneOf": [
        {"type": "object", "properties": {"a": {"type": "number"}}},
        {"type": "object", "required": ["b"]}]}, {"a": "1", "b": 2}),
    ("type", {"type": "integer"}, True),
    (None, {"type": "integer"}, 3.0),
    ("type", {"type": "number"}, False),
    (None, {"type": ["integer", "null"], "minimum": 2}, None),
    ("minimum", {"type": ["integer", "null"], "minimum": 2}, 1),
    (None, {"type": "array", "items": {"type": "integer"}, "minItems": 2},
     [1, 2.0]),
    ("minItems", {"type": "array", "items": {"type": "integer"},
                  "minItems": 2}, [1]),
    ("items", {"type": "array", "items": {"type": "integer"},
               "minItems": 2}, [1, 2.5]),
    ("minLength", {"type": "string", "minLength": 2}, "é"),
    (None, {"type": "object", "properties": {"a": {"minimum": 0}}},
     {"a": "not a number"}),
]


def mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *head, last = path
    target = functools.reduce(operator.getitem, head, doc)
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def reported_keywords(errors) -> set:
    """Keywords jsonschema blames; a nested error also counts against
    the ``properties`` or ``items`` keyword that led to it."""
    out = set()
    for e in errors:
        out.add(e.validator)
        for step in e.absolute_path:
            out.add("items" if isinstance(step, int) else "properties")
    return out


def check_against_jsonschema(schema, doc, resolve, keyword,
                             what="config"):
    errors = list(Draft202012Validator(schema).iter_errors(doc))
    assert (keyword is None) == (not errors)
    if keyword is None:
        expected = reference_resolved(schema, doc)
        assert json.dumps(resolve()) == json.dumps(expected)
        return
    assert keyword in reported_keywords(errors)
    with pytest.raises(ConfigError) as info:
        resolve()
    message = str(info.value)
    assert message.startswith(f"{what} invalid at $")
    path = message[len(f"{what} invalid at "):].split(": ", 1)[0]
    assert path in {e.json_path for e in errors}


@pytest.mark.parametrize("name", sorted(BASE))
def test_valid_config_resolves_as_before(name):
    mode, doc = BASE[name]
    check_against_jsonschema(config._SCHEMAS[mode], doc,
                             lambda: config.validate_config(doc, mode), None)


@pytest.mark.parametrize(
    "keyword,base,path,value", INVALID,
    ids=[f"{k}-{b}-{'.'.join(map(str, p))}" for k, b, p, _ in INVALID])
def test_invalid_config_rejected_where_jsonschema_rejects(keyword, base,
                                                          path, value):
    mode, doc = BASE[base]
    doc = mutated(doc, path, value)
    check_against_jsonschema(config._SCHEMAS[mode], doc,
                             lambda: config.validate_config(doc, mode),
                             keyword)


@pytest.mark.parametrize("keyword,schema,doc", SYNTHETIC)
def test_keyword_semantics_match_jsonschema(monkeypatch, keyword, schema,
                                            doc):
    monkeypatch.setitem(config._SCHEMAS, "synthetic", schema)
    check_against_jsonschema(
        schema, doc, lambda: config.validate_config(doc, "synthetic"),
        keyword)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="unknown run mode"):
        config.validate_config({}, "calibrate")


# TRAIN_SCHEMA as JSON text: reading its enums from uncertlab.vi's
# tuples must leave every byte as it was
TRAIN_SCHEMA_JSON = (
    '{"type": "object", "properties": {"dataset": {"type": "object", '
    '"properties": {"path": {"type": "string", "minLength": 1}, '
    '"target": {"type": "string", "minLength": 1}, '
    '"features": {"type": "array", "items": {"type": "string", '
    '"minLength": 1}, "minItems": 1, "default": null}}, '
    '"required": ["path", "target"], "additionalProperties": false}, '
    '"model": {"type": "object", '
    '"properties": {"mean_degree": {"type": "integer", "minimum": 0, '
    '"default": 2}, "noise_degree": {"type": "integer", '
    '"minimum": 0, "default": 1}, "prior_tau": {"type": "number", '
    '"exclusiveMinimum": 0, "default": 1.0}, '
    '"standardize": {"type": "boolean", "default": true}, '
    '"fixed_noise_sd": {"type": ["number", "null"], '
    '"exclusiveMinimum": 0, "default": null}}, '
    '"additionalProperties": false, "default": {}}, '
    '"vi": {"type": "object", '
    '"properties": {"family": {"enum": ["mean_field", "full_rank"], '
    '"default": "mean_field"}, "learning_rate": {"type": "number", '
    '"exclusiveMinimum": 0, "default": 0.01}, '
    '"schedule": {"enum": ["constant", "cosine"], '
    '"default": "constant"}, "n_mc": {"type": "integer", '
    '"minimum": 1, "default": 8}, "max_steps": {"type": "integer", '
    '"minimum": 1, "default": 20000}, '
    '"tolerance": {"type": "number", "minimum": 0, '
    '"default": 1e-05}, "window": {"type": "integer", "minimum": 1, '
    '"default": 500}, "seed": {"type": "integer", "minimum": 0, '
    '"default": 0}}, "additionalProperties": false, "default": {}}, '
    '"model_out": {"type": "string", "minLength": 1}, '
    '"store_trajectory": {"type": "boolean", "default": false}}, '
    '"required": ["dataset", "model_out"], '
    '"additionalProperties": false}'
)


def test_train_schema_serialises_as_before():
    assert json.dumps(config.TRAIN_SCHEMA) == TRAIN_SCHEMA_JSON


def _one_input(kind, params):
    return {"model": {"expression": "X1"}, "method": "taylor1",
            "inputs": {"quantities": [
                {"name": "X1", "dist": {"kind": kind, **params}}]}}


@pytest.mark.parametrize("kind", sorted(MARGINALS))
def test_schema_and_constructor_agree_on_each_marginal(kind):
    # a kind's keys are its class's fields; the values 1, 2, 3, ... in
    # field order are valid parameters of every kind
    cls = MARGINALS[kind]
    params = {f.name: float(i) for i, f in enumerate(fields(cls), 1)}
    run = config.resolve_propagate(_one_input(kind, params))
    assert run.joint.quantities[0].marginal == cls(**params)

    foreign = {f.name for other in MARGINALS.values()
               for f in fields(other)} - set(params)
    assert foreign
    broken = [{k: v for k, v in params.items() if k != drop}
              for drop in params]
    broken += [{**params, name: 1.0} for name in sorted(foreign)]
    for doc in broken:
        with pytest.raises(ConfigError) as info:
            config.resolve_propagate(_one_input(kind, doc))
        assert str(info.value).startswith(
            "config invalid at $.inputs.quantities[0].dist: ")


# Valid model files as save_model writes them, and one written before
# the bias term and the noise floor became constants.
_SUMMARY = {
    "n_records": 3,
    "features": [{"name": "x1", "mean": 0.25, "sd": 0.5, "min": -0.3,
                  "max": 0.7}],
    "target": {"name": "y", "mean": 1.5, "sd": 1.0, "min": 0.4, "max": 2.3},
}


def _model_file(model, posterior, dataset_sha256=None):
    return {
        "schema_version": 1,
        "model": {"feature_names": ["x1"], "x_mean": [0.25], "x_sd": [0.5],
                  "prior_tau": 1.0, "standardize": True, **model},
        "posterior": posterior,
        "training": {
            "config": {"family": posterior["family"], "learning_rate": 0.01,
                       "schedule": "constant", "n_mc": 8, "max_steps": 10,
                       "tolerance": 0.0, "window": 10, "seed": 0},
            "family": posterior["family"],
            "n_weights": len(posterior["mu"]), "n_steps": 10,
            "converged": False, "stop_reason": "max_steps",
            "initial_free_energy": 9.5, "final_free_energy": 4.25},
        "dataset_summary": _SUMMARY,
        "dataset_sha256": dataset_sha256,
    }


with open(os.path.join(os.path.dirname(__file__), "data",
                       "legacy_model.json")) as _fh:
    _LEGACY = json.load(_fh)

MODEL_BASE = {
    "mean_field": _model_file(
        {"mean_degree": 1, "noise_degree": 0, "fixed_noise_sd": None},
        {"family": "mean_field", "mu": [0.7, 2.0, -2.3],
         "scale": [0.05, 0.06, 0.1]},
        dataset_sha256="ab" * 32),
    "full_rank": _model_file(
        {"mean_degree": 1, "noise_degree": 0, "fixed_noise_sd": None},
        {"family": "full_rank", "mu": [0.7, 2.0, -2.3],
         "scale": [0.05, 0.0, 0.0, 0.01, 0.06, 0.0, -0.02, 0.03, 0.1]}),
    "fixed_noise": _model_file(
        {"mean_degree": 2, "noise_degree": 1, "fixed_noise_sd": 0.1},
        {"family": "mean_field", "mu": [0.7, 2.0, 0.5],
         "scale": [0.05, 0.06, 0.07]}),
    "legacy": _LEGACY,
}

# (keyword the mutation violates, base file, path, new value)
MODEL_INVALID = [
    ("type", "mean_field", ("model", "x_mean", 0), "0.25"),
    ("type", "mean_field", ("model", "x_sd", 0), True),
    ("type", "mean_field", ("posterior", "mu", 0), "0.7"),
    ("type", "mean_field", ("dataset_summary",), "hello"),
    ("type", "mean_field", ("training",), []),
    ("type", "mean_field", ("dataset_sha256",), 5),
    ("type", "mean_field", ("model",), []),
    ("type", "full_rank", ("posterior", "scale", 1), None),
    ("type", "fixed_noise", ("model", "fixed_noise_sd"), "0.1"),
    ("type", "legacy", ("model", "n_weights"), 9.5),
    ("const", "mean_field", ("schema_version",), True),
    ("const", "mean_field", ("schema_version",), 2),
    ("const", "legacy", ("model", "mean_include_bias"), False),
    ("const", "legacy", ("model", "noise_floor"), 1e-3),
    ("additionalProperties", "mean_field", ("model", "n_features"), 1),
    ("additionalProperties", "mean_field", ("model_path",), "m.json"),
    ("additionalProperties", "full_rank", ("posterior", "n_weights"), 3),
    ("required", "mean_field", ("schema_version",), DELETE),
    ("required", "mean_field", ("posterior",), DELETE),
    ("required", "mean_field", ("model", "x_sd"), DELETE),
    ("required", "fixed_noise", ("model", "fixed_noise_sd"), DELETE),
    ("required", "full_rank", ("posterior", "family"), DELETE),
    ("enum", "full_rank", ("posterior", "family"), "full"),
    ("items", "mean_field", ("model", "feature_names", 0), 1),
    ("minItems", "mean_field", ("model", "feature_names"), []),
    ("properties", "legacy", ("model", "mean_degree"), 2.5),
    ("minimum", "mean_field", ("model", "noise_degree"), -1),
    ("exclusiveMinimum", "mean_field", ("model", "prior_tau"), 0),
    ("exclusiveMinimum", "fixed_noise", ("model", "fixed_noise_sd"), -0.1),
]


def check_model_file(tmp_path, doc, keyword):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    check_against_jsonschema(config.MODEL_SCHEMA, doc,
                             lambda: config.load_model(str(path))[2],
                             keyword, what=f"{path}: model file")


@pytest.mark.parametrize("name", sorted(MODEL_BASE))
def test_valid_model_file_loads(tmp_path, name):
    check_model_file(tmp_path, MODEL_BASE[name], None)


@pytest.mark.parametrize(
    "keyword,base,path,value", MODEL_INVALID,
    ids=[f"{k}-{b}-{'.'.join(map(str, p))}" for k, b, p, _ in MODEL_INVALID])
def test_invalid_model_file_rejected_where_jsonschema_rejects(
        tmp_path, keyword, base, path, value):
    check_model_file(tmp_path, mutated(MODEL_BASE[base], path, value),
                     keyword)


def _schema_keywords(schema):
    for key, value in schema.items():
        yield key, value
        if key == "properties":
            for sub in value.values():
                yield from _schema_keywords(sub)
        elif key == "items":
            yield from _schema_keywords(value)
        elif key == "oneOf":
            for sub in value:
                yield from _schema_keywords(sub)


def test_every_schema_keyword_is_enforced():
    """A keyword added to a schema must come with a corpus case that
    violates it, so no schema edit goes unchecked by the walk."""
    used = [pair for schema in config._SCHEMAS.values()
            for pair in _schema_keywords(schema)]
    checked = {k for k, *_ in INVALID} | {k for k, *_ in SYNTHETIC if k}
    # ``default`` is an annotation: the walk fills it in, and the valid
    # corpus compares the filled block with reference_resolved
    unchecked = {k for k, _ in used} - checked - {"default"}
    assert not unchecked
    # the walk enforces additionalProperties only in its ``false`` form
    assert all(v is False for k, v in used if k == "additionalProperties")


def test_every_model_schema_keyword_is_enforced():
    used = list(_schema_keywords(config.MODEL_SCHEMA))
    unchecked = {k for k, _ in used} - {k for k, *_ in MODEL_INVALID} \
        - {"default"}
    assert not unchecked
    assert all(v is False for k, v in used if k == "additionalProperties")


@pytest.fixture(scope="module")
def bench_configs(tmp_path_factory):
    """(workload, subcommand, document) of every config the benchmark
    writes, at full size: 1,000 conformity measurements, 24 correlated
    analytic inputs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                        os.pardir, "bench"))
        import workloads
        out = []
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, 1,
                                      str(tmp_path_factory.mktemp(workload))):
                if "--config" in op.argv:
                    path = op.argv[op.argv.index("--config") + 1]
                    with open(path) as fh:
                        out.append((workload, op.argv[0], json.load(fh)))
    return out


def test_benchmark_configs_resolve_as_before(bench_configs):
    seen = {}
    for workload, mode, doc in bench_configs:
        check_against_jsonschema(config._SCHEMAS[mode], doc,
                                 lambda: config.validate_config(doc, mode),
                                 None)
        seen.setdefault(workload, set()).add(mode)
    assert all(modes == {"propagate", "train", "predict", "conformity"}
               for modes in seen.values()) and len(seen) == 3
    sizes = {(mode, len(doc.get("measurements", ())),
              len(doc.get("inputs", {}).get("correlation", ())))
             for _, mode, doc in bench_configs}
    assert ("conformity", 1000, 0) in sizes and ("propagate", 0, 576) in sizes


def test_bad_entry_deep_in_a_full_size_config_names_its_path(bench_configs):
    doc = next(copy.deepcopy(doc) for _, mode, doc in bench_configs
               if mode == "conformity")
    assert len(doc["measurements"]) == 1000
    doc["measurements"][737]["U"] = -0.5
    check_against_jsonschema(config.CONFORMITY_SCHEMA, doc,
                             lambda: config.validate_config(doc,
                                                            "conformity"),
                             "minimum")
    with pytest.raises(ConfigError) as info:
        config.validate_config(doc, "conformity")
    assert str(info.value) == ("config invalid at $.measurements[737].U: "
                               "-0.5 is less than the minimum of 0")


_NULLABLE = {"type": ["number", "null"], "minimum": 0}


# (schema, value, resolved value or the error after "$: "); numpy
# scalars are numbers, an np.int64 is no integer (it is no int), a bool
# is neither, and only a value typed number or integer is cast
@pytest.mark.parametrize("schema,value,expected", [
    ({"type": "number"}, np.float64(1.5), 1.5),
    ({"type": "number"}, np.int64(3), 3.0),
    ({"type": "number"}, True, "True is not of type 'number'"),
    ({"type": "number"}, 2.0, 2.0),
    ({"type": "number"}, 2, 2.0),
    ({"type": "integer", "minimum": 0}, np.float64(2.0), 2),
    ({"type": "integer", "minimum": 0}, np.float64(-1.0),
     "np.float64(-1.0) is less than the minimum of 0"),
    ({"type": "integer", "minimum": 0}, np.float64(1.5),
     "np.float64(1.5) is not of type 'integer'"),
    ({"type": "integer", "minimum": 0}, np.int64(3),
     "np.int64(3) is not of type 'integer'"),
    ({"type": "integer", "minimum": 0}, True,
     "True is not of type 'integer'"),
    ({"type": "integer", "minimum": 0}, 2.0, 2),
    (_NULLABLE, np.float64(1.5), np.float64(1.5)),
    (_NULLABLE, np.int64(3), np.int64(3)),
    (_NULLABLE, np.float64(-1.0),
     "np.float64(-1.0) is less than the minimum of 0"),
    (_NULLABLE, True, "True is not of type ['number', 'null']"),
    (_NULLABLE, 2, 2),
], ids=repr)
def test_numpy_scalars_bools_and_integral_floats(monkeypatch, schema, value,
                                                 expected):
    monkeypatch.setitem(config._SCHEMAS, "synthetic", schema)
    errors = list(Draft202012Validator(schema).iter_errors(value))
    if isinstance(expected, str):
        assert errors
        with pytest.raises(ConfigError) as info:
            config.validate_config(value, "synthetic")
        assert str(info.value) == f"config invalid at $: {expected}"
    else:
        assert not errors
        resolved = config.validate_config(value, "synthetic")
        assert type(resolved) is type(expected) and resolved == expected


def _schema_nodes(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schema_nodes(sub)
    if "items" in schema:
        yield from _schema_nodes(schema["items"])
    for sub in schema.get("oneOf", ()):
        yield from _schema_nodes(sub)


def test_each_schema_node_is_compiled_once(monkeypatch, tmp_path):
    monkeypatch.setattr(config, "_COMPILED", {})
    built = []
    build = config._build
    monkeypatch.setattr(config, "_build", lambda schema: (
        built.append(id(schema)) or build(schema)))
    model_file = tmp_path / "m.json"
    model_file.write_text(json.dumps(MODEL_BASE["mean_field"]))
    for _ in range(3):
        for mode, doc in BASE.values():
            config.validate_config(doc, mode)
        config.load_model(str(model_file))
    roots = [*config._SCHEMAS.values(), config.MODEL_SCHEMA]
    nodes = {id(node) for root in roots for node in _schema_nodes(root)}
    assert len(built) == len(set(built)) == len(nodes)
    assert set(built) == nodes == set(config._COMPILED)
