"""Persistence of trained virtual-measurement models.

A trained model is a JSON document carrying everything needed to
reproduce its predictions and audit its training: model structure
(feature names, basis degrees, standardization constants, prior,
noise mode), the variational posterior (family, mean, scale factor),
the training configuration and outcome, and the summary statistics of
the dataset it was fit on. Loading rebuilds the exact in-memory
objects; a train-then-predict round trip through disk is
bit-reproducible; files written before the bias term and the noise
floor became constants still load if they hold the constants' values.
"""

from dataclasses import asdict, fields
from typing import Optional

import numpy as np

from .dataset import DatasetSummary
from .errors import ConfigError
from .regression import NOISE_FLOOR, BayesianVMModel
from .report import dump_json, load_json, train_result_to_dict, write_text
from .vi import TrainResult, VariationalPosterior, VIConfig

__all__ = ["MODEL_SCHEMA_VERSION", "save_model", "load_model"]

MODEL_SCHEMA_VERSION = 1


# exact JSON types of the scalar model fields: true is not the number 1
_FIELD_TYPES = (
    ("mean_degree", (int,), "an integer"),
    ("noise_degree", (int,), "an integer"),
    ("prior_tau", (int, float), "a number"),
    ("standardize", (bool,), "a boolean"),
    ("fixed_noise_sd", (int, float, type(None)), "a number or null"),
)

# former settings, now constants, with the one value a file may hold
_RETIRED = {"mean_include_bias": True, "noise_floor": NOISE_FLOOR}


def _model_to_dict(model: BayesianVMModel) -> dict:
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in asdict(model).items()}


def _model_from_dict(d: dict) -> BayesianVMModel:
    kwargs = {f.name: d[f.name] for f in fields(BayesianVMModel)}
    names = kwargs["feature_names"]
    if type(names) is not list or any(type(n) is not str for n in names):
        raise ConfigError(
            f"feature_names must be a list of strings, got {names!r}")
    for name, types, what in _FIELD_TYPES:
        if type(kwargs[name]) not in types:
            raise ConfigError(f"{name} must be {what}, got {kwargs[name]!r}")
    for name, value in _RETIRED.items():
        if d.get(name, value) != value:
            raise ConfigError(f"{name} must be {value!r}, got {d[name]!r}")
    kwargs["feature_names"] = tuple(names)
    for name in ("x_mean", "x_sd"):
        kwargs[name] = np.asarray(kwargs[name], dtype=np.float64)
    return BayesianVMModel(**kwargs)


def _posterior_to_dict(q: VariationalPosterior) -> dict:
    return {
        "family": q.family,
        "mu": q.mu.tolist(),
        # row-major flat scale: the diagonal vector for mean_field, the
        # full lower-triangular matrix for full_rank
        "scale": q.scale.ravel().tolist(),
    }


def _posterior_from_dict(d: dict) -> VariationalPosterior:
    family = d["family"]
    mu = np.asarray(d["mu"], dtype=np.float64)
    scale = np.asarray(d["scale"], dtype=np.float64)
    if family == "full_rank":
        scale = scale.reshape(len(mu), len(mu))
    return VariationalPosterior(family, mu, scale)


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
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "model": _model_to_dict(model),
        "posterior": _posterior_to_dict(train.posterior),
        "training": {"config": asdict(train_config),
                     **train_result_to_dict(train)},
        "dataset_summary": dataset_summary.to_dict(),
        "dataset_sha256": dataset_sha256,
    }
    if store_trajectory:
        doc["training"]["trajectory"] = train.trajectory.tolist()
    write_text(path, [dump_json(doc)])


def load_model(path: str) -> tuple[BayesianVMModel, VariationalPosterior, dict]:
    """Read a trained model document; returns (model, posterior, document)."""
    doc = load_json(path)
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported model schema version {version!r} "
            f"(expected {MODEL_SCHEMA_VERSION})")
    try:
        model = _model_from_dict(doc["model"])
        posterior = _posterior_from_dict(doc["posterior"])
        if posterior.n_weights != model.n_weights:
            raise ConfigError(
                f"posterior has {posterior.n_weights} weights but the "
                f"model defines {model.n_weights}")
    except (KeyError, TypeError, ValueError, ConfigError) as err:
        raise ConfigError(f"{path}: malformed model document: {err}") from err
    return model, posterior, doc
