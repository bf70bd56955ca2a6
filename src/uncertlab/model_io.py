"""Persistence of trained virtual-measurement models.

A trained model is a JSON document carrying everything needed to
reproduce its predictions and audit its training: model structure
(feature names, basis degrees, standardization constants, prior,
noise mode), the variational posterior (family, mean, scale factor),
the training configuration and outcome, and the summary statistics of
the dataset it was fit on. Loading rebuilds the exact in-memory
objects; a train-then-predict round trip through disk is
bit-reproducible.
"""

from dataclasses import asdict, fields
from typing import Optional

import numpy as np

from .dataset import DatasetSummary
from .errors import ConfigError
from .regression import BayesianVMModel
from .report import dump_json, load_json, write_text
from .vi import TrainResult, VariationalPosterior, VIConfig

__all__ = ["MODEL_SCHEMA_VERSION", "save_model", "load_model"]

MODEL_SCHEMA_VERSION = 1


def _model_to_dict(model: BayesianVMModel) -> dict:
    doc = {key: value.tolist() if isinstance(value, np.ndarray) else value
           for key, value in asdict(model).items()}
    doc["n_weights"] = model.n_weights
    return doc


def _model_from_dict(d: dict) -> BayesianVMModel:
    kwargs = {f.name: d[f.name] for f in fields(BayesianVMModel)}
    kwargs["feature_names"] = tuple(kwargs["feature_names"])
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
        p = len(mu)
        scale = scale.reshape(p, p)
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
        "training": {
            "config": asdict(train_config),
            "n_steps": train.n_steps,
            "converged": train.converged,
            "stop_reason": train.stop_reason,
            "initial_free_energy": train.initial_free_energy,
            "final_free_energy": train.final_free_energy,
        },
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
        # n_weights builds the exponent tables, so a non-integer degree
        # surfaces here
        if posterior.n_weights != model.n_weights:
            raise ConfigError(
                f"posterior has {posterior.n_weights} weights but the "
                f"model defines {model.n_weights}")
    except (KeyError, TypeError, ValueError, ConfigError) as err:
        raise ConfigError(f"{path}: malformed model document: {err}") from err
    return model, posterior, doc
