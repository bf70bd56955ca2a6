"""Uncertainty workbench for physical and virtual measurement.

Two complementary toolchains behind one API. The propagation side takes
a closed-form measurement model with distributional input quantities
and produces a standard uncertainty, an expanded interval, and a
per-input budget, by exact linear algebra where the model is affine,
by first- or second-order series expansion, or by chunked Monte Carlo
with an empirical coverage interval. The regression side learns a
virtual measurement from reference data: a heteroscedastic Bayesian
polynomial model trained with Gaussian variational inference, whose
predictions are the same ``MeasurementResult`` with method
``virtual``, their variance split into noise and model-weight parts.
Both kinds of result feed the conformity module, which turns an interval plus specification
limits into an accept / reject / undecided zone with guard bands.
"""

__version__ = "0.1.0"

from .conformity import ConformityDecision, Specification, classify
from .dataset import Dataset, DatasetSummary, ingest_dataset, ingest_parts, make_dataset
from .distributions import (Gaussian, InputQuantity, JointInputModel,
                            Rectangular, Triangular, sample)
from .errors import (ConfigError, DatasetError, DivergenceError, DomainError,
                     EvaluationError, MonteCarloError, ParseError,
                     UncertLabError)
from .expr import MeasurementModelExpr, evaluate, parse_model
from .propagation import (EmpiricalCDF, MeasurementResult, implied_coverage,
                          propagate_analytic, propagate_monte_carlo,
                          propagate_taylor1, propagate_taylor2,
                          sensitivity_budget)
from .regression import BayesianVMModel, build_model
from .vi import (TrainResult, VariationalPosterior, VIConfig,
                 conjugate_posterior, kl_gaussian, predict_parts, train_vi)

__all__ = [
    "__version__",
    "BayesianVMModel",
    "ConfigError",
    "ConformityDecision",
    "Dataset",
    "DatasetError",
    "DatasetSummary",
    "DivergenceError",
    "DomainError",
    "EmpiricalCDF",
    "EvaluationError",
    "Gaussian",
    "InputQuantity",
    "JointInputModel",
    "MeasurementModelExpr",
    "MeasurementResult",
    "MonteCarloError",
    "ParseError",
    "Rectangular",
    "Specification",
    "TrainResult",
    "Triangular",
    "UncertLabError",
    "VIConfig",
    "VariationalPosterior",
    "build_model",
    "classify",
    "conjugate_posterior",
    "evaluate",
    "implied_coverage",
    "ingest_dataset",
    "ingest_parts",
    "kl_gaussian",
    "make_dataset",
    "parse_model",
    "predict_parts",
    "propagate_analytic",
    "propagate_monte_carlo",
    "propagate_taylor1",
    "propagate_taylor2",
    "sample",
    "sensitivity_budget",
    "train_vi",
]
