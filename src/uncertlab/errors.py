"""Exception hierarchy and the setting checks, package-wide."""

import numbers


class UncertLabError(Exception):
    """Base class for all errors raised by uncertlab."""


class ParseError(UncertLabError):
    """Malformed model expression. Carries the 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class EvaluationError(UncertLabError):
    """Expression evaluation failed, e.g. a variable has no value."""


class DomainError(EvaluationError):
    """Evaluation or differentiation hit a point outside a function's domain."""


class ConfigError(UncertLabError):
    """Invalid run configuration or input model description."""


class DatasetError(UncertLabError):
    """Malformed dataset file. Message names row and column where possible."""


class MonteCarloError(UncertLabError):
    """Monte Carlo propagation failed, e.g. too many domain errors."""


class DivergenceError(UncertLabError):
    """Variational training diverged. Carries the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


def require_positive(name: str, value: float) -> None:
    """Refuse a setting that is not finite and > 0, NaN included."""
    if not 0.0 < value < float("inf"):
        raise ConfigError(f"{name} must be > 0 and finite, got {value}")


def require_integer(name: str, value, low: int) -> None:
    """Refuse a setting that is not an integer >= ``low``: bools and
    floats are refused, numpy integers accepted."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < low):
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
