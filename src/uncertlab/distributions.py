"""Input-quantity distributions: mean and u, and sampling.

Each input quantity of a measurement model carries one marginal
distribution in its physical unit: gaussian, rectangular, or
triangular. A :class:`JointInputModel` bundles the ordered quantities
with an optional correlation matrix; correlation is accepted only when
every marginal is Gaussian, where the Cholesky construction is exact.
How to correlate mixed marginals is not settled ground, so such input
is rejected at validation rather than silently approximated.

All sampling runs through one route, :func:`sample`: given uniforms,
one row per input, mapped in place through each marginal's inverse
CDF. Monte Carlo passes the points of scrambled Sobol' nets (see
:mod:`uncertlab.rng`), which lie in [2^-53, 1 - 2^-53], so no inverse
CDF meets 0 or 1. Each marginal's mean and standard uncertainty
u are closed form, never estimated, and u squares nothing, so it is
right wherever it is itself a double; no variance is kept. Rectangular
and triangular ones, and draws, scale the bounds by a power of two
(exactly), so only a Gaussian draw can leave the double range.
``scipy.special`` is imported by the Gaussian draws alone, so a run
that draws none never loads scipy.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "Gaussian",
    "Rectangular",
    "Triangular",
    "MarginalDistribution",
    "MARGINALS",
    "InputQuantity",
    "JointInputModel",
    "sample",
]


def _require_finite(kind: str, **params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ConfigError(f"{kind} {name} must be finite, got {value}")


@dataclass(frozen=True)
class Gaussian:
    """Normal distribution N(mean, sd^2).

    sd = 0 is allowed and denotes a degenerate constant; propagation
    treats such inputs as exactly known.
    """

    mean: float
    sd: float

    def __post_init__(self):
        _require_finite("gaussian", mean=self.mean, sd=self.sd)
        if self.sd < 0.0:
            raise ConfigError(f"gaussian sd must be >= 0, got {self.sd}")

    def mean_and_u(self) -> tuple[float, float]:
        return self.mean, self.sd

    def ppf(self, u: np.ndarray, out=None) -> np.ndarray:
        """Inverse CDF at u, written into ``out`` if given (may be u)."""
        from scipy import special
        x = special.ndtri(u, out=out)
        x *= self.sd
        x += self.mean
        return x


@dataclass(frozen=True)
class Rectangular:
    """Uniform distribution on [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self):
        _require_finite("rectangular", lower=self.lower, upper=self.upper)
        if not (self.lower < self.upper):
            raise ConfigError(
                f"rectangular bounds must satisfy lower < upper, "
                f"got [{self.lower}, {self.upper}]")

    def mean_and_u(self) -> tuple[float, float]:
        # on the half bounds, so no sum or width leaves the double range
        a, b = 0.5 * self.lower, 0.5 * self.upper
        return a + b, (b - a) / math.sqrt(3.0)

    def ppf(self, u: np.ndarray, out=None) -> np.ndarray:
        """Inverse CDF at u, written into ``out`` if given (may be u)."""
        a, b = 0.5 * self.lower, 0.5 * self.upper
        x = np.multiply(u, b - a, out=out)
        x += a
        x *= 2.0
        return x


@dataclass(frozen=True)
class Triangular:
    """Triangular distribution on [lower, upper] with peak at mode."""

    lower: float
    mode: float
    upper: float

    def __post_init__(self):
        _require_finite("triangular", lower=self.lower, mode=self.mode,
                        upper=self.upper)
        if not (self.lower < self.upper):
            raise ConfigError(
                f"triangular bounds must satisfy lower < upper, "
                f"got [{self.lower}, {self.upper}]")
        if not (self.lower <= self.mode <= self.upper):
            raise ConfigError(
                f"triangular mode {self.mode} outside [{self.lower}, {self.upper}]")

    def mean_and_u(self) -> tuple[float, float]:
        # u^2 = (a^2 + m^2 + b^2 - am - ab - mb) / 18, here on quarter bounds
        a, m, b = 0.25 * self.lower, 0.25 * self.mode, 0.25 * self.upper
        return 4.0 * ((a + m + b) / 3.0), math.hypot(a - m, a - b, m - b) / 1.5

    def ppf(self, u: np.ndarray, out=None) -> np.ndarray:
        """Inverse CDF at u, written into ``out`` if given (may be u)."""
        # on the bounds times 2^-e, below 1 in size: no product overflows
        e = math.frexp(max(-self.lower, self.upper))[1]
        a, m, b = np.ldexp([self.lower, self.mode, self.upper], -e)
        # the right branch and the split read u before ``out`` is written
        right = np.subtract(1.0, u, out=np.empty(np.shape(u)))
        np.maximum(right, 0.0, out=right)
        right *= b - a
        right *= b - m
        np.subtract(b, np.sqrt(right, out=right), out=right)
        left = u < (m - a) / (b - a)
        x = np.maximum(u, 0.0, out=np.empty(np.shape(u)) if out is None
                       else out)
        x *= b - a
        x *= m - a
        np.add(np.sqrt(x, out=x), a, out=x)
        # the left branch into the right's, then one write through ldexp
        np.copyto(right, x, where=left)
        return np.ldexp(right, e, out=x)


MarginalDistribution = Union[Gaussian, Rectangular, Triangular]

# each marginal class by its config ``kind``; its fields are the keys
MARGINALS = {"gaussian": Gaussian, "rectangular": Rectangular,
             "triangular": Triangular}


@dataclass(frozen=True)
class InputQuantity:
    """A named model input with its assigned marginal."""

    name: str
    marginal: MarginalDistribution


class JointInputModel:
    """Ordered input quantities plus an optional Gaussian correlation.

    ``means`` and ``u`` hold each input's mean and u. The correlation
    matrix, when given, must be symmetric with unit diagonal and entries
    in [-1, 1] (to 1e-12 absolute), and positive definite; its Cholesky
    factor ``chol`` is computed once here. Correlation with any
    non-Gaussian marginal is rejected.
    """

    def __init__(
        self,
        quantities: list[InputQuantity],
        correlation: Optional[np.ndarray] = None,
    ):
        if not quantities:
            raise ConfigError("at least one input quantity is required")
        names = [q.name for q in quantities]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(f"duplicate input name(s): {', '.join(dupes)}")
        self.quantities = list(quantities)
        self.names = tuple(names)
        self.means, self.u = map(np.array, zip(
            *(q.marginal.mean_and_u() for q in quantities)))
        self.correlation: Optional[np.ndarray] = None
        self.chol: Optional[np.ndarray] = None
        if correlation is not None:
            self._init_correlation(np.asarray(correlation, dtype=np.float64))

    def _init_correlation(self, r: np.ndarray) -> None:
        n = len(self.quantities)
        if r.shape != (n, n):
            raise ConfigError(
                f"correlation matrix must be {n}x{n}, got shape {r.shape}")
        non_gauss = [q.name for q in self.quantities
                     if not isinstance(q.marginal, Gaussian)]
        if non_gauss:
            raise ConfigError(
                "correlation requires all-Gaussian marginals; non-Gaussian "
                f"input(s): {', '.join(non_gauss)}")
        if not np.allclose(r, r.T, rtol=0.0, atol=1e-12):
            raise ConfigError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(r), 1.0, rtol=0.0, atol=1e-12):
            raise ConfigError("correlation matrix must have unit diagonal")
        if np.any(np.abs(r) > 1.0 + 1e-12):
            raise ConfigError("correlation entries must lie in [-1, 1]")
        try:
            chol = np.linalg.cholesky(r)
        except np.linalg.LinAlgError as err:
            raise ConfigError(
                "correlation matrix is not positive definite") from err
        self.correlation = r
        self.chol = chol

    def __len__(self) -> int:
        return len(self.quantities)


def sample(joint: JointInputModel, uniforms: np.ndarray) -> np.ndarray:
    """Map (N, count) ``uniforms`` in (0, 1), one row per input, to
    ``count`` joint realizations, shape (count, N).

    Without correlation each row is mapped in place by its marginal's
    inverse CDF, and the result is the buffer's transpose: each input's
    draws are one contiguous column. Under correlation the
    standard-normal rows are mixed by the Cholesky factor first, then
    scaled by each input's u and shifted by its mean, into a new array.
    """
    if joint.chol is not None:
        from scipy import special
        z = special.ndtri(uniforms, out=uniforms).T @ joint.chol.T
        z *= joint.u
        z += joint.means
        return z
    for q, row in zip(joint.quantities, uniforms):
        q.marginal.ppf(row, out=row)
    return uniforms.T
