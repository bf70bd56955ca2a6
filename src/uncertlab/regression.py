"""Heteroscedastic Bayesian regression model for virtual measurement.

The model ties a measured quality characteristic y to process-variable
features x through two linear-in-parameters heads sharing one weight
vector w = (w_mu, w_sigma):

    y = f(x; w) + eps,   eps ~ N(0, sigma_n(x; w)^2)
    f(x; w)       = w_mu' phi_mu(x)          (mean head)
    sigma_n(x; w) = softplus(w_sigma' phi_sigma(x)) + NOISE_FLOOR

Both feature maps are polynomial bases over standardized inputs, so
the conditional noise level can vary across the process window
(heteroscedastic) while everything stays differentiable in w. Setting
``fixed_noise_sd`` freezes the noise level to a known constant and
drops w_sigma entirely, which is exactly the Bayesian linear
regression whose Gaussian posterior training takes exactly from the R
factor below (:func:`uncertlab.vi.conjugate_posterior`).

The prior over all P weights is isotropic Gaussian N(0, tau^2 I) in
the standardized feature space. The softplus transform plus the
constant floor ``NOISE_FLOOR`` = 1e-6 keeps sigma_n strictly positive
for every x and w, so the Gaussian log-likelihood below is always
finite. Records are independent, hence the log-likelihood is a plain
sum over records; the analytic gradients next to it are what
variational training consumes, and they are finite-difference-checked
in the test suite. Per record, with u = r / sigma_n the residual in
noise units, log p = -log(2 pi)/2 - log sigma_n - u^2/2, whose
derivatives are u / sigma_n in f and (u^2 - 1) / sigma_n in sigma_n;
softplus' derivative, the logistic s'(t), is 1/(1+e) for t >= 0 and
e/(1+e) below, from the e = exp(-|t|) softplus evaluates anyway.

With a fixed noise sd the likelihood reads the records only through
one thin QR of them, centred, taken once (:class:`DesignMatrices`).
"""

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset
from .errors import (ConfigError, DatasetError, require_integer,
                     require_positive)

__all__ = [
    "NOISE_FLOOR",
    "MAX_WEIGHTS",
    "polynomial_exponents",
    "polynomial_features",
    "softplus",
    "inv_softplus",
    "BayesianVMModel",
    "build_model",
    "DesignMatrices",
]

# Minimum noise level in y-units; keeps the likelihood away from the
# degenerate zero-noise spike.
NOISE_FLOOR = 1e-6

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Most weights P a model may have. Training holds M = [mu | L], a
# P x (P + 1) array of doubles for either family, and forms its gradient
# in a second one; at 2,048 weights each is 34 MB. A model above the cap
# is refused from its weight count alone, before any monomial is listed.
MAX_WEIGHTS = 2048


def polynomial_exponents(n_features: int,
                         degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of all monomials with total degree <= degree.

    Ordered by total degree, then lexicographically by the index
    combination, e.g. for two features and degree 2:
    1, x1, x2, x1^2, x1*x2, x2^2. Both heads thus keep a bias term.
    """
    if degree < 0:
        raise ConfigError(f"polynomial degree must be >= 0, got {degree}")
    return tuple(tuple(map(combo.count, range(n_features)))
                 for total in range(degree + 1)
                 for combo in itertools.combinations_with_replacement(
                     range(n_features), total))


def polynomial_features(x: np.ndarray,
                        exponents: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Design matrix (D, P) of the monomials in ``exponents``.

    Each feature's powers come from repeated products, x^k = x^(k-1) x,
    one array multiply per degree: a square is correctly rounded, x^k
    carries k - 1 roundings, and no ``pow`` kernel is involved. Each
    column then multiplies, in feature order, one power of each feature.
    A value beyond the double range comes out inf (or NaN, where it
    meets a zero) without a floating-point warning; callers refuse it.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    exps = np.asarray(exponents, dtype=np.intp)
    powers = np.empty((exps.max() + 1,) + x.shape)     # powers[k] = x^k
    powers[0] = 1.0
    phi = np.ones((len(x), len(exps)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(powers)):
            np.multiply(powers[k - 1], x, out=powers[k])
        for j in range(x.shape[1]):
            phi *= powers[exps[:, j], :, j].T
    return phi


def softplus(t: np.ndarray, e: Optional[np.ndarray] = None,
             log1p_e: Optional[np.ndarray] = None,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """log(1 + e^t), computed stably for large |t|.

    Optional arrays shaped like t receive e = exp(-|t|), log1p(e) and
    the result.
    """
    e = np.exp(np.negative(np.abs(t, out=e), out=e), out=e)
    out = np.maximum(t, 0.0, out=out)
    out += np.log1p(e, out=log1p_e)
    return out


def inv_softplus(s: float) -> float:
    """Inverse of softplus for s > 0."""
    if s <= 0.0:
        raise ValueError(f"inv_softplus needs s > 0, got {s}")
    if s < 1.0:
        return math.log(math.expm1(s))
    return s + math.log1p(-math.exp(-s))


@dataclass(frozen=True)
class BayesianVMModel:
    """Model structure: feature maps, standardization, prior, noise mode.

    Immutable; the trained posterior over w lives in a separate object.
    ``x_mean``/``x_sd`` hold the training standardization constants
    (zeros/ones when standardization is off) so predictions transform
    new inputs identically. The field defaults are the shipped model
    settings.
    """

    feature_names: tuple[str, ...]
    x_mean: np.ndarray
    x_sd: np.ndarray
    mean_degree: int = 2
    noise_degree: int = 1
    prior_tau: float = 1.0
    standardize: bool = True
    fixed_noise_sd: Optional[float] = None

    def __post_init__(self):
        for name in ("mean_degree", "noise_degree"):
            require_integer(name, getattr(self, name), 0)
        require_positive("prior tau", self.prior_tau)
        tau = float(self.prior_tau)     # KL and the prior divide by tau^2
        if not sys.float_info.min <= tau * tau < math.inf:
            raise ConfigError(
                f"prior tau must have a square that is a finite normal "
                f"double (about 1.5e-154 to 1.3e154), got {self.prior_tau}")
        if self.fixed_noise_sd is not None:
            require_positive("fixed noise sd", self.fixed_noise_sd)
        f = self.n_features
        if self.x_mean.shape != (f,) or self.x_sd.shape != (f,):
            raise ConfigError(
                f"x_mean and x_sd need one entry per feature ({f}), got "
                f"shapes {self.x_mean.shape} and {self.x_sd.shape}")
        if not (np.all(np.isfinite(self.x_mean))
                and np.all(np.isfinite(self.x_sd))):
            raise ConfigError("x_mean and x_sd entries must be finite")
        if not np.all(self.x_sd > 0.0):
            raise ConfigError(f"x_sd entries must be > 0, got {self.x_sd}")
        if self.n_weights > MAX_WEIGHTS:
            raise ConfigError(
                f"the model defines {self.n_weights} weights, more than the "
                f"{MAX_WEIGHTS} training takes; lower mean_degree or "
                f"noise_degree")

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @cached_property
    def mean_exponents(self) -> tuple[tuple[int, ...], ...]:
        return polynomial_exponents(self.n_features, self.mean_degree)

    @cached_property
    def noise_exponents(self) -> tuple[tuple[int, ...], ...]:
        return polynomial_exponents(self.n_features, self.noise_degree)

    # comb(F + d, d) monomials of degree <= d, counted without listing them
    @property
    def n_mean_weights(self) -> int:
        return math.comb(self.n_features + self.mean_degree, self.mean_degree)

    @property
    def n_noise_weights(self) -> int:
        return 0 if self.fixed_noise_sd is not None else math.comb(
            self.n_features + self.noise_degree, self.noise_degree)

    @cached_property
    def n_weights(self) -> int:
        """Total weight count P reported with every trained model."""
        return self.n_mean_weights + self.n_noise_weights

    def standardized(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_features:
            raise ConfigError(
                f"expected {self.n_features} feature(s), got {x.shape[1]}")
        if not self.standardize:
            return x
        # a value beyond the double range comes out inf, refused by
        # features() with the monomial it reaches
        with np.errstate(over="ignore"):
            return (x - self.x_mean) / self.x_sd

    def features(self, x: np.ndarray, row: str,
                 error: type) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Both heads' design matrices of ``x``, from one table: the
        monomials of a lower degree are a prefix of those of a higher
        one. The first row with a feature outside the double range is
        refused as ``error``, named as ``row`` and its index, with the
        first such feature."""
        learned = self.fixed_noise_sd is None
        exps = max(self.mean_exponents, self.noise_exponents if learned
                   else (), key=len)
        table = polynomial_features(self.standardized(x), exps)
        finite = np.isfinite(table)
        if not finite.all():
            i, j = np.argwhere(~finite)[0].tolist()
            monomial = "*".join(name if e == 1 else f"{name}^{e}" for name, e
                                in zip(self.feature_names, exps[j]) if e)
            raise error(f"{row} {i}: feature {monomial} leaves the double "
                        f"range ({table[i, j]})")
        phi_mu = np.ascontiguousarray(table[:, :self.n_mean_weights])
        return phi_mu, (np.ascontiguousarray(table[:, :self.n_noise_weights])
                        if learned else None)

    def split_weights(self, w: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        w = np.asarray(w, dtype=np.float64)
        if w.shape[-1] != self.n_weights:
            raise ConfigError(
                f"expected {self.n_weights} weight(s), got {w.shape[-1]}")
        if self.fixed_noise_sd is not None:
            return w, None
        p = self.n_mean_weights
        return w[..., :p], w[..., p:]

    def design(self, data: Dataset) -> "DesignMatrices":
        """Precompute the per-record feature matrices for a dataset."""
        if data.feature_names != self.feature_names:
            raise ConfigError(
                f"dataset features {data.feature_names} do not match "
                f"model features {self.feature_names}")
        phi_mu, phi_sigma = self.features(data.x, "record", DatasetError)
        return DesignMatrices(phi_mu, phi_sigma, data.y.astype(np.float64),
                              self)


@dataclass(frozen=True)
class DesignMatrices:
    """Cached design matrices for repeated likelihood evaluations.

    With a fixed noise sd the likelihood needs only r'r and phi_mu'r of
    the residuals r = y - phi_mu w_mu, and both come from one thin QR
    taken on first use: with y_bar = mean(y) and A the R factor of
    [phi_mu | y - y_bar], e = A[:, -1] - A[:, :-1] w~ has e'e = r'r and
    A[:, :-1]'e = phi_mu'r, where w~ is w_mu with its bias weight
    (column 0 of phi_mu is the constant 1) lowered by y_bar. A call then
    costs O(S P_mu^2) whatever D is, and centring keeps a large offset
    in y out of the cancellation e makes.

    Training takes the likelihood from ``_likelihood(S)`` once per run.
    For a fixed noise sd that is one closure over a workspace of its
    own, whose products (w - shift) A' and u A go through ``np.dot``,
    about 0.3 us less dispatch each than ``np.matmul`` and the same BLAS
    dgemm. The bits are np.matmul's at every P and S measured (P up to
    1,024) but one: u A for a single draw at P = 3, where np.matmul on
    A's strided view rounds otherwise. Each call of the closure
    overwrites the arrays the last one returned. A learned noise level
    needs every record: its closure works in six (S, D) buffers of its
    own and returns arrays that are never views of them. Without
    ``free_energy`` either closure returns None for the log-likelihoods.
    :meth:`log_likelihood_and_grad` makes a new closure per call, so the
    arrays it returns are never written again.
    """

    phi_mu: np.ndarray            # (D, P_mu)
    phi_sigma: Optional[np.ndarray]  # (D, P_sigma) or None for fixed noise
    y: np.ndarray                 # (D,)
    model: BayesianVMModel

    @cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(A[:, :-1] / sigma, A[:, -1] / sigma, shift, c) for fixed noise:
        A is the (min(D, P_mu + 1), P_mu + 1) R factor of
        [phi_mu | y - y_bar], shift is (y_bar, 0, ..., 0), so that
        w~ = w_mu - shift, and c = -D (log sigma + log(2 pi) / 2)."""
        sigma = self.model.fixed_noise_sd
        y_bar = np.mean(self.y)
        shift = np.zeros(self.phi_mu.shape[1])
        shift[0] = y_bar
        a = np.linalg.qr(np.column_stack([self.phi_mu, self.y - y_bar]),
                         mode="r") / sigma
        const = -len(self.y) * (math.log(sigma) + _HALF_LOG_2PI)
        return a[:, :-1], a[:, -1], shift, const

    def log_likelihood_and_grad(
            self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched Gaussian log-likelihood and its weight gradient.

        ``w`` is (S, P); returns (S,) log-likelihoods and the (S, P)
        gradients. With residuals r and u = r / sigma, the gradient
        splits into the two heads:
        d/dw_mu    = phi_mu' (u / sigma)
        d/dw_sigma = phi_sigma' [ (u^2 - 1) / sigma * s'(t) ]
        with t the pre-transform noise activation and s'(t) the
        logistic sigmoid (derivative of softplus). A fixed noise sd has
        no w_sigma, so only the mean head has a gradient, and the
        records enter only through the R factor (class docstring):
        u = e / sigma and phi_mu' (u / sigma) = (A[:, :-1] / sigma)' u.
        """
        w = np.atleast_2d(np.asarray(w, dtype=np.float64))
        self.model.split_weights(w)     # refuses a wrong weight count
        # a likelihood of its own, so no later call writes the arrays
        return self._likelihood(len(w))(w)

    def _likelihood(self, n: int, free_energy: bool = True):
        """:meth:`log_likelihood_and_grad` unchecked, for float64 (n, P)
        w, set up once for a run of calls (see the class docstring)."""
        if self.model.fixed_noise_sd is None:
            return self._learned_noise(n, free_energy)
        phi, b, shift, const = self._factor
        # np.dot on a contiguous copy of A: given the strided view itself
        # it copies A' into rows and, from P = 16 on, takes a dgemm
        # kernel that rounds otherwise than np.matmul on the view
        phi = np.ascontiguousarray(phi)
        phi_t = phi.T
        k, p = phi.shape
        v, grad = np.empty((2, n, p))
        u, u2 = np.empty((2, n, k))
        ll = np.empty(n) if free_energy else None
        add, subtract, multiply, dot = np.add, np.subtract, np.multiply, np.dot
        add_reduce = np.add.reduce

        def fixed_noise(w):
            subtract(w, shift, out=v)
            dot(v, phi_t, out=u)
            subtract(b, u, out=u)
            if ll is not None:
                # ll = const - (1/2) sum u^2, rounded as written
                add_reduce(multiply(u, u, out=u2), axis=1, out=ll)
                multiply(ll, -0.5, out=ll)
                add(ll, const, out=ll)
            return ll, dot(u, phi, out=grad)

        return fixed_noise

    def _learned_noise(self, n: int, free_energy: bool):
        """The learned-noise likelihood of (n, P) w, over (n, D) buffers."""
        p, d = self.model.n_mean_weights, len(self.y)
        r, u, a, t, e, sigma = np.empty((6, n, d))

        def learned_noise(w):
            w_mu, w_sigma = w[..., :p], w[..., p:]
            np.matmul(w_mu, self.phi_mu.T, out=r)
            np.subtract(self.y, r, out=r)
            np.matmul(w_sigma, self.phi_sigma.T, out=t)
            softplus(t, e, a, out=sigma)
            np.add(sigma, NOISE_FLOOR, out=sigma)
            np.divide(r, sigma, out=u)
            u2 = np.multiply(u, u, out=a)
            ll = None
            if free_energy:     # r is spare once u = r / sigma
                log_sigma = np.log(sigma, out=r).sum(axis=1)
                ll = -(log_sigma + 0.5 * u2.sum(axis=1) + d * _HALF_LOG_2PI)
            grad = np.divide(u, sigma, out=r) @ self.phi_mu
            # s'(t) = q / (1 + e), q = 1 for t >= 0 and e = exp(t) below
            q = np.greater_equal(t, 0.0, out=r, casting="unsafe")
            np.maximum(q, e, out=q)
            np.add(e, 1.0, out=e)
            q /= e
            u2 -= 1.0
            u2 /= sigma
            u2 *= q
            return ll, np.concatenate([grad, u2 @ self.phi_sigma], axis=1)

        return learned_noise


def build_model(data: Dataset, **settings) -> BayesianVMModel:
    """Construct a model whose standardization is fit to ``data``.

    ``settings`` are :class:`BayesianVMModel` fields (mean_degree,
    noise_degree, prior_tau, standardize, fixed_noise_sd); the ones
    left out keep the field defaults.
    """
    if settings.get("standardize", BayesianVMModel.standardize):
        x_mean = np.array([c.mean for c in data.summary.features])
        sds = np.array([c.sd for c in data.summary.features])
        # a constant feature has nothing to scale; leave it centered
        x_sd = np.where(sds > 0.0, sds, 1.0)
    else:
        f = data.n_features
        x_mean, x_sd = np.zeros(f), np.ones(f)
    return BayesianVMModel(data.feature_names, x_mean=x_mean, x_sd=x_sd,
                           **settings)
