"""Closed-form posterior for the known-noise linear special case.

When the noise level is a known constant and the mean head is linear
in its features, the weight posterior is Gaussian with a normal-
equations closed form:

    A        = Phi' Phi / sigma_n^2 + I / tau^2
    Sigma    = A^-1
    mu_post  = Sigma Phi' y / sigma_n^2

and the posterior predictive at a query x is Gaussian with mean
phi(x)' mu_post and variance sigma_n^2 + phi(x)' Sigma phi(x).

This module exists to check the variational path against an
independent route: it shares only the feature map with the model and
derives everything else from the normal equations. The ``verify`` CLI
subcommand and the test suite compare full-rank VI and its
predictive moments against these numbers. A is positive definite for any
design, including an empty one, because the prior term I/tau^2 is
always there; with zero observations the posterior is exactly the
prior.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .regression import BayesianVMModel

__all__ = ["ConjugatePosterior", "conjugate_posterior", "conjugate_predictive"]


@dataclass(frozen=True)
class ConjugatePosterior:
    """Exact Gaussian posterior N(mu, cov) over the mean-head weights."""

    mu: np.ndarray
    cov: np.ndarray


def conjugate_posterior(
    model: BayesianVMModel,
    x: np.ndarray,
    y: np.ndarray,
) -> ConjugatePosterior:
    """Exact posterior from the normal equations.

    Requires a model with ``fixed_noise_sd`` set (the known constant
    noise that makes the case conjugate). ``x`` may have zero rows.
    """
    if model.fixed_noise_sd is None:
        raise ConfigError(
            "the conjugate closed form needs a model with fixed_noise_sd set")
    y = np.asarray(y, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        x = x.reshape(0, model.n_features)
    if x.shape[0] != len(y):
        raise ConfigError(f"{x.shape[0]} feature rows but {len(y)} targets")

    p = model.n_mean_weights
    sigma2 = model.fixed_noise_sd**2
    tau2 = model.prior_tau**2
    if len(y) == 0:
        phi = np.zeros((0, p))
    else:
        phi = model.mean_features(x)
    a = phi.T @ phi / sigma2 + np.eye(p) / tau2
    cov = np.linalg.inv(a)
    cov = 0.5 * (cov + cov.T)
    mu = cov @ (phi.T @ y) / sigma2
    return ConjugatePosterior(mu, cov)


def conjugate_predictive(
    model: BayesianVMModel,
    posterior: ConjugatePosterior,
    x: np.ndarray,
) -> tuple[float, float]:
    """Posterior predictive (mean, variance) at one query point."""
    if model.fixed_noise_sd is None:
        raise ConfigError(
            "the conjugate closed form needs a model with fixed_noise_sd set")
    phi = model.mean_features(np.asarray(x, dtype=np.float64).reshape(1, -1))[0]
    mean = float(phi @ posterior.mu)
    var = model.fixed_noise_sd**2 + float(phi @ posterior.cov @ phi)
    return mean, var
