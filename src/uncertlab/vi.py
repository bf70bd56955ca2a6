"""Gaussian variational inference for the virtual-measurement model.

The exact weight posterior p(w | data) is intractable for the
heteroscedastic model, so it is approximated with a Gaussian family
q(w; phi), either mean-field (diagonal covariance) or full-rank
(dense lower-triangular factor). Training minimizes the variational
free energy

    F(phi) = KL[q(w; phi) || p(w)] - E_q[log p(y | x, w)],

whose minimizer also minimizes the KL divergence to the true posterior
(the evidence term does not depend on phi). The KL against the
isotropic N(0, tau^2 I) prior is closed form; the expected
log-likelihood is estimated by reparameterized draws w = mu + L z with
z standard normal, which turns the expectation's gradient into the
average of analytic per-draw gradients. No autograd framework is
involved: the chain from likelihood gradients through L and the
positive-diagonal bijection is written out in :func:`objective`, and
the test suite holds it against central finite differences. Each step
makes one likelihood call for all draws, on the one design training
builds, which keeps that call's work from step to step: the learned
noise level's (S, D) buffers, or for a fixed noise sd the small R
factor that stands in for the D records, so such a step costs the
same at any D. The draws z for a block of steps come from one call to
the generator, in the order one call per step would give.

Optimization is Adam on the unconstrained parameters (mu, log of the
diagonal of L, and for full-rank the strict lower triangle), with a
constant or cosine step schedule, from q = N(mu0, s^2 I) with s the
constant ``_INIT_SCALE`` = 0.1. Every random draw comes from one
seeded Philox substream, so training is bit-reproducible. Every
``window`` steps the mean of F over the last window is compared with
the window before it, and training stops once it no longer improves by
``tolerance`` (relative). It stops as converged (``plateau``) when F
held level, as not converged (``worsened``) when F rose by more than
the tolerance and more than the step-to-step scatter of F in the
window before, and otherwise runs to the step budget (``max_steps``).
A non-finite F aborts with the step index.

Prediction reads each part's moments off q = N(mu, L L') and draws
nothing. The epistemic part V_q[f(x; w)] of the mean head f = phi'w_mu
is exact, as is its mean. The aleatoric part E_q[sigma_n^2(x; w)] is a
fixed sigma^2, or a 1-D expectation over the noise activation
t = psi'w_sigma ~ N(m, s^2), taken by the trapezoid rule in the
standardised variable (t - m) / s. That rule converges exponentially
for this analytic integrand (Trefethen & Weideman, SIAM Review 56,
2014); its nodes depend only on the part's own s, so a part's noise
head does not depend on the batch it is predicted in. The two parts add
up exactly to sigma_hat^2.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dataset import Dataset
from .errors import (ConfigError, DatasetError, DivergenceError,
                     DomainError, require_positive)
from .regression import (NOISE_FLOOR, BayesianVMModel, DesignMatrices,
                         inv_softplus, softplus)
from .rng import substream

__all__ = [
    "VariationalPosterior",
    "VIConfig",
    "TrainResult",
    "VirtualMeasurementResult",
    "kl_gaussian",
    "free_energy",
    "pack_posterior",
    "unpack_posterior",
    "objective",
    "train_vi",
    "predict",
    "predict_parts",
]

FAMILIES = ("mean_field", "full_rank")

# Values in one block of work (128 KB), which stays in cache: training
# draws the normals of as many steps at once as fit, and of one step at
# least; prediction evaluates the noise head's quadrature nodes of as
# many parts at once.
_SLICE_VALUES = 16384

# Largest sd of a part's noise activation that predict takes: its
# quadrature then has 4,801 nodes.
MAX_NOISE_SD = 100.0

# Standard deviation of every weight in the starting posterior.
_INIT_SCALE = 0.1

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015).
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class VariationalPosterior:
    """Gaussian q(w) = N(mu, L L') over the model weights.

    ``scale`` is the diagonal of L as a vector (mean_field) or the full
    lower-triangular L (full_rank); the diagonal is strictly positive
    in both cases, so the covariance is positive definite by
    construction.
    """

    family: str
    mu: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown variational family {self.family!r}")
        if self.mu.ndim != 1:
            raise ConfigError(f"mu must be a vector, got shape {self.mu.shape}")
        p = len(self.mu)
        full = self.family == "full_rank"
        shape = (p, p) if full else (p,)
        if self.scale.shape != shape:
            raise ConfigError(f"{self.family} scale must have shape {shape}, "
                              f"got {self.scale.shape}")
        if not (np.all(np.isfinite(self.mu))
                and np.all(np.isfinite(self.scale))):
            raise ConfigError("mu and scale entries must be finite")
        if np.any((np.diag(self.scale) if full else self.scale) <= 0.0):
            raise ConfigError("scale diagonal must be strictly positive")
        if full and np.any(np.triu(self.scale, k=1) != 0.0):
            raise ConfigError("full_rank scale must be lower-triangular")

    @property
    def n_weights(self) -> int:
        return len(self.mu)

    def covariance(self) -> np.ndarray:
        if self.family == "mean_field":
            return np.diag(self.scale**2)
        return self.scale @ self.scale.T

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Reparameterized draws w = mu + L z, shape (n, P)."""
        return _draw(self.mu, self.scale,
                     rng.standard_normal((n, self.n_weights)))


def _draw(mu: np.ndarray, scale: np.ndarray, z: np.ndarray) -> np.ndarray:
    """w = mu + L z for each row of z; ``scale`` is L or its diagonal."""
    return mu + (z * scale if scale.ndim == 1 else z @ scale.T)


@dataclass(frozen=True)
class VIConfig:
    """Knobs of the stochastic optimizer; defaults are the shipped ones."""

    family: str = "mean_field"
    learning_rate: float = 1e-2
    schedule: str = "constant"          # or "cosine"
    n_mc: int = 8
    max_steps: int = 20000
    tolerance: float = 1e-5
    window: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown variational family {self.family!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        require_positive("learning_rate", self.learning_rate)
        for name in ("n_mc", "max_steps", "window"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool) or value < 1):
                raise ConfigError(
                    f"{name} must be an integer >= 1, got {value!r}")
        if not 0.0 <= self.tolerance < math.inf:
            raise ConfigError(
                f"tolerance must be >= 0 and finite, got {self.tolerance}")


def kl_gaussian(q: VariationalPosterior, prior_tau: float) -> float:
    """Closed-form KL[q || N(0, tau^2 I)].

    (1/2) [ tr(Sigma)/tau^2 + |mu|^2/tau^2 - P + P ln tau^2 - ln det Sigma ].
    """
    diag = q.scale if q.family == "mean_field" else q.scale.diagonal()
    return _kl(q.mu, q.scale, diag, prior_tau)


def _kl(mu: np.ndarray, scale: np.ndarray, diag: np.ndarray,
        prior_tau: float) -> float:
    """KL[N(mu, L L') || N(0, tau^2 I)]; ``diag`` is L's diagonal."""
    require_positive("prior tau", prior_tau)
    p = len(mu)
    tau2 = prior_tau**2
    # tr(L L') is the sum of squares of L, whichever shape it is stored in
    trace = float((scale**2).sum())
    logdet = 2.0 * float(np.log(diag).sum())
    mu2 = float(mu @ mu)
    return 0.5 * (trace / tau2 + mu2 / tau2 - p + p * math.log(tau2) - logdet)


def free_energy(
    model: BayesianVMModel,
    q: VariationalPosterior,
    data: Dataset,
    n_mc: int = VIConfig.n_mc,
    seed: int = VIConfig.seed,
) -> float:
    """Stochastic free-energy estimate with ``n_mc`` reparameterized draws."""
    if n_mc < 1:
        raise ConfigError(f"n_mc must be >= 1, got {n_mc}")
    design = model.design(data)
    w = q.sample(substream(seed, 0), n_mc)
    ll = design.log_likelihood_batch(w)
    return kl_gaussian(q, model.prior_tau) - float(np.mean(ll))


# ---------------------------------------------------------------------------
# Unconstrained parameterization and the training objective
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _tri_index(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat indices into a C-ordered p x p matrix: its strict
    lower triangle, and its diagonal followed by that triangle.

    Built once per ``p``: training reads and writes L through them on
    every step, with one ``take`` or ``put`` each.
    """
    rows, cols = np.tril_indices(p, k=-1)
    lower = rows * p + cols
    both = np.concatenate([np.arange(p) * (p + 1), lower])
    for index in (lower, both):
        index.flags.writeable = False
    return lower, both


def pack_posterior(q: VariationalPosterior) -> np.ndarray:
    """Flatten q into the unconstrained vector Adam walks on.

    Layout: [mu | log diag L | strict lower triangle of L (full_rank)].
    """
    if q.family == "mean_field":
        return np.concatenate([q.mu, np.log(q.scale)])
    lower = q.scale.take(_tri_index(q.n_weights)[0])
    return np.concatenate([q.mu, np.log(np.diag(q.scale)), lower])


def unpack_posterior(family: str, p: int, theta: np.ndarray) -> VariationalPosterior:
    """Inverse of :func:`pack_posterior`."""
    mu, _, scale = _unpack(family, p, theta)
    return VariationalPosterior(family, mu.copy(), scale)


def _unpack(family: str, p: int,
            theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, diag of L, L or its diagonal), with mu a view of theta."""
    n = 2 * p if family == "mean_field" else 2 * p + p * (p - 1) // 2
    if len(theta) != n:
        raise ConfigError(f"{family} parameter vector must have length {n}")
    mu, d = theta[:p], np.exp(theta[p:2 * p])
    if family == "mean_field":
        return mu, d, d
    lower, both = _tri_index(p)
    scale = np.zeros((p, p))
    scale.put(lower, theta[2 * p:])
    scale.put(both[:p], d)
    return mu, d, scale


def objective(
    design: DesignMatrices,
    family: str,
    theta: np.ndarray,
    z: np.ndarray,
    prior_tau: float,
) -> tuple[float, np.ndarray]:
    """Free-energy estimate and its exact gradient at fixed draws ``z``.

    With z held fixed this is a deterministic, differentiable function
    of theta; the returned gradient is analytic (KL terms in closed
    form, expectation terms averaged per-draw likelihood gradients
    chained through w = mu + L z and the log-diagonal bijection). The
    finite-difference gate in the tests runs against exactly this
    function.
    """
    p = design.model.n_weights
    mu, d, scale = _unpack(family, p, theta)
    ll, g = design.log_likelihood_and_grad(_draw(mu, scale, z))

    # means as sum / count: the same reduction np.mean makes, without
    # its dispatch cost on every step
    n = z.shape[0]
    value = _kl(mu, scale, d, prior_tau) - float(ll.sum() / n)
    tau2 = prior_tau**2
    d_mu = mu / tau2 - g.sum(axis=0) / n
    if family == "mean_field":
        d_scale = d / tau2 - 1.0 / d - (g * z).sum(axis=0) / n
        return value, np.concatenate([d_mu, d_scale * d])
    # d_L gathered as [diagonal | strict lower triangle]
    d_l = (scale / tau2 - (g.T @ z) / n).take(_tri_index(p)[1])
    d_diag = d_l[:p]
    d_diag -= 1.0 / d
    d_diag *= d
    return value, np.concatenate([d_mu, d_l])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainResult:
    """Trained posterior plus the optimization record."""

    posterior: VariationalPosterior
    trajectory: np.ndarray     # stochastic F estimate per step
    n_steps: int
    stop_reason: str           # "plateau", "worsened" or "max_steps"
    initial_free_energy: float
    final_free_energy: float   # trailing-window mean at termination

    @property
    def converged(self) -> bool:
        """True only when F reached a plateau."""
        return self.stop_reason == "plateau"


def _initial_theta(model: BayesianVMModel, data: Dataset,
                   config: VIConfig) -> np.ndarray:
    p = model.n_weights
    mu = np.zeros(p)
    if model.fixed_noise_sd is None:
        # noise-head bias starts at sigma_n ~ sd(y): a sane noise scale
        # keeps early likelihood values bounded
        sd_y = max(data.summary.target.sd, 1e-3)
        mu[model.n_mean_weights] = inv_softplus(sd_y)
    scale = np.full(p, _INIT_SCALE)
    if config.family == "full_rank":
        scale = np.diag(scale)
    return pack_posterior(VariationalPosterior(config.family, mu, scale))


def _step_size(config: VIConfig, step: int) -> float:
    if config.schedule == "constant":
        return config.learning_rate
    frac = min(step / config.max_steps, 1.0)
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * frac))


def train_vi(model: BayesianVMModel, data: Dataset,
             config: VIConfig = VIConfig()) -> TrainResult:
    """Minimize the free energy; returns the posterior and F trajectory.

    Every ``window`` steps, from step ``2 * window`` on, the mean of F
    over the last window is compared with the mean over the window
    before it. Training stops once F no longer falls by at least
    ``tolerance * max(1, |previous mean|)``: with ``stop_reason``
    ``"worsened"`` (not converged) if F rose by more than that bound and
    more than the standard deviation of F over the previous window,
    otherwise with ``"plateau"`` (converged). A run that keeps improving
    stops at ``max_steps`` with ``"max_steps"``. Raises
    :class:`~uncertlab.errors.DivergenceError` with the step index if F
    turns non-finite.
    """
    if data.n_records < 2:
        raise DatasetError(
            f"training needs at least 2 records, got {data.n_records}")
    if model.fixed_noise_sd is None and data.summary.target.sd == 0.0:
        raise DatasetError(
            "all target values are identical; the noise level is not "
            "identifiable (fix the noise sd to train anyway)")

    design = model.design(data)
    p = model.n_weights
    theta = _initial_theta(model, data, config)
    gen = substream(config.seed, 0)

    # z for a block of steps comes from one call: the same normals, in
    # the same order, as one call per step
    block = max(1, _SLICE_VALUES // (config.n_mc * p))
    # Adam's moments and two scratch vectors, all updated in place
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step_buf = np.empty_like(theta)
    denom = np.empty_like(theta)
    w = config.window
    trajectory = np.empty(config.max_steps)
    stop_reason = "max_steps"
    n_steps = 0

    for step in range(config.max_steps):
        if step % block == 0:
            zs = gen.standard_normal(
                (min(block, config.max_steps - step), config.n_mc, p))
        value, grad = objective(design, config.family, theta,
                                zs[step % block], model.prior_tau)
        if not math.isfinite(value):
            raise DivergenceError(
                f"free energy became non-finite at step {step}", step)
        trajectory[step] = value
        n_steps = step + 1

        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
        # theta -= lr * m_hat / (sqrt(v_hat) + eps), in place but in
        # this order, so every rounding matches the out-of-place form
        m *= _ADAM_BETA1
        np.multiply(1.0 - _ADAM_BETA1, grad, out=step_buf)
        m += step_buf
        v *= _ADAM_BETA2
        np.square(grad, out=step_buf)
        step_buf *= 1.0 - _ADAM_BETA2
        v += step_buf
        np.divide(m, 1.0 - _ADAM_BETA1 ** n_steps, out=step_buf)
        step_buf *= _step_size(config, step)
        np.divide(v, 1.0 - _ADAM_BETA2 ** n_steps, out=denom)
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        step_buf /= denom
        theta -= step_buf

        if n_steps >= 2 * w and n_steps % w == 0:
            before = trajectory[n_steps - 2 * w:n_steps - w]
            prev = float(np.mean(before))
            rise = float(np.mean(trajectory[n_steps - w:n_steps])) - prev
            bound = config.tolerance * max(1.0, abs(prev))
            if rise > -bound:
                # no longer improving; a rise within the step-to-step
                # scatter of F is the noise floor, not a worsening
                worse = rise > max(bound, float(np.std(before)))
                stop_reason = "worsened" if worse else "plateau"
                break

    trajectory = trajectory[:n_steps].copy()
    tail = trajectory[-min(config.window, n_steps):]
    return TrainResult(
        posterior=unpack_posterior(config.family, p, theta),
        trajectory=trajectory,
        n_steps=n_steps,
        stop_reason=stop_reason,
        initial_free_energy=float(trajectory[0]),
        final_free_energy=float(np.mean(tail)),
    )


# ---------------------------------------------------------------------------
# Posterior prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VirtualMeasurementResult:
    """Virtual measurement: predictive mean and decomposed spread.

    Each field is a float for one part (:func:`predict`) or a column
    with one entry per part (:func:`predict_parts`).
    sigma_hat^2 = aleatoric_var + epistemic_var holds exactly.
    """

    y_hat: Any
    sigma_hat: Any
    aleatoric_var: Any
    epistemic_var: Any
    k: float

    @property
    def U(self) -> Any:
        """Expanded uncertainty k * sigma_hat, the interval's half-width."""
        return self.k * self.sigma_hat

    @property
    def interval(self) -> tuple[Any, Any]:
        """y_hat -/+ k * sigma_hat."""
        half = self.U
        return self.y_hat - half, self.y_hat + half


def predict(
    model: BayesianVMModel,
    q: VariationalPosterior,
    x: np.ndarray,
    k: float = 2.0,
) -> VirtualMeasurementResult:
    """Posterior predictive moments at one part's feature vector."""
    vm = predict_parts(model, q, np.reshape(x, (1, -1)), k)
    return VirtualMeasurementResult(
        vm.y_hat.item(), vm.sigma_hat.item(), vm.aleatoric_var.item(),
        vm.epistemic_var.item(), k)


def predict_parts(
    model: BayesianVMModel,
    q: VariationalPosterior,
    x: np.ndarray,
    k: float,
) -> VirtualMeasurementResult:
    """Posterior predictive moments at each row of ``x`` (parts, features).

    With L_mu, L_sigma the mean-head and noise-head rows of L, y_hat =
    phi'mu_mu and epistemic_var = |L_mu'phi|^2. A fixed noise sd gives
    aleatoric_var = sigma^2. Otherwise aleatoric_var is
    E[(softplus(t) + NOISE_FLOOR)^2] over t ~ N(m, s^2), m = psi'mu_sigma,
    s = |L_sigma'psi|, by a trapezoid rule that depends on s alone. A
    part with s above ``MAX_NOISE_SD``, or s not a number, is a
    DomainError that names the part by its row index.
    """
    require_positive("coverage factor k", k)
    if q.n_weights != model.n_weights:
        raise ConfigError(
            f"posterior has {q.n_weights} weights, model expects "
            f"{model.n_weights}")
    x = np.asarray(x, dtype=np.float64)

    p = model.n_mean_weights
    chol = q.scale if q.family == "full_rank" else np.diag(q.scale)
    phi = model.mean_features(x)
    y_hat = phi @ q.mu[:p]
    # L is lower-triangular: the mean-head rows end at column p
    epistemic = np.square(phi @ chol[:p, :p]).sum(axis=1)
    if model.fixed_noise_sd is None:
        psi = model.noise_features(x)
        # m and s choose each part's rule, so they come from numpy's own
        # loops, which give a row the same bits in any batch; BLAS picks
        # its kernels by the batch's shape
        m = np.einsum("ij,j->i", psi, q.mu[p:])
        s = np.sqrt(np.square(np.einsum("ij,jk->ik", psi, chol[p:]))
                    .sum(axis=1))
        aleatoric = _expected_noise_variance(m, s)
    else:
        aleatoric = np.full(len(x), model.fixed_noise_sd**2)
    return VirtualMeasurementResult(y_hat, np.sqrt(aleatoric + epistemic),
                                    aleatoric, epistemic, k)


def _expected_noise_variance(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """E[(softplus(t) + NOISE_FLOOR)^2], t ~ N(m, s^2), for each part.

    The trapezoid rule in x = (t - m) / s on |x| <= 12, beyond which the
    normal density is below 1e-31 of its peak, with spacing
    h = 0.5 / ceil(max(s, 1)). softplus(m + s x) is analytic for
    |Im x| < pi / s, so the spacing in t stays at most 0.5 and the
    rule's error near exp(-4 pi^2), 7e-18. Every part with s <= 1 gets
    the same 49 nodes.
    """
    bad = np.flatnonzero(~(s <= MAX_NOISE_SD))
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"part {i}: the noise activation's sd under the posterior is "
            f"{s[i]:.6g}, outside the noise-head quadrature's range "
            f"[0, {MAX_NOISE_SD:g}]")
    refine = np.ceil(np.maximum(s, 1.0))
    out = np.empty(len(s))
    for r in np.unique(refine).astype(int).tolist():
        h = 0.5 / r
        x = np.arange(-24 * r, 24 * r + 1) * h
        w = h / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * x * x)
        parts = np.flatnonzero(refine == r)
        # elementwise in slices of parts, reusing t and e for each
        step = max(1, _SLICE_VALUES // len(x))
        t_buf, e_buf = np.empty((2, min(step, len(parts)), len(x)))
        for i in range(0, len(parts), step):
            rows = parts[i:i + step]
            t, e = t_buf[:len(rows)], e_buf[:len(rows)]
            np.multiply.outer(s[rows], x, out=t)
            t += m[rows, None]
            softplus(t, e, e, out=t)
            t += NOISE_FLOOR
            np.square(t, out=t)
            t *= w
            out[rows] = t.sum(axis=1)
    return out
