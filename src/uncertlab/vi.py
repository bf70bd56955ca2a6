"""Gaussian variational inference for the virtual-measurement model.

The exact weight posterior p(w | data) is intractable for the
heteroscedastic model, so it is approximated with a Gaussian family
q(w) = N(mu, L L'), mean-field (diagonal L) or full-rank (dense
lower-triangular L). Training minimizes the variational free energy

    F(q) = KL[q || p(w)] - E_q[log p(y | x, w)],

whose minimizer also minimizes the KL divergence to the true posterior
(the evidence term does not depend on q).

A fixed noise sd makes the posterior Gaussian, and training returns it
exactly, full-rank, from one QR of the design's R factor and the prior
(:func:`conjugate_posterior`). A learned noise level runs Adam
(:func:`optimize`) in either family, as follows. Both families share one
parameter matrix M = [mu | L], P x (P + 1); Adam walks on theta =
[mu | log diag L | strict lower triangle of L (full-rank only)], and
one table of flat indices per family writes theta into M (``put``) and
reads the gradient back (``take``), so mean-field is the M whose
off-diagonal L stays 0 and a step has one path for both. The KL against
the isotropic N(0, tau^2 I) prior is closed form, and so is its
gradient: M / tau^2 in M, and -1 from -ln det L on each of theta's
log-diagonal entries. The expected log-likelihood's gradient is
estimated by reparameterized draws w = [1 | z] M' with z standard
normal, which turns it into G'[1 | z] for the per-draw likelihood
gradients G. No autograd framework is involved: a step writes the
chain out and returns the gradient alone, and the test suite holds it
against central finite differences of a free-energy estimate of its
own at the same draws. Training's stop rule and its report read the
exact F of :func:`free_energy`, once per window. A run sets its step
up once: the index table, the likelihood gradient with its workspace
(the fixed-noise R-factor product or the learned-noise kernel of
:class:`~uncertlab.regression.DesignMatrices`, on the one design
training builds) and a workspace holding M, exp of L's diagonal, w and
G'[1 | z], so a step does only its arithmetic. The draws of a block of
steps come from one call to the generator, in the order one call per
step would give, written once as [1 | z] rows: one (steps, S, P + 1)
array whose column 0 is 1. :func:`optimize` binds Adam's constants,
numpy's functions and the row views of that array before its loop.

At the P = 3 of ``verify`` a step's cost is numpy's dispatch, not its
arithmetic, about 0.4 us per call: 24 numpy calls, 16.6 us a step on 2
vCPUs. w = [1 | z] M' goes through ``np.dot``, which reaches the same
BLAS dgemm as ``np.matmul`` with about 0.3 us less dispatch, and gives
the same bits at P = 1 to 1,024. G'[1 | z] stays on ``np.matmul``:
through ``np.dot`` that product is slower from P of about 231 on
(180 us against 101 us at P = 462).

Adam (Kingma & Ba, 2015) runs in the form of their section 2, which
rearranges their Algorithm 1: m <- b1 m + (1 - b1) g and
v <- b2 v + (1 - b2) g g, then theta <- theta - a_t m / (sqrt(v) + e_t)
with a_t = lr sqrt(1 - b2^t) / (1 - b1^t), e_t = eps sqrt(1 - b2^t).
The step size lr is constant or follows a cosine schedule, from
q = N(mu0, s^2 I) with s the constant ``_INIT_SCALE`` = 0.1. Every
random draw comes from one seeded Philox substream, so training is
bit-reproducible. :func:`optimize` states the stop rule.

Prediction reads each part's moments off q = N(mu, L L'), draws
nothing, and returns the propagation side's
:class:`~uncertlab.propagation.MeasurementResult` with method
``virtual``. The epistemic part V_q[f(x; w)] of the mean head
f = phi'w_mu is exact, as is its mean. The aleatoric part
E_q[sigma_n^2(x; w)] is a fixed sigma^2, or a 1-D expectation over
the noise activation t = psi'w_sigma ~ N(m, s^2), taken by the
trapezoid rule in the standardised variable (t - m) / s. That rule
converges exponentially for this analytic integrand (Trefethen &
Weideman, SIAM Review 56, 2014); its nodes depend only on the part's
own s. Every product runs in numpy's own loops, not BLAS, so each of a
part's numbers is the same to the bit whichever batch it is predicted
in, alone or among others. The two parts add up exactly to u^2.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (ConfigError, DatasetError, DivergenceError,
                     DomainError, require_integer, require_positive)
from .propagation import _DEFAULT_K, MeasurementResult, _mean_and_sd
from .regression import (_HALF_LOG_2PI, NOISE_FLOOR, BayesianVMModel,
                         DesignMatrices, inv_softplus, softplus)
from .rng import substream

__all__ = [
    "VariationalPosterior",
    "VIConfig",
    "TrainResult",
    "kl_gaussian",
    "pack_posterior",
    "unpack_posterior",
    "free_energy",
    "conjugate_posterior",
    "optimize",
    "train_vi",
    "predict_parts",
]

FAMILIES = ("mean_field", "full_rank")
SCHEDULES = ("constant", "cosine")

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
        if np.any(self.diagonal <= 0.0):
            raise ConfigError("scale diagonal must be strictly positive")
        if full and np.any(np.triu(self.scale, k=1) != 0.0):
            raise ConfigError("full_rank scale must be lower-triangular")

    @property
    def n_weights(self) -> int:
        return len(self.mu)

    @property
    def diagonal(self) -> np.ndarray:
        """L's diagonal, for either family, without a P x P matrix."""
        full = self.family == "full_rank"
        return self.scale.diagonal() if full else self.scale

    @property
    def factor(self) -> np.ndarray:
        """L as a P x P matrix, for either family."""
        full = self.family == "full_rank"
        return self.scale if full else np.diag(self.scale)

    def covariance(self) -> np.ndarray:
        factor = self.factor
        return factor @ factor.T


@dataclass(frozen=True)
class VIConfig:
    """Knobs of the stochastic optimizer; defaults are the shipped ones.

    Every field steers Adam, which only a learned noise level runs; a
    fixed-noise model reads none of them, ``family`` included.
    """

    family: str = "mean_field"
    learning_rate: float = 1e-2
    schedule: str = "constant"          # one of SCHEDULES
    n_mc: int = 8
    max_steps: int = 20000
    tolerance: float = 1e-5
    window: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown variational family {self.family!r}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        require_positive("learning_rate", self.learning_rate)
        for name in ("n_mc", "max_steps", "window"):
            require_integer(name, getattr(self, name), 1)
        require_integer("seed", self.seed, 0)
        if not 0.0 <= self.tolerance < math.inf:
            raise ConfigError(
                f"tolerance must be >= 0 and finite, got {self.tolerance}")


def _check_weights(model: BayesianVMModel, q: VariationalPosterior) -> None:
    """Refuse a posterior whose weight count is not the model's."""
    if q.n_weights != model.n_weights:
        raise ConfigError(f"posterior has {q.n_weights} weights, model "
                          f"expects {model.n_weights}")


def kl_gaussian(q: VariationalPosterior, prior_tau: float) -> float:
    """Closed-form KL[q || N(0, tau^2 I)].

    (1/2) [ (|mu|^2 + tr(L L')) / tau^2 - P + P ln tau^2 ] - ln det L,
    where |mu|^2 + tr(L L') is |M|_F^2 for M = [mu | L].
    """
    require_positive("prior tau", prior_tau)
    p = q.n_weights
    tau2 = prior_tau**2
    norm2 = float(q.mu @ q.mu) + float(np.vdot(q.scale, q.scale))
    logdet = float(np.log(q.diagonal).sum())
    return 0.5 * (norm2 / tau2 - p + p * math.log(tau2)) - logdet


# ---------------------------------------------------------------------------
# Unconstrained parameterization and the training step
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _index_table(family: str, p: int) -> np.ndarray:
    """Read-only flat indices of theta's entries in the C-ordered
    P x (P + 1) matrix M = [mu | L]: mu, L's diagonal, and for
    full_rank L's strict lower triangle. Built once per family and P;
    every step puts theta and takes the gradient through it."""
    rows = np.arange(p)
    parts = [rows * (p + 1), rows * (p + 2) + 1]
    if family == "full_rank":
        lower_rows, lower_cols = np.tril_indices(p, k=-1)
        parts.append(lower_rows * (p + 1) + lower_cols + 1)
    index = np.concatenate(parts)
    index.flags.writeable = False
    return index


def pack_posterior(q: VariationalPosterior) -> np.ndarray:
    """Flatten q into the unconstrained vector Adam walks on.

    Layout: [mu | log diag L | strict lower triangle of L (full_rank)].
    """
    p = q.n_weights
    theta = np.column_stack([q.mu, q.factor]).take(_index_table(q.family, p))
    np.log(theta[p:2 * p], out=theta[p:2 * p])
    return theta


def unpack_posterior(family: str, p: int, theta: np.ndarray) -> VariationalPosterior:
    """Inverse of :func:`pack_posterior`."""
    index = _index_table(family, p)
    # put would repeat a short theta without a word
    if len(theta) != len(index):
        raise ConfigError(
            f"{family} parameter vector must have length {len(index)}")
    m = np.zeros((p, p + 1))
    m.put(index, theta)
    d = np.exp(theta[p:2 * p])
    m.put(index[p:2 * p], d)
    scale = m[:, 1:].copy() if family == "full_rank" else d
    return VariationalPosterior(family, m[:, 0].copy(), scale)


def _stepper(design: DesignMatrices, family: str, n: int, prior_tau: float):
    """The gradient dF/dtheta of F's estimate at the n draws z, as
    step(theta, z1) on the (n, P + 1) rows z1 = [1 | z], with its setup
    done once: the index table, the likelihood gradient with its
    workspace and a workspace (M, exp of L's diagonal, w and G'[1 | z])
    that each call, and the gradient it returns, overwrite."""
    p = design.model.n_weights
    index = _index_table(family, p)
    diag = index[p:2 * p]
    likelihood = design._likelihood(n)
    tau2 = prior_tau**2
    m = np.zeros((p, p + 1))        # off the index table M stays 0
    m_t = m.T
    d, grad = np.empty(p), np.empty(len(index))
    d_log = grad[p:2 * p]
    w, gz = np.empty((n, p)), np.empty((p, p + 1))
    exp, dot, matmul = np.exp, np.dot, np.matmul
    divide, subtract, multiply = np.divide, np.subtract, np.multiply

    def step(theta: np.ndarray, z1: np.ndarray) -> np.ndarray:
        m.put(index, theta)
        m.put(diag, exp(theta[p:2 * p], out=d))
        # w = [1 | z] M' by np.dot, G'[1 | z] by np.matmul: see the module
        g = likelihood(dot(z1, m_t, out=w))
        # dF/dM = M / tau^2 - G'[1 | z] / n, then dF/dtheta:
        # d(log d) = d * dF/dd - 1
        matmul(g.T, z1, out=gz)
        divide(gz, n, out=gz)
        divide(m, tau2, out=m)
        subtract(m, gz, out=gz)
        gz.take(index, out=grad, mode="clip")
        multiply(d_log, d, out=d_log)
        subtract(d_log, 1.0, out=d_log)
        return grad

    return step


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainResult:
    """Trained posterior plus the optimization record."""

    posterior: VariationalPosterior  # full_rank if exact
    trajectory: np.ndarray     # exact F at each window end (none if exact)
    n_steps: int
    stop_reason: str           # "exact", "plateau", "worsened" or "max_steps"
    initial_free_energy: float  # exact F at the start (full-rank if exact)
    final_free_energy: float   # exact F of the returned posterior

    @property
    def converged(self) -> bool:
        """True when q is the exact optimum or F reached a plateau."""
        return self.stop_reason in ("exact", "plateau")


def _initial_theta(design: DesignMatrices, family: str) -> np.ndarray:
    model = design.model
    p = model.n_weights
    theta = np.zeros(len(_index_table(family, p)))
    theta[p:2 * p] = math.log(_INIT_SCALE)
    if model.fixed_noise_sd is None:
        # noise-head bias starts at sigma_n ~ sd(y): a sane noise scale
        # keeps early likelihood values bounded. np.std(ddof=1) bit for
        # bit, also where its squares overflow, except where np.mean
        # rounds outside y's range, where the mean is that bound
        y = design.y
        sd_y = max(_mean_and_sd(y, float(np.min(y)), float(np.max(y)))[1],
                   1e-3)
        theta[model.n_mean_weights] = inv_softplus(sd_y)
    return theta


def conjugate_posterior(design: DesignMatrices) -> VariationalPosterior:
    """The exact weight posterior, full-rank, for a fixed noise sd.

    With A, b and shift the design's R factor (already divided by sigma)
    and y offset, log p(y | w) = c - |b - A (w - shift)|^2 / 2, and the
    prior N(0, tau^2 I) adds the rows (w - shift) / tau = -shift / tau.
    With J reversing the P columns, one QR of [[A J, b], [J / tau,
    -shift / tau]], rows signed to a positive diagonal, gives R and a
    last column c: mu = shift + J R^-1 c, and L = J R^-1 J has L L' =
    Lambda^-1, the posterior covariance. LAPACK's LU of the triangle R
    pivots nothing, so L is exactly lower-triangular. The precision
    Lambda is never formed, so no condition is squared.
    """
    model = design.model
    if model.fixed_noise_sd is None:
        raise ConfigError(
            "the closed-form posterior needs a model with fixed_noise_sd set")
    a, b, shift, _ = design._factor
    p, tau = len(shift), model.prior_tau
    r = np.linalg.qr(np.block([[a[:, ::-1], b[:, None]],
                               [np.eye(p)[::-1] / tau,
                                -shift[:, None] / tau]]), mode="r")[:p]
    r *= np.sign(r.diagonal())[:, None]
    x = np.linalg.inv(r[:, :p])
    return VariationalPosterior("full_rank", shift + (x @ r[:, p])[::-1],
                                x[::-1, ::-1].copy())


def free_energy(design: DesignMatrices, q: VariationalPosterior) -> float:
    """F(q), exact, in either noise mode.

    A fixed noise sd gives F in closed form: with the R factor of
    :func:`conjugate_posterior`, E_q |b - A (w - shift)|^2 is
    |b - A (mu - shift)|^2 + |A L|_F^2.

    A learned noise level gives F = KL - sum_i E_q log N(y_i; f, sigma^2)
    with sigma = softplus(t) + NOISE_FLOOR. Per record, f = phi'w_mu and
    t = psi'w_sigma are jointly Gaussian: with a = L_mu'phi and
    b = L_sigma'psi, their means are phi'mu_mu and m = psi'mu_sigma, and
    var f = |a|^2, var t = s^2 = |b|^2, cov = c = a'b (0 for mean-field).
    With t = m + s x, f | x is N(phi'mu_mu + k x, |a|^2 - k^2), k = c / s,
    so each record's term is a 1-D expectation over x ~ N(0, 1), taken by
    predict's trapezoid rule: the doubly stochastic objective of Titsias
    & Lazaro-Gredilla (2014) with its variance taken to 0. A record
    whose s is above ``MAX_NOISE_SD`` or not a number is a DomainError
    that names it.

    An F beyond the double range comes out inf (or NaN, from a NaN
    target value); the callers refuse it.
    """
    model = design.model
    _check_weights(model, q)
    with np.errstate(over="ignore", invalid="ignore"):
        kl = kl_gaussian(q, model.prior_tau)
        if model.fixed_noise_sd is not None:
            a, b, shift, const = design._factor
            e = b - a @ (q.mu - shift)
            spread = a @ q.factor
            return (kl - const
                    + 0.5 * (float(e @ e) + float(np.vdot(spread, spread))))
        p = model.n_mean_weights
        f, spread, var_f, m, b, s = _head_moments(
            q, p, design.phi_mu, design.phi_sigma, np.matmul)
        r = design.y - f
        c = np.einsum("ij,ij->i", spread, b[:, :p])
        k = np.divide(c, s, out=np.zeros_like(c), where=s > 0.0)
        # E[((r - k x)^2 + v) / sigma^2] / 2, v = |a|^2 - k^2, by the
        # rule's sums of x^j / sigma^2 for j = 0, 1, 2
        coef = np.stack([0.5 * (r * r + np.maximum(var_f - k * k, 0.0)),
                         -r * k, 0.5 * k * k], axis=1)

        def expectation(rows, x, w, sigma, spare):
            log_part = np.log(sigma, out=spare) @ w
            np.reciprocal(np.square(sigma, out=sigma), out=sigma)
            powers = sigma @ np.stack([w, w * x, w * x * x], axis=1)
            return log_part + np.einsum("ij,ij->i", coef[rows], powers)

        expected = _noise_expectation(m, s, "record", expectation)
        return kl + float(expected.sum()) + len(r) * _HALF_LOG_2PI


def optimize(design: DesignMatrices, config: VIConfig) -> TrainResult:
    """Minimize the free energy by Adam; returns the posterior and the
    exact F at each window end.

    Adam steps on the gradient alone. The exact F (:func:`free_energy`)
    is taken at the start and after every ``window`` steps; from step
    ``2 * window`` on, each window end's F is compared with the one
    before. Training stops once F no longer falls by at least
    ``tolerance * max(1, |previous F|)``: with ``stop_reason``
    ``"worsened"`` (not converged) if F rose by more than that bound,
    otherwise with ``"plateau"`` (converged). A run that keeps improving
    stops at ``max_steps`` with ``"max_steps"``. Raises
    :class:`~uncertlab.errors.DivergenceError` with the step index if any
    of a step's arithmetic overflows, and with the index of the last
    step taken (0 at the start) if F turns non-finite, a record's noise
    sd leaves the quadrature's range, theta turns non-finite or a scale
    of q ends at exp(log scale) = 0. Runs for either noise mode;
    :func:`train_vi` calls it for a learned one only.
    """
    family, n_mc = config.family, config.n_mc
    p = design.model.n_weights
    theta = _initial_theta(design, family)
    gen = substream(config.seed, 0)
    step_g = _stepper(design, family, n_mc, design.model.prior_tau)

    def exact(n_steps: int) -> float:
        """F of theta after ``n_steps`` steps."""
        step = max(n_steps - 1, 0)
        if not np.all(np.isfinite(theta)):
            raise DivergenceError("the parameters became non-finite", step)
        dead = np.flatnonzero(np.exp(theta[p:2 * p]) == 0.0)
        if dead.size:
            raise DivergenceError(f"the scale of weight {dead[0]} underflowed "
                                  f"to 0 after {n_steps} steps", step)
        try:
            value = free_energy(design, unpack_posterior(family, p, theta))
        except DomainError as err:
            raise DivergenceError(str(err), step) from None
        if not math.isfinite(value):
            raise DivergenceError("free energy became non-finite", step)
        return value

    # z for a block of steps comes from one call: the same normals, in
    # the same order, as one call per step, written once as [1 | z] rows
    block = max(1, _SLICE_VALUES // (n_mc * p))
    z1s = np.empty((min(block, config.max_steps), n_mc, p + 1))
    z1s[:, :, 0] = 1.0
    z1_rows = list(z1s)
    # Adam's (m; v) and the step's ((1 - b1) g; (1 - b2) g g) as one
    # array each, updated in place in the order of the out-of-place form
    moments = np.zeros((2, len(theta)))
    m, v = moments
    scaled = np.empty_like(moments)
    scaled_v = scaled[1]
    decay = np.array([[_ADAM_BETA1], [_ADAM_BETA2]])
    gain = 1.0 - decay
    step_buf, denom = np.empty_like(moments)
    b1, b2, eps = _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS
    lr, cosine = config.learning_rate, config.schedule == "cosine"
    max_steps, w = config.max_steps, config.window
    multiply, add, divide, subtract = (np.multiply, np.add, np.divide,
                                       np.subtract)
    sqrt, msqrt, cos, pi = np.sqrt, math.sqrt, math.cos, math.pi
    initial = exact(0)
    trajectory = []
    stop_reason = "max_steps"
    n_steps = 0

    def overflowed(kind, flag):
        # an infinite v would freeze theta with every F still finite
        raise DivergenceError(f"arithmetic {kind} in a training step", step)

    with np.errstate(over="call", call=overflowed):
        for step in range(max_steps):
            if step % block == 0:
                rows = min(block, max_steps - step)
                z1s[:rows, :, 1:] = gen.standard_normal((rows, n_mc, p))
            grad = step_g(theta, z1_rows[step % block])
            n_steps = step + 1

            # (m; v) = decay (m; v) + (1 - decay) (g; g g), then
            # theta -= a_t m / (sqrt(v) + e_t)
            multiply(gain, grad, out=scaled)
            multiply(scaled_v, grad, out=scaled_v)
            multiply(moments, decay, out=moments)
            add(moments, scaled, out=moments)
            rate = lr
            if cosine:
                rate = rate * 0.5 * (1.0 + cos(pi * (step / max_steps)))
            root = msqrt(1.0 - b2 ** n_steps)
            rate = rate * root / (1.0 - b1 ** n_steps)
            multiply(m, rate, out=step_buf)
            sqrt(v, out=denom)
            add(denom, eps * root, out=denom)
            divide(step_buf, denom, out=step_buf)
            subtract(theta, step_buf, out=theta)

            if n_steps % w == 0:
                trajectory.append(exact(n_steps))
                if n_steps >= 2 * w:
                    prev = trajectory[-2]
                    rise = trajectory[-1] - prev
                    bound = config.tolerance * max(1.0, abs(prev))
                    if rise > -bound:
                        stop_reason = "worsened" if rise > bound else "plateau"
                        break

    final = trajectory[-1] if n_steps % w == 0 else exact(n_steps)
    return TrainResult(
        posterior=unpack_posterior(family, p, theta),
        trajectory=np.array(trajectory),
        n_steps=n_steps,
        stop_reason=stop_reason,
        initial_free_energy=initial,
        final_free_energy=final,
    )


def train_vi(model: BayesianVMModel, data: Dataset,
             config: VIConfig = VIConfig()) -> TrainResult:
    """Fit q to the weight posterior on ``data``.

    A learned noise level runs :func:`optimize` in ``config.family``. A
    fixed noise sd reads no field of ``config`` and returns the exact
    posterior (:func:`conjugate_posterior`) with ``stop_reason``
    ``"exact"``, no steps, an empty trajectory and the exact F at the
    full-rank start Adam would use and at the posterior.
    """
    if data.n_records < 2:
        raise DatasetError(
            f"training needs at least 2 records, got {data.n_records}")
    if model.fixed_noise_sd is None and data.summary.target.sd == 0.0:
        raise DatasetError(
            "all target values are identical; the noise level is not "
            "identifiable (fix the noise sd to train anyway)")

    design = model.design(data)
    if model.fixed_noise_sd is None:
        return optimize(design, config)
    start = unpack_posterior("full_rank", model.n_weights,
                             _initial_theta(design, "full_rank"))
    q = conjugate_posterior(design)
    initial, final = (free_energy(design, post) for post in (start, q))
    for f in (initial, final):
        if not math.isfinite(f):
            raise DomainError(f"the free energy is {f}: its sums of squares "
                              f"leave the double range")
    return TrainResult(q, np.empty(0), 0, "exact", initial, final)


# ---------------------------------------------------------------------------
# Posterior prediction
# ---------------------------------------------------------------------------

def predict_parts(
    model: BayesianVMModel,
    q: VariationalPosterior,
    x: np.ndarray,
    k: float = _DEFAULT_K,
) -> MeasurementResult:
    """The virtual measurement of each row of ``x`` (parts, features):
    posterior predictive moments, one column entry per row.

    With L_mu, L_sigma the mean-head and noise-head rows of L, y =
    phi'mu_mu and u^2 = aleatoric_var + epistemic_var, epistemic_var =
    |L_mu'phi|^2. A fixed noise sd gives aleatoric_var = sigma^2.
    Otherwise aleatoric_var is E[(softplus(t) + NOISE_FLOOR)^2] over
    t ~ N(m, s^2), m = psi'mu_sigma, s = |L_sigma'psi|, by a trapezoid
    rule that depends on s alone; where the squares of L_sigma'psi
    overflow, s is taken without squaring. A part with a feature outside
    the double range, with s above ``MAX_NOISE_SD`` or not a number, or
    with u^2 beyond the double range, is a DomainError that names the
    part by its row index.
    """
    require_positive("coverage factor k", k)
    _check_weights(model, q)
    x = np.asarray(x, dtype=np.float64)

    phi, psi = model.features(x, "part", DomainError)
    y, spread, epistemic, m, _, s = _head_moments(q, model.n_mean_weights,
                                                  phi, psi)
    # a number that overflows comes out inf, which the report refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if psi is not None:
            aleatoric = _noise_expectation(m, s, "part", _second_moment)
        else:
            aleatoric = np.full(len(x), model.fixed_noise_sd**2)
        u2 = aleatoric + epistemic
        u = np.sqrt(u2)
        interval = (y - k * u, y + k * u)
    over = np.flatnonzero(u2 == np.inf)
    if over.size:
        # u itself, taken without squaring
        i = int(over[0])
        u_i = math.hypot(math.sqrt(aleatoric[i]),
                         float(np.hypot.reduce(spread[i])))
        raise DomainError(f"part {i}: u is {u_i:.6g} under the posterior, "
                          f"and u^2 leaves the double range")
    return MeasurementResult(y, u, k, interval, "virtual",
                             aleatoric_var=aleatoric, epistemic_var=epistemic)


def _second_moment(rows, x, w, sigma, spare):
    """E[sigma^2] by the rule's weights, in numpy's own loops."""
    np.square(sigma, out=sigma)
    sigma *= w
    return sigma.sum(axis=1)


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in numpy's own loops, which give a row of a the same bits
    in any batch; BLAS picks its kernels by the batch's shape."""
    return np.einsum("ij,jk->ik" if b.ndim == 2 else "ij,j->i", a, b)


def _head_moments(q: VariationalPosterior, p: int, phi: np.ndarray,
                  psi, product=_rowwise) -> tuple:
    """Under q, for each row of the feature matrices: the mean head's
    phi'mu_mu, L_mu'phi and its squared norm, and with ``psi`` the noise
    activation's psi'mu_sigma, b = L_sigma'psi and sd s = |b| (None
    without). Where the squares of b overflow, s is taken without
    squaring. ``product`` forms the matrix products. A number that
    overflows comes out inf."""
    chol = q.factor
    m = b = s = None
    with np.errstate(over="ignore", invalid="ignore"):
        f = product(phi, q.mu[:p])
        # L is lower-triangular: the mean-head rows end at column p
        spread = product(phi, chol[:p, :p])
        var_f = np.square(spread).sum(axis=1)
        if psi is not None:
            m = product(psi, q.mu[p:])
            b = product(psi, chol[p:])
            s = np.sqrt(np.square(b).sum(axis=1))
            big = np.flatnonzero(s == np.inf)
            s[big] = np.hypot.reduce(b[big], axis=1)
    return f, spread, var_f, m, b, s


def _noise_expectation(m: np.ndarray, s: np.ndarray, what: str,
                       expectation) -> np.ndarray:
    """An expectation over t = m + s x, x ~ N(0, 1), for each row, of
    a function of x and sigma = softplus(t) + NOISE_FLOOR.

    The trapezoid rule in x on |x| <= 12, beyond which the normal
    density is below 1e-31 of its peak, with spacing
    h = 0.5 / ceil(max(s, 1)). softplus(m + s x) is analytic for
    |Im x| < pi / s, and so are log sigma and 1 / sigma, so the spacing
    in t stays at most 0.5 and the rule's error near exp(-4 pi^2),
    7e-18. Every row with s <= 1 gets the same 49 nodes.
    ``expectation(rows, x, w, sigma, spare)`` gets the rows of a slice,
    the nodes and their weights, sigma at them and a spare array of
    sigma's shape, either of which it may overwrite, and returns the
    rule's sum for each row. A row with s above ``MAX_NOISE_SD`` or not
    a number is a DomainError that names it as ``what`` and its index.
    """
    bad = np.flatnonzero(~(s <= MAX_NOISE_SD))
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"{what} {i}: the noise activation's sd under the posterior is "
            f"{s[i]:.6g}, outside the noise-head quadrature's range "
            f"[0, {MAX_NOISE_SD:g}]")
    refine = np.ceil(np.maximum(s, 1.0))
    out = np.empty(len(s))
    for r in np.unique(refine).astype(int).tolist():
        h = 0.5 / r
        x = np.arange(-24 * r, 24 * r + 1) * h
        w = h / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * x * x)
        group = np.flatnonzero(refine == r)
        # elementwise in slices of rows, reusing t and e for each
        step = max(1, _SLICE_VALUES // len(x))
        t_buf, e_buf = np.empty((2, min(step, len(group)), len(x)))
        for i in range(0, len(group), step):
            rows = group[i:i + step]
            t, e = t_buf[:len(rows)], e_buf[:len(rows)]
            np.multiply.outer(s[rows], x, out=t)
            t += m[rows, None]
            softplus(t, e, e, out=t)
            t += NOISE_FLOOR
            out[rows] = expectation(rows, x, w, t, e)
    return out
