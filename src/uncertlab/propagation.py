"""Uncertainty propagation through a measurement model.

Four methods turn a model plus its joint input distribution into an
expected value y, a standard uncertainty u(Y), and a coverage interval:

- ``analytic``: exact mean/variance for affine models; with Gaussian
  inputs the output is exactly Gaussian, so the interval is exact at
  the requested coverage. Affinity is read from the parsed tree
  (:func:`~uncertlab.expr.affinity`), so a model whose terms only
  cancel, such as ``X1 * X2 / X2``, is refused.
- ``taylor1``: the first-order law of propagation of uncertainty
  (JCGM 100:2008 eqs. 13 and 16) with c the gradient at the input
  means; on an affine model it is ``analytic`` bit for bit.
- ``taylor2``: adds the second-order correction
  sum_ij [ (1/2) (d2f/dx_i dx_j)^2 + (df/dx_i)(d3f/dx_i dx_j^2) ]
  u^2(x_i) u^2(x_j) on top of the first-order sum, which repairs
  first-order blind spots such as a vanishing gradient. It needs
  independent inputs.
- ``monte_carlo``: samples the joint input model, evaluates the model
  per draw, and reports the sample mean, unbiased sample standard
  deviation, and the probabilistically symmetric coverage interval of
  JCGM 101:2008 7.7.2 read off the sorted evaluations.

The series read u^2 = a' R a, a_i = c_i u(x_i) and R the correlation,
as the norm (``math.hypot``) of a, or of a L with L R's Cholesky factor:
no input's u is squared, so u is right wherever it is itself a double,
and an exactly known input (u_i = 0) adds 0 even if its c_i overflowed.

Monte Carlo runs are deterministic in (model, inputs, M, seed): draws
are striped into fixed-size chunks with one Philox substream per chunk
index, and each chunk is drawn and evaluated one cache-sized block of
rows after the other, each block continuing the chunk's stream. Each
available core takes one contiguous span of about M / workers rows of
blocks, so the workers finish together; one that starts inside a chunk
advances the chunk's stream past the earlier blocks' draws. Each block
goes to its fixed offset of one preallocated sample vector as value +
0.0, which stores a -0.0 as 0.0. Once every span is in, the vector is
partitioned in place at ranks w M / workers and each worker sorts one
piece. With no -0.0 left, finite values that compare equal have equal
bits, so the sorted sample depends only on M, never on the worker count
or on which thread finished first. Evaluations outside the model's
domain come back non-finite; sorting puts them at the ends, so the
finite ones are a slice of the vector, counted, not copied. A Gaussian
draw beyond the double range fails the same way (no other draw can),
and failures in over 1% of the draws abort the run with a diagnostic
that names such inputs. The mean and standard deviation are numpy's bit
for bit, with no M-sized copy: a run holds 8 bytes per draw plus one
block of draws and its temporaries per worker. A statistic whose sum
leaves the double range is taken again on the values scaled by a power
of two, exactly. ``concurrent.futures`` is imported by the first Monte
Carlo run, so the other methods never load it.

Every method returns a :class:`MeasurementResult`, the type a virtual
measurement (:func:`~uncertlab.vi.predict_parts`) returns too.
Expanded uncertainty is U = k u(Y), with the k the caller resolved
(:func:`resolve_coverage` turns a coverage into its two-sided Gaussian
factor); the default k = 2 implies 95.45% Gaussian coverage, for every
method. Monte Carlo also takes ``coverage`` for its empirical interval.
"""

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .autodiff import DerivativeBundle, derivatives
from .distributions import JointInputModel, sample
from .errors import (ConfigError, MonteCarloError, require_integer,
                     require_positive)
from .expr import MeasurementModelExpr, affinity, evaluate_batch
from .rng import substream

__all__ = [
    "MeasurementResult",
    "MCDiagnostics",
    "EmpiricalCDF",
    "propagate_analytic",
    "propagate_taylor1",
    "propagate_taylor2",
    "propagate_monte_carlo",
    "implied_coverage",
    "resolve_coverage",
    "sensitivity_budget",
    "MC_CHUNK_SIZE",
]

# Fixed chunk width for Monte Carlo draws. Part of the reproducibility
# contract: chunk boundaries depend only on M, never on parallelism.
MC_CHUNK_SIZE = 65536

# Values in one block of draws, drawn and evaluated by Monte Carlo at
# once: a block's temporaries fit in cache, numpy's per-call cost is small.
_BLOCK_VALUES = 65536

# Default coverage factor of every method; it implies erf(2 / sqrt(2)).
_DEFAULT_K = 2.0


@dataclass(frozen=True)
class MCDiagnostics:
    """Monte Carlo run diagnostics attached to the result."""

    M: int
    mc_standard_error: float
    domain_error_count: int


@dataclass(frozen=True)
class MeasurementResult:
    """A physical or virtual measurement: y, u(Y), and U = k*u.

    A propagated result holds floats. A ``virtual`` one, from
    :func:`~uncertlab.vi.predict_parts`, holds a column entry per part
    and splits u^2 into ``aleatoric_var`` plus ``epistemic_var``. The
    interval is y +/- U, except for monte_carlo: there it is the
    equal-tail interval of the empirical output distribution at the
    run's coverage. Analytic and Taylor results also keep the gradient
    at the input means, which :func:`sensitivity_budget` reads; reports
    omit it.
    """

    y: Any
    u: Any
    k: float
    interval: tuple[Any, Any]
    method: str
    mc_diagnostics: Optional[MCDiagnostics] = None
    aleatoric_var: Optional[np.ndarray] = None
    epistemic_var: Optional[np.ndarray] = None
    grad: Optional[np.ndarray] = field(default=None, repr=False,
                                       compare=False)

    @property
    def U(self) -> Any:
        """Expanded uncertainty k * u."""
        return self.k * self.u


@dataclass(frozen=True)
class EmpiricalCDF:
    """Sorted model evaluations representing the output distribution."""

    sorted_values: np.ndarray

    def interval(self, p: float) -> tuple[float, float]:
        """Probabilistically symmetric coverage interval for probability p.

        JCGM 101:2008 7.7.2 in integers: q = floor(p*M + 1/2) and
        r = floor((M - q + 1)/2) give [y_(r), y_(r+q)], 1-based ranks
        clamped to 1..M.
        """
        if not 0.0 < p < 1.0:
            raise ConfigError(f"coverage must lie in (0, 1), got {p}")
        m = len(self.sorted_values)
        q = math.floor(p * m + 0.5)
        r = (m - q + 1) // 2
        return (float(self.sorted_values[max(r, 1) - 1]),
                float(self.sorted_values[min(r + q, m) - 1]))

    def cdf(self, x: float) -> float:
        """Fraction of evaluations <= x."""
        m = len(self.sorted_values)
        return float(np.searchsorted(self.sorted_values, x, side="right")) / m


def implied_coverage(k: float) -> float:
    """Two-sided Gaussian coverage probability implied by k: 2*Phi(k) - 1,
    taken as erf(k / sqrt(2)), which needs no subtraction and so keeps
    its relative precision down to the smallest k."""
    return math.erf(k / math.sqrt(2.0))


def resolve_coverage(k: float,
                     coverage: Optional[float]) -> tuple[float, float]:
    """The (k, coverage) pair of one choice: an explicit coverage wins
    and fixes k as sqrt(2) erfinv(coverage), the exact inverse of
    :func:`implied_coverage`; otherwise k implies that coverage."""
    if coverage is not None:
        if not 0.0 < coverage < 1.0:
            raise ConfigError(f"coverage must lie in (0, 1), got {coverage}")
        from scipy.special import erfinv
        return math.sqrt(2.0) * float(erfinv(coverage)), float(coverage)
    require_positive("coverage factor k", k)
    return float(k), implied_coverage(k)


def _output_units(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """a_i = c_i u_i, exactly 0 wherever u_i = 0; an overflow is an inf."""
    with np.errstate(over="ignore"):
        return np.multiply(c, u, out=np.zeros_like(c), where=u != 0.0)


def _second_order(u1: float, a: np.ndarray, bundle: DerivativeBundle,
                  u: np.ndarray) -> float:
    """u with the second-order terms of the inputs with u_i > 0, formed
    from h_ij = H_ij u_i u_j and t_ij = T_ij u_i u_j^2 in units of
    g = sqrt(u1^2 + sum h^2 / 2): u^2 = g^2 (1 + sum_ij a_i t_ij / g^2)."""
    live = np.flatnonzero(u)
    ul, block = u[live], np.ix_(live, live)
    with np.errstate(over="ignore"):
        h = bundle.hess[block] * ul[:, None] * ul
        t = bundle.third_mixed[block] * ul[:, None] * ul * ul
    g = math.hypot(u1, *(h.ravel() * math.sqrt(0.5)))
    if not 0.0 < g < math.inf:
        return g
    cross = float((a[live] / g) @ (t / g).sum(axis=1))
    if cross < -1.0:
        raise ConfigError("second-order Taylor variance is negative "
                          f"({g * g * (1.0 + cross):.6g}); the expansion is "
                          "invalid here, use monte_carlo")
    return g * math.sqrt(1.0 + cross)


def _series(expr: MeasurementModelExpr, joint: JointInputModel, k: float,
            method: str, order: int) -> MeasurementResult:
    """y +/- k*u from one derivative bundle at the input means: u^2 =
    a' R a (JCGM 100 eq. 16); order 3 adds the second-order terms."""
    require_positive("coverage factor k", k)
    bundle = derivatives(expr, dict(zip(joint.names, joint.means)),
                         order=order, variables=joint.names)
    a = _output_units(bundle.grad, joint.u)
    u = math.hypot(*(a if joint.chol is None else a @ joint.chol))
    if order == 3:
        u = _second_order(u, a, bundle, joint.u)
    y = bundle.value
    return MeasurementResult(y, u, k, (y - k * u, y + k * u), method,
                             grad=bundle.grad)


def propagate_analytic(
    expr: MeasurementModelExpr,
    joint: JointInputModel,
    k: float = _DEFAULT_K,
) -> MeasurementResult:
    """Exact propagation for affine models.

    y = f(mu) and u^2 = a' R a with a_i = c_i u(x_i), c the (constant)
    gradient and R the input correlation. Inputs must be independent or
    jointly Gaussian, which the joint model already guarantees by
    construction.
    """
    if affinity(expr.root) > 1:
        raise ConfigError(
            "analytic propagation requires an affine model: a sum of "
            "inputs times constant factors; use taylor1, taylor2 or "
            "monte_carlo")
    return _series(expr, joint, k, "analytic", order=1)


def propagate_taylor1(
    expr: MeasurementModelExpr,
    joint: JointInputModel,
    k: float = _DEFAULT_K,
) -> MeasurementResult:
    """First-order law of propagation of uncertainty at the input means:
    u^2 = a' R a with a_i = c_i u(x_i), correlated inputs included."""
    return _series(expr, joint, k, "taylor1", order=1)


def propagate_taylor2(
    expr: MeasurementModelExpr,
    joint: JointInputModel,
    k: float = _DEFAULT_K,
) -> MeasurementResult:
    """Second-order Taylor propagation over independent inputs.

    y is f(mu), the model at the input means as in taylor1, not the
    second-order mean f(mu) + sum_i H_ii u_i^2 / 2. Only u takes the
    second-order terms: the Hessian and mixed-third-derivative
    correction to the first-order variance. The truncated series can
    turn negative far from the expansion point; that is reported as an
    error instead of a clamped number, since it means the expansion is
    not trustworthy.
    """
    if joint.correlation is not None:
        raise ConfigError(
            "taylor2 propagation assumes independent inputs; remove the "
            "correlation matrix or use the analytic, taylor1 or "
            "monte_carlo method")
    return _series(expr, joint, k, "taylor2", order=3)


def block_rows(n_inputs: int) -> int:
    """Rows of ``n_inputs`` values in one block; at least one."""
    return max(1, _BLOCK_VALUES // n_inputs)


def _available_cores() -> int:
    """Cores this process may run on (all cores where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pairwise_sum(x: np.ndarray, scratch: np.ndarray, exponent: int = 0,
                  mean: Optional[float] = None) -> float:
    """The sum of x 2^exponent, or of (x 2^exponent - mean)^2, as
    np.mean and np.std add x and (x - mean)^2, with no len(x)-sized
    temporary: split as numpy's pairwise sum splits (n // 2 rounded down
    to a multiple of 8) until a part fits ``scratch`` (>= 128 values),
    where numpy sums the part's terms."""
    n = len(x)
    if n > len(scratch):
        half = n // 2 - n // 2 % 8
        return (_pairwise_sum(x[:half], scratch, exponent, mean)
                + _pairwise_sum(x[half:], scratch, exponent, mean))
    d = np.ldexp(x, exponent, out=scratch[:n]) if exponent else x
    if mean is not None:
        d = np.subtract(d, mean, out=scratch[:n])
        np.square(d, out=d)
    return np.add.reduce(d)


def _mean_and_sd(values: np.ndarray, lo: float,
                 hi: float) -> tuple[float, float]:
    """np.mean and np.std(ddof=1) of the finite ``values``, whose least
    and greatest are ``lo`` and ``hi``, bit for bit. A sum beyond the
    double range (values near 1e308, spreads beyond about 1e154 or below
    about 1e-154) is taken again on the values times 2^-e, 2^e above
    every |value|: a power of two scales exactly, so the statistic is
    numpy's without the exponent limit."""
    n = len(values)
    scratch = np.empty(min(n, block_rows(1)))
    e = math.frexp(max(-lo, hi))[1]
    with np.errstate(over="ignore", invalid="ignore"):
        y = float(np.mean(values))
        if not math.isfinite(y):
            y = math.ldexp(_pairwise_sum(values, scratch, -e) / n, e)
        ss = _pairwise_sum(values, scratch, mean=y)
        if n * sys.float_info.min <= ss < math.inf:
            return y, math.sqrt(ss / (n - 1))
        ss = _pairwise_sum(values, scratch, -e, math.ldexp(y, -e))
        # a u beyond the double range comes back inf
        return y, float(np.ldexp(math.sqrt(ss / (n - 1)), e))


def propagate_monte_carlo(
    expr: MeasurementModelExpr,
    joint: JointInputModel,
    M: int = 200_000,
    seed: int = 0,
    coverage: Optional[float] = None,
    k: Optional[float] = None,
) -> tuple[MeasurementResult, EmpiricalCDF]:
    """Monte Carlo propagation with an empirical coverage interval.

    Returns the result together with the sorted evaluations. A given
    ``k`` is reported as is, U = k*u, and the interval covers
    ``coverage``, by default the Gaussian 2*Phi(k) - 1 (from k ~ 8.4 up
    that rounds to 1: the whole sample). Without ``k`` it is the
    Gaussian factor for ``coverage``, or the default k and the coverage
    it implies when neither is given. The interval itself is empirical
    and keeps any asymmetry of the output distribution.
    """
    require_integer("Monte Carlo sample count M", M, 100)
    require_integer("seed", seed, 0)
    if k is not None and coverage == implied_coverage(k):
        coverage = None  # k's own coverage, not a separate choice
    gaussian_k, coverage = resolve_coverage(
        _DEFAULT_K if k is None else k, coverage)
    k = gaussian_k if k is None else k
    require_positive("coverage factor k", k)

    values = np.empty(M)
    rows, C = block_rows(len(joint)), MC_CHUNK_SIZE
    # block starts in chunk order; no block crosses a chunk boundary
    starts = [lo for c in range(0, M, C)
              for lo in range(c, min(c + C, M), rows)]

    def run_span(span: list[int]) -> None:
        """Draw and evaluate each block starting in ``span`` into its slice."""
        for lo in span:
            ci, skip = divmod(lo, C)
            if not skip or lo == span[0]:
                # a span starting inside a chunk skips the earlier blocks'
                # uniforms: a Philox step makes 4 words, a double takes 1
                rng = substream(seed, ci)
                rng.bit_generator.advance(skip * len(joint) // 4)
                rng.random(skip * len(joint) % 4)
            # a Gaussian draw beyond the double range is an inf, counted
            # as a failed evaluation
            with np.errstate(over="ignore"):
                draws = sample(joint, min(rows, ci * C + C - lo, M - lo), rng)
            cols = dict(zip(joint.names, draws.T))
            # + 0.0 stores a -0.0 as 0.0: zeros sort alike in any split
            np.add(evaluate_batch(expr, cols, len(draws)), 0.0,
                   out=values[lo:lo + len(draws)])

    from concurrent.futures import ThreadPoolExecutor

    # Worker w takes the blocks from the start nearest w M / workers on;
    # there are no more workers than M has full blocks. The calling
    # thread takes span 0: a helper thread's malloc arena keeps its
    # memory after the thread exits, so fewer helpers hold less memory.
    workers = max(1, min(_available_cores(), M // rows))
    at = np.array(starts) * workers
    cuts = [int(np.abs(at - w * M).argmin()) for w in range(workers)]
    spans = [starts[a:b] for a, b in zip(cuts, cuts[1:] + [len(starts)])]
    ranks = [M * w // workers for w in range(workers + 1)]
    pieces = [values[a:b] for a, b in zip(ranks, ranks[1:])]
    pool = ThreadPoolExecutor(max(workers - 1, 1))

    def each(task, items: list) -> None:
        """Run ``task`` on every item, the first on the calling thread."""
        helped = [pool.submit(task, item) for item in items[1:]]
        task(items[0])
        for f in helped:
            f.result()

    try:
        each(run_span, spans)
        if workers > 1:
            values.partition(ranks[1:-1])
        each(np.ndarray.sort, pieces)
    finally:
        pool.shutdown(cancel_futures=True)

    # numpy sorts -inf first and +inf and NaN last, so the finite
    # evaluations are one slice of the sorted buffer: no filtered copy
    values = values[np.searchsorted(values, -np.inf, "right"):
                    np.searchsorted(values, np.inf, "left")]
    n_valid = len(values)
    n_errors = M - n_valid
    if n_errors > 0.01 * M:
        # only a Gaussian draw can overflow: redraw chunk 0's first block
        with np.errstate(over="ignore"):
            draws = sample(joint, min(rows, M), substream(seed, 0))
        bad = ", ".join(name for name, col in zip(joint.names, draws.T)
                        if not np.isfinite(col).all())
        raise MonteCarloError(
            f"{n_errors} of {M} Monte Carlo draws ({n_errors / M:.1%}) "
            f"failed: draws of {bad} leave the double range before the "
            "model is evaluated" if bad else
            f"{n_errors} of {M} model evaluations ({n_errors / M:.1%}) hit "
            "domain errors; the input distributions extend outside the "
            "model's domain")

    ecdf = EmpiricalCDF(values)
    y, u = _mean_and_sd(values, values[0], values[-1])
    diagnostics = MCDiagnostics(M, u / math.sqrt(n_valid), n_errors)
    # p = 1 and the largest p below it give the same clamped JCGM 101
    # ranks: [y_(1), y_(M)]
    interval = ecdf.interval(min(coverage, math.nextafter(1.0, 0.0)))
    result = MeasurementResult(y, u, k, interval, "monte_carlo", diagnostics)
    return result, ecdf


def sensitivity_budget(
    result: MeasurementResult, joint: JointInputModel
) -> list[dict]:
    """Per-input uncertainty budget at the means.

    Built from the gradient an analytic or Taylor ``result`` computed
    for ``joint``; nothing is differentiated again. Each entry carries
    the sensitivity c_i = df/dx_i, the input's u_i and the first-order
    contribution (c_i u_i)^2, 0 for an exactly known input; under
    correlation the rows do not sum to u^2, which also holds the
    cross terms.
    """
    if result.grad is None:
        raise ValueError(f"a {result.method} result carries no gradient")
    a = _output_units(result.grad, joint.u)
    return [{"name": name, "sensitivity": c, "u_input": u,
             "contribution": ai * ai}
            for name, c, u, ai in zip(joint.names, result.grad.tolist(),
                                      joint.u.tolist(), a.tolist())]
