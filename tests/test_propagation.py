"""Uncertainty propagation: analytic, series expansion, Monte Carlo."""

import gc
import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from uncertlab import propagation
from uncertlab.autodiff import derivatives
from uncertlab.dataset import make_dataset
from uncertlab.distributions import (Gaussian, InputQuantity, JointInputModel,
                                     Rectangular, Triangular, sample)
from uncertlab.errors import ConfigError, DomainError, MonteCarloError
from uncertlab.expr import evaluate_batch, parse_model
from uncertlab.regression import build_model
from uncertlab.report import propagate_results
from uncertlab.propagation import (MC_CHUNK_SIZE, EmpiricalCDF,
                                   implied_coverage, propagate_analytic,
                                   propagate_monte_carlo, propagate_taylor1,
                                   propagate_taylor2, resolve_coverage)
from uncertlab.rng import (MAX_NET_INPUTS, net_uniforms, scramble,
                           sobol_columns, substream)
from uncertlab.vi import predict_parts, train_vi


def gaussian_joint(means, sds, corr=None):
    qs = [InputQuantity(f"X{i + 1}", Gaussian(m, s))
          for i, (m, s) in enumerate(zip(means, sds))]
    return JointInputModel(qs, corr)


class TestAnalytic:
    def test_affine_model_exact_variance(self):
        m = parse_model("2 * X1 - 0.5 * X2 + 1")
        joint = gaussian_joint([1.0, 4.0], [0.2, 0.3])
        r = propagate_analytic(m, joint)
        assert r.y == pytest.approx(2.0 - 2.0 + 1.0, rel=1e-14, abs=0.0)
        assert r.u == pytest.approx(np.sqrt(4 * 0.04 + 0.25 * 0.09),
                                    rel=1e-13, abs=0.0)
        assert r.U == pytest.approx(2 * r.u, rel=1e-15, abs=0.0)
        assert r.method == "analytic"

    def test_correlation_term_enters(self):
        m = parse_model("2 * X1 - 0.5 * X2 + 1")
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        joint = gaussian_joint([1.0, 4.0], [0.2, 0.3], corr)
        r = propagate_analytic(m, joint)
        # 4*.04 + .25*.09 + 2*(2)(-0.5)(0.5*0.2*0.3)
        assert r.u ** 2 == pytest.approx(0.1225, rel=1e-13, abs=0.0)

    def test_nonlinear_model_refused(self):
        m = parse_model("X1 * X2")
        joint = gaussian_joint([2.0, 3.0], [0.1, 0.1])
        with pytest.raises(ConfigError, match="affine"):
            propagate_analytic(m, joint)

    @pytest.mark.parametrize("text", [
        "sqrt(X1 ^ 2)", "sqrt(X1 ^ 2) + X1",
        # affine only by cancellation, or by an exponent of one
        "(X1 + 1) ^ 2 - X1 ^ 2", "X1 * X2 / X2", "X1 ^ 1",
    ])
    def test_refused_unless_affine_by_structure(self, text):
        # |X1| has a zero Hessian wherever it is differentiable, yet with
        # X1 ~ N(0.1, 1) its mean is 0.80 and its sd 0.61, not 0.1 and 1
        joint = gaussian_joint([0.1, 2.0], [1.0, 0.5])
        with pytest.raises(ConfigError, match="affine"):
            propagate_analytic(parse_model(text), joint)

    @pytest.mark.parametrize("text", [
        "-(X1 - X2) / 4", "sin(1) * X1 + 2 ^ 3 * X2", "X1 * 2.5 - -X2",
        "(X1 + X2) * (2 - 1)",
    ])
    def test_constant_factors_accepted(self, text):
        m = parse_model(text)
        joint = gaussian_joint([1.0, -2.0], [0.3, 0.2])
        ra = propagate_analytic(m, joint)
        r1 = propagate_taylor1(m, joint)
        assert ra.y == pytest.approx(r1.y, rel=1e-12, abs=0.0)
        assert ra.u == pytest.approx(r1.u, rel=1e-12, abs=0.0)

    def test_domain_error_in_constant_factor(self):
        joint = gaussian_joint([1.0], [0.1])
        with pytest.raises(DomainError):
            propagate_analytic(parse_model("X1 / 0"), joint)

    def test_rectangular_inputs_fine_when_affine(self):
        m = parse_model("X1 + X2")
        joint = JointInputModel([
            InputQuantity("X1", Rectangular(0.0, 1.0)),
            InputQuantity("X2", Rectangular(0.0, 1.0)),
        ])
        r = propagate_analytic(m, joint)
        assert r.u ** 2 == pytest.approx(2.0 / 12.0, rel=1e-13, abs=0.0)


class TestTaylor:
    def test_product_model_first_order(self):
        m = parse_model("X1 * X2")
        joint = gaussian_joint([2.0, 3.0], [0.1, 0.1])
        r = propagate_taylor1(m, joint)
        assert r.y == pytest.approx(6.0, rel=1e-14, abs=0.0)
        assert r.u ** 2 == pytest.approx(0.13, rel=1e-13, abs=0.0)

    def test_product_model_second_order_correction(self):
        m = parse_model("X1 * X2")
        joint = gaussian_joint([2.0, 3.0], [0.1, 0.1])
        r = propagate_taylor2(m, joint)
        # adds (1/2) * 1^2 * u1^2 u2^2 twice -> +0.0001
        assert r.u ** 2 == pytest.approx(0.1301, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("u0", [0.1, 1.0, 3.0])
    def test_pure_square_second_order_is_exact(self, u0):
        m = parse_model("X1 ^ 2")
        joint = gaussian_joint([0.0], [u0])
        r = propagate_taylor2(m, joint)
        assert r.u ** 2 == pytest.approx(2 * u0 ** 4, rel=1e-12, abs=0.0)

    def test_first_order_blind_at_stationary_point(self):
        m = parse_model("X1 ^ 2")
        joint = gaussian_joint([0.0], [1.0])
        r = propagate_taylor1(m, joint)
        assert r.u == 0.0

    def test_correlated_inputs_rejected(self):
        m = parse_model("X1 * X2")
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        joint = gaussian_joint([2.0, 3.0], [0.1, 0.1], corr)
        with pytest.raises(ConfigError, match="independent"):
            propagate_taylor2(m, joint)

    def test_first_order_law_with_correlation(self):
        # JCGM 100 eq. (13) for X1 * X2:
        # mu2^2 s1^2 + mu1^2 s2^2 + 2 rho mu1 mu2 s1 s2
        mu1, mu2, s1, s2, rho = 2.0, 3.0, 0.1, 0.2, 0.5
        corr = np.array([[1.0, rho], [rho, 1.0]])
        joint = gaussian_joint([mu1, mu2], [s1, s2], corr)
        r = propagate_taylor1(parse_model("X1 * X2"), joint)
        expected = (mu2**2 * s1**2 + mu1**2 * s2**2
                    + 2 * rho * mu1 * mu2 * s1 * s2)
        assert r.u ** 2 == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert r.U == 2.0 * r.u
        assert r.interval == (r.y - r.U, r.y + r.U)

    def test_taylor1_is_analytic_on_correlated_affine_models(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            coeffs = rng.uniform(-3, 3, size=n)
            text = " + ".join(f"{c:.8f} * X{i + 1}"
                              for i, c in enumerate(coeffs))
            m = parse_model(f"{text} + {rng.uniform(-2, 2):.8f}")
            a = rng.standard_normal((n, n + 2))
            cov = a @ a.T
            sd = np.sqrt(np.diag(cov))
            joint = gaussian_joint(rng.uniform(-2, 2, size=n),
                                   rng.uniform(0.05, 0.5, size=n),
                                   cov / np.outer(sd, sd))
            k = float(rng.uniform(1.0, 3.0))
            ra = propagate_analytic(m, joint, k=k)
            r1 = propagate_taylor1(m, joint, k=k)
            assert (r1.y, r1.u, r1.k, r1.U, r1.interval) == (
                ra.y, ra.u, ra.k, ra.U, ra.interval)
            assert repr(r1.budget) == repr(ra.budget)

    @pytest.mark.parametrize("method", [propagate_analytic, propagate_taylor1,
                                        propagate_taylor2])
    def test_nonpositive_k_refused(self, method):
        joint = gaussian_joint([1.0], [0.1])
        for k in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="k must be > 0"):
                method(parse_model("2 * X1"), joint, k=k)

    def test_affine_all_three_methods_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            coeffs = rng.uniform(-3, 3, size=n)
            const = rng.uniform(-2, 2)
            text = " + ".join([f"{c:.8f} * X{i + 1}"
                               for i, c in enumerate(coeffs)])
            m = parse_model(f"{text} + {const:.8f}")
            joint = gaussian_joint(rng.uniform(-2, 2, size=n),
                                   rng.uniform(0.05, 0.5, size=n))
            ra = propagate_analytic(m, joint)
            r1 = propagate_taylor1(m, joint)
            r2 = propagate_taylor2(m, joint)
            assert r1.u == pytest.approx(ra.u, rel=1e-12, abs=0.0)
            assert r2.u == pytest.approx(ra.u, rel=1e-12, abs=0.0)
            assert r1.y == pytest.approx(ra.y, rel=1e-12, abs=0.0)


class TestMonteCarlo:
    def test_product_model_matches_taylor(self):
        m = parse_model("X1 * X2")
        joint = gaussian_joint([2.0, 3.0], [0.1, 0.1])
        r, ecdf = propagate_monte_carlo(m, joint, M=200_000, seed=1)
        assert r.y == pytest.approx(6.0, abs=5 * r.mc_diagnostics.mc_standard_error)
        assert r.u == pytest.approx(np.sqrt(0.1301), rel=0.02, abs=0.0)
        assert r.method == "monte_carlo"
        assert r.mc_diagnostics.M == 200_000
        assert r.mc_diagnostics.domain_error_count == 0

    def test_result_independent_of_chunking(self):
        # 65536-sample chunks with per-chunk substreams: any M gives the
        # same leading draws, so two different M runs share a prefix
        m = parse_model("X1 + X2")
        joint = gaussian_joint([0.0, 0.0], [1.0, 1.0])
        _, e1 = propagate_monte_carlo(m, joint, M=70_000, seed=3)
        _, e2 = propagate_monte_carlo(m, joint, M=140_000, seed=3)
        small = set(np.round(e1.sorted_values[:100], 12))
        big = set(np.round(e2.sorted_values, 12))
        assert small <= big

    def test_deterministic_per_seed(self):
        m = parse_model("sin(X1)")
        joint = gaussian_joint([0.5], [0.2])
        r1, e1 = propagate_monte_carlo(m, joint, M=10_000, seed=7)
        r2, e2 = propagate_monte_carlo(m, joint, M=10_000, seed=7)
        assert r1.y == r2.y and r1.u == r2.u
        np.testing.assert_array_equal(e1.sorted_values, e2.sorted_values)

    def test_constant_sample_gives_its_value_and_u_zero(self):
        # np.mean of 1,000 draws of 0.1 is 0.10000000000000002, outside
        # the interval [0.1, 0.1]; u was 1.39e-17
        m = parse_model("X1 * 0 + 0.1")
        r, _ = propagate_monte_carlo(m, gaussian_joint([0.0], [1.0]), M=1000)
        assert (r.y, r.u, r.interval) == (0.1, 0.0, (0.1, 0.1))

    def test_interval_has_requested_coverage(self):
        m = parse_model("X1")
        joint = gaussian_joint([0.0], [1.0])
        r, _ = propagate_monte_carlo(m, joint, M=400_000, seed=2,
                                     coverage=0.95)
        lo, hi = r.interval
        assert lo == pytest.approx(-1.96, abs=0.02)
        assert hi == pytest.approx(1.96, abs=0.02)

    def test_default_coverage_is_implied_by_default_k(self):
        m = parse_model("X1")
        joint = gaussian_joint([0.0], [1.0])
        r, ecdf = propagate_monte_carlo(m, joint, M=10_000, seed=2)
        assert r.k == 2.0 and r.U == 2.0 * r.u
        assert r.interval == ecdf.interval(implied_coverage(2.0))

    def test_coverage_alone_gives_its_gaussian_factor(self):
        m = parse_model("X1")
        joint = gaussian_joint([0.0], [1.0])
        r, ecdf = propagate_monte_carlo(m, joint, M=1000, seed=2,
                                        coverage=0.95)
        # sqrt(2) * erfinv(0.95) at 50 digits, rounded to a double
        with mpmath.workdps(50):
            want = float(mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(0.95)))
        assert r.k == want == 1.9599639845400538 and r.U == r.k * r.u
        assert r.interval == ecdf.interval(0.95)

    def test_given_k_is_reported_exactly(self):
        m = parse_model("X1")
        joint = gaussian_joint([0.0], [1.0])
        r, ecdf = propagate_monte_carlo(m, joint, M=1000, seed=2, k=3.0,
                                        coverage=0.95)
        assert r.k == 3.0 and r.U == 3.0 * r.u
        assert r.interval == ecdf.interval(0.95)
        r, ecdf = propagate_monte_carlo(m, joint, M=1000, seed=2, k=3.0)
        assert r.k == 3.0 and r.interval == ecdf.interval(
            implied_coverage(3.0))

    @pytest.mark.parametrize("coverage", [None, 0.95])
    def test_nonpositive_k_refused(self, coverage):
        m = parse_model("X1")
        joint = gaussian_joint([0.0], [1.0])
        for k in (0.0, -2.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="k must be > 0"):
                propagate_monte_carlo(m, joint, M=1000, seed=0, k=k,
                                      coverage=coverage)
        with pytest.raises(ConfigError, match="coverage must lie"):
            propagate_monte_carlo(m, joint, M=1000, seed=0, k=2.0,
                                  coverage=1.5)

    def test_interval_ranks_follow_jcgm_101(self):
        # in floating point 1 - 0.95 is 0.050000000000000044, so ceil
        # ranks read 5,001 instead of 5,000
        m = parse_model("X1")
        joint = gaussian_joint([0.0], [1.0])
        r, ecdf = propagate_monte_carlo(m, joint, M=200_000, seed=4,
                                        coverage=0.95)
        y = ecdf.sorted_values
        assert r.interval == (y[5000 - 1], y[195_000 - 1])
        # the default k = 2: pM = 190,899.95, so q = 190,900 and r = 4,550
        r, ecdf = propagate_monte_carlo(m, joint, M=200_000, seed=4)
        assert r.interval == (y[4550 - 1], y[195_450 - 1])

    def test_domain_failures_counted_then_fatal(self):
        # ln(X1) with mass at negative values: some rows fail
        m = parse_model("ln(X1)")
        joint = JointInputModel([InputQuantity("X1", Gaussian(5.0, 1.0))])
        r, _ = propagate_monte_carlo(m, joint, M=10_000, seed=0)
        assert r.mc_diagnostics.domain_error_count < 100

        heavy = JointInputModel([InputQuantity("X1", Gaussian(0.0, 1.0))])
        with pytest.raises(MonteCarloError, match="domain errors"):
            propagate_monte_carlo(m, heavy, M=10_000, seed=0)

    def test_minimum_sample_count(self):
        m = parse_model("X1")
        joint = gaussian_joint([0.0], [1.0])
        with pytest.raises(ConfigError):
            propagate_monte_carlo(m, joint, M=50, seed=0)

    @pytest.mark.parametrize("setting, value", [
        ("seed", 2.5), ("seed", -1), ("seed", True),
        ("M", 1000.5), ("M", True), ("M", 50)])
    def test_seed_and_sample_count_are_checked(self, setting, value):
        m = parse_model("X1")
        joint = gaussian_joint([0.0], [1.0])
        settings = {"M": 1000, "seed": 0, setting: value}
        with pytest.raises(ConfigError, match=f"{setting} must be an integer"):
            propagate_monte_carlo(m, joint, **settings)

    def test_standard_error_scale(self):
        m = parse_model("X1")
        joint = gaussian_joint([0.0], [1.0])
        r, _ = propagate_monte_carlo(m, joint, M=100_000, seed=0)
        assert r.mc_diagnostics.mc_standard_error == pytest.approx(
            r.u / np.sqrt(100_000), rel=1e-12, abs=0.0)

    def test_rectangular_input_quantile_interval(self):
        m = parse_model("X1")
        joint = JointInputModel([InputQuantity("X1", Rectangular(0.0, 1.0))])
        r, _ = propagate_monte_carlo(m, joint, M=1_000_000, seed=6,
                                     coverage=0.95)
        lo, hi = r.interval
        assert lo == pytest.approx(0.025, abs=0.005)
        assert hi == pytest.approx(0.975, abs=0.005)

    def test_input_cap_is_the_direction_table(self):
        names = [f"X{i}" for i in range(1, MAX_NET_INPUTS + 2)]
        joint = gaussian_joint([0.0] * len(names), [1.0] * len(names))
        with pytest.raises(ConfigError, match=f"at most {MAX_NET_INPUTS} "
                           f"inputs.*got {MAX_NET_INPUTS + 1}"):
            propagate_monte_carlo(parse_model("X1", declared=names), joint,
                                  M=1000, seed=0)
        # the table's last input still draws, a standard normal here
        last = names[MAX_NET_INPUTS - 1]
        r, _ = propagate_monte_carlo(
            parse_model(last, declared=names[:-1]),
            gaussian_joint([0.0] * MAX_NET_INPUTS, [1.0] * MAX_NET_INPUTS),
            M=1000, seed=0)
        assert abs(r.y) < 0.05 and r.u == pytest.approx(1.0, rel=0.05)

    def test_nets_beat_plain_monte_carlo_on_the_bench_model(self):
        # mc_large's model and inputs at M = 2^17 over 8 seeds, against
        # 32 nets; plain Monte Carlo maps numpy's own uniforms. RMSE of
        # y and u: 4.5e-6 and 7.8e-6 against 9.9e-4 and 7.5e-4
        expr = parse_model(
            "X1 * X2 / (1 + X3) + sqrt(X4) + ln(X1 ^ 2 + X4 ^ 2)")
        joint = JointInputModel([
            InputQuantity("X1", Gaussian(2.0, 0.1)),
            InputQuantity("X2", Rectangular(0.7, 1.4)),
            InputQuantity("X3", Triangular(0.3, 0.5, 1.0)),
            InputQuantity("X4", Gaussian(1.0, 0.3))])
        M = 2 ** 17
        ref, _ = propagate_monte_carlo(expr, joint, M=32 * MC_CHUNK_SIZE,
                                       seed=100)

        def plain(seed):
            draws = sample(joint, np.random.default_rng(seed).random((4, M)))
            values = evaluate_batch(expr, dict(zip(joint.names, draws.T)), M)
            values = values[np.isfinite(values)]
            return float(np.mean(values)), float(np.std(values, ddof=1))

        def rmse(runs):
            return np.sqrt(np.mean((np.array(runs) - [ref.y, ref.u]) ** 2,
                                   axis=0))

        runs = [propagate_monte_carlo(expr, joint, M=M, seed=s)[0]
                for s in range(8)]
        nets = rmse([(r.y, r.u) for r in runs])
        plain_mc = rmse([plain(s) for s in range(8)])
        assert (nets < plain_mc).all(), (nets, plain_mc)

    def test_constant_model_degenerates(self):
        m = parse_model("5.0", declared=("X1",))
        joint = gaussian_joint([0.0], [1.0])
        r, ecdf = propagate_monte_carlo(m, joint, M=1000, seed=0)
        assert r.y == 5.0 and r.u == 0.0 and r.U == 0.0
        assert r.interval == (5.0, 5.0)
        assert (ecdf.sorted_values == 5.0).all()
        rt = propagate_taylor1(m, joint)
        assert rt.y == 5.0 and rt.u == 0.0 and rt.interval == (5.0, 5.0)


def force_workers(monkeypatch, workers):
    """Make the Monte Carlo driver see ``workers`` available cores."""
    monkeypatch.setattr(propagation, "_available_cores", lambda: workers)


def chunk_draws(joint, seed, ci, n):
    """The first n draws of chunk ci's net, the whole net built at once."""
    net = scramble(sobol_columns(len(joint)), substream(seed, ci))
    return sample(joint, net_uniforms(
        net, 0, np.empty((len(joint), MC_CHUNK_SIZE), np.uint64))[:, :n])


def serial_reference(expr, joint, M, seed):
    """Sorted finite evaluations built one chunk after the other.

    Also returns the non-finite count of each chunk.
    """
    chunks, failures = [], []
    for ci, start in enumerate(range(0, M, MC_CHUNK_SIZE)):
        n = min(MC_CHUNK_SIZE, M - start)
        draws = chunk_draws(joint, seed, ci, n)
        values = evaluate_batch(
            expr, {name: draws[:, i] for i, name in enumerate(joint.names)},
            n=n)
        finite = np.isfinite(values)
        chunks.append(values[finite])
        failures.append(int(n - np.count_nonzero(finite)))
    return np.sort(np.concatenate(chunks)), failures


class TestParallelChunks:
    # four chunks, the last one ragged (17 draws)
    M = 3 * MC_CHUNK_SIZE + 17

    @pytest.fixture(autouse=True)
    def short_switch_interval(self):
        # switch threads often so an interleaving bug gets a chance to show
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(old)

    def check_against_serial(self, expr, joint, seed, M=M):
        ref, failures = serial_reference(expr, joint, M, seed)
        r, ecdf = propagate_monte_carlo(expr, joint, M=M, seed=seed)
        assert np.array_equal(ecdf.sorted_values, ref)
        assert r.y == float(np.mean(ref))
        assert r.u == float(np.std(ref, ddof=1))
        assert r.interval == EmpiricalCDF(ref).interval(implied_coverage(2.0))
        assert r.mc_diagnostics.domain_error_count == sum(failures)
        return failures

    # 4 workers on a 2-core host: more threads than cores
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_correlated_joint_matches_serial(self, monkeypatch, workers):
        force_workers(monkeypatch, workers)
        joint = gaussian_joint([1.0, -2.0], [0.3, 0.5],
                               np.array([[1.0, 0.6], [0.6, 1.0]]))
        failures = self.check_against_serial(
            parse_model("X1 * X2 + sin(X1)"), joint, seed=11)
        assert sum(failures) == 0

    # three inputs make 32,768-row blocks, so the second of two workers
    # starts halfway into chunk 1
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_mixed_marginals_match_serial(self, monkeypatch, workers):
        force_workers(monkeypatch, workers)
        joint = JointInputModel([
            InputQuantity("X1", Gaussian(2.0, 0.1)),
            InputQuantity("X2", Rectangular(0.7, 1.5)),
            InputQuantity("X3", Triangular(0.3, 0.5, 1.0))])
        failures = self.check_against_serial(
            parse_model("X1 * X2 / (1 + X3) + sin(X3)"), joint, seed=13)
        assert sum(failures) == 0

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_domain_failures_match_serial(self, monkeypatch, workers):
        force_workers(monkeypatch, workers)
        # P(X1 <= 0) = Phi(-3): about 0.13% of the draws fail
        joint = gaussian_joint([3.0], [1.0])
        failures = self.check_against_serial(parse_model("ln(X1)"), joint,
                                             seed=5)
        assert sum(1 for f in failures if f) >= 3

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_infinite_and_nan_outputs_match_serial(self, monkeypatch,
                                                   workers):
        force_workers(monkeypatch, workers)
        # exp overflows for about 0.27% of each of X1 and X2, which makes
        # the difference +inf, -inf or NaN; ln(X3) adds NaN at Phi(-3)
        joint = gaussian_joint([700.0, 700.0, 3.0], [3.5, 3.5, 1.0])
        expr = parse_model("1e-300 * exp(X1) - 1e-300 * exp(X2) + ln(X3)")
        failures = self.check_against_serial(expr, joint, seed=9)
        assert 0 < sum(failures) < 0.01 * self.M
        draws = chunk_draws(joint, 9, 0, MC_CHUNK_SIZE)
        first = evaluate_batch(
            expr, {name: draws[:, i] for i, name in enumerate(joint.names)})
        kinds = {str(v) for v in first[~np.isfinite(first)]}
        assert kinds == {"inf", "-inf", "nan"}

    # 0 * X1 + 0 * ln(X2) is -0.0 where X1 < 0 and 0 < X2 < 1 (about 1%
    # of the draws) and NaN where X2 <= 0 (Phi(-3)); each worker's piece
    # of the sort holds zeros of both signs unless they are made alike
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_signed_zeros_sort_alike_in_every_split(self, monkeypatch,
                                                    workers):
        expr = parse_model("0 * X1 + 0 * ln(X2)")
        joint = gaussian_joint([0.0, 3.0], [1.0, 1.0])
        ref, failures = serial_reference(expr, joint, self.M, 4)
        assert np.signbit(ref).any() and 0 < sum(failures) < 0.01 * self.M
        ref = np.sort(ref + 0.0)
        force_workers(monkeypatch, 1)
        serial, _ = propagate_monte_carlo(expr, joint, M=self.M, seed=4)
        force_workers(monkeypatch, workers)
        r, ecdf = propagate_monte_carlo(expr, joint, M=self.M, seed=4)
        assert np.array_equal(ecdf.sorted_values.view(np.int64),
                              ref.view(np.int64))
        assert not np.signbit(ecdf.sorted_values[ref == 0.0]).any()
        assert repr(r) == repr(serial) and r == serial
        assert not np.signbit([r.y, *r.interval]).any()

    def test_helper_thread_error_reaches_caller(self, monkeypatch):
        force_workers(monkeypatch, 2)
        real_substream = propagation.substream
        raised_on = []

        # one input: the calling thread draws chunk 0 and the first half
        # of chunk 1, the helper the rest, chunks 2 and 3 among it
        def failing_substream(seed, stream=0):
            if stream == 3:
                raised_on.append(threading.current_thread())
                raise RuntimeError("chunk 3 failed")
            return real_substream(seed, stream)

        monkeypatch.setattr(propagation, "substream", failing_substream)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 3 failed"):
            propagate_monte_carlo(parse_model("X1"),
                                  gaussian_joint([0.0], [1.0]), M=self.M,
                                  seed=0)
        assert raised_on and raised_on[0] is not threading.main_thread()
        assert threading.active_count() == before

    # Spans that start inside a block: two inputs make 65,536-row
    # blocks, whole chunks, cut inside chunk 1 at the default M; 24
    # inputs make 4,096-row blocks, cut at multiples of 512 rows at a
    # ragged M
    SPAN_CASES = {
        "two_inputs": ("X1 * X2 + sin(X1)",
                       gaussian_joint([1.0, -2.0], [0.3, 0.5]), 200_000),
        "24_inputs": (" + ".join(f"sin(X{i})" for i in range(1, 25)),
                      gaussian_joint([0.1 * i for i in range(24)],
                                     [0.01] * 24),
                      2 * MC_CHUNK_SIZE + 4321),
    }

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", SPAN_CASES)
    def test_span_starting_inside_a_chunk_matches_serial(self, monkeypatch,
                                                         case, workers):
        force_workers(monkeypatch, workers)
        expression, joint, M = self.SPAN_CASES[case]
        failures = self.check_against_serial(parse_model(expression), joint,
                                             seed=3, M=M)
        assert sum(failures) == 0

    def rows_per_thread(self, monkeypatch, expr, joint, M):
        """Rows each thread draws in one Monte Carlo run, by thread id."""
        rows = {}
        real_sample = propagation.sample

        def counting_sample(joint, uniforms):
            tid = threading.get_ident()
            rows[tid] = rows.get(tid, 0) + uniforms.shape[1]
            return real_sample(joint, uniforms)

        monkeypatch.setattr(propagation, "sample", counting_sample)
        propagate_monte_carlo(expr, joint, M=M, seed=1)
        return rows

    def test_two_workers_draw_half_each(self, monkeypatch):
        force_workers(monkeypatch, 2)
        rows = self.rows_per_thread(
            monkeypatch, parse_model("X1 * X2"),
            gaussian_joint([1.0, 2.0], [0.1, 0.2]), 200_000)
        # the cut is the multiple of 8,192 rows, an eighth of a
        # 65,536-row block, nearest M / 2, so within 4,096 of it; whole
        # blocks, here chunks, had drawn 131,072 against 68,928
        assert len(rows) == 2 and sum(rows.values()) == 200_000
        assert all(abs(n - 100_000) <= 16_384 for n in rows.values())

    @pytest.mark.parametrize("n_inputs", [1, 2, 3, 24])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_cuts_are_aligned_pieces_of_blocks(self, n_inputs, workers):
        rows = propagation.block_rows(n_inputs)
        for M in (200_000, self.M, 2_000_000):
            spans = propagation._spans(M, rows, workers)
            starts = [span[0][0] for span in spans]
            assert starts[0] == 0 and len(spans) == workers
            for w, start in enumerate(starts):
                assert start % (rows // 8) == 0
                assert abs(start - w * M / workers) <= rows // 16
            pieces = [piece for span in spans for piece in span]
            ends = [lo + size for lo, size in pieces]
            assert [lo for lo, _ in pieces] == [0, *ends[:-1]]
            assert ends[-2] < M <= ends[-1]
            for lo, size in pieces:
                # an aligned power of two within one block
                assert size & size - 1 == 0 and lo % size == 0
                assert rows // 8 <= size <= rows

    def test_no_helper_without_a_full_block_each(self, monkeypatch):
        force_workers(monkeypatch, 2)
        # 32,768-row blocks: 20,000 draws are not one full block
        rows = self.rows_per_thread(
            monkeypatch, parse_model("X1 + X2 + X3 + X4"),
            gaussian_joint([0.0] * 4, [1.0] * 4), 20_000)
        assert rows == {threading.get_ident(): 20_000}


class TestBlocks:
    @pytest.mark.parametrize("n_inputs", [1, 2])
    def test_a_block_is_at_most_one_chunk(self, n_inputs):
        assert propagation.block_rows(n_inputs) <= MC_CHUNK_SIZE

    # a block past a chunk's net would index its columns beyond the
    # net's 16 bits
    @pytest.mark.parametrize("n_inputs", [1, 2])
    def test_few_inputs_over_ragged_chunks(self, n_inputs):
        M = 3 * MC_CHUNK_SIZE + 17
        joint = gaussian_joint([1.0] * n_inputs, [0.1] * n_inputs)
        expr = parse_model(" * ".join(joint.names))
        r, ecdf = propagate_monte_carlo(expr, joint, M=M, seed=2)
        assert len(ecdf.sorted_values) == M
        assert r.mc_diagnostics.domain_error_count == 0


class TestMonteCarloMemory:
    M = 2_000_000

    def traced_run(self, expr, joint):
        """The Monte Carlo result, its tracemalloc peak, and what stays
        allocated once the sorted values are dropped."""
        # a first run imports what the traced one needs
        propagate_monte_carlo(expr, joint, M=1000, seed=1)
        # with the collector off, a reference cycle keeps what it holds
        gc.disable()
        tracemalloc.start()
        try:
            r, ecdf = propagate_monte_carlo(expr, joint, M=self.M, seed=1)
            _, peak = tracemalloc.get_traced_memory()
            del ecdf
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        return r, peak, left

    def test_peak_is_the_buffer_plus_a_block_per_worker(self, monkeypatch):
        force_workers(monkeypatch, 2)
        # mixed marginals; sqrt(X4) fails for about 0.04% of the draws
        joint = JointInputModel([
            InputQuantity("X1", Gaussian(2.0, 0.1)),
            InputQuantity("X2", Rectangular(0.7, 1.5)),
            InputQuantity("X3", Triangular(0.3, 0.5, 1.0)),
            InputQuantity("X4", Gaussian(1.0, 0.3))])
        expr = parse_model(
            "X1 * X2 / (1 + X3) + sqrt(X4) + ln(X1 ^ 2 + X4 ^ 2)")
        r, peak, left = self.traced_run(expr, joint)
        assert r.mc_diagnostics.domain_error_count > 0
        # one 8-byte value per draw, and 2 MiB for each of 2 workers
        # (3.5 MiB over the buffer measured)
        assert peak < 8 * self.M + 2 * 2 * 2**20
        # dropping the sorted values frees the buffer
        assert left < 2**20

    def test_block_per_worker_does_not_grow_with_inputs(self, monkeypatch):
        # a chunk of 24 inputs is 12 MiB of draws; a block is 768 KiB
        force_workers(monkeypatch, 2)
        joint = gaussian_joint([0.1 * i for i in range(1, 25)], [0.01] * 24)
        expr = parse_model(" + ".join(f"sin({n})" for n in joint.names))
        _, peak, _ = self.traced_run(expr, joint)
        # 1.9 MiB over the buffer measured: one workspace of points per
        # worker, mapped to draws in place
        assert peak < 8 * self.M + 2 * 2 * 2**20


class TestSumSquares:
    # around numpy's 8-wide unroll, its 128-value pairwise leaf, one
    # block, and splits several levels deep
    LENGTHS = [2, 7, 8, 9, 127, 128, 129, 16_383, 16_384, 16_385,
               3 * 65_536 + 17, 2_000_003]

    # the smallest scratch that keeps numpy's order, and the driver's
    @pytest.mark.parametrize("scratch", [128, propagation.block_rows(1)])
    def test_gives_numpy_std_bit_for_bit(self, scratch):
        rng = np.random.default_rng(0)
        for n in self.LENGTHS:
            for offset in (0.0, 1.0, 1e3, 1e6):
                x = offset + rng.uniform(0.01, 10.0) * rng.standard_normal(n)
                ss = propagation._pairwise_sum(
                    x, np.empty(min(n, scratch)), mean=float(np.mean(x)))
                assert math.sqrt(ss / (n - 1)) == float(np.std(x, ddof=1)), \
                    (n, offset)
                assert propagation._mean_and_sd(x, x.min(), x.max()) == (
                    float(np.mean(x)), float(np.std(x, ddof=1))), (n, offset)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_statistics_are_numpy_times_a_power_of_two(self):
        # at 2^700 the squares overflow, at 2^-700 they underflow, and
        # at 2^1020 the sum does too: each statistic is numpy's at scale
        # 1, scaled exactly, through every level of the pairwise split
        rng = np.random.default_rng(1)
        for n in self.LENGTHS:
            x = 1.0 + rng.uniform(0.5, 2.0) * rng.standard_normal(n)
            y, u = float(np.mean(x)), float(np.std(x, ddof=1))
            for p in (700, -700, 1020):
                scaled = np.ldexp(x, p)
                assert propagation._mean_and_sd(
                    scaled, scaled.min(), scaled.max()) == (
                    math.ldexp(y, p), math.ldexp(u, p)), (n, p)


class TestAvailableCores:
    def test_affinity_counts_where_the_platform_has_it(self):
        if not hasattr(propagation.os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        assert propagation._available_cores() == len(
            propagation.os.sched_getaffinity(0))

    @pytest.mark.parametrize("cpu_count, cores", [(3, 3), (None, 1)])
    def test_falls_back_to_cpu_count(self, monkeypatch, cpu_count, cores):
        monkeypatch.delattr(propagation.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(propagation.os, "cpu_count", lambda: cpu_count)
        assert propagation._available_cores() == cores
        r, _ = propagate_monte_carlo(parse_model("X1"),
                                     gaussian_joint([0.0], [1.0]), M=1000,
                                     seed=0)
        assert np.isfinite(r.u)


class TestEmpiricalCDF:
    @pytest.mark.parametrize("p, m, ranks", [
        (0.95, 100, (3, 98)),           # q = 95, r = 3
        (0.95, 1000, (25, 975)),        # not 26, as ceil ranks read
        (0.95, 200_000, (5000, 195_000)),
        (0.99, 2_000_000, (10_000, 1_990_000)),
        (0.9, 101, (5, 96)),            # pM = 90.9: q = 91, r = 5
        (0.91, 100, (5, 96)),           # M - q = 9 is odd: r = 5
    ])
    def test_interval_uses_jcgm_101_ranks(self, p, m, ranks):
        e = EmpiricalCDF(np.arange(1.0, m + 1.0))  # value = 1-based rank
        assert e.interval(p) == ranks

    def test_cdf_step_function(self):
        e = EmpiricalCDF(np.array([1.0, 2.0, 3.0, 4.0]))
        assert e.cdf(0.5) == 0.0
        assert e.cdf(2.0) == 0.5
        assert e.cdf(10.0) == 1.0

    def test_interval_ranks_clamp(self):
        # k = 3 at M = 100: q = 100 and r = 0, so [y_(1), y_(100)]
        e = EmpiricalCDF(np.arange(1.0, 101.0))
        assert e.interval(implied_coverage(3.0)) == (1.0, 100.0)
        assert EmpiricalCDF(np.array([5.0, 6.0])).interval(1e-9) == (5.0, 5.0)

    def test_large_k_interval_is_the_whole_sample(self):
        # 2 Phi(9) - 1 rounds to 1: k's own coverage takes the clamped
        # ranks, [y_(1), y_(M)], alone or echoed back with k
        m = parse_model("X1 * 2")
        joint = gaussian_joint([1.0], [0.1])
        assert implied_coverage(9.0) == 1.0
        for coverage in (None, 1.0):
            r, ecdf = propagate_monte_carlo(m, joint, M=5000, seed=1, k=9.0,
                                            coverage=coverage)
            v = ecdf.sorted_values
            assert r.interval == (v[0], v[-1]) and r.k == 9.0
        # a coverage of 1 on its own is still refused
        with pytest.raises(ConfigError, match="coverage must lie in"):
            propagate_monte_carlo(m, joint, M=5000, seed=1, coverage=1.0)

    def test_tiny_k_interval_is_the_median_pair(self):
        # erf(1e-17 / sqrt(2)) = 8e-18 > 0, where 2 Phi(k) - 1 gave 0.0
        # and the run refused a coverage it was never given: q = 0 and
        # both ends are y_(r), r = floor((M + 1) / 2)
        m = parse_model("X1 * 2")
        r, ecdf = propagate_monte_carlo(m, gaussian_joint([1.0], [0.1]),
                                        M=5000, seed=1, k=1e-17)
        median = ecdf.sorted_values[(5000 + 1) // 2 - 1]
        assert r.interval == (median, median) and r.k == 1e-17

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5])
    def test_interval_probability_domain(self, p):
        with pytest.raises(ConfigError, match="coverage"):
            EmpiricalCDF(np.arange(1.0, 11.0)).interval(p)


class TestSummaries:
    def test_implied_coverage_oracle(self):
        assert implied_coverage(2.0) == pytest.approx(0.9544997361036416,
                                                      abs=1e-15)
        assert implied_coverage(1.959963984540054) == pytest.approx(
            0.95, abs=1e-12)

    def test_implied_coverage_against_mpmath(self):
        # erf(k / sqrt(2)) at 50 digits, from the smallest k to where
        # the coverage rounds to 1
        ks = np.concatenate([np.geomspace(1e-300, 9.0, 1500),
                             np.linspace(1e-3, 9.0, 1500)])
        with mpmath.workdps(50):
            worst = max(
                abs(implied_coverage(float(k)) - want) / want
                for k in ks
                for want in [mpmath.erf(mpmath.mpf(float(k))
                                        / mpmath.sqrt(2))])
        assert worst <= 4.5e-16

    def test_coverage_oracle_value(self):
        assert resolve_coverage(2.0, 0.95) == (1.9599639845400538, 0.95)

    @pytest.mark.parametrize("coverage", [0.0, 1.0, -0.5, 1.5])
    def test_coverage_domain(self, coverage):
        with pytest.raises(ConfigError, match=r"coverage must lie in \(0, 1\)"):
            resolve_coverage(2.0, coverage)

    def test_coverage_factor_against_mpmath(self):
        # sqrt(2) * erfinv(coverage) at 50 digits over the whole open
        # interval: uniform coverages, tiny ones down to 1e-300, and
        # ones within 1e-16 of 1, which 1 + coverage would round
        rng = np.random.default_rng(17)
        coverages = np.concatenate([rng.uniform(0.0, 1.0, 1000),
                                    10.0 ** rng.uniform(-300.0, -1.0, 1000),
                                    1.0 - rng.uniform(0.0, 1e-16, 1000)])
        coverages = coverages[(coverages > 0.0) & (coverages < 1.0)]
        assert len(coverages) >= 2300
        with mpmath.workdps(50):
            worst = max(
                abs((resolve_coverage(2.0, float(c))[0] - want) / want)
                for c in coverages
                for want in [mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(c))])
        assert worst <= 1e-15

    def test_budget_rows_sum_to_first_order_variance(self):
        m = parse_model("X1 * X2 + sin(X3)")
        joint = gaussian_joint([2.0, 3.0, 0.5], [0.1, 0.2, 0.05])
        r1 = propagate_taylor1(m, joint)
        rows = r1.budget
        assert [r["name"] for r in rows] == ["X1", "X2", "X3"]
        total = sum(r["contribution"] for r in rows)
        assert total == pytest.approx(r1.u ** 2, rel=1e-12, abs=0.0)

    def test_monte_carlo_carries_no_budget(self):
        m = parse_model("X1 * X2")
        joint = gaussian_joint([2.0, 3.0], [0.1, 0.2])
        r, _ = propagate_monte_carlo(m, joint, M=1000, seed=0)
        assert r.budget is None

    def test_budget_rows_are_the_gradient_formula_bit_for_bit(self):
        # each row from the gradient at the means: c_i, u_i and (c_i
        # u_i)^2, with c_i u_i = 0 wherever u_i = 0
        def formula(expr, joint, order):
            grad = derivatives(expr, dict(zip(joint.names, joint.means)),
                               order=order, variables=joint.names).grad
            with np.errstate(over="ignore"):
                a = np.multiply(grad, joint.u, out=np.zeros_like(grad),
                                where=joint.u != 0.0)
            return [{"name": name, "sensitivity": c, "u_input": u,
                     "contribution": ai * ai}
                    for name, c, u, ai in zip(joint.names, grad.tolist(),
                                              joint.u.tolist(), a.tolist())]

        corr = [[1.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 1.0]]
        affine = "2 * X1 - 0.5 * X2 + X3 / 4"
        cases = [
            ("X1 * X2 + sin(X3)", [2.0, 3.0, 0.5], [0.1, 0.2, 0.05], None,
             (propagate_taylor1, propagate_taylor2)),
            (affine, [1.0, -2.0, 0.5], [0.1, 0.2, 0.3], None,
             (propagate_analytic, propagate_taylor1, propagate_taylor2)),
            (affine, [1.0, -2.0, 0.5], [0.1, 0.2, 0.3], corr,
             (propagate_analytic, propagate_taylor1)),
            ("X1 * X2 + sin(X3)", [2.0, 3.0, 0.5], [0.1, 0.2, 0.05], corr,
             (propagate_taylor1,)),
            # d/dX2 = -1e340 overflows; X2 is exactly known
            ("X1 / X2", [1.0, 1e-170], [0.1, 0.0], None,
             (propagate_taylor1, propagate_taylor2)),
        ]
        for text, means, sds, c, methods in cases:
            expr, joint = parse_model(text), gaussian_joint(means, sds, c)
            for method in methods:
                order = 3 if method is propagate_taylor2 else 1
                got = method(expr, joint).budget
                assert repr(got) == repr(formula(expr, joint, order)), (
                    text, method.__name__)
        assert got[1]["sensitivity"] == -math.inf
        assert got[1]["contribution"] == 0.0

        # Monte Carlo and virtual results carry none, and a Monte Carlo
        # report's results have no budget
        r, _ = propagate_monte_carlo(parse_model("X1 * X2"),
                                     gaussian_joint([2.0, 3.0], [0.1, 0.2]),
                                     M=1000)
        assert r.budget is None
        assert "budget" not in propagate_results(r)
        x = np.linspace(-1.0, 1.0, 20)[:, None]
        data = make_dataset(x, 1.0 + 2.0 * x[:, 0], ("x1",))
        model = build_model(data, mean_degree=1, fixed_noise_sd=0.1)
        vm = predict_parts(model, train_vi(model, data).posterior, x[:3])
        assert vm.budget is None


# -- 50-digit oracles across the double range ---------------------------

_SUBNORMAL_ULPS = 4 * 2.0 ** -1074


def within(got, want, rel):
    """|got - want| <= rel |want| for an mpmath ``want``. A want beyond
    the double range must come back as the infinity of its sign, and one
    below the normal range within a few units of the last subnormal
    place, as a correctly rounded double would."""
    if abs(want) > sys.float_info.max:
        return got == math.copysign(math.inf, want)
    return abs(mpmath.mpf(got) - want) <= rel * abs(want) + _SUBNORMAL_ULPS


def law_u(c, u, corr=None):
    """sqrt(sum_ij c_i c_j u_i u_j r_ij), JCGM 100:2008 eq. 16, in mpmath."""
    n = len(c)
    r = np.eye(n) if corr is None else np.asarray(corr)
    return mpmath.sqrt(mpmath.fsum(
        c[i] * c[j] * mpmath.mpf(u[i]) * mpmath.mpf(u[j])
        * mpmath.mpf(r[i, j]) for i in range(n) for j in range(n)))


def check_budget(rows, c, sds, rel):
    for row, ci, si in zip(rows, c, sds):
        assert within(row["sensitivity"], ci, rel), row
        assert row["u_input"] == si, row
        assert within(row["contribution"], (ci * mpmath.mpf(si)) ** 2,
                      2 * rel), row


# model text, exact gradient at the means (mpmath), means for sd scale s
ORACLE_MODELS = [
    ("2.5 * X1 - X2 / 3 + 7", lambda m: [mpmath.mpf(2.5), -mpmath.mpf(1) / 3],
     lambda s: (1.5, -2.0)),
    ("X1 * X2", lambda m: [m[1], m[0]], lambda s: (1.5, -2.0)),
    ("X1 / X2", lambda m: [1 / m[1], -m[0] / m[1] ** 2],
     lambda s: (1.5, -2.0)),
    ("ln(X1) - sqrt(X2)",
     lambda m: [1 / m[0], -1 / (2 * mpmath.sqrt(m[1]))],
     lambda s: (10.0 * s, 3.0 * s)),
]
SCALES = [10.0 ** e for e in range(-300, 301, 50)]
CORR3 = [[1.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 1.0]]


class TestDoubleRangeOracles:
    """u and every budget row against 50-digit mpmath, for input sds from
    1e-300 to 1e300. Each stated relative error covers the gradient's own
    rounding, one product c_i u_i and the root sum of squares; a u or a
    contribution beyond the double range comes back infinite, which the
    report refuses as a non-finite number."""

    @pytest.mark.parametrize("s", SCALES, ids=lambda s: f"{s:.0e}")
    @pytest.mark.parametrize("text, grad, means", ORACLE_MODELS,
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_independent_taylor1_and_budget(self, text, grad, means, s):
        mu, sds = means(s), (s, 0.7 * s)
        joint = gaussian_joint(mu, sds)
        r = propagate_taylor1(parse_model(text), joint)
        with mpmath.workdps(50):
            c = grad([mpmath.mpf(m) for m in mu])
            assert within(r.u, law_u(c, sds), 1.6e-15), (r.u, s)
            check_budget(r.budget, c, sds, 1.6e-15)

    @pytest.mark.parametrize("s", SCALES, ids=lambda s: f"{s:.0e}")
    @pytest.mark.parametrize("corr", [None, CORR3], ids=["indep", "corr"])
    def test_affine_analytic_is_taylor1(self, corr, s):
        text = "2 * X1 - 0.5 * X2 + X3 / 4"
        sds = (s, 0.7 * s, 0.3 * s)
        joint = gaussian_joint([1.0, -2.0, 0.5], sds, corr)
        m = parse_model(text)
        ra, r1 = propagate_analytic(m, joint), propagate_taylor1(m, joint)
        assert ra.u == r1.u
        with mpmath.workdps(50):
            c = [mpmath.mpf(2), mpmath.mpf(-0.5), mpmath.mpf(0.25)]
            assert within(ra.u, law_u(c, sds, corr), 1e-15), (ra.u, s)
            check_budget(ra.budget, c, sds, 4e-16)

    @pytest.mark.parametrize("s", SCALES, ids=lambda s: f"{s:.0e}")
    def test_correlated_three_inputs(self, s):
        mu, sds = (1.5, -2.0, 0.4), (s, 0.7 * s, 0.3 * s)
        joint = gaussian_joint(mu, sds, CORR3)
        r = propagate_taylor1(parse_model("X1 * X2 + sin(X3)"), joint)
        with mpmath.workdps(50):
            c = [mpmath.mpf(mu[1]), mpmath.mpf(mu[0]),
                 mpmath.cos(mpmath.mpf(mu[2]))]
            assert within(r.u, law_u(c, sds, CORR3), 1e-15), (r.u, s)
            check_budget(r.budget, c, sds, 4e-16)

    @pytest.mark.parametrize("s", SCALES, ids=lambda s: f"{s:.0e}")
    def test_taylor2_square(self, s):
        # X1 ^ 2 at N(10 s, s): u^2 = (2 mu s)^2 + (1/2) 2^2 s^4
        joint = gaussian_joint([10.0 * s], [s])
        r = propagate_taylor2(parse_model("X1 ^ 2"), joint)
        with mpmath.workdps(50):
            S = mpmath.mpf(s)
            want = mpmath.sqrt((20 * S * S) ** 2 + 2 * S ** 4)
            assert within(r.u, want, 1e-15), (r.u, s)

    @pytest.mark.parametrize("s", SCALES, ids=lambda s: f"{s:.0e}")
    def test_taylor2_mixed(self, s):
        # f = sin(X1) X2; T_ij = d3f / dx_i dx_j^2
        mu, sds = (0.7, 1.3), (s, 0.7 * s)
        joint = gaussian_joint(mu, sds)
        with mpmath.workdps(50):
            x, y = map(mpmath.mpf, mu)
            c = [mpmath.cos(x) * y, mpmath.sin(x)]
            h = [[-mpmath.sin(x) * y, mpmath.cos(x)], [mpmath.cos(x), 0]]
            t = [[-mpmath.cos(x) * y, 0], [-mpmath.sin(x), 0]]
            v = [mpmath.mpf(u) ** 2 for u in sds]
            var = law_u(c, sds) ** 2 + mpmath.fsum(
                (h[i][j] ** 2 / 2 + c[i] * t[i][j]) * v[i] * v[j]
                for i in range(2) for j in range(2))
            if var >= 0:
                r = propagate_taylor2(parse_model("sin(X1) * X2"), joint)
                assert within(r.u, mpmath.sqrt(var), 1e-14), (r.u, s)
                return
            # a negative variance is refused; where its terms are beyond
            # the double range, as an infinite u the report refuses
            try:
                u = propagate_taylor2(parse_model("sin(X1) * X2"), joint).u
            except DomainError as err:
                assert "negative" in str(err)
            else:
                assert u == math.inf, s
                assert mpmath.sqrt(-var) > sys.float_info.max, s

    @pytest.mark.parametrize("text, mean, sd, method, oracle", [
        # each of these squared an sd or a gradient out of range before
        ("X1 * 1e-170", 1.0, 0.1, propagate_taylor1,
         lambda m, s: mpmath.mpf(1e-170) * s),
        ("X1 * 1e-160", 1.0, 0.1, propagate_taylor1,
         lambda m, s: mpmath.mpf(1e-160) * s),
        ("ln(X1)", 1e-200, 1e-201, propagate_taylor1, lambda m, s: s / m),
        ("X1 ^ 2", 1e-100, 1e-101, propagate_taylor2,
         lambda m, s: mpmath.sqrt((2 * m * s) ** 2 + 2 * s ** 4)),
    ], ids=["scaled-1e-170", "scaled-1e-160", "ln", "square"])
    def test_scales_whose_squares_left_the_range(self, text, mean, sd,
                                                  method, oracle):
        joint = gaussian_joint([mean], [sd])
        r = method(parse_model(text), joint)
        with mpmath.workdps(50):
            want = oracle(mpmath.mpf(mean), mpmath.mpf(sd))
            assert r.u > 0.0 and within(r.u, want, 1e-15), r.u
        rows = r.budget
        assert all(math.isfinite(v) for v in rows[0].values()
                   if isinstance(v, float))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sd", [1e200, 1e307, 1e-200])
    def test_monte_carlo_statistics_beyond_the_square_range(self, sd):
        # squares of 1e200 overflowed and of 1e-200 underflowed, and a sum
        # of values near 1e308 overflowed: the same draws at sd 1, scaled,
        # give y and u to within the rounding of the scaled draws. y is
        # 3e-5 of u, so its bound is that rounding, 2^-52 of the mean
        # |draw|, not a share of y itself
        m = parse_model("X1 * 2")
        ref, ref_ecdf = propagate_monte_carlo(
            m, gaussian_joint([0.0], [1.0]), M=20_000, seed=1)
        r, ecdf = propagate_monte_carlo(m, gaussian_joint([0.0], [sd]),
                                        M=20_000, seed=1)
        assert r.u == pytest.approx(sd * ref.u, rel=1e-13, abs=0.0)
        rounding = 2.0 ** -52 * float(np.mean(np.abs(ref_ecdf.sorted_values)))
        assert abs(r.y - sd * ref.y) <= sd * rounding
        # each statistic is numpy's on the values times 2^-e, scaled back
        v = ecdf.sorted_values
        e = math.frexp(max(-v[0], v[-1]))[1]
        scaled = np.ldexp(v, -e)
        assert r.y == math.ldexp(float(np.mean(scaled)), e)
        assert r.u == math.ldexp(float(np.std(scaled, ddof=1)), e)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_monte_carlo_draws_beyond_the_double_range_fail(self):
        # a third of the draws at sd 1e308 are infinite (P(|2 X1| >
        # 1.8e308) = 36.88%): the draws failed, not the model
        with pytest.raises(MonteCarloError, match=r"^7374 of 20000 Monte "
                           r"Carlo draws \(36\.9%\) failed: draws of X1 "
                           "leave the double range"):
            propagate_monte_carlo(parse_model("X1 * 2"),
                                  gaussian_joint([0.0], [1e308]),
                                  M=20_000, seed=1)

    def test_rectangular_near_the_largest_double(self):
        # mean 1.35e308 and u 2.02e307 are doubles; the sum of the bounds
        # is not. The budget's (c u)^2 = 1e614 is not either, so only the
        # measurement itself can be reported
        joint = JointInputModel([
            InputQuantity("X1", Rectangular(1e308, 1.7e308))])
        r = propagate_taylor1(parse_model("X1 * 0.5"), joint)
        assert r.y == 6.75e307
        assert r.u == pytest.approx(0.35e308 / math.sqrt(12.0), rel=1e-15,
                                    abs=0.0)

    @pytest.mark.parametrize("method", [propagate_analytic,
                                        propagate_taylor1])
    def test_triangular_beyond_the_square_range(self, method):
        # its variance 4.2e398 is not a double; u = 1e200 sqrt(1.5) / 6 is
        joint = JointInputModel([
            InputQuantity("X1", Triangular(1e200, 1.5e200, 2e200))])
        r = method(parse_model("X1 * 2"), joint)
        with mpmath.workdps(50):
            a, m, b = (mpmath.mpf(v) for v in (1e200, 1.5e200, 2e200))
            u = mpmath.sqrt((a * a + m * m + b * b - a * m - a * b - m * b)
                            / 18)
            assert within(r.u, 2 * u, 1e-15)
            assert within(r.y, 2 * (a + m + b) / 3, 1e-15)

    @pytest.mark.parametrize("method", [propagate_taylor1,
                                        propagate_taylor2])
    def test_exactly_known_input_contributes_zero(self, method):
        # d/dX2 (X1 / X2) = -1e340 overflows, and -inf * 0 was NaN
        joint = gaussian_joint([1.0, 1e-170], [0.1, 0.0])
        r = method(parse_model("X1 / X2"), joint)
        assert within(r.u, mpmath.mpf(0.1) / mpmath.mpf(1e-170), 1e-15)
        rows = r.budget
        assert rows[1]["sensitivity"] == -math.inf
        assert rows[1]["contribution"] == 0.0
