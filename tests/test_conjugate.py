"""Closed-form posterior for the known-noise linear-Gaussian model.

The library takes it from the R factor of the design; the oracles here
share only the feature map with it: the normal equations written out,
60-digit mpmath arithmetic, the log evidence, central differences of
the exact free energy, and Monte Carlo estimates of it.
"""

import math

import numpy as np
import pytest

import uncertlab.vi as vi
from uncertlab.dataset import make_dataset
from uncertlab.errors import ConfigError
from uncertlab.regression import build_model
from uncertlab.vi import (VIConfig, conjugate_posterior, objective,
                          pack_posterior, predict_parts, train_vi,
                          unpack_posterior)


def fixture(n=60, seed=0, sd=0.2, tau=1.0, offset=0.0, degree=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    w = np.array([0.7, -1.2, 0.4])
    y = offset + w[0] + x @ w[1:] + sd * rng.standard_normal(n)
    data = make_dataset(x, y, ("x1", "x2"))
    model = build_model(data, mean_degree=degree, standardize=False,
                        fixed_noise_sd=sd, prior_tau=tau)
    return model, data


def normal_equations(model, data):
    """(mean, covariance, precision) of the posterior, with
    precision = Phi'Phi / sigma^2 + I / tau^2 and
    mean = precision^-1 Phi'y / sigma^2."""
    phi = model.mean_features(data.x)
    sigma2 = model.fixed_noise_sd ** 2
    precision = (phi.T @ phi / sigma2
                 + np.eye(phi.shape[1]) / model.prior_tau ** 2)
    cov = np.linalg.inv(precision)
    return cov @ phi.T @ data.y / sigma2, cov, precision


def rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestPosterior:
    @pytest.mark.parametrize("family", vi.FAMILIES)
    def test_single_observation_scalar_case(self, family):
        # phi=1, y=1, sd=1, tau=1: posterior N(1/2, 1/2)
        data = make_dataset(np.array([[0.0]]), np.array([1.0]), ("x1",))
        model = build_model(data, mean_degree=0, standardize=False,
                            fixed_noise_sd=1.0, prior_tau=1.0)
        q = conjugate_posterior(model.design(data), family)
        assert q.mu[0] == pytest.approx(0.5, rel=1e-13)
        assert q.covariance()[0, 0] == pytest.approx(0.5, rel=1e-13)

    @pytest.mark.parametrize("degree, sd, tau", [
        (1, 0.2, 1.0), (2, 0.2, 1.0), (2, 0.05, 0.3), (3, 1.5, 10.0)])
    def test_full_rank_is_the_normal_equations(self, degree, sd, tau):
        model, data = fixture(degree=degree, sd=sd, tau=tau)
        q = conjugate_posterior(model.design(data), "full_rank")
        mu, cov, _ = normal_equations(model, data)
        np.testing.assert_allclose(q.mu, mu, rtol=1e-11)
        np.testing.assert_allclose(q.covariance(), cov, rtol=1e-11)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_mean_field_keeps_the_mean_and_inverts_the_diagonal(self,
                                                                degree):
        # the mean-field optimum of a Gaussian posterior has its mean
        # and s_i^2 = 1 / Lambda_ii (Bishop 2006, section 10.1.2)
        model, data = fixture(degree=degree)
        design = model.design(data)
        q = conjugate_posterior(design, "mean_field")
        mu, _, precision = normal_equations(model, data)
        assert q.family == "mean_field"
        assert np.array_equal(q.mu, conjugate_posterior(design,
                                                        "full_rank").mu)
        np.testing.assert_allclose(q.mu, mu, rtol=1e-11)
        np.testing.assert_allclose(q.scale, 1 / np.sqrt(precision.diagonal()),
                                   rtol=1e-11)

    @pytest.mark.parametrize("offset", [1e6, 1e9])
    def test_large_y_offset_against_mpmath(self, offset):
        # tau = 1e9 leaves the fit to the data: the normal equations
        # miss the slopes by 2e-11 to 2e-10 at offset 1e6 and by 2e-8 to
        # 8e-8 at 1e9; the R factor of the centred records keeps every
        # weight to a few units in the last place
        mpmath = pytest.importorskip("mpmath")
        model, data = fixture(n=40, seed=3, tau=1e9, offset=offset)
        q = conjugate_posterior(model.design(data), "full_rank")
        with mpmath.workdps(60):
            phi = mpmath.matrix(model.mean_features(data.x).tolist())
            y = mpmath.matrix(data.y.tolist())
            precision = (phi.T * phi / mpmath.mpf(model.fixed_noise_sd) ** 2
                         + mpmath.eye(phi.cols)
                         / mpmath.mpf(model.prior_tau) ** 2)
            mu = mpmath.lu_solve(precision, phi.T * y
                                 / mpmath.mpf(model.fixed_noise_sd) ** 2)
            want_mu = np.array([float(v) for v in mu])
            want_cov = np.array((precision ** -1).tolist(), dtype=float)
        np.testing.assert_allclose(q.mu, want_mu, rtol=1e-14, atol=0.0)
        assert rel(q.covariance(), want_cov) <= 1e-14

    def test_posterior_tightens_with_data(self):
        model, data = fixture(n=400)
        few = make_dataset(data.x[:20], data.y[:20], data.feature_names)
        traces = [np.trace(conjugate_posterior(model.design(d),
                                               "full_rank").covariance())
                  for d in (few, data)]
        assert traces[1] < traces[0]

    def test_requires_fixed_noise(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 1))
        data = make_dataset(x, x[:, 0], ("x1",))
        model = build_model(data, mean_degree=1)
        with pytest.raises(ConfigError, match="fixed"):
            conjugate_posterior(model.design(data), "full_rank")

    def test_unknown_family_refused(self):
        model, data = fixture()
        with pytest.raises(ConfigError, match="family"):
            conjugate_posterior(model.design(data), "low_rank")


class TestExactFreeEnergy:
    def test_full_rank_optimum_is_minus_the_log_evidence(self):
        # F = KL - E_q[log-lik] = -log p(y) + KL[q || posterior], which is
        # 0 at the exact posterior; p(y) = N(y; 0, sigma^2 I + tau^2 Phi Phi')
        model, data = fixture(n=30, degree=2, tau=0.8)
        design = model.design(data)
        q = conjugate_posterior(design, "full_rank")
        phi = model.mean_features(data.x)
        evidence_cov = (model.fixed_noise_sd ** 2 * np.eye(len(data.y))
                        + model.prior_tau ** 2 * phi @ phi.T)
        _, logdet = np.linalg.slogdet(evidence_cov)
        log_evidence = -0.5 * (len(data.y) * math.log(2 * math.pi) + logdet
                               + data.y @ np.linalg.solve(evidence_cov,
                                                          data.y))
        f = vi._exact_free_energy(design, q)
        assert f == pytest.approx(-log_evidence, rel=1e-12)
        assert vi._exact_free_energy(design, conjugate_posterior(
            design, "mean_field")) > f

    def test_mean_field_optimum_is_a_stationary_minimum(self):
        # correlated features (x1^2, x1 x2 beside x1, x2) make the
        # mean-field optimum differ from the posterior's own diagonal
        model, data = fixture(n=50, seed=5, degree=2)
        design = model.design(data)
        p = model.n_weights
        theta = pack_posterior(conjugate_posterior(design, "mean_field"))

        def f(t):
            return vi._exact_free_energy(
                design, unpack_posterior("mean_field", p, t))

        h = 1e-5
        grad = np.array([(f(theta + h * e) - f(theta - h * e)) / (2 * h)
                         for e in np.eye(len(theta))])
        assert np.abs(grad).max() <= 1e-5
        best = f(theta)
        rng = np.random.default_rng(8)
        for _ in range(200):
            step = rng.standard_normal(len(theta))
            assert f(theta + 1e-2 * step / np.linalg.norm(step)) > best

    @pytest.mark.parametrize("family", vi.FAMILIES)
    def test_within_monte_carlo_error_of_objective(self, family):
        # at the optimum and at a q off it, the objective's estimate at
        # 20,000 draws lands within 5 standard errors of the exact F
        model, data = fixture(n=60, seed=9, degree=2)
        design = model.design(data)
        p = model.n_weights
        rng = np.random.default_rng(12)
        exact = conjugate_posterior(design, family)
        off = unpack_posterior(family, p, pack_posterior(exact)
                               + 0.3 * rng.standard_normal(
                                   len(pack_posterior(exact))))
        for q in (exact, off):
            z = rng.standard_normal((20_000, p))
            value, _ = objective(design, family, pack_posterior(q), z,
                                 model.prior_tau)
            ll, _ = design.log_likelihood_and_grad(q.mu + z @ q.factor.T)
            se = ll.std(ddof=1) / math.sqrt(len(z))
            assert abs(value - vi._exact_free_energy(design, q)) <= 5 * se


class TestTrainPredict:
    @pytest.mark.parametrize("family", vi.FAMILIES)
    def test_train_is_exact_and_runs_no_steps(self, family):
        model, data = fixture(n=80, degree=2)
        design = model.design(data)
        # of the config only the family is read
        configs = (VIConfig(family=family),
                   VIConfig(family=family, max_steps=1, learning_rate=5.0,
                            n_mc=1, seed=9, schedule="cosine"))
        for out in (train_vi(model, data, cfg) for cfg in configs):
            assert (out.stop_reason, out.n_steps, out.converged) == \
                ("exact", 0, True)
            assert out.trajectory.shape == (0,)
            q = conjugate_posterior(design, family)
            assert np.array_equal(out.posterior.mu, q.mu)
            assert np.array_equal(out.posterior.scale, q.scale)
            start = unpack_posterior(family, model.n_weights,
                                     vi._initial_theta(design, family))
            assert out.initial_free_energy == vi._exact_free_energy(
                design, start)
            assert out.final_free_energy == vi._exact_free_energy(design, q)
            assert out.final_free_energy < out.initial_free_energy

    @pytest.mark.parametrize("degree", [1, 2])
    def test_train_then_predict_is_the_conjugate_predictive(self, degree):
        # y_hat = phi'mu and sigma_hat^2 = sigma^2 + phi'Sigma phi, with
        # mu and Sigma from the normal equations
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(60, 1))
        y = 1.0 + 2.0 * x[:, 0] + 0.3 * rng.standard_normal(60)
        data = make_dataset(x, y, ("x1",))
        model = build_model(data, mean_degree=degree, fixed_noise_sd=0.3)
        out = train_vi(model, data, VIConfig(family="full_rank"))
        rows = np.linspace(0.0, 2.0, 24)[:, None]
        vm = predict_parts(model, out.posterior, rows, 2.0)
        mu, cov, _ = normal_equations(model, data)
        phi = model.mean_features(rows)
        np.testing.assert_allclose(vm.y_hat, phi @ mu, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            vm.sigma_hat ** 2, 0.09 + np.einsum("ij,jk,ik->i", phi, cov, phi),
            rtol=1e-12, atol=0.0)
        assert np.all(vm.aleatoric_var == 0.09)

    def test_predictive_variance_floor_is_the_noise(self):
        model, data = fixture(n=5000)
        out = train_vi(model, data, VIConfig(family="full_rank"))
        vm = predict_parts(model, out.posterior, np.zeros((1, 2)), 2.0)
        var = vm.sigma_hat[0] ** 2
        assert var >= model.fixed_noise_sd ** 2
        assert var == pytest.approx(model.fixed_noise_sd ** 2, rel=0.01)
