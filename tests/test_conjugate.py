"""Closed-form posterior for the known-noise linear-Gaussian model.

The library takes it from the R factor of the design; the oracles here
share only the feature map with it: the normal equations written out,
60-digit mpmath arithmetic, the log evidence, central differences of
the exact free energy, and Monte Carlo estimates of it.
"""

import math
import os

import numpy as np
import pytest

import uncertlab.vi as vi
from uncertlab.dataset import make_dataset
from uncertlab.errors import ConfigError, DomainError
from uncertlab.regression import build_model
from uncertlab.vi import (VariationalPosterior, VIConfig,
                          conjugate_posterior, objective, pack_posterior,
                          predict_parts, train_vi, unpack_posterior)


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
    phi = model.features(data.x, "record", DomainError)[0]
    sigma2 = model.fixed_noise_sd ** 2
    precision = (phi.T @ phi / sigma2
                 + np.eye(phi.shape[1]) / model.prior_tau ** 2)
    cov = np.linalg.inv(precision)
    return cov @ phi.T @ data.y / sigma2, cov, precision


def rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def diagonal(q):
    """The mean-field q with q's mean and marginal sds."""
    return VariationalPosterior("mean_field", q.mu,
                                np.sqrt(q.covariance().diagonal()))


class TestPosterior:
    def test_single_observation_scalar_case(self):
        # phi=1, y=1, sd=1, tau=1: posterior N(1/2, 1/2)
        data = make_dataset(np.array([[0.0]]), np.array([1.0]), ("x1",))
        model = build_model(data, mean_degree=0, standardize=False,
                            fixed_noise_sd=1.0, prior_tau=1.0)
        q = conjugate_posterior(model.design(data))
        assert q.mu[0] == pytest.approx(0.5, rel=1e-13, abs=0.0)
        assert q.covariance()[0, 0] == pytest.approx(0.5, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("degree, sd, tau", [
        (1, 0.2, 1.0), (2, 0.2, 1.0), (2, 0.05, 0.3), (3, 1.5, 10.0)])
    def test_full_rank_is_the_normal_equations(self, degree, sd, tau):
        model, data = fixture(degree=degree, sd=sd, tau=tau)
        q = conjugate_posterior(model.design(data))
        mu, cov, _ = normal_equations(model, data)
        np.testing.assert_allclose(q.mu, mu, rtol=1e-11)
        np.testing.assert_allclose(q.covariance(), cov, rtol=1e-11)

    @pytest.mark.parametrize("offset", [1e6, 1e9])
    def test_large_y_offset_against_mpmath(self, offset):
        # tau = 1e9 leaves the fit to the data: the normal equations
        # miss the slopes by 2e-11 to 2e-10 at offset 1e6 and by 2e-8 to
        # 8e-8 at 1e9; the R factor of the centred records keeps every
        # weight to a few units in the last place
        mpmath = pytest.importorskip("mpmath")
        model, data = fixture(n=40, seed=3, tau=1e9, offset=offset)
        q = conjugate_posterior(model.design(data))
        with mpmath.workdps(60):
            phi, _ = model.features(data.x, "record", DomainError)
            phi = mpmath.matrix(phi.tolist())
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

    @pytest.mark.parametrize("degree, n", [(1, 60), (3, 60), (6, 200),
                                           (4, 5)])
    def test_factor_is_exactly_lower_triangular(self, degree, n):
        # LU of the triangular R pivots nothing, so R^-1 and L = J R^-1 J
        # keep exact zeros on their other side
        model, data = fixture(n=n, degree=degree)
        q = conjugate_posterior(model.design(data))
        assert q.factor.shape[0] > 1
        assert np.all(np.triu(q.factor, 1) == 0.0)
        assert np.all(q.factor.diagonal() > 0.0)

    def test_posterior_tightens_with_data(self):
        model, data = fixture(n=400)
        few = make_dataset(data.x[:20], data.y[:20], data.feature_names)
        traces = [np.trace(conjugate_posterior(model.design(d)).covariance())
                  for d in (few, data)]
        assert traces[1] < traces[0]

    def test_requires_fixed_noise(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 1))
        data = make_dataset(x, x[:, 0], ("x1",))
        model = build_model(data, mean_degree=1)
        with pytest.raises(ConfigError, match="fixed"):
            conjugate_posterior(model.design(data))


class TestExactFreeEnergy:
    def test_full_rank_optimum_is_minus_the_log_evidence(self):
        # F = KL - E_q[log-lik] = -log p(y) + KL[q || posterior], which is
        # 0 at the exact posterior; p(y) = N(y; 0, sigma^2 I + tau^2 Phi Phi')
        model, data = fixture(n=30, degree=2, tau=0.8)
        design = model.design(data)
        q = conjugate_posterior(design)
        phi = model.features(data.x, "record", DomainError)[0]
        evidence_cov = (model.fixed_noise_sd ** 2 * np.eye(len(data.y))
                        + model.prior_tau ** 2 * phi @ phi.T)
        _, logdet = np.linalg.slogdet(evidence_cov)
        log_evidence = -0.5 * (len(data.y) * math.log(2 * math.pi) + logdet
                               + data.y @ np.linalg.solve(evidence_cov,
                                                          data.y))
        f = vi._exact_free_energy(design, q)
        assert f == pytest.approx(-log_evidence, rel=1e-12, abs=0.0)
        assert vi._exact_free_energy(design, diagonal(q)) > f

    def test_free_energy_beyond_the_double_range_is_refused(self):
        # |b - A (mu - shift)|^2 and |mu|^2 overflowed with numpy's matmul
        # warnings, and only the report refused the inf F
        _, data = fixture(n=30)
        y = data.y.copy()
        y[7] = 1e200
        data = make_dataset(data.x, y, ("x1", "x2"))
        model = build_model(data, standardize=False, fixed_noise_sd=0.2)
        with pytest.raises(DomainError, match=r"^the free energy is inf: "):
            train_vi(model, data)

    @pytest.mark.parametrize("family", vi.FAMILIES)
    def test_within_monte_carlo_error_of_objective(self, family):
        # at a point near the optimum and at a q off it, the objective's
        # estimate at 20,000 draws lands within 5 standard errors of the
        # exact F
        model, data = fixture(n=60, seed=9, degree=2)
        design = model.design(data)
        p = model.n_weights
        rng = np.random.default_rng(12)
        exact = conjugate_posterior(design)
        if family == "mean_field":
            exact = diagonal(exact)
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
        # no field of the config is read
        configs = (VIConfig(family=family),
                   VIConfig(family=family, max_steps=1, learning_rate=5.0,
                            n_mc=1, seed=9, schedule="cosine"))
        q = conjugate_posterior(design)
        start = unpack_posterior("full_rank", model.n_weights,
                                 vi._initial_theta(design, "full_rank"))
        for out in (train_vi(model, data, cfg) for cfg in configs):
            assert (out.stop_reason, out.n_steps, out.converged) == \
                ("exact", 0, True)
            assert out.trajectory.shape == (0,)
            assert out.posterior.family == "full_rank"
            assert np.array_equal(out.posterior.mu, q.mu)
            assert np.array_equal(out.posterior.scale, q.scale)
            assert out.initial_free_energy == vi._exact_free_energy(
                design, start)
            assert out.final_free_energy == vi._exact_free_energy(design, q)
            assert out.final_free_energy < out.initial_free_energy

    @pytest.mark.parametrize("degree", [1, 2])
    def test_train_then_predict_is_the_conjugate_predictive(self, degree):
        # y = phi'mu and u^2 = sigma^2 + phi'Sigma phi, with
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
        phi = model.features(rows, "part", DomainError)[0]
        np.testing.assert_allclose(vm.y, phi @ mu, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            vm.u ** 2, 0.09 + np.einsum("ij,jk,ik->i", phi, cov, phi),
            rtol=1e-12, atol=0.0)
        assert np.all(vm.aleatoric_var == 0.09)

    def test_predictive_variance_floor_is_the_noise(self):
        model, data = fixture(n=5000)
        out = train_vi(model, data, VIConfig(family="full_rank"))
        vm = predict_parts(model, out.posterior, np.zeros((1, 2)), 2.0)
        var = vm.u[0] ** 2
        assert var >= model.fixed_noise_sd ** 2
        assert var == pytest.approx(model.fixed_noise_sd ** 2,
                                    rel=0.01, abs=0.0)

    def test_both_configs_train_the_same_full_rank_posterior(self):
        model, data = fixture(n=50, seed=5, degree=2)
        mean_field, full_rank = (
            train_vi(model, data, VIConfig(family=family)).posterior
            for family in ("mean_field", "full_rank"))
        assert mean_field.family == full_rank.family == "full_rank"
        assert np.array_equal(mean_field.mu, full_rank.mu)
        assert np.array_equal(mean_field.scale, full_rank.scale)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_few_records_predict_the_exact_sigma_hat(self, monkeypatch,
                                                      seed):
        # 30 records of the benchmark's three-feature truth, mean degree 2:
        # the quadratic monomials correlate, and the mean-field optimum
        # put sigma_hat at 0.50 (seed 7) and 0.30 (seed 11) of the exact one
        monkeypatch.syspath_prepend(os.path.join(
            os.path.dirname(__file__), os.pardir, "bench"))
        from workloads import Generator
        rng = np.random.default_rng(seed)
        gen = Generator(rng)
        x = gen.features(rng, 30)
        y = gen.mean(x) + gen.sd(x) * rng.standard_normal(len(x))
        parts = gen.features(rng, 500)
        data = make_dataset(x, y, ("x1", "x2", "x3"))
        model = build_model(data, mean_degree=2, fixed_noise_sd=0.2)
        out = train_vi(model, data, VIConfig(family="mean_field"))
        vm = predict_parts(model, out.posterior, parts, 2.0)
        _, cov, _ = normal_equations(model, data)
        phi = model.features(parts, "part", DomainError)[0]
        want = np.sqrt(0.04 + np.einsum("ij,jk,ik->i", phi, cov, phi))
        np.testing.assert_allclose(vm.u, want, rtol=1e-12, atol=0.0)


def collinear_data(seed=1, n=50):
    """x2 = 2 x1: after standardization the two columns are equal, and
    at mean degree 2 so are x1^2, x1 x2 and x2^2."""
    rng = np.random.default_rng(seed)
    x1 = np.round(rng.uniform(0.0, 1.0, n), 6)
    y = np.round(1.0 + 2.0 * x1 + 0.1 * rng.standard_normal(n), 6)
    return make_dataset(np.column_stack([x1, 2.0 * x1]), y, ("x1", "x2"))


@pytest.mark.parametrize("tau", [1.0, 1e3, 1e5, 1e6])
def test_collinear_epistemic_variance_against_mpmath(tau):
    # only the prior pins the weights along the collinear directions;
    # forming Lambda = A'A + I / tau^2 squared the condition number and
    # missed phi' Lambda^-1 phi by up to 1.5e-2 at tau = 1e5, and at
    # tau = 1e6 its Cholesky factor failed
    mpmath = pytest.importorskip("mpmath")
    data = collinear_data()
    model = build_model(data, mean_degree=2, fixed_noise_sd=0.1,
                        prior_tau=tau)
    out = train_vi(model, data, VIConfig())
    vm = predict_parts(model, out.posterior, data.x, 2.0)
    phi = model.features(data.x, "record", DomainError)[0]
    with mpmath.workdps(60):
        rows = mpmath.matrix(phi.tolist())
        precision = (rows.T * rows / mpmath.mpf(model.fixed_noise_sd) ** 2
                     + mpmath.eye(rows.cols) / mpmath.mpf(tau) ** 2)
        cov = precision ** -1
        want = np.array([float((rows[i, :] * cov * rows[i, :].T)[0])
                         for i in range(rows.rows)])
    np.testing.assert_allclose(vm.epistemic_var, want, rtol=1e-12, atol=0.0)
