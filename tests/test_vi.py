"""Gaussian variational inference: step gradients, training, predict."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import uncertlab.vi as vi
from uncertlab.dataset import make_dataset
from uncertlab.errors import (ConfigError, DatasetError, DivergenceError,
                              DomainError)
from uncertlab.propagation import MeasurementResult, propagate_taylor1
from uncertlab.regression import (MAX_WEIGHTS, NOISE_FLOOR, BayesianVMModel,
                                  build_model, inv_softplus, softplus)
from uncertlab.rng import substream
from uncertlab.vi import (VIConfig, VariationalPosterior, kl_gaussian,
                          optimize, pack_posterior, predict_parts, train_vi,
                          unpack_posterior)

from test_regression import replaced_likelihood


def linear_data(n=120, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 1))
    y = 1.0 + 2.0 * x[:, 0] + noise * rng.standard_normal(n)
    return make_dataset(x, y, ("x1",))


def random_posterior(rng, p, family):
    mu = rng.standard_normal(p)
    if family == "mean_field":
        scale = rng.uniform(0.2, 2.0, size=p)
    else:
        scale = np.tril(rng.standard_normal((p, p)) * 0.3)
        np.fill_diagonal(scale, rng.uniform(0.2, 2.0, size=p))
    return VariationalPosterior(family, mu, scale)


def weight_draws(q, rng, n):
    """n reparameterized draws w = mu + z L' of q, shape (n, P)."""
    return q.mu + rng.standard_normal((n, q.n_weights)) @ q.factor.T


def step_gradient(design, family, theta, z, prior_tau):
    """Training's step gradient at theta and the (S, P) normals z, copied
    out of the workspace the step's next call overwrites."""
    z1 = np.column_stack([np.ones(len(z)), z])
    return vi._stepper(design, family, len(z), prior_tau)(theta, z1).copy()


def free_energy_at_draws(design, family, theta, z, prior_tau):
    """F_z: the closed-form KL of q less the mean log-likelihood of the
    draws w = mu + z L', from the records-major likelihood."""
    q = unpack_posterior(family, design.model.n_weights, theta)
    ll, _ = replaced_likelihood(design, q.mu + z @ q.factor.T)
    return kl_gaussian(q, prior_tau) - ll.mean()


class TestKL:
    def test_textbook_scalar_value(self):
        # KL(N(1,1) || N(0,1)) = 1/2
        q = VariationalPosterior("mean_field", np.array([1.0]),
                                 np.array([1.0]))
        assert kl_gaussian(q, 1.0) == pytest.approx(0.5, rel=1e-13, abs=0.0)

    def test_zero_iff_prior(self):
        p = 4
        q = VariationalPosterior("mean_field", np.zeros(p), np.ones(p))
        assert kl_gaussian(q, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_nonnegative_on_random_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            family = "mean_field" if rng.random() < 0.5 else "full_rank"
            q = random_posterior(rng, int(rng.integers(1, 6)), family)
            tau = float(rng.uniform(0.3, 3.0))
            assert kl_gaussian(q, tau) >= -1e-12

    def test_matches_direct_formula_full_rank(self):
        rng = np.random.default_rng(7)
        q = random_posterior(rng, 3, "full_rank")
        tau = 1.7
        cov = q.covariance()
        p = 3
        want = 0.5 * (np.trace(cov) / tau ** 2
                      + q.mu @ q.mu / tau ** 2 - p
                      + p * np.log(tau ** 2)
                      - np.linalg.slogdet(cov)[1])
        assert kl_gaussian(q, tau) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_mean_field_at_max_weights_forms_no_square_matrix(self):
        # construction and KL read L's diagonal from scale itself; a
        # P x P array of doubles would be 32 MiB here
        p = MAX_WEIGHTS
        rng = np.random.default_rng(8)
        mu, scale = rng.standard_normal(p), rng.uniform(0.2, 2.0, p)
        tracemalloc.start()
        try:
            q = VariationalPosterior("mean_field", mu, scale)
            kl = kl_gaussian(q, 1.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * p * p // 64
        tau2 = 1.3**2
        norm2 = float(mu @ mu) + float(np.vdot(scale, scale))
        want = (0.5 * (norm2 / tau2 - p + p * math.log(tau2))
                - float(np.log(np.diag(scale).diagonal()).sum()))
        assert kl == want


class TestPosteriorParameterization:
    def test_pack_unpack_round_trip_mean_field(self):
        rng = np.random.default_rng(3)
        q = random_posterior(rng, 5, "mean_field")
        p = pack_posterior(q)
        q2 = unpack_posterior("mean_field", 5, p)
        np.testing.assert_allclose(q2.mu, q.mu, rtol=1e-14)
        np.testing.assert_allclose(q2.scale, q.scale, rtol=1e-14)

    def test_pack_unpack_round_trip_full_rank(self):
        rng = np.random.default_rng(4)
        q = random_posterior(rng, 4, "full_rank")
        p = pack_posterior(q)
        q2 = unpack_posterior("full_rank", 4, p)
        np.testing.assert_allclose(q2.scale, q.scale, rtol=1e-13,
                                   atol=1e-15)

    @pytest.mark.parametrize("family, length, want", [
        ("mean_field", 7, 8), ("mean_field", 9, 8), ("full_rank", 8, 14)])
    def test_unpack_refuses_a_theta_of_the_wrong_length(self, family,
                                                        length, want):
        # numpy's put would repeat a short theta to fill M
        with pytest.raises(ConfigError) as err:
            unpack_posterior(family, 4, np.zeros(length))
        assert str(err.value) == (f"{family} parameter vector must have "
                                  f"length {want}")

    def test_covariance_is_l_lt(self):
        rng = np.random.default_rng(5)
        q = random_posterior(rng, 4, "full_rank")
        np.testing.assert_allclose(q.covariance(), q.scale @ q.scale.T,
                                   rtol=1e-14)

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ConfigError):
            VariationalPosterior("mean_field", np.zeros(2),
                                 np.array([1.0, 0.0]))

    @pytest.mark.parametrize("family", ["mean_field", "full_rank"])
    def test_matrix_mu_rejected(self, family):
        scale = np.ones(3) if family == "mean_field" else np.eye(3)
        with pytest.raises(ConfigError, match="vector"):
            VariationalPosterior(family, np.zeros((3, 1)), scale)

    @pytest.mark.parametrize("family", ["mean_field", "full_rank"])
    @pytest.mark.parametrize("field", ["mu", "scale"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, family, field, bad):
        mu = np.zeros(3)
        scale = np.ones(3) if family == "mean_field" else np.eye(3)
        (mu if field == "mu" else scale.reshape(-1))[1] = bad
        with pytest.raises(ConfigError, match="finite"):
            VariationalPosterior(family, mu, scale)


def one_feature_model(**settings):
    return BayesianVMModel(("x1",), np.zeros(1), np.ones(1), **settings)


@pytest.mark.parametrize("make, setting", [
    (VIConfig, "learning_rate"),
    (VIConfig, "tolerance"),
    (one_feature_model, "prior_tau"),
    (one_feature_model, "fixed_noise_sd"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_setting_refused(make, setting, bad):
    # refused where it is set, not later as a divergence at step 0 or
    # a NaN report
    with pytest.raises(ConfigError):
        make(**{setting: bad})


@pytest.mark.parametrize("setting, bad", [
    ("max_steps", 2.5), ("max_steps", True), ("max_steps", 0),
    ("window", math.nan), ("window", 2.5), ("window", "500"),
    ("n_mc", 2.5), ("n_mc", False), ("n_mc", np.float64(8.0)),
    ("n_mc", True), ("n_mc", math.nan), ("n_mc", 0),
    ("seed", -1), ("seed", 2.5), ("seed", True), ("seed", "0"),
])
def test_integer_setting_refused(setting, bad):
    # refused where it is set, not later inside numpy or substream as a
    # TypeError or ValueError
    with pytest.raises(ConfigError, match=f"^{setting} must be an integer"):
        VIConfig(**{setting: bad})


def test_numpy_integer_setting_accepted():
    config = VIConfig(max_steps=np.int64(10), window=np.int32(5), n_mc=2,
                      seed=np.uint8(3))
    data = linear_data(n=30, seed=2)
    out = train_vi(build_model(data, mean_degree=1), data, config)
    assert out.n_steps == 10


class TestStepGradients:
    @pytest.mark.parametrize("family", ["mean_field", "full_rank"])
    @pytest.mark.parametrize("fixed_noise", [None, 0.15])
    def test_fd_agreement(self, family, fixed_noise):
        data = linear_data(n=30, seed=11)
        model = build_model(data, mean_degree=1, noise_degree=1,
                            fixed_noise_sd=fixed_noise)
        design = model.design(data)
        p = model.n_weights
        rng = np.random.default_rng(13)
        n_theta = 2 * p if family == "mean_field" else p + p * (p + 1) // 2
        for _ in range(4):
            theta = rng.standard_normal(n_theta) * 0.3
            z = rng.standard_normal((6, p))
            grad = step_gradient(design, family, theta, z, 1.0)
            h = 1e-6
            for i in range(n_theta):
                e = np.zeros(n_theta)
                e[i] = h
                fp = free_energy_at_draws(design, family, theta + e, z, 1.0)
                fm = free_energy_at_draws(design, family, theta - e, z, 1.0)
                fd = (fp - fm) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=5e-4, abs=1e-6)

    @pytest.mark.parametrize("fixed_noise", [None, 0.15])
    def test_full_rank_with_zero_lower_triangle_is_mean_field(self,
                                                              fixed_noise):
        # both families run one path on M = [mu | L]: a full-rank theta
        # whose strict lower triangle is 0 is the mean-field q, to the bit
        data = linear_data(n=30, seed=11)
        model = build_model(data, mean_degree=2, fixed_noise_sd=fixed_noise)
        design = model.design(data)
        p = model.n_weights
        rng = np.random.default_rng(29)
        for _ in range(4):
            theta = rng.standard_normal(2 * p) * 0.3
            z = rng.standard_normal((6, p))
            g_mf = step_gradient(design, "mean_field", theta, z, 1.3)
            full = np.concatenate([theta, np.zeros(p * (p - 1) // 2)])
            g_fr = step_gradient(design, "full_rank", full, z, 1.3)
            assert np.array_equal(g_fr[:2 * p], g_mf)


class TestTraining:
    def test_noise_bias_starts_at_the_target_sd(self):
        data = linear_data(n=80, seed=3)
        design = build_model(data).design(data)
        theta = vi._initial_theta(design, "mean_field")
        assert theta[design.model.n_mean_weights] == inv_softplus(
            float(np.std(design.y, ddof=1)))
        # np.std overflowed in its squares: a warning, then inf
        y = data.y.copy()
        y[7] = 1e200
        data = make_dataset(data.x, y, ("x1",))
        design = build_model(data).design(data)
        theta = vi._initial_theta(design, "mean_field")
        assert theta[design.model.n_mean_weights] == pytest.approx(
            1e200 * math.sqrt(1 / 80), rel=1e-12, abs=0.0)

    def test_recovers_linear_weights(self):
        data = linear_data(n=200, seed=42)
        model = build_model(data, mean_degree=1, standardize=False,
                            fixed_noise_sd=0.1)
        out = optimize(model.design(data), VIConfig(seed=3, max_steps=4000,
                                                    schedule="cosine",
                                                    learning_rate=0.02,
                                                    tolerance=0.0,
                                                    window=4000))
        w = out.posterior.mu
        assert w[0] == pytest.approx(1.0, abs=0.05)
        assert w[1] == pytest.approx(2.0, abs=0.05)

    def test_free_energy_descends(self):
        data = linear_data(n=150, seed=7)
        model = build_model(data)
        out = train_vi(model, data, VIConfig(seed=0, max_steps=1500,
                                             tolerance=0.0, window=1500))
        assert out.final_free_energy < out.initial_free_energy

    def test_convergence_stops_early(self):
        data = linear_data(n=100, seed=5)
        model = build_model(data, mean_degree=1, fixed_noise_sd=0.1)
        out = optimize(model.design(data), VIConfig(seed=1, max_steps=20_000,
                                                    tolerance=1e-4))
        assert out.converged
        assert out.n_steps < 20_000

    def test_deterministic_for_fixed_seed(self):
        data = linear_data(n=80, seed=2)
        model = build_model(data)
        cfg = VIConfig(seed=6, max_steps=600, window=600, tolerance=0.0)
        a = train_vi(model, data, cfg)
        b = train_vi(model, data, cfg)
        np.testing.assert_array_equal(a.posterior.mu, b.posterior.mu)
        np.testing.assert_array_equal(a.posterior.scale, b.posterior.scale)
        assert a.final_free_energy == b.final_free_energy

    def test_too_few_records_rejected(self):
        data = linear_data(n=1)
        model = build_model(data)
        with pytest.raises(DatasetError):
            train_vi(model, data)

    def test_learned_noise_refuses_a_constant_target(self):
        data = make_dataset(np.arange(4.0)[:, None], np.full(4, 5.0), ("x1",))
        model = build_model(data, mean_degree=1)
        with pytest.raises(DatasetError) as err:
            train_vi(model, data)
        assert str(err.value) == (
            "all target values are identical; the noise level is not "
            "identifiable (fix the noise sd to train anyway)")

    def test_learned_noise_refuses_a_constant_target_whose_mean_rounds(self):
        # np.mean of 1,000 values 0.1 is 0.10000000000000002, which gave
        # the target an sd of 1.39e-17 and let training run
        data = make_dataset(np.linspace(0.0, 1.0, 1000)[:, None],
                            np.full(1000, 0.1), ("x1",))
        assert data.summary.target.mean == 0.1
        assert data.summary.target.sd == 0.0
        with pytest.raises(DatasetError, match="all target values are "
                           "identical"):
            train_vi(build_model(data, mean_degree=1), data)

    def test_trajectory_holds_one_value_per_window_end(self):
        data = linear_data(n=60, seed=9)
        model = build_model(data, mean_degree=1, fixed_noise_sd=0.1)
        out = optimize(model.design(data), VIConfig(seed=0, max_steps=400,
                                                    window=400,
                                                    tolerance=0.0))
        assert out.n_steps == 400
        assert out.trajectory.tolist() == [out.final_free_energy]


def noise_bias_posterior(model, m, s):
    """Mean-field q whose noise head, with psi = [1], has t ~ N(m, s^2)."""
    p = model.n_mean_weights
    mu, scale = np.zeros(model.n_weights), np.full(model.n_weights, 0.5)
    mu[p], scale[p] = m, s
    return VariationalPosterior("mean_field", mu, scale)


def quad_noise_variance(m, s):
    """E[(softplus(t) + floor)^2], t ~ N(m, s^2), by adaptive quadrature
    over the standard normal, split at the kink t = 0 and every 3 sd."""
    integrate = pytest.importorskip("scipy.integrate")

    def integrand(z):
        t = m + s * z
        g = (max(t, 0.0) + math.log1p(math.exp(-abs(t))) + NOISE_FLOOR) ** 2
        return g * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    cuts = [-math.inf] + sorted([float(v) for v in range(-12, 13, 3)]
                                + ([-m / s] if abs(m / s) < 12 else [])
                                ) + [math.inf]
    return sum(integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0]
               for a, b in zip(cuts, cuts[1:]))


FIELDS = ("y", "u", "aleatoric_var", "epistemic_var")


class TestPredict:
    def test_variance_decomposition_identity(self):
        data = linear_data(n=100, seed=3)
        model = build_model(data)
        rng = np.random.default_rng(44)
        q = random_posterior(rng, model.n_weights, "full_rank")
        vm = predict_parts(model, q, rng.uniform(-2, 2, size=(10, 1)), 2.0)
        total = vm.aleatoric_var + vm.epistemic_var
        assert vm.u ** 2 == pytest.approx(total, rel=1e-9, abs=0.0)

    def test_interval_is_khat(self):
        data = linear_data(n=50, seed=1)
        model = build_model(data, mean_degree=1, fixed_noise_sd=0.1)
        q = VariationalPosterior("mean_field", np.zeros(model.n_weights),
                                 np.full(model.n_weights, 0.5))
        vm = predict_parts(model, q, np.array([[0.3]]), k=2.5)
        lo, hi = vm.interval
        assert lo == pytest.approx(vm.y - 2.5 * vm.u, rel=1e-12, abs=0.0)
        assert hi == pytest.approx(vm.y + 2.5 * vm.u, rel=1e-12, abs=0.0)

    def test_result_is_a_virtual_measurement_result(self):
        # one result type: U is k * u and the interval y -/+ U, bit for
        # bit, and a call without k takes the propagation default 2
        data = linear_data(n=100, seed=3)
        model = build_model(data)
        rng = np.random.default_rng(45)
        q = random_posterior(rng, model.n_weights, "full_rank")
        rows = rng.uniform(-2, 2, size=(12, 1))
        vm = predict_parts(model, q, rows, 2.5)
        assert isinstance(vm, MeasurementResult)
        assert vm.method == "virtual" and vm.mc_diagnostics is None
        assert np.array_equal(vm.U, 2.5 * vm.u)
        lo, hi = vm.interval
        assert np.array_equal(lo, vm.y - vm.U)
        assert np.array_equal(hi, vm.y + vm.U)
        default = predict_parts(model, q, rows)
        assert default.k == 2.0 == propagate_taylor1.__defaults__[0]
        assert np.array_equal(default.U, 2.0 * vm.u)

    def test_epistemic_grows_away_from_data(self):
        data = linear_data(n=200, seed=12)
        model = build_model(data, mean_degree=1, fixed_noise_sd=0.1)
        out = train_vi(model, data)
        near, far = predict_parts(model, out.posterior,
                                  np.array([[0.0], [6.0]]), 2.0).epistemic_var
        assert far > 5 * near

    def test_fixed_noise_aleatoric_is_constant(self):
        data = linear_data(n=50, seed=4)
        model = build_model(data, mean_degree=1, fixed_noise_sd=0.25)
        q = VariationalPosterior("mean_field", np.zeros(model.n_weights),
                                 np.ones(model.n_weights))
        vm = predict_parts(model, q, np.array([[1.0]]), 2.0)
        assert vm.aleatoric_var[0] == pytest.approx(0.0625, rel=1e-12, abs=0.0)

    def test_reruns_identical(self):
        data = linear_data(n=50, seed=4)
        model = build_model(data)
        rng = np.random.default_rng(10)
        q = random_posterior(rng, model.n_weights, "mean_field")
        a, b = (predict_parts(model, q, np.array([[0.5]]), 2.0)
                for _ in range(2))
        for name in FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))
            assert getattr(a, name).shape == (1,)

    def test_wrong_feature_count(self):
        data = linear_data(n=50, seed=4)
        model = build_model(data)
        q = VariationalPosterior("mean_field", np.zeros(model.n_weights),
                                 np.ones(model.n_weights))
        with pytest.raises(ConfigError):
            predict_parts(model, q, np.array([[1.0, 2.0]]), 2.0)

    @pytest.mark.parametrize("fixed_noise", [None, 0.3])
    @pytest.mark.parametrize("mean_degree", [1, 2, 3])
    def test_parts_match_per_part_loop(self, fixed_noise, mean_degree):
        # the reference is the loop over parts, with the moments of each
        # head taken from q's covariance; a part predicted alone has the
        # batch's numbers to the bit
        data = linear_data(n=80, seed=5)
        model = build_model(data, fixed_noise_sd=fixed_noise,
                            mean_degree=mean_degree)
        q = random_posterior(np.random.default_rng(3), model.n_weights,
                             "full_rank")
        rows = np.random.default_rng(4).uniform(-2, 2, size=(70, 1))
        vms = predict_parts(model, q, rows, 2.5)
        assert vms.k == 2.5
        assert all(len(column) == 70 for column in (
            vms.y, vms.u, vms.aleatoric_var, vms.epistemic_var))
        p = model.n_mean_weights
        cov = q.covariance()
        for i, row in enumerate(rows):
            phi = model.features(row, "part", DomainError)[0][0]
            assert vms.y[i] == pytest.approx(phi @ q.mu[:p], rel=1e-12,
                                             abs=0.0)
            assert vms.epistemic_var[i] == pytest.approx(
                phi @ cov[:p, :p] @ phi, rel=1e-12, abs=0.0)
            alone = predict_parts(model, q, row[None], 2.5)
            for name in FIELDS:
                assert getattr(alone, name)[0] == getattr(vms, name)[i]
            if fixed_noise is not None:
                assert vms.aleatoric_var[i] == fixed_noise ** 2

    @pytest.mark.parametrize("family", vi.FAMILIES)
    @pytest.mark.parametrize("case", ["learned", "fixed", "wide"])
    def test_part_does_not_depend_on_its_batch(self, monkeypatch, family,
                                                case):
        # every field of a part is the same to the bit alone, in any
        # order, and in one-part slices. Learned noise: sds from below 2
        # to above 50 give rules of 49 to over 2,000 nodes. Wide: 20
        # features at degree 2, 231 mean-head weights
        rng = np.random.default_rng(3)
        if case == "wide":
            names = tuple(f"x{i}" for i in range(20))
            data = make_dataset(rng.standard_normal((80, 20)),
                                rng.standard_normal(80), names)
            model = build_model(data, mean_degree=2, noise_degree=1)
            rows = rng.standard_normal((40, 20))
        else:
            data = linear_data(n=80, seed=5)
            model = build_model(data, mean_degree=2, noise_degree=2,
                                fixed_noise_sd=0.3 if case == "fixed"
                                else None)
            rows = np.concatenate([np.linspace(-1, 1, 12),
                                   [-4.0, -2.5, 2.0, 3.0]])[:, None]
        q = random_posterior(rng, model.n_weights, family)
        if case == "learned":
            psi = model.features(rows, "part", DomainError)[1]
            p = model.n_mean_weights
            s = np.sqrt(np.einsum("ij,jk,ik->i", psi,
                                  q.covariance()[p:, p:], psi))
            assert s.min() < 2.0 and s.max() > 50.0
        whole = predict_parts(model, q, rows, 2.0)
        order = np.random.default_rng(1).permutation(len(rows))
        shuffled = predict_parts(model, q, rows[order], 2.0)
        alone = [predict_parts(model, q, row[None], 2.0) for row in rows]
        monkeypatch.setattr(vi, "_SLICE_VALUES", 1)
        sliced = predict_parts(model, q, rows, 2.0)
        for name in FIELDS:
            want = getattr(whole, name)
            np.testing.assert_array_equal(getattr(shuffled, name),
                                          want[order])
            np.testing.assert_array_equal(
                np.concatenate([getattr(vm, name) for vm in alone]), want)
            np.testing.assert_array_equal(getattr(sliced, name), want)

    @pytest.mark.parametrize("family", vi.FAMILIES)
    def test_learned_noise_matches_weight_draws(self, family):
        # 400,000 weight draws estimate all three moments
        n = 400_000
        data = linear_data(n=80, seed=5)
        model = build_model(data, mean_degree=2)
        q = random_posterior(np.random.default_rng(21), model.n_weights,
                             family)
        rows = np.array([[-1.5], [0.0], [0.4], [1.8]])
        vms = predict_parts(model, q, rows, 2.0)
        w_mu, w_sigma = np.split(weight_draws(q, np.random.default_rng(8), n),
                                 [model.n_mean_weights], axis=1)
        for i, row in enumerate(rows):
            phi, psi = model.features(row, "part", DomainError)
            f = w_mu @ phi[0]
            g = (softplus(w_sigma @ psi[0]) + NOISE_FLOOR) ** 2
            c2 = (f - f.mean()) ** 2
            assert abs(vms.y[i] - f.mean()) < 5 * f.std() / math.sqrt(n)
            assert (abs(vms.epistemic_var[i] - c2.mean())
                    < 5 * c2.std() / math.sqrt(n))
            assert (abs(vms.aleatoric_var[i] - g.mean())
                    < 5 * g.std() / math.sqrt(n))

    def test_aleatoric_matches_quadrature(self):
        # t ~ N(m, s^2) exactly, for m from -40 to 15 and s up to the cap
        data = linear_data(n=80, seed=5)
        model = build_model(data, mean_degree=1, noise_degree=0)
        worst = 0.0
        for m in (-40.0, -20.0, -5.0, -1.0, 0.0, 0.7, 3.0, 15.0):
            for s in (1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 30.0, 99.5,
                      vi.MAX_NOISE_SD):
                vm = predict_parts(model, noise_bias_posterior(model, m, s),
                                   np.array([[0.3]]), 2.0)
                want = quad_noise_variance(m, s)
                worst = max(worst, abs(vm.aleatoric_var[0] - want) / want)
        assert worst <= 1e-12

    @pytest.mark.parametrize("family", vi.FAMILIES)
    def test_aleatoric_matches_quadrature_on_a_posterior(self, family):
        data = linear_data(n=80, seed=5)
        model = build_model(data, mean_degree=1)
        q = random_posterior(np.random.default_rng(17), model.n_weights,
                             family)
        p = model.n_mean_weights
        cov = q.covariance()
        rows = np.array([[-2.0], [-0.3], [0.9], [2.5]])
        vms = predict_parts(model, q, rows, 2.0)
        for i, row in enumerate(rows):
            psi = model.features(row, "part", DomainError)[1][0]
            m, s = psi @ q.mu[p:], math.sqrt(psi @ cov[p:, p:] @ psi)
            assert vms.aleatoric_var[i] == pytest.approx(
                quad_noise_variance(m, s), rel=1e-12, abs=0.0)

    def test_noise_sd_above_the_cap_is_refused(self):
        data = linear_data(n=80, seed=5)
        model = build_model(data, mean_degree=1, noise_degree=0)
        q = noise_bias_posterior(model, 0.0, vi.MAX_NOISE_SD * 1.0001)
        with pytest.raises(DomainError, match=r"^part 0: .* 100.01"):
            predict_parts(model, q, np.array([[0.0], [1.0]]), 2.0)
        # an overflowing noise feature is refused by part, before s
        model = build_model(data, mean_degree=1, noise_degree=2)
        q = random_posterior(np.random.default_rng(2), model.n_weights,
                             "mean_field")
        with pytest.raises(DomainError, match=r"^part 1: feature "
                           r"x1\^2 leaves the double range \(inf\)$"):
            predict_parts(model, q, np.array([[0.0], [1e200], [0.5]]), 2.0)

    def test_variance_beyond_the_double_range_is_refused(self):
        # epistemic_var = |L_mu'phi|^2 overflowed and the report refused
        # an inf; u, without squaring, is a double
        mpmath = pytest.importorskip("mpmath")
        data = linear_data(n=80, seed=5)
        model = build_model(data, mean_degree=1, fixed_noise_sd=0.1)
        q = train_vi(model, data).posterior
        rows = np.array([[0.0], [1e160], [0.5]])
        phi = model.features(rows[1:2], "part", DomainError)[0][0]
        chol = q.factor[:2, :2]
        mp_phi = [mpmath.mpf(v) for v in phi.tolist()]
        u = mpmath.sqrt(mpmath.mpf(0.1) ** 2 + sum(
            sum(mp_phi[j] * mpmath.mpf(float(chol[j, c])) for j in range(2))
            ** 2 for c in range(2)))
        with pytest.raises(DomainError) as err:
            predict_parts(model, q, rows, 2.0)
        assert str(err.value) == (f"part 1: u is {float(u):.6g} under the "
                                  f"posterior, and u^2 leaves the double "
                                  f"range")

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_non_finite_k_refused(self, k):
        data = linear_data(n=50, seed=4)
        model = build_model(data)
        q = VariationalPosterior("mean_field", np.zeros(model.n_weights),
                                 np.ones(model.n_weights))
        with pytest.raises(ConfigError, match="k must be > 0 and finite"):
            predict_parts(model, q, np.array([[0.5]]), k)


# ---------------------------------------------------------------------------
# The exact free energy
# ---------------------------------------------------------------------------

def fine_rule_free_energy(design, q, h=0.005, half_width=40.0):
    """F of a learned-noise q by a trapezoid rule far finer than the
    library's, on each record's joint Gaussian (f, t) written out: t =
    m + s x, f | x ~ N(f_bar + k x, |a|^2 - k^2)."""
    model = design.model
    p = model.n_mean_weights
    chol = q.factor
    a = design.phi_mu @ chol[:p]
    b = design.phi_sigma @ chol[p:]
    s = np.linalg.norm(b, axis=1)
    k = np.sum(a * b, axis=1) / s
    v = np.sum(a * a, axis=1) - k * k
    r = design.y - design.phi_mu @ q.mu[:p]
    m = design.phi_sigma @ q.mu[p:]
    x = np.arange(-half_width, half_width + h / 2, h)
    w = h * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    sigma = np.logaddexp(0.0, m[:, None] + s[:, None] * x) + NOISE_FLOOR
    nll = (0.5 * math.log(2.0 * math.pi) + np.log(sigma)
           + ((r[:, None] - k[:, None] * x) ** 2 + v[:, None])
           / (2.0 * sigma * sigma))
    return kl_gaussian(q, model.prior_tau) + float(np.sum(nll @ w))


class TestFreeEnergy:
    @pytest.mark.parametrize("family", vi.FAMILIES)
    def test_within_monte_carlo_error(self, family):
        # at 20,000 draws w = mu + z L', the Monte Carlo F lands within 5
        # standard errors of the exact one, at a posterior of moderate
        # spread and one with a wider noise head
        data = linear_data(n=40, seed=51, noise=0.3)
        model = build_model(data, mean_degree=2)
        design = model.design(data)
        rng = np.random.default_rng(52)
        for spread in (0.3, 1.0):
            q = random_posterior(rng, model.n_weights, family)
            q = VariationalPosterior(family, q.mu * spread, q.scale * spread)
            ll, _ = replaced_likelihood(design,
                                        weight_draws(q, rng, 20_000))
            se = ll.std(ddof=1) / math.sqrt(len(ll))
            mc = kl_gaussian(q, model.prior_tau) - ll.mean()
            assert abs(vi.free_energy(design, q) - mc) <= 5 * se

    @pytest.mark.parametrize("family", vi.FAMILIES)
    @pytest.mark.parametrize("fixed_noise", [None, 0.15])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_posterior_of_another_size_is_refused(self, family, fixed_noise,
                                                  extra):
        # one weight too many or too few met numpy's matmul or broadcast
        # ValueError
        data = linear_data(n=30, seed=11)
        model = build_model(data, mean_degree=2, fixed_noise_sd=fixed_noise)
        p = model.n_weights
        q = random_posterior(np.random.default_rng(3), p + extra, family)
        with pytest.raises(ConfigError, match=rf"^posterior has {p + extra} "
                           rf"weights, model expects {p}$"):
            vi.free_energy(model.design(data), q)

    def test_heavy_full_rank_matches_a_fine_rule(self):
        # noise sds of 4.5 to 14 reach t far into the noise floor, where
        # 1 / sigma^2 is 1e12: F is dominated by the rule's tails
        data = linear_data(n=30, seed=53, noise=0.3)
        model = build_model(data, mean_degree=2)
        design = model.design(data)
        rng = np.random.default_rng(54)
        p = model.n_weights
        scale = np.tril(rng.uniform(-0.5, 0.5, (p, p)))
        np.fill_diagonal(scale, 0.3)
        scale[model.n_mean_weights:] *= 8.0
        mu = 0.3 * rng.standard_normal(p)
        mu[model.n_mean_weights] = -3.0
        q = VariationalPosterior("full_rank", mu, scale)
        s = np.linalg.norm(design.phi_sigma @ scale[model.n_mean_weights:],
                           axis=1)
        assert s.min() >= 4.0
        f = vi.free_energy(design, q)
        assert f > 1e9
        assert f == pytest.approx(fine_rule_free_energy(design, q),
                                  rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("fixed_noise", [None, 0.15])
    def test_start_is_the_same_for_both_families(self, fixed_noise):
        data = linear_data(n=50, seed=55)
        model = build_model(data, mean_degree=2, fixed_noise_sd=fixed_noise)
        cfg = VIConfig(max_steps=20, window=20, tolerance=0.0)
        mf, fr = (optimize(model.design(data),
                           dataclasses.replace(cfg, family=family))
                  for family in vi.FAMILIES)
        assert mf.initial_free_energy == fr.initial_free_energy

    def test_noise_sd_beyond_the_rule_names_the_record(self):
        data = linear_data(n=10, seed=56)
        model = build_model(data, mean_degree=1)
        design = model.design(data)
        q = noise_bias_posterior(model, 0.0, vi.MAX_NOISE_SD * 1.0001)
        with pytest.raises(DomainError, match=r"^record 0: the noise "
                           r"activation's sd under the posterior is 100\.011,"):
            vi.free_energy(design, q)

    def test_bench_train_contract(self):
        # the benchmark's train configs: tolerance 0 and window equal to
        # the step budget, so a run takes exactly max_steps steps, ends
        # unconverged at max_steps, reports a finite exact F and leaves
        # reference_adam's posterior to the bit
        rng = np.random.default_rng(57)
        x = rng.standard_normal((200, 3))
        y = (1.0 + x @ [0.4, -0.3, 0.2] + 0.1 * x[:, 0] ** 2
             + np.logaddexp(0.0, -2.0 + 0.3 * x[:, 0])
             * rng.standard_normal(200))
        data = make_dataset(x, y, ("x1", "x2", "x3"))
        design = build_model(data, mean_degree=2, noise_degree=1).design(
            data)
        for family in vi.FAMILIES:
            cfg = VIConfig(family=family, learning_rate=0.05, max_steps=300,
                           tolerance=0.0, window=300, seed=1)
            out = optimize(design, cfg)
            assert (out.n_steps, out.stop_reason, out.converged) == \
                (300, "max_steps", False)
            assert math.isfinite(out.initial_free_energy)
            assert math.isfinite(out.final_free_energy)
            assert out.trajectory.tolist() == [out.final_free_energy]
            theta, _, stop = reference_adam(design, cfg)
            assert stop == "max_steps"
            want = unpack_posterior(family, design.model.n_weights, theta)
            assert np.array_equal(out.posterior.mu, want.mu)
            assert np.array_equal(out.posterior.scale, want.scale)


# ---------------------------------------------------------------------------
# Same numbers as the straightforward training loop
# ---------------------------------------------------------------------------

def reference_train(model, data, config):
    """The plain training loop the optimized one must reproduce bit for bit.

    Each step reads the gradient alone; the exact F, of a posterior built
    from theta without the index table, is taken at every window end and
    read by the stop rule. M = [mu | L] rebuilt from theta by fancy indexing on every step,
    index tables built on every step, out-of-place Adam in the
    form of Kingma & Ba's section 2, a fresh QR factor per fixed-noise
    likelihood call, and the learned-noise likelihood with each power
    written out where it is used.
    """
    design = model.design(data)
    p = model.n_weights
    full = config.family == "full_rank"

    def log_likelihood_and_grad(w):
        w_mu, w_sigma = np.split(w, [model.n_mean_weights], axis=1)
        n = len(design.y)
        if model.fixed_noise_sd is not None:
            # r'r = e'e and phi_mu'r = A'e, with A the R factor of
            # [phi_mu | y - y_bar] and e = A[:, -1] - A[:, :-1] w_centred;
            # a = A / sigma gives u = e / sigma and phi_mu'r / sigma^2 = a'u
            sigma = model.fixed_noise_sd
            y_bar = np.mean(design.y)
            a = np.linalg.qr(np.column_stack([design.phi_mu,
                                              design.y - y_bar]),
                             mode="r") / sigma
            w_centred = w_mu.copy()
            w_centred[:, 0] -= y_bar
            u = a[:, -1] - w_centred @ a[:, :-1].T
            ll = (-n * (math.log(sigma) + 0.5 * math.log(2.0 * math.pi))
                  - 0.5 * np.sum(u**2, axis=1))
            return ll, u @ a[:, :-1]
        r = design.y - w_mu @ design.phi_mu.T
        t = w_sigma @ design.phi_sigma.T
        e = np.exp(-np.abs(t))
        sigma = np.maximum(t, 0.0) + np.log1p(e) + NOISE_FLOOR
        log_sigma = np.sum(np.log(sigma), axis=1)
        u = r / sigma
        ll = -(log_sigma + 0.5 * np.sum(u**2, axis=1)
               + n * (0.5 * math.log(2.0 * math.pi)))
        grad = (u / sigma) @ design.phi_mu
        ds = np.where(t >= 0.0, 1.0, e) / (1.0 + e)
        dt = (u**2 - 1.0) / sigma * ds
        return ll, np.concatenate([grad, dt @ design.phi_sigma], axis=1)

    def to_matrix(theta):
        mat = np.zeros((p, p + 1))
        mat[:, 0] = theta[:p]
        d = np.exp(theta[p:2 * p])
        mat[np.arange(p), np.arange(p) + 1] = d
        if full:
            rows, cols = np.tril_indices(p, k=-1)
            mat[rows, cols + 1] = theta[2 * p:]
        return mat, d

    def to_theta(mat):
        parts = [mat[:, 0], np.diag(mat[:, 1:])]
        if full:
            parts.append(mat[:, 1:][np.tril_indices(p, k=-1)])
        return np.concatenate(parts)

    def step_gradient(theta, z, tau):
        mat, d = to_matrix(theta)
        z1 = np.column_stack([np.ones(len(z)), z])
        _, g = log_likelihood_and_grad(z1 @ mat.T)
        grad = to_theta(mat / tau**2 - (g.T @ z1) / len(z))
        grad[p:2 * p] = grad[p:2 * p] * d - 1.0
        return grad

    def exact(theta):
        mat, d = to_matrix(theta)
        q = VariationalPosterior(config.family, theta[:p],
                                 mat[:, 1:] if full else d)
        return vi.free_energy(design, q)

    mu = np.zeros(p)
    if model.fixed_noise_sd is None:
        mu[model.n_mean_weights] = inv_softplus(
            max(data.summary.target.sd, 1e-3))
    parts = [mu, np.full(p, math.log(vi._INIT_SCALE))]
    theta = np.concatenate(parts + [np.zeros(p * (p - 1) // 2)] * full)
    gen = substream(config.seed, 0)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    trajectory = []
    for step in range(config.max_steps):
        z = gen.standard_normal((config.n_mc, p))
        grad = step_gradient(theta, z, model.prior_tau)
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        lr = config.learning_rate
        if config.schedule == "cosine":
            frac = min(step / config.max_steps, 1.0)
            lr = lr * 0.5 * (1.0 + math.cos(math.pi * frac))
        root = math.sqrt(1.0 - 0.999 ** (step + 1))
        rate = lr * root / (1.0 - 0.9 ** (step + 1))
        theta = theta - rate * m / (np.sqrt(v) + 1e-8 * root)
        n, w = step + 1, config.window
        if n % w == 0:
            trajectory.append(exact(theta))
            if (n >= 2 * w and trajectory[-2] - trajectory[-1]
                    < config.tolerance * max(1.0, abs(trajectory[-2]))):
                break
    mat, d = to_matrix(theta)
    final = trajectory[-1] if n % config.window == 0 else exact(theta)
    return (theta[:p], (mat[:, 1:] if full else d), np.array(trajectory),
            n, final)


class TestSameNumbersAsReference:
    @pytest.mark.parametrize("family", ["mean_field", "full_rank"])
    @pytest.mark.parametrize("fixed_noise", [None, 0.15])
    @pytest.mark.parametrize("schedule", ["constant", "cosine"])
    def test_fixed_budget(self, family, fixed_noise, schedule):
        data = linear_data(n=60, seed=21)
        model = build_model(data, mean_degree=2, fixed_noise_sd=fixed_noise)
        cfg = VIConfig(family=family, schedule=schedule, max_steps=300,
                       window=300, tolerance=0.0, learning_rate=0.05,
                       seed=4)
        assert self.assert_same(model, data, cfg).n_steps == 300

    @pytest.mark.parametrize("family", ["mean_field", "full_rank"])
    @pytest.mark.parametrize("fixed_noise", [None, 0.15])
    def test_many_weights(self, family, fixed_noise):
        # P = 70 or 75, so the step's products run at shapes where BLAS
        # blocks its loops, not only at the P <= 5 of the cases above
        rng = np.random.default_rng(25)
        x = rng.uniform(-1.0, 1.0, size=(200, 4))
        y = 1.0 + x @ [2.0, -1.0, 0.5, 0.3] + 0.1 * rng.standard_normal(200)
        data = make_dataset(x, y, ("x1", "x2", "x3", "x4"))
        model = build_model(data, mean_degree=4, fixed_noise_sd=fixed_noise)
        assert model.n_weights == (70 if fixed_noise else 75)
        cfg = VIConfig(family=family, max_steps=60, window=60, tolerance=0.0,
                       learning_rate=0.01, seed=9)
        assert self.assert_same(model, data, cfg).n_steps == 60

    def test_early_stop(self):
        data = linear_data(n=60, seed=22)
        model = build_model(data)
        cfg = VIConfig(family="full_rank", max_steps=5000, window=40,
                       tolerance=1e-3, learning_rate=0.03, seed=5)
        assert self.assert_same(model, data, cfg).n_steps < 5000

    @staticmethod
    def assert_same(model, data, cfg):
        # train_vi runs Adam for a learned noise level only
        if model.fixed_noise_sd is None:
            out = train_vi(model, data, cfg)
        else:
            out = optimize(model.design(data), cfg)
        mu, scale, trajectory, n_steps, final = reference_train(model, data,
                                                                cfg)
        assert np.array_equal(out.posterior.mu, mu)
        assert np.array_equal(out.posterior.scale, scale)
        assert np.array_equal(out.trajectory, trajectory)
        assert out.n_steps == n_steps
        assert out.final_free_energy == final
        return out


def reference_adam(design, config):
    """Adam in the textbook out-of-place form of Kingma & Ba's section 2,
    stepping on training's step gradient with normals drawn block
    by block from substream(seed, 0), the exact F at the start and at
    every window end, and the documented stop rule.

    Returns (theta, window-end F values, stop reason); an overflow at
    step s, or a non-finite F after s + 1 steps (at the start: s = 0),
    returns the stop reason ("diverged", s).
    """
    model, family = design.model, config.family
    p = model.n_weights
    theta = np.zeros(len(vi._index_table(family, p)))
    theta[p:2 * p] = math.log(vi._INIT_SCALE)
    if model.fixed_noise_sd is None:
        theta[model.n_mean_weights] = inv_softplus(
            max(float(np.std(design.y, ddof=1)), 1e-3))

    def exact(theta):
        return vi.free_energy(design, unpack_posterior(family, p, theta))

    if not math.isfinite(exact(theta)):
        return theta, [], ("diverged", 0)
    gen = substream(config.seed, 0)
    block = max(1, vi._SLICE_VALUES // (config.n_mc * p))
    m = v = np.zeros_like(theta)
    trajectory = []
    for step in range(config.max_steps):
        if step % block == 0:
            zs = gen.standard_normal(
                (min(block, config.max_steps - step), config.n_mc, p))
        try:
            with np.errstate(over="raise"):
                grad = step_gradient(design, family, theta,
                                     zs[step % block], model.prior_tau)
                m = 0.9 * m + (1.0 - 0.9) * grad
                v = 0.999 * v + (1.0 - 0.999) * grad * grad
                lr = config.learning_rate
                if config.schedule == "cosine":
                    lr = lr * 0.5 * (1.0 + math.cos(
                        math.pi * (step / config.max_steps)))
                root = math.sqrt(1.0 - 0.999 ** (step + 1))
                rate = lr * root / (1.0 - 0.9 ** (step + 1))
                theta = theta - rate * m / (np.sqrt(v) + 1e-8 * root)
        except FloatingPointError:
            return theta, trajectory, ("diverged", step)
        n, w = step + 1, config.window
        if n % w == 0:
            trajectory.append(exact(theta))
            if not math.isfinite(trajectory[-1]):
                return theta, trajectory, ("diverged", step)
            if n >= 2 * w:
                prev = trajectory[-2]
                rise = trajectory[-1] - prev
                bound = config.tolerance * max(1.0, abs(prev))
                if rise > -bound:
                    return (theta, trajectory,
                            "worsened" if rise > bound else "plateau")
    return theta, trajectory, "max_steps"


class TestOptimizerBitIdentity:
    @pytest.mark.parametrize("family", ["mean_field", "full_rank"])
    @pytest.mark.parametrize("fixed_noise", [None, 0.15])
    @pytest.mark.parametrize("schedule", ["constant", "cosine"])
    def test_fixed_budget(self, family, fixed_noise, schedule):
        design = self.design(31, mean_degree=2, fixed_noise_sd=fixed_noise)
        cfg = VIConfig(family=family, schedule=schedule, max_steps=300,
                       window=300, tolerance=0.0, learning_rate=0.05,
                       n_mc=5, seed=6)
        assert self.assert_same(design, cfg) == "max_steps"

    def test_plateau(self):
        cfg = VIConfig(family="mean_field", max_steps=5000, window=40,
                       tolerance=1e-3, learning_rate=0.01, seed=7)
        assert self.assert_same(self.design(32), cfg) == "plateau"

    def test_worsened(self):
        # at lr 0.03 Adam's own jitter lifts the exact F by 1.2 in the
        # window to step 240
        cfg = VIConfig(family="mean_field", max_steps=5000, window=40,
                       tolerance=1e-3, learning_rate=0.03, seed=7)
        assert self.assert_same(self.design(32), cfg) == "worsened"

    def test_overflow_at_the_same_step(self):
        # a first step of about lr = 200 in log diag L puts exp(L_ii)^2
        # past the double range on the second step
        design = self.design(33)
        cfg = VIConfig(family="full_rank", learning_rate=200.0,
                       max_steps=300, seed=8)
        _, trajectory, stop = reference_adam(design, cfg)
        assert stop == ("diverged", 1) and trajectory == []
        with pytest.raises(DivergenceError) as err:
            optimize(design, cfg)
        assert err.value.step == 1

    @pytest.mark.parametrize("target, message", [
        # the start's F overflows in the residual's square
        (1e200, "free energy became non-finite"),
        # a NaN target raises no floating-point flag and reaches the
        # noise head's starting bias
        (math.nan, "the parameters became non-finite")])
    def test_non_finite_start_names_its_step_once(self, target, message):
        # the message read "at step 0 (step 0)"
        design = self.design(33)
        y = design.y.copy()
        y[5] = target
        with pytest.raises(DivergenceError,
                           match=rf"^{message} \(step 0\)$"):
            optimize(dataclasses.replace(design, y=y),
                     VIConfig(max_steps=10))

    @pytest.mark.parametrize("family", ["mean_field", "full_rank"])
    def test_underflowed_scale_is_a_divergence(self, family):
        # steps of about lr = 160 take a log scale to about -750, where
        # exp is 0: q would have no spread in that weight
        design = self.design(33, mean_degree=2, prior_tau=1e3)
        cfg = VIConfig(family=family, learning_rate=160.0, max_steps=300,
                       seed=4)
        with pytest.raises(DivergenceError, match=r"^the scale of weight 3 "
                           r"underflowed to 0 after 300 steps \(step 299\)$"
                           ) as err:
            optimize(design, cfg)
        assert err.value.step == 299
        # at a rate that leaves every scale a double, the mean-field run
        # trains; the full-rank one ends with its noise sd beyond the
        # quadrature's range, which its final F refuses
        cfg = VIConfig(family=family, learning_rate=100.0, max_steps=300,
                       seed=4)
        if family == "mean_field":
            assert np.all(optimize(design, cfg).posterior.diagonal > 0.0)
            return
        with pytest.raises(DivergenceError, match=r"^record 0: the noise "
                           r"activation's sd under the posterior is 2554\.55, "
                           r"outside .* \(step 299\)$"):
            optimize(design, cfg)

    @staticmethod
    def design(seed, **settings):
        data = linear_data(n=60, seed=seed)
        return build_model(data, **settings).design(data)

    @staticmethod
    def assert_same(design, cfg):
        out = optimize(design, cfg)
        theta, trajectory, stop = reference_adam(design, cfg)
        want = unpack_posterior(cfg.family, design.model.n_weights, theta)
        assert np.array_equal(out.posterior.mu, want.mu)
        assert np.array_equal(out.posterior.scale, want.scale)
        assert np.array_equal(out.trajectory, trajectory)
        assert out.stop_reason == stop
        return stop


class TestStepsWithoutFreeEnergy:
    """Adam's steps return the gradient alone; F is taken, exactly, at
    the start and at each window end."""

    @pytest.mark.parametrize("family", ["mean_field", "full_rank"])
    @pytest.mark.parametrize("fixed_noise", [None, 0.15])
    @pytest.mark.parametrize("schedule", ["constant", "cosine"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_posterior_bits(self, monkeypatch, family, fixed_noise,
                                 schedule, seed):
        design = TestOptimizerBitIdentity.design(
            40 + seed, mean_degree=2, fixed_noise_sd=fixed_noise)
        cfg = VIConfig(family=family, schedule=schedule, max_steps=300,
                       window=100, tolerance=0.0, learning_rate=0.05,
                       n_mc=5, seed=seed)
        theta, trajectory, stop = reference_adam(design, cfg)
        steps, exact = self.spy(monkeypatch)
        out = optimize(design, cfg)
        want = unpack_posterior(family, design.model.n_weights, theta)
        assert np.array_equal(out.posterior.mu, want.mu)
        assert np.array_equal(out.posterior.scale, want.scale)
        assert out.stop_reason == stop
        # each step returns theta's gradient and nothing else
        n = out.n_steps
        assert steps == [(np.ndarray, theta.shape)] * n
        # F at the start and at each window end: steps 100, 200 (, 300)
        assert len(trajectory) == n // 100
        assert exact == [out.initial_free_energy] + trajectory
        assert out.trajectory.tolist() == trajectory
        assert out.final_free_energy == trajectory[-1] == vi.free_energy(
            design, out.posterior)

    def test_final_free_energy_off_a_window_end(self, monkeypatch):
        # 130 steps, windows of 40: F at 0, 40, 80 and 120, and at 130
        design = TestOptimizerBitIdentity.design(32)
        cfg = VIConfig(family="mean_field", max_steps=130, window=40,
                       tolerance=0.0, learning_rate=0.03, seed=7)
        _, exact = self.spy(monkeypatch)
        out = optimize(design, cfg)
        assert (out.n_steps, out.stop_reason) == (130, "max_steps")
        assert len(exact) == 5 and len(out.trajectory) == 3
        assert exact[1:4] == out.trajectory.tolist()
        assert out.final_free_energy == exact[4] == vi.free_energy(
            design, out.posterior)

    def test_non_finite_parameters_name_the_last_step(self, monkeypatch):
        # a start F read as finite lets the NaN target reach theta, which
        # the final F's check refuses
        design = TestOptimizerBitIdentity.design(33)
        y = design.y.copy()
        y[5] = math.nan
        monkeypatch.setattr(vi, "free_energy", lambda design, q: 0.0)
        monkeypatch.setattr(vi, "_initial_theta", lambda design, family:
                            np.zeros(2 * design.model.n_weights))
        with pytest.raises(DivergenceError, match=r"^the parameters became "
                           r"non-finite \(step 9\)$"):
            optimize(dataclasses.replace(design, y=y), VIConfig(max_steps=10))

    @staticmethod
    def spy(monkeypatch):
        """Lists of the type and shape of what each step returns and of
        each exact F, filled as optimize runs."""
        steps, exact = [], []
        stepper, free_energy = vi._stepper, vi.free_energy

        def spy_stepper(*args, **kwargs):
            step = stepper(*args, **kwargs)

            def spied(theta, z1):
                grad = step(theta, z1)
                steps.append((type(grad), grad.shape))
                return grad
            return spied

        def spy_free_energy(design, q):
            exact.append(free_energy(design, q))
            return exact[-1]

        monkeypatch.setattr(vi, "_stepper", spy_stepper)
        monkeypatch.setattr(vi, "free_energy", spy_free_energy)
        return steps, exact


def test_index_tables_not_rebuilt_per_step(monkeypatch):
    data = linear_data(n=40, seed=23)
    model = build_model(data, mean_degree=2)
    calls = []
    real = np.tril_indices

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "tril_indices", counting)

    def count(steps):
        calls.clear()
        vi._index_table.cache_clear()
        train_vi(model, data, VIConfig(family="full_rank", max_steps=steps,
                                       window=steps, tolerance=0.0))
        return len(calls)

    few, many = count(50), count(500)
    assert many <= few <= 2


def test_fixed_noise_factor_taken_once_per_run(monkeypatch):
    # counts the QRs of the D records; the closed form's own QR, of the
    # factor and the prior, has at most 2 P + 1 rows
    data = linear_data(n=40, seed=23)
    model = build_model(data, mean_degree=2, fixed_noise_sd=0.1)
    assert data.n_records > 2 * model.n_weights + 1
    calls = []
    real = np.linalg.qr

    def counting(a, *args, **kwargs):
        if len(a) == data.n_records:
            calls.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)

    def count(steps):
        calls.clear()
        optimize(model.design(data), VIConfig(family="full_rank",
                                              max_steps=steps, window=steps,
                                              tolerance=0.0))
        return len(calls)

    assert count(50) == count(500) == 1
    # the closed form and both of its free energies share that one factor
    calls.clear()
    train_vi(model, data, VIConfig(family="full_rank"))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Stop rule, on scripted free-energy sequences
# ---------------------------------------------------------------------------

class TestStopRule:
    @staticmethod
    def run(monkeypatch, values, window=10, tolerance=1e-3):
        """optimize on a scripted exact F: the start's, then one value per
        window end."""
        values = iter(values)
        monkeypatch.setattr(vi, "free_energy", lambda design, q: next(values))
        data = linear_data(n=20, seed=24)
        model = build_model(data, mean_degree=1, fixed_noise_sd=0.1)
        return optimize(model.design(data),
                        VIConfig(max_steps=100, window=window,
                                 tolerance=tolerance))

    def test_falling_then_flat_is_plateau(self, monkeypatch):
        # F at 20 improves on F at 10; F at 30 is level
        out = self.run(monkeypatch, [100.0, 75.0, 50.0, 50.0, 40.0])
        assert (out.n_steps, out.stop_reason, out.converged) == \
            (30, "plateau", True)
        assert out.trajectory.tolist() == [75.0, 50.0, 50.0]
        assert (out.initial_free_energy, out.final_free_energy) == \
            (100.0, 50.0)

    def test_first_window_is_not_compared_with_the_start(self, monkeypatch):
        out = self.run(monkeypatch, [10.0, 60.0, 50.0, 40.0, 40.0])
        assert (out.n_steps, out.stop_reason) == (40, "plateau")

    def test_rise_is_worsened_not_converged(self, monkeypatch):
        out = self.run(monkeypatch, [100.0, 80.0, 60.0, 70.0, 0.0])
        assert (out.n_steps, out.stop_reason, out.converged) == \
            (30, "worsened", False)
        assert out.final_free_energy == 70.0

    @pytest.mark.parametrize("rise, reason", [
        (0.049, "plateau"), (0.051, "worsened")])
    def test_rise_against_the_bound(self, monkeypatch, rise, reason):
        # tolerance 1e-3 of |F| = 50 bounds the rise at 0.05: F is exact,
        # so no scatter allowance widens it
        out = self.run(monkeypatch, [100.0, 50.0, 50.0 + rise, 0.0])
        assert (out.n_steps, out.stop_reason) == (20, reason)

    def test_fall_within_the_bound_is_plateau(self, monkeypatch):
        out = self.run(monkeypatch, [100.0, 50.0, 49.96, 0.0],
                       tolerance=1e-3)
        assert (out.n_steps, out.stop_reason) == (20, "plateau")

    def test_steady_fall_runs_to_budget(self, monkeypatch):
        out = self.run(monkeypatch, [100.0 - s for s in range(11)])
        assert (out.n_steps, out.stop_reason, out.converged) == \
            (100, "max_steps", False)
        assert len(out.trajectory) == 10
