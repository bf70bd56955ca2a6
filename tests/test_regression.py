"""Polynomial design matrices and the heteroscedastic likelihood's
gradient."""

import math
import re
from fractions import Fraction
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import expit

import uncertlab.regression as regression
from uncertlab.dataset import make_dataset
from uncertlab.errors import ConfigError, DatasetError, DomainError
from uncertlab.regression import (NOISE_FLOOR, BayesianVMModel, build_model,
                                  inv_softplus, polynomial_exponents,
                                  polynomial_features, softplus)
from uncertlab.vi import VariationalPosterior, free_energy

mpmath.mp.dps = 40


def toy_data(n=40, seed=0, n_features=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n_features))
    y = 1.0 + x @ rng.uniform(-1, 1, n_features) + 0.1 * rng.standard_normal(n)
    names = tuple(f"x{i + 1}" for i in range(n_features))
    return make_dataset(x, y, names)


class TestFeatures:
    def test_exponent_ordering_degree_then_lex(self):
        exps = polynomial_exponents(2, 2)
        assert exps == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_feature_matrix_values(self):
        x = np.array([[2.0, 3.0]])
        phi = polynomial_features(x, polynomial_exponents(2, 2))
        np.testing.assert_allclose(phi[0], [1, 2, 3, 4, 6, 9], rtol=1e-15)

    @pytest.mark.parametrize("n, n_features, degree", [
        (5000, 3, 2), (500, 20, 2), (7, 1, 0), (10, 4, 0), (300, 5, 3),
        (50, 2, 6), (1, 1, 1), (64, 20, 3)])
    def test_power_tables_equal_the_power_tensor(self, n, n_features,
                                                 degree):
        def left_to_right(row, exponents):
            # each feature's power as repeated products in Python floats,
            # times the next feature's, in feature order
            out = 1.0
            for value, e in zip(row, exponents):
                power = 1.0
                for _ in range(e):
                    power *= value
                out *= power
            return out

        rng = np.random.default_rng(n + n_features + degree)
        x = rng.standard_normal((n, n_features)) * rng.choice(
            [1e-3, 1.0, 1e5], (n, n_features))
        x.flat[::7] = -0.0
        x.flat[::11] = 0.0
        exps = polynomial_exponents(n_features, degree)
        got = polynomial_features(x, exps)
        want = np.array([[left_to_right(row, e) for e in exps]
                         for row in x.tolist()])
        # equal bit patterns, so signed zeros must match as well
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # every square is the correctly rounded x^2
        for j in range(n_features if degree >= 2 else 0):
            square = exps.index(tuple(2 * (i == j) for i in range(n_features)))
            assert got[:, square].tolist() == [
                float(Fraction(v) ** 2) for v in x[:, j].tolist()]

    def test_first_row_out_of_the_double_range_is_refused(self):
        # row 1's square overflows in the noise head only; row 2 fails in
        # both heads but comes later. No floating-point warning escapes.
        data = toy_data(n_features=1)
        model = build_model(data, mean_degree=1, noise_degree=2,
                            standardize=False)
        with pytest.raises(DatasetError, match=r"^record 1: feature "
                           r"x1\^2 leaves the double range \(inf\)$"):
            model.features(np.array([[0.5], [1e200], [1e300]]),
                           "record", DatasetError)
        # standardizing by a tiny sd overflows before any power is taken
        x = np.column_stack([np.arange(10.0) * 1e-300, np.arange(10.0)])
        model = build_model(make_dataset(x, np.arange(10.0), ("a", "b")))
        with pytest.raises(DomainError, match=r"^part 0: feature a leaves "
                           r"the double range \(inf\)$"):
            model.features(np.array([[1e10, 0.0]]), "part", DomainError)

    def test_degree_zero_is_bias_only(self):
        assert polynomial_exponents(3, 0) == ((0, 0, 0),)

    def test_softplus_matches_reference(self):
        # within 2 ulp of mpmath across [-745, 745]: exact 0, the log(2)
        # neighbourhood, the subnormal underflow tail below t = -708,
        # and t where softplus(t) is t itself
        rng = np.random.default_rng(8)
        t = np.concatenate([
            np.linspace(-745.0, 745.0, 6001), [0.0, -0.0, 5e-324, -5e-324],
            rng.uniform(-745.0, -700.0, 1000), rng.uniform(-40.0, 40.0, 2000),
            rng.normal(0.0, 1e-8, 200)])
        got = softplus(t)
        want = np.array([float(mpmath.log1p(mpmath.exp(mpmath.mpf(v))))
                         for v in t])
        # softplus >= 0, so the bit patterns order like the values
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 2, t[np.argmax(ulps)]

    def test_inv_softplus_round_trip(self):
        for s in (1e-5, 0.1, 1.0, 5.0, 50.0):
            assert softplus(inv_softplus(s)) == pytest.approx(s, rel=1e-10,
                                                              abs=0.0)


class TestModelAssembly:
    def test_standardization_from_summary(self):
        data = toy_data()
        model = build_model(data)
        assert model.x_mean == pytest.approx(
            tuple(c.mean for c in data.summary.features), abs=0.0)
        xs = model.standardized(data.x)
        np.testing.assert_allclose(xs.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(xs.std(axis=0, ddof=1), 1.0, rtol=1e-12)

    def test_constant_feature_gets_unit_scale(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        y = np.arange(10.0)
        data = make_dataset(x, y, ("c", "t"))
        model = build_model(data)
        assert model.x_sd[0] == 1.0

    def test_exponents_built_once_per_model(self, monkeypatch):
        calls = []
        original = regression.polynomial_exponents

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(regression, "polynomial_exponents", counting)
        data = toy_data()
        model = build_model(data, mean_degree=2, noise_degree=1)
        for _ in range(3):
            assert model.n_weights == 9
            model.design(data)
        assert len(calls) == 2

    def test_weight_partition(self):
        data = toy_data()
        model = build_model(data, mean_degree=2, noise_degree=1)
        # mean: 1 + 2 + 3 quadratic terms; noise: 1 + 2 linear terms
        assert model.n_mean_weights == 6
        assert model.n_noise_weights == 3
        assert model.n_weights == 9
        phi_mu, phi_sigma = model.features(data.x, "record", DatasetError)
        assert (phi_mu.shape[1], phi_sigma.shape[1]) == (6, 3)

    @pytest.mark.parametrize("n_features", [1, 2, 5])
    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_weight_counts_equal_the_listed_monomials(self, n_features,
                                                       degree):
        model = BayesianVMModel(tuple(f"x{i}" for i in range(n_features)),
                                np.zeros(n_features), np.ones(n_features),
                                mean_degree=degree, noise_degree=degree)
        assert model.n_mean_weights == len(model.mean_exponents)
        assert model.n_noise_weights == len(model.noise_exponents)

    @pytest.mark.parametrize("field", ["mean_degree", "noise_degree"])
    @pytest.mark.parametrize("bad", [-1, 1.5, 2.0, True])
    def test_degrees_must_be_non_negative_integers(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            BayesianVMModel(("x1",), np.zeros(1), np.ones(1), **{field: bad})

    @pytest.mark.parametrize("field", ["x_mean", "x_sd"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_standardization_constants_must_be_finite(self, field, bad):
        consts = {"x_mean": np.zeros(2), "x_sd": np.ones(2)}
        consts[field][0] = bad
        with pytest.raises(ConfigError, match="finite"):
            BayesianVMModel(("x1", "x2"), **consts)

    @pytest.mark.parametrize("tau,ok", [
        (1.5e-154, True), (1.3e154, True),
        (1.4e-154, False), (1e-200, False), (5e-324, False),
        (1.35e154, False), (1e300, False)])
    def test_prior_tau_square_must_be_a_normal_double(self, tau, ok):
        # KL and the prior rows divide by tau^2: outside this range it
        # overflows or is no normal number
        def model():
            return BayesianVMModel(("x1",), np.zeros(1), np.ones(1),
                                   prior_tau=tau)

        if ok:
            assert model().prior_tau == tau
        else:
            with pytest.raises(ConfigError, match=re.escape(f"got {tau!r}")):
                model()

    def test_weight_count_capped(self):
        # one feature at degree d has d + 1 mean weights; a fixed noise sd
        # has no noise head
        def model(degree):
            return BayesianVMModel(("x1",), np.zeros(1), np.ones(1),
                                   mean_degree=degree, fixed_noise_sd=0.1)

        assert model(regression.MAX_WEIGHTS - 1).n_weights \
            == regression.MAX_WEIGHTS
        with pytest.raises(ConfigError, match=f"{regression.MAX_WEIGHTS + 1} "
                                              "weights"):
            model(regression.MAX_WEIGHTS)

    def test_fixed_noise_drops_noise_head(self):
        data = toy_data()
        model = build_model(data, fixed_noise_sd=0.2)
        assert model.n_noise_weights == 0
        assert model.n_weights == model.n_mean_weights


def gradient(design, w):
    """The kernel's (S, P) gradient at (S, P) w, copied out of the
    workspace its next call overwrites."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    return design._likelihood(len(w))(w).copy()


class TestLikelihood:
    def test_single_record_exact_fit_gradient(self):
        # residual zero, sd 1: no pull on the mean head, and the noise
        # head's is -s'(t) / sigma = -expit(t)
        x = np.array([[0.0]])
        y = np.array([0.0])
        data = make_dataset(x, y, ("x1",))
        model = build_model(data, mean_degree=1, noise_degree=0,
                            standardize=False)
        w = np.zeros(model.n_weights)
        t = inv_softplus(1.0 - NOISE_FLOOR)
        w[model.n_mean_weights] = t
        (g,) = gradient(model.design(data), w)
        assert g[:2].tolist() == [0.0, 0.0]
        assert g[2] == pytest.approx(-expit(t), rel=1e-12, abs=0.0)

    def test_matches_mpmath_oracle(self):
        # the gradient against mpmath's derivative of the log-likelihood
        # summed over the records in 40-digit arithmetic
        data = toy_data(n=12, seed=3)
        model = build_model(data, mean_degree=1, noise_degree=1)
        rng = np.random.default_rng(5)
        w = rng.standard_normal(model.n_weights) * 0.5

        p = model.n_mean_weights
        phi_mu, phi_sg = model.features(data.x, "record", DatasetError)
        floor = mpmath.mpf(f"{NOISE_FLOOR:.17g}")

        def log_likelihood(*weights):
            total = mpmath.mpf(0)
            for d in range(data.n_records):
                mu = mpmath.fsum(mpmath.mpf(float(a)) * b for a, b
                                 in zip(phi_mu[d], weights[:p]))
                t = mpmath.fsum(mpmath.mpf(float(a)) * b for a, b
                                in zip(phi_sg[d], weights[p:]))
                sd = mpmath.log(1 + mpmath.exp(t)) + floor
                r = mpmath.mpf(float(data.y[d])) - mu
                total += (-mpmath.log(2 * mpmath.pi * sd ** 2) / 2
                          - r ** 2 / (2 * sd ** 2))
            return total

        weights = [mpmath.mpf(float(v)) for v in w]
        want = [float(mpmath.diff(log_likelihood, weights,
                                  tuple(int(i == j) for j in range(len(w)))))
                for i in range(len(w))]
        (g,) = gradient(model.design(data), w)
        np.testing.assert_allclose(g, want, rtol=1e-10, atol=0.0)

    def test_gradient_matches_finite_differences(self):
        data = toy_data(n=25, seed=9)
        model = build_model(data, mean_degree=2, noise_degree=1)
        design = model.design(data)
        rng = np.random.default_rng(17)
        for _ in range(5):
            w = rng.standard_normal(model.n_weights) * 0.3
            (g,) = gradient(design, w)
            h = 1e-6
            for i in range(model.n_weights):
                e = np.zeros(model.n_weights)
                e[i] = h
                (lp,), _ = replaced_likelihood(design, w + e)
                (lm,), _ = replaced_likelihood(design, w - e)
                fd = (lp - lm) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=2e-5, abs=1e-7)

    def test_fixed_noise_gradient(self):
        data = toy_data(n=20, seed=2)
        model = build_model(data, mean_degree=1, fixed_noise_sd=0.3)
        design = model.design(data)
        rng = np.random.default_rng(4)
        w = rng.standard_normal(model.n_weights)
        (g,) = gradient(design, w)
        h = 1e-6
        for i in range(model.n_weights):
            e = np.zeros(model.n_weights)
            e[i] = h
            (lp,), _ = replaced_likelihood(design, w + e)
            (lm,), _ = replaced_likelihood(design, w - e)
            fd = (lp - lm) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=2e-5, abs=1e-7)

    def test_batched_equals_loop(self):
        data = toy_data(n=15, seed=8)
        model = build_model(data)
        design = model.design(data)
        rng = np.random.default_rng(21)
        ws = rng.standard_normal((6, model.n_weights)) * 0.4
        grads = gradient(design, ws)
        for w, grad in zip(ws, grads):
            (single_grad,) = gradient(design, w)
            np.testing.assert_allclose(grad, single_grad, rtol=1e-12)

    def test_noise_floor_keeps_sd_positive(self):
        data = toy_data(n=10, seed=1)
        model = build_model(data, noise_degree=0)
        w = np.zeros(model.n_weights)
        w[model.n_mean_weights] = -200.0  # softplus is 1.4e-87 here
        assert np.isfinite(gradient(model.design(data), w)).all()


def replaced_likelihood(design, w):
    """The records-major (D, S) likelihood the kernel replaced, with
    scipy's logistic and sigma**3, as an oracle."""
    m = design.model
    w_mu, w_sigma = np.split(np.atleast_2d(w), [m.n_mean_weights], axis=1)
    r = design.y[:, None] - design.phi_mu @ w_mu.T
    if m.fixed_noise_sd is not None:
        sigma = m.fixed_noise_sd
    else:
        t = design.phi_sigma @ w_sigma.T
        sigma = softplus(t) + NOISE_FLOOR
    sigma2, r2 = sigma**2, r**2
    ll = (-0.5 * np.log(2.0 * np.pi * sigma2)
          - r2 / (2.0 * sigma2)).sum(axis=0)
    grad = (r / sigma2).T @ design.phi_mu
    if m.fixed_noise_sd is None:
        dt = (-1.0 / sigma + r2 / sigma**3) * expit(t)
        grad = np.concatenate([grad, dt.T @ design.phi_sigma], axis=1)
    return ll, grad


class TestKernel:
    @staticmethod
    def design(fixed_noise_sd=None):
        # t = w_sigma' (1, x) with x = 0 on the middle record
        x = np.linspace(-1.0, 1.0, 1001)[:, None]
        y = np.random.default_rng(6).standard_normal(len(x))
        model = BayesianVMModel(("x1",), np.zeros(1), np.ones(1),
                                standardize=False,
                                fixed_noise_sd=fixed_noise_sd)
        return model.design(make_dataset(x, y, ("x1",)))

    @pytest.mark.parametrize("fixed_noise_sd", [None, 0.3])
    def test_matches_the_replaced_formulas(self, fixed_noise_sd):
        design = self.design(fixed_noise_sd)
        rng = np.random.default_rng(12)
        w = rng.standard_normal((6, design.model.n_weights))
        if fixed_noise_sd is None:
            # t spans [-700, 700] and hits 0 in the first two draws
            w[:, 3:] = [[0.0, 700.0], [0.0, -700.0], [2.0, 30.0],
                        [-3.0, 5.0], [0.5, -0.1], [-20.0, 1.0]]
        _, want_g = replaced_likelihood(design, w)
        np.testing.assert_allclose(gradient(design, w), want_g, rtol=1e-12,
                                   atol=0.0)

    @pytest.mark.parametrize("fixed_noise_sd", [None, 0.3])
    def test_results_are_not_overwritten_by_later_calls(self,
                                                        fixed_noise_sd):
        # training's likelihood keeps one workspace for a whole run; a
        # likelihood set up for another run has a workspace of its own,
        # whose calls give the same bits and write nothing of the first
        design = self.design(fixed_noise_sd)
        rng = np.random.default_rng(13)
        results = []
        for s in (1, 8, 8, 1):
            w = rng.standard_normal((s, design.model.n_weights)) * 0.5
            out = design._likelihood(s)(w)
            results.append((out, out.copy()))
            assert design._likelihood(s)(w).tobytes() == out.tobytes()
        for i, (out, copy) in enumerate(results):
            assert np.array_equal(out, copy)
            assert not any(np.shares_memory(out, later)
                           for later, _ in results[i + 1:])


class TestFixedNoiseFactor:
    """The fixed-noise likelihood taken from one thin QR of the records."""

    SIGMA = 1e-3

    @classmethod
    def design(cls, x, offset, prior_tau=1.0):
        # y = offset + a quadratic in x1 + N(0, sigma^2) noise
        rng = np.random.default_rng(len(x))
        y = (offset + 0.5 * x[:, 0] - 0.3 * x[:, 0] ** 2
             + cls.SIGMA * rng.standard_normal(len(x)))
        data = make_dataset(x, y, tuple(f"x{i + 1}"
                                        for i in range(x.shape[1])))
        model = build_model(data, mean_degree=2, fixed_noise_sd=cls.SIGMA,
                            prior_tau=prior_tau)
        return model.design(data)

    @classmethod
    def oracle(cls, design, w):
        """The gradient from the D residuals, in 40-digit arithmetic."""
        phi = [[mpmath.mpf(float(v)) for v in row] for row in design.phi_mu]
        y = [mpmath.mpf(float(v)) for v in design.y]
        sigma2 = mpmath.mpf(cls.SIGMA) ** 2
        grads = []
        for wi in w:
            wm = [mpmath.mpf(float(v)) for v in wi]
            r = [yd - mpmath.fsum(p * q for p, q in zip(row, wm))
                 for row, yd in zip(phi, y)]
            grads.append([float(mpmath.fsum(row[j] * rd
                                            for row, rd in zip(phi, r))
                                / sigma2) for j in range(len(wm))])
        return np.array(grads)

    @classmethod
    def near_fit(cls, design, offset, rng, shape):
        """Weights of the given shape about sigma / sqrt(D) off the
        least-squares fit."""
        fit = np.linalg.lstsq(design.phi_mu, design.y - offset,
                              rcond=None)[0]
        fit[0] += offset
        return fit + (cls.SIGMA / np.sqrt(len(design.y))
                      * rng.standard_normal(shape + (len(fit),)))

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("records", [
        "plain",                  # 200 records, P_mu = 3
        "duplicated_column",      # x2 = x1: phi_mu has rank 3 of 6
        "fewer_than_weights",     # 2 records, P_mu = 3: A is 2 x 4
    ])
    def test_matches_mpmath_oracle(self, records, offset):
        rng = np.random.default_rng(31)
        if records == "plain":
            x = rng.uniform(-1.0, 1.0, (200, 1))
        elif records == "duplicated_column":
            x = np.repeat(rng.uniform(-1.0, 1.0, (50, 1)), 2, axis=1)
        else:
            x = np.array([[0.2], [0.9]])
        design = self.design(x, offset)
        # draws near the least-squares fit, so the residuals are about
        # sigma and the gradient and the y offset differ by many digits
        w = self.near_fit(design, offset, rng, (4,))
        grad = gradient(design, w)
        want_g = self.oracle(design, w)
        scale = np.abs(want_g).max()
        assert np.abs(grad - want_g).max() <= 1e-12 * scale

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("n_records", [200, 2])
    @pytest.mark.parametrize("family", ["mean_field", "full_rank"])
    def test_free_energy_matches_mpmath_oracle(self, family, n_records,
                                               offset):
        # the exact F reads the factor's centred value, e'e + |A L|_F^2;
        # at prior tau 1e9 the KL does not swamp it
        rng = np.random.default_rng(43)
        x = (rng.uniform(-1.0, 1.0, (200, 1)) if n_records == 200
             else np.array([[0.2], [0.9]]))
        design = self.design(x, offset, prior_tau=1e9)
        mu = self.near_fit(design, offset, rng, ())
        p = len(mu)
        spread = self.SIGMA / math.sqrt(n_records)
        if family == "mean_field":
            scale = spread * rng.uniform(0.5, 2.0, p)
        else:
            scale = spread * np.tril(rng.uniform(-0.5, 0.5, (p, p)))
            np.fill_diagonal(scale, spread * rng.uniform(0.5, 2.0, p))
        q = VariationalPosterior(family, mu, scale)

        mpf = mpmath.mpf
        chol = [[mpf(float(v)) for v in row] for row in q.factor]
        m = [mpf(float(v)) for v in mu]
        sigma2, tau2 = mpf(self.SIGMA) ** 2, mpf(1e9) ** 2
        norm2 = mpmath.fsum(v ** 2 for v in m + sum(chol, []))
        kl = ((norm2 / tau2 - p + p * mpmath.log(tau2)) / 2
              - mpmath.fsum(mpmath.log(chol[i][i]) for i in range(p)))
        terms = []
        for row, y in zip(design.phi_mu, design.y):
            phi = [mpf(float(v)) for v in row]
            r = mpf(float(y)) - mpmath.fsum(a * b for a, b in zip(phi, m))
            var = mpmath.fsum(mpmath.fsum(phi[i] * chol[i][j]
                                          for i in range(p)) ** 2
                              for j in range(p))
            terms.append(mpmath.log(2 * mpmath.pi * sigma2) / 2
                         + (r ** 2 + var) / (2 * sigma2))
        want = float(kl + mpmath.fsum(terms))
        assert free_energy(design, q) == pytest.approx(want, rel=1e-13,
                                                       abs=0.0)

    def test_no_per_record_work_after_the_factor(self):
        # one (S, D) array of 16 draws x 50,000 records is 6.4 MB
        x = np.linspace(-1.0, 1.0, 50_000)[:, None]
        design = self.design(x, 0.0)
        w = np.random.default_rng(2).standard_normal(
            (16, design.model.n_weights))
        likelihood = design._likelihood(16)     # takes the QR
        tracemalloc.start()
        try:
            grad = likelihood(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert grad.shape == w.shape
