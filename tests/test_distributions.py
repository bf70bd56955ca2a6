"""Input marginals, the joint input model, and inverse-CDF sampling."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from uncertlab.distributions import (Gaussian, InputQuantity, JointInputModel,
                                     Rectangular, Triangular, sample)
from uncertlab.errors import ConfigError
from uncertlab.rng import substream


class TestMoments:
    def test_gaussian(self):
        assert Gaussian(3.0, 0.5).mean_and_u() == (3.0, 0.5)

    def test_rectangular_unit_interval_u(self):
        mean, u = Rectangular(0.0, 1.0).mean_and_u()
        assert mean == pytest.approx(0.5, rel=1e-15, abs=0.0)
        assert u == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-15, abs=0.0)

    def test_triangular_symmetric_u(self):
        mean, u = Triangular(0.0, 0.5, 1.0).mean_and_u()
        assert mean == pytest.approx(0.5, rel=1e-15, abs=0.0)
        assert u == pytest.approx(math.sqrt(1.0 / 24.0), rel=1e-15, abs=0.0)

    def test_degenerate_gaussian_allowed(self):
        assert Gaussian(2.0, 0.0).mean_and_u() == (2.0, 0.0)

    @pytest.mark.parametrize("marginal, dist", [
        (Gaussian(-3.0, 0.7), stats.norm(-3.0, 0.7)),
        (Rectangular(-2.0, 5.0), stats.uniform(-2.0, 7.0)),
        (Triangular(0.0, 0.3, 1.0), stats.triang(0.3, 0.0, 1.0)),
        (Triangular(1.0, 1.5, 4.0), stats.triang(1 / 6, 1.0, 3.0)),
        (Triangular(-4.0, -4.0, 2.5), stats.triang(0.0, -4.0, 6.5)),
        (Triangular(1.0, 3.0, 3.0), stats.triang(1.0, 1.0, 2.0)),
    ], ids=["gaussian", "rectangular", "triangular", "asymmetric", "left",
            "right"])
    def test_u_is_scipy_std(self, marginal, dist):
        mean, u = marginal.mean_and_u()
        assert mean == pytest.approx(dist.mean(), rel=1e-14, abs=0.0)
        assert u == pytest.approx(dist.std(), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_u_across_the_double_range(self, scale):
        # 50-digit oracle of u^2 = (a^2 + m^2 + b^2 - am - ab - mb) / 18
        # and (b - a)^2 / 12: no square is formed, so no scale over- or
        # underflows while u itself is a normal double
        a, m, b = 0.2 * scale, 0.5 * scale, 0.6 * scale
        with mpmath.workdps(50):
            A, M, B = map(mpmath.mpf, (a, m, b))
            tri = mpmath.sqrt((A * A + M * M + B * B - A * M - A * B - M * B)
                              / 18)
            rect = (B - A) / mpmath.sqrt(12)
            assert Triangular(a, m, b).mean_and_u()[1] == pytest.approx(
                float(tri), rel=1e-15, abs=0.0)
            assert Rectangular(a, b).mean_and_u()[1] == pytest.approx(
                float(rect), rel=1e-15, abs=0.0)


def mp_mean_and_u(a, m, b):
    """50-digit mean and u of Rectangular(a, b) (m None) or
    Triangular(a, m, b), rounded to doubles."""
    with mpmath.workdps(50):
        if m is None:
            A, B = mpmath.mpf(a), mpmath.mpf(b)
            return float((A + B) / 2), float((B - A) / mpmath.sqrt(12))
        A, M, B = map(mpmath.mpf, (a, m, b))
        return (float((A + M + B) / 3),
                float(mpmath.sqrt((A * A + M * M + B * B - A * M - A * B
                                   - M * B) / 18)))


def unscaled_mean_u_and_ppf(a, m, b, v):
    """The unscaled formulas the scaled forms replaced, as reference."""
    if m is None:
        return 0.5 * (a + b), (b - a) / math.sqrt(12.0), a + (b - a) * v
    split = (m - a) / (b - a)
    left = a + np.sqrt(np.maximum(v, 0.0) * (b - a) * (m - a))
    right = b - np.sqrt(np.maximum(1.0 - v, 0.0) * (b - a) * (b - m))
    return ((a + m + b) / 3.0, math.hypot(a - m, a - b, m - b) / 6.0,
            np.where(v < split, left, right))


# bounds from +-1.7e308 down to 1e-300, rectangular where the mode is None;
# the four named ones have a sum or a width beyond the double range,
# though their mean and u are doubles
SCALED_BOUNDS = [
    (lo * s, None if md is None else md * s, hi * s)
    for s in (1.7e308, 1e308, 1e200, 1.0, 1e-200, 1e-300)
    for lo, md, hi in ((-1.0, None, 1.0), (0.6, None, 1.0),
                       (-1.0, -0.1, 1.0), (-1.0, -1.0, 1.0),
                       (0.2, 0.5, 0.6), (0.6, 1.0, 1.0), (-1.0, -0.9, -0.6))
] + [pytest.param(-1e308, None, 1e308, id="rect-width"),
     pytest.param(1e308, None, 1.5e308, id="rect-mean"),
     pytest.param(-1e308, 0.0, 1e308, id="tri-width"),
     pytest.param(1e308, 1.5e308, 1.7e308, id="tri-mean")]


def make_marginal(a, m, b):
    return Rectangular(a, b) if m is None else Triangular(a, m, b)


def edge_grid(m):
    """The draws' edge grid; for a triangular ``m`` also its mode split
    and the doubles either side of it."""
    v = [np.linspace(0.0, 1.0, 1001),
         [np.finfo(np.float64).tiny, 2.0 ** -53, 1.0 - 2.0 ** -53]]
    if isinstance(m, Triangular):
        e = math.frexp(max(-m.lower, m.upper))[1]
        a, md, b = np.ldexp([m.lower, m.mode, m.upper], -e)
        split = (md - a) / (b - a)
        v.append([np.nextafter(split, 0.0), split, np.nextafter(split, 1.0)])
    return np.concatenate(v)


class TestScaledForms:
    @pytest.mark.parametrize("a, m, b", SCALED_BOUNDS)
    def test_mean_and_u_against_mpmath(self, a, m, b):
        mean, u = make_marginal(a, m, b).mean_and_u()
        want_mean, want_u = mp_mean_and_u(a, m, b)
        assert mean == pytest.approx(want_mean, rel=1e-15, abs=0.0)
        assert u == pytest.approx(want_u, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("a, m, b", SCALED_BOUNDS)
    def test_draws_are_finite_and_inside_the_bounds(self, a, m, b):
        dist = make_marginal(a, m, b)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x = dist.ppf(edge_grid(dist))
        assert np.all(np.isfinite(x))
        assert np.all((a <= x) & (x <= b))

    def test_ordinary_bounds_bit_for_bit(self):
        # a power of two scales exactly: on bounds from 1e-6 to 1e6 the
        # mean, u and every draw are the unscaled formulas' own bits
        rng = np.random.default_rng(29)
        v = np.concatenate([substream(29).random(64),
                            [np.finfo(np.float64).tiny, 0.5]])
        for _ in range(2000):
            scale = 10.0 ** rng.uniform(-6.0, 6.0)
            a, m, b = np.sort(rng.standard_normal(3) * scale
                              + rng.standard_normal() * scale
                              * rng.integers(0, 3)).tolist()
            for mode in (None, m):
                want = unscaled_mean_u_and_ppf(a, mode, b, v)
                dist = make_marginal(a, mode, b)
                assert dist.mean_and_u() == want[:2], (a, mode, b)
                assert np.array_equal(dist.ppf(v), want[2]), (a, mode, b)


class TestPpfOut:
    @staticmethod
    def check(marginal):
        v = edge_grid(marginal)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = marginal.ppf(v)
            u = v.copy()
            got = marginal.ppf(u, out=u)
            scalars = [marginal.ppf(x) for x in v.tolist()]
        assert got is u
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(np.array(scalars).view(np.int64),
                              want.view(np.int64))

    # u = 0 maps to -inf, and to NaN where sd = 0
    @pytest.mark.parametrize("marginal", [
        Gaussian(-3.0, 0.7), Gaussian(1e300, 1e-300), Gaussian(2.0, 0.0)])
    def test_gaussian_ppf_into_u_is_ppf_bit_for_bit(self, marginal):
        self.check(marginal)

    @pytest.mark.parametrize("a, m, b", SCALED_BOUNDS)
    def test_scaled_ppf_into_u_is_ppf_bit_for_bit(self, a, m, b):
        self.check(make_marginal(a, m, b))


class TestQuantileFunctions:
    def test_rectangular_ppf_matches_scipy(self):
        d = Rectangular(-2.0, 5.0)
        u = np.linspace(0.01, 0.99, 25)
        want = stats.uniform(loc=-2.0, scale=7.0).ppf(u)
        np.testing.assert_allclose([d.ppf(ui) for ui in u], want, rtol=1e-12)

    def test_triangular_ppf_matches_scipy(self):
        lo, mode, hi = 0.0, 0.3, 1.0
        d = Triangular(lo, mode, hi)
        dist = stats.triang(c=0.3, loc=0.0, scale=1.0)
        u = np.linspace(0.005, 0.995, 41)
        np.testing.assert_allclose([d.ppf(ui) for ui in u], dist.ppf(u),
                                   rtol=1e-10)

    def test_gaussian_ppf_round_trip(self):
        d = Gaussian(1.0, 2.0)
        for p in (0.025, 0.5, 0.975):
            x = d.ppf(p)
            assert special.ndtr((x - 1.0) / 2.0) == pytest.approx(
                p, rel=1e-12, abs=0.0)


class TestValidation:
    def test_rectangular_needs_ordered_bounds(self):
        with pytest.raises(ConfigError):
            Rectangular(1.0, 1.0)

    @pytest.mark.parametrize("lower, upper", [(2.0, 2.0), (3.0, 1.0)])
    def test_triangular_needs_ordered_bounds(self, lower, upper):
        with pytest.raises(ConfigError) as err:
            Triangular(lower, lower, upper)
        assert str(err.value) == ("triangular bounds must satisfy lower < "
                                  f"upper, got [{lower}, {upper}]")

    def test_triangular_mode_inside(self):
        with pytest.raises(ConfigError):
            Triangular(0.0, 2.0, 1.0)

    def test_negative_sd_rejected(self):
        with pytest.raises(ConfigError):
            Gaussian(0.0, -0.1)

    @pytest.mark.parametrize("make,match", [
        (lambda: Rectangular(0.0, np.inf), "rectangular upper"),
        (lambda: Rectangular(-np.inf, 0.0), "rectangular lower"),
        (lambda: Triangular(-np.inf, 0.0, 1.0), "triangular lower"),
        (lambda: Triangular(0.0, 1.0, np.inf), "triangular upper"),
        (lambda: Triangular(0.0, np.nan, 1.0), "triangular mode"),
        (lambda: Gaussian(np.inf, 1.0), "gaussian mean"),
        (lambda: Gaussian(0.0, np.inf), "gaussian sd"),
    ])
    def test_non_finite_parameters_rejected(self, make, match):
        # before, Rectangular(0, inf) gave taylor1 y = u = inf and
        # Monte Carlo blamed the model for the domain errors
        with pytest.raises(ConfigError, match=f"{match} must be finite"):
            make()

    def test_largest_representable_moments_accepted(self):
        # refused while the variance was kept, although u is a double
        assert Gaussian(1e308, 1e308).mean_and_u() == (1e308, 1e308)
        assert Gaussian(0.0, 1.4e154).mean_and_u() == (0.0, 1.4e154)
        assert Rectangular(0.0, 1e200).mean_and_u()[1] == pytest.approx(
            1e200 / math.sqrt(12.0), rel=1e-15, abs=0.0)
        assert Rectangular(-8e307, 8e307).mean_and_u()[1] == pytest.approx(
            1.6e308 / math.sqrt(12.0), rel=1e-15, abs=0.0)
        mean, u = Triangular(1e200, 1.5e200, 2e200).mean_and_u()
        assert mean == pytest.approx(1.5e200, rel=1e-15, abs=0.0)
        assert u == pytest.approx(1e200 * math.sqrt(1.5) / 6.0,
                                  rel=1e-15, abs=0.0)

    def test_duplicate_names_rejected(self):
        qs = [InputQuantity("X1", Gaussian(0, 1)),
              InputQuantity("X1", Gaussian(0, 1))]
        with pytest.raises(ConfigError, match="duplicate"):
            JointInputModel(qs)

    def test_correlation_must_be_positive_definite(self):
        qs = [InputQuantity("X1", Gaussian(0, 1)),
              InputQuantity("X2", Gaussian(0, 1))]
        bad = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ConfigError):
            JointInputModel(qs, bad)

    def test_correlation_within_bounds_yet_not_positive_definite(self):
        # symmetric, unit diagonal, every entry in [-1, 1], and still an
        # eigenvalue of 1 - 2 * 0.9 < 0
        qs = [InputQuantity(n, Gaussian(0, 1)) for n in ("X1", "X2", "X3")]
        corr = np.full((3, 3), -0.9)
        np.fill_diagonal(corr, 1.0)
        with pytest.raises(ConfigError) as err:
            JointInputModel(qs, corr)
        assert str(err.value) == "correlation matrix is not positive definite"

    def test_correlation_requires_all_gaussian(self):
        qs = [InputQuantity("X1", Gaussian(0, 1)),
              InputQuantity("X2", Rectangular(0, 1))]
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ConfigError, match="[Gg]aussian"):
            JointInputModel(qs, corr)

    @pytest.mark.parametrize("corr, message", [
        ([[1.0, 0.5], [0.500004, 1.0]], "symmetric"),
        ([[1.0, 0.5], [0.5, 0.999991]], "unit diagonal"),
    ], ids=["asymmetric", "diagonal"])
    def test_correlation_tolerance_is_absolute(self, corr, message):
        # numpy's default rtol of 1e-5 let both through: sampling read
        # only the lower triangle, and a 0.999991 diagonal shrank the
        # Monte Carlo spread while the series ignored it
        qs = [InputQuantity("X1", Gaussian(0, 1)),
              InputQuantity("X2", Gaussian(0, 1))]
        with pytest.raises(ConfigError, match=message):
            JointInputModel(qs, np.array(corr))

    def test_joint_holds_each_mean_and_u(self):
        marginals = [Gaussian(1.0, 0.2), Rectangular(-1.0, 3.0),
                     Triangular(0.0, 0.2, 1.0)]
        jm = JointInputModel([InputQuantity(f"X{i}", m)
                              for i, m in enumerate(marginals)])
        want = np.array([m.mean_and_u() for m in marginals])
        assert np.array_equal(jm.means, want[:, 0])
        assert np.array_equal(jm.u, want[:, 1])
        assert jm.chol is None


class TestSampling:
    def test_sample_moments_match_marginals(self):
        joint = JointInputModel([
            InputQuantity("X1", Gaussian(2.0, 0.5)),
            InputQuantity("X2", Rectangular(-1.0, 1.0)),
            InputQuantity("X3", Triangular(0.0, 0.2, 1.0)),
        ])
        x = sample(joint, 200_000, substream(12))
        assert x.shape == (200_000, 3)
        for j in range(3):
            se_mean = joint.u[j] / np.sqrt(200_000)
            assert abs(x[:, j].mean() - joint.means[j]) < 5 * se_mean
            assert x[:, j].std(ddof=1) == pytest.approx(joint.u[j],
                                                        rel=0.01, abs=0.0)

    def test_bounded_marginals_stay_in_support(self):
        joint = JointInputModel([
            InputQuantity("X1", Rectangular(3.0, 4.0)),
            InputQuantity("X2", Triangular(-2.0, 0.0, 1.0)),
        ])
        x = sample(joint, 50_000, substream(5))
        assert x[:, 0].min() >= 3.0 and x[:, 0].max() <= 4.0
        assert x[:, 1].min() >= -2.0 and x[:, 1].max() <= 1.0

    def test_correlated_gaussian_sample_covariance(self):
        corr = np.array([[1.0, -0.7], [-0.7, 1.0]])
        joint = JointInputModel([
            InputQuantity("X1", Gaussian(1.0, 2.0)),
            InputQuantity("X2", Gaussian(-1.0, 0.5)),
        ], corr)
        x = sample(joint, 400_000, substream(31))
        c = np.cov(x.T)
        np.testing.assert_allclose(c, [[4.0, -0.7], [-0.7, 0.25]], rtol=0.02)

    def test_same_seed_same_draws(self):
        joint = JointInputModel([InputQuantity("X1", Gaussian(0, 1))])
        a = sample(joint, 1000, substream(9))
        b = sample(joint, 1000, substream(9))
        np.testing.assert_array_equal(a, b)

    def test_draws_are_each_columns_ppf_of_the_stream(self):
        # reference: every intermediate in its own array
        joint = JointInputModel([
            InputQuantity("X1", Gaussian(2.0, 0.5)),
            InputQuantity("X2", Rectangular(-1.0, 1.0)),
            InputQuantity("X3", Triangular(0.0, 0.2, 1.0)),
        ])
        u = substream(8, 3).random((5000, 3))
        u = np.maximum(u, np.finfo(np.float64).tiny)
        ref = np.column_stack([q.marginal.ppf(u[:, i].copy())
                               for i, q in enumerate(joint.quantities)])
        x = sample(joint, 5000, substream(8, 3))
        # one contiguous column per input
        assert x.shape == (5000, 3) and x.flags.f_contiguous
        assert np.array_equal(x, ref)

    # a one-row product under correlation goes to BLAS gemv, which may
    # round differently, so the correlated pair splits at two rows or more
    @pytest.mark.parametrize("marginal, correlation, splits", [
        (Gaussian(2.0, 0.5), None, (1, 7, 999)),
        (Rectangular(-1.0, 1.0), None, (1, 7, 999)),
        (Triangular(0.0, 0.2, 1.0), None, (1, 7, 999)),
        (Gaussian(2.0, 0.5), [[1.0, 0.6], [0.6, 1.0]], (2, 7, 998))],
        ids=["gaussian", "rectangular", "triangular", "correlated"])
    def test_calls_continue_the_generators_stream(self, marginal,
                                                  correlation, splits):
        joint = JointInputModel([InputQuantity("X1", marginal),
                                 InputQuantity("X2", marginal)],
                                correlation)
        whole = sample(joint, 1000, substream(6, 2))
        for a in splits:
            rng = substream(6, 2)
            parts = [sample(joint, a, rng), sample(joint, 1000 - a, rng)]
            assert np.array_equal(np.concatenate(parts), whole), a

    def test_streams_are_disjoint(self):
        joint = JointInputModel([InputQuantity("X1", Gaussian(0, 1))])
        a = sample(joint, 1000, substream(9, 0))
        b = sample(joint, 1000, substream(9, 1))
        assert not np.array_equal(a, b)

    def test_uniformity_of_gaussian_pit(self):
        # push samples back through the CDF: must be uniform
        joint = JointInputModel([InputQuantity("X1", Gaussian(3.0, 2.0))])
        x = sample(joint, 100_000, substream(4))[:, 0]
        u = special.ndtr((x - 3.0) / 2.0)
        stat = stats.kstest(u, "uniform").statistic
        assert stat < 0.01
