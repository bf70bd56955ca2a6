"""Guard-banded conformity zones from an expanded-uncertainty interval."""

import gc
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from uncertlab.conformity import ZONES, Specification, classify
from uncertlab.distributions import Gaussian, InputQuantity, JointInputModel
from uncertlab.errors import ConfigError
from uncertlab.expr import parse_model
from uncertlab.propagation import MeasurementResult, propagate_taylor1
from uncertlab.report import decision_rows


def rendered(d):
    """The rows a conformity report writes for the decisions ``d``."""
    return "[" + "".join(decision_rows(d).blocks()) + "]"


class TestSpecification:
    def test_width(self):
        assert Specification(1.0, 3.0).width == 2.0

    def test_degenerate_limits_rejected(self):
        with pytest.raises(ConfigError):
            Specification(2.0, 2.0)
        with pytest.raises(ConfigError):
            Specification(3.0, 1.0)

    def test_non_finite_limits_rejected(self):
        with pytest.raises(ConfigError, match=r"finite, got \[0.0, inf\]"):
            Specification(0.0, math.inf)


class TestZones:
    SPEC = Specification(10.0, 10.2)

    def test_center_conforms(self):
        d = classify(10.1, 0.02, self.SPEC)
        assert d.zone == "conformity"
        assert d.resulting_tolerance == (pytest.approx(10.02, abs=0.0),
                                         pytest.approx(10.18, abs=0.0))
        assert not d.no_reliable_zone

    def test_guard_band_is_uncertain(self):
        assert classify(10.19, 0.02, self.SPEC).zone == "uncertainty_upper"
        assert classify(10.01, 0.02, self.SPEC).zone == "uncertainty_lower"

    def test_clear_violation_is_nonconforming(self):
        assert classify(10.25, 0.02, self.SPEC).zone == "non_conformity_upper"
        assert classify(9.9, 0.02, self.SPEC).zone == "non_conformity_lower"

    def test_boundary_on_guard_band_edge_conforms(self):
        # closed acceptance zone: y exactly at lsl+U conforms
        d = classify(10.02, 0.02, self.SPEC)
        assert d.zone == "conformity"

    def test_boundary_at_limit_plus_u_is_still_uncertain(self):
        # non-conformity needs strict exceedance of usl+U
        d = classify(self.SPEC.usl + 0.02, 0.02, self.SPEC)
        assert d.zone == "uncertainty_upper"

    def test_zero_u_degenerates_to_plain_comparison(self):
        for y in np.linspace(9.9, 10.3, 81):
            zone = classify(float(y), 0.0, self.SPEC).zone
            if 10.0 <= y <= 10.2:
                assert zone == "conformity"
            elif y < 10.0:
                assert zone == "non_conformity_lower"
            else:
                assert zone == "non_conformity_upper"

    def test_wide_uncertainty_flags_no_reliable_zone(self):
        d = classify(10.1, 0.15, self.SPEC)
        assert d.no_reliable_zone
        assert d.resulting_tolerance is None
        assert d.zone in ("uncertainty_lower", "uncertainty_upper")

    def test_negative_u_rejected(self):
        with pytest.raises(ConfigError):
            classify(10.1, -0.01, self.SPEC)

    @pytest.mark.parametrize("y,u", [(float("nan"), 0.01),
                                     (10.1, float("inf")),
                                     (float("-inf"), 0.01),
                                     (10.1, float("nan"))])
    def test_non_finite_rejected(self, y, u):
        with pytest.raises(ConfigError, match="finite"):
            classify(y, u, self.SPEC)


class TestPartitionProperties:
    def test_exactly_one_zone_fires(self):
        rng = np.random.default_rng(123)
        for _ in range(2000):
            lsl = rng.uniform(-5, 5)
            usl = lsl + rng.uniform(0.5, 4.0)
            spec = Specification(lsl, usl)
            u = rng.uniform(0.0, 0.49) * (usl - lsl)
            y = rng.uniform(lsl - 2, usl + 2)
            d = classify(y, u, spec)
            assert d.zone in ZONES
            # re-derive zone membership independently
            in_conf = lsl + u <= y <= usl - u
            in_nc = y < lsl - u or y > usl + u
            if in_conf:
                assert d.zone == "conformity"
            elif in_nc:
                assert d.zone.startswith("non_conformity")
            else:
                assert d.zone.startswith("uncertainty")

    def test_monotone_in_u(self):
        # growing U can only move a point conf -> unc -> never back
        rng = np.random.default_rng(321)
        order = {"conformity": 0, "uncertainty_lower": 1,
                 "uncertainty_upper": 1, "non_conformity_lower": 1,
                 "non_conformity_upper": 1}
        for _ in range(500):
            spec = Specification(0.0, 1.0)
            y = rng.uniform(0.0, 1.0)  # inside the limits
            last = 0
            for u in np.linspace(0.0, 0.49, 20):
                zone = classify(float(y), float(u), spec).zone
                assert zone in ("conformity", "uncertainty_lower",
                                "uncertainty_upper")
                rank = order[zone]
                assert rank >= last
                last = rank


def virtual(y, u, k, aleatoric_var, epistemic_var):
    """A virtual measurement result as predict_parts builds it."""
    return MeasurementResult(y, u, k, (y - k * u, y + k * u), "virtual",
                             aleatoric_var=aleatoric_var,
                             epistemic_var=epistemic_var)


class TestVirtualClassification:
    def test_uses_k_sigma_as_u(self):
        vm = virtual(10.1, 0.01, 2.0, aleatoric_var=5e-5, epistemic_var=5e-5)
        d = classify(vm.y, vm.U, Specification(10.0, 10.2))
        assert d.U == pytest.approx(0.02, rel=1e-12, abs=0.0)
        assert d.zone == "conformity"

    def test_wide_predictive_spread_flags_no_zone(self):
        vm = virtual(5.0, 3.0, 2.0, aleatoric_var=4.5, epistemic_var=4.5)
        assert vm.interval == (-1.0, 11.0)
        d = classify(vm.y, vm.U, Specification(0.0, 10.0))
        assert d.no_reliable_zone  # 2U = 12 exceeds the 10-wide window
        assert d.resulting_tolerance is None

    @pytest.mark.parametrize("lsl,usl", [
        (9.0, 11.0), (10.3, 12.0), (7.0, 10.2), (10.5, 11.0), (9.9, 10.1)])
    def test_virtual_and_propagated_results_decide_alike(self, lsl, usl):
        # one type: a virtual result with a propagated result's (y, U)
        # is classified exactly as the propagated one
        joint = JointInputModel([
            InputQuantity("X1", Gaussian(5.0, 0.1)),
            InputQuantity("X2", Gaussian(5.0, 0.2))])
        measured = propagate_taylor1(parse_model("X1 + X2"), joint)
        vm = virtual(np.array([measured.y]), np.array([measured.u]),
                     measured.k, aleatoric_var=np.array([0.01]),
                     epistemic_var=np.array([0.04]))
        assert vm.U[0] == measured.U
        spec = Specification(lsl, usl)
        assert (rendered(classify(vm.y, vm.U, spec))
                == rendered(classify(measured.y, measured.U, spec)))

    def test_decision_row_reads_as_json(self):
        d = classify(10.1, 0.02, Specification(10.0, 10.2))
        assert json.loads(rendered(d)) == [{
            "zone": "conformity", "resulting_tolerance": [10.02, 10.18],
            "y": 10.1, "U": 0.02, "no_reliable_zone": False}]


def readme_zone(y, U, lsl, usl):
    """The five-zone rule as the README states it, one value at a time."""
    if lsl + U <= y <= usl - U:
        return "conformity"
    if y < lsl - U:
        return "non_conformity_lower"
    if y > usl + U:
        return "non_conformity_upper"
    return "uncertainty_lower" if y <= 0.5 * (lsl + usl) else \
        "uncertainty_upper"


class TestArrays:
    @pytest.mark.parametrize("lsl, usl", [(10.0, 10.2), (-1.0, 3.0),
                                          (0.1, 0.7)])
    def test_every_boundary_matches_the_readme_rule(self, lsl, usl):
        # y on lsl and usl, on lsl +/- U and usl +/- U, at the midpoint,
        # and a hair to either side of each, for U from 0 through 2U =
        # width to 2U > width
        width = usl - lsl
        ys, us = [], []
        for U in (0.0, 0.1 * width, 0.25 * width, 0.5 * width,
                  0.6 * width, 1.5 * width):
            for edge in (lsl, usl, lsl - U, lsl + U, usl - U, usl + U,
                         0.5 * (lsl + usl)):
                for y in (edge, np.nextafter(edge, -np.inf),
                          np.nextafter(edge, np.inf)):
                    ys.append(float(y))
                    us.append(U)
        d = classify(np.array(ys), np.array(us), Specification(lsl, usl))
        assert d.zone.tolist() == [readme_zone(y, U, lsl, usl)
                                   for y, U in zip(ys, us)]
        assert d.no_reliable_zone.tolist() == [2.0 * U >= width for U in us]
        assert "conformity" in d.zone.tolist()
        assert {"uncertainty_lower", "uncertainty_upper"} <= set(d.zone)

    def test_rows_match_scalar_decisions(self):
        rng = np.random.default_rng(5)
        spec = Specification(10.0, 10.2)
        y = rng.uniform(9.8, 10.4, 300)
        U = rng.uniform(0.0, 0.15, 300)
        rows = json.loads(rendered(classify(y, U, spec)))
        assert len(rows) == 300
        for row, y_i, U_i in zip(rows, y.tolist(), U.tolist()):
            one = classify(y_i, U_i, spec)
            tolerance = one.resulting_tolerance
            assert row == {
                "zone": one.zone, "y": y_i, "U": U_i,
                "no_reliable_zone": bool(one.no_reliable_zone),
                "resulting_tolerance":
                    None if tolerance is None else list(tolerance)}

    @pytest.mark.parametrize("y, U, message", [
        ([10.1, math.nan, 10.0, math.inf], [0.01] * 4,
         r"^entry 1: .* got y=nan, U=0.01$"),
        ([10.1, 10.1, 10.1], [0.01, 0.01, math.inf],
         r"^entry 2: .* got y=10.1, U=inf$"),
        ([10.1, 10.1, 10.1], [0.01, -0.01, math.nan],
         r"^entry 1: .* U >= 0, got y=10.1, U=-0.01$"),
    ])
    def test_bad_entry_is_named(self, y, U, message):
        with pytest.raises(ConfigError, match=message):
            classify(np.array(y), np.array(U), Specification(10.0, 10.2))

    def test_scalar_decision_has_scalar_fields(self):
        d = classify(10.1, 0.02, Specification(10.0, 10.2))
        assert isinstance(d.zone, str) and d.zone == "conformity"
        assert np.ndim(d.y) == np.ndim(d.U) == 0


class TestMemory:
    DECISIONS = 100_000

    def test_zone_column_holds_a_reference_a_decision(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(9.8, 10.4, self.DECISIONS)
        U = rng.uniform(0.0, 0.15, self.DECISIONS)
        spec = Specification(10.0, 10.2)
        # with the collector off, a reference cycle keeps what it holds
        gc.disable()
        tracemalloc.start()
        try:
            d = classify(y, U, spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert set(d.zone) == set(ZONES)
        # the zones are 8-byte references to the five names, and y and
        # U views of the columns given; the peak adds the 8-byte zone
        # index (8.0 and 16.0 bytes a decision measured). A <U20 zone
        # column held 80 and peaked at 88
        assert held < 16 * self.DECISIONS
        assert peak < 24 * self.DECISIONS


class TestEdgesOfTheDoubleRange:
    """2U against the width and y against the midpoint are decided as
    the exact numbers would be where usl - lsl or lsl + usl overflows,
    and no overflow warning escapes."""

    @staticmethod
    def quiet_classify(y, U, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return classify(y, U, spec)

    def test_width_beyond_the_double_range(self):
        # 2U = 1.8e308 is below the width 2e308; both overflowed to inf,
        # and the conformity zone was flagged empty
        d = self.quiet_classify(0.0, 9e307, Specification(-1e308, 1e308))
        assert d.zone == "conformity"
        assert not d.no_reliable_zone
        tolerance = [-1e308 + 9e307, 1e308 - 9e307]
        assert list(d.resulting_tolerance) == tolerance
        assert json.loads(rendered(d))[0]["resulting_tolerance"] == tolerance
        d = self.quiet_classify(0.0, 1e308, Specification(-1e308, 1e308))
        assert d.no_reliable_zone and d.resulting_tolerance is None

    def test_resulting_tolerance_beyond_the_double_range(self):
        # lsl + U = 2.5e308 overflows; the report's column reads the
        # same limits
        d = self.quiet_classify([1.6e308], [1e308],
                                Specification(1.5e308, 1.7e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, upper = d.resulting_tolerance
        assert lower.tolist() == [math.inf]
        assert upper.tolist() == [1.7e308 - 1e308]
        assert json.loads(rendered(d))[0]["resulting_tolerance"] is None

    def test_midpoint_beyond_the_double_range(self):
        # y is above the midpoint 1.6e308; lsl + usl overflowed to inf
        spec = Specification(1.5e308, 1.7e308)
        assert self.quiet_classify(1.69e308, 1e307,
                                   spec).zone == "uncertainty_upper"
        assert self.quiet_classify(1.59e308, 1e307,
                                   spec).zone == "uncertainty_lower"
        assert spec.midpoint == 1.6e308

    @pytest.mark.parametrize("y, zone", [
        (-1.6e308, "non_conformity_lower"), (1e307, "uncertainty_lower"),
        (6e307, "conformity"), (1.79e308, "uncertainty_upper")])
    def test_guard_bands_beyond_the_double_range(self, y, zone):
        # lsl - U = -1.5e308 and usl + U = 2.7e308, which overflows to
        # inf and still compares as the exact limit would; 2U = 2e308 is
        # below the width 2.2e308
        d = self.quiet_classify(np.array([y]), np.array([1e308]),
                                Specification(-5e307, 1.7e308))
        assert d.zone.tolist() == [zone]
        assert d.no_reliable_zone.tolist() == [False]

    def test_integer_limits_beyond_the_sum(self):
        # JSON integers: an exact integer sum failed to convert
        big = int(1.5e308)
        spec = Specification(big, int(1.7e308))
        assert spec.midpoint == 0.5 * 1.5e308 + 0.5 * 1.7e308
        assert classify(1.69e308, 1e307, spec).zone == "uncertainty_upper"

    def test_subnormal_limits_keep_the_unhalved_forms(self):
        # halving a subnormal limit rounds: 0.5 * 5e-324 is 0, so
        # 0.5 usl - 0.5 lsl would call U = 0 no reliable zone here, and
        # 0.5 lsl + 0.5 usl would put the midpoint of [1, 5] * 5e-324 at
        # 2 * 5e-324, not 3 * 5e-324
        tiny = 5e-324
        d = classify(0.0, 0.0, Specification(0.0, tiny))
        assert d.zone == "conformity" and not d.no_reliable_zone
        spec = Specification(tiny, 5 * tiny)
        assert spec.midpoint == 3 * tiny
        assert classify(3 * tiny, 3 * tiny, spec).zone == "uncertainty_lower"
