"""Guard-banded conformity decisions against specification limits.

A measured or virtually measured value y with expanded uncertainty U is
placed against a two-sided specification [lsl, usl]. The expanded
uncertainty shrinks the range where conformity can be stated and widens
the range where non-conformity can be stated, leaving two uncertainty
bands around the limits:

    non_conformity_lower | uncertainty_lower | conformity | uncertainty_upper | non_conformity_upper
              y < lsl-U    lsl-U <= y < lsl+U               usl-U < y <= usl+U    y > usl+U

Conformity holds on the closed guard-banded interval [lsl+U, usl-U],
so U = 0 degenerates exactly to the plain limit comparison; the
uncertainty/non-conformity boundaries resolve into the uncertainty
band, the safer call. Once 2U reaches the specification width the
conformity zone is empty: the decision is still returned, but it is
flagged and the resulting manufacturing tolerance is gone.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError

__all__ = ["Specification", "ConformityDecision", "ZONES", "classify"]

ZONES = (
    "conformity",
    "uncertainty_lower",
    "uncertainty_upper",
    "non_conformity_lower",
    "non_conformity_upper",
)


@dataclass(frozen=True)
class Specification:
    """Two-sided specification limits in the unit of y."""

    lsl: float
    usl: float

    def __post_init__(self):
        if not (math.isfinite(self.lsl) and math.isfinite(self.usl)):
            raise ConfigError(
                f"specification limits must be finite, got "
                f"[{self.lsl}, {self.usl}]")
        if not self.lsl < self.usl:
            raise ConfigError(
                f"specification needs lsl < usl, got [{self.lsl}, {self.usl}]")

    @property
    def width(self) -> float:
        return self.usl - self.lsl


@dataclass(frozen=True)
class ConformityDecision:
    """Zone classification with the echoed inputs.

    ``resulting_tolerance`` is the guard-banded interval
    (lsl+U, usl-U) still usable for manufacturing, or None when the
    uncertainty has consumed the whole specification
    (``no_reliable_zone``).
    """

    zone: str
    resulting_tolerance: Optional[tuple[float, float]]
    y: float
    U: float
    no_reliable_zone: bool = False

    def to_dict(self) -> dict:
        tolerance = self.resulting_tolerance
        return dict(vars(self), resulting_tolerance=None if tolerance is None
                    else list(tolerance))


def classify(y: float, U: float, spec: Specification) -> ConformityDecision:
    """Place (y, U) into one of the five conformity zones."""
    if not (math.isfinite(y) and math.isfinite(U)):
        raise ConfigError(f"y and U must be finite, got y={y}, U={U}")
    if U < 0.0:
        raise ConfigError(f"expanded uncertainty must be >= 0, got {U}")
    no_zone = 2.0 * U >= spec.width
    tolerance = None if no_zone else (spec.lsl + U, spec.usl - U)

    if spec.lsl + U <= y <= spec.usl - U:
        zone = "conformity"
    elif y < spec.lsl - U:
        zone = "non_conformity_lower"
    elif y > spec.usl + U:
        zone = "non_conformity_upper"
    elif y <= 0.5 * (spec.lsl + spec.usl):
        zone = "uncertainty_lower"
    else:
        zone = "uncertainty_upper"
    return ConformityDecision(zone, tolerance, y, U, no_zone)
