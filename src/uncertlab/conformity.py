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
flagged and the resulting manufacturing tolerance is gone. One call
classifies one (y, U) or whole columns of them, as predict and the
conformity subcommand do. Limits and uncertainties near the edge of the
double range are decided as the exact values would be: a guard-banded
limit that overflows compares as +-inf, and a width or midpoint that
overflows is taken from the halved limits.
"""

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import ConfigError

__all__ = ["Specification", "ConformityDecision", "ZONES", "classify"]

ZONES = (
    "conformity",
    "uncertainty_lower",
    "uncertainty_upper",
    "non_conformity_lower",
    "non_conformity_upper",
)
_ZONE_NAMES = np.array(ZONES)


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
        # integer limits, as JSON may give them, in the arithmetic below
        # would be exact and then fail to convert
        object.__setattr__(self, "lsl", float(self.lsl))
        object.__setattr__(self, "usl", float(self.usl))

    @property
    def width(self) -> float:
        """usl - lsl; inf where the difference leaves the double range."""
        return self.usl - self.lsl

    @property
    def half_width(self) -> float:
        """The least U with 2U >= usl - lsl, also where the width leaves
        the double range."""
        width = self.width
        if math.isinf(width):
            # limits this far apart are both at least 2^970 in
            # magnitude, where halving each is exact
            return 0.5 * self.usl - 0.5 * self.lsl
        half = 0.5 * width
        # halving a subnormal width can round down, below width / 2
        return half if 2.0 * half >= width else math.nextafter(half, math.inf)

    @property
    def midpoint(self) -> float:
        """(lsl + usl) / 2, also where the sum leaves the double range."""
        mid = 0.5 * (self.lsl + self.usl)
        # a sum this large has both limits at least 2^970 in
        # magnitude, where halving each is exact
        return mid if math.isfinite(mid) else 0.5 * self.lsl + 0.5 * self.usl


@dataclass(frozen=True)
class ConformityDecision:
    """Zone classification with the echoed inputs.

    Each of ``zone``, ``y`` and ``U`` is a scalar for one decision or a
    column with one entry per decision, as :func:`classify` was given.
    """

    zone: Any
    y: Any
    U: Any
    spec: Specification

    @property
    def no_reliable_zone(self) -> Any:
        """True where the uncertainty has consumed the whole
        specification: 2U >= usl - lsl."""
        return self.U >= self.spec.half_width

    @property
    def guard_banded_limits(self) -> tuple[Any, Any]:
        """(lsl+U, usl-U); a limit beyond the double range is +-inf."""
        with np.errstate(over="ignore"):
            return self.spec.lsl + self.U, self.spec.usl - self.U

    @property
    def resulting_tolerance(self) -> Optional[tuple[Any, Any]]:
        """The guard-banded interval (lsl+U, usl-U) still usable for
        manufacturing; None for one decision with no reliable zone."""
        if np.ndim(self.U) == 0 and self.no_reliable_zone:
            return None
        return self.guard_banded_limits


def classify(y: Any, U: Any, spec: Specification) -> ConformityDecision:
    """Place each (y, U) into one of the five conformity zones.

    ``y`` and ``U`` are scalars or equal-length 1-D arrays, classified
    in one pass. A non-finite entry or a negative U is a ConfigError
    naming the first bad entry.
    """
    y, U = np.broadcast_arrays(np.asarray(y, dtype=np.float64),
                               np.asarray(U, dtype=np.float64))
    bad = np.flatnonzero(~(np.isfinite(y) & np.isfinite(U) & (U >= 0.0)))
    if bad.size:
        i = int(bad[0])
        raise ConfigError(
            f"entry {i}: y and U must be finite and U >= 0, got "
            f"y={y.flat[i]}, U={U.flat[i]}")
    # the first condition that holds names the zone; a guard-banded
    # limit beyond the double range is +-inf, which y compares with as
    # with the exact limit
    with np.errstate(over="ignore"):
        index = np.select(
            [(spec.lsl + U <= y) & (y <= spec.usl - U),
             y < spec.lsl - U,
             y > spec.usl + U,
             y <= spec.midpoint],
            [0, 3, 4, 1], default=2)
    return ConformityDecision(_ZONE_NAMES[index], y[()], U[()], spec)
