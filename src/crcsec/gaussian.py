"""Closed-form rate regions for the scalar Gaussian channel.

All results are unions over a power-split parameter alpha in [0, 1] of
boxes whose corners are built from

    psi(x) = 0.5 * log2(1 + x)      (capacity of SNR x, in bits),

so evaluation is exact up to floating point; no numerical maximization is
involved. Three families are implemented:

- ``weak``     (|b| <= 1, secrecy tracked for the cognitive message only):
               R1 <= psi(a*P1), R2 <= psi(((1-a)b^2 P1 + P2
               + 2|b|sqrt((1-a)P1P2)) / (a b^2 P1 + 1)),
               Re1 <= psi(a*P1) - psi(a b^2 P1).
- ``degraded`` (a*b = 1 and |b| <= 1 < |a|): same corner formulas, with the
               primary message's equivocation pinned to zero.
- ``secrecy``  (any b, cognitive message sent with perfect secrecy):
               R1 <= [psi(a*P1) - psi(a b^2 P1)]_+ with the same R2 bound;
               for |b| > 1 the clamp forces R1 = 0 for every alpha.

The ``weak`` family does not depend on the cross gain ``a``: the known
interference toward receiver 1 is precoded away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .channel import ChannelError, GaussianCRC
from .region import RatePoint, Region, pareto_filter

HYPOTHESIS_TOL = 1e-9


class GaussError(ValueError):
    """Hypothesis or parameter violation in a Gaussian region evaluation."""


class GaussMode(str, Enum):
    """Which closed-form family to evaluate."""

    WEAK = "weak"
    DEGRADED = "degraded"
    SECRECY = "secrecy"


MODE_DIMS = {
    GaussMode.WEAK: ("r1", "r2", "re1"),
    GaussMode.DEGRADED: ("r1", "r2", "re1", "re2"),
    GaussMode.SECRECY: ("r1", "r2"),
}


def parse_mode(token: str) -> GaussMode:
    try:
        return GaussMode(token.strip().lower())
    except ValueError:
        raise GaussError(
            f"unknown mode {token!r}; expected one of {sorted(m.value for m in GaussMode)}"
        ) from None


def psi(x: float) -> float:
    """0.5 * log2(1 + x) for x >= 0."""
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise GaussError(f"psi requires finite x >= 0, got {x!r}")
    return 0.5 * math.log2(1.0 + x)


@dataclass(frozen=True)
class GaussPoint:
    """Box corner of a Gaussian region at one power split alpha."""

    alpha: float
    r1_max: float
    r2_max: float
    re1_max: float
    re2_max: float = 0.0

    def __post_init__(self) -> None:
        for nm in ("r1_max", "r2_max", "re1_max", "re2_max"):
            if getattr(self, nm) < 0.0:
                raise GaussError(f"{nm} must be nonnegative")
        if self.re1_max > self.r1_max + 1e-12:
            raise GaussError("re1_max exceeds r1_max")

    def to_rate_point(self) -> RatePoint:
        return RatePoint(
            self.r1_max, self.r2_max, self.re1_max, self.re2_max, meta={"alpha": self.alpha}
        )


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise GaussError(f"alpha must be in [0, 1], got {alpha}")
    return alpha


def _corner(g: GaussianCRC, alpha: float) -> tuple[float, float, float]:
    """(r1_max, r2_max, re1_max) shared by the weak and degraded families."""
    b2 = g.b * g.b
    r1 = psi(alpha * g.p1)
    num = (1.0 - alpha) * b2 * g.p1 + g.p2 + 2.0 * abs(g.b) * math.sqrt(
        (1.0 - alpha) * g.p1 * g.p2
    )
    r2 = psi(num / (alpha * b2 * g.p1 + 1.0))
    re1 = r1 - psi(alpha * b2 * g.p1)
    return r1, r2, re1


def weak_interference_point(g: GaussianCRC, alpha: float) -> GaussPoint:
    """Capacity corner when |b| <= 1 and only message 1 needs secrecy."""
    if abs(g.b) > 1.0 + HYPOTHESIS_TOL:
        raise GaussError(f"weak-interference family needs |b| <= 1, got b={g.b}")
    alpha = _check_alpha(alpha)
    r1, r2, re1 = _corner(g, alpha)
    return GaussPoint(alpha, r1, r2, re1)


def degraded_point(g: GaussianCRC, alpha: float) -> GaussPoint:
    """Capacity corner of the degraded case a*b = 1, |b| <= 1 < |a|.

    The second receiver then sees a noisier version of the first, so no
    secrecy is possible for the primary message (re2_max = 0).
    """
    if abs(g.a * g.b - 1.0) > HYPOTHESIS_TOL:
        raise GaussError(f"degraded family needs a*b = 1, got a*b={g.a * g.b}")
    if abs(g.b) > 1.0 + HYPOTHESIS_TOL or abs(g.a) <= 1.0 + HYPOTHESIS_TOL:
        raise GaussError(
            f"degraded family needs |b| <= 1 < |a|, got a={g.a}, b={g.b}"
        )
    alpha = _check_alpha(alpha)
    r1, r2, re1 = _corner(g, alpha)
    return GaussPoint(alpha, r1, r2, re1, re2_max=0.0)


def perfect_secrecy_point(g: GaussianCRC, alpha: float) -> tuple[float, float]:
    """(r1_max, r2_max) with message 1 under a perfect-secrecy constraint.

    Valid for every b: the positive-part clamp zeroes R1 whenever |b| >= 1.
    """
    alpha = _check_alpha(alpha)
    r1, r2, re1 = _corner(g, alpha)
    return (re1 if re1 > 0.0 else 0.0, r2)


class SecrecyClass(str, Enum):
    """Structural classification of a Gaussian channel's secrecy options."""

    NO_SECRECY_FOR_M1 = "no-secrecy-for-m1"
    LESS_NOISY_NO_SECRECY_FOR_M2 = "less-noisy-no-secrecy-for-m2"
    UNCLASSIFIED = "unclassified"


def classify_gaussian(g: GaussianCRC) -> SecrecyClass:
    """Secrecy-impossibility classification from the gains alone.

    |b| >= 1 lets receiver 2 decode anything receiver 1 can, so message 1
    cannot be secured. If a*b = 1 with |b| <= 1 < |a|, receiver 2 is a
    degraded (noisier) observer of receiver 1's signal and message 2 cannot
    be secured. The first test takes precedence when both hold.
    """
    if abs(g.b) >= 1.0:
        return SecrecyClass.NO_SECRECY_FOR_M1
    if abs(g.a * g.b - 1.0) <= HYPOTHESIS_TOL and abs(g.a) > 1.0:
        return SecrecyClass.LESS_NOISY_NO_SECRECY_FOR_M2
    return SecrecyClass.UNCLASSIFIED


def point_for_mode(g: GaussianCRC, mode: GaussMode, alpha: float) -> RatePoint:
    if mode is GaussMode.WEAK:
        return weak_interference_point(g, alpha).to_rate_point()
    if mode is GaussMode.DEGRADED:
        return degraded_point(g, alpha).to_rate_point()
    r1, r2 = perfect_secrecy_point(g, alpha)
    return RatePoint(r1, r2, meta={"alpha": alpha})


def sweep_points(g: GaussianCRC, mode: GaussMode, steps: int) -> list[RatePoint]:
    """Corner points on the uniform alpha grid {0, 1/steps, ..., 1}."""
    if steps < 1:
        raise GaussError("steps must be >= 1")
    return [point_for_mode(g, mode, i / steps) for i in range(steps + 1)]


def sweep_region(g: GaussianCRC, mode: GaussMode, steps: int) -> Region:
    """Pareto frontier of the alpha sweep, each point annotated with alpha."""
    return pareto_filter(sweep_points(g, mode, steps), MODE_DIMS[mode])


FIGURE_A = 1.0
FIGURE_POWER = 20.0
FIGURE_B_VALUES = (0.25, 0.5, 0.75, 1.0)
FIGURE_STEPS = 400


def figure_sweeps(
    a: float = FIGURE_A,
    p1: float = FIGURE_POWER,
    p2: float = FIGURE_POWER,
    b_values: tuple[float, ...] = FIGURE_B_VALUES,
    steps: int = FIGURE_STEPS,
) -> list[tuple[float, list[RatePoint]]]:
    """Weak-interference alpha sweeps for the bundled cross-gain family.

    Defaults reproduce the reference dataset: P1 = P2 = 20, a = 1, and
    b in {0.25, 0.5, 0.75, 1}.
    """
    out = []
    for b in b_values:
        try:
            g = GaussianCRC(a=a, b=b, p1=p1, p2=p2)
        except ChannelError as exc:
            raise GaussError(str(exc)) from exc
        out.append((float(b), sweep_points(g, GaussMode.WEAK, steps)))
    return out


def figure_dataset(
    a: float = FIGURE_A,
    p1: float = FIGURE_POWER,
    p2: float = FIGURE_POWER,
    b_values: tuple[float, ...] = FIGURE_B_VALUES,
    steps: int = FIGURE_STEPS,
) -> list[tuple[float, Region]]:
    """Pareto frontiers of :func:`figure_sweeps` (same parameters)."""
    dims = MODE_DIMS[GaussMode.WEAK]
    return [(b, pareto_filter(points, dims)) for b, points in figure_sweeps(a, p1, p2, b_values, steps)]
