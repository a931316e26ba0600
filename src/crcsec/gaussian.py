"""Closed-form rate regions for the scalar Gaussian channel.

All results are unions over a power-split parameter alpha in [0, 1] of
boxes with one shared corner (dirty-paper precoding), built from

    psi(x) = 0.5 * log2(1 + x)      (capacity of SNR x, in bits),

so evaluation is exact up to floating point; no numerical maximization is
involved. At power split alpha the corner is

    R1  <= psi(a*P1),
    R2  <= psi(((1-a)b^2 P1 + P2 + 2|b|sqrt((1-a)P1P2)) / (a b^2 P1 + 1)),
    Re1 <= [psi(a*P1) - psi(a b^2 P1)]_+ .

``FAMILIES`` holds the three families, each with its region's coordinates
and the gains it needs:

- ``weak``     (|b| <= 1, secrecy tracked for the cognitive message only):
               the corner as it stands.
- ``degraded`` (a*b = 1 and |b| <= 1 < |a|): the same corner, with the
               primary message's equivocation pinned to zero.
- ``secrecy``  (any b, cognitive message sent with perfect secrecy):
               the Re1 bound is the R1 bound; for |b| >= 1 the positive part
               forces R1 = 0 for every alpha.

The corner does not depend on the cross gain ``a``: the known interference
toward receiver 1 is precoded away.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from .channel import GaussianCRC
from .region import RatePoint, Region, pareto_filter

HYPOTHESIS_TOL = 1e-9


class GaussError(ValueError):
    """Hypothesis or parameter violation in a Gaussian region evaluation."""


class GaussMode(str, Enum):
    """Which closed-form family to evaluate."""

    WEAK = "weak"
    DEGRADED = "degraded"
    SECRECY = "secrecy"


class Family(NamedTuple):
    """One closed-form family: its region's coordinates and the gains it needs."""

    dims: tuple[str, ...]
    hypothesis: str
    holds: Callable[[GaussianCRC], bool]


FAMILIES: dict[GaussMode, Family] = {
    GaussMode.WEAK: Family(
        ("r1", "r2", "re1"), "|b| <= 1", lambda g: abs(g.b) <= 1.0 + HYPOTHESIS_TOL
    ),
    GaussMode.DEGRADED: Family(
        ("r1", "r2", "re1", "re2"),
        "a*b = 1 and |b| <= 1 < |a|",
        lambda g: abs(g.a * g.b - 1.0) <= HYPOTHESIS_TOL
        and abs(g.b) <= 1.0 + HYPOTHESIS_TOL < abs(g.a),
    ),
    GaussMode.SECRECY: Family(("r1", "r2"), "any gains", lambda g: True),
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


def _require(g: GaussianCRC, mode: GaussMode) -> None:
    family = FAMILIES[mode]
    if not family.holds(g):
        raise GaussError(f"{mode.value} family needs {family.hypothesis}, got a={g.a}, b={g.b}")


def _corner(g: GaussianCRC, mode: GaussMode, alpha: float) -> RatePoint:
    b2 = g.b * g.b
    r1 = psi(alpha * g.p1)
    num = (1.0 - alpha) * b2 * g.p1 + g.p2 + 2.0 * abs(g.b) * math.sqrt(
        (1.0 - alpha) * g.p1 * g.p2
    )
    r2 = psi(num / (alpha * b2 * g.p1 + 1.0))
    re1 = r1 - psi(alpha * b2 * g.p1)
    re1 = re1 if re1 > 0.0 else 0.0
    if mode is GaussMode.SECRECY:
        return RatePoint(re1, r2, meta={"alpha": alpha})
    return RatePoint(r1, r2, re1, meta={"alpha": alpha})


def corner(g: GaussianCRC, mode: GaussMode, alpha: float) -> RatePoint:
    """The family's box corner at power split ``alpha``, annotated with alpha."""
    _require(g, mode)
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise GaussError(f"alpha must be in [0, 1], got {alpha}")
    return _corner(g, mode, alpha)


def sweep_points(g: GaussianCRC, mode: GaussMode, steps: int) -> list[RatePoint]:
    """Corners on the uniform alpha grid {0, 1/steps, ..., 1}."""
    if steps < 1:
        raise GaussError("steps must be >= 1")
    _require(g, mode)
    return [_corner(g, mode, i / steps) for i in range(steps + 1)]


class SecrecyClass(str, Enum):
    """Structural classification of a Gaussian channel's secrecy options."""

    NO_SECRECY_FOR_M1 = "no-secrecy-for-m1"
    LESS_NOISY_NO_SECRECY_FOR_M2 = "less-noisy-no-secrecy-for-m2"
    UNCLASSIFIED = "unclassified"


def classify_gaussian(g: GaussianCRC) -> SecrecyClass:
    """Secrecy-impossibility classification from the gains alone.

    |b| >= 1 lets receiver 2 decode anything receiver 1 can, so message 1
    cannot be secured. Where the degraded family's hypothesis holds (a*b = 1
    with |b| <= 1 < |a|), receiver 2 is a degraded (noisier) observer of
    receiver 1's signal and message 2 cannot be secured. The first test
    takes precedence when both hold.
    """
    if abs(g.b) >= 1.0:
        return SecrecyClass.NO_SECRECY_FOR_M1
    if FAMILIES[GaussMode.DEGRADED].holds(g):
        return SecrecyClass.LESS_NOISY_NO_SECRECY_FOR_M2
    return SecrecyClass.UNCLASSIFIED


FIGURE_A = 1.0
FIGURE_POWER = 20.0
FIGURE_B_VALUES = (0.25, 0.5, 0.75, 1.0)
FIGURE_STEPS = 400


def figure_sweeps() -> list[tuple[float, list[RatePoint]]]:
    """Weak-interference alpha sweeps of the reference figure.

    P1 = P2 = FIGURE_POWER, a = FIGURE_A, b over FIGURE_B_VALUES and
    FIGURE_STEPS steps of alpha.
    """
    sweeps = []
    for b in FIGURE_B_VALUES:
        g = GaussianCRC(a=FIGURE_A, b=b, p1=FIGURE_POWER, p2=FIGURE_POWER)
        sweeps.append((b, sweep_points(g, GaussMode.WEAK, FIGURE_STEPS)))
    return sweeps


def figure_dataset() -> list[tuple[float, Region]]:
    """Pareto frontiers of :func:`figure_sweeps`."""
    dims = FAMILIES[GaussMode.WEAK].dims
    return [(b, pareto_filter(points, dims)) for b, points in figure_sweeps()]
