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

One array kernel, :func:`corners`, evaluates the corners of an alpha array
elementwise in the order of the formulas above, each log2 by ``math.log2``,
so every row equals the corner computed in Python floats bit for bit.
:func:`corner` is its one-row call, a rate point; :func:`sweep` gives the
uniform grid and its rows as arrays (what ``crcsec gauss`` and ``figure2``
write), and :func:`figure_dataset` the reference figure's frontiers as
array regions.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .channel import GaussianCRC
from .region import RatePoint, Region, frontier_rows

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


def psi(x):
    """0.5 * log2(1 + x) for x >= 0: a float for a number, an array of the
    same shape for an array.

    Each log2 is ``math.log2`` (``np.log2`` differs in the last bit on about
    one value in 3 000), so an array entry equals psi of that number. The
    error names the first entry, in C order, that is not finite and >= 0.
    """
    arr = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(arr) & (arr >= 0.0))
    if bad.any():
        raise GaussError(f"psi requires finite x >= 0, got {float(arr[bad].flat[0])!r}")
    if arr.ndim == 0:
        return 0.5 * math.log2(1.0 + float(arr))
    return 0.5 * np.array([math.log2(v) for v in (1.0 + arr).ravel().tolist()]).reshape(arr.shape)


def _require(g: GaussianCRC, mode: GaussMode) -> None:
    family = FAMILIES[mode]
    if not family.holds(g):
        raise GaussError(f"{mode.value} family needs {family.hypothesis}, got a={g.a}, b={g.b}")


def corners(g: GaussianCRC, mode: GaussMode, alpha) -> np.ndarray:
    """The family's box corners at the power splits ``alpha`` (a 1-D array):
    one row per split, in the family's ``dims`` order.

    The arithmetic is elementwise, in the order of the formulas above, so
    every row equals the corner computed with Python floats. psi's three
    arguments are checked together, split by split, so an overflow names the
    first one a split-by-split evaluation meets.
    """
    _require(g, mode)
    alpha = np.asarray(alpha, dtype=float)
    outside = ~((alpha >= 0.0) & (alpha <= 1.0))
    if outside.any():
        raise GaussError(f"alpha must be in [0, 1], got {float(alpha[outside][0])}")
    b2 = g.b * g.b
    with np.errstate(over="ignore", invalid="ignore"):  # psi reports inf and nan
        num = (1.0 - alpha) * b2 * g.p1 + g.p2 + 2.0 * abs(g.b) * np.sqrt((1.0 - alpha) * g.p1 * g.p2)
        args = np.stack([alpha * g.p1, num / (alpha * b2 * g.p1 + 1.0), alpha * b2 * g.p1], axis=1)
    r1, r2, eve = psi(args).T
    re1 = r1 - eve
    re1 = np.where(re1 > 0.0, re1, 0.0)
    cols = {"r1": re1 if mode is GaussMode.SECRECY else r1, "r2": r2, "re1": re1, "re2": np.zeros_like(r1)}
    return np.stack([cols[d] for d in FAMILIES[mode].dims], axis=1)


def corner(g: GaussianCRC, mode: GaussMode, alpha: float) -> RatePoint:
    """The family's box corner at power split ``alpha``, annotated with alpha."""
    alpha = float(alpha)
    return Region(FAMILIES[mode].dims, corners(g, mode, np.array([alpha])), [{"alpha": alpha}]).frontier[0]


def sweep(g: GaussianCRC, mode: GaussMode, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform alpha grid {0, 1/steps, ..., 1} (entry i is i / steps) and
    its corner rows, checked and clipped as :class:`Region` checks its rows."""
    if steps < 1:
        raise GaussError("steps must be >= 1")
    alpha = np.arange(steps + 1) / steps
    return alpha, Region(FAMILIES[mode].dims, corners(g, mode, alpha)).rows


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


def figure_sweeps() -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Weak-interference alpha sweeps of the reference figure, as
    ``(b, alpha, rows)`` from :func:`sweep`.

    P1 = P2 = FIGURE_POWER, a = FIGURE_A, b over FIGURE_B_VALUES and
    FIGURE_STEPS steps of alpha.
    """
    power = FIGURE_POWER
    return [(b, *sweep(GaussianCRC(a=FIGURE_A, b=b, p1=power, p2=power), GaussMode.WEAK, FIGURE_STEPS))
            for b in FIGURE_B_VALUES]


def figure_dataset() -> list[tuple[float, Region]]:
    """Pareto frontiers of :func:`figure_sweeps`, each row annotated with its alpha."""
    dims, data = FAMILIES[GaussMode.WEAK].dims, []
    for b, alpha, rows in figure_sweeps():
        keep = frontier_rows(rows)
        data.append((b, Region(dims, rows[keep], [{"alpha": a} for a in alpha[keep].tolist()])))
    return data
