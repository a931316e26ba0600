"""Channel models: discrete memoryless two-pair channel and its Gaussian form.

The discrete channel is a stochastic kernel P(y1, y2 | x1, x2) over finite
alphabets; transmitter 1 (whose receiver observes Y1) knows transmitter 2's
message non-causally. The Gaussian form is

    Y1 = X1 + a*X2 + Z1,      Y2 = b*X1 + X2 + Z2,

with unit-variance noise and power limits E[Xi^2] <= Pi; it is stored
symbolically as (a, b, P1, P2) because every Gaussian result used here is
closed-form.

Channel file format (JSON): integer fields "x1", "x2", "y1", "y2" giving
cardinalities, "kernel" a flat row-major array indexed (x1, x2, y1, y2),
and an optional "name". Indices are 0-based. Rows P(.,.|x1,x2) must sum to
1 within 1e-9 and are renormalized exactly on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .prob import JointPmf

ROW_SUM_TOL = 1e-9


class ChannelError(ValueError):
    """Invalid channel definition or channel file."""


@dataclass(frozen=True)
class DiscreteCRC:
    """Discrete memoryless channel kernel P(y1, y2 | x1, x2).

    ``kernel`` has shape (|X1|, |X2|, |Y1|, |Y2|); each (x1, x2) slice is a
    probability distribution over (y1, y2).
    """

    kernel: np.ndarray = field(repr=False)
    name: str = ""

    def __post_init__(self) -> None:
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != 4:
            raise ChannelError(f"kernel must be 4-dimensional, got shape {k.shape}")
        if any(s < 1 for s in k.shape):
            raise ChannelError(f"alphabet cardinalities must be >= 1, got {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ChannelError("kernel entries must be finite")
        if np.any(k < 0.0):
            raise ChannelError(f"negative kernel entry: min={k.min()}")
        sums = k.sum(axis=(2, 3))
        bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            x1, x2 = (int(v) for v in bad[0])
            raise ChannelError(
                f"kernel row (x1={x1}, x2={x2}) sums to {sums[x1, x2]!r}, not 1"
            )
        k = k / sums[:, :, None, None]
        k.flags.writeable = False
        object.__setattr__(self, "kernel", k)

    @property
    def cards(self) -> tuple[int, int, int, int]:
        """(|X1|, |X2|, |Y1|, |Y2|)."""
        return self.kernel.shape

    def y1_marginal(self) -> np.ndarray:
        """P(y1 | x1, x2), shape (|X1|, |X2|, |Y1|)."""
        return self.kernel.sum(axis=3)

    def y2_marginal(self) -> np.ndarray:
        """P(y2 | x1, x2), shape (|X1|, |X2|, |Y2|)."""
        return self.kernel.sum(axis=2)


@dataclass(frozen=True)
class GaussianCRC:
    """Scalar Gaussian channel parameters (a, b, P1, P2)."""

    a: float
    b: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        for nm in ("a", "b", "p1", "p2"):
            v = float(getattr(self, nm))
            if not np.isfinite(v):
                raise ChannelError(f"{nm} must be finite, got {v!r}")
            object.__setattr__(self, nm, v)
        if self.p1 <= 0.0 or self.p2 <= 0.0:
            raise ChannelError(f"powers must be positive, got P1={self.p1}, P2={self.p2}")


def detect_semi_deterministic(ch: DiscreteCRC, tol: float = ROW_SUM_TOL) -> np.ndarray | None:
    """The map (x1, x2) -> y1 as an (|X1|, |X2|) table when P(y1|x1,x2) is
    0/1-valued (Y2 may be noisy); None otherwise."""
    py1 = ch.y1_marginal()
    near01 = (np.abs(py1) <= tol) | (np.abs(py1 - 1.0) <= tol)
    if not np.all(near01):
        return None
    return py1.argmax(axis=2)


def induce_joint(ch: DiscreteCRC, inputs: JointPmf) -> JointPmf:
    """Push an input distribution through the kernel.

    ``inputs`` must contain axes X1 and X2 (any extra auxiliary axes are
    kept); the result appends Y1 and Y2 and satisfies
    p(..., x1, x2, y1, y2) = p_in(..., x1, x2) * P(y1, y2 | x1, x2).
    """
    cx1, cx2, _, _ = ch.cards
    for name, card in (("X1", cx1), ("X2", cx2)):
        if not inputs.has_axes([name]):
            raise ChannelError(f"input pmf lacks axis {name!r}")
        if inputs.card(name) != card:
            raise ChannelError(
                f"{name} cardinality {inputs.card(name)} does not match channel ({card})"
            )
    if inputs.has_axes(["Y1"]) or inputs.has_axes(["Y2"]):
        raise ChannelError("input pmf already carries output axes")
    i1, i2 = inputs.axis_index("X1"), inputs.axis_index("X2")
    in_nd = inputs.probs.ndim
    # Align kernel axes (x1, x2, y1, y2) with positions (i1, i2, -2, -1) of the
    # output layout: a reshape suffices once the x-axes are in ascending order.
    kern = ch.kernel if i1 < i2 else np.swapaxes(ch.kernel, 0, 1)
    shape = [1] * (in_nd + 2)
    shape[i1], shape[i2] = cx1, cx2
    shape[in_nd], shape[in_nd + 1] = ch.cards[2], ch.cards[3]
    out = inputs.probs[..., None, None] * kern.reshape(shape)
    return JointPmf(inputs.axes + ("Y1", "Y2"), out)


def load_channel(path: str | Path) -> DiscreteCRC:
    """Load and validate a channel from the JSON file format."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise ChannelError(f"cannot parse channel file {path}: {exc}") from exc
    try:
        cards = tuple(int(obj[k]) for k in ("x1", "x2", "y1", "y2"))
        flat = np.asarray(obj["kernel"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ChannelError(f"malformed channel file {path}: {exc}") from exc
    expected = int(np.prod(cards))
    if flat.size != expected:
        raise ChannelError(
            f"kernel length {flat.size} does not match cardinalities {cards} ({expected})"
        )
    return DiscreteCRC(flat.reshape(cards), name=str(obj.get("name", "")))


def write_channel(ch: DiscreteCRC, path: str | Path) -> None:
    """Write a channel in the JSON file format (round-trips bit-exactly)."""
    obj = {
        "x1": ch.cards[0],
        "x2": ch.cards[1],
        "y1": ch.cards[2],
        "y2": ch.cards[3],
        "kernel": [float(v) for v in ch.kernel.ravel()],
    }
    if ch.name:
        obj["name"] = ch.name
    Path(path).write_text(json.dumps(obj, indent=1))


def orthogonal_channel() -> DiscreteCRC:
    """Binary noiseless parallel links: Y1 = X1, Y2 = X2."""
    k = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            k[x1, x2, x1, x2] = 1.0
    return DiscreteCRC(k, name="orthogonal")


def xor_channel() -> DiscreteCRC:
    """Binary channel with identical outputs: Y1 = Y2 = X1 xor X2."""
    k = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            y = x1 ^ x2
            k[x1, x2, y, y] = 1.0
    return DiscreteCRC(k, name="xor-identical")


def erasure_cascade_channel(delta: float = 0.3) -> DiscreteCRC:
    """Y1 = X1 noiselessly; Y2 is Y1 through a symbol erasure (index 2).

    Y2 is a degraded version of Y1, so the receiver-1-less-noisy ordering
    holds for every input distribution.
    """
    if not 0.0 <= delta <= 1.0:
        raise ChannelError("erasure probability must be in [0, 1]")
    k = np.zeros((2, 2, 2, 3))
    for x1 in range(2):
        for x2 in range(2):
            k[x1, x2, x1, x1] = 1.0 - delta
            k[x1, x2, x1, 2] = delta
    return DiscreteCRC(k, name="erasure-cascade")
