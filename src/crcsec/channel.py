"""Channel models: discrete memoryless two-pair channel and its Gaussian form.

The discrete channel is a stochastic kernel P(y1, y2 | x1, x2) over finite
alphabets; transmitter 1 (whose receiver observes Y1) knows transmitter 2's
message non-causally. The Gaussian form is

    Y1 = X1 + a*X2 + Z1,      Y2 = b*X1 + X2 + Z2,

with unit-variance noise and power limits E[Xi^2] <= Pi; it is stored
symbolically as (a, b, P1, P2) because every Gaussian result used here is
closed-form.

Channel file format (JSON): integer fields "x1", "x2", "y1", "y2" giving
cardinalities (read by :func:`crcsec.prob.read_number`), "kernel" a flat
row-major array indexed (x1, x2, y1, y2), and an optional "name". Indices
are 0-based. Rows P(.,.|x1,x2) must sum to 1 within 1e-9 and are
renormalized exactly on load.
"""

from __future__ import annotations

import json
import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .prob import JointPmf, read_number

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


def detect_semi_deterministic(ch: DiscreteCRC) -> np.ndarray | None:
    """The map (x1, x2) -> y1 as an (|X1|, |X2|) table when P(y1|x1,x2) is
    0/1-valued within ``ROW_SUM_TOL`` (Y2 may be noisy); None otherwise."""
    py1 = ch.y1_marginal()
    near01 = (np.abs(py1) <= ROW_SUM_TOL) | (np.abs(py1 - 1.0) <= ROW_SUM_TOL)
    if not np.all(near01):
        return None
    return py1.argmax(axis=2)


def push_through(ch: DiscreteCRC, axes: Sequence[str], stack: np.ndarray) -> np.ndarray:
    """Push a stack of input distributions through the kernel in one broadcast.

    ``stack`` has shape ``(S, *cards)`` over the named ``axes``, which must
    include X1 and X2 (any extra auxiliary axes are kept); the result has
    shape ``(S, *cards, |Y1|, |Y2|)`` and satisfies
    p(s, ..., x1, x2, y1, y2) = p_in(s, ..., x1, x2) * P(y1, y2 | x1, x2).
    """
    cx1, cx2, cy1, cy2 = ch.cards
    for name, card in (("X1", cx1), ("X2", cx2)):
        if name not in axes:
            raise ChannelError(f"input pmf lacks axis {name!r}")
        got = stack.shape[1 + axes.index(name)]
        if got != card:
            raise ChannelError(f"{name} cardinality {got} does not match channel ({card})")
    if "Y1" in axes or "Y2" in axes:
        raise ChannelError("input pmf already carries output axes")
    i1, i2 = axes.index("X1"), axes.index("X2")
    # Align kernel axes (x1, x2, y1, y2) with positions (i1, i2, -2, -1) of the
    # output layout: a reshape suffices once the x-axes are in ascending order.
    kern = ch.kernel if i1 < i2 else np.swapaxes(ch.kernel, 0, 1)
    shape = [1] * (len(axes) + 3)
    shape[1 + i1], shape[1 + i2], shape[-2], shape[-1] = cx1, cx2, cy1, cy2
    return stack[..., None, None] * kern.reshape(shape)


def induce_joint(ch: DiscreteCRC, inputs: JointPmf) -> JointPmf:
    """:func:`push_through` of one input distribution (the S = 1 stack)."""
    return JointPmf(inputs.axes + ("Y1", "Y2"), push_through(ch, inputs.axes, inputs.probs[None])[0])


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
        cards = tuple(read_number(obj[k], int, k) for k in ("x1", "x2", "y1", "y2"))
        flat = np.asarray(obj["kernel"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ChannelError(f"malformed channel file {path}: {exc}") from exc
    expected = math.prod(cards)  # exact: an int64 product of large cards wraps
    if flat.size != expected:
        raise ChannelError(
            f"kernel length {flat.size} does not match cardinalities {cards} ({expected})"
        )
    return DiscreteCRC(flat.reshape(cards), name=str(obj.get("name", "")))


def read_config(
    path: str | Path, keys: Collection[str], ints: Collection[str] = (), floats: Collection[str] = ()
) -> dict:
    """The JSON object of a config file, or the ``config`` entry of a manifest,
    with a string ``channel`` entry made absolute against the file's directory.
    Every entry must be one of ``keys``; those named in ``ints`` and ``floats``
    are read by :func:`read_number`. ChannelError naming the file otherwise
    (ProbError for a number)."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ChannelError(f"cannot parse config file {path}: {exc}") from exc
    obj = obj.get("config", obj) if isinstance(obj, dict) else obj
    if not isinstance(obj, dict):
        raise ChannelError(f"config file {path} must hold a JSON object")
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise ChannelError(f"config file {path}: unknown keys {', '.join(unknown)}")
    for key, kind in [(k, int) for k in ints] + [(k, float) for k in floats]:
        if key in obj:
            obj[key] = read_number(obj[key], kind, f"config file {path}: {key}")
    if isinstance(obj.get("channel"), str):
        obj["channel"] = str((path.parent / obj["channel"]).resolve())
    return obj


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
