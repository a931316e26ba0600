"""Exact finite-alphabet probability primitives.

Everything downstream (channel push-throughs, rate-region evaluation, the
binning-code simulator) is built on the small toolkit in this module:

- :class:`JointPmf`, a dense probability tensor with named axes.
- Shannon quantities in bits (base-2 logs, ``0*log 0 = 0``), memoized per
  joint by :class:`Informations`.
- Flat-Dirichlet sampling of joint distributions (seeded, deterministic).
- Strong joint typicality of symbol sequences: per-cell absolute deviation
  ``|freq(c) - p(c)| <= eps``, with ``freq(c) = 0`` forced wherever
  ``p(c) = 0``.

All functions are pure and inputs are treated as immutable, so concurrent
use is safe.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "ProbError",
    "ConsistencyError",
    "JointPmf",
    "Informations",
    "entropy",
    "conditional_mutual_information",
    "mutual_information",
    "marginalize",
    "positive_part",
    "sample_joint",
    "is_jointly_typical",
]

# Mass / normalization tolerance for stored tensors.
MASS_TOL = 1e-12
# Mutual informations in [-MI_CLAMP_TOL, 0) are clamped to 0; anything more
# negative indicates a bug and raises ConsistencyError.
MI_CLAMP_TOL = 1e-9


class ProbError(ValueError):
    """Contract violation in a probability primitive."""


class ConsistencyError(ProbError):
    """An internally computed quantity violated a mathematical invariant."""


def positive_part(x: float) -> float:
    """Return ``max(x, 0)``; rejects non-finite input."""
    x = float(x)
    if not np.isfinite(x):
        raise ProbError(f"positive_part requires finite input, got {x!r}")
    return x if x > 0.0 else 0.0


@dataclass(frozen=True)
class JointPmf:
    """A joint probability mass function over named finite variables.

    ``axes`` lists the variable names in tensor-axis order; ``probs`` is a
    dense nonnegative array whose shape gives each variable's cardinality.
    Entries must sum to 1 within ``MASS_TOL``.
    """

    axes: tuple[str, ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        axes = tuple(str(a) for a in self.axes)
        probs = np.asarray(self.probs, dtype=float)
        if len(axes) != probs.ndim:
            raise ProbError(
                f"{len(axes)} axis names for a {probs.ndim}-dim tensor"
            )
        if len(set(axes)) != len(axes):
            raise ProbError(f"duplicate axis names in {axes}")
        if any(s < 1 for s in probs.shape):
            raise ProbError(f"every axis needs cardinality >= 1, got shape {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise ProbError("pmf entries must be finite")
        if np.any(probs < 0.0):
            raise ProbError(f"negative pmf entry: min={probs.min()}")
        total = float(probs.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ProbError(f"pmf entries sum to {total!r}, not 1")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "probs", probs)

    @property
    def cards(self) -> tuple[int, ...]:
        return self.probs.shape

    def card(self, name: str) -> int:
        return self.probs.shape[self.axis_index(name)]

    def axis_index(self, name: str) -> int:
        try:
            return self.axes.index(name)
        except ValueError:
            raise ProbError(f"unknown variable {name!r}; axes are {self.axes}") from None

    def has_axes(self, names: Iterable[str]) -> bool:
        return set(names) <= set(self.axes)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "axes": [[name, int(card)] for name, card in zip(self.axes, self.cards)],
            "probs": [float(v) for v in self.probs.ravel()],
        }

    @staticmethod
    def from_jsonable(obj: Mapping[str, Any]) -> "JointPmf":
        axes = [(str(n), int(c)) for n, c in obj["axes"]]
        shape = tuple(c for _, c in axes)
        probs = np.asarray(obj["probs"], dtype=float).reshape(shape)
        return JointPmf(tuple(n for n, _ in axes), probs)


def _as_name_set(vars_: str | Iterable[str]) -> tuple[str, ...]:
    if isinstance(vars_, str):
        return (vars_,)
    return tuple(vars_)


def marginalize(p: JointPmf, keep: str | Iterable[str]) -> JointPmf:
    """Marginal of ``p`` onto the ``keep`` variables (original axis order)."""
    keep_set = set(_as_name_set(keep))
    for name in keep_set:
        p.axis_index(name)  # raises on unknown
    if not keep_set:
        raise ProbError("must keep at least one variable")
    drop = tuple(i for i, a in enumerate(p.axes) if a not in keep_set)
    probs = p.probs.sum(axis=drop) if drop else p.probs
    axes = tuple(a for a in p.axes if a in keep_set)
    return JointPmf(axes, probs)


def _entropy_of(pmf_tensor: np.ndarray) -> float:
    flat = pmf_tensor.ravel()
    nz = flat[flat > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def entropy(p: JointPmf, vars_: str | Iterable[str]) -> float:
    """Joint Shannon entropy H(vars) in bits."""
    names = _as_name_set(vars_)
    if not names:
        raise ProbError("entropy requires a nonempty variable set")
    return _entropy_of(marginalize(p, names).probs)


class Informations:
    """Memoized Shannon quantities of one joint pmf, in bits.

    Each entropy is computed once per variable set, from the full tensor
    exactly as :func:`entropy` computes it (never from a cached smaller
    marginal), so every value is bit-identical to a one-shot call whatever
    order the queries come in.
    """

    def __init__(self, p: JointPmf) -> None:
        self.p = p
        self._entropies: dict[frozenset[str], float] = {}

    def h(self, vars_: str | Iterable[str]) -> float:
        """H(vars); the empty set has entropy 0."""
        names = _as_name_set(vars_)
        if not names:
            return 0.0
        key = frozenset(names)
        value = self._entropies.get(key)
        if value is None:
            value = self._entropies[key] = entropy(self.p, names)
        return value

    def i(
        self,
        a: str | Iterable[str],
        b: str | Iterable[str],
        c: str | Iterable[str] = (),
    ) -> float:
        """I(A;B|C), computed as H(AC) + H(BC) - H(ABC) - H(C).

        The result is clamped to 0 when it falls in ``[-MI_CLAMP_TOL, 0)``;
        larger negative values raise :class:`ConsistencyError`.
        """
        sa, sb, sc = _as_name_set(a), _as_name_set(b), _as_name_set(c)
        if not sa or not sb:
            raise ProbError("I(A;B|C) requires nonempty A and B")
        for group_x, group_y in ((sa, sb), (sa, sc), (sb, sc)):
            overlap = set(group_x) & set(group_y)
            if overlap:
                raise ProbError(f"variable sets must be disjoint; {sorted(overlap)} repeated")
        value = self.h(sa + sc) + self.h(sb + sc) - self.h(sa + sb + sc) - self.h(sc)
        if value < 0.0:
            if value < -MI_CLAMP_TOL:
                raise ConsistencyError(f"mutual information came out {value} < -{MI_CLAMP_TOL}")
            return 0.0
        return value


def conditional_mutual_information(
    p: JointPmf,
    a: str | Iterable[str],
    b: str | Iterable[str],
    c: str | Iterable[str] = (),
) -> float:
    """I(A;B|C) in bits: a one-shot :meth:`Informations.i`."""
    return Informations(p).i(a, b, c)


def mutual_information(p: JointPmf, a: str | Iterable[str], b: str | Iterable[str]) -> float:
    """I(A;B) in bits."""
    return Informations(p).i(a, b)


def sample_joint(
    axes: Sequence[tuple[str, int]],
    seed: int | np.random.SeedSequence,
) -> JointPmf:
    """Draw a joint pmf uniformly from the simplex (flat Dirichlet).

    Deterministic for a fixed seed; full support almost surely.
    """
    names = tuple(str(n) for n, _ in axes)
    cards = tuple(int(c) for _, c in axes)
    if any(c < 1 for c in cards):
        raise ProbError(f"cardinalities must be >= 1, got {cards}")
    size = int(np.prod(cards))
    rng = np.random.default_rng(seed)
    flat = rng.dirichlet(np.ones(size))
    return JointPmf(names, flat.reshape(cards))


def _coerce_symbols(seq: Any) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ProbError("sequences must be nonempty 1-d integer arrays")
    return arr


def empirical_joint_counts(seqs: Mapping[str, Any], p: JointPmf) -> np.ndarray:
    """Cell counts of the aligned symbol tuples of ``seqs`` over p's axes."""
    arrays = []
    n = None
    for name in p.axes:
        if name not in seqs:
            raise ProbError(f"missing sequence for variable {name!r}")
        arr = _coerce_symbols(seqs[name])
        if n is None:
            n = arr.size
        elif arr.size != n:
            raise ProbError(f"sequence length mismatch: {name!r} has {arr.size}, expected {n}")
        card = p.card(name)
        if np.any(arr < 0) or np.any(arr >= card):
            raise ProbError(f"symbol out of range for {name!r} (cardinality {card})")
        arrays.append(arr)
    flat = np.ravel_multi_index(tuple(arrays), p.cards)
    counts = np.bincount(flat, minlength=int(np.prod(p.cards)))
    return counts.reshape(p.cards)


def is_jointly_typical(seqs: Mapping[str, Any], p: JointPmf, eps: float) -> bool:
    """Strong typicality test of aligned sequences against ``p``.

    True iff every cell satisfies ``|freq(c) - p(c)| <= eps`` and no cell
    with ``p(c) = 0`` occurs. ``eps = 0`` demands the exact empirical
    distribution.
    """
    eps = float(eps)
    if eps < 0.0:
        raise ProbError("eps must be >= 0")
    counts = empirical_joint_counts(seqs, p)
    n = counts.sum()
    freq = counts / n
    if np.any(counts[p.probs == 0.0] > 0):
        return False
    return bool(np.all(np.abs(freq - p.probs) <= eps))
