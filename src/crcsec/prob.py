"""Exact finite-alphabet probability primitives.

Everything downstream (channel push-throughs, rate-region evaluation, the
binning-code simulator) is built on the small toolkit in this module:

- :class:`JointPmf`, a dense probability tensor with named axes.
- Shannon quantities in bits (base-2 logs, ``0*log 0 = 0``), one-shot
  (:func:`entropy`) or memoized over a stack of S joints of one shape by
  :class:`Informations`, which sums each marginal of its axis-last stack
  in numpy's own order, so its length-S arrays equal the one-shot values
  bit for bit (a numpy that changes that order fails the parity test, not
  the outputs silently); one joint is the S = 1 stack.
- Flat-Dirichlet sampling of joint distributions (seeded, deterministic).
- Strong joint typicality, one kernel over stacks of words:
  :func:`typical_mask` takes integer arrays of shape ``(..., n)`` per
  variable (leading shapes broadcast), counts every word's cells with one
  joint-index ``bincount`` and tests ``|freq(c) - p(c)| <= eps`` per cell,
  with ``freq(c) = 0`` forced wherever ``p(c) = 0``.

All functions are pure and inputs are treated as immutable, so concurrent
use is safe.
"""

from __future__ import annotations

import functools
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
    "typical_mask",
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


def _sum_onto(axes: tuple[str, ...], probs: np.ndarray, keep: str | Iterable[str]):
    """Kept axes and ``probs`` (over ``axes``) summed onto ``keep``."""
    keep_set = set(_as_name_set(keep))
    unknown = keep_set - set(axes)
    if unknown:
        raise ProbError(f"unknown variable {sorted(unknown)[0]!r}; axes are {axes}")
    if not keep_set:
        raise ProbError("must keep at least one variable")
    drop = tuple(i for i, a in enumerate(axes) if a not in keep_set)
    return tuple(a for a in axes if a in keep_set), probs.sum(axis=drop) if drop else probs


def marginalize(p: JointPmf, keep: str | Iterable[str]) -> JointPmf:
    """Marginal of ``p`` onto the ``keep`` variables (original axis order)."""
    return JointPmf(*_sum_onto(p.axes, p.probs, keep))


def _entropy_of(pmf_tensor: np.ndarray) -> float:
    flat = pmf_tensor.ravel()
    nz = flat[flat > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def _row_entropies(flat: np.ndarray) -> np.ndarray:
    """:func:`_entropy_of` of every row of a 2-D array, bit for bit: rows sharing a
    support form one C-contiguous ``(rows, nnz)`` block, whose ``sum(axis=1)``
    adds each row in the 1-D sum's order (a strided block would not)."""
    out = np.empty(len(flat))
    support = flat > 0.0
    groups: dict[bytes, list[int]] = {}
    for r, key in enumerate(np.packbits(support, axis=1)):
        groups.setdefault(key.tobytes(), []).append(r)
    for rows in groups.values():
        block = np.ascontiguousarray(flat[rows][:, support[rows[0]]])
        out[rows] = -(block * np.log2(block)).sum(axis=1)
    return out


def _pairwise(a: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of a ``(..., n, S)`` array over axis -2, for each
    of the S columns: sequential below 8 terms, eight strided accumulators
    combined as a tree up to 128, halves (a multiple of 8 first) above."""
    n = a.shape[-2]
    if n < 8:
        return a.sum(axis=-2)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(a[..., :half, :]) + _pairwise(a[..., half:, :])
    m = n - n % 8
    r = a[..., :m, :].reshape(a.shape[:-2] + (m // 8, 8, a.shape[-1])).sum(axis=-3)
    r = r[..., 0::2, :] + r[..., 1::2, :]
    r = r[..., 0::2, :] + r[..., 1::2, :]
    r = r[..., 0, :] + r[..., 1, :]
    for i in range(m, n):
        r += a[..., i, :]
    return r


@functools.lru_cache(maxsize=1024)
def _sum_plan(cards: tuple[int, ...], drop: tuple[int, ...]):
    """:func:`_stacked_sum`'s shapes: the non-unit axes before the trailing run of
    dropped ones, that run's length, the dropped axes among them, the kept cards."""
    axes = [(card, i in drop) for i, card in enumerate(cards) if card > 1]
    run = 1
    while axes and axes[-1][1]:
        run *= axes.pop()[0]
    outer = tuple(i for i, (_, dropped) in enumerate(axes) if dropped)
    kept = tuple(card for i, card in enumerate(cards) if i not in drop)
    return tuple(card for card, _ in axes), run, outer, kept


def _stacked_sum(last: np.ndarray, drop: tuple[int, ...]) -> np.ndarray:
    """``(*kept, S)``: column s is ``row.sum(axis=drop)`` bit for bit, ``row`` the
    C-contiguous ``last[..., s]``, for S >= 2. That sum ignores unit axes, adds the
    trailing run of dropped axes pairwise and the other dropped axes one after
    another in C order. The kernel takes the same steps on length-S vectors: numpy
    sums along any axis but the last (here the stack axis) term by term, in order."""
    shape, run, outer, kept = _sum_plan(last.shape[:-1], drop)
    s = last.shape[-1]
    x = _pairwise(last.reshape(shape + (run, s))) if run > 1 else last.reshape(shape + (s,))
    return (x.sum(axis=outer) if outer else x).reshape(kept + (s,))


def entropy(p: JointPmf, vars_: str | Iterable[str]) -> float:
    """Joint Shannon entropy H(vars) in bits (the marginal is not re-validated)."""
    names = _as_name_set(vars_)
    if not names:
        raise ProbError("entropy requires a nonempty variable set")
    return _entropy_of(_sum_onto(p.axes, p.probs, names)[1])


class Informations:
    """Memoized Shannon quantities of a stack of joint pmfs, in bits.

    ``Informations(axes, stack)`` holds S joints over ``axes``, given as one
    ``(S, *cards)`` array, ``Informations(p)`` the S = 1 stack of ``p``;
    :meth:`h` and :meth:`i` return length-S arrays. The stack is copied once
    with the stack axis last (``self.stack`` is an ``(S, *cards)`` view), and
    each entropy is summed once per variable set from the full tensors (never
    from a cached smaller marginal) in numpy's summation order of one row,
    by :func:`_stacked_sum` (one row: as :func:`entropy` sums it). So each
    row equals a one-shot :func:`entropy` of that row bit for bit, whatever
    the query order and the other rows.
    """

    def __init__(self, p: JointPmf | Sequence[str], stack: np.ndarray | None = None) -> None:
        if stack is None:
            p, stack = p.axes, p.probs[None]
        self.axes, self._last = tuple(p), np.ascontiguousarray(np.moveaxis(stack, 0, -1))
        self.stack = np.moveaxis(self._last, -1, 0)
        self._entropies: dict[frozenset[str], np.ndarray] = {}

    def h(self, vars_: str | Iterable[str]) -> np.ndarray:
        """H(vars) per row; the empty set has entropy 0."""
        names = _as_name_set(vars_)
        if not names:
            return np.zeros(len(self.stack))
        key = frozenset(names)
        value = self._entropies.get(key)
        if value is None:
            if not key <= set(self.axes):
                raise ProbError(f"unknown variable {sorted(key - set(self.axes))[0]!r}; axes are {self.axes}")
            drop = tuple(i for i, a in enumerate(self.axes) if a not in key)
            if len(self.stack) == 1:
                value = np.array([_entropy_of(self.stack[0].sum(axis=drop))])
            else:
                marginal = _stacked_sum(self._last, drop).reshape(-1, len(self.stack))
                value = _row_entropies(np.ascontiguousarray(marginal.T))
            value.flags.writeable = False
            self._entropies[key] = value
        return value

    def i(
        self,
        a: str | Iterable[str],
        b: str | Iterable[str],
        c: str | Iterable[str] = (),
    ) -> np.ndarray:
        """I(A;B|C) per row, computed as H(AC) + H(BC) - H(ABC) - H(C).

        Values in ``[-MI_CLAMP_TOL, 0)`` are clamped to 0; a more negative
        value in any row raises :class:`ConsistencyError`.
        """
        sa, sb, sc = _as_name_set(a), _as_name_set(b), _as_name_set(c)
        if not sa or not sb:
            raise ProbError("I(A;B|C) requires nonempty A and B")
        for group_x, group_y in ((sa, sb), (sa, sc), (sb, sc)):
            overlap = set(group_x) & set(group_y)
            if overlap:
                raise ProbError(f"variable sets must be disjoint; {sorted(overlap)} repeated")
        value = self.h(sa + sc) + self.h(sb + sc) - self.h(sa + sb + sc) - self.h(sc)
        if np.any(value < -MI_CLAMP_TOL):
            raise ConsistencyError(f"mutual information came out {value.min()} < -{MI_CLAMP_TOL}")
        return np.where(value < 0.0, 0.0, value)


def conditional_mutual_information(
    p: JointPmf,
    a: str | Iterable[str],
    b: str | Iterable[str],
    c: str | Iterable[str] = (),
) -> float:
    """I(A;B|C) in bits: :meth:`Informations.i` of the S = 1 stack."""
    return float(Informations(p).i(a, b, c)[0])


def mutual_information(p: JointPmf, a: str | Iterable[str], b: str | Iterable[str]) -> float:
    """I(A;B) in bits."""
    return float(Informations(p).i(a, b)[0])


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


# Cap on the (words x cells) count block of one typical_mask pass, so the
# kernel's extra memory beyond the (words, n) index array stays constant.
_COUNT_BLOCK = 1 << 16


def typical_mask(words: Mapping[str, Any], p: JointPmf, eps: float) -> np.ndarray:
    """Strong typicality test of stacked aligned words against ``p``.

    ``words`` maps every axis of ``p`` to an integer array of shape
    ``(..., n)``; the leading shapes broadcast. Returns a boolean array of
    the broadcast leading shape, True where every cell satisfies
    ``|freq(c) - p(c)| <= eps`` and no cell with ``p(c) = 0`` occurs.
    ``eps = 0`` demands the exact empirical distribution.
    """
    eps = float(eps)
    if eps < 0.0:
        raise ProbError("eps must be >= 0")
    flat = None
    for name in p.axes:
        if name not in words:
            raise ProbError(f"missing sequence for variable {name!r}")
        arr = np.asarray(words[name], dtype=np.int64)
        if arr.ndim == 0 or arr.shape[-1] == 0:
            raise ProbError("words must be nonempty integer arrays of shape (..., n)")
        if flat is not None and arr.shape[-1] != flat.shape[-1]:
            raise ProbError(
                f"sequence length mismatch: {name!r} has {arr.shape[-1]}, expected {flat.shape[-1]}"
            )
        card = p.card(name)
        if np.any(arr < 0) or np.any(arr >= card):
            raise ProbError(f"symbol out of range for {name!r} (cardinality {card})")
        flat = arr if flat is None else flat * card + arr  # joint cell index; broadcasts
    lead, n = flat.shape[:-1], flat.shape[-1]
    flat = flat.reshape(-1, n)
    cells = p.probs.ravel()
    out = np.empty(flat.shape[0], dtype=bool)
    step = max(1, _COUNT_BLOCK // cells.size)
    for start in range(0, flat.shape[0], step):
        block = flat[start : start + step]
        offsets = np.arange(block.shape[0])[:, None] * cells.size
        counts = np.bincount((block + offsets).ravel(), minlength=block.shape[0] * cells.size)
        counts = counts.reshape(-1, cells.size)
        ok = (np.abs(counts / n - cells) <= eps) & ((cells > 0.0) | (counts == 0))
        out[start : start + step] = ok.all(axis=1)
    return out.reshape(lead)
