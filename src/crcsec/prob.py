"""Exact finite-alphabet probability primitives.

Everything downstream (channel push-throughs, rate-region evaluation, the
binning-code simulator) is built on the small toolkit in this module:

- :class:`JointPmf`, a dense probability tensor with named axes.
- Shannon quantities in bits (base-2 logs, ``0*log 0 = 0``), one-shot
  (:func:`entropy`) or memoized over a stack of S joints of one shape by
  :class:`Informations`, which sums each marginal of its axis-last stack
  in numpy's own order and the entropy terms of the rows with k nonzero
  cells as one contiguous block per count k, so its length-S arrays equal
  the one-shot values bit for bit (a numpy that changes that order fails
  the parity test, not the outputs silently); one joint is the S = 1 stack.
- :func:`relabel`, one ``bincount`` that moves each cell of a stack of joints
  to the cell that deterministic maps of its coordinates name.
- Seeded flat-Dirichlet sampling of joint distributions:
  :func:`dirichlet_block` draws rows ``first, first + 1, ...`` of
  ``default_rng(SeedSequence((seed, i))).dirichlet(ones)`` bit for bit, with
  the SeedSequence states of all rows from one array pass of numpy's
  stream-stable hash, one PCG64 fill of standard exponentials per row, and
  ``dirichlet``'s scaling by the reciprocal of each row's sequential sum;
  :func:`sample_joint` is one draw from any seed. ``numpy.random`` is
  imported on first use.
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
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import suppress
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
    "read_number",
    "relabel",
    "dirichlet_block",
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


def read_number(value: Any, kind: type, name: str) -> Any:
    """``value`` as a ``float`` (a number or a numeric string) or as an ``int``
    (an int, an integral number such as 1e4, or an integer string), never from a
    boolean; ProbError naming ``name`` otherwise."""
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not fractional:
        with suppress(TypeError, ValueError):
            return kind(value)
    raise ProbError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


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
        axes = [(str(n), read_number(c, int, f"card of {n}")) for n, c in obj["axes"]]
        shape = tuple(c for _, c in axes)
        probs = np.asarray(obj["probs"], dtype=float).reshape(shape)
        return JointPmf(tuple(n for n, _ in axes), probs)


def _as_name_set(vars_: str | Iterable[str]) -> tuple[str, ...]:
    if isinstance(vars_, str):
        return (vars_,)
    return tuple(vars_)


def _dropped(axes: tuple[str, ...], keep: str | Iterable[str]) -> tuple[int, ...]:
    """Indices of the ``axes`` outside ``keep``, a nonempty set of them."""
    keep = set(_as_name_set(keep))
    if not keep <= set(axes):
        raise ProbError(f"unknown variable {sorted(keep - set(axes))[0]!r}; axes are {axes}")
    if not keep:
        raise ProbError("must keep at least one variable")
    return tuple(i for i, a in enumerate(axes) if a not in keep)


def marginalize(p: JointPmf, keep: str | Iterable[str]) -> JointPmf:
    """Marginal of ``p`` onto the ``keep`` variables (original axis order)."""
    drop = _dropped(p.axes, keep)
    return JointPmf(tuple(a for i, a in enumerate(p.axes) if i not in drop), p.probs.sum(axis=drop))


def relabel(
    axes: Sequence[str],
    stack: np.ndarray,
    out_axes: Sequence[tuple[str, int]],
    maps: Mapping[str, Callable[[dict[str, np.ndarray]], Any]],
) -> np.ndarray:
    """A ``(S, *cards)`` stack of joints over ``axes`` moved onto ``out_axes``,
    ``(name, card)`` pairs: an ``(S, *out cards)`` stack.

    Each source cell lands on the cell whose coordinate on an output axis is
    ``maps[name](coords)`` modulo its card, ``coords`` mapping each source axis
    to the coordinates of all source cells in C order; an axis with no map takes
    the same-named source coordinate, or 0 if there is none. A map may give one
    row per stack row; the stack's rows and the maps' broadcast. Cells that land
    together add in source-cell order, with one ``bincount``.
    """
    cards = stack.shape[1:]
    if len(axes) != len(cards):
        raise ProbError(f"{len(axes)} axis names for a stack of {len(cards)}-dim joints")
    coords = dict(zip(axes, np.indices(cards).reshape(len(cards), -1)))
    cell = 0
    for name, card in out_axes:
        cell = cell * card + (maps[name](coords) if name in maps else coords.get(name, 0)) % card
    cell, weights = np.broadcast_arrays(np.atleast_2d(cell), stack.reshape(len(stack), -1))
    size = int(np.prod([card for _, card in out_axes]))
    cell = cell + np.arange(len(cell))[:, None] * size
    out = np.bincount(cell.ravel(), weights=weights.ravel(), minlength=len(cell) * size)
    return out.reshape((len(cell),) + tuple(card for _, card in out_axes))


def _entropy_of(pmf_tensor: np.ndarray) -> float:
    flat = pmf_tensor.ravel()
    nz = flat[flat > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def _row_entropies(flat: np.ndarray) -> np.ndarray:
    """:func:`_entropy_of` of every row of a 2-D array of any strides, bit for bit:
    the rows with k nonzero cells gather them in order into one C-contiguous
    ``(rows, k)`` block, whose ``sum(axis=1)`` adds each row as the 1-D sum does."""
    out = np.empty(len(flat))
    support = flat > 0.0
    nnz = support.sum(axis=1)
    for k in set(nnz.tolist()):
        rows = nnz == k
        block = flat[support & rows[:, None]].reshape(np.count_nonzero(rows), k)
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
    C-contiguous ``last[..., s]``. That sum ignores unit axes, adds the
    trailing run of dropped axes pairwise and the other dropped axes one after
    another in C order. The kernel takes the same steps on length-S vectors: numpy
    sums along any axis but the last (here the stack axis) term by term, in order."""
    shape, run, outer, kept = _sum_plan(last.shape[:-1], drop)
    s = last.shape[-1]
    x = _pairwise(last.reshape(shape + (run, s))) if run > 1 else last.reshape(shape + (s,))
    return (x.sum(axis=outer) if outer else x).reshape(kept + (s,))


def entropy(p: JointPmf, vars_: str | Iterable[str]) -> float:
    """Joint Shannon entropy H(vars) in bits (the marginal is not re-validated)."""
    return _entropy_of(p.probs.sum(axis=_dropped(p.axes, vars_)))


class Informations:
    """Memoized Shannon quantities of a stack of joint pmfs, in bits.

    ``Informations(axes, stack)`` holds S joints over ``axes``, given as one
    ``(S, *cards)`` array, ``Informations(p)`` the S = 1 stack of ``p``;
    :meth:`h` and :meth:`i` return length-S arrays. The stack is copied once
    with the stack axis last, and each entropy is summed once per variable
    set from the full tensors (never from a cached smaller marginal) in
    numpy's summation order of one row, by :func:`_stacked_sum` at any stack
    height, then taken by :func:`_row_entropies`. So each row equals a
    one-shot :func:`entropy` of that row bit for bit, whatever the query
    order and the other rows.
    """

    def __init__(self, p: JointPmf | Sequence[str], stack: np.ndarray | None = None) -> None:
        if stack is None:
            p, stack = p.axes, p.probs[None]
        self.axes, self._last = tuple(p), np.ascontiguousarray(np.moveaxis(stack, 0, -1))
        self._entropies: dict[frozenset[str], np.ndarray] = {}

    def h(self, vars_: str | Iterable[str]) -> np.ndarray:
        """H(vars) per row; the empty set has entropy 0."""
        names = _as_name_set(vars_)
        if not names:
            return np.zeros(self._last.shape[-1])
        key = frozenset(names)
        value = self._entropies.get(key)
        if value is None:
            marginal = _stacked_sum(self._last, _dropped(self.axes, key)).reshape(-1, self._last.shape[-1])
            value = _row_entropies(marginal.T)
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


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx, stream-stable
# since 1.17): a pool of four uint32 words, hash multipliers that advance
# with every call whatever the data, and 16-bit xorshifts.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4


def _words(n: int) -> list[int]:
    """The uint32 words of an int >= 0 as SeedSequence reads it: least
    significant first, ``[0]`` for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pool_states(entropy: list[np.ndarray]) -> np.ndarray:
    """``(n, 4)`` uint64: row k is ``generate_state(4, np.uint64)`` of the
    SeedSequence whose entropy words are ``[w[k] for w in entropy]``, each
    ``w`` a length-n uint32 array (one column of the rows' entropy)."""
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ value >> np.uint32(16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for i in range(2 * _POOL_WORDS):  # 8 uint32 words, little-endian pairs of 4 uint64
        value = pool[i % _POOL_WORDS] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ value >> np.uint32(16)).astype(np.uint64))
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(state[0::2], state[1::2])], axis=1)


def _seed_states(seed: int, first: int, rows: int) -> np.ndarray:
    """``(rows, 4)`` uint64: row k is
    ``SeedSequence((seed, first + k)).generate_state(4, np.uint64)``, the
    state ``default_rng`` seeds its PCG64 with. Indices below 2**64."""
    index = int(first) + np.arange(rows, dtype=np.uint64)
    out = np.empty((rows, 4), dtype=np.uint64)
    for part, width in ((index <= _MASK32, 1), (index > _MASK32, 2)):  # an index's word count
        if part.any():
            words = [np.full(np.count_nonzero(part), w, dtype=np.uint32) for w in _words(int(seed))]
            words += [(index[part] >> np.uint64(32 * w) & np.uint64(_MASK32)).astype(np.uint32) for w in range(width)]
            out[part] = _pool_states(words)
    return out


@functools.cache
def _generator_factory() -> Callable[[np.ndarray], Any]:
    """``state -> Generator(PCG64(...))`` seeded with a given
    ``generate_state(4, np.uint64)`` output. Built on first use, so importing
    this module does not import ``numpy.random``."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
            return self.state

    return lambda state: Generator(PCG64(FixedState(state)))


def _normalized(draws: np.ndarray) -> np.ndarray:
    """``Generator.dirichlet``'s all-ones step, in place: each row of
    standard exponentials times the reciprocal of its sequential sum."""
    draws *= 1.0 / np.add.accumulate(draws, axis=-1)[..., -1:]
    return draws


def dirichlet_block(seed: int, first: int, rows: int, size: int) -> np.ndarray:
    """``(rows, size)``: row k is the flat-Dirichlet draw of
    ``default_rng(SeedSequence((seed, first + k))).dirichlet(np.ones(size))``,
    bit for bit. All rows' seed states come from one array pass of
    SeedSequence's hash; each row's PCG64 then fills it with standard
    exponentials, which is how ``dirichlet`` draws an all-ones alpha."""
    if seed < 0 or first < 0:  # SeedSequence rejects negative entropy
        raise ProbError(f"seed and first index must be >= 0, got {seed} and {first}")
    generator = _generator_factory()
    draws = np.empty((rows, size))
    for row, state in zip(draws, _seed_states(seed, first, rows)):
        generator(state).standard_exponential(out=row)
    return _normalized(draws)


def sample_joint(
    axes: Sequence[tuple[str, int]],
    seed: int | np.random.SeedSequence,
) -> JointPmf:
    """Draw a joint pmf uniformly from the simplex (flat Dirichlet): the
    standard exponentials of ``default_rng(seed)`` scaled as in
    :func:`dirichlet_block`, so the draw equals ``dirichlet(np.ones(size))``.

    Deterministic for a fixed seed; full support almost surely.
    """
    names = tuple(str(n) for n, _ in axes)
    cards = tuple(read_number(c, int, f"card of {n}") for n, c in axes)
    if any(c < 1 for c in cards):
        raise ProbError(f"cardinalities must be >= 1, got {cards}")
    flat = _normalized(np.random.default_rng(seed).standard_exponential(int(np.prod(cards))))
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
