"""Single-letter rate-region evaluation and sampled search for discrete channels.

Every bound and every channel ordering is one table entry (``BOUNDS``,
``CONDITIONS``) over the memoized entropies of a stack of extended joints:
auxiliary-variable distributions (over a subset of Q, W, V, U plus the
channel inputs X1, X2) pushed through the channel in one broadcast. The
searches evaluate candidates a stack at a time; :func:`bound_point` and
:func:`condition_gap` are the S = 1 case. A bound's caps give the vertex
set of a small polytope:

    0 <= R1 <= A,   0 <= R2 <= B,   R1 + R2 <= S,

with per-vertex equivocation coordinates Re_i = min(R_i, E_i) attached from
the distribution's secrecy caps. :func:`_vertex_rows` forms the vertices of
a whole stack in one closed form over its ``(5, S)`` caps; only candidates
with two corners within 12-decimal reach of each other take the scalar
:func:`_vertices`. Regions are unions over all admissible distributions;
``search_region`` under-approximates that union by Pareto-merging the
vertices of structured candidate distributions plus seeded flat-Dirichlet
draws, a stack at a time from :func:`prob.dirichlet_block`, into one array
:class:`region.Region` whose metas name each row's distribution; only
:func:`bound_point` returns rate points. Structural channel orderings are
checked by falsification search only: a reported "holds" means no violating
distribution was found at the given sampling effort, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from operator import itemgetter
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import DiscreteCRC, detect_semi_deterministic, push_through
from .prob import Informations, JointPmf, dirichlet_block, relabel
from .region import RatePoint, Region, _first_distinct, _skyline, _within_tie

# Caps within this tolerance of zero are snapped to exactly 0 so that
# channels satisfying an ordering termwise (e.g. identical outputs) yield
# exact zero secrecy coordinates.
CAP_SNAP_TOL = 1e-9
CONDITION_TOL = 1e-9
MAX_ENUMERATED_MAPS = 256
_STACK_FLOATS = 1 << 15  # cap on the extended-joint floats of one candidate stack


class BoundsError(ValueError):
    """Invalid auxiliary assignment or search configuration."""


def _clip_rate(x: float) -> float:
    return x if x > CAP_SNAP_TOL else 0.0


def _vertices(a: float, b: float, s: float, e1: float, e2: float) -> list[tuple[float, ...]]:
    """Corner rows ``(r1, r2, re1, re2)`` of {0<=R1<=a, 0<=R2<=b, R1+R2<=s},
    with Re_i = min(R_i, E_i). Corners that agree to 12 decimals merge (the
    first in set order wins); dominated corners are left to the caller's skyline.
    The scalar form of :func:`_vertex_rows`, which calls it for near ties."""
    a, b, s, e1, e2 = (_clip_rate(x) for x in (a, b, s, e1, e2))
    s = min(s, a + b)
    corners = list({
        (min(a, s), 0.0),
        (0.0, min(b, s)),
        (a, min(b, s - a)) if s >= a else (s, 0.0),
        (min(a, s - b), b) if s >= b else (0.0, s),
    })
    return [
        (r1, r2, min(r1, e1), min(r2, e2))
        for r1, r2 in (corners[i] for i in _first_distinct(corners))
    ]


_EARLIER_CORNER = np.triu(np.ones((4, 4), dtype=bool), 1)  # [i, j]: corner i comes before j


def _vertex_rows(caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_vertices` of every column of a ``(5, S)`` cap array: the corner
    rows ``(M, 4)``, candidate by candidate, and the candidate of each row.

    One closed form forms the four corners of every candidate and drops exact
    repeats, as the scalar form's set does. A candidate with two distinct
    corners :func:`region._within_tie` in both rates may hold a 12-decimal
    tie, whose winner is the scalar form's set order, so only those candidates
    take :func:`_vertices`. Within a candidate the row order differs from the
    scalar one; the skyline's descending sort does not see it."""
    a, b, s, e1, e2 = np.where(caps > CAP_SNAP_TOL, caps, 0.0)
    s = np.minimum(s, a + b)
    zero = np.zeros_like(a)
    r1 = np.stack([np.minimum(a, s), zero, np.where(s >= a, a, s),
                   np.where(s >= b, np.minimum(a, s - b), 0.0)], axis=1)
    r2 = np.stack([zero, np.minimum(b, s), np.where(s >= a, np.minimum(b, s - a), 0.0),
                   np.where(s >= b, b, s)], axis=1)
    i1, j1, i2, j2 = r1[:, :, None], r1[:, None, :], r2[:, :, None], r2[:, None, :]  # [s, i, j]
    same = (i1 == j1) & (i2 == j2)
    keep = ~(same & _EARLIER_CORNER).any(axis=1)
    near = (_within_tie(i1, j1) & _within_tie(i2, j2) & ~same & _EARLIER_CORNER).any(axis=(1, 2))
    rows = np.stack([r1, r2, np.minimum(r1, e1[:, None]), np.minimum(r2, e2[:, None])], axis=2)
    for r in np.flatnonzero(near):
        corners = _vertices(*caps[:, r].tolist())
        keep[r] = np.arange(4) < len(corners)
        rows[r, : len(corners)] = corners
    return rows[keep], np.nonzero(keep)[0]


# A bound's caps (A, B, S, E1, E2) per row of a stack of extended joints:
# R1 <= A, R2 <= B, R1 + R2 <= S, Re1 <= [E1]_+, Re2 <= [E2]_+.
Caps = tuple[np.ndarray | float, ...]


def _inner_caps(info: Informations) -> Caps:
    """General binning inner bound, all conditioned on the time-sharing Q:

      R1  <= min{ I(U;Y1) - I(U;W,X2),  I(U;Y1) + I(V;Y2|W,X2) - I(U;V,W,X2) }
      R2  <= I(V,W,X2;Y2)
      R1+R2 <= I(U;Y1) + I(V,W,X2;Y2) - I(U;V,W,X2)
      Re1 <= [I(U;Y1) - I(U;Y2,V,W,X2)]_+
      Re2 <= [I(V;Y2|W,X2) - I(V;Y1,U|W,X2)]_+
    """
    i = info.i
    u_y1 = i("U", "Y1", "Q")
    v_y2 = i("V", "Y2", ("W", "X2", "Q"))
    u_vwx2 = i("U", ("V", "W", "X2"), "Q")
    vwx2_y2 = i(("V", "W", "X2"), "Y2", "Q")
    return (
        np.minimum(u_y1 - i("U", ("W", "X2"), "Q"), u_y1 + v_y2 - u_vwx2),
        vwx2_y2,
        u_y1 + vwx2_y2 - u_vwx2,
        u_y1 - i("U", ("Y2", "V", "W", "X2"), "Q"),
        v_y2 - i("V", ("Y1", "U"), ("W", "X2", "Q")),
    )


def _outer_caps(info: Informations) -> Caps:
    """Converse (outer) constraint family:

      R1  <= min{ I(U,V;Y1|X2),  I(U;Y1|V,X2) + I(V;Y2|X2) }
      R2  <= I(V,X2;Y2)
      R1+R2 <= I(U;Y1|V,X2) + I(V,X2;Y2)
      Re1 <= [I(U;Y1|V,X2) - I(U;Y2|V,X2)]_+
      Re2 <= [I(V,X2;Y2|W) - I(V,X2;Y1|W)]_+

    The Re2 cap is the ``lessnoisy46`` gap, so it is at most 0 wherever that
    ordering holds.
    """
    i = info.i
    u_y1_vx2 = i("U", "Y1", ("V", "X2"))
    vx2_y2 = i(("V", "X2"), "Y2")
    return (
        np.minimum(i(("U", "V"), "Y1", "X2"), u_y1_vx2 + i("V", "Y2", "X2")),
        vx2_y2,
        u_y1_vx2 + vx2_y2,
        u_y1_vx2 - i("U", "Y2", ("V", "X2")),
        _lessnoisy_gap(info),
    )


def _lessnoisy_caps(info: Informations) -> Caps:
    """Capacity for channels where receiver 1 is less noisy:

      R1  <= I(U,V;Y1|X2)
      R2  <= I(V,X2;Y2)
      R1+R2 <= I(U;Y1|V,X2) + I(V,X2;Y2)
      Re1 <= [I(U;Y1|V,X2) - I(U;Y2|V,X2)]_+

    The caller is responsible for having checked the ordering (see
    :func:`check_condition`); on such channels the primary message gets no
    secrecy, so Re2 is pinned to 0.
    """
    i = info.i
    vx2_y2 = i(("V", "X2"), "Y2")
    u_y1_vx2 = i("U", "Y1", ("V", "X2"))
    return (
        i(("U", "V"), "Y1", "X2"),
        vx2_y2,
        u_y1_vx2 + vx2_y2,
        u_y1_vx2 - i("U", "Y2", ("V", "X2")),
        0.0,
    )


def _semidet_caps(info: Informations) -> Caps:
    """Capacity for channels with a noiseless cognitive output:

      R1  <= min{ H(Y1|X2),  H(Y1|V,X2) + I(V;Y2|X2) }
      R2  <= I(V,X2;Y2)
      R1+R2 <= H(Y1|V,X2) + I(V,X2;Y2)
      Re1 <= H(Y1|Y2,V,X2)
      Re2 <= [I(V;Y2|X2) - I(V;Y1|X2)]_+
    """
    h, i = info.h, info.i
    h_y1_vx2 = h(("Y1", "V", "X2")) - h(("V", "X2"))
    h_y1_vx2 = np.where(h_y1_vx2 > CAP_SNAP_TOL, h_y1_vx2, 0.0)
    v_y2_x2 = i("V", "Y2", "X2")
    vx2_y2 = i(("V", "X2"), "Y2")
    return (
        np.minimum(h(("Y1", "X2")) - h("X2"), h_y1_vx2 + v_y2_x2),
        vx2_y2,
        h_y1_vx2 + vx2_y2,
        h(("Y1", "Y2", "V", "X2")) - h(("Y2", "V", "X2")),
        v_y2_x2 - i("V", "Y1", "X2"),
    )


class BoundKind(str, Enum):
    INNER = "inner"
    OUTER = "outer"
    LESSNOISY = "lessnoisy"
    SEMIDET = "semidet"
    SEMIDET_M1 = "semidet1"


class BoundSpec(NamedTuple):
    """One single-letter bound: its auxiliaries, its coordinates, its caps."""

    aux_axes: tuple[str, ...]
    dims: tuple[str, ...]
    caps: Callable[[Informations], Caps]
    # the bound holds only when P(y1|x1,x2) is 0/1-valued
    noiseless_y1: bool = False


_ALL_DIMS = ("r1", "r2", "re1", "re2")

BOUNDS: dict[BoundKind, BoundSpec] = {
    BoundKind.INNER: BoundSpec(("Q", "W", "V", "U"), _ALL_DIMS, _inner_caps),
    BoundKind.OUTER: BoundSpec(("W", "V", "U"), _ALL_DIMS, _outer_caps),
    BoundKind.LESSNOISY: BoundSpec(("V", "U"), _ALL_DIMS, _lessnoisy_caps),
    BoundKind.SEMIDET: BoundSpec(("V",), _ALL_DIMS, _semidet_caps, noiseless_y1=True),
    # semidet with secrecy tracked for message 1 only: Re2 dropped
    BoundKind.SEMIDET_M1: BoundSpec(
        ("V",), ("r1", "r2", "re1"), lambda info: _semidet_caps(info)[:4] + (0.0,),
        noiseless_y1=True,
    ),
}


def _informations(ch: DiscreteCRC, axes: Sequence[str], stack: np.ndarray) -> Informations:
    """The memo of a stack of auxiliary joints over ``axes`` pushed through ``ch``."""
    return Informations(tuple(axes) + ("Y1", "Y2"), push_through(ch, axes, stack))


def _caps(ch: DiscreteCRC, spec: BoundSpec, axes: Sequence[str], stack: np.ndarray) -> np.ndarray:
    """A bound's caps for a stack of auxiliary joints, shape ``(5, S)``."""
    if spec.noiseless_y1 and detect_semi_deterministic(ch) is None:
        raise BoundsError("channel is not semi-deterministic in Y1")
    return np.array(np.broadcast_arrays(*spec.caps(_informations(ch, axes, stack))))


def bound_point(ch: DiscreteCRC, kind: BoundKind, aux: JointPmf) -> list[RatePoint]:
    """Vertices of one bound's rate polytope for one auxiliary distribution."""
    spec = BOUNDS[kind]
    missing = [name for name in spec.aux_axes if not aux.has_axes([name])]
    if missing:
        raise BoundsError(f"auxiliary joint lacks axes {missing}")
    rows = _vertex_rows(_caps(ch, spec, aux.axes, aux.probs[None]))[0]
    return list(Region(_ALL_DIMS, rows[_skyline(rows[:, :2])]).frontier)


def parse_bound(token: str) -> BoundKind:
    try:
        return BoundKind(token.strip().lower())
    except ValueError:
        raise BoundsError(
            f"unknown bound {token!r}; expected one of {sorted(k.value for k in BoundKind)}"
        ) from None


def bound_dims(bound: BoundKind, secrecy: bool = True) -> tuple[str, ...]:
    return BOUNDS[bound].dims if secrecy else ("r1", "r2")


@dataclass(frozen=True)
class SearchCards:
    """Auxiliary cardinalities for the sampled search (overridable)."""

    q: int = 1
    w: int = 2
    v: int | None = None
    u: int | None = None

    def resolved(self, ch: DiscreteCRC) -> dict[str, int]:
        cx1, cx2, _, _ = ch.cards
        default_vu = cx1 * cx2 + 1
        cards = {
            "Q": self.q,
            "W": self.w,
            "V": self.v if self.v is not None else default_vu,
            "U": self.u if self.u is not None else default_vu,
        }
        if any(c < 1 for c in cards.values()):
            raise BoundsError(f"cardinalities must be >= 1, got {cards}")
        return cards


BIAS_GRID_POINTS = 51


def structured_candidates(ch: DiscreteCRC, axes: list[tuple[str, int]]) -> np.ndarray:
    """Deterministic candidate distributions, emitted before random draws.

    A stack of the independent-uniform and all-degenerate joints, copy
    patterns of the inputs onto the auxiliaries (each input, and the input
    pair x1 + |X1| x2, in a few combinations; unmapped auxiliaries 0), and
    (for a binary X1) a bias grid that is uniform in the entropy of X1 so
    corner-achieving operating points appear along the whole frontier.
    """
    cx1, cx2 = ch.cards[:2]
    shape = tuple(c for _, c in axes)
    uniform = np.full((1,) + shape, 1.0 / float(np.prod(shape)))
    degenerate = np.zeros((1,) + shape)
    degenerate[(0,) * degenerate.ndim] = 1.0
    x1, x2 = itemgetter("X1"), itemgetter("X2")

    def pair(c):
        return c["X1"] + cx1 * c["X2"]

    patterns = ({"U": x1, "V": x2}, {"U": x1, "V": x1}, {"U": x2, "V": x1},
                {"U": pair, "V": x2}, {"U": pair, "V": pair}, {"V": x1}, {"V": pair})
    inputs = np.full((1, cx1), 1.0 / cx1)[:, :, None] * np.full(cx2, 1.0 / cx2)
    stacks = [uniform, degenerate] + [relabel(("X1", "X2"), inputs, axes, maps) for maps in patterns]
    if cx1 == 2:  # bisect H2(p) = t, p in (0, 0.5), for the grid of t in [0, 1]
        t = np.arange(BIAS_GRID_POINTS) / (BIAS_GRID_POINTS - 1)
        lo, hi = np.zeros_like(t), np.full_like(t, 0.5)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = -(mid * np.log2(mid) + (1 - mid) * np.log2(1 - mid)) < t
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        p = 0.5 * (lo + hi)
        inputs = np.stack([1.0 - p, p], axis=1)[:, :, None] * np.full(cx2, 1.0 / cx2)
        stacks.append(relabel(("X1", "X2"), inputs, axes, {"U": x1, "V": x1}))
    return np.concatenate(stacks)


def _candidate_stacks(ch: DiscreteCRC, structured: np.ndarray, samples: int, seed: int) -> Iterator[tuple]:
    """``(source, start, stack)``: the ``structured`` rows, then seeded
    flat-Dirichlet draws, in stacks of at most ``_STACK_FLOATS`` extended-joint
    floats (one row at least). Draw ``i`` is
    ``default_rng(SeedSequence((seed, i))).dirichlet(np.ones(size))``, bit for
    bit; one :func:`prob.dirichlet_block` call draws a stack."""
    cards, size = structured.shape[1:], structured[0].size
    step = max(1, _STACK_FLOATS // (size * ch.cards[2] * ch.cards[3]))
    for start in range(0, len(structured), step):
        yield "structured", start, structured[start : start + step]
    for start in range(0, samples, step):
        stack = dirichlet_block(seed, start, min(step, samples - start), size)
        yield "sample", start, stack.reshape((-1,) + cards)


def search_region(
    ch: DiscreteCRC,
    bound: BoundKind | str,
    cards: SearchCards | None = None,
    samples: int = 1000,
    seed: int = 0,
    secrecy: bool = True,
) -> Region:
    """Sampled under-approximation of a region's Pareto frontier.

    Evaluates the bound at the structured candidates and then at ``samples``
    flat-Dirichlet draws (per-draw seeds derived from ``(seed, index)``, so
    enlarging ``samples`` only ever adds points). The frontier is the exact
    maximal set of all their vertices: only corners of one candidate that
    agree to 12 decimals merge; across candidates ties are exact and the first
    found wins, its ``meta`` recording the distribution.
    """
    bound = parse_bound(bound) if isinstance(bound, str) else bound
    if samples < 0:
        raise BoundsError("samples must be >= 0")
    if seed < 0:
        raise BoundsError(f"seed must be >= 0, got {seed}")
    spec = BOUNDS[bound]
    resolved = (cards or SearchCards()).resolved(ch)
    axes = [(n, resolved[n]) for n in spec.aux_axes] + [("X1", ch.cards[0]), ("X2", ch.cards[1])]
    names = tuple(n for n, _ in axes)
    dims = bound_dims(bound, secrecy)
    cols = [_ALL_DIMS.index(d) for d in dims]
    frontier = np.empty((0, len(dims)))
    owners: list[tuple[str, int, np.ndarray]] = []  # (source, index, aux) of each frontier row
    for source, start, stack in _candidate_stacks(ch, structured_candidates(ch, axes), samples, seed):
        rows, candidate = _vertex_rows(_caps(ch, spec, names, stack))
        # the running frontier goes first: it was found first
        old = len(owners)
        frontier = np.concatenate([frontier, rows[:, cols]])
        keep = _skyline(frontier).tolist()
        new = {i: int(candidate[i - old]) for i in keep if i >= old}
        aux = {r: stack[r].copy() for r in set(new.values())}  # survivors only: no stack stays alive
        frontier = frontier[keep]
        owners = [(source, start + new[i], aux[new[i]]) if i in new else owners[i] for i in keep]
    return Region(dims, frontier, [{"source": src, "index": i, "aux": JointPmf(names, aux)}
                                   for src, i, aux in owners])


class Condition(str, Enum):
    """Structural channel orderings checked by falsification search."""

    LESS_NOISY = "lessnoisy46"
    SEMI_DET = "semidet11"


def _lessnoisy_gap(info: Informations) -> np.ndarray:
    """I(V,X2;Y2|W) - I(V,X2;Y1|W)."""
    return info.i(("V", "X2"), "Y2", "W") - info.i(("V", "X2"), "Y1", "W")


def _semidet_gap(info: Informations) -> np.ndarray:
    """[H(Y2|W) - H(Y2|X2)] - [H(Y1|W) - H(Y1|X2)]."""
    h = info.h
    lhs = (h(("Y2", "W")) - h("W")) - (h(("Y2", "X2")) - h("X2"))
    rhs = (h(("Y1", "W")) - h("W")) - (h(("Y1", "X2")) - h("X2"))
    return lhs - rhs


class ConditionSpec(NamedTuple):
    """One ordering: its quantified auxiliaries (beside X1, X2) and its gap."""

    aux_axes: tuple[str, ...]
    gap: Callable[[Informations], np.ndarray]


CONDITIONS: dict[Condition, ConditionSpec] = {
    Condition.LESS_NOISY: ConditionSpec(("W", "V"), _lessnoisy_gap),
    Condition.SEMI_DET: ConditionSpec(("W",), _semidet_gap),
}


def parse_condition(token: str) -> Condition:
    try:
        return Condition(token.strip().lower())
    except ValueError:
        raise BoundsError(
            f"unknown condition {token!r}; expected one of {sorted(c.value for c in Condition)}"
        ) from None


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a falsification search for a channel ordering.

    ``max_gap`` is the largest violation found over all evaluated joints
    (LHS - RHS of the ordering); a value above ``tol`` certifies violation
    with ``witness`` as the certificate. A non-positive ``max_gap`` only
    means no violation was found at this sampling effort. ``samples`` counts
    every joint evaluated, the deterministic-map candidates included: 662 for
    ``lessnoisy46`` on 2x2 inputs at 150 draws (2 x 256 maps plus the draws).
    """

    condition: Condition
    max_gap: float
    witness: JointPmf
    samples: int
    tol: float = CONDITION_TOL

    @property
    def violated(self) -> bool:
        return self.max_gap > self.tol

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "condition": self.condition.value,
            "max_gap": self.max_gap,
            "violated": self.violated,
            "samples": self.samples,
            "tol": self.tol,
            "witness": self.witness.to_jsonable(),
        }


def condition_gap(ch: DiscreteCRC, cond: Condition, joint: JointPmf) -> float:
    """LHS - RHS of the ordering for one quantified distribution."""
    return float(CONDITIONS[cond].gap(_informations(ch, joint.axes, joint.probs[None]))[0])


def _deterministic_map_candidates(
    ch: DiscreteCRC, axes: list[tuple[str, int]], seed: int
) -> np.ndarray:
    """Uniform-input joints with aux variables set to deterministic maps: per
    auxiliary, each (or a seeded sample of) its tables over the input pairs
    x1 |X2| + x2, the others copying the pair x1 + |X1| x2."""
    cx1, cx2, _, _ = ch.cards
    inputs = np.full((1, cx1), 1.0 / cx1)[:, :, None] * np.full(cx2, 1.0 / cx2)
    aux = [(n, c) for n, c in axes if n not in ("X1", "X2")]
    n_inputs = cx1 * cx2
    stacks = []
    for axis_pos, (name, card) in enumerate(aux):
        if card**n_inputs <= MAX_ENUMERATED_MAPS:
            tables = np.array(list(product(range(card), repeat=n_inputs))).reshape(-1, n_inputs)
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, axis_pos)))
            tables = np.array([rng.integers(0, card, n_inputs) for _ in range(MAX_ENUMERATED_MAPS)])
        maps = {n: lambda c: c["X1"] + cx1 * c["X2"] for n, _ in aux}
        maps[name] = lambda c: tables[:, c["X1"] * cx2 + c["X2"]]
        stacks.append(relabel(("X1", "X2"), inputs, axes, maps))
    return np.concatenate(stacks)


def check_condition(
    ch: DiscreteCRC,
    cond: Condition | str,
    samples: int = 1000,
    seed: int = 0,
) -> ConditionReport:
    """Falsification search over the ordering's quantified distributions;
    the quantified W and V take |X1|*|X2| values. Of equal gaps the first
    candidate is the witness."""
    cond = parse_condition(cond) if isinstance(cond, str) else cond
    if samples < 0:
        raise BoundsError("samples must be >= 0")
    if seed < 0:
        raise BoundsError(f"seed must be >= 0, got {seed}")
    cx1, cx2, _, _ = ch.cards
    axes = [(n, cx1 * cx2) for n in CONDITIONS[cond].aux_axes] + [("X1", cx1), ("X2", cx2)]
    names = tuple(n for n, _ in axes)
    best_gap, witness, count = -np.inf, None, 0
    for _, _, stack in _candidate_stacks(ch, _deterministic_map_candidates(ch, axes, seed), samples, seed):
        gaps = CONDITIONS[cond].gap(_informations(ch, names, stack))
        r = int(np.argmax(gaps))
        if gaps[r] > best_gap:
            best_gap, witness = float(gaps[r]), stack[r].copy()
        count += len(stack)
    assert witness is not None
    return ConditionReport(cond, best_gap, JointPmf(names, witness), count)
