"""Single-letter rate-region evaluation and sampled search for discrete channels.

Every bound and every channel ordering is one table entry (``BOUNDS``,
``CONDITIONS``) over the memoized entropies of one extended joint: an
auxiliary-variable distribution (over a subset of Q, W, V, U plus the
channel inputs X1, X2) pushed through the channel. :func:`bound_point`
turns a bound's information caps into the vertex set of a small polytope:

    0 <= R1 <= A,   0 <= R2 <= B,   R1 + R2 <= S,

with per-vertex equivocation coordinates Re_i = min(R_i, E_i) attached from
the distribution's secrecy caps. Regions are unions over all admissible
distributions; ``search_region`` under-approximates that union by Pareto-
merging the vertices of structured candidate distributions plus seeded
flat-Dirichlet draws. Structural channel orderings are checked by
falsification search only: a reported "holds" means no violating
distribution was found at the given sampling effort, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import product
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .channel import DiscreteCRC, detect_semi_deterministic, induce_joint
from .prob import Informations, JointPmf, sample_joint
from .region import RatePoint, Region, merge_frontier, pareto_filter

# Caps within this tolerance of zero are snapped to exactly 0 so that
# channels satisfying an ordering termwise (e.g. identical outputs) yield
# exact zero secrecy coordinates.
CAP_SNAP_TOL = 1e-9
CONDITION_TOL = 1e-9
MAX_ENUMERATED_MAPS = 256


class BoundsError(ValueError):
    """Invalid auxiliary assignment or search configuration."""


def _clip_rate(x: float) -> float:
    return x if x > CAP_SNAP_TOL else 0.0


@dataclass(frozen=True)
class AuxAssignment:
    """An auxiliary joint plus its channel-extended version, cached."""

    channel: DiscreteCRC
    joint: JointPmf
    extended: JointPmf = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cx1, cx2, _, _ = self.channel.cards
        if not self.joint.has_axes(["X1", "X2"]):
            raise BoundsError("auxiliary joint must include X1 and X2")
        if self.joint.card("X1") != cx1 or self.joint.card("X2") != cx2:
            raise BoundsError(
                f"input cardinalities {(self.joint.card('X1'), self.joint.card('X2'))} "
                f"do not match channel {(cx1, cx2)}"
            )
        object.__setattr__(self, "extended", induce_joint(self.channel, self.joint))

    def require_axes(self, names: Iterable[str]) -> None:
        missing = [n for n in names if not self.joint.has_axes([n])]
        if missing:
            raise BoundsError(f"auxiliary joint lacks axes {missing}")


def _vertices(a: float, b: float, s: float, e1: float, e2: float) -> list[RatePoint]:
    """Vertex set of {0<=R1<=a, 0<=R2<=b, R1+R2<=s} with secrecy coords."""
    a, b, s, e1, e2 = (_clip_rate(x) for x in (a, b, s, e1, e2))
    s = min(s, a + b)
    corners = {
        (min(a, s), 0.0),
        (0.0, min(b, s)),
        (a, min(b, s - a)) if s >= a else (s, 0.0),
        (min(a, s - b), b) if s >= b else (0.0, s),
    }
    points = [
        RatePoint(r1, r2, min(r1, e1), min(r2, e2))
        for r1, r2 in corners
    ]
    return list(pareto_filter(points, ("r1", "r2")).frontier)


# A bound's caps (A, B, S, E1, E2) from the informations of the extended
# joint: R1 <= A, R2 <= B, R1 + R2 <= S, Re1 <= [E1]_+, Re2 <= [E2]_+.
Caps = tuple[float, float, float, float, float]


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
        min(u_y1 - i("U", ("W", "X2"), "Q"), u_y1 + v_y2 - u_vwx2),
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
    """
    i = info.i
    u_y1_vx2 = i("U", "Y1", ("V", "X2"))
    vx2_y2 = i(("V", "X2"), "Y2")
    return (
        min(i(("U", "V"), "Y1", "X2"), u_y1_vx2 + i("V", "Y2", "X2")),
        vx2_y2,
        u_y1_vx2 + vx2_y2,
        u_y1_vx2 - i("U", "Y2", ("V", "X2")),
        i(("V", "X2"), "Y2", "W") - i(("V", "X2"), "Y1", "W"),
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
    h_y1_vx2 = _clip_rate(h(("Y1", "V", "X2")) - h(("V", "X2")))
    v_y2_x2 = i("V", "Y2", "X2")
    vx2_y2 = i(("V", "X2"), "Y2")
    return (
        min(h(("Y1", "X2")) - h("X2"), h_y1_vx2 + v_y2_x2),
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

BOUND_ALIASES = {kind.value: kind for kind in BoundKind} | {"thm6": BoundKind.SEMIDET_M1}


def bound_point(ch: DiscreteCRC, kind: BoundKind, aux: JointPmf) -> list[RatePoint]:
    """Vertices of one bound's rate polytope for one auxiliary distribution."""
    spec = BOUNDS[kind]
    if spec.noiseless_y1 and detect_semi_deterministic(ch) is None:
        raise BoundsError("channel is not semi-deterministic in Y1")
    asg = AuxAssignment(ch, aux)
    asg.require_axes(spec.aux_axes)
    return _vertices(*spec.caps(Informations(asg.extended)))


def parse_bound(token: str) -> BoundKind:
    try:
        return BOUND_ALIASES[token.strip().lower()]
    except KeyError:
        raise BoundsError(
            f"unknown bound {token!r}; expected one of {sorted(BOUND_ALIASES)}"
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


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-(p * np.log2(p) + (1 - p) * np.log2(1 - p)))


def _binary_entropy_inverse(t: float) -> float:
    """p in [0, 0.5] with H2(p) = t, by bisection."""
    t = min(max(t, 0.0), 1.0)
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _binary_entropy(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _assigned_joint(
    axes: list[tuple[str, int]],
    x1_dist: np.ndarray,
    x2_dist: np.ndarray,
    funcs: dict[str, Callable[[int, int], int]],
) -> JointPmf:
    """Joint where each auxiliary variable is a deterministic map of (x1, x2)."""
    names = [n for n, _ in axes]
    cards = {n: c for n, c in axes}
    shape = tuple(c for _, c in axes)
    probs = np.zeros(shape)
    for x1, x2 in product(range(len(x1_dist)), range(len(x2_dist))):
        idx = []
        for name in names:
            if name == "X1":
                idx.append(x1)
            elif name == "X2":
                idx.append(x2)
            else:
                f = funcs.get(name)
                idx.append(f(x1, x2) % cards[name] if f else 0)
        probs[tuple(idx)] += x1_dist[x1] * x2_dist[x2]
    return JointPmf(tuple(names), probs)


# Deterministic auxiliary patterns worth trying before random search: copies
# of each input and of the joint input index, in a few combinations.
_COPY_PATTERNS: tuple[dict[str, str], ...] = (
    {"U": "x1", "V": "x2"},
    {"U": "x1", "V": "x1"},
    {"U": "x2", "V": "x1"},
    {"U": "pair", "V": "x2"},
    {"U": "pair", "V": "pair"},
    {"V": "x1"},
    {"V": "pair"},
)

BIAS_GRID_POINTS = 51


def _pattern_funcs(pattern: dict[str, str], cx1: int) -> dict[str, Callable[[int, int], int]]:
    table = {
        "x1": lambda x1, x2: x1,
        "x2": lambda x1, x2: x2,
        "pair": lambda x1, x2: x1 + cx1 * x2,
    }
    return {name: table[kind] for name, kind in pattern.items()}


def structured_candidates(
    ch: DiscreteCRC, axes: list[tuple[str, int]]
) -> Iterator[JointPmf]:
    """Deterministic candidate distributions, emitted before random draws.

    Includes the independent-uniform and all-degenerate joints, copy
    patterns of the inputs onto the auxiliaries, and (for a binary X1) a
    bias grid that is uniform in the entropy of X1 so corner-achieving
    operating points appear along the whole frontier.
    """
    cx1, cx2, _, _ = ch.cards
    shape = tuple(c for _, c in axes)
    names = tuple(n for n, _ in axes)
    uniform = np.full(shape, 1.0 / float(np.prod(shape)))
    yield JointPmf(names, uniform)
    degenerate = np.zeros(shape)
    degenerate[(0,) * len(shape)] = 1.0
    yield JointPmf(names, degenerate)
    u1 = np.full(cx1, 1.0 / cx1)
    u2 = np.full(cx2, 1.0 / cx2)
    aux_names = {n for n in names if n not in ("X1", "X2")}
    for pattern in _COPY_PATTERNS:
        funcs = _pattern_funcs({k: v for k, v in pattern.items() if k in aux_names}, cx1)
        yield _assigned_joint(axes, u1, u2, funcs)
    if cx1 == 2:
        funcs = _pattern_funcs({k: "x1" for k in ("U", "V") if k in aux_names}, cx1)
        for i in range(BIAS_GRID_POINTS):
            t = i / (BIAS_GRID_POINTS - 1)
            p = _binary_entropy_inverse(t)
            x1_dist = np.array([1.0 - p, p])
            yield _assigned_joint(axes, x1_dist, u2, funcs)


def _sample_seed(master: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master), int(index)))


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
    enlarging ``samples`` only ever adds points). Each frontier point's
    ``meta`` records the achieving distribution.
    """
    bound = parse_bound(bound) if isinstance(bound, str) else bound
    if samples < 0:
        raise BoundsError("samples must be >= 0")
    resolved = (cards or SearchCards()).resolved(ch)
    cx1, cx2, _, _ = ch.cards
    axes = [(n, resolved[n]) for n in BOUNDS[bound].aux_axes]
    axes += [("X1", cx1), ("X2", cx2)]
    dims = bound_dims(bound, secrecy)
    frontier: list[RatePoint] = []

    def add(joint: JointPmf, source: str, index: int) -> None:
        points = bound_point(ch, bound, joint)
        if not secrecy:
            points = [replace(p, re1=0.0, re2=0.0) for p in points]
        meta = {"source": source, "index": index, "aux": joint}
        merge_frontier(frontier, [replace(p, meta=meta) for p in points], dims)

    for i, joint in enumerate(structured_candidates(ch, axes)):
        add(joint, "structured", i)
    for i in range(samples):
        add(sample_joint(axes, _sample_seed(seed, i)), "sample", i)
    frontier.sort(key=lambda p: p.coords(dims), reverse=True)
    return Region(tuple(frontier), dims)


class Condition(str, Enum):
    """Structural channel orderings checked by falsification search."""

    LESS_NOISY = "lessnoisy46"
    SEMI_DET = "semidet11"


def _lessnoisy_gap(info: Informations) -> float:
    """I(V,X2;Y2|W) - I(V,X2;Y1|W)."""
    return info.i(("V", "X2"), "Y2", "W") - info.i(("V", "X2"), "Y1", "W")


def _semidet_gap(info: Informations) -> float:
    """[H(Y2|W) - H(Y2|X2)] - [H(Y1|W) - H(Y1|X2)]."""
    h = info.h
    lhs = (h(("Y2", "W")) - h("W")) - (h(("Y2", "X2")) - h("X2"))
    rhs = (h(("Y1", "W")) - h("W")) - (h(("Y1", "X2")) - h("X2"))
    return lhs - rhs


class ConditionSpec(NamedTuple):
    """One ordering: its quantified auxiliaries (beside X1, X2) and its gap."""

    aux_axes: tuple[str, ...]
    gap: Callable[[Informations], float]


CONDITIONS: dict[Condition, ConditionSpec] = {
    Condition.LESS_NOISY: ConditionSpec(("W", "V"), _lessnoisy_gap),
    Condition.SEMI_DET: ConditionSpec(("W",), _semidet_gap),
}

CONDITION_ALIASES = {
    "lessnoisy46": Condition.LESS_NOISY,
    "lessnoisy": Condition.LESS_NOISY,
    "semidet11": Condition.SEMI_DET,
    "semidet": Condition.SEMI_DET,
}


def parse_condition(token: str) -> Condition:
    try:
        return CONDITION_ALIASES[token.strip().lower()]
    except KeyError:
        raise BoundsError(
            f"unknown condition {token!r}; expected one of {sorted(CONDITION_ALIASES)}"
        ) from None


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a falsification search for a channel ordering.

    ``max_gap`` is the largest violation found over all evaluated joints
    (LHS - RHS of the ordering); a value above ``tol`` certifies violation
    with ``witness`` as the certificate. A non-positive ``max_gap`` only
    means no violation was found at this sampling effort.
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
    return CONDITIONS[cond].gap(Informations(AuxAssignment(ch, joint).extended))


def _deterministic_map_candidates(
    ch: DiscreteCRC, axes: list[tuple[str, int]], seed: int
) -> Iterator[JointPmf]:
    """Uniform-input joints with aux variables set to deterministic maps."""
    cx1, cx2, _, _ = ch.cards
    u1 = np.full(cx1, 1.0 / cx1)
    u2 = np.full(cx2, 1.0 / cx2)
    aux = [(n, c) for n, c in axes if n not in ("X1", "X2")]
    n_inputs = cx1 * cx2
    for axis_pos, (name, card) in enumerate(aux):
        others = {n: (lambda x1, x2: x1 + cx1 * x2) for n, _ in aux if n != name}
        total = card**n_inputs
        if total <= MAX_ENUMERATED_MAPS:
            tables = product(range(card), repeat=n_inputs)
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, axis_pos)))
            tables = (
                tuple(int(v) for v in rng.integers(0, card, n_inputs))
                for _ in range(MAX_ENUMERATED_MAPS)
            )
        for table in tables:
            tbl = tuple(table)

            def f(x1: int, x2: int, _tbl=tbl) -> int:
                return _tbl[x1 * cx2 + x2]

            yield _assigned_joint(axes, u1, u2, {name: f, **others})


def check_condition(
    ch: DiscreteCRC,
    cond: Condition | str,
    samples: int = 1000,
    seed: int = 0,
    w_card: int | None = None,
    v_card: int | None = None,
) -> ConditionReport:
    """Falsification search over the ordering's quantified distributions."""
    cond = parse_condition(cond) if isinstance(cond, str) else cond
    if samples < 0:
        raise BoundsError("samples must be >= 0")
    cx1, cx2, _, _ = ch.cards
    cards = {
        "W": w_card if w_card is not None else cx1 * cx2,
        "V": v_card if v_card is not None else cx1 * cx2,
    }
    axes = [(n, cards[n]) for n in CONDITIONS[cond].aux_axes]
    axes += [("X1", cx1), ("X2", cx2)]
    best_gap = -np.inf
    witness: JointPmf | None = None
    count = 0

    def consider(joint: JointPmf) -> None:
        nonlocal best_gap, witness, count
        count += 1
        gap = condition_gap(ch, cond, joint)
        if gap > best_gap:
            best_gap, witness = gap, joint

    for joint in _deterministic_map_candidates(ch, axes, seed):
        consider(joint)
    for i in range(samples):
        consider(sample_joint(axes, _sample_seed(seed, i)))
    assert witness is not None
    return ConditionReport(cond, float(best_gap), witness, count)
