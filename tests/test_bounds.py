from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crcsec import bounds, prob
from crcsec.bounds import (
    BOUNDS,
    CAP_SNAP_TOL,
    BoundKind,
    BoundsError,
    Condition,
    SearchCards,
    bound_point,
    check_condition,
    condition_gap,
    parse_bound,
    parse_condition,
    search_region,
    structured_candidates,
    _candidate_stacks,
    _vertex_rows,
    _vertices,
)
from crcsec.binning import RateConstraintError, compute_scheme_informations, derive_scheme_rates
from crcsec.channel import (
    DiscreteCRC,
    detect_semi_deterministic,
    erasure_cascade_channel,
    induce_joint,
    orthogonal_channel,
    xor_channel,
)
from crcsec.prob import relabel
from crcsec.region import RatePoint, convex_gap, dominates

H2_011 = 0.4999159581645280


def joint_with(axes_cards, assign, x1_dist=None, x2_dist=None):
    """Joint with aux variables as deterministic maps of (x1, x2); an input
    left out of ``axes_cards`` is summed out (its distribution must be given)."""
    names = [n for n, _ in axes_cards]
    cards = dict(axes_cards)
    probs = np.zeros(tuple(c for _, c in axes_cards))
    x1_dist = x1_dist if x1_dist is not None else [1.0 / cards["X1"]] * cards["X1"]
    x2_dist = x2_dist if x2_dist is not None else [1.0 / cards["X2"]] * cards["X2"]
    for x1, x2 in product(range(len(x1_dist)), range(len(x2_dist))):
        idx = tuple(
            x1 if n == "X1" else x2 if n == "X2" else assign.get(n, lambda a, b: 0)(x1, x2) % cards[n]
            for n in names
        )
        probs[idx] += x1_dist[x1] * x2_dist[x2]
    return prob.JointPmf(tuple(names), probs)


@st.composite
def relabel_cases(draw):
    """Output axes in shuffled order: some auxiliaries, and X1 and X2 unless
    summed out. Per-row input distributions (or one shared row) and per-row
    tables over (x1, x2) with values past each card; some auxiliaries have no
    table and go to 0. Small cards make cells land together."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cx1, cx2, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    aux = [(n, draw(st.integers(1, 4))) for n in ("Q", "W", "V", "U") if draw(st.booleans())]
    inputs = [(n, c) for n, c in (("X1", cx1), ("X2", cx2)) if draw(st.booleans())]
    out_axes = aux + inputs or [("V", 1)]
    out_axes = [out_axes[i] for i in rng.permutation(len(out_axes))]
    tables = {n: rng.integers(0, 3 * card, (rows, cx1, cx2)) for n, card in aux if draw(st.booleans())}
    x1, x2 = rng.dirichlet(np.ones(cx1), rows), rng.dirichlet(np.ones(cx2), rows)
    if draw(st.booleans()):  # one source row against per-row tables
        x1, x2 = x1[:1], x2[:1]
    return out_axes, tables, x1, x2, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(case=relabel_cases())
def test_relabel_equals_loop_oracle(case):
    """Row r of the kernel's stack is the loop oracle's joint for row r's
    tables and inputs, bit for bit on the (X1, X2) source order (the loop's
    order of adding) and within 1e-15 on (X2, X1)."""
    out_axes, tables, x1, x2, flipped = case
    stack = x1[:, :, None] * x2[:, None, :]
    maps = {n: (lambda c, t=t: t[:, c["X1"], c["X2"]]) for n, t in tables.items()}
    if flipped:
        got = relabel(("X2", "X1"), stack.transpose(0, 2, 1), out_axes, maps)
    else:
        got = relabel(("X1", "X2"), stack, out_axes, maps)
    rows = max([len(x1)] + [len(t) for t in tables.values()])
    assert got.shape == (rows,) + tuple(c for _, c in out_axes)
    for r in range(rows):
        assign = {n: (lambda a, b, t=t[r]: t[a, b]) for n, t in tables.items()}
        want = joint_with(out_axes, assign, x1[r % len(x1)], x2[r % len(x2)]).probs
        if flipped:
            np.testing.assert_allclose(got[r], want, rtol=0.0, atol=1e-15)
        else:
            assert np.array_equal(got[r], want)
    with pytest.raises(prob.ProbError):  # one axis name per joint axis
        relabel(("X1",), stack, out_axes, maps)


INNER_AXES = [("Q", 1), ("W", 1), ("V", 1), ("U", 2), ("X1", 2), ("X2", 2)]


def test_inner_orthogonal_hand_corner():
    aux = joint_with(INNER_AXES, {"U": lambda x1, x2: x1})
    pts = bound_point(orthogonal_channel(), BoundKind.INNER, aux)
    assert [(p.r1, p.r2, p.re1, p.re2) for p in pts] == [(1.0, 1.0, 1.0, 0.0)]


def test_inner_degenerate_u_and_all_degenerate():
    aux = joint_with(INNER_AXES, {})  # U pinned to symbol 0
    for p in bound_point(orthogonal_channel(), BoundKind.INNER, aux):
        assert p.r1 == 0.0 and p.re1 == 0.0
    degenerate = np.zeros((1, 1, 1, 1, 2, 2))
    degenerate[0, 0, 0, 0, 0, 0] = 1.0
    pts = bound_point(
        orthogonal_channel(), BoundKind.INNER, prob.JointPmf(("Q", "W", "V", "U", "X1", "X2"), degenerate)
    )
    for p in pts:
        assert (p.r1, p.r2, p.re1, p.re2) == (0.0, 0.0, 0.0, 0.0)


def test_inner_requires_all_axes():
    aux = joint_with([("V", 1), ("U", 2), ("X1", 2), ("X2", 2)], {"U": lambda a, b: a})
    with pytest.raises(BoundsError):
        bound_point(orthogonal_channel(), BoundKind.INNER, aux)


OUTER_AXES = [("W", 2), ("V", 2), ("U", 2), ("X1", 2), ("X2", 2)]


def test_outer_orthogonal_capped_at_one_bit():
    ch = orthogonal_channel()
    for seed in range(150):
        aux = prob.sample_joint(OUTER_AXES, seed=seed)
        for p in bound_point(ch, BoundKind.OUTER, aux):
            assert p.r1 <= 1.0 + 1e-9 and p.r2 <= 1.0 + 1e-9


def test_outer_degenerate_u_gives_no_secrecy_for_m1():
    aux = joint_with(OUTER_AXES, {"V": lambda x1, x2: x2})
    for p in bound_point(orthogonal_channel(), BoundKind.OUTER, aux):
        assert p.re1 == 0.0


def test_outer_xor_zero_secrecy_exact():
    ch = xor_channel()
    for seed in range(200):
        aux = prob.sample_joint(OUTER_AXES, seed=1000 + seed)
        for p in bound_point(ch, BoundKind.OUTER, aux):
            assert p.re1 == 0.0 and p.re2 == 0.0


def test_lessnoisy_xor_example():
    axes = [("V", 1), ("U", 2), ("X1", 2), ("X2", 2)]
    aux = joint_with(axes, {"U": lambda x1, x2: x1}, x1_dist=[0.89, 0.11])
    pts = bound_point(xor_channel(), BoundKind.LESSNOISY, aux)
    r1_cap = max(p.r1 for p in pts)
    r2_cap = max(p.r2 for p in pts)
    assert abs(r1_cap - H2_011) < 1e-9
    assert abs(r2_cap - (1.0 - H2_011)) < 1e-9
    for p in pts:
        assert p.re2 == 0.0


def test_lessnoisy_x2_degenerate_reduces_to_two_receiver_form():
    # X2 constant: every X2-conditioned cap equals its unconditioned form,
    # so the region collapses to a two-receiver one
    k = np.zeros((2, 1, 2, 2))
    k[0, 0, 0, 0] = k[1, 0, 1, 1] = 0.9
    k[0, 0, 0, 1] = k[1, 0, 1, 0] = 0.1
    from crcsec.channel import DiscreteCRC

    ch = DiscreteCRC(k)
    axes = [("V", 2), ("U", 2), ("X1", 2), ("X2", 1)]
    aux = joint_with(axes, {"U": lambda x1, x2: x1, "V": lambda x1, x2: x1})
    ext = induce_joint(ch, aux)
    cmi = prob.conditional_mutual_information
    a = cmi(ext, ("U", "V"), "Y1", "X2")
    b = cmi(ext, ("V", "X2"), "Y2")
    s = cmi(ext, "U", "Y1", ("V", "X2")) + b
    assert abs(a - cmi(ext, ("U", "V"), "Y1")) < 1e-12
    assert abs(b - cmi(ext, "V", "Y2")) < 1e-12
    # vertices follow the collapsed caps: here the sum cap binds both corners
    pts = bound_point(ch, BoundKind.LESSNOISY, aux)
    got = sorted((p.r1, p.r2) for p in pts)
    assert got == [(0.0, min(b, s)), (min(a, s), 0.0)]


def test_semidet_xor_example():
    axes = [("V", 1), ("X1", 2), ("X2", 2)]
    aux = joint_with(axes, {}, x1_dist=[0.89, 0.11])
    pts = bound_point(xor_channel(), BoundKind.SEMIDET, aux)
    assert abs(max(p.r1 for p in pts) - H2_011) < 1e-9
    assert abs(max(p.r2 for p in pts) - (1.0 - H2_011)) < 1e-9
    for p in pts:
        assert p.re1 == 0.0 and p.re2 == 0.0  # Y2 determines Y1


def test_semidet_orthogonal_full_secrecy_corner():
    axes = [("V", 1), ("X1", 2), ("X2", 2)]
    aux = joint_with(axes, {})
    pts = bound_point(orthogonal_channel(), BoundKind.SEMIDET, aux)
    assert [(p.r1, p.r2, p.re1) for p in pts] == [(1.0, 1.0, 1.0)]
    m1only = bound_point(orthogonal_channel(), BoundKind.SEMIDET_M1, aux)
    assert [(p.r1, p.r2, p.re1) for p in m1only] == [(1.0, 1.0, 1.0)]


def test_semidet_projection_matches_m1only_exactly():
    axes = [("V", 3), ("X1", 2), ("X2", 2)]
    for seed in range(100):
        aux = prob.sample_joint(axes, seed=seed)
        a = [(p.r1, p.r2, p.re1) for p in bound_point(xor_channel(), BoundKind.SEMIDET, aux)]
        b = [(p.r1, p.r2, p.re1) for p in bound_point(xor_channel(), BoundKind.SEMIDET_M1, aux)]
        assert a == b


def test_semidet_rejects_noisy_y1():
    from crcsec.channel import DiscreteCRC

    k = np.full((2, 2, 2, 2), 0.25)
    with pytest.raises(BoundsError):
        bound_point(DiscreteCRC(k), BoundKind.SEMIDET, joint_with([("V", 1), ("X1", 2), ("X2", 2)], {}))


def test_vertex_coordinates_bounded_by_output_entropy():
    ch = orthogonal_channel()
    for seed in range(100):
        aux = prob.sample_joint([(n, c) for n, c in INNER_AXES], seed=seed)
        for p in bound_point(ch, BoundKind.INNER, aux):
            assert -1e-12 <= p.r1 <= 1.0 + 1e-9
            assert -1e-12 <= p.r2 <= 1.0 + 1e-9
            assert p.re1 <= p.r1 + 1e-9 and p.re2 <= p.r2 + 1e-9


def _nudged(draw, x):
    """``x`` moved by a few ulps, by up to a few 1e-12, or not at all."""
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x + draw(st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 1e-12, -1e-12, 2.5e-12, -2.5e-12]))


@st.composite
def near_tie_caps(draw):
    """``(5, S)`` caps whose corners often coincide or come within 12 decimals:
    s at a + b, a or b give or take a few ulps, a = b = s, caps at and around
    ``CAP_SNAP_TOL``, and zeros."""
    snap = [0.0, CAP_SNAP_TOL, float(np.nextafter(CAP_SNAP_TOL, 0)), float(np.nextafter(CAP_SNAP_TOL, 1)),
            CAP_SNAP_TOL + 1e-12, 2 * CAP_SNAP_TOL, -1e-12]
    rate = st.one_of(st.floats(0.0, 4.0), st.sampled_from(snap))
    cols = []
    for _ in range(draw(st.integers(1, 12))):
        a, b, s, e1, e2 = (draw(rate) for _ in range(5))
        tie = draw(st.sampled_from(["none", "sum", "a", "b", "all"]))
        if tie == "all":
            a = b = s = draw(rate)
        elif tie != "none":
            s = _nudged(draw, {"sum": a + b, "a": a, "b": b}[tie])
        cols.append((a, b, s, e1, e2))
    return np.array(cols).T


def _bits(rows):
    return {tuple(row) for row in np.asarray(rows, dtype=float).reshape(-1, 4).view(np.uint64).tolist()}


@given(near_tie_caps())
@example(np.array([[1.0], [1.0], [float(np.nextafter(2.0, 0))], [0.5], [0.0]]))  # two corners an ulp apart
@settings(max_examples=150, deadline=None)
def test_vertex_rows_equal_scalar_vertices(caps):
    """The closed form's rows of each candidate, as a set, are the scalar
    form's bit for bit (near ties included), candidate by candidate."""
    rows, candidate = _vertex_rows(caps)
    assert np.all(np.diff(candidate) >= 0) and len(rows) == len(candidate)
    for r in range(caps.shape[1]):
        want = _vertices(*caps[:, r].tolist())
        assert len(rows[candidate == r]) == len(want)
        assert _bits(rows[candidate == r]) == _bits(want)


def test_structured_candidates_cover_corner_assignment():
    ch = orthogonal_channel()
    axes = [("Q", 1), ("W", 1), ("V", 1), ("U", 2), ("X1", 2), ("X2", 2)]
    best = None
    for row in structured_candidates(ch, axes):
        for p in bound_point(ch, BoundKind.INNER, prob.JointPmf(tuple(n for n, _ in axes), row)):
            if best is None or (p.r1, p.r2, p.re1) > best:
                best = (p.r1, p.r2, p.re1)
    assert best == (1.0, 1.0, 1.0)


def test_search_determinism_and_monotonicity():
    ch = orthogonal_channel()
    a = search_region(ch, "inner", cards=SearchCards(1, 1, 1, 2), samples=100, seed=3)
    b = search_region(ch, "inner", cards=SearchCards(1, 1, 1, 2), samples=100, seed=3)
    assert [p.coords(a.dims) for p in a.frontier] == [p.coords(b.dims) for p in b.frontier]
    big = search_region(ch, "inner", cards=SearchCards(1, 1, 1, 2), samples=400, seed=3)
    for p in a.frontier:
        assert any(dominates(q, p, a.dims) for q in big.frontier)


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(list(BoundKind)),
    channel=st.sampled_from([orthogonal_channel, xor_channel, erasure_cascade_channel]),
    samples=st.integers(0, 12),
    seed=st.integers(0, 2**16),
)
def test_search_frontier_monotone_in_samples(kind, channel, samples, seed):
    ch, cards = channel(), SearchCards(1, 1, 2, 2)
    small = search_region(ch, kind, cards=cards, samples=samples, seed=seed)
    big = search_region(ch, kind, cards=cards, samples=2 * samples, seed=seed)
    for p in small.frontier:
        assert any(dominates(q, p, small.dims) for q in big.frontier)


@pytest.mark.parametrize("stack_floats", [bounds._STACK_FLOATS, 1], ids=["default-stacks", "one-per-stack"])
@pytest.mark.parametrize(
    "channel, kind, samples, min_found",
    [(xor_channel, BoundKind.SEMIDET, 300, 512), (erasure_cascade_channel, BoundKind.OUTER, 100, 300)],
    ids=["xor-semidet", "erasure-outer"],
)
def test_search_equals_exact_maximal_set_across_chunks(
    channel, kind, samples, min_found, stack_floats, monkeypatch
):
    """All candidates' vertices at once: exact ties, the first found wins.

    With one candidate per stack, every candidate is its own merge, so ties
    between the running frontier and later points occur and the merge order
    is checked as well. The erasure cascade has candidates with two corners
    that agree to 12 decimals, so the per-candidate merge is checked too.
    """
    monkeypatch.setattr(bounds, "_STACK_FLOATS", stack_floats)
    ch, cards, seed = channel(), SearchCards(), 5
    reg = search_region(ch, kind, cards=cards, samples=samples, seed=seed)
    resolved = cards.resolved(ch)
    axes = [(n, resolved[n]) for n in BOUNDS[kind].aux_axes] + [("X1", ch.cards[0]), ("X2", ch.cards[1])]
    names = tuple(n for n, _ in axes)
    joints = [
        (src, start + r, prob.JointPmf(names, row))
        for src, start, stack in _candidate_stacks(ch, structured_candidates(ch, axes), samples, seed)
        for r, row in enumerate(stack)
    ]
    found = [((src, i), p.coords(reg.dims)) for src, i, j in joints for p in bound_point(ch, kind, j)]
    assert len(found) > min_found
    c = np.array([coords for _, coords in found])
    ge = (c[:, None, :] >= c[None, :, :]).all(axis=2)  # ge[j, i]: j dominates i
    eq = (c[:, None, :] == c[None, :, :]).all(axis=2)
    earlier = np.triu(np.ones_like(eq), 1)
    maximal = ~((ge & ~eq) | (eq & earlier)).any(axis=0)
    want = sorted((found[i][1], found[i][0]) for i in np.flatnonzero(maximal))[::-1]
    got = [(p.coords(reg.dims), (p.meta["source"], p.meta["index"])) for p in reg.frontier]
    assert got == want


def test_one_candidate_stacks_equal_default_stacks(monkeypatch):
    """Stacks of one candidate give the frontier, metas and report of full stacks."""

    def run():
        reg = search_region(erasure_cascade_channel(), BoundKind.OUTER, samples=100, seed=5)
        rows = [(p.coords(reg.dims), p.meta["source"], p.meta["index"], p.meta["aux"].to_jsonable())
                for p in reg.frontier]
        report = check_condition(erasure_cascade_channel(), Condition.LESS_NOISY, samples=100, seed=2)
        return rows, report.to_jsonable()

    default = run()
    assert len(default[0]) > 1
    monkeypatch.setattr(bounds, "_STACK_FLOATS", 1)
    assert run() == default


def test_search_meta_owns_its_joint():
    """A frontier meta holds a copy of its row, so no candidate stack stays alive."""
    reg = search_region(erasure_cascade_channel(), BoundKind.OUTER, samples=100, seed=5)
    sources = {p.meta["source"] for p in reg.frontier}
    assert sources == {"structured", "sample"}
    for p in reg.frontier:
        aux = p.meta["aux"]
        assert aux.probs.flags.owndata and aux.probs.base is None


def test_search_zero_samples_uses_structured_candidates():
    reg = search_region(orthogonal_channel(), "inner", cards=SearchCards(1, 1, 1, 2), samples=0, seed=0)
    assert len(reg) >= 1
    assert any(dominates(p, RatePoint(1, 1, 1, 0), reg.dims) for p in reg.frontier)


def test_search_meta_records_achieving_distribution():
    reg = search_region(orthogonal_channel(), "inner", cards=SearchCards(1, 1, 1, 2), samples=10, seed=1)
    for p in reg.frontier:
        assert p.meta["source"] in ("structured", "sample")
        aux = p.meta["aux"]
        got = bound_point(orthogonal_channel(), BoundKind.INNER, aux)
        assert any(
            max(abs(q.r1 - p.r1), abs(q.r2 - p.r2), abs(q.re1 - p.re1), abs(q.re2 - p.re2)) < 1e-12
            for q in got
        )


def test_parse_bound_and_cards():
    assert parse_bound("semidet1") is BoundKind.SEMIDET_M1
    assert parse_bound("inner") is BoundKind.INNER
    for token in ("middle", "thm6"):  # thm6 was a historical alias of semidet1
        with pytest.raises(BoundsError):
            parse_bound(token)
    with pytest.raises(BoundsError):
        SearchCards(q=0).resolved(orthogonal_channel())
    resolved = SearchCards().resolved(orthogonal_channel())
    assert resolved == {"Q": 1, "W": 2, "V": 5, "U": 5}


def test_parse_condition_accepts_condition_values_only():
    assert parse_condition(" SemiDet11 ") is Condition.SEMI_DET
    assert parse_condition("lessnoisy46") is Condition.LESS_NOISY
    for token in ("semidet", "lessnoisy"):  # former aliases; "semidet" also names a bound
        with pytest.raises(BoundsError):
            parse_condition(token)


def test_check_condition_xor_exact_zero():
    ch = xor_channel()
    for cond in (Condition.LESS_NOISY, Condition.SEMI_DET):
        report = check_condition(ch, cond, samples=200, seed=0)
        assert report.max_gap == 0.0
        assert not report.violated


def test_check_condition_orthogonal_violates_semidet_ordering():
    report = check_condition(orthogonal_channel(), "semidet11", samples=100, seed=0)
    assert report.violated
    assert report.max_gap > 0.5
    # the witness reproduces the reported gap
    again = condition_gap(orthogonal_channel(), Condition.SEMI_DET, report.witness)
    assert abs(again - report.max_gap) < 1e-9


def test_check_condition_degraded_channel_holds():
    ch = erasure_cascade_channel(0.3)
    report = check_condition(ch, Condition.LESS_NOISY, samples=10_000, seed=4)
    assert not report.violated
    assert report.max_gap <= 1e-9
    assert report.samples >= 10_000


def test_condition_report_jsonable():
    report = check_condition(xor_channel(), "semidet11", samples=10, seed=0)
    payload = report.to_jsonable()
    assert payload["condition"] == "semidet11"
    assert payload["violated"] is False
    rebuilt = prob.JointPmf.from_jsonable(payload["witness"])
    assert rebuilt.probs.shape == tuple(c for _, c in payload["witness"]["axes"])


# The paper's coincidence theorems: time sharing makes the regions convex,
# so the searches must agree by their support functions, not point by point.
COINCIDENCE_SAMPLES = 1000


def _searches(ch, *kinds):
    return [search_region(ch, kind, samples=COINCIDENCE_SAMPLES, seed=1) for kind in kinds]


def test_lessnoisy_outer_and_inner_searches_coincide_on_erasure_cascade():
    regions = _searches(erasure_cascade_channel(), BoundKind.LESSNOISY, BoundKind.OUTER, BoundKind.INNER)
    for a, b in permutations(regions, 2):
        assert convex_gap(a, b) <= 0.01


def test_outer_and_semidet_searches_coincide_on_xor():
    outer, semidet = _searches(xor_channel(), BoundKind.OUTER, BoundKind.SEMIDET)
    assert convex_gap(outer, semidet) <= 0.01
    assert convex_gap(semidet, outer) <= 0.01


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: no inner-search candidate takes U = Y1, so the inner "
    "frontier on xor is the single point (0, 1, 0, 0) and the gap at (1, 0, 0, 0) is 1.0",
)
def test_inner_search_reaches_semidet_region_on_xor():
    semidet, inner = _searches(xor_channel(), BoundKind.SEMIDET, BoundKind.INNER)
    assert convex_gap(semidet, inner) <= 0.01
    assert convex_gap(inner, semidet) <= 0.01


# The paper's region inclusions hold per candidate, through deterministic maps
# of one bound's auxiliaries onto another's (prob.relabel). Caps compare
# within 1e-12; no sampled search is involved.
CAP_TOL = 1e-12


def _random_channel(rng, semi_deterministic=False):
    """A random 2x2x2x3 kernel (its rows Dirichlet(0.5)); with a noiseless Y1
    a random map (x1, x2) -> y1 and a random P(y2|x1,x2)."""
    if semi_deterministic:
        y1 = np.eye(2)[rng.integers(0, 2, (2, 2))]
        return DiscreteCRC(y1[:, :, :, None] * rng.dirichlet(np.ones(3), (2, 2))[:, :, None, :])
    return DiscreteCRC(rng.dirichlet(np.full(6, 0.5), (2, 2)).reshape(2, 2, 2, 3))


def _candidates(rng, ch, axes, draws=50):
    """The structured candidates of ``axes``, then flat and sparse Dirichlet rows."""
    shape = tuple(c for _, c in axes)
    rows = [rng.dirichlet(np.full(int(np.prod(shape)), a), draws) for a in (1.0, 0.1)]
    return np.concatenate([structured_candidates(ch, axes)] + [r.reshape((-1,) + shape) for r in rows])


def _caps(ch, kind, axes, stack):
    return bounds._caps(ch, BOUNDS[kind], [n for n, _ in axes], stack)


INCLUSION_INNER = [("Q", 2), ("W", 2), ("V", 2), ("U", 3), ("X1", 2), ("X2", 2)]


def test_inner_within_outer_per_candidate():
    """With U' = U, V' = (V, W, Q) and W' = (W, X2, Q), each of the five outer
    caps is at least the inner cap, on every candidate of 10 random channels."""
    rng = np.random.default_rng(16)
    cq, cw, cv, cu, cx1, cx2 = (c for _, c in INCLUSION_INNER)
    outer_axes = [("W", cw * cx2 * cq), ("V", cv * cw * cq), ("U", cu), ("X1", cx1), ("X2", cx2)]
    maps = {
        "V": lambda c: c["V"] + cv * (c["W"] + cw * c["Q"]),
        "W": lambda c: c["W"] + cw * (c["X2"] + cx2 * c["Q"]),
    }
    for _ in range(10):
        ch = _random_channel(rng)
        stack = _candidates(rng, ch, INCLUSION_INNER)
        inner = _caps(ch, BoundKind.INNER, INCLUSION_INNER, stack)
        mapped = relabel([n for n, _ in INCLUSION_INNER], stack, outer_axes, maps)
        outer = _caps(ch, BoundKind.OUTER, outer_axes, mapped)
        assert (outer >= inner - CAP_TOL).all(), (outer - inner).min(axis=1)


def test_semidet_equals_outer_at_u_eq_y1_per_candidate():
    """With U' = Y1 = f(X1, X2) and W' = X2, the five outer caps equal the
    semidet caps, on every candidate of 10 random semi-deterministic channels."""
    rng = np.random.default_rng(17)
    semidet_axes = [("V", 5), ("X1", 2), ("X2", 2)]
    outer_axes = [("W", 2), ("V", 5), ("U", 2), ("X1", 2), ("X2", 2)]
    for _ in range(10):
        ch = _random_channel(rng, semi_deterministic=True)
        f = detect_semi_deterministic(ch)
        psi = {"U": lambda c: f[c["X1"], c["X2"]], "W": lambda c: c["X2"]}
        stack = _candidates(rng, ch, semidet_axes)
        semidet = _caps(ch, BoundKind.SEMIDET, semidet_axes, stack)
        mapped = relabel([n for n, _ in semidet_axes], stack, outer_axes, psi)
        outer = _caps(ch, BoundKind.OUTER, outer_axes, mapped)
        assert np.abs(outer - semidet).max() <= CAP_TOL


def _outer_within_lessnoisy(ch, stack, axes):
    """Whether each outer cap is at most the lessnoisy cap on every row (Re caps
    taken positive parts): unmapped, since lessnoisy's caps are outer's with its
    R1 min and its Re2 cap (the ``lessnoisy46`` gap) dropped."""
    outer, lessnoisy = (_caps(ch, kind, axes, stack) for kind in (BoundKind.OUTER, BoundKind.LESSNOISY))
    outer[3:], lessnoisy[3:] = np.maximum(outer[3:], 0.0), np.maximum(lessnoisy[3:], 0.0)
    return bool((outer <= lessnoisy + CAP_TOL).all())


def test_outer_within_lessnoisy_per_candidate_where_the_ordering_holds():
    rng = np.random.default_rng(18)
    axes = [("W", 2), ("V", 3), ("U", 3), ("X1", 2), ("X2", 2)]
    erasure, orth = erasure_cascade_channel(), orthogonal_channel()
    assert _outer_within_lessnoisy(erasure, _candidates(rng, erasure, axes, 200), axes)
    # the orthogonal channel violates lessnoisy46, so some outer Re2 cap is positive
    assert not _outer_within_lessnoisy(orth, _candidates(rng, orth, axes, 200), axes)


def test_accepted_scheme_designs_lie_in_the_inner_polytope():
    """Every design ``derive_scheme_rates`` accepts gives the point (r1, r21 + r22,
    l1, l21) inside the inner polytope of its aux relabeled onto Q = W = 0:
    R1 <= A, R2 <= B, R1 + R2 <= S, Re_i <= min(R_i, [E_i]_+). U is correlated
    with (V, X2): the aux is U = X1 independent of (V, X2), mixed with a flat draw."""
    rng = np.random.default_rng(20)
    scheme_axes = [("V", 2), ("U", 3), ("X1", 2), ("X2", 2)]
    inner_axes = [("Q", 1), ("W", 1)] + scheme_axes
    accepted = {0.0: 0, 0.02: 0}
    for _ in range(40):
        ch = DiscreteCRC(rng.dirichlet(np.full(6, 0.2), (2, 2)).reshape(2, 2, 2, 3))
        source = (rng.dirichlet(np.ones(4))[:, None] * rng.dirichlet(np.ones(2))).reshape(1, 2, 2, 2)
        u_eq_x1 = relabel(("V", "X2", "X1"), source, scheme_axes, {"U": lambda c: c["X1"]})[0]
        t = rng.uniform(0.0, 0.3)
        flat = rng.dirichlet(np.ones(24)).reshape(2, 3, 2, 2)
        aux = prob.JointPmf(("V", "U", "X1", "X2"), (1 - t) * u_eq_x1 + t * flat)
        on_inner = relabel(aux.axes, aux.probs[None], inner_axes, {})  # Q = W = 0
        a, b, s, e1, e2 = _caps(ch, BoundKind.INNER, inner_axes, on_inner)[:, 0]
        info = compute_scheme_informations(ch, aux)
        for eps in accepted:
            for f1, f21, f22 in rng.uniform(0.0, 1.0, (3, 3)):
                r21 = f21 * max(0.0, info.i_v_y2_x2 - eps)
                r1_cap = min(info.i_u_y1 - info.i_u_x2, info.i_u_y1 + info.i_v_y2_x2 - info.i_u_vx2 - r21)
                r1 = f1 * max(0.0, r1_cap)
                try:
                    rates = derive_scheme_rates(ch, aux, r1, r21, f22 * info.i_x2_y2, eps, 8)
                except RateConstraintError:
                    continue
                accepted[eps] += 1
                r1, r2 = rates.r1, rates.r2
                assert r1 <= a + CAP_TOL and r2 <= b + CAP_TOL and r1 + r2 <= s + CAP_TOL
                assert rates.l1 <= min(r1, max(e1, 0.0)) + CAP_TOL
                assert rates.l21 <= min(r2, max(e2, 0.0)) + CAP_TOL
    assert min(accepted.values()) >= 30, accepted
