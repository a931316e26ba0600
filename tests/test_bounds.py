from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcsec import bounds, prob
from crcsec.bounds import (
    BOUNDS,
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
)
from crcsec.channel import erasure_cascade_channel, induce_joint, orthogonal_channel, xor_channel
from crcsec.region import RatePoint, convex_gap, dominates

H2_011 = 0.4999159581645280


def joint_with(axes_cards, assign, x1_dist=None, x2_dist=None):
    """Joint with aux variables as deterministic maps of (x1, x2)."""
    names = [n for n, _ in axes_cards]
    cards = dict(axes_cards)
    probs = np.zeros(tuple(c for _, c in axes_cards))
    x1_dist = x1_dist if x1_dist is not None else [1.0 / cards["X1"]] * cards["X1"]
    x2_dist = x2_dist if x2_dist is not None else [1.0 / cards["X2"]] * cards["X2"]
    for x1, x2 in product(range(cards["X1"]), range(cards["X2"])):
        idx = tuple(
            x1 if n == "X1" else x2 if n == "X2" else assign.get(n, lambda a, b: 0)(x1, x2) % cards[n]
            for n in names
        )
        probs[idx] += x1_dist[x1] * x2_dist[x2]
    return prob.JointPmf(tuple(names), probs)


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
