import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crcsec.accept import brute_force_frontier
from crcsec.prob import sample_joint
from crcsec.region import (
    DEDUPE_DECIMALS,
    DIM_FIELDS,
    RatePoint,
    Region,
    RegionError,
    _dumps_indent1,
    _gap_grid,
    checked_rows,
    contains_point,
    convex_gap,
    dominates,
    export_csv,
    import_csv,
    inclusion_fraction,
    merge,
    pareto_filter,
    project,
    support,
)


def P(*coords, **kw):
    return RatePoint(*coords, **kw)


def test_dominates_basics():
    assert dominates(P(1, 1, 1, 0), P(1, 0.5, 0.2, 0))
    p = P(0.3, 0.7)
    assert dominates(p, p)
    a, b = P(1, 0), P(0, 1)
    assert not dominates(a, b) and not dominates(b, a)


def test_rate_point_validation():
    with pytest.raises(RegionError):
        RatePoint(1.0, 1.0, 1.5, 0.0)  # re1 > r1
    with pytest.raises(RegionError):
        RatePoint(-0.5, 0.0)
    with pytest.raises(RegionError):
        RatePoint(float("nan"), 0.0)
    # tiny negatives snap to zero
    assert RatePoint(-1e-12, 0.0).r1 == 0.0


@pytest.mark.parametrize(
    "dims, bad",
    [
        (("r1", "r2", "re1"), [0.1, 0.1, 0.5]),
        (("r1", "r2", "re1"), [float("nan"), 0.0, 0.0]),
        (("r1", "r2"), [0.2, -0.5]),
        (("r2", "re2"), [0.1, 0.5]),
        (DIM_FIELDS, [0.3, 0.2, 0.1, float("inf")]),
    ],
)
def test_checked_rows_raise_the_first_failing_points_error(dims, bad):
    with pytest.raises(RegionError) as expected:
        RatePoint(**dict(zip(dims, bad)))
    good = [[{"r1": 0.5, "r2": 0.4, "re1": 0.3, "re2": 0.2}[d] for d in dims], [-1e-12] * len(dims)]
    rows = np.array(good + [bad, [float("nan")] * len(dims)])
    with pytest.raises(RegionError, match=f"^{re.escape(str(expected.value))}$"):
        checked_rows(rows, dims)
    clipped = checked_rows(np.array(good + [[-0.0] * len(dims)]), dims)
    assert clipped.tolist() == [good[0], [0.0] * len(dims), [0.0] * len(dims)]
    assert np.signbit(clipped[2]).all()  # as max(-0.0, 0.0) keeps -0.0


def test_pareto_filter_small():
    pts = [P(1, 1), P(0, 2), P(0.5, 0.5)]
    reg = pareto_filter(pts, ("r1", "r2"))
    assert {p.coords(("r1", "r2")) for p in reg.frontier} == {(1.0, 1.0), (0.0, 2.0)}
    single = pareto_filter([P(0.3, 0.4)], ("r1", "r2"))
    assert len(single) == 1


def test_pareto_filter_idempotent_and_brute_force():
    rng = np.random.default_rng(17)
    pts = [P(a, b, min(a, c), min(b, d)) for a, b, c, d in rng.uniform(0, 1, (1000, 4))]
    dims = ("r1", "r2", "re1", "re2")
    reg = pareto_filter(pts, dims)
    again = pareto_filter(reg.frontier, dims)
    assert {p.coords(dims) for p in reg.frontier} == {p.coords(dims) for p in again.frontier}
    # brute-force: output maximal, every input dominated by some output
    coords = [p.coords(dims) for p in pts]
    frontier = {p.coords(dims) for p in reg.frontier}
    for ci in frontier:
        assert not any(c != ci and all(a >= b for a, b in zip(c, ci)) for c in coords)
    for ci in coords:
        assert any(all(a >= b for a, b in zip(f, ci)) for f in frontier)


@st.composite
def tie_heavy_points(draw):
    """Active dims plus points on a k/3 or k/4 grid, nudged by 4e-16, 1e-13 or
    4.9e-13, with repeats. k/4 +- 4.9e-13 share their 12-decimal key, 9.8e-13 apart."""
    dims = draw(
        st.sampled_from([("r1",), ("re2",), ("r1", "r2"), ("r2", "re1"), ("r1", "r2", "re1"), DIM_FIELDS])
    )
    grid = st.builds(
        lambda k, d, nudge: max(k / d + nudge, 0.0),
        st.integers(0, 6),
        st.sampled_from([3, 4]),
        st.sampled_from([0.0, 0.0, 4e-16, -4e-16, 1e-13, -1e-13, 4.9e-13, -4.9e-13]),
    )
    rows = draw(st.lists(st.tuples(grid, grid, grid, grid), max_size=40))
    points = [P(r1, r2, min(e1, r1), min(e2, r2)) for r1, r2, e1, e2 in rows]
    repeats = draw(st.lists(st.integers(0, max(len(points) - 1, 0)), max_size=10)) if points else []
    points += [points[i] for i in repeats]
    return dims, [P(*p.coords(DIM_FIELDS), meta=i) for i, p in enumerate(points)]


@settings(max_examples=300, deadline=None)
@given(case=tie_heavy_points())
@example(case=(("r1",), [P(0.25 - 4.9e-13, meta=0), P(0.25 + 4.9e-13, meta=1)]))  # one key: the first wins
def test_pareto_filter_matches_brute_force_on_ties(case):
    dims, points = case
    first: dict[tuple[float, ...], RatePoint] = {}
    for p in points:
        first.setdefault(tuple(round(c, DEDUPE_DECIMALS) for c in p.coords(dims)), p)
    reg = pareto_filter(points, dims)
    got = [p.coords(dims) for p in reg.frontier]
    assert set(got) == brute_force_frontier(list(first.values()), dims)
    assert got == sorted(got, reverse=True)
    # antichain: no frontier point dominates another
    for i, p in enumerate(reg.frontier):
        assert not any(dominates(q, p, dims) for j, q in enumerate(reg.frontier) if j != i)
    # the first occurrence of each 12-decimal key keeps its meta
    for p in reg.frontier:
        assert first[tuple(round(c, DEDUPE_DECIMALS) for c in p.coords(dims))] is p
    # idempotent, metas included
    again = pareto_filter(reg.frontier, dims)
    assert [(p.coords(dims), p.meta) for p in again.frontier] == [
        (p.coords(dims), p.meta) for p in reg.frontier
    ]


def test_merge_dominates_both_inputs():
    a = pareto_filter([P(1, 0), P(0.4, 0.4)], ("r1", "r2"))
    b = pareto_filter([P(0, 1), P(0.5, 0.5)], ("r1", "r2"))
    m = merge(a, b)
    for reg in (a, b):
        for p in reg.frontier:
            assert contains_point(m, p, 0.0)
    with pytest.raises(RegionError):
        merge(a, pareto_filter([P(0, 1)], ("r1", "r2", "re1")))


def test_contains_point_tolerance():
    reg = pareto_filter([P(1, 0.5)], ("r1", "r2"))
    assert contains_point(reg, P(1, 0.5), 0.0)
    assert contains_point(reg, P(0.2, 0.2), 0.0)
    assert not contains_point(reg, P(1 + 2e-3, 0.5), 1e-3)
    assert contains_point(reg, P(1 + 0.5e-3, 0.5), 1e-3)


def test_inclusion_fraction():
    a = pareto_filter([P(1, 0), P(0, 1)], ("r1", "r2"))
    assert inclusion_fraction(a, a, 0.0) == 1.0
    empty = Region((), ("r1", "r2"))
    assert inclusion_fraction(empty, a, 0.0) == 1.0
    b = pareto_filter([P(0.5, 0.5)], ("r1", "r2"))
    assert inclusion_fraction(a, b, 0.0) == 0.0
    assert inclusion_fraction(a, b, 0.5) == 1.0


AXES_2D = ("r1", "r2")


def test_support_sees_a_point_beyond_the_time_sharing_line():
    axes = pareto_filter([P(1, 0), P(0, 1)], AXES_2D)
    reg = pareto_filter([P(1, 0), P(0, 1), P(0.6, 0.6)], AXES_2D)
    half = np.array([[0.5, 0.5]])
    assert support(reg, half)[0] == pytest.approx(0.6)
    assert support(axes, half)[0] == pytest.approx(0.5)
    assert convex_gap(reg, axes) == pytest.approx(0.1)
    assert convex_gap(axes, reg) == 0.0


def test_support_ignores_collinear_points_and_keeps_midpoints():
    axes = pareto_filter([P(1, 0), P(0, 1)], AXES_2D)
    reg = pareto_filter([P(1, 0), P(0, 1), P(0.5, 0.5)], AXES_2D)
    grid = _gap_grid(2)
    assert np.array_equal(support(reg, grid), support(axes, grid))
    # midpoints of frontier points pass the support test
    rng = np.random.default_rng(3)
    reg = pareto_filter([P(a, b) for a, b in rng.uniform(0, 1, (40, 2))], AXES_2D)
    h = support(reg, grid)
    seq = sorted(p.coords(AXES_2D) for p in reg.frontier)
    for p, q in zip(seq, seq[1:]):
        assert (grid @ ((np.array(p) + q) / 2) <= h + 1e-12).all()
    with pytest.raises(RegionError):
        convex_gap(reg, pareto_filter([P(1, 0, 0.5)], ("r1", "r2", "re1")))


def test_support_of_empty_frontier_is_zero_and_grid_sizes():
    for d, size in ((2, 11), (3, 66), (4, 286)):
        grid = _gap_grid(d)
        assert grid.shape == (size, d) and np.allclose(grid.sum(axis=1), 1.0)
        assert np.array_equal(support(Region((), DIM_FIELDS[:d]), grid), np.zeros(size))
    with pytest.raises(RegionError):
        support(Region((P(1, 1),), AXES_2D), np.ones((1, 3)))


def test_project():
    reg = pareto_filter([P(1, 0.2, 0.5, 0.1), P(0.5, 0.9, 0.5, 0.2)], ("r1", "r2", "re1", "re2"))
    flat = project(reg, ("r1", "r2"))
    assert {p.coords(("r1", "r2")) for p in flat.frontier} == {(1.0, 0.2), (0.5, 0.9)}
    with pytest.raises(RegionError):
        project(flat, ("r1", "re2"))


def test_export_import_round_trip(tmp_path):
    reg = pareto_filter(
        [P(1, 0.25, 0.75, 0.0), P(0.123456789123, 0.9, 0.1, 0.5)],
        ("r1", "r2", "re1", "re2"),
    )
    path = tmp_path / "region.csv"
    export_csv(reg, path, sidecar=tmp_path / "meta.json")
    text = path.read_text()
    assert text.splitlines()[0] == "R1,R2,Re1,Re2"
    back = import_csv(path)
    assert back.dims == ("r1", "r2", "re1", "re2")
    got = sorted(p.coords(back.dims) for p in back.frontier)
    want = sorted(p.coords(reg.dims) for p in reg.frontier)
    for a, b in zip(got, want):
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_export_round_trips_figure_dataset(tmp_path):
    from crcsec.gaussian import figure_dataset

    for b, reg in figure_dataset():
        path = tmp_path / f"b{b}.csv"
        export_csv(reg, path)
        back = import_csv(path)
        assert back.dims == reg.dims
        got = sorted(p.coords(reg.dims) for p in back.frontier)
        want = sorted(p.coords(reg.dims) for p in reg.frontier)
        assert len(got) == len(want)
        for a_row, b_row in zip(got, want):
            assert max(abs(x - y) for x, y in zip(a_row, b_row)) < 1e-9


def test_export_empty_and_singleton(tmp_path):
    empty = Region((), ("r1", "r2"))
    export_csv(empty, tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "R1,R2\n"
    export_csv(pareto_filter([P(0.5, 0.25)], ("r1", "r2")), tmp_path / "one.csv")
    assert (tmp_path / "one.csv").read_text() == "R1,R2\n0.500000000,0.250000000\n"


def test_import_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("R1,R2\n0.5\n")
    with pytest.raises(RegionError, match="line 2"):
        import_csv(path)
    path.write_text("R1,R2\n0.4,0.1\n0.2,0.3,0.9\n")
    with pytest.raises(RegionError, match="line 3"):
        import_csv(path)


def test_import_rejects_repeated_header(tmp_path):
    path = tmp_path / "repeated.csv"
    path.write_text("R1,R2,R1\n0.5,0.2,0.5\n")
    with pytest.raises(RegionError, match="repeated"):
        import_csv(path)


SPECIAL_FLOATS = [-0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf")]
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),  # text: non-ASCII and control characters too
    st.floats(), st.sampled_from(SPECIAL_FLOATS),
    st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(SPECIAL_FLOATS))),  # float vectors
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
REAL_METAS = [
    {"0": {"source": "sample", "index": 7, "aux": sample_joint([("V", 3), ("X1", 2), ("X2", 2)], 4).to_jsonable()}},
    {str(k): {"alpha": a} for k, a in enumerate(np.linspace(0.0, 1.0, 11).tolist())},
]


@given(JSON_VALUES)
@example(REAL_METAS[0])
@example(REAL_METAS[1])
@example([[], {}, [[]], {"": {}}, ("tuple", 1.5), "\u00e9\n\"", [1.0, 2]])
@settings(max_examples=100, deadline=None)
def test_sidecar_writer_equals_json_dumps_indent_1(obj):
    assert _dumps_indent1(obj) == json.dumps(obj, indent=1)


def test_sidecar_writer_leaves_other_values_to_json():
    """Non-str keys and values json cannot encode take ``json.dumps`` itself."""
    assert _dumps_indent1({1: [2.0], None: True}) == json.dumps({1: [2.0], None: True}, indent=1)
    with pytest.raises(TypeError):
        _dumps_indent1({"a": [object()]})
