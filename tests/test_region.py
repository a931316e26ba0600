import hashlib
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crcsec.accept import brute_force_frontier
from crcsec.bounds import search_region
from crcsec.channel import erasure_cascade_channel, xor_channel
from crcsec.gaussian import figure_dataset
from crcsec.prob import sample_joint
from crcsec.region import (
    COORD_TOL,
    DEDUPE_DECIMALS,
    DIM_FIELDS,
    RatePoint,
    Region,
    RegionError,
    _dumps_indent1,
    _gap_grid,
    _jsonable_meta,
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

AXES_2D = ("r1", "r2")


def P(*coords, **kw):
    return RatePoint(*coords, **kw)


def F(dims, *rows, metas=None):
    """The frontier of ``rows`` over ``dims``."""
    return pareto_filter(Region(dims, rows, metas))


def test_dominates_basics():
    assert dominates(P(1, 1, 1, 0), P(1, 0.5, 0.2, 0))
    p = P(0.3, 0.7)
    assert dominates(p, p)
    a, b = P(1, 0), P(0, 1)
    assert not dominates(a, b) and not dominates(b, a)


def test_rate_point_validation():
    # the per-point checks run in Region's constructor
    with pytest.raises(RegionError):
        Region(DIM_FIELDS, [(1.0, 1.0, 1.5, 0.0)])  # re1 > r1
    with pytest.raises(RegionError):
        Region(AXES_2D, [(-0.5, 0.0)])
    with pytest.raises(RegionError):
        Region(AXES_2D, [(float("nan"), 0.0)])
    # tiny negatives snap to zero
    assert Region(AXES_2D, [(-1e-12, 0.0)]).rows[0, 0] == 0.0


def per_point_rule(row, dims):
    """The check each rate point made of its own coordinates before regions
    held arrays, written out: a coordinate outside ``dims`` is 0. The row
    clipped, or the message of the first check it fails."""
    vals = dict.fromkeys(DIM_FIELDS, 0.0)
    vals.update(zip(dims, row))
    for nm in DIM_FIELDS:
        v = float(vals[nm])
        if not (v == v and abs(v) != float("inf")):
            return f"{nm} must be finite, got {v!r}"
        if v < -COORD_TOL:
            return f"{nm} must be nonnegative, got {v}"
        vals[nm] = max(v, 0.0)
    if vals["re1"] > vals["r1"] + COORD_TOL:
        return f"re1={vals['re1']} exceeds r1={vals['r1']}"
    if vals["re2"] > vals["r2"] + COORD_TOL:
        return f"re2={vals['re2']} exceeds r2={vals['r2']}"
    return [vals[d] for d in dims]


EDGE_VALUES = [0.0, -0.0, -1e-12, -COORD_TOL, -1.5e-9, -0.5, COORD_TOL / 2, 0.3, 0.3 + 1e-9, 0.3 + 2e-9, 1.0,
               float("nan"), float("inf"), float("-inf")]
GOOD = {"r1": 0.5, "r2": 0.4, "re1": 0.3, "re2": 0.2}


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
        Region(dims, [bad])
    assert str(expected.value) == per_point_rule(bad, dims)
    good = [[GOOD[d] for d in dims], [-1e-12] * len(dims)]
    rows = np.array(good + [bad, [float("nan")] * len(dims)])
    with pytest.raises(RegionError, match=f"^{re.escape(str(expected.value))}$") as err:
        Region(dims, rows)
    assert err.value.row == 2
    clipped = Region(dims, np.array(good + [[-0.0] * len(dims)])).rows
    assert clipped.tolist() == [good[0], [0.0] * len(dims), [0.0] * len(dims)]
    assert np.signbit(clipped[2]).all()  # as max(-0.0, 0.0) keeps -0.0


@st.composite
def checked_cases(draw):
    """Active dims in any order and rows of values near the check's edges."""
    dims = tuple(draw(st.lists(st.sampled_from(DIM_FIELDS), min_size=1, max_size=4, unique=True)))
    value = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0))
    rows = draw(st.lists(st.lists(value, min_size=len(dims), max_size=len(dims)), max_size=8))
    return dims, rows


@settings(max_examples=300, deadline=None)
@given(case=checked_cases())
@example(case=(DIM_FIELDS, [[GOOD[d] for d in DIM_FIELDS], [-1e-12] * 4, [-0.0] * 4]))
@example(case=(("r1", "re1"), [[-COORD_TOL, COORD_TOL / 2]]))  # Re1 <= R1 compares clipped values
def test_region_check_matches_the_per_point_rule(case):
    """The constructor's one array check gives each row what the per-point
    rule gave it: the same clipped floats (-0.0 kept, -1e-12 clipped to 0)
    or, for the first failing row, the same message."""
    dims, rows = case
    want = [per_point_rule(row, dims) for row in rows]
    failing = [i for i, w in enumerate(want) if isinstance(w, str)]
    if failing:
        with pytest.raises(RegionError, match=f"^{re.escape(want[failing[0]])}$") as err:
            Region(dims, rows)
        assert err.value.row == failing[0]
    else:
        got = Region(dims, rows).rows
        assert got.shape == (len(rows), len(dims))
        assert got.view(np.uint64).tolist() == np.array(want, dtype=float).reshape(got.shape).view(np.uint64).tolist()


def test_region_holds_a_read_only_copy_of_its_rows():
    src = np.array([[0.5, 0.25], [0.1, 0.9]])
    reg = Region(AXES_2D, src, ["a", "b"])
    with pytest.raises(ValueError):
        reg.rows[0, 0] = 1.0
    src[0, 0] = 7.0
    assert reg.rows.tolist() == [[0.5, 0.25], [0.1, 0.9]]
    assert len(reg) == 2 and reg.metas == ("a", "b")
    assert [(p.coords(reg.dims), p.meta) for p in reg.frontier] == [((0.5, 0.25), "a"), ((0.1, 0.9), "b")]
    assert len(Region(AXES_2D)) == 0 and Region(AXES_2D).rows.shape == (0, 2)
    with pytest.raises(RegionError, match="1 metas for 2 rows"):
        Region(AXES_2D, src, ["a"])
    with pytest.raises(RegionError, match=r"\(N, 2\)"):
        Region(AXES_2D, np.ones((2, 3)))
    with pytest.raises(RegionError, match="invalid dims"):
        Region(("r1", "x"), src)


def _frontier_digest(reg):
    """``(len, SHA-256)`` of a region's dims and of its frontier's
    ``(coords, meta)`` sequence: coordinates as float bits, metas as JSON."""
    h = hashlib.sha256(repr(reg.dims).encode())
    for p in reg.frontier:
        h.update(np.array(p.coords(reg.dims)).tobytes())
        h.update(json.dumps(_jsonable_meta(p.meta), sort_keys=True).encode())
    return len(reg), h.hexdigest()


# Recorded from the point-tuple regions that preceded array regions.
FIGURE_DIGESTS = {
    0.25: (401, "ef31261b30c76a6684f7222ee4124601fdb221b207204de46560fff87ba72cbb"),
    0.5: (401, "2bd6fe49c291f27f2a1b6968dd4e173fe6058e35ec4ca1e02b15fc6c4e21134a"),
    0.75: (401, "a5dffc6401b08c1bdcd69b9d83e8820ce2d8558aada3137b5eb61648f8862604"),
    1.0: (401, "b5ab7579c93eb4e11bfa7e49e350fd5cfb734eb6dbcc66cb32b7132add11c98b"),
}
SEARCH_DIGESTS = [
    (erasure_cascade_channel, "outer", 100, 5, (9, "f0139f1761a2017bc5d6b6a6e0f140c5b25d518371d8fb77262777ad566ff0df")),
    (xor_channel, "outer", 300, 1, (51, "d6ca46ef4ec0e3618d464015d137e7a008c3ea960d15d91a1bed85f38cb42838")),
]


def test_frontiers_keep_their_recorded_points_and_metas_in_order():
    assert {b: _frontier_digest(reg) for b, reg in figure_dataset()} == FIGURE_DIGESTS
    for channel, bound, samples, seed, want in SEARCH_DIGESTS:
        assert _frontier_digest(search_region(channel(), bound, samples=samples, seed=seed)) == want


def test_pareto_filter_small():
    reg = F(AXES_2D, (1, 1), (0, 2), (0.5, 0.5))
    assert reg.rows.tolist() == [[1.0, 1.0], [0.0, 2.0]]
    assert len(F(AXES_2D, (0.3, 0.4))) == 1


def test_pareto_filter_idempotent_and_brute_force():
    rng = np.random.default_rng(17)
    rows = [(a, b, min(a, c), min(b, d)) for a, b, c, d in rng.uniform(0, 1, (1000, 4)).tolist()]
    reg = F(DIM_FIELDS, *rows)
    again = pareto_filter(reg)
    assert again.rows.tolist() == reg.rows.tolist()
    # brute-force: output maximal, every input dominated by some output
    frontier = set(map(tuple, reg.rows.tolist()))
    for ci in frontier:
        assert not any(c != ci and all(a >= b for a, b in zip(c, ci)) for c in rows)
    for ci in rows:
        assert any(all(a >= b for a, b in zip(f, ci)) for f in frontier)


@st.composite
def tie_heavy_rows(draw):
    """Active dims (one to four columns) plus rows on a k/3 or k/4 grid, nudged
    by 4e-16, 1e-13 or 4.9e-13, with repeats. k/4 +- 4.9e-13 share their
    12-decimal key, 9.8e-13 apart."""
    dims = draw(st.sampled_from([("r1",), ("r2",), AXES_2D, ("r2", "re2"), ("r1", "r2", "re1"), DIM_FIELDS]))
    grid = st.builds(
        lambda k, d, nudge: max(k / d + nudge, 0.0),
        st.integers(0, 6),
        st.sampled_from([3, 4]),
        st.sampled_from([0.0, 0.0, 4e-16, -4e-16, 1e-13, -1e-13, 4.9e-13, -4.9e-13]),
    )
    full = [(r1, r2, min(e1, r1), min(e2, r2)) for r1, r2, e1, e2 in
            draw(st.lists(st.tuples(grid, grid, grid, grid), max_size=40))]
    repeats = draw(st.lists(st.integers(0, max(len(full) - 1, 0)), max_size=10)) if full else []
    full += [full[i] for i in repeats]
    cols = [DIM_FIELDS.index(d) for d in dims]
    return dims, [tuple(row[c] for c in cols) for row in full]


@settings(max_examples=300, deadline=None)
@given(case=tie_heavy_rows())
@example(case=(("r1",), [(0.25 - 4.9e-13,), (0.25 + 4.9e-13,)]))  # one key: the first wins
def test_pareto_filter_matches_brute_force_on_ties(case):
    dims, rows = case
    first: dict[tuple[float, ...], int] = {}
    for i, row in enumerate(rows):
        first.setdefault(tuple(round(c, DEDUPE_DECIMALS) for c in row), i)
    reg = F(dims, *rows, metas=range(len(rows)))
    got = list(map(tuple, reg.rows.tolist()))
    assert set(got) == brute_force_frontier([rows[i] for i in first.values()])
    assert got == sorted(got, reverse=True)
    # antichain: no frontier row dominates another
    for i, p in enumerate(got):
        assert not any(all(a >= b for a, b in zip(q, p)) for j, q in enumerate(got) if j != i)
    # the first occurrence of each 12-decimal key keeps its meta
    for row, meta in zip(got, reg.metas):
        assert first[tuple(round(c, DEDUPE_DECIMALS) for c in row)] == meta
    # idempotent, metas included
    again = pareto_filter(reg)
    assert again.rows.tolist() == reg.rows.tolist() and again.metas == reg.metas


def test_merge_dominates_both_inputs():
    a = F(AXES_2D, (1, 0), (0.4, 0.4), metas=["a0", "a1"])
    b = F(AXES_2D, (0, 1), (0.5, 0.5), metas=["b0", "b1"])
    m = merge(a, b)
    for reg in (a, b):
        for row in reg.rows:
            assert contains_point(m, row, 0.0)
    assert m.rows.tolist() == [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]] and m.metas == ("a0", "b1", "b0")
    with pytest.raises(RegionError):
        merge(a, F(("r1", "r2", "re1"), (0, 1, 0)))


def test_contains_point_tolerance():
    reg = F(AXES_2D, (1, 0.5))
    assert contains_point(reg, (1, 0.5), 0.0)
    assert contains_point(reg, (0.2, 0.2), 0.0)
    assert not contains_point(reg, (1 + 2e-3, 0.5), 1e-3)
    assert contains_point(reg, (1 + 0.5e-3, 0.5), 1e-3)
    assert not contains_point(Region(AXES_2D), (0.0, 0.0))


def test_inclusion_fraction():
    a = F(AXES_2D, (1, 0), (0, 1))
    assert inclusion_fraction(a, a, 0.0) == 1.0
    empty = Region(AXES_2D)
    assert inclusion_fraction(empty, a, 0.0) == 1.0
    b = F(AXES_2D, (0.5, 0.5))
    assert inclusion_fraction(a, b, 0.0) == 0.0
    assert inclusion_fraction(a, b, 0.5) == 1.0
    with pytest.raises(RegionError):
        inclusion_fraction(b, F(("r1", "r2", "re1"), (1, 0, 1)), 0.0)


def test_support_sees_a_point_beyond_the_time_sharing_line():
    axes = F(AXES_2D, (1, 0), (0, 1))
    reg = F(AXES_2D, (1, 0), (0, 1), (0.6, 0.6))
    half = np.array([[0.5, 0.5]])
    assert support(reg, half)[0] == pytest.approx(0.6)
    assert support(axes, half)[0] == pytest.approx(0.5)
    assert convex_gap(reg, axes) == pytest.approx(0.1)
    assert convex_gap(axes, reg) == 0.0


def test_support_ignores_collinear_points_and_keeps_midpoints():
    axes = F(AXES_2D, (1, 0), (0, 1))
    reg = F(AXES_2D, (1, 0), (0, 1), (0.5, 0.5))
    grid = _gap_grid(2)
    assert np.array_equal(support(reg, grid), support(axes, grid))
    # midpoints of frontier rows pass the support test
    rng = np.random.default_rng(3)
    reg = F(AXES_2D, *rng.uniform(0, 1, (40, 2)))
    h = support(reg, grid)
    seq = sorted(map(tuple, reg.rows.tolist()))
    for p, q in zip(seq, seq[1:]):
        assert (grid @ ((np.array(p) + q) / 2) <= h + 1e-12).all()
    with pytest.raises(RegionError):
        convex_gap(reg, F(("r1", "r2", "re1"), (1, 0, 0.5)))


def test_support_of_empty_frontier_is_zero_and_grid_sizes():
    for d, size in ((2, 11), (3, 66), (4, 286)):
        grid = _gap_grid(d)
        assert grid.shape == (size, d) and np.allclose(grid.sum(axis=1), 1.0)
        assert np.array_equal(support(Region(DIM_FIELDS[:d]), grid), np.zeros(size))
    with pytest.raises(RegionError):
        support(Region(AXES_2D, [(1, 1)]), np.ones((1, 3)))


def test_project():
    reg = F(DIM_FIELDS, (1, 0.2, 0.5, 0.1), (0.5, 0.9, 0.5, 0.2), metas=["a", "b"])
    flat = project(reg, AXES_2D)
    assert flat.dims == AXES_2D
    assert flat.rows.tolist() == [[1.0, 0.2], [0.5, 0.9]] and flat.metas == ("a", "b")
    assert project(reg, ("r2", "r1")).rows.tolist() == [[0.9, 0.5], [0.2, 1.0]]
    with pytest.raises(RegionError):
        project(flat, ("r1", "re2"))


def test_export_import_round_trip(tmp_path):
    reg = F(DIM_FIELDS, (1, 0.25, 0.75, 0.0), (0.123456789123, 0.9, 0.1, 0.5), metas=[{"k": 1}, None])
    path = tmp_path / "region.csv"
    # bench/tracing.py reads the path as args[1] and the sidecar by keyword
    assert list(inspect.signature(export_csv).parameters) == ["region", "path", "sidecar"]
    export_csv(reg, path, sidecar=tmp_path / "meta.json")
    text = path.read_text()
    assert text.splitlines()[0] == "R1,R2,Re1,Re2"
    assert json.loads((tmp_path / "meta.json").read_text()) == {"0": {"k": 1}, "1": None}
    back = import_csv(path)
    assert back.dims == DIM_FIELDS
    assert np.abs(back.rows - reg.rows).max() < 1e-9


def test_export_round_trips_figure_dataset(tmp_path):
    for b, reg in figure_dataset():
        path = tmp_path / f"b{b}.csv"
        export_csv(reg, path)
        back = import_csv(path)
        assert back.dims == reg.dims
        got, want = sorted(map(tuple, back.rows.tolist())), sorted(map(tuple, reg.rows.tolist()))
        assert len(got) == len(want)
        for a_row, b_row in zip(got, want):
            assert max(abs(x - y) for x, y in zip(a_row, b_row)) < 1e-9


def test_export_empty_and_singleton(tmp_path):
    export_csv(Region(AXES_2D), tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "R1,R2\n"
    export_csv(F(AXES_2D, (0.5, 0.25)), tmp_path / "one.csv")
    assert (tmp_path / "one.csv").read_text() == "R1,R2\n0.500000000,0.250000000\n"


def test_import_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("R1,R2\n0.5\n")
    with pytest.raises(RegionError, match="line 2"):
        import_csv(path)
    path.write_text("R1,R2\n0.4,0.1\n0.2,0.3,0.9\n")
    with pytest.raises(RegionError, match="line 3"):
        import_csv(path)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("R1,R2\n0.5,abc\n", 2, "could not convert string to float: 'abc'"),
        ("R1,R2\n0.4,0.1\n\n-0.2,0.1\n", 4, "r1 must be nonnegative, got -0.2"),
        ("R1,R2\n0.4,nan\n", 2, "r2 must be finite, got nan"),
        ("R1,R2,Re1\n0.4,0.1,0.1\n0.2,0.3,0.5\n", 3, "re1=0.5 exceeds r1=0.2"),
    ],
    ids=["non-numeric", "negative", "nan", "re1-above-r1"],
)
def test_import_names_the_path_and_line_of_a_bad_value(tmp_path, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(RegionError, match=f"^{re.escape(f'{path}, line {line}: {message}')}$"):
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
