import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crcsec import cli
from crcsec.channel import GaussianCRC
from crcsec.gaussian import (
    FAMILIES,
    FIGURE_B_VALUES,
    GaussError,
    GaussMode,
    SecrecyClass,
    classify_gaussian,
    corner,
    corners,
    figure_dataset,
    parse_mode,
    psi,
    sweep,
)
from crcsec.region import Region, pareto_filter

WEAK, DEGRADED, SECRECY = GaussMode.WEAK, GaussMode.DEGRADED, GaussMode.SECRECY

# frozen from a 40-digit evaluation of the closed forms
PSI_20 = 2.1961587113893801
PSI_20_MINUS_PSI_5 = 0.9036774610288021
PSI_20_OVER_6 = 1.0577386087099680
PSI_10 = 1.7297158093186486
PSI_10_MINUS_PSI_2_5 = 0.8260383482898466
PSI_DEG_R2 = 1.7598452725903307  # psi((10 + 20 + sqrt(200)) / 3.5)
PSI_180 = 3.7499229435416027


def test_psi_values_and_domain():
    assert psi(0.0) == 0.0
    assert psi(3.0) == 1.0
    assert abs(psi(20.0) - PSI_20) < 1e-12
    with pytest.raises(GaussError):
        psi(-0.1)
    with pytest.raises(GaussError):
        psi(float("nan"))


def test_psi_increasing_and_concave():
    xs = np.linspace(0.0, 50.0, 201)
    vals = [psi(x) for x in xs]
    diffs = np.diff(vals)
    assert np.all(diffs > 0.0)
    assert np.all(np.diff(diffs) < 1e-12)


def test_weak_point_frozen_values():
    g = GaussianCRC(a=1.0, b=0.5, p1=20.0, p2=20.0)
    pt = corner(g, WEAK, 1.0)
    assert abs(pt.r1 - PSI_20) < 1e-12
    assert abs(pt.re1 - PSI_20_MINUS_PSI_5) < 1e-12
    assert abs(pt.r2 - PSI_20_OVER_6) < 1e-12
    assert pt.re2 == 0.0
    assert pt.meta == {"alpha": 1.0}


def test_weak_point_edge_cases():
    g1 = GaussianCRC(a=1.0, b=1.0, p1=20.0, p2=20.0)
    for alpha in (0.0, 0.3, 1.0):
        assert corner(g1, WEAK, alpha).re1 == 0.0
    zero = corner(GaussianCRC(1.0, 0.5, 20.0, 20.0), WEAK, 0.0)
    assert zero.r1 == 0.0 and zero.re1 == 0.0
    with pytest.raises(GaussError):
        corner(GaussianCRC(1.0, 1.5, 20.0, 20.0), WEAK, 0.5)
    with pytest.raises(GaussError):
        corner(GaussianCRC(1.0, 0.5, 20.0, 20.0), WEAK, 1.5)
    with pytest.raises(GaussError):
        sweep(GaussianCRC(1.0, 1.5, 20.0, 20.0), WEAK, 10)


def test_weak_family_inside_its_tolerance(tmp_path):
    # |b| exceeds 1 by less than HYPOTHESIS_TOL: Re1 is the positive part, 0
    g = GaussianCRC(a=1.0, b=1.0 + 5e-10, p1=20.0, p2=20.0)
    assert corner(g, WEAK, 0.5).re1 == 0.0
    out = tmp_path / "g"
    argv = ["gauss", "--mode", "weak", "--a", "1", "--b", "1.0000000005", "--p1", "20", "--p2", "20",
            "--steps", "50", "--out", str(out)]
    assert cli.main(argv) == 0
    for name in ("sweep.csv", "frontier.csv"):
        lines = (out / name).read_text().splitlines()
        col = lines[0].split(",").index("Re1")
        assert len(lines) > 1
        assert all(row.split(",")[col] == "0.000000000" for row in lines[1:])


def test_degraded_corner_frozen_values():
    g = GaussianCRC(a=2.0, b=0.5, p1=20.0, p2=20.0)
    pt = corner(g, DEGRADED, 0.5)
    assert abs(pt.r1 - PSI_10) < 1e-12
    assert abs(pt.re1 - PSI_10_MINUS_PSI_2_5) < 1e-12
    assert abs(pt.r2 - PSI_DEG_R2) < 1e-12
    assert corner(g, DEGRADED, 0.0).r1 == 0.0


def test_degraded_hypothesis_checks():
    with pytest.raises(GaussError):
        corner(GaussianCRC(1.0, 0.5, 20.0, 20.0), DEGRADED, 0.5)  # a*b != 1
    with pytest.raises(GaussError):
        corner(GaussianCRC(1.0, 1.0, 20.0, 20.0), DEGRADED, 0.5)  # |a| not > 1
    with pytest.raises(GaussError):
        sweep(GaussianCRC(1.0, 0.5, 20.0, 20.0), DEGRADED, 10)


def test_degraded_equals_weak_on_overlap():
    rng = np.random.default_rng(2)
    for _ in range(300):
        b = float(rng.uniform(0.05, 0.95)) * float(rng.choice([-1, 1]))
        g = GaussianCRC(a=1.0 / b, b=b, p1=float(rng.uniform(1, 40)), p2=float(rng.uniform(1, 40)))
        alpha = float(rng.uniform())
        d, w = corner(g, DEGRADED, alpha), corner(g, WEAK, alpha)
        assert abs(d.r1 - w.r1) < 1e-12
        assert abs(d.r2 - w.r2) < 1e-12
        assert abs(d.re1 - w.re1) < 1e-12


def test_perfect_secrecy_corner():
    strong = GaussianCRC(a=1.0, b=2.0, p1=20.0, p2=20.0)
    pt = corner(strong, SECRECY, 0.0)
    assert pt.r1 == 0.0
    assert abs(pt.r2 - PSI_180) < 1e-12
    for alpha in (0.1, 0.5, 1.0):
        assert corner(strong, SECRECY, alpha).r1 == 0.0
    weak = GaussianCRC(a=1.0, b=0.5, p1=20.0, p2=20.0)
    pt = corner(weak, SECRECY, 1.0)
    assert abs(pt.r1 - PSI_20_MINUS_PSI_5) < 1e-12
    assert abs(pt.r2 - PSI_20_OVER_6) < 1e-12
    assert pt.re1 == 0.0 and pt.re2 == 0.0


def test_classification():
    assert classify_gaussian(GaussianCRC(1.0, 2.0, 20, 20)) is SecrecyClass.NO_SECRECY_FOR_M1
    assert (
        classify_gaussian(GaussianCRC(2.0, 0.5, 20, 20))
        is SecrecyClass.LESS_NOISY_NO_SECRECY_FOR_M2
    )
    assert classify_gaussian(GaussianCRC(1.0, 0.5, 20, 20)) is SecrecyClass.UNCLASSIFIED
    # precedence at the boundary |b| = 1
    assert classify_gaussian(GaussianCRC(1.0, 1.0, 20, 20)) is SecrecyClass.NO_SECRECY_FOR_M1


@pytest.mark.parametrize("a", [1 + 5e-10, 1 + 2e-9, 2.0])
def test_degraded_class_agrees_with_degraded_family(a):
    g = GaussianCRC(a=a, b=1 / a, p1=20, p2=20)
    try:
        corner(g, DEGRADED, 0.5)
        family_holds = True
    except GaussError:
        family_holds = False
    assert (classify_gaussian(g) is SecrecyClass.LESS_NOISY_NO_SECRECY_FOR_M2) == family_holds


def test_swept_region_endpoints_and_monotonicity():
    g = GaussianCRC(a=1.0, b=0.5, p1=20.0, p2=20.0)
    reg = pareto_filter(Region(FAMILIES[WEAK].dims, sweep(g, WEAK, steps=1)[1]))
    assert len(reg) == 2  # both alpha endpoints are maximal
    alpha, rows = sweep(g, WEAK, steps=200)
    assert alpha.tolist() == [i / 200 for i in range(201)]
    r1s, r2s = rows[:, 0].tolist(), rows[:, 1].tolist()
    assert all(a <= b + 1e-12 for a, b in zip(r1s, r1s[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(r2s, r2s[1:]))
    with pytest.raises(GaussError):
        sweep(g, WEAK, steps=0)


def test_swept_region_b1_has_zero_secrecy():
    g = GaussianCRC(a=1.0, b=1.0, p1=20.0, p2=20.0)
    reg = pareto_filter(Region(FAMILIES[WEAK].dims, sweep(g, WEAK, steps=100)[1]))
    assert reg.dims == ("r1", "r2", "re1")
    assert all(p.re1 == 0.0 for p in reg.frontier)


def test_family_table():
    assert FAMILIES[WEAK].dims == ("r1", "r2", "re1")
    assert FAMILIES[DEGRADED].dims == ("r1", "r2", "re1", "re2")
    assert FAMILIES[SECRECY].dims == ("r1", "r2")
    g = GaussianCRC(2.0, 0.5, 20.0, 20.0)  # inside every family's hypothesis
    for mode, family in FAMILIES.items():
        assert family.holds(g)
        alpha, rows = sweep(g, mode, 4)
        points = [corner(g, mode, a) for a in alpha.tolist()]
        assert [p.coords(family.dims) for p in points] == list(map(tuple, rows.tolist()))
        assert [p.meta for p in points] == [{"alpha": i / 4} for i in range(5)]


def test_figure_dataset_shape_and_extremes():
    data = figure_dataset()
    assert [b for b, _ in data] == list(FIGURE_B_VALUES)
    by_b = dict(data)
    assert all(p.re1 == 0.0 for p in by_b[1.0].frontier)
    assert abs(max(p.r1 for p in by_b[0.25].frontier) - PSI_20) < 1e-12
    max_r2 = [max(p.r2 for p in reg.frontier) for _, reg in data]
    max_re1 = [max(p.re1 for p in reg.frontier) for _, reg in data]
    assert all(a <= b + 1e-12 for a, b in zip(max_r2, max_r2[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(max_re1, max_re1[1:]))


def test_mode_aliases():
    assert parse_mode("weak") is GaussMode.WEAK
    assert parse_mode(" Degraded ") is GaussMode.DEGRADED
    assert parse_mode("secrecy") is GaussMode.SECRECY
    for token in ("thm7", "thm3", "cor3", "thm9"):  # the first three were historical aliases
        with pytest.raises(GaussError):
            parse_mode(token)


def test_gauss_point_invariants():
    g = GaussianCRC(a=1.0, b=0.5, p1=20.0, p2=20.0)
    for alpha in np.linspace(0, 1, 21):
        pt = corner(g, WEAK, float(alpha))
        assert 0.0 <= pt.re1 <= pt.r1 + 1e-12


def corner_oracle(g, mode, alpha):
    """The corner at one power split in Python floats, in the family's dims
    order: the closed form's scalar arithmetic, kept apart from the kernel."""
    b2 = g.b * g.b
    r1 = 0.5 * math.log2(1.0 + alpha * g.p1)
    num = (1.0 - alpha) * b2 * g.p1 + g.p2 + 2.0 * abs(g.b) * math.sqrt((1.0 - alpha) * g.p1 * g.p2)
    r2 = 0.5 * math.log2(1.0 + num / (alpha * b2 * g.p1 + 1.0))
    re1 = r1 - 0.5 * math.log2(1.0 + alpha * b2 * g.p1)
    re1 = re1 if re1 > 0.0 else 0.0
    if mode is SECRECY:
        return (re1, r2)
    return (r1, r2, re1, 0.0)[: len(FAMILIES[mode].dims)]


@st.composite
def gauss_cases(draw):
    """A family, gains inside its hypothesis (either sign of b; secrecy also
    with |b| >= 1), powers over six decades and 1 to 1000 steps."""
    mode = draw(st.sampled_from([WEAK, DEGRADED, SECRECY]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    gains = {WEAK: st.floats(0.0, 1.0), DEGRADED: st.floats(0.05, 0.95), SECRECY: st.floats(0.0, 4.0)}
    b = sign * draw(gains[mode])
    a = 1.0 / b if mode is DEGRADED else draw(st.floats(0.1, 3.0))
    p1, p2 = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    return GaussianCRC(a, b, p1, p2), mode, draw(st.integers(1, 1000))


# About one log2 argument in 3 000 gets another last bit from np.log2 than
# from math.log2: the examples draw a few hundred thousand arguments.
@settings(max_examples=150, deadline=None)
@given(case=gauss_cases())
@example(case=(GaussianCRC(1.0, -2.0, 20.0, 20.0), SECRECY, 1000))
@example(case=(GaussianCRC(0.8, -1.0, 0.3, 700.0), WEAK, 1000))
@example(case=(GaussianCRC(2.5, 0.4, 12.0, 3.0), DEGRADED, 1))
def test_sweep_equals_scalar_oracle_bit_for_bit(case):
    g, mode, steps = case
    alpha, rows = sweep(g, mode, steps)
    assert alpha.tolist() == [i / steps for i in range(steps + 1)]
    assert alpha[0] == 0.0 and alpha[-1] == 1.0
    want = np.array([corner_oracle(g, mode, a) for a in alpha.tolist()])
    assert rows.shape == want.shape == (steps + 1, len(FAMILIES[mode].dims))
    np.testing.assert_array_equal(rows.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(corners(g, mode, alpha).view(np.uint64), want.view(np.uint64))


def test_psi_of_an_array_checks_every_entry():
    assert psi(np.array([[0.0, 3.0], [15.0, 20.0]])).tolist() == [[0.0, 1.0], [2.0, psi(20.0)]]
    with pytest.raises(GaussError, match="got inf"):
        psi(np.array([1.0, float("inf"), -1.0]))
    with pytest.raises(GaussError, match=r"got -0\.5"):
        psi(np.array([[1.0, -0.5], [float("nan"), 2.0]]))
