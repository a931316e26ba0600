import numpy as np
import pytest

from crcsec.channel import GaussianCRC
from crcsec.gaussian import (
    FIGURE_B_VALUES,
    GaussError,
    GaussMode,
    SecrecyClass,
    classify_gaussian,
    degraded_point,
    figure_dataset,
    parse_mode,
    perfect_secrecy_point,
    psi,
    sweep_region,
    weak_interference_point,
)

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
    pt = weak_interference_point(g, 1.0)
    assert abs(pt.r1_max - PSI_20) < 1e-12
    assert abs(pt.re1_max - PSI_20_MINUS_PSI_5) < 1e-12
    assert abs(pt.r2_max - PSI_20_OVER_6) < 1e-12
    assert pt.re2_max == 0.0


def test_weak_point_edge_cases():
    g1 = GaussianCRC(a=1.0, b=1.0, p1=20.0, p2=20.0)
    for alpha in (0.0, 0.3, 1.0):
        assert weak_interference_point(g1, alpha).re1_max == 0.0
    zero = weak_interference_point(GaussianCRC(1.0, 0.5, 20.0, 20.0), 0.0)
    assert zero.r1_max == 0.0 and zero.re1_max == 0.0
    with pytest.raises(GaussError):
        weak_interference_point(GaussianCRC(1.0, 1.5, 20.0, 20.0), 0.5)
    with pytest.raises(GaussError):
        weak_interference_point(GaussianCRC(1.0, 0.5, 20.0, 20.0), 1.5)


def test_degraded_point_frozen_values():
    g = GaussianCRC(a=2.0, b=0.5, p1=20.0, p2=20.0)
    pt = degraded_point(g, 0.5)
    assert abs(pt.r1_max - PSI_10) < 1e-12
    assert abs(pt.re1_max - PSI_10_MINUS_PSI_2_5) < 1e-12
    assert abs(pt.r2_max - PSI_DEG_R2) < 1e-12
    assert degraded_point(g, 0.0).r1_max == 0.0


def test_degraded_hypothesis_checks():
    with pytest.raises(GaussError):
        degraded_point(GaussianCRC(1.0, 0.5, 20.0, 20.0), 0.5)  # a*b != 1
    with pytest.raises(GaussError):
        degraded_point(GaussianCRC(1.0, 1.0, 20.0, 20.0), 0.5)  # |a| not > 1


def test_degraded_equals_weak_on_overlap():
    rng = np.random.default_rng(2)
    for _ in range(300):
        b = float(rng.uniform(0.05, 0.95)) * float(rng.choice([-1, 1]))
        g = GaussianCRC(a=1.0 / b, b=b, p1=float(rng.uniform(1, 40)), p2=float(rng.uniform(1, 40)))
        alpha = float(rng.uniform())
        d, w = degraded_point(g, alpha), weak_interference_point(g, alpha)
        assert abs(d.r1_max - w.r1_max) < 1e-12
        assert abs(d.r2_max - w.r2_max) < 1e-12
        assert abs(d.re1_max - w.re1_max) < 1e-12


def test_perfect_secrecy_point():
    strong = GaussianCRC(a=1.0, b=2.0, p1=20.0, p2=20.0)
    r1, r2 = perfect_secrecy_point(strong, 0.0)
    assert r1 == 0.0
    assert abs(r2 - PSI_180) < 1e-12
    for alpha in (0.1, 0.5, 1.0):
        assert perfect_secrecy_point(strong, alpha)[0] == 0.0
    weak = GaussianCRC(a=1.0, b=0.5, p1=20.0, p2=20.0)
    r1, r2 = perfect_secrecy_point(weak, 1.0)
    assert abs(r1 - PSI_20_MINUS_PSI_5) < 1e-12
    assert abs(r2 - PSI_20_OVER_6) < 1e-12


def test_classification():
    assert classify_gaussian(GaussianCRC(1.0, 2.0, 20, 20)) is SecrecyClass.NO_SECRECY_FOR_M1
    assert (
        classify_gaussian(GaussianCRC(2.0, 0.5, 20, 20))
        is SecrecyClass.LESS_NOISY_NO_SECRECY_FOR_M2
    )
    assert classify_gaussian(GaussianCRC(1.0, 0.5, 20, 20)) is SecrecyClass.UNCLASSIFIED
    # precedence at the boundary |b| = 1
    assert classify_gaussian(GaussianCRC(1.0, 1.0, 20, 20)) is SecrecyClass.NO_SECRECY_FOR_M1


def test_sweep_region_endpoints_and_monotonicity():
    g = GaussianCRC(a=1.0, b=0.5, p1=20.0, p2=20.0)
    reg = sweep_region(g, GaussMode.WEAK, steps=1)
    assert len(reg) == 2  # both alpha endpoints are maximal
    pts = [weak_interference_point(g, i / 200) for i in range(201)]
    r1s = [p.r1_max for p in pts]
    r2s = [p.r2_max for p in pts]
    assert all(a <= b + 1e-12 for a, b in zip(r1s, r1s[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(r2s, r2s[1:]))


def test_sweep_region_b1_has_zero_secrecy():
    g = GaussianCRC(a=1.0, b=1.0, p1=20.0, p2=20.0)
    reg = sweep_region(g, GaussMode.WEAK, steps=100)
    assert reg.dims == ("r1", "r2", "re1")
    assert all(p.re1 == 0.0 for p in reg.frontier)


def test_figure_dataset_shape_and_extremes():
    data = figure_dataset(steps=100)
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
        pt = weak_interference_point(g, float(alpha))
        assert 0.0 <= pt.re1_max <= pt.r1_max + 1e-12
