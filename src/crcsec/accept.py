"""Runnable verification suites.

Each criterion is a self-contained check with an independent oracle where
one is called for (brute-force dominance scans, direct double-sum mutual
information, exact posterior enumeration). The pytest acceptance module
and the ``crcsec verify`` command both run these.

Criterion ids:

  AC1  capacity-function unit values
  AC2  reference four-curve dataset properties
  AC3  Gaussian family consistency and classification
  AC4  mutual information vs. direct-sum oracle
  AC5  noiseless-parallel-links corner (inner search + outer caps)
  AC6  outer/semi-deterministic coincidence on the identical-output channel
  AC7  vanishing secrecy coordinates on the identical-output channel
  AC8  binning simulator (equivocation, benchmark errors, rate validation)
  AC9  frontier and hull oracles
  AC10 no-secrecy reductions reproduce projected frontiers
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable

import numpy as np

from . import binning, bounds, channel, gaussian, prob, region


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    passed: bool
    detail: str
    seconds: float


def _result(criterion: str, t0: float, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(criterion, passed, detail, time.perf_counter() - t0)


def _check(failures: list[str], ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


# ---------------------------------------------------------------- AC1

def ac1_psi_units() -> CriterionResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    _check(fails, gaussian.psi(0.0) == 0.0, "psi(0) != 0")
    _check(fails, gaussian.psi(3.0) == 1.0, "psi(3) != 1")
    _check(fails, abs(gaussian.psi(20.0) - 2.196159) <= 1e-6, "psi(20) off")
    return _result("AC1", t0, not fails, "; ".join(fails) or "psi unit values match")


# ---------------------------------------------------------------- AC2

def ac2_figure_dataset() -> CriterionResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    data = gaussian.figure_dataset()
    max_r2 = [max(p.r2 for p in reg.frontier) for _, reg in data]
    max_re1 = [max(p.re1 for p in reg.frontier) for _, reg in data]
    _check(fails, all(a <= b + 1e-12 for a, b in zip(max_r2, max_r2[1:])), "max R2 not nondecreasing in b")
    _check(fails, all(a >= b - 1e-12 for a, b in zip(max_re1, max_re1[1:])), "max Re1 not nonincreasing in b")
    b1_region = dict(data)[1.0]
    _check(fails, all(p.re1 == 0.0 for p in b1_region.frontier), "Re1 not identically 0 at b=1")
    return _result("AC2", t0, not fails, "; ".join(fails) or "four-curve dataset properties hold")


# ---------------------------------------------------------------- AC3

def ac3_gaussian_consistency() -> CriterionResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        b = float(rng.uniform(0.05, 0.95)) * float(rng.choice([-1.0, 1.0]))
        g = channel.GaussianCRC(a=1.0 / b, b=b, p1=float(rng.uniform(0.5, 50)), p2=float(rng.uniform(0.5, 50)))
        alpha = float(rng.uniform())
        p_deg = gaussian.degraded_point(g, alpha)
        p_weak = gaussian.weak_interference_point(g, alpha)
        worst = max(
            worst,
            abs(p_deg.r1_max - p_weak.r1_max),
            abs(p_deg.r2_max - p_weak.r2_max),
            abs(p_deg.re1_max - p_weak.re1_max),
        )
        r1s, r2s = gaussian.perfect_secrecy_point(g, alpha)
        worst = max(worst, abs(r1s - p_weak.re1_max), abs(r2s - p_weak.r2_max))
    _check(fails, worst <= 1e-12, f"family mismatch {worst:.2e}")
    for b_mag, sign, a in product(
        [0.0, 0.25, 0.5, 0.75, 0.999, 1.0, 1.25, 2.0], [1.0, -1.0], [0.5, 1.0, 2.0]
    ):
        g = channel.GaussianCRC(a=a, b=sign * b_mag, p1=10.0, p2=10.0)
        got = gaussian.classify_gaussian(g) is gaussian.SecrecyClass.NO_SECRECY_FOR_M1
        _check(
            fails,
            got == (abs(g.b) >= 1.0),
            f"classification wrong at a={a}, b={g.b}",
        )
    return _result("AC3", t0, not fails, "; ".join(fails) or "Gaussian families consistent")


# ---------------------------------------------------------------- AC4

def mi_direct_sum(p: prob.JointPmf, a: str, b: str, c: str) -> float:
    """Independent oracle: I(A;B|C) by the literal double sum."""
    pa = p.axis_index(a)
    pb = p.axis_index(b)
    pc = p.axis_index(c)
    total = 0.0
    for idx in product(*[range(s) for s in p.cards]):
        pabc = float(p.probs[idx])
        if pabc <= 0.0:
            continue
        key_ac = (idx[pa], idx[pc])
        key_bc = (idx[pb], idx[pc])
        p_c = sum(
            float(p.probs[j])
            for j in product(*[range(s) for s in p.cards])
            if j[pc] == idx[pc]
        )
        p_ac = sum(
            float(p.probs[j])
            for j in product(*[range(s) for s in p.cards])
            if (j[pa], j[pc]) == key_ac
        )
        p_bc = sum(
            float(p.probs[j])
            for j in product(*[range(s) for s in p.cards])
            if (j[pb], j[pc]) == key_bc
        )
        total += pabc * math.log2(pabc * p_c / (p_ac * p_bc))
    return total


def ac4_mi_oracle() -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        p = prob.sample_joint([("A", 2), ("B", 2), ("C", 2)], seed=40_000 + i)
        got = prob.conditional_mutual_information(p, "A", "B", "C")
        want = mi_direct_sum(p, "A", "B", "C")
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    return _result("AC4", t0, ok, f"max |CMI - direct sum| = {worst:.2e}")


# ---------------------------------------------------------------- AC5

def ac5_orthogonal_corner() -> CriterionResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    ch = channel.orthogonal_channel()
    hand = _hand_inner_aux()
    pts = bounds.bound_point(ch, bounds.BoundKind.INNER, hand)
    exact = any(
        p.r1 == 1.0 and p.r2 == 1.0 and p.re1 == 1.0 and p.re2 == 0.0 for p in pts
    )
    _check(fails, exact, f"hand-built assignment gave {pts}, not (1,1,1,0)")
    reg = bounds.search_region(
        ch, bounds.BoundKind.INNER, cards=bounds.SearchCards(1, 1, 1, 2), samples=2000, seed=5
    )
    target = region.RatePoint(0.95, 0.95, 0.95, 0.0)
    _check(
        fails,
        any(region.dominates(p, target) for p in reg.frontier),
        "no inner frontier point dominates (0.95, 0.95, 0.95, 0)",
    )
    over = 0.0
    for i in range(300):
        aux = prob.sample_joint(
            [("W", 2), ("V", 3), ("U", 3), ("X1", 2), ("X2", 2)], seed=50_000 + i
        )
        for p in bounds.bound_point(ch, bounds.BoundKind.OUTER, aux):
            over = max(over, p.r1, p.r2)
    _check(fails, over <= 1.0 + 1e-9, f"outer vertex exceeded 1: {over}")
    return _result("AC5", t0, not fails, "; ".join(fails) or "corner reached; outer capped at 1")


def _hand_inner_aux() -> prob.JointPmf:
    """Q, W, V degenerate; U = X1; X1 and X2 independent uniform."""
    probs = np.zeros((1, 1, 1, 2, 2, 2))
    for x1, x2 in product(range(2), range(2)):
        probs[0, 0, 0, x1, x1, x2] = 0.25
    return prob.JointPmf(("Q", "W", "V", "U", "X1", "X2"), probs)


# ---------------------------------------------------------------- AC6

def ac6_semidet_coincidence(samples: int = 5000) -> CriterionResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    ch = channel.xor_channel()
    report = bounds.check_condition(ch, bounds.Condition.SEMI_DET, samples=200, seed=6)
    _check(fails, report.max_gap == 0.0, f"identical-output gap {report.max_gap!r} != 0")
    outer = bounds.search_region(ch, bounds.BoundKind.OUTER, samples=samples, seed=61)
    semidet = bounds.search_region(ch, bounds.BoundKind.SEMIDET, samples=samples, seed=62)
    frac = region.inclusion_fraction(outer, semidet, tol=0.02)
    _check(fails, frac >= 0.98, f"inclusion fraction {frac:.4f} < 0.98")
    return _result(
        "AC6", t0, not fails, "; ".join(fails) or f"inclusion fraction {frac:.4f}"
    )


# ---------------------------------------------------------------- AC7

def ac7_secrecy_vanishes() -> CriterionResult:
    t0 = time.perf_counter()
    ch = channel.xor_channel()
    evaluators: list[tuple[bounds.BoundKind, list[tuple[str, int]]]] = [
        (bounds.BoundKind.INNER, [("Q", 2), ("W", 2), ("V", 3), ("U", 3)]),
        (bounds.BoundKind.OUTER, [("W", 2), ("V", 3), ("U", 3)]),
        (bounds.BoundKind.SEMIDET, [("V", 3)]),
    ]
    bad = []
    for kind, aux_axes in evaluators:
        axes = aux_axes + [("X1", 2), ("X2", 2)]
        for i in range(400):
            for p in bounds.bound_point(ch, kind, prob.sample_joint(axes, seed=70_000 + i)):
                if p.re1 != 0.0 or p.re2 != 0.0:
                    bad.append(f"{kind.value}: ({p.r1}, {p.r2}, {p.re1}, {p.re2})")
    ok = not bad
    return _result("AC7", t0, ok, bad[0] if bad else "all secrecy coordinates exactly 0")


# ---------------------------------------------------------------- AC8

def _benchmark_setup() -> tuple[channel.DiscreteCRC, prob.JointPmf]:
    """Noiseless parallel links with U = X1, V degenerate, uniform inputs."""
    ch = channel.orthogonal_channel()
    probs = np.zeros((1, 2, 2, 2))
    for x1, x2 in product(range(2), range(2)):
        probs[0, x1, x1, x2] = 0.25
    return ch, prob.JointPmf(("V", "U", "X1", "X2"), probs)


def pure_noise_channel() -> channel.DiscreteCRC:
    """Y1 = X1; Y2 is a fair coin independent of everything."""
    k = np.zeros((2, 2, 2, 2))
    for x1, x2, y2 in product(range(2), range(2), range(2)):
        k[x1, x2, x1, y2] = 0.5
    return channel.DiscreteCRC(k, name="pure-noise-eavesdropper")


def brute_force_equivocation(cb: binning.Codebook, ch: channel.DiscreteCRC, observer: str) -> float:
    """Independent oracle: posterior entropy by explicit loops."""
    counts = cb.counts
    n = cb.n
    if observer == "m1_at_y2":
        obs_card = ch.cards[3]
        p_obs = ch.y2_marginal()
    else:
        obs_card = ch.cards[2]
        p_obs = ch.y1_marginal()
    rows: dict[int, dict[tuple[int, ...], float]] = {}
    n_m1, n_m21, n_m22 = counts["n_m1"], counts["n_m21"], counts["n_m22"]
    for m22 in range(n_m22):
        for m21 in range(n_m21):
            for m1 in range(n_m1):
                row = m1 if observer == "m1_at_y2" else m22 * n_m21 + m21
                w_msg = 1.0 / (n_m21 * n_m22) if observer == "m1_at_y2" else 1.0 / n_m1
                pairs = binning._typical_pairs(cb, m1, m21, m22, cb.rates.eps) or [(0, 0)]
                for l21, l1 in pairs:
                    x1w = cb.x1_words[m22, m21, l21, m1, l1]
                    x2w = cb.x2_words[m22]
                    for ys in product(range(obs_card), repeat=n):
                        pr = w_msg / len(pairs)
                        for t, y in enumerate(ys):
                            pr *= p_obs[x1w[t], x2w[t], y]
                        rows.setdefault(row, {})
                        rows[row][ys] = rows[row].get(ys, 0.0) + pr
    n_rows = n_m1 if observer == "m1_at_y2" else n_m21 * n_m22
    h = 0.0
    all_ys = set()
    for r in rows.values():
        all_ys |= set(r)
    for ys in all_ys:
        p_y = sum(rows.get(r, {}).get(ys, 0.0) for r in range(n_rows)) / n_rows
        if p_y <= 0.0:
            continue
        for r in range(n_rows):
            pj = rows.get(r, {}).get(ys, 0.0) / n_rows
            if pj > 0.0:
                h -= pj * math.log2(pj / p_y)
    return h


def ac8_binning() -> CriterionResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    # (i) a pure-noise eavesdropper learns nothing, exactly.
    noise_ch, aux = pure_noise_channel(), _benchmark_setup()[1]
    rates = binning.derive_scheme_rates(noise_ch, aux, r1=0.5, r21=0.0, r22=0.0, eps=0.2, n=8)
    cb = binning.build_codebook(noise_ch, aux, rates, seed=80)
    eq = binning.exact_equivocation(cb, noise_ch, "m1_at_y2")
    _check(fails, eq == math.log2(cb.counts["n_m1"]), f"pure-noise equivocation {eq!r}")
    # (ii) the noiseless benchmark decodes and hides as designed.
    ch, aux = _benchmark_setup()
    rates = binning.derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=8)
    _check(fails, rates.l1 == 0.5, f"l1 = {rates.l1}, expected 0.5")
    report = binning.run_trials(ch, aux, rates, trials=1000, seed=81)
    _check(fails, report.decode1_error_rate <= 0.1, f"decode1 {report.decode1_error_rate}")
    _check(fails, report.decode2_error_rate <= 0.1, f"decode2 {report.decode2_error_rate}")
    per_sym = report.per_symbol_equivocation_m1_at_y2
    _check(
        fails,
        per_sym is not None and abs(per_sym - rates.l1) <= 0.1,
        f"per-symbol equivocation {per_sym} not within 0.1 of {rates.l1}",
    )
    # (iii) every rate constraint flips at its boundary (delta = 0.01).
    fails.extend(_boundary_failures(delta=0.01))
    return _result("AC8", t0, not fails, "; ".join(fails) or "simulator checks pass")


def _boundary_failures(delta: float) -> list[str]:
    """Reject boundary+delta / accept boundary-delta for every constraint.

    Each row uses a synthetic information bundle and rate bundle chosen so
    the named constraint has exactly 0.3 bits of slack while every other
    constraint keeps comfortably more; the bump lands the named constraint
    at its boundary +/- delta.
    """

    def info(**overrides: float) -> binning.SchemeInformations:
        values = dict(
            i_u_y1=2.0, i_u_y2vx2=1.0, i_v_y2_x2=2.0, i_v_y1u_x2=2.0,
            i_u_x2=0.2, i_x2_y2=2.0, i_u_vx2=0.2,
        )
        values.update(overrides)
        return binning.SchemeInformations(**values)

    def rates(**overrides: float) -> binning.SchemeRates:
        values = dict(
            r1=1.0, r21=1.0, r22=1.0, l1=1.5, l1b=0.3, l21=1.7, l21b=0.3,
            eps=0.1, n=8,
        )
        values.update(overrides)
        return binning.SchemeRates(**values)

    slack = 0.3
    table = [
        ("r1_cap", info(), rates(r1=1.5, l1=2.0, l21=1.5),
         lambda s, d: replace(s, r1=s.r1 + d)),
        ("r21_cap", info(), rates(r21=1.7, l21=2.4),
         lambda s, d: replace(s, r21=s.r21 + d)),
        ("r22_cap", info(), rates(r22=1.7),
         lambda s, d: replace(s, r22=s.r22 + d)),
        ("sum_cap", info(i_u_vx2=1.5), rates(r21=1.2, l1=1.3, l1b=0.9, l21=1.5, l21b=0.9),
         lambda s, d: replace(s, r1=s.r1 + d)),
        ("u_bin_budget", info(i_u_x2=0.0, i_u_vx2=0.0), rates(l1=1.0),
         lambda s, d: replace(s, l1=s.l1 - d)),
        ("v_bin_budget", info(i_u_vx2=0.0), rates(l21=1.0),
         lambda s, d: replace(s, l21=s.l21 - d)),
        ("u_covering", info(i_u_x2=0.5, i_u_vx2=0.3), rates(),
         lambda s, d: replace(s, l1=s.l1 - d)),
        ("uv_covering", info(i_u_x2=0.0, i_u_vx2=1.5), rates(),
         lambda s, d: replace(s, l21=s.l21 - d)),
        ("v_bin_decodability", info(i_v_y1u_x2=1.5), rates(l21=1.8),
         lambda s, d: replace(s, l21b=s.l21b + d)),
    ]
    fails: list[str] = []
    for name, inf, base, bump in table:
        try:
            binning.validate_scheme_rates(base, inf)
        except binning.RateConstraintError as exc:
            fails.append(f"{name}: base bundle rejected ({exc})")
            continue
        try:
            binning.validate_scheme_rates(bump(base, slack + delta), inf)
            fails.append(f"{name}: boundary+delta accepted")
        except binning.RateConstraintError as exc:
            if name not in [v for v, _ in exc.violations]:
                fails.append(f"{name}: wrong violation list {exc.violations}")
        try:
            binning.validate_scheme_rates(bump(base, slack - delta), inf)
        except binning.RateConstraintError as exc:
            fails.append(f"{name}: boundary-delta rejected ({exc})")
    return fails


# ---------------------------------------------------------------- AC9

def brute_force_frontier(
    points: list[region.RatePoint], dims: tuple[str, ...]
) -> set[tuple[float, ...]]:
    """O(n^2) dominance scan, independent of the library implementation."""
    coords = [p.coords(dims) for p in points]
    keep = set()
    for i, ci in enumerate(coords):
        dominated = False
        for j, cj in enumerate(coords):
            if i != j and all(a >= b for a, b in zip(cj, ci)) and cj != ci:
                dominated = True
                break
        if not dominated:
            keep.add(ci)
    return keep


def ac9_geometry_oracles() -> CriterionResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    rng = np.random.default_rng(9)
    for dims in (("r1", "r2"), ("r1", "r2", "re1"), ("r1", "r2", "re1", "re2")):
        pts = []
        for _ in range(1000):
            r1, r2 = rng.uniform(0, 2, 2)
            pts.append(
                region.RatePoint(r1, r2, rng.uniform(0, r1), rng.uniform(0, r2))
            )
        got = {p.coords(dims) for p in region.pareto_filter(pts, dims).frontier}
        want = brute_force_frontier(pts, dims)
        _check(fails, got == want, f"frontier mismatch on dims {dims}")
    # Convex hulls: every consecutive triple turns clockwise, and hull
    # midpoints stay inside the hull region.
    for trial in range(50):
        pts = [
            region.RatePoint(float(a), float(b))
            for a, b in rng.uniform(0, 1, (30, 2))
        ]
        hull = region.convexify_2d(region.pareto_filter(pts, ("r1", "r2")))
        seq = sorted((p.r1, p.r2) for p in hull.frontier)
        for o, mid, b in zip(seq, seq[1:], seq[2:]):
            _check(fails, region._cross(o, mid, b) < 1e-12, f"hull not convex at {mid}")
        for (x0, y0), (x1, y1) in zip(seq, seq[1:]):
            mid_pt = region.RatePoint((x0 + x1) / 2, (y0 + y1) / 2)
            _check(
                fails,
                region.hull_contains_2d(hull, mid_pt, tol=1e-9),
                f"hull midpoint excluded: {mid_pt}",
            )
    return _result("AC9", t0, not fails, "; ".join(fails[:3]) or "oracles agree")


# ---------------------------------------------------------------- AC10

def ac10_reductions() -> CriterionResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    cases = [
        (channel.xor_channel(), bounds.BoundKind.LESSNOISY),
        (channel.xor_channel(), bounds.BoundKind.SEMIDET_M1),
        (channel.orthogonal_channel(), bounds.BoundKind.LESSNOISY),
        (channel.orthogonal_channel(), bounds.BoundKind.SEMIDET_M1),
    ]
    for ch, kind in cases:
        with_caps = bounds.search_region(ch, kind, samples=400, seed=10)
        projected = region.project(with_caps, ("r1", "r2"))
        without = bounds.search_region(ch, kind, samples=400, seed=10, secrecy=False)
        a = sorted(p.coords(("r1", "r2")) for p in projected.frontier)
        b = sorted(p.coords(("r1", "r2")) for p in without.frontier)
        same = len(a) == len(b) and all(
            abs(x - y) <= 1e-9 for pa, pb in zip(a, b) for x, y in zip(pa, pb)
        )
        _check(fails, same, f"{ch.name}/{kind.value}: projected frontier differs")
    return _result("AC10", t0, not fails, "; ".join(fails) or "reductions match projections")


SUITES: dict[str, tuple[Callable[[], CriterionResult], ...]] = {
    "psi": (ac1_psi_units,),
    "figure2": (ac2_figure_dataset,),
    "gaussian": (ac1_psi_units, ac2_figure_dataset, ac3_gaussian_consistency),
    "mi": (ac4_mi_oracle,),
    "orthogonal": (ac5_orthogonal_corner,),
    "semidet-coincidence": (ac6_semidet_coincidence,),
    "secrecy-vanishing": (ac7_secrecy_vanishes,),
    "binning": (ac8_binning,),
    "geometry": (ac9_geometry_oracles,),
    "reductions": (ac10_reductions,),
}

ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    ac1_psi_units,
    ac2_figure_dataset,
    ac3_gaussian_consistency,
    ac4_mi_oracle,
    ac5_orthogonal_corner,
    ac6_semidet_coincidence,
    ac7_secrecy_vanishes,
    ac8_binning,
    ac9_geometry_oracles,
    ac10_reductions,
)


def run_suite(name: str) -> list[CriterionResult]:
    if name == "all":
        checks = ALL_CRITERIA
    else:
        try:
            checks = SUITES[name]
        except KeyError:
            raise ValueError(
                f"unknown suite {name!r}; choose from {sorted(SUITES) + ['all']}"
            ) from None
    return [fn() for fn in checks]
