"""Runnable verification suites.

Each criterion is a self-contained check with an independent oracle where
one is called for (brute-force dominance scans, direct double-sum mutual
information, exact posterior enumeration). :data:`CRITERIA` is the ordered
table of them, id -> check; :func:`run_criterion` times one, and the pytest
acceptance module and the ``crcsec verify`` command both run them through it.
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


def _check(failures: list[str], ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


def psi_units() -> tuple[list[str], str]:
    fails: list[str] = []
    _check(fails, gaussian.psi(0.0) == 0.0, "psi(0) != 0")
    _check(fails, gaussian.psi(3.0) == 1.0, "psi(3) != 1")
    _check(fails, abs(gaussian.psi(20.0) - 2.196159) <= 1e-6, "psi(20) off")
    return fails, "psi unit values match"


def figure_dataset_properties() -> tuple[list[str], str]:
    fails: list[str] = []
    data = gaussian.figure_dataset()
    max_r2 = [reg.rows[:, 1].max() for _, reg in data]  # the weak family's dims: (r1, r2, re1)
    max_re1 = [reg.rows[:, 2].max() for _, reg in data]
    _check(fails, all(a <= b + 1e-12 for a, b in zip(max_r2, max_r2[1:])), "max R2 not nondecreasing in b")
    _check(fails, all(a >= b - 1e-12 for a, b in zip(max_re1, max_re1[1:])), "max Re1 not nonincreasing in b")
    _check(fails, (dict(data)[1.0].rows[:, 2] == 0.0).all(), "Re1 not identically 0 at b=1")
    return fails, "four-curve dataset properties hold"


def gaussian_consistency() -> tuple[list[str], str]:
    fails: list[str] = []
    rng = np.random.default_rng(3)
    modes = gaussian.GaussMode
    worst = worst_oracle = 0.0
    for _ in range(1000):
        b = float(rng.uniform(0.05, 0.95)) * float(rng.choice([-1.0, 1.0]))
        g = channel.GaussianCRC(a=1.0 / b, b=b, p1=float(rng.uniform(0.5, 50)), p2=float(rng.uniform(0.5, 50)))
        alpha = float(rng.uniform())
        p_deg = gaussian.corner(g, modes.DEGRADED, alpha)
        p_weak = gaussian.corner(g, modes.WEAK, alpha)
        p_sec = gaussian.corner(g, modes.SECRECY, alpha)
        worst = max(
            worst,
            abs(p_deg.r1 - p_weak.r1),
            abs(p_deg.r2 - p_weak.r2),
            abs(p_deg.re1 - p_weak.re1),
            abs(p_sec.r1 - p_weak.re1),
            abs(p_sec.r2 - p_weak.r2),
        )
        # the closed forms written out once more, apart from psi and the corner code
        snr_b = alpha * b * b * g.p1
        r2 = 0.5 * math.log2(
            (snr_b + 1.0 + (abs(b) * math.sqrt((1.0 - alpha) * g.p1) + math.sqrt(g.p2)) ** 2) / (snr_b + 1.0)
        )
        re1 = 0.5 * math.log2((1.0 + alpha * g.p1) / (1.0 + snr_b))
        worst_oracle = max(worst_oracle, abs(p_weak.r2 - r2), abs(p_weak.re1 - re1))
    _check(fails, worst <= 1e-12, f"family mismatch {worst:.2e}")
    _check(fails, worst_oracle <= 1e-12, f"corner off the closed forms by {worst_oracle:.2e}")
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
    return fails, "Gaussian families consistent"


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


def mi_oracle() -> tuple[list[str], str]:
    worst = 0.0
    for i in range(1000):
        p = prob.sample_joint([("A", 2), ("B", 2), ("C", 2)], seed=40_000 + i)
        got = prob.conditional_mutual_information(p, "A", "B", "C")
        want = mi_direct_sum(p, "A", "B", "C")
        worst = max(worst, abs(got - want))
    detail = f"max |CMI - direct sum| = {worst:.2e}"
    return [] if worst <= 1e-12 else [detail], detail


def orthogonal_corner() -> tuple[list[str], str]:
    fails: list[str] = []
    ch = channel.orthogonal_channel()
    hand = _u_equals_x1([("Q", 1), ("W", 1), ("V", 1), ("U", 2)])  # Q, W, V degenerate
    pts = bounds.bound_point(ch, bounds.BoundKind.INNER, hand)
    exact = any(p.coords(region.DIM_FIELDS) == (1.0, 1.0, 1.0, 0.0) for p in pts)
    _check(fails, exact, f"hand-built assignment gave {pts}, not (1,1,1,0)")
    reg = bounds.search_region(
        ch, bounds.BoundKind.INNER, cards=bounds.SearchCards(1, 1, 1, 2), samples=2000, seed=5
    )
    _check(fails, region.contains_point(reg, (0.95, 0.95, 0.95, 0.0)),
           "no inner frontier point dominates (0.95, 0.95, 0.95, 0)")
    over = 0.0
    for i in range(300):
        aux = prob.sample_joint([("W", 2), ("V", 3), ("U", 3), ("X1", 2), ("X2", 2)], seed=50_000 + i)
        for p in bounds.bound_point(ch, bounds.BoundKind.OUTER, aux):
            over = max(over, p.r1, p.r2)
    _check(fails, over <= 1.0 + 1e-9, f"outer vertex exceeded 1: {over}")
    return fails, "corner reached; outer capped at 1"


def _u_equals_x1(aux_axes: list[tuple[str, int]]) -> prob.JointPmf:
    """X1 and X2 independent uniform bits, U = X1, every other auxiliary 0."""
    axes = aux_axes + [("X1", 2), ("X2", 2)]
    probs = prob.relabel(("X1", "X2"), np.full((1, 2, 2), 0.25), axes, {"U": lambda c: c["X1"]})[0]
    return prob.JointPmf(tuple(n for n, _ in axes), probs)


def semidet_coincidence() -> tuple[list[str], str]:
    fails: list[str] = []
    samples = 5000
    ch = channel.xor_channel()
    report = bounds.check_condition(ch, bounds.Condition.SEMI_DET, samples=200, seed=6)
    _check(fails, report.max_gap == 0.0, f"identical-output gap {report.max_gap!r} != 0")
    outer = bounds.search_region(ch, bounds.BoundKind.OUTER, samples=samples, seed=61)
    semidet = bounds.search_region(ch, bounds.BoundKind.SEMIDET, samples=samples, seed=62)
    frac = region.inclusion_fraction(outer, semidet, tol=0.02)
    _check(fails, frac >= 0.98, f"inclusion fraction {frac:.4f} < 0.98")
    return fails, f"inclusion fraction {frac:.4f}"


def secrecy_vanishes() -> tuple[list[str], str]:
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
    return bad[:1], "all secrecy coordinates exactly 0"


def _benchmark_setup() -> tuple[channel.DiscreteCRC, prob.JointPmf]:
    """Noiseless parallel links with U = X1, V degenerate, uniform inputs."""
    return channel.orthogonal_channel(), _u_equals_x1([("V", 1), ("U", 2)])


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
                pairs = [
                    (l21, l1)
                    for l21 in range(counts["n_l21"])
                    for l1 in range(counts["n_l1"])
                    if cb.typical[m22, m21, l21, m1, l1]
                ] or [(0, 0)]
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


def binning_scheme() -> tuple[list[str], str]:
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
    return fails, "simulator checks pass"


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


def brute_force_frontier(rows) -> set[tuple[float, ...]]:
    """O(n^2) dominance scan of coordinate rows, independent of the library implementation."""
    coords = [tuple(map(float, row)) for row in rows]
    return {ci for ci in coords if not any(cj != ci and all(a >= b for a, b in zip(cj, ci)) for cj in coords)}


def lp_support(points: np.ndarray, weights: np.ndarray) -> float:
    """max of weights·x over convex combinations of ``points`` and the origin,
    as an LP over the combination weights (independent of ``region.support``)."""
    from scipy.optimize import linprog  # not at module level: keeps it out of CLI start-up

    return -linprog(-(points @ weights), A_ub=np.ones((1, len(points))), b_ub=[1.0]).fun


def lp_hull_contains(points: np.ndarray, p: np.ndarray) -> bool:
    """Whether a convex combination of ``points`` and the origin dominates ``p``."""
    from scipy.optimize import linprog

    n = len(points)
    res = linprog(np.zeros(n), A_ub=np.vstack([-points.T, np.ones(n)]), b_ub=np.append(-p, 1.0))
    return {0: True, 2: False}[res.status]  # 2: infeasible; any other status is an LP failure


def geometry_oracles() -> tuple[list[str], str]:
    fails: list[str] = []
    rng = np.random.default_rng(9)
    for dims in (("r1", "r2"), ("r1", "r2", "re1"), ("r1", "r2", "re1", "re2")):
        draws = (rng.uniform(0, 2, 2) for _ in range(1000))
        rows = np.array([(r1, r2, rng.uniform(0, r1), rng.uniform(0, r2)) for r1, r2 in draws])[:, : len(dims)]
        got = set(map(tuple, region.pareto_filter(region.Region(dims, rows)).rows.tolist()))
        want = brute_force_frontier(rows)
        _check(fails, got == want, f"frontier mismatch on dims {dims}")
        # Support function vs. the LP optimum on frontiers of 15 points. Hull
        # membership by the support test on the gap grid and by the LP: a shrunken
        # convex combination is inside, an argmax pushed out along λ is outside.
        grid = region._gap_grid(len(dims))
        for _ in range(20):
            reg = region.pareto_filter(region.Region(dims, rows[rng.choice(1000, 15, replace=False)]))
            coords, h = reg.rows, region.support(reg, grid)
            for lam in rng.dirichlet(np.ones(len(dims)), 3):
                err = abs(region.support(reg, lam[None])[0] - lp_support(coords, lam))
                _check(fails, err <= 1e-9, f"support off the LP optimum by {err:.3g} at {lam.round(3)}")
            lam = grid[rng.integers(len(grid))]
            inside = 0.99 * (rng.dirichlet(np.ones(len(coords))) @ coords)
            outside = coords[np.argmax(coords @ lam)] + 0.01 * lam
            for p, want_in in ((inside, True), (outside, False)):
                by_support, by_lp = bool((grid @ p <= h + 1e-12).all()), lp_hull_contains(coords, p)
                _check(fails, by_support == by_lp == want_in,
                       f"hull membership of {p.round(4)}: support {by_support}, LP {by_lp}")
    return fails[:3], "oracles agree"


def reductions() -> tuple[list[str], str]:
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
        a, b = projected.rows, without.rows  # both in descending order
        same = a.shape == b.shape and bool((np.abs(a - b) <= 1e-9).all())
        _check(fails, same, f"{ch.name}/{kind.value}: projected frontier differs")
    return fails, "reductions match projections"


# The acceptance criteria in order, id -> check. A check takes no argument
# and returns its failures and its detail on success.
CRITERIA: dict[str, Callable[[], tuple[list[str], str]]] = {
    "AC1": psi_units,  # capacity-function unit values
    "AC2": figure_dataset_properties,  # reference four-curve dataset
    "AC3": gaussian_consistency,  # families, closed forms, classification
    "AC4": mi_oracle,  # mutual information vs. the direct sum
    "AC5": orthogonal_corner,  # noiseless-links corner, outer caps
    "AC6": semidet_coincidence,  # outer = semi-deterministic on identical outputs
    "AC7": secrecy_vanishes,  # zero secrecy on identical outputs
    "AC8": binning_scheme,  # simulator equivocation, errors, rate validation
    "AC9": geometry_oracles,  # frontier, support function, hull vs. an LP
    "AC10": reductions,  # no-secrecy reductions = projected frontiers
}

SUITES: dict[str, tuple[str, ...]] = {
    "psi": ("AC1",),
    "figure2": ("AC2",),
    "gaussian": ("AC1", "AC2", "AC3"),
    "mi": ("AC4",),
    "orthogonal": ("AC5",),
    "semidet-coincidence": ("AC6",),
    "secrecy-vanishing": ("AC7",),
    "binning": ("AC8",),
    "geometry": ("AC9",),
    "reductions": ("AC10",),
}


def run_criterion(cid: str) -> CriterionResult:
    """Run the criterion ``cid`` of the table and time it."""
    t0 = time.perf_counter()
    failures, detail = CRITERIA[cid]()
    return CriterionResult(cid, not failures, "; ".join(failures) or detail, time.perf_counter() - t0)


def run_suite(name: str) -> list[CriterionResult]:
    """The results of the suite's criteria in order; ``all`` runs the whole table."""
    ids = tuple(CRITERIA) if name == "all" else SUITES.get(name)
    if ids is None:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES) + ['all']}")
    return [run_criterion(cid) for cid in ids]
