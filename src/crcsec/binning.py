"""Desk-scale simulator of the single-phase binning achievability scheme.

The scheme, for one auxiliary joint over (V, U, X1, X2) and a block length
n (time sharing and the W layer are kept degenerate; ``merge_w_into_x2``
reintroduces W by enlarging the X2 alphabet):

- message split: the primary message M2 = (M21, M22) at rates r21 + r22;
  M21 is relegated to the cognitive transmitter, M22 rides on X2 directly.
- codebooks: 2^(n*r22) X2-words ~ P(X2); per X2-word, 2^(n*(l21+l21b))
  V-words ~ P(V|X2) labeled (m21, bin index); 2^(n*(l1+l1b)) U-words
  ~ P(U) labeled (m1, bin index); one X1-word ~ P(X1|U,V,X2) per triple.
- bin rates: l1 = [min(I(U;Y1) - I(U;Y2,V,X2), r1)]_+ with excess
  l1b = [I(U;Y2,V,X2) - eps]_+, and symmetrically l21/l21b from
  I(V;Y2|X2) and I(V;Y1,U|X2). One bin-size choice simultaneously covers
  the joint-typicality encoder and pays for confidentiality.
- encoding: among bin pairs (l21, l1) whose (X2, V, U) words are jointly
  typical, one is chosen uniformly; an empty set is an encoding failure and
  a fixed arbitrary codeword is sent.
- decoding: receiver 1 looks for a unique message with a typical (U, Y1)
  pair; receiver 2 for a unique (m22, m21) with a typical (X2, V, Y2)
  triple.
- equivocation: computed exactly at small n by enumerating observation
  sequences and marginalizing messages and the encoder's uniform bin
  choice, conditional on the realized codebook.

Typicality here reuses the per-cell strong-typicality test with the
per-cell tolerance scaled by the distribution's support size
(``eps * |supp(p)|``); at desk-scale block lengths the unscaled windows
are so tight that even the transmitted words fail them. ``eps = 0`` still
demands exact empirical frequencies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Any

import numpy as np
from scipy.stats import beta as _beta_dist

from .channel import ChannelError, DiscreteCRC, load_channel
from .prob import Informations, JointPmf, is_jointly_typical, marginalize, positive_part

CONSTRAINT_TOL = 1e-9
DEFAULT_EXACT_BUDGET = 1 << 16
DEFAULT_MAX_SEQUENCES = 1 << 20


class SimError(ValueError):
    """Invalid simulator configuration."""


class BudgetError(SimError):
    """Requested computation exceeds the configured enumeration budget."""


class RateConstraintError(SimError):
    """One or more scheme-rate constraints are violated.

    ``violations`` lists (constraint id, violation in bits).
    """

    def __init__(self, violations: list[tuple[str, float]]):
        self.violations = violations
        parts = ", ".join(f"{name} violated by {gap:.6f} bits" for name, gap in violations)
        super().__init__(f"scheme-rate validation failed: {parts}")


@dataclass(frozen=True)
class SchemeInformations:
    """Single-letter informations of the scheme for one auxiliary joint."""

    i_u_y1: float
    i_u_y2vx2: float
    i_v_y2_x2: float
    i_v_y1u_x2: float
    i_u_x2: float
    i_x2_y2: float
    i_u_vx2: float


def compute_scheme_informations(ch: DiscreteCRC, aux: JointPmf) -> SchemeInformations:
    from .bounds import AuxAssignment  # local import to avoid a cycle

    asg = AuxAssignment(ch, aux)
    asg.require_axes(["V", "U"])
    i = Informations(asg.extended).i
    return SchemeInformations(
        i_u_y1=i("U", "Y1"),
        i_u_y2vx2=i("U", ("Y2", "V", "X2")),
        i_v_y2_x2=i("V", "Y2", "X2"),
        i_v_y1u_x2=i("V", ("Y1", "U"), "X2"),
        i_u_x2=i("U", "X2"),
        i_x2_y2=i("X2", "Y2"),
        i_u_vx2=i("U", ("V", "X2")),
    )


@dataclass(frozen=True)
class SchemeRates:
    """Message rates, bin rates, typicality slack and block length."""

    r1: float
    r21: float
    r22: float
    l1: float
    l1b: float
    l21: float
    l21b: float
    eps: float
    n: int

    def __post_init__(self) -> None:
        for nm in ("r1", "r21", "r22", "l1", "l1b", "l21", "l21b", "eps"):
            v = float(getattr(self, nm))
            if not np.isfinite(v) or v < 0.0:
                raise SimError(f"{nm} must be a finite nonnegative number, got {v!r}")
            object.__setattr__(self, nm, v)
        if int(self.n) < 1:
            raise SimError("block length n must be >= 1")
        object.__setattr__(self, "n", int(self.n))

    @property
    def r2(self) -> float:
        return self.r21 + self.r22


def validate_scheme_rates(rates: SchemeRates, info: SchemeInformations) -> None:
    """Check every scheme constraint; raise listing all violations.

    Strict inequalities are enforced with a 1e-9 slack so boundary cases
    (margin exactly zero) validate.
    """
    lhs_u = rates.l1 + rates.l1b - rates.r1
    lhs_v = rates.l21 + rates.l21b - rates.r21
    margins = [
        ("r1_cap", (info.i_u_y1 - info.i_u_x2) - rates.r1),
        ("r21_cap", info.i_v_y2_x2 - rates.r21),
        ("r22_cap", info.i_x2_y2 - rates.r22),
        ("sum_cap", (info.i_u_y1 + info.i_v_y2_x2 - info.i_u_vx2) - (rates.r1 + rates.r21)),
        ("u_bin_budget", (rates.l1 + rates.l1b) - rates.r1),
        ("v_bin_budget", (rates.l21 + rates.l21b) - rates.r21),
        ("u_covering", lhs_u - info.i_u_x2),
        ("uv_covering", (lhs_u + lhs_v) - info.i_u_vx2),
        ("v_bin_decodability", positive_part(info.i_v_y1u_x2 - rates.eps) - lhs_v),
    ]
    violations = [(name, -m) for name, m in margins if m < -CONSTRAINT_TOL]
    if violations:
        raise RateConstraintError(violations)


def derive_scheme_rates(
    ch: DiscreteCRC,
    aux: JointPmf,
    r1: float,
    r21: float,
    r22: float,
    eps: float,
    n: int,
) -> SchemeRates:
    """Compute the bin rates for the given message rates and validate.

    Bin sizes follow the scheme's definitions with the vanishing slack
    terms instantiated as ``eps``; negative intermediate values are clamped
    to zero (they parametrize codeword counts).
    """
    info = compute_scheme_informations(ch, aux)
    l1 = positive_part(min(info.i_u_y1 - info.i_u_y2vx2, r1))
    l1b = positive_part(info.i_u_y2vx2 - eps)
    l21 = positive_part(min(info.i_v_y2_x2 - info.i_v_y1u_x2, r21))
    l21b = positive_part(info.i_v_y1u_x2 - eps)
    rates = SchemeRates(r1, r21, r22, l1, l1b, l21, l21b, eps, n)
    validate_scheme_rates(rates, info)
    return rates


def _count(n: int, rate: float) -> int:
    return max(1, round(2.0 ** (n * max(rate, 0.0))))


def scheme_counts(rates: SchemeRates) -> dict[str, int]:
    """Codeword counts (rounded; material at desk scale, hence reported)."""
    n = rates.n
    return {
        "n_m1": _count(n, rates.r1),
        "n_l1": _count(n, rates.l1 + rates.l1b - rates.r1),
        "n_m21": _count(n, rates.r21),
        "n_l21": _count(n, rates.l21 + rates.l21b - rates.r21),
        "n_m22": _count(n, rates.r22),
    }


def _conditional(joint: JointPmf, given: tuple[str, ...], target: str) -> np.ndarray:
    """P(target | given) as an array indexed [given..., target]; empty
    contexts fall back to uniform (they are never sampled)."""
    marg = marginalize(joint, given + (target,))
    order = given + (target,)
    perm = [marg.axes.index(a) for a in order]
    table = np.transpose(marg.probs, perm)
    totals = table.sum(axis=-1, keepdims=True)
    card = table.shape[-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(totals > 0.0, table / np.where(totals > 0.0, totals, 1.0), 1.0 / card)
    return cond


def _sample_categorical(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw along the last axis of ``probs``."""
    cum = np.cumsum(probs, axis=-1)
    r = rng.random(probs.shape[:-1])
    idx = np.sum(cum <= r[..., None], axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


def _support_scaled_eps(pmf: JointPmf, eps: float) -> float:
    return eps * int(np.count_nonzero(pmf.probs))


@dataclass(frozen=True)
class Codebook:
    """Realized nested random code plus the per-letter typicality targets."""

    rates: SchemeRates
    aux: JointPmf = field(repr=False)
    x2_words: np.ndarray = field(repr=False)
    v_words: np.ndarray = field(repr=False)
    u_words: np.ndarray = field(repr=False)
    x1_words: np.ndarray = field(repr=False)
    p_x2vu: JointPmf = field(repr=False)
    p_uy1: JointPmf = field(repr=False)
    p_x2vy2: JointPmf = field(repr=False)

    @property
    def counts(self) -> dict[str, int]:
        return scheme_counts(self.rates)

    @property
    def n(self) -> int:
        return self.rates.n


def build_codebook(
    ch: DiscreteCRC,
    aux: JointPmf,
    rates: SchemeRates,
    seed: int,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> Codebook:
    """Draw the nested random codebook; deterministic for a fixed seed."""
    from .bounds import AuxAssignment

    asg = AuxAssignment(ch, aux)
    asg.require_axes(["V", "U"])
    counts = scheme_counts(rates)
    n = rates.n
    n_m1, n_l1 = counts["n_m1"], counts["n_l1"]
    n_m21, n_l21, n_m22 = counts["n_m21"], counts["n_l21"], counts["n_m22"]
    total_x1 = n_m22 * n_m21 * n_l21 * n_m1 * n_l1
    if total_x1 > max_sequences:
        raise BudgetError(
            f"codebook needs {total_x1} X1 words, over the budget of {max_sequences}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    p_x2 = marginalize(aux, "X2").probs
    cond_v = _conditional(aux, ("X2",), "V")
    p_u = marginalize(aux, "U").probs
    cond_x1 = _conditional(aux, ("U", "V", "X2"), "X1")

    x2_words = _sample_categorical(rng, np.broadcast_to(p_x2, (n_m22, n, p_x2.size)))
    v_ctx = cond_v[x2_words]  # (n_m22, n, |V|)
    v_probs = np.broadcast_to(v_ctx[:, None, None, :, :], (n_m22, n_m21, n_l21, n, v_ctx.shape[-1]))
    v_words = _sample_categorical(rng, v_probs)
    u_words = _sample_categorical(rng, np.broadcast_to(p_u, (n_m1, n_l1, n, p_u.size)))
    # X1 word per (m22, m21, l21, m1, l1): conditional on the symbol triple.
    u_grid = u_words[None, None, None, :, :, :]
    v_grid = v_words[:, :, :, None, None, :]
    x2_grid = x2_words[:, None, None, None, None, :]
    shape = (n_m22, n_m21, n_l21, n_m1, n_l1, n)
    x1_probs = cond_x1[
        np.broadcast_to(u_grid, shape),
        np.broadcast_to(v_grid, shape),
        np.broadcast_to(x2_grid, shape),
    ]
    x1_words = _sample_categorical(rng, x1_probs)

    ext = asg.extended
    return Codebook(
        rates=rates,
        aux=aux,
        x2_words=x2_words,
        v_words=v_words,
        u_words=u_words,
        x1_words=x1_words,
        p_x2vu=marginalize(aux, ("X2", "V", "U")),
        p_uy1=marginalize(ext, ("U", "Y1")),
        p_x2vy2=marginalize(ext, ("X2", "V", "Y2")),
    )


@dataclass(frozen=True)
class EncodeResult:
    """Chosen X1 word and bin indices; ``failed`` marks an empty typical set
    (an arbitrary codeword is still transmitted)."""

    x1: np.ndarray
    l21: int
    l1: int
    failed: bool


def _typical_pairs(cb: Codebook, m1: int, m21: int, m22: int, eps: float) -> list[tuple[int, int]]:
    eps_eff = _support_scaled_eps(cb.p_x2vu, eps)
    counts = cb.counts
    x2w = cb.x2_words[m22]
    out = []
    for l21 in range(counts["n_l21"]):
        vw = cb.v_words[m22, m21, l21]
        for l1 in range(counts["n_l1"]):
            uw = cb.u_words[m1, l1]
            if is_jointly_typical({"X2": x2w, "V": vw, "U": uw}, cb.p_x2vu, eps_eff):
                out.append((l21, l1))
    return out


def encode(
    cb: Codebook,
    m1: int,
    m21: int,
    m22: int,
    eps: float | None = None,
    rng: np.random.Generator | None = None,
) -> EncodeResult:
    """Pick a jointly typical bin pair uniformly and emit its X1 word."""
    counts = cb.counts
    if not (0 <= m1 < counts["n_m1"] and 0 <= m21 < counts["n_m21"] and 0 <= m22 < counts["n_m22"]):
        raise SimError(f"message index out of range: {(m1, m21, m22)}")
    eps = cb.rates.eps if eps is None else float(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    pairs = _typical_pairs(cb, m1, m21, m22, eps)
    if not pairs:
        return EncodeResult(cb.x1_words[m22, m21, 0, m1, 0], 0, 0, failed=True)
    l21, l1 = pairs[int(rng.integers(len(pairs)))]
    return EncodeResult(cb.x1_words[m22, m21, l21, m1, l1], l21, l1, failed=False)


def decode_cognitive(cb: Codebook, y1: np.ndarray, eps: float | None = None) -> int | None:
    """Joint-typicality decoding of m1 from Y1; None on no unique message."""
    counts = cb.counts
    if counts["n_m1"] == 1:
        return 0
    eps = cb.rates.eps if eps is None else float(eps)
    eps_eff = _support_scaled_eps(cb.p_uy1, eps)
    found: set[int] = set()
    for m1 in range(counts["n_m1"]):
        for l1 in range(counts["n_l1"]):
            if is_jointly_typical({"U": cb.u_words[m1, l1], "Y1": y1}, cb.p_uy1, eps_eff):
                found.add(m1)
                break
    if len(found) == 1:
        return found.pop()
    return None


def decode_primary(
    cb: Codebook, y2: np.ndarray, eps: float | None = None
) -> tuple[int, int] | None:
    """Decode (m22, m21) from Y2; None on no unique message pair."""
    counts = cb.counts
    if counts["n_m22"] * counts["n_m21"] == 1:
        return (0, 0)
    eps = cb.rates.eps if eps is None else float(eps)
    eps_eff = _support_scaled_eps(cb.p_x2vy2, eps)
    found: set[tuple[int, int]] = set()
    for m22 in range(counts["n_m22"]):
        x2w = cb.x2_words[m22]
        for m21 in range(counts["n_m21"]):
            for l21 in range(counts["n_l21"]):
                seqs = {"X2": x2w, "V": cb.v_words[m22, m21, l21], "Y2": y2}
                if is_jointly_typical(seqs, cb.p_x2vy2, eps_eff):
                    found.add((m22, m21))
                    break
    if len(found) == 1:
        return found.pop()
    return None


def sample_outputs(
    ch: DiscreteCRC, x1w: np.ndarray, x2w: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Memoryless channel use: one (y1, y2) draw per symbol."""
    cx1, cx2, cy1, cy2 = ch.cards
    flat_kernel = ch.kernel.reshape(cx1, cx2, cy1 * cy2)
    rows = flat_kernel[np.asarray(x1w), np.asarray(x2w)]
    flat = _sample_categorical(rng, rows)
    return flat // cy2, flat % cy2


def _clopper_pearson(k: int, n: int, conf: float = 0.95) -> tuple[float, float]:
    alpha = 1.0 - conf
    lo = 0.0 if k == 0 else float(_beta_dist.ppf(alpha / 2, k, n - k + 1))
    hi = 1.0 if k == n else float(_beta_dist.ppf(1 - alpha / 2, k + 1, n - k))
    return lo, hi


def exact_equivocation(
    cb: Codebook,
    ch: DiscreteCRC,
    observer: str,
    budget: int = DEFAULT_EXACT_BUDGET,
) -> float:
    """H(message | observed block) in bits, exactly, for the fixed codebook.

    ``observer`` is ``"m1_at_y2"`` (secrecy of the cognitive message
    against receiver 2) or ``"m2_at_y1"``. Enumerates every observable
    sequence, with messages uniform and the encoder's uniform choice over
    its typical bin pairs marginalized exactly; encoding failures transmit
    the fixed arbitrary codeword, exactly as :func:`encode` does.
    """
    counts = cb.counts
    n = cb.n
    cy1, cy2 = ch.cards[2], ch.cards[3]
    if observer == "m1_at_y2":
        obs_card, p_obs = cy2, ch.y2_marginal()
        n_rows = counts["n_m1"]
    elif observer == "m2_at_y1":
        obs_card, p_obs = cy1, ch.y1_marginal()
        n_rows = counts["n_m22"] * counts["n_m21"]
    else:
        raise SimError(f"unknown observer {observer!r}")
    total = obs_card**n
    if total > budget:
        raise BudgetError(f"|Y|^n = {total} exceeds the exact-enumeration budget {budget}")
    ys = np.array(list(product(range(obs_card), repeat=n)), dtype=np.int64)
    pos = np.arange(n)
    lik = np.zeros((n_rows, total))
    n_m1, n_m21, n_m22 = counts["n_m1"], counts["n_m21"], counts["n_m22"]
    for m22, m21, m1 in product(range(n_m22), range(n_m21), range(n_m1)):
        if observer == "m1_at_y2":
            row, w_msg = m1, 1.0 / (n_m21 * n_m22)
        else:
            row, w_msg = m22 * n_m21 + m21, 1.0 / n_m1
        pairs = _typical_pairs(cb, m1, m21, m22, cb.rates.eps) or [(0, 0)]
        w = w_msg / len(pairs)
        x2w = cb.x2_words[m22]
        for l21, l1 in pairs:
            x1w = cb.x1_words[m22, m21, l21, m1, l1]
            per_symbol = p_obs[x1w, x2w]  # (n, obs_card)
            lik[row] += w * np.prod(per_symbol[pos[None, :], ys], axis=1)
    p_joint = lik / n_rows
    p_y = p_joint.sum(axis=0)
    mask = p_joint > 0.0
    cond = np.log2(p_joint[mask] / np.broadcast_to(p_y, p_joint.shape)[mask])
    return float(-(p_joint[mask] * cond).sum()) + 0.0  # avoid IEEE -0.0


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo error estimates plus exact equivocations when affordable.

    Error rates come with exact binomial 95% intervals. Equivocations are
    conditional on the realized codebook (the first one, when several are
    scheduled), not expectations over codebooks, and are reported both as
    total bits and per channel use.
    """

    n: int
    eps: float
    seed: int
    trials: int
    codebooks: int
    counts: dict[str, int]
    requested_rates: dict[str, float]
    realized_rates: dict[str, float]
    encoding_failure_rate: float
    encoding_failure_ci: tuple[float, float]
    decode1_error_rate: float
    decode1_error_ci: tuple[float, float]
    decode2_error_rate: float
    decode2_error_ci: tuple[float, float]
    exact_equivocation_m1_at_y2: float | None
    per_symbol_equivocation_m1_at_y2: float | None
    exact_equivocation_m2_at_y1: float | None
    per_symbol_equivocation_m2_at_y1: float | None
    fixed_codebook_equivocation: bool = True

    def to_jsonable(self) -> dict[str, Any]:
        out = dict(self.__dict__)
        out["encoding_failure_ci"] = list(self.encoding_failure_ci)
        out["decode1_error_ci"] = list(self.decode1_error_ci)
        out["decode2_error_ci"] = list(self.decode2_error_ci)
        return out


def run_trials(
    ch: DiscreteCRC,
    aux: JointPmf,
    rates: SchemeRates,
    trials: int,
    seed: int,
    codebooks: int = 1,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> SimReport:
    """Monte Carlo run: uniform messages through fresh channel noise.

    One codebook by default; ``codebooks > 1`` splits the trials over
    independently drawn codebooks. Fully determined by ``seed``.
    """
    if trials < 1:
        raise SimError("trials must be >= 1")
    if codebooks < 1 or codebooks > trials:
        raise SimError("codebooks must be in [1, trials]")
    books = [
        build_codebook(ch, aux, rates, _derived_seed(seed, 1_000_000 + k), max_sequences)
        for k in range(codebooks)
    ]
    counts = books[0].counts
    enc_fail = dec1_err = dec2_err = 0
    for trial in range(trials):
        cb = books[trial * codebooks // trials]
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), trial)))
        m1 = int(rng.integers(counts["n_m1"]))
        m21 = int(rng.integers(counts["n_m21"]))
        m22 = int(rng.integers(counts["n_m22"]))
        enc = encode(cb, m1, m21, m22, rng=rng)
        if enc.failed:
            enc_fail += 1
        y1, y2 = sample_outputs(ch, enc.x1, cb.x2_words[m22], rng)
        if decode_cognitive(cb, y1) != m1:
            dec1_err += 1
        if decode_primary(cb, y2) != (m22, m21):
            dec2_err += 1
    cy1, cy2 = ch.cards[2], ch.cards[3]
    eq_m1 = eq_m2 = None
    if cy2**rates.n <= exact_budget:
        eq_m1 = exact_equivocation(books[0], ch, "m1_at_y2", exact_budget)
    if cy1**rates.n <= exact_budget:
        eq_m2 = exact_equivocation(books[0], ch, "m2_at_y1", exact_budget)
    n = rates.n
    return SimReport(
        n=n,
        eps=rates.eps,
        seed=int(seed),
        trials=trials,
        codebooks=codebooks,
        counts=counts,
        requested_rates={"r1": rates.r1, "r21": rates.r21, "r22": rates.r22},
        realized_rates={
            "r1": float(np.log2(counts["n_m1"])) / n,
            "r21": float(np.log2(counts["n_m21"])) / n,
            "r22": float(np.log2(counts["n_m22"])) / n,
        },
        encoding_failure_rate=enc_fail / trials,
        encoding_failure_ci=_clopper_pearson(enc_fail, trials),
        decode1_error_rate=dec1_err / trials,
        decode1_error_ci=_clopper_pearson(dec1_err, trials),
        decode2_error_rate=dec2_err / trials,
        decode2_error_ci=_clopper_pearson(dec2_err, trials),
        exact_equivocation_m1_at_y2=eq_m1,
        per_symbol_equivocation_m1_at_y2=None if eq_m1 is None else eq_m1 / n,
        exact_equivocation_m2_at_y1=eq_m2,
        per_symbol_equivocation_m2_at_y1=None if eq_m2 is None else eq_m2 / n,
    )


def _derived_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence((int(master), int(index))).generate_state(1, np.uint64)[0])


def merge_w_into_x2(ch: DiscreteCRC, aux: JointPmf) -> tuple[DiscreteCRC, JointPmf]:
    """Fold a W layer into the X2 alphabet (the channel ignores the W part).

    ``aux`` must carry axes (W, V, U, X1, X2); the result is a channel with
    |X2'| = |W|*|X2| and an auxiliary joint over (V, U, X1, X2') suitable
    for the degenerate-W simulator.
    """
    for name in ("W", "V", "U", "X1", "X2"):
        if not aux.has_axes([name]):
            raise SimError(f"aux must carry axis {name!r} to merge W")
    cw = aux.card("W")
    cx1, cx2, cy1, cy2 = ch.cards
    lifted = np.repeat(ch.kernel[:, None, :, :, :], cw, axis=1).reshape(
        cx1, cw * cx2, cy1, cy2
    )
    order = ("V", "U", "X1", "W", "X2")
    marg = marginalize(aux, order)
    probs = np.transpose(marg.probs, [marg.axes.index(a) for a in order])
    probs = probs.reshape(probs.shape[0], probs.shape[1], probs.shape[2], cw * cx2)
    merged = JointPmf(("V", "U", "X1", "X2"), probs)
    return DiscreteCRC(lifted, name=(ch.name + "+w" if ch.name else "merged-w")), merged


@dataclass(frozen=True)
class SimConfig:
    """Parsed simulation configuration file."""

    channel: DiscreteCRC
    aux: JointPmf
    n: int
    r1: float
    r21: float
    r22: float
    eps: float
    trials: int
    seed: int
    codebooks: int = 1
    exact_budget: int = DEFAULT_EXACT_BUDGET
    # the config as written, with the channel path made absolute, so that a
    # run recorded from it replays from any directory
    document: dict[str, Any] = field(default_factory=dict, repr=False, compare=False)


def load_sim_config(path: str | Path) -> SimConfig:
    """Parse a simulation config file, or the ``config`` entry of a
    ``simulate`` manifest."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SimError(f"cannot parse simulation config {path}: {exc}") from exc
    if isinstance(obj, dict):
        obj = obj.get("config", obj)
    try:
        channel_path = Path(obj["channel"])
        if not channel_path.is_absolute():
            channel_path = path.parent / channel_path
        channel = load_channel(channel_path)
        aux = JointPmf.from_jsonable(obj["aux"])
        if aux.has_axes(["W"]):
            # a W layer in the config is folded into the X2 alphabet
            channel, aux = merge_w_into_x2(channel, aux)
        return SimConfig(
            channel=channel,
            aux=aux,
            n=int(obj["n"]),
            r1=float(obj["r1"]),
            r21=float(obj["r21"]),
            r22=float(obj["r22"]),
            eps=float(obj["eps"]),
            trials=int(obj["trials"]),
            seed=int(obj["seed"]),
            codebooks=int(obj.get("codebooks", 1)),
            exact_budget=int(obj.get("exact_budget", DEFAULT_EXACT_BUDGET)),
            document=dict(obj, channel=str(channel_path.resolve())),
        )
    except (KeyError, TypeError, ValueError, ChannelError) as exc:
        if isinstance(exc, SimError):
            raise
        raise SimError(f"malformed simulation config {path}: {exc}") from exc


def run_simulation(cfg: SimConfig) -> SimReport:
    rates = derive_scheme_rates(cfg.channel, cfg.aux, cfg.r1, cfg.r21, cfg.r22, cfg.eps, cfg.n)
    return run_trials(
        cfg.channel,
        cfg.aux,
        rates,
        trials=cfg.trials,
        seed=cfg.seed,
        codebooks=cfg.codebooks,
        exact_budget=cfg.exact_budget,
    )
