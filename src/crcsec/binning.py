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
  the message's (0, 0) word is sent.
- decoding: receiver 1 looks for a unique message with a typical (U, Y1)
  pair; receiver 2 for a unique (m22, m21) with a typical (X2, V, Y2)
  triple.
- equivocation: computed exactly at small n, conditional on the realized
  codebook, as one weighted sum over every word the encoder can send
  (weight: uniform message times the encoder's uniform bin choice). The
  block splits as n = a + b, a = n // 2; each message row's ``P(m, y^n)``
  is one matrix product of its words' weighted ``|Y|^a`` prefix and
  ``|Y|^b`` suffix likelihood lattices. Rows are streamed into H(M, Y)
  and one ``|Y|^n`` accumulator of p(y), so memory beyond that vector is
  one batch of whole rows (``_LATTICE_BLOCK`` lattice floats, at least one
  row); ``exact_budget`` bounds ``|Y|^n``.

Typicality is the stacked kernel :func:`~crcsec.prob.typical_mask` with
the per-cell tolerance scaled by the distribution's support size
(``eps * |supp(p)|``, ``eps`` always the codebook's ``rates.eps``); at
desk-scale block lengths the unscaled windows are so tight that even the
transmitted words fail them. ``eps = 0`` still demands exact empirical
frequencies. :func:`build_codebook` tests the whole (X2, V, U) word grid
once into ``Codebook.typical`` and derives the encoder's table
``Codebook.sendable`` from it: the typical pairs, plus the (0, 0) word of
each message with none. The encoder draws from it and the exact
equivocation sums over it; each decoder tests all its codewords in one call.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .channel import ChannelError, DiscreteCRC, induce_joint, load_channel, read_config
from .prob import (
    Informations, JointPmf, ProbError, _entropy_of, marginalize, positive_part, relabel, typical_mask
)

CONSTRAINT_TOL = 1e-9
DEFAULT_EXACT_BUDGET = 1 << 16
MAX_SEQUENCES = 1 << 20  # X1 words a codebook may hold
_LATTICE_BLOCK = 1 << 16  # prefix + suffix lattice floats per batch of whole rows (at least one)


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


def _extended(ch: DiscreteCRC, aux: JointPmf) -> JointPmf:
    """The scheme's auxiliary joint, which must carry V and U, pushed through the channel."""
    missing = [name for name in ("V", "U") if not aux.has_axes([name])]
    if missing:
        raise SimError(f"auxiliary joint lacks axes {missing}")
    return induce_joint(ch, aux)


def compute_scheme_informations(ch: DiscreteCRC, aux: JointPmf) -> SchemeInformations:
    info = Informations(_extended(ch, aux))  # the S = 1 stack

    def i(*sets: str | tuple[str, ...]) -> float:
        return float(info.i(*sets)[0])

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


def _count(name: str, bits: float) -> int:
    if bits > np.log2(MAX_SEQUENCES) + 1:  # over the codebook budget alone; 2.0 ** bits may overflow
        raise BudgetError(f"{name} needs 2^{bits:g} codewords, over the budget of {MAX_SEQUENCES}")
    return max(1, round(2.0 ** bits))


def scheme_counts(rates: SchemeRates) -> dict[str, int]:
    """Codeword counts (rounded; material at desk scale, hence reported);
    BudgetError naming a count that alone is over twice ``MAX_SEQUENCES``."""
    rate_of = {
        "n_m1": rates.r1,
        "n_l1": rates.l1 + rates.l1b - rates.r1,
        "n_m21": rates.r21,
        "n_l21": rates.l21 + rates.l21b - rates.r21,
        "n_m22": rates.r22,
    }
    return {name: _count(name, rates.n * max(rate, 0.0)) for name, rate in rate_of.items()}


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
    """Realized nested random code, the encoder's table and the decoders'
    typicality targets."""

    rates: SchemeRates
    counts: dict[str, int]  # scheme_counts(rates)
    x2_words: np.ndarray = field(repr=False)
    v_words: np.ndarray = field(repr=False)
    u_words: np.ndarray = field(repr=False)
    x1_words: np.ndarray = field(repr=False)
    typical: np.ndarray = field(repr=False)  # [m22, m21, l21, m1, l1]: (X2, V, U) typical
    # typical, plus the (0, 0) word of every message with no typical pair
    sendable: np.ndarray = field(repr=False)
    p_uy1: JointPmf = field(repr=False)
    p_x2vy2: JointPmf = field(repr=False)

    @property
    def n(self) -> int:
        return self.rates.n


def build_codebook(
    ch: DiscreteCRC,
    aux: JointPmf,
    rates: SchemeRates,
    seed: int,
) -> Codebook:
    """Draw the nested random codebook; deterministic for a fixed seed."""
    ext = _extended(ch, aux)
    counts = scheme_counts(rates)
    n = rates.n
    n_m1, n_l1 = counts["n_m1"], counts["n_l1"]
    n_m21, n_l21, n_m22 = counts["n_m21"], counts["n_l21"], counts["n_m22"]
    total_x1 = n_m22 * n_m21 * n_l21 * n_m1 * n_l1
    if total_x1 > MAX_SEQUENCES:
        raise BudgetError(f"codebook needs {total_x1} X1 words, over the budget of {MAX_SEQUENCES}")
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
    # Word triples on the (m22, m21, l21, m1, l1) grid: the typicality table
    # and the encoder's table, then one X1 word per triple, conditional on it.
    u_grid = u_words[None, None, None, :, :, :]
    v_grid = v_words[:, :, :, None, None, :]
    x2_grid = x2_words[:, None, None, None, None, :]
    p_x2vu = marginalize(aux, ("X2", "V", "U"))
    typical = typical_mask(
        {"X2": x2_grid, "V": v_grid, "U": u_grid}, p_x2vu, _support_scaled_eps(p_x2vu, rates.eps)
    )
    sendable = typical.copy()
    sendable[:, :, 0, :, 0] |= ~typical.any(axis=(2, 4))
    shape = (n_m22, n_m21, n_l21, n_m1, n_l1, n)
    x1_probs = cond_x1[
        np.broadcast_to(u_grid, shape),
        np.broadcast_to(v_grid, shape),
        np.broadcast_to(x2_grid, shape),
    ]
    x1_words = _sample_categorical(rng, x1_probs)

    return Codebook(
        rates=rates,
        counts=counts,
        x2_words=x2_words,
        v_words=v_words,
        u_words=u_words,
        x1_words=x1_words,
        typical=typical,
        sendable=sendable,
        p_uy1=marginalize(ext, ("U", "Y1")),
        p_x2vy2=marginalize(ext, ("X2", "V", "Y2")),
    )


@dataclass(frozen=True)
class EncodeResult:
    """Chosen X1 word and bin indices; ``failed`` marks an empty typical set
    (the message's (0, 0) word is still transmitted)."""

    x1: np.ndarray
    l21: int
    l1: int
    failed: bool


def encode(
    cb: Codebook,
    m1: int,
    m21: int,
    m22: int,
    rng: np.random.Generator | None = None,
) -> EncodeResult:
    """Pick a sendable bin pair uniformly and emit its X1 word.

    A message's only sendable pair (its (0, 0) fallback among them) draws
    nothing: ``rng.integers(1)`` leaves the generator's state unchanged."""
    counts = cb.counts
    if not (0 <= m1 < counts["n_m1"] and 0 <= m21 < counts["n_m21"] and 0 <= m22 < counts["n_m22"]):
        raise SimError(f"message index out of range: {(m1, m21, m22)}")
    rng = rng if rng is not None else np.random.default_rng(0)
    pairs = np.argwhere(cb.sendable[m22, m21, :, m1, :])  # (l21, l1), l21-major
    l21, l1 = pairs[rng.integers(len(pairs))].tolist()
    failed = not cb.typical[m22, m21, l21, m1, l1]
    return EncodeResult(cb.x1_words[m22, m21, l21, m1, l1], l21, l1, failed)


def _unique_message(cb: Codebook, words: dict[str, np.ndarray], p: JointPmf) -> tuple[int, ...] | None:
    """Index of the only message with a typical word in some bin (the last
    word-stack axis), or None when there is no such message or several."""
    hits = typical_mask(words, p, _support_scaled_eps(p, cb.rates.eps)).any(axis=-1)
    found = np.argwhere(hits)
    return tuple(found[0].tolist()) if len(found) == 1 else None


def decode_cognitive(cb: Codebook, y1: np.ndarray) -> int | None:
    """Joint-typicality decoding of m1 from Y1; None on no unique message."""
    if cb.counts["n_m1"] == 1:
        return 0
    found = _unique_message(cb, {"U": cb.u_words, "Y1": y1}, cb.p_uy1)
    return None if found is None else found[0]


def decode_primary(cb: Codebook, y2: np.ndarray) -> tuple[int, int] | None:
    """Decode (m22, m21) from Y2; None on no unique message pair."""
    counts = cb.counts
    if counts["n_m22"] * counts["n_m21"] == 1:
        return (0, 0)
    words = {"X2": cb.x2_words[:, None, None, :], "V": cb.v_words, "Y2": y2}
    return _unique_message(cb, words, cb.p_x2vy2)


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
    # the Beta quantiles of scipy.stats.beta.ppf, bit for bit, without the
    # second-long import of scipy.stats (scipy.special takes about 0.3 s)
    from scipy.special import betaincinv

    alpha = 1.0 - conf
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi


def _lattice(factors: np.ndarray) -> np.ndarray:
    """Each word's likelihood of every sequence on its ``|Y|^t`` lattice, from a
    ``(words, t, |Y|)`` stack of per-position factors; y_0 most significant."""
    lattice = np.ones((len(factors), 1))
    for t in range(factors.shape[1]):
        lattice = (lattice[:, :, None] * factors[:, t, None, :]).reshape(len(factors), -1)
    return lattice


def exact_equivocation(
    cb: Codebook,
    ch: DiscreteCRC,
    observer: str,
    budget: int = DEFAULT_EXACT_BUDGET,
) -> float:
    """H(message | observed block) in bits, exactly, for the fixed codebook.

    ``observer`` is ``"m1_at_y2"`` (secrecy of the cognitive message
    against receiver 2) or ``"m2_at_y1"``. One weighted sum over every word
    of ``cb.sendable``: messages are uniform and the encoder's choice is
    uniform over a message's sendable bin pairs, as :func:`encode` draws it.
    With n = a + b, a = n // 2, each message row's ``P(m, y^n)`` is one
    product ``(w * F_a).T @ F_b`` of its words' weights and prefix and
    suffix likelihood lattices; rows stream into H(M, Y) and one ``|Y|^n``
    accumulator of p(y), and the result is H(M, Y) - H(Y).
    """
    counts = cb.counts
    n = cb.n
    n_m1, n_m21, n_m22 = counts["n_m1"], counts["n_m21"], counts["n_m22"]
    if observer == "m1_at_y2":
        obs_card, p_obs = ch.cards[3], ch.y2_marginal()
        n_rows, w_msg = n_m1, 1.0 / (n_m21 * n_m22)
    elif observer == "m2_at_y1":
        obs_card, p_obs = ch.cards[2], ch.y1_marginal()
        n_rows, w_msg = n_m22 * n_m21, 1.0 / n_m1
    else:
        raise SimError(f"unknown observer {observer!r}")
    total = obs_card**n
    if total > budget:
        raise BudgetError(f"|Y|^n = {total} exceeds the exact-enumeration budget {budget}")
    # sendable words in [m22, m21, m1, l21, l1] order
    m22, m21, m1, l21, l1 = np.nonzero(cb.sendable.transpose(0, 1, 3, 2, 4))
    rows = m1 if observer == "m1_at_y2" else m22 * n_m21 + m21
    # grouped by row; inside a row, words keep their message and bin-pair order
    order = np.argsort(rows, kind="stable")
    m22, m21, m1, l21, l1 = (idx[order] for idx in (m22, m21, m1, l21, l1))
    weights = w_msg / cb.sendable.sum(axis=(2, 4))[m22, m21, m1]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
    a = n // 2
    batch_words = _LATTICE_BLOCK // (obs_card**a + obs_card ** (n - a))
    h_joint, p_y = 0.0, np.zeros(total)
    lo = 0
    while lo < n_rows:
        # whole rows, at least one, so that a row's arithmetic never
        # depends on the batch it lands in
        hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + batch_words, side="right")) - 1)
        sl = slice(bounds[lo], bounds[hi])
        factors = p_obs[cb.x1_words[m22[sl], m21[sl], l21[sl], m1[sl], l1[sl]], cb.x2_words[m22[sl]]]
        prefix = weights[sl, None] * _lattice(factors[:, :a])
        suffix = _lattice(factors[:, a:])
        for row in range(lo, hi):
            ws = slice(bounds[row] - bounds[lo], bounds[row + 1] - bounds[lo])
            p_row = (prefix[ws].T @ suffix[ws]).ravel() / n_rows  # P(m, y^n), y_0 most significant
            h_joint += _entropy_of(p_row)
            p_y += p_row
        lo = hi
    return h_joint - _entropy_of(p_y) + 0.0  # H(M, Y) - H(Y); + 0.0 avoids IEEE -0.0


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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self.__dict__.items()}


def run_trials(
    ch: DiscreteCRC,
    aux: JointPmf,
    rates: SchemeRates,
    trials: int,
    seed: int,
    codebooks: int = 1,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> SimReport:
    """Monte Carlo run: uniform messages through fresh channel noise.

    One codebook by default; ``codebooks > 1`` splits the trials over
    independently drawn codebooks. Fully determined by ``seed``.
    """
    if trials < 1:
        raise SimError("trials must be >= 1")
    if seed < 0:
        raise SimError(f"seed must be >= 0, got {seed}")
    if codebooks < 1 or codebooks > trials:
        raise SimError("codebooks must be in [1, trials]")
    books = [build_codebook(ch, aux, rates, _derived_seed(seed, 1_000_000 + k)) for k in range(codebooks)]
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
    eq = dict.fromkeys(("m1_at_y2", "m2_at_y1"))  # None where |Y|^n is over the budget
    for observer in eq:
        with suppress(BudgetError):
            eq[observer] = exact_equivocation(books[0], ch, observer, exact_budget)
    eq_m1, eq_m2 = eq["m1_at_y2"], eq["m2_at_y1"]
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
    |X2'| = |W|*|X2| and an auxiliary joint over (V, U, X1, X2'), X2' =
    W |X2| + X2 (other axes summed out), suitable for the degenerate-W simulator.
    """
    for name in ("W", "V", "U", "X1", "X2"):
        if not aux.has_axes([name]):
            raise SimError(f"aux must carry axis {name!r} to merge W")
    cw, cx2 = aux.card("W"), aux.card("X2")
    lifted = np.repeat(ch.kernel[:, None], cw, axis=1).reshape(ch.cards[0], cw * ch.cards[1], *ch.cards[2:])
    out = [(n, aux.card(n)) for n in ("V", "U", "X1")] + [("X2", cw * cx2)]
    probs = relabel(aux.axes, aux.probs[None], out, {"X2": lambda c: c["W"] * cx2 + c["X2"]})[0]
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
    # the config as read, with the channel path made absolute, so that a
    # run recorded from it replays from any directory
    document: dict[str, Any] = field(default_factory=dict, repr=False, compare=False)


# the config keys of a simulation beside "channel" and "aux"
SIM_INTS = ("n", "trials", "seed", "codebooks", "exact_budget")
SIM_FLOATS = ("r1", "r21", "r22", "eps")


def load_sim_config(path: str | Path) -> SimConfig:
    """Parse a simulation config file, or the ``config`` entry of a
    ``simulate`` manifest, as :func:`channel.read_config` reads it (the
    channel path relative to the file, the numbers read strictly, no key
    but ``channel``, ``aux`` and those of SIM_INTS and SIM_FLOATS); SimError
    on any malformed entry."""
    try:
        obj = read_config(path, ("channel", "aux", *SIM_INTS, *SIM_FLOATS), SIM_INTS, SIM_FLOATS)
    except (ChannelError, ProbError) as exc:  # its message names the file
        raise SimError(str(exc)) from exc
    try:
        channel = load_channel(obj["channel"])
        aux = JointPmf.from_jsonable(obj["aux"])
        if aux.has_axes(["W"]):
            # a W layer in the config is folded into the X2 alphabet
            channel, aux = merge_w_into_x2(channel, aux)
        numbers = {k: obj[k] for k in SIM_INTS + SIM_FLOATS if k in obj}
        return SimConfig(channel, aux, **numbers, document=obj)
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
