import dataclasses
import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from crcsec import binning, prob
from crcsec.accept import _benchmark_setup, brute_force_equivocation, pure_noise_channel
from crcsec.binning import (
    BudgetError,
    RateConstraintError,
    SchemeInformations,
    SchemeRates,
    SimError,
    build_codebook,
    decode_cognitive,
    decode_primary,
    derive_scheme_rates,
    encode,
    exact_equivocation,
    load_sim_config,
    merge_w_into_x2,
    run_simulation,
    run_trials,
    scheme_counts,
    validate_scheme_rates,
)
from crcsec.channel import DiscreteCRC, erasure_cascade_channel, orthogonal_channel, write_channel


def degenerate_aux():
    probs = np.zeros((1, 1, 2, 2))
    probs[0, 0, 0, 0] = 1.0
    return prob.JointPmf(("V", "U", "X1", "X2"), probs)


def test_derive_benchmark_bin_rates():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.8, r21=0.0, r22=0.8, eps=0.01, n=8)
    assert rates.l1 == 0.8  # min{1 - 0, 0.8}
    assert rates.l1b == 0.0  # clamped from -0.01
    assert rates.l21 == 0.0 and rates.l21b == 0.0
    assert rates.r2 == 0.8


def test_derive_rejects_rate_above_cap():
    ch, aux = _benchmark_setup()
    with pytest.raises(RateConstraintError) as err:
        derive_scheme_rates(ch, aux, r1=1.2, r21=0.0, r22=0.8, eps=0.01, n=8)
    names = [v for v, _ in err.value.violations]
    assert "r1_cap" in names
    gap = dict(err.value.violations)["r1_cap"]
    assert abs(gap - 0.2) < 1e-9


def test_derive_zero_rates_degenerate_scheme():
    rates = derive_scheme_rates(
        orthogonal_channel(), degenerate_aux(), r1=0.0, r21=0.0, r22=0.0, eps=0.05, n=6
    )
    assert (rates.l1, rates.l1b, rates.l21, rates.l21b) == (0.0, 0.0, 0.0, 0.0)


def test_validate_accepts_exact_boundary():
    info = SchemeInformations(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    rates = SchemeRates(
        r1=1.0, r21=0.0, r22=1.0, l1=1.0, l1b=0.0, l21=0.0, l21b=0.0, eps=0.01, n=8
    )
    validate_scheme_rates(rates, info)  # margins of exactly 0 pass


def test_scheme_counts_rounding():
    rates = SchemeRates(r1=0.5, r21=0.0, r22=0.5, l1=0.5, l1b=0.0, l21=0.0, l21b=0.0, eps=0.2, n=4)
    counts = scheme_counts(rates)
    assert counts == {"n_m1": 4, "n_l1": 1, "n_m21": 1, "n_l21": 1, "n_m22": 4}


def test_build_codebook_shapes_and_determinism():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=4)
    cb = build_codebook(ch, aux, rates, seed=11)
    assert cb.x2_words.shape == (4, 4)
    assert cb.u_words.shape == (4, 1, 4)
    assert cb.x1_words.shape == (4, 1, 1, 4, 1, 4)
    again = build_codebook(ch, aux, rates, seed=11)
    assert np.array_equal(cb.x1_words, again.x1_words)
    other = build_codebook(ch, aux, rates, seed=12)
    assert not np.array_equal(cb.u_words, other.u_words)
    # U = X1 deterministically, so every X1 word equals its U word
    for m22, m1 in product(range(4), range(4)):
        assert np.array_equal(cb.x1_words[m22, 0, 0, m1, 0], cb.u_words[m1, 0])


def test_build_codebook_degenerate_v_constant_words():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=6)
    cb = build_codebook(ch, aux, rates, seed=2)
    assert np.all(cb.v_words == 0)


def test_build_codebook_budget(monkeypatch):
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=8)
    monkeypatch.setattr(binning, "MAX_SEQUENCES", 10)
    with pytest.raises(BudgetError):
        build_codebook(ch, aux, rates, seed=0)


def test_encode_degenerate_unique_pair():
    ch = orthogonal_channel()
    rates = derive_scheme_rates(ch, degenerate_aux(), r1=0.0, r21=0.0, r22=0.0, eps=0.05, n=6)
    cb = build_codebook(ch, degenerate_aux(), rates, seed=3)
    res = encode(cb, 0, 0, 0)
    assert not res.failed and (res.l21, res.l1) == (0, 0)
    assert np.all(res.x1 == 0)


def test_encode_eps_zero_usually_fails():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=8)
    exact = dataclasses.replace(rates, eps=0.0)  # same codewords, zero slack
    fails = 0
    trials = 200
    for seed in range(trials):
        cb = build_codebook(ch, aux, exact, seed=seed)
        rng = np.random.default_rng(seed)
        fails += encode(cb, 0, 0, 0, rng=rng).failed
    assert fails / trials > 0.9


def test_encode_fallback_sends_the_zero_word_and_draws_nothing():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=8)
    cb = build_codebook(ch, aux, dataclasses.replace(rates, eps=0.0), seed=0)
    m1, m22 = next((m1, m22) for m1, m22 in product(range(16), range(16)) if not cb.typical[m22, 0, :, m1].any())
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    res = encode(cb, m1, 0, m22, rng=rng)
    assert res.failed and (res.l21, res.l1) == (0, 0)
    assert np.array_equal(res.x1, cb.x1_words[m22, 0, 0, m1, 0])
    assert rng.bit_generator.state == before


def test_encode_out_of_range():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=4)
    cb = build_codebook(ch, aux, rates, seed=1)
    with pytest.raises(SimError):
        encode(cb, 99, 0, 0)


def test_decode_noiseless_round_trip():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=8)
    cb = build_codebook(ch, aux, rates, seed=7)
    # precondition from the claim under test: codewords are distinct
    assert len({tuple(cb.u_words[m, 0]) for m in range(16)}) == 16
    assert len({tuple(cb.x2_words[m]) for m in range(16)}) == 16
    rng = np.random.default_rng(0)
    errors = 0
    for trial in range(100):
        m1 = int(rng.integers(16))
        m22 = int(rng.integers(16))
        res = encode(cb, m1, 0, m22, rng=rng)
        y1 = res.x1  # noiseless: Y1 = X1
        y2 = cb.x2_words[m22]
        errors += decode_cognitive(cb, y1) != m1
        errors += decode_primary(cb, y2) != (m22, 0)
    assert errors == 0


def test_decode_ambiguous_identical_codebook():
    # two messages whose codewords coincide: ambiguity, not a guess
    ch = orthogonal_channel()
    probs = np.zeros((1, 2, 2, 2))
    probs[0, 0, 0, 0] = probs[0, 0, 0, 1] = 0.5  # U constant 0, X1 = 0
    aux = prob.JointPmf(("V", "U", "X1", "X2"), probs)
    rates = SchemeRates(r1=0.25, r21=0.0, r22=0.0, l1=0.25, l1b=0.0, l21=0.0, l21b=0.0, eps=0.5, n=4)
    cb = build_codebook(ch, aux, rates, seed=5)
    assert cb.counts["n_m1"] == 2
    assert np.array_equal(cb.u_words[0, 0], cb.u_words[1, 0])
    assert decode_cognitive(cb, np.zeros(4, dtype=int)) is None


def test_decode_atypical_observation():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.05, n=8)
    cb = build_codebook(ch, aux, rates, seed=6)
    y1 = 1 - cb.u_words[0, 0]  # complement of a codeword matches nothing exactly
    distinct = all(
        not np.array_equal(cb.u_words[m, 0], y1) for m in range(cb.counts["n_m1"])
    )
    if distinct:
        assert decode_cognitive(cb, y1) is None


def test_run_trials_zero_rate_all_clean():
    report = run_trials(
        orthogonal_channel(),
        degenerate_aux(),
        derive_scheme_rates(orthogonal_channel(), degenerate_aux(), 0.0, 0.0, 0.0, 0.05, 6),
        trials=50,
        seed=9,
    )
    assert report.encoding_failure_rate == 0.0
    assert report.decode1_error_rate == 0.0
    assert report.decode2_error_rate == 0.0


def test_run_trials_benchmark_and_determinism():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=8)
    a = run_trials(ch, aux, rates, trials=300, seed=42)
    b = run_trials(ch, aux, rates, trials=300, seed=42)
    assert a.to_jsonable() == b.to_jsonable()
    assert a.decode1_error_rate <= 0.12
    assert a.decode2_error_rate <= 0.12
    assert a.per_symbol_equivocation_m1_at_y2 == 0.5
    lo, hi = a.decode1_error_ci
    assert 0.0 <= lo <= a.decode1_error_rate <= hi <= 1.0


def test_run_trials_over_two_codebooks():
    # the equivocations are the first codebook's: 3.0 at AC8's setup, and on
    # the erasure cascade, where the second codebook's differ, its own value
    ch, aux = _benchmark_setup()
    erasure = erasure_cascade_channel(0.3)
    cases = [
        (ch, derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=6)),
        (erasure, derive_scheme_rates(erasure, aux, r1=0.3, r21=0.0, r22=0.0, eps=0.1, n=6)),
    ]
    eqs = []
    for channel, rates in cases:
        report = run_trials(channel, aux, rates, trials=40, seed=5, codebooks=2)
        assert report.codebooks == 2
        assert report.to_jsonable() == run_trials(channel, aux, rates, trials=40, seed=5, codebooks=2).to_jsonable()
        books = [build_codebook(channel, aux, rates, binning._derived_seed(5, 1_000_000 + k)) for k in (0, 1)]
        eqs.append([exact_equivocation(cb, channel, "m1_at_y2") for cb in books])
        assert report.exact_equivocation_m1_at_y2 == eqs[-1][0]
        assert report.exact_equivocation_m2_at_y1 == exact_equivocation(books[0], channel, "m2_at_y1")
        for codebooks in (0, 41):
            with pytest.raises(SimError):
                run_trials(channel, aux, rates, trials=40, seed=5, codebooks=codebooks)
    assert eqs[0][0] == 3.0
    assert eqs[1][0] != eqs[1][1]  # precondition: the erasure codebooks differ


def test_run_trials_nulls_only_the_observer_over_budget():
    # erasure cascade at n = 8: |Y2|^8 = 6561 is over a budget of 1000, |Y1|^8 = 256 under
    ch = erasure_cascade_channel(0.3)
    _, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.3, r21=0.0, r22=0.0, eps=0.2, n=8)
    report = run_trials(ch, aux, rates, trials=4, seed=1, exact_budget=1000).to_jsonable()
    assert report["exact_equivocation_m1_at_y2"] is None
    assert report["per_symbol_equivocation_m1_at_y2"] is None
    cb = build_codebook(ch, aux, rates, binning._derived_seed(1, 1_000_000))
    with pytest.raises(BudgetError):
        exact_equivocation(cb, ch, "m1_at_y2", budget=1000)
    assert report["exact_equivocation_m2_at_y1"] == exact_equivocation(cb, ch, "m2_at_y1", budget=1000)
    assert report["per_symbol_equivocation_m2_at_y1"] == report["exact_equivocation_m2_at_y1"] / 8


def test_decode_error_monotone_in_blocklength():
    ch, aux = _benchmark_setup()
    errs = []
    for n in (4, 6, 8):
        rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=n)
        report = run_trials(ch, aux, rates, trials=400, seed=100 + n)
        errs.append(report.decode1_error_rate)
    slack = 2 * math.sqrt(0.25 / 400)  # 2 sigma of a rate estimate
    assert errs[0] >= errs[1] - slack
    assert errs[1] >= errs[2] - slack


def test_exact_equivocation_pure_noise_and_full_leakage():
    _, aux = _benchmark_setup()
    noise = pure_noise_channel()
    rates = derive_scheme_rates(noise, aux, r1=0.5, r21=0.0, r22=0.0, eps=0.2, n=8)
    cb = build_codebook(noise, aux, rates, seed=80)
    assert exact_equivocation(cb, noise, "m1_at_y2") == math.log2(16)
    # an eavesdropper seeing X1 exactly, with one bin per message and
    # distinct codewords, learns everything
    k = np.zeros((2, 2, 2, 2))
    for x1, x2 in product(range(2), range(2)):
        k[x1, x2, x1, x1] = 1.0
    leaky = DiscreteCRC(k)
    # eps = 0.75 makes l1b land exactly at r1, so the U bank has 1 bin
    rates = derive_scheme_rates(leaky, aux, r1=0.25, r21=0.0, r22=0.0, eps=0.75, n=8)
    cb = build_codebook(leaky, aux, rates, seed=0)
    assert cb.counts["n_l1"] == 1
    words = {tuple(cb.u_words[m, 0]) for m in range(cb.counts["n_m1"])}
    assert len(words) == cb.counts["n_m1"]  # precondition: distinct words
    assert exact_equivocation(cb, leaky, "m1_at_y2") == 0.0


def test_exact_equivocation_matches_brute_force_on_noisy_channel():
    # Y2 a noisy observation of X1 gives equivocation strictly inside (0, max)
    k = np.zeros((2, 2, 2, 2))
    for x1, x2 in product(range(2), range(2)):
        k[x1, x2, x1, x1] = 0.7
        k[x1, x2, x1, 1 - x1] = 0.3
    ch = DiscreteCRC(k)
    _, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.4, r21=0.0, r22=0.0, eps=0.2, n=4)
    cb = build_codebook(ch, aux, rates, seed=31)
    for observer in ("m1_at_y2", "m2_at_y1"):
        fast = exact_equivocation(cb, ch, observer)
        slow = brute_force_equivocation(cb, ch, observer)
        assert abs(fast - slow) < 1e-10
        assert 0.0 <= fast <= math.log2(max(cb.counts["n_m1"], 1)) + 1e-12


def test_encoder_covers_real_bins_on_erasure_cascade():
    ch = erasure_cascade_channel(0.3)
    _, aux = _benchmark_setup()  # U = X1
    rates = derive_scheme_rates(ch, aux, r1=0.3, r21=0.0, r22=0.0, eps=0.1, n=6)
    cb = build_codebook(ch, aux, rates, seed=3)
    counts = cb.counts
    assert counts["n_l1"] == 12
    assert cb.typical.shape == (1, 1, 1, counts["n_m1"], 12)
    assert not cb.typical.all()
    # the table is the kernel's verdict on each word triple separately
    p_x2vu = prob.marginalize(aux, ("X2", "V", "U"))
    eps = cb.rates.eps * np.count_nonzero(p_x2vu.probs)
    for m1, l1 in product(range(counts["n_m1"]), range(12)):
        words = {"X2": cb.x2_words[0], "V": cb.v_words[0, 0, 0], "U": cb.u_words[m1, l1]}
        assert cb.typical[0, 0, 0, m1, l1] == prob.typical_mask(words, p_x2vu, eps)
    picks = set()
    for m1, k in product(range(counts["n_m1"]), range(10)):
        res = encode(cb, m1, 0, 0, rng=np.random.default_rng(k))
        assert res.failed or cb.typical[0, 0, res.l21, m1, res.l1]
        picks.add(res.l1)
    assert max(picks) > 0
    for observer in ("m1_at_y2", "m2_at_y1"):
        fast = exact_equivocation(cb, ch, observer)
        slow = brute_force_equivocation(cb, ch, observer)
        assert abs(fast - slow) < 1e-10


def test_exact_equivocation_matches_brute_force_with_multi_message_bins(monkeypatch):
    # both outputs noisy: Y1 a BSC(0.1) of X1 xor X2, Y2 a BSC(0.2) of X1 or X2
    k = np.zeros((2, 2, 2, 2))
    for x1, x2, y1, y2 in product(range(2), repeat=4):
        k[x1, x2, y1, y2] = (0.9 if y1 == x1 ^ x2 else 0.1) * (0.8 if y2 == x1 | x2 else 0.2)
    ch = DiscreteCRC(k)
    probs = np.zeros((2, 2, 2, 2))  # U = X1, V a noisy copy of X2
    for v, u, x2 in product(range(2), repeat=3):
        probs[v, u, u, x2] = (0.75 if v == x2 else 0.25) / 4
    aux = prob.JointPmf(("V", "U", "X1", "X2"), probs)
    rates = SchemeRates(r1=0.2, r21=0.2, r22=0.2, l1=0.4, l1b=0.0, l21=0.4, l21b=0.0, eps=0.05, n=5)
    cb = build_codebook(ch, aux, rates, seed=0)
    counts = cb.counts
    assert all(counts[key] >= 2 for key in ("n_m22", "n_m21", "n_l21", "n_l1"))
    n_pairs = cb.typical.sum(axis=(2, 4))  # typical bin pairs per message
    assert (n_pairs == 0).any() and (n_pairs >= 2).any()
    n_words = int(np.maximum(n_pairs, 1).sum())
    for observer in ("m1_at_y2", "m2_at_y1"):
        fast = exact_equivocation(cb, ch, observer)
        assert abs(fast - brute_force_equivocation(cb, ch, observer)) < 1e-10
        for words_per_block in (1, 4):
            assert words_per_block == 1 or n_words % words_per_block
            monkeypatch.setattr(binning, "_LATTICE_BLOCK", words_per_block * 2**cb.n)
            assert exact_equivocation(cb, ch, observer) == fast
        monkeypatch.undo()


def test_exact_equivocation_budget():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=8)
    cb = build_codebook(ch, aux, rates, seed=1)
    with pytest.raises(BudgetError):
        exact_equivocation(cb, ch, "m1_at_y2", budget=100)
    with pytest.raises(SimError):
        exact_equivocation(cb, ch, "m3_at_y9")


@pytest.mark.parametrize("cards", [(2, 2, 2, 2), (2, 2, 2, 3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_split_lattice_matches_brute_force_on_random_kernels(monkeypatch, cards, n):
    # n = 1 splits the block as a = 0, odd n as a < b; Y2 is ternary in the
    # second kernel. Two of every message, two V bins and three U bins; eps
    # makes every bin pair typical at n = 1, sends every message's fallback
    # word at n = 2, and leaves 2-6 typical pairs otherwise.
    rng = np.random.default_rng(10 + n)
    ch = DiscreteCRC(rng.dirichlet(np.ones(cards[2] * cards[3]), size=cards[:2]).reshape(cards))
    probs = np.zeros((2, 2, 2, 2))  # U = X1, V a noisy copy of X2
    for v, u, x2 in product(range(2), repeat=3):
        probs[v, u, u, x2] = (0.75 if v == x2 else 0.25) / 4
    aux = prob.JointPmf(("V", "U", "X1", "X2"), probs)
    r, eps = 1.0 / n, {1: 0.2, 2: 0.02}.get(n, 0.05)
    rates = SchemeRates(r1=r, r21=r, r22=r, l1=r + math.log2(3) / n, l1b=0.0, l21=2 * r, l21b=0.0, eps=eps, n=n)
    cb = build_codebook(ch, aux, rates, seed=n)
    assert cb.counts == {"n_m1": 2, "n_l1": 3, "n_m21": 2, "n_l21": 2, "n_m22": 2}
    assert (cb.typical.sum(axis=(2, 4)).min() >= 2) == (n != 2)
    for observer in ("m1_at_y2", "m2_at_y1"):
        fast = exact_equivocation(cb, ch, observer)
        assert abs(fast - brute_force_equivocation(cb, ch, observer)) < 1e-10
        monkeypatch.setattr(binning, "_LATTICE_BLOCK", 1)  # one row per batch
        assert exact_equivocation(cb, ch, observer) == fast
        monkeypatch.undo()


def test_orthogonal_equivocation_exact_at_n14():
    # 128 rows of 128 words on a 2^7 x 2^7 split, two rows per default batch
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=14)
    cb = build_codebook(ch, aux, rates, seed=1)
    assert exact_equivocation(cb, ch, "m1_at_y2") == 7.0


@pytest.mark.parametrize("conf", [0.95, 0.9])
def test_clopper_pearson_equals_beta_quantiles(conf):
    from scipy.stats import beta

    alpha = 1.0 - conf
    for n in (1, 2, 3, 10, 57, 200, 399):
        for k in range(n + 1):
            lo, hi = binning._clopper_pearson(k, n, conf)
            assert lo == (0.0 if k == 0 else float(beta.ppf(alpha / 2, k, n - k + 1)))
            assert hi == (1.0 if k == n else float(beta.ppf(1 - alpha / 2, k + 1, n - k)))


def test_run_trials_leaves_scipy_stats_unimported():
    code = (
        "import sys\n"
        "from crcsec.accept import _benchmark_setup\n"
        "from crcsec.binning import derive_scheme_rates, run_trials\n"
        "ch, aux = _benchmark_setup()\n"
        "rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=4)\n"
        "report = run_trials(ch, aux, rates, trials=3, seed=0)\n"
        "assert report.decode1_error_ci[1] > 0.0 and 'scipy.special' in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    src = str(Path(binning.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_equivocation_close_to_u_bin_rate():
    ch, aux = _benchmark_setup()
    rates = derive_scheme_rates(ch, aux, r1=0.5, r21=0.0, r22=0.5, eps=0.2, n=8)
    cb = build_codebook(ch, aux, rates, seed=17)
    eq = exact_equivocation(cb, ch, "m1_at_y2")
    assert abs(eq / rates.n - rates.l1) <= 0.1


def test_merge_w_into_x2():
    ch = orthogonal_channel()
    probs = np.zeros((2, 1, 2, 2, 2))  # (W, V, U, X1, X2)
    for w, x1, x2 in product(range(2), range(2), range(2)):
        probs[w, 0, x1, x1, x2] = 0.125
    aux = prob.JointPmf(("W", "V", "U", "X1", "X2"), probs)
    ch2, merged = merge_w_into_x2(ch, aux)
    assert ch2.cards == (2, 4, 2, 2)
    assert merged.axes == ("V", "U", "X1", "X2")
    assert merged.card("X2") == 4
    # the lifted kernel ignores the W half of the index
    for x1, w, x2 in product(range(2), range(2), range(2)):
        assert np.array_equal(ch2.kernel[x1, w * 2 + x2], ch.kernel[x1, x2])


def test_sim_config_merges_w_axis(tmp_path):
    ch, _ = _benchmark_setup()
    write_channel(ch, tmp_path / "orth.json")
    probs = np.zeros((2, 1, 2, 2, 2))  # (W, V, U, X1, X2)
    for w, x1, x2 in product(range(2), range(2), range(2)):
        probs[w, 0, x1, x1, x2] = 0.125
    aux = prob.JointPmf(("W", "V", "U", "X1", "X2"), probs)
    cfg_obj = {
        "channel": "orth.json",
        "aux": aux.to_jsonable(),
        "n": 4,
        "r1": 0.5,
        "r21": 0.0,
        "r22": 0.5,
        "eps": 0.2,
        "trials": 20,
        "seed": 1,
    }
    path = tmp_path / "simw.json"
    path.write_text(json.dumps(cfg_obj))
    cfg = load_sim_config(path)
    assert cfg.channel.cards == (2, 4, 2, 2)
    assert cfg.aux.axes == ("V", "U", "X1", "X2")
    run_simulation(cfg)  # merged setup still simulates cleanly


def test_sim_config_round_trip(tmp_path):
    ch, aux = _benchmark_setup()
    write_channel(ch, tmp_path / "orth.json")
    cfg_obj = {
        "channel": "orth.json",
        "aux": aux.to_jsonable(),
        "n": 6,
        "r1": 0.5,
        "r21": 0.0,
        "r22": 0.5,
        "eps": 0.2,
        "trials": 60,
        "seed": 5,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg_obj))
    cfg = load_sim_config(path)
    report = run_simulation(cfg)
    assert report.trials == 60
    assert report.counts["n_m1"] == 8
    bad = dict(cfg_obj, r1="not-a-number")
    path.write_text(json.dumps(bad))
    with pytest.raises(SimError):
        load_sim_config(path)
