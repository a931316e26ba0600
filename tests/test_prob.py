import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crcsec import bounds
from crcsec.prob import (
    Informations,
    JointPmf,
    ProbError,
    _stacked_sum,
    conditional_mutual_information,
    entropy,
    marginalize,
    mutual_information,
    positive_part,
    sample_joint,
    typical_mask,
)

# high-precision oracle values (40-digit evaluation, rounded to double)
H2_01 = 0.4689955935892812
H2_011 = 0.4999159581645280


def uniform(*cards, axes=None):
    axes = axes or tuple("ABCDEF"[: len(cards)])
    return JointPmf(axes, np.full(cards, 1.0 / np.prod(cards)))


def test_entropy_uniform_and_point_mass():
    assert entropy(uniform(2, axes=("X",)), "X") == 1.0
    point = JointPmf(("X", "Y"), np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert entropy(point, ("X", "Y")) == 0.0


def test_entropy_bernoulli_matches_high_precision():
    p = JointPmf(("X",), np.array([0.9, 0.1]))
    assert abs(entropy(p, "X") - H2_01) < 1e-12


def test_entropy_bounds_and_unknown_variable():
    p = uniform(2, 3)
    assert 0.0 <= entropy(p, ("A", "B")) <= math.log2(6) + 1e-12
    with pytest.raises(ProbError):
        entropy(p, "Z")
    with pytest.raises(ProbError):
        entropy(p, ())


def test_mi_independent_and_identity():
    assert mutual_information(uniform(2, 2), "A", "B") == 0.0
    ident = JointPmf(("X", "Y"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mutual_information(ident, "X", "Y") == 1.0


def test_mi_binary_symmetric_flip():
    flip = 0.1
    probs = np.array([[0.5 * (1 - flip), 0.5 * flip], [0.5 * flip, 0.5 * (1 - flip)]])
    got = mutual_information(JointPmf(("X", "Y"), probs), "X", "Y")
    assert abs(got - (1.0 - H2_01)) < 1e-12


def test_cmi_rejects_overlap():
    p = uniform(2, 2, 2)
    with pytest.raises(ProbError):
        conditional_mutual_information(p, "A", "A", "C")
    with pytest.raises(ProbError):
        conditional_mutual_information(p, "A", "B", ("B",))


def test_cmi_chain_rule_on_random_joints():
    for seed in range(200):
        p = sample_joint([("A", 2), ("B", 3), ("C", 2)], seed=seed)
        lhs = entropy(p, ("A", "B"))
        rhs = entropy(p, "A") + (entropy(p, ("A", "B")) - entropy(p, "A"))
        assert abs(lhs - rhs) < 1e-12
        # I(A;B|C) >= 0 and I(A;B) <= min(H(A), H(B))
        assert conditional_mutual_information(p, "A", "B", "C") >= 0.0
        mi = mutual_information(p, "A", "B")
        assert mi <= min(entropy(p, "A"), entropy(p, "B")) + 1e-12


def cmi_direct_sum(p, a, b, c):
    # literal double-sum definition, kept independent of the library path
    pa, pb, pc = (p.axis_index(v) for v in (a, b, c))
    pabc = p.probs
    total = 0.0
    for idx in product(*[range(s) for s in p.cards]):
        v = pabc[idx]
        if v <= 0:
            continue
        p_c = sum(pabc[j] for j in product(*[range(s) for s in p.cards]) if j[pc] == idx[pc])
        p_ac = sum(
            pabc[j]
            for j in product(*[range(s) for s in p.cards])
            if j[pa] == idx[pa] and j[pc] == idx[pc]
        )
        p_bc = sum(
            pabc[j]
            for j in product(*[range(s) for s in p.cards])
            if j[pb] == idx[pb] and j[pc] == idx[pc]
        )
        total += v * math.log2(v * p_c / (p_ac * p_bc))
    return total


def test_cmi_matches_direct_sum_oracle():
    for seed in range(200):
        p = sample_joint([("A", 2), ("B", 2), ("C", 2)], seed=seed)
        got = conditional_mutual_information(p, "A", "B", "C")
        assert abs(got - cmi_direct_sum(p, "A", "B", "C")) < 1e-12


def test_marginalize_identity_and_product():
    p = uniform(2, 2)
    same = marginalize(p, ("A", "B"))
    assert np.array_equal(same.probs, p.probs)
    q = sample_joint([("A", 3)], seed=4)
    r = sample_joint([("B", 2)], seed=5)
    joint = JointPmf(("A", "B"), np.outer(q.probs, r.probs))
    np.testing.assert_allclose(marginalize(joint, "A").probs, q.probs, atol=1e-15)
    with pytest.raises(ProbError):
        marginalize(p, "Z")


def test_marginalize_of_marginal_and_mass():
    p = sample_joint([("A", 2), ("B", 3), ("C", 2)], seed=11)
    direct = marginalize(p, "A")
    two_step = marginalize(marginalize(p, ("A", "B")), "A")
    np.testing.assert_array_equal(direct.probs, two_step.probs)
    assert abs(marginalize(p, ("A", "C")).probs.sum() - 1.0) < 1e-12


def test_positive_part():
    assert positive_part(0.3) == 0.3
    assert positive_part(-0.3) == 0.0
    assert positive_part(0.0) == 0.0
    with pytest.raises(ProbError):
        positive_part(float("nan"))


def test_sample_joint_simplex_and_determinism():
    p = sample_joint([("X", 2)], seed=99)
    assert p.probs.shape == (2,)
    assert abs(p.probs.sum() - 1.0) < 1e-12
    q = sample_joint([("X", 2)], seed=99)
    assert np.array_equal(p.probs, q.probs)
    with pytest.raises(ProbError):
        sample_joint([("X", 0)], seed=1)


def test_sample_joint_flat_dirichlet_mean():
    vals = [sample_joint([("X", 2)], seed=s).probs[0] for s in range(10_000)]
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_typicality_exact_and_support():
    p = uniform(2, 2, axes=("X", "Y"))
    seqs = {"X": [0, 0, 1, 1], "Y": [0, 1, 0, 1]}
    assert typical_mask(seqs, p, 1e-9)  # exact empirical distribution
    ident = JointPmf(("X", "Y"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert not typical_mask({"X": [0, 1], "Y": [1, 1]}, ident, 0.5)
    # a stack of Y words against one X word: one verdict per stacked word
    stacked = typical_mask({"X": [0, 1], "Y": [[0, 1], [1, 1], [0, 0]]}, ident, 0.5)
    assert stacked.tolist() == [True, False, False]


def test_typicality_length_and_range_errors():
    p = uniform(2, 2, axes=("X", "Y"))
    with pytest.raises(ProbError):
        typical_mask({"X": [0, 1], "Y": [0]}, p, 0.1)
    with pytest.raises(ProbError):
        typical_mask({"X": [0, 2], "Y": [0, 1]}, p, 0.1)
    with pytest.raises(ProbError):
        typical_mask({"X": [0, -1], "Y": [0, 1]}, p, 0.1)
    with pytest.raises(ProbError):
        typical_mask({"X": [], "Y": []}, p, 0.1)
    with pytest.raises(ProbError):
        typical_mask({"X": [0, 1], "Y": [0, 1]}, p, -0.1)
    with pytest.raises(ProbError):
        typical_mask({"X": [0, 1]}, p, 0.1)  # missing axis
    with pytest.raises(ValueError):
        typical_mask({"X": [[0, 1]] * 2, "Y": [[0, 1]] * 3}, p, 0.1)  # no broadcast


def test_typicality_acceptance_rate_vs_multinomial_oracle():
    # exact multinomial acceptance probability for n=8, 4 uniform cells,
    # eps=0.25: every cell count must be <= 4 (freq within [0, 0.5])
    n, eps = 8, 0.25
    from math import factorial

    def multinom(cs):
        m = factorial(n)
        for c in cs:
            m //= factorial(c)
        return m

    exact = sum(
        multinom((a, b, c, n - a - b - c))
        for a in range(n + 1)
        for b in range(n + 1 - a)
        for c in range(n + 1 - a - b)
        if max(a, b, c, n - a - b - c) <= 4
    ) / 4**n
    assert exact >= 0.5
    p = uniform(2, 2, axes=("X", "Y"))
    rng = np.random.default_rng(123)
    trials = 10_000
    draws = [(rng.integers(0, 2, n), rng.integers(0, 2, n)) for _ in range(trials)]
    x, y = (np.array(words) for words in zip(*draws))
    hits = int(typical_mask({"X": x, "Y": y}, p, eps).sum())
    assert hits / trials >= 0.5
    assert abs(hits / trials - exact) < 4 * math.sqrt(exact * (1 - exact) / trials)


def test_jointpmf_invariants():
    with pytest.raises(ProbError):
        JointPmf(("X",), np.array([0.5, 0.6]))
    with pytest.raises(ProbError):
        JointPmf(("X",), np.array([1.5, -0.5]))
    with pytest.raises(ProbError):
        JointPmf(("X", "X"), np.full((2, 2), 0.25))
    roundtrip = JointPmf.from_jsonable(uniform(2, 3).to_jsonable())
    assert roundtrip.axes == ("A", "B")
    assert np.array_equal(roundtrip.probs, uniform(2, 3).probs)


@st.composite
def joints(draw, names=("A", "B", "C", "D")):
    """Joint pmfs with cardinalities 1-3, zero cells and skewed weights."""
    cards = tuple(draw(st.integers(1, 3)) for _ in names)
    size = int(np.prod(cards))
    weight = st.floats(0.0, 1.0, allow_subnormal=False)
    weights = draw(st.lists(weight, min_size=size, max_size=size).filter(lambda w: sum(w) > 0))
    probs = np.asarray(weights).reshape(cards)
    return JointPmf(names, probs / probs.sum())


# one role per variable: in A, in B, in C or unused; A and B nonempty
roles = st.lists(st.sampled_from("abcn"), min_size=4, max_size=4).filter(
    lambda r: "a" in r and "b" in r
)


def split(names, role):
    return tuple(tuple(n for n, r in zip(names, role) if r == g) for g in "abc")


@settings(max_examples=200, deadline=None)
@given(p=joints(), role=roles)
def test_cmi_chain_rule_and_nonnegativity(p, role):
    a, b, c = split(p.axes, role)
    info = Informations(p)
    assert info.i(a, b, c) >= 0.0
    if c:
        assert abs(info.i(a, b + c) - (info.i(a, b) + info.i(a, c, b))) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(p=joints(), queries=st.lists(roles, min_size=1, max_size=12))
def test_memoized_informations_equal_one_shot_calls(p, queries):
    info = Informations(p)
    for role in queries:
        a, b, c = split(p.axes, role)
        assert info.i(a, b, c) == conditional_mutual_information(p, a, b, c)
        assert info.h(a + c) == entropy(p, a + c)


@st.composite
def stacked_rows(draw, names=("A", "B", "C", "D")):
    """A pool of degenerate, copy-pattern and full-support rows, and a stack of
    them whose height lies on either side of the rows one candidate stack holds."""
    cards = tuple(draw(st.integers(2, 5)) for _ in names)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = []
    for kind in draw(st.lists(st.sampled_from(["degenerate", "copy", "full"]), min_size=1, max_size=6)):
        row = np.zeros(cards)
        if kind == "degenerate":
            row[tuple(int(rng.integers(c)) for c in cards)] = 1.0
        elif kind == "copy":  # uniform source axis, the others copying it or fixed at 0
            src = int(rng.integers(len(cards)))
            copies = rng.integers(2, size=len(cards))
            for v in range(cards[src]):
                cell = tuple(v if k == src else v % c * copies[k] for k, c in enumerate(cards))
                row[cell] += 1.0 / cards[src]
        else:
            row = rng.dirichlet(np.ones(row.size)).reshape(cards)
        pool.append(row)
    per_stack = bounds._STACK_FLOATS // int(np.prod(cards))
    height = draw(st.sampled_from([1, per_stack, per_stack + 1, 2 * per_stack + 3]))
    which = rng.integers(len(pool), size=height)
    return names, pool, which


@settings(max_examples=25, deadline=None)
@given(case=stacked_rows(), queries=st.lists(roles, min_size=1, max_size=4))
def test_stacked_informations_equal_one_shot_rows(case, queries):
    names, pool, which = case
    info = Informations(names, np.stack(pool)[which])
    joints = [JointPmf(names, row) for row in pool]

    def same_bits(got, want):
        return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))

    for role in queries:
        a, b, c = split(names, role)
        want = np.array([conditional_mutual_information(p, a, b, c) for p in joints])
        assert same_bits(info.i(a, b, c), want[which])
        for group in (a + c, b + c, a + b + c, c):
            if group:
                want = np.array([entropy(p, group) for p in joints])
                assert same_bits(info.h(group), want[which])


@st.composite
def sum_stacks(draw):
    """``(cards, S, seed, zero_frac)``: 2-7 axes of 1-6 values (unit axes
    included) and at most ``1 << 16`` floats per stack."""
    cards = draw(st.lists(st.integers(1, 6), min_size=2, max_size=7).filter(lambda c: np.prod(c) <= 1 << 15))
    heights = [s for s in (2, 3, 40, 160) if s * np.prod(cards) <= 1 << 16]
    return tuple(cards), draw(st.sampled_from(heights)), draw(st.integers(0, 2**32 - 1)), draw(
        st.sampled_from([0.0, 0.3, 0.9])
    )


@settings(max_examples=40, deadline=None)
@given(case=sum_stacks())
@example(case=((3, 2, 5, 4), 160, 1, 0.3))  # trailing runs of 4, 20, 40 and 120
@example(case=((1, 6, 6, 6, 1), 3, 2, 0.0))  # a trailing run of 216 past a unit axis
@example(case=((6, 1, 6, 6, 6), 40, 3, 0.9))  # trailing runs of 216 and 1296
def test_stacked_sum_equals_numpy_sum_bit_for_bit(case):
    """Every drop subset of an axis-last stack sums to numpy's own ``sum`` of
    the ``(S, *cards)`` stack, bit for bit: rows with zeros, unit axes, and
    trailing runs of dropped axes below 8, from 8 to 128 and above 128."""
    cards, height, seed, zero_frac = case
    rng = np.random.default_rng(seed)
    stack = rng.random((height, *cards)) * (rng.random((height, *cards)) >= zero_frac)
    last = np.ascontiguousarray(np.moveaxis(stack, 0, -1))
    for r in range(len(cards) + 1):
        for drop in combinations(range(len(cards)), r):
            want = stack.sum(axis=tuple(d + 1 for d in drop))
            got = np.moveaxis(_stacked_sum(last, drop), -1, 0)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (cards, height, drop)


def loop_typical(words, p, eps):
    """Oracle: per stacked word, count the cells in a dict and test each."""
    arrays = np.broadcast_arrays(*(np.asarray(words[name]) for name in p.axes))
    out = np.zeros(arrays[0].shape[:-1], dtype=bool)
    for idx in np.ndindex(out.shape):
        columns = [a[idx] for a in arrays]
        n = len(columns[0])
        counts = {}
        for t in range(n):
            cell = tuple(int(c[t]) for c in columns)
            counts[cell] = counts.get(cell, 0) + 1
        out[idx] = all(
            abs(counts.get(cell, 0) / n - p.probs[cell]) <= eps
            and (p.probs[cell] > 0.0 or cell not in counts)
            for cell in np.ndindex(p.cards)
        )
    return out


@st.composite
def typicality_cases(draw):
    """Small pmfs with zero cells, broadcastable word stacks, eps from 0."""
    names = ("A", "B", "C")[: draw(st.integers(1, 3))]
    cards = tuple(draw(st.integers(1, 3)) for _ in names)
    size = int(np.prod(cards))
    # small integer weights give rational cells that words can hit exactly
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
    probs = np.asarray(weights, dtype=float).reshape(cards)
    p = JointPmf(names, probs / probs.sum())
    n = draw(st.integers(1, 6))
    lead = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    words = {}
    for name, card in zip(names, cards):
        # keep a suffix of the leading shape, with some dimensions set to 1
        kept = lead[draw(st.integers(0, len(lead))):]
        shape = tuple(d if draw(st.booleans()) else 1 for d in kept) + (n,)
        symbols = draw(st.lists(st.integers(0, card - 1), min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape))))
        words[name] = np.asarray(symbols, dtype=np.int64).reshape(shape)
    eps = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]) | st.floats(0.0, 1.0))
    return words, p, eps


@settings(max_examples=300, deadline=None)
@given(case=typicality_cases())
def test_typical_mask_equals_loop_oracle(case):
    words, p, eps = case
    mask = typical_mask(words, p, eps)
    expected = loop_typical(words, p, eps)
    assert mask.dtype == bool and mask.shape == expected.shape
    assert np.array_equal(mask, expected)


def test_typical_mask_across_count_blocks_matches_single_words():
    # 27 cells and 3000 words: more words than one count block holds
    p = sample_joint([("A", 3), ("B", 3), ("C", 3)], seed=0)
    rng = np.random.default_rng(1)
    flat = rng.choice(27, size=(3000, 8), p=p.probs.ravel())
    words = dict(zip(p.axes, np.unravel_index(flat, p.cards)))
    mask = typical_mask(words, p, 0.2)
    single = [typical_mask({k: w[i] for k, w in words.items()}, p, 0.2) for i in range(3000)]
    assert 0 < mask.sum() < 3000
    assert mask.tolist() == single
