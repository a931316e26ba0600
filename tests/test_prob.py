import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcsec.prob import (
    Informations,
    JointPmf,
    ProbError,
    conditional_mutual_information,
    entropy,
    is_jointly_typical,
    marginalize,
    mutual_information,
    positive_part,
    sample_joint,
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
    assert is_jointly_typical(seqs, p, 1e-9)  # exact empirical distribution
    ident = JointPmf(("X", "Y"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert not is_jointly_typical({"X": [0, 1], "Y": [1, 1]}, ident, 0.5)


def test_typicality_length_and_range_errors():
    p = uniform(2, 2, axes=("X", "Y"))
    with pytest.raises(ProbError):
        is_jointly_typical({"X": [0, 1], "Y": [0]}, p, 0.1)
    with pytest.raises(ProbError):
        is_jointly_typical({"X": [0, 2], "Y": [0, 1]}, p, 0.1)
    with pytest.raises(ProbError):
        is_jointly_typical({"X": [0, -1], "Y": [0, 1]}, p, 0.1)
    with pytest.raises(ProbError):
        is_jointly_typical({"X": [], "Y": []}, p, 0.1)
    with pytest.raises(ProbError):
        is_jointly_typical({"X": [0, 1], "Y": [0, 1]}, p, -0.1)


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
    hits = 0
    trials = 10_000
    for _ in range(trials):
        x = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        hits += is_jointly_typical({"X": x, "Y": y}, p, eps)
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
