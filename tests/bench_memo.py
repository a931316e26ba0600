"""Per-layer timings of the stacked entropy memo, with pytest-benchmark.

Run from the repository root:

    pytest tests/bench_memo.py --benchmark-only

Tier-1 does not collect this file: its name does not match ``test_*.py``,
and pytest runs it only when given its path. The stack is one of the AC6
search's: the outer bound on ``xor_channel()`` at the default search
cardinalities (W 2, V 5, U 5), 40 candidates of 800 extended-joint floats.
"""

import numpy as np
import pytest

from crcsec import bounds, prob
from crcsec.channel import push_through, xor_channel

CH = xor_channel()
AXES = ("W", "V", "U", "X1", "X2")
CARDS = (2, 5, 5, 2, 2)
NAMES = AXES + ("Y1", "Y2")
HEIGHT = bounds._STACK_FLOATS // (int(np.prod(CARDS)) * CH.cards[2] * CH.cards[3])


@pytest.fixture(scope="module")
def stack():
    draws = np.random.default_rng(0).dirichlet(np.ones(int(np.prod(CARDS))), size=HEIGHT)
    return push_through(CH, AXES, draws.reshape(HEIGHT, *CARDS))


def test_memo_outer_caps(benchmark, stack):
    """Every entropy the outer bound reads, from a fresh memo of one stack."""
    benchmark(lambda: bounds._outer_caps(prob.Informations(NAMES, stack)))


# Trailing runs of dropped cells: 400 (pairwise halves), 16 after one dropped
# axis, and 2 after four dropped axes added one by one.
@pytest.mark.parametrize("keep", [("W",), ("V", "U"), ("U", "Y1")])
@pytest.mark.parametrize("how", ["stacked_sum", "ndarray_sum"])
def test_one_marginal(benchmark, stack, keep, how):
    drop = tuple(i for i, name in enumerate(NAMES) if name not in keep)
    if how == "stacked_sum":
        last = np.ascontiguousarray(np.moveaxis(stack, 0, -1))
        benchmark(prob._stacked_sum, last, drop)
    else:
        benchmark(stack.sum, axis=tuple(d + 1 for d in drop))


def test_bound_point_inner(benchmark):
    """One inner-bound evaluation: the S = 1 memo."""
    aux = prob.sample_joint([("Q", 1), ("W", 2), ("V", 5), ("U", 5), ("X1", 2), ("X2", 2)], 3)
    benchmark(bounds.bound_point, CH, bounds.BoundKind.INNER, aux)


def test_search_outer_ac6(benchmark):
    """AC6's search: the outer bound on xor at 5000 samples."""
    benchmark.pedantic(bounds.search_region, args=(CH, "outer"), kwargs={"samples": 5000}, rounds=3)
