"""Per-layer timings of the stacked entropy memo and of the Gaussian sweeps,
with pytest-benchmark.

Run from the repository root:

    pytest tests/bench_memo.py --benchmark-only

Tier-1 does not collect this file: its name does not match ``test_*.py``,
and pytest runs it only when given its path. The stack is one of the AC6
search's: the outer bound on ``xor_channel()`` at the default search
cardinalities (W 2, V 5, U 5), 40 candidates of 800 extended-joint floats.
The row-entropy kernel runs on the marginals of that bound's structured
candidates, whose rows have mixed supports. The draw and vertex cases time
the search's two per-candidate steps at AC6's 5000 samples, each against the
one-candidate-at-a-time form it replaced. The Gaussian cases time one
800-step ``crcsec gauss`` job in-process and ``figure_dataset()``.
"""

import numpy as np
import pytest

from crcsec import bounds, cli, gaussian, prob
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


@pytest.fixture(scope="module")
def marginals():
    """The ``(S, cells)`` marginal of every entropy the outer bound reads from
    its structured candidates on xor, as the memo passes it to the kernel."""
    seen, kernel = [], prob._row_entropies
    structured = bounds.structured_candidates(CH, list(zip(AXES, CARDS)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prob, "_row_entropies", lambda flat: seen.append(flat) or kernel(flat))
        bounds._outer_caps(prob.Informations(NAMES, push_through(CH, AXES, structured)))
    return seen


def test_row_entropies(benchmark, marginals):
    """Every row entropy of the outer caps of the structured candidates."""
    benchmark(lambda: [prob._row_entropies(flat) for flat in marginals])


def test_bound_point_inner(benchmark):
    """One inner-bound evaluation: the S = 1 memo."""
    aux = prob.sample_joint([("Q", 1), ("W", 2), ("V", 5), ("U", 5), ("X1", 2), ("X2", 2)], 3)
    benchmark(bounds.bound_point, CH, bounds.BoundKind.INNER, aux)


def test_search_outer_ac6(benchmark):
    """AC6's search: the outer bound on xor at 5000 samples."""
    benchmark.pedantic(bounds.search_region, args=(CH, "outer"), kwargs={"samples": 5000}, rounds=3)


AC6_DRAWS, AC6_SEED = 5000, 1


@pytest.mark.parametrize("how", ["dirichlet_block", "per_draw"])
def test_ac6_draws(benchmark, how):
    """AC6's 5000 seeded flat-Dirichlet draws over 200 cells."""
    size = int(np.prod(CARDS))
    if how == "dirichlet_block":
        benchmark(prob.dirichlet_block, AC6_SEED, 0, AC6_DRAWS, size)
    else:
        benchmark(lambda: [np.random.default_rng(np.random.SeedSequence((AC6_SEED, i))).dirichlet(np.ones(size))
                           for i in range(AC6_DRAWS)])


@pytest.fixture(scope="module")
def outer_caps():
    """The ``(5, 5000)`` outer caps of AC6's draws on xor."""
    spec, size = bounds.BOUNDS[bounds.BoundKind.OUTER], int(np.prod(CARDS))
    blocks = [prob.dirichlet_block(AC6_SEED, start, min(HEIGHT, AC6_DRAWS - start), size).reshape(-1, *CARDS)
              for start in range(0, AC6_DRAWS, HEIGHT)]
    return np.concatenate([bounds._caps(CH, spec, AXES, block) for block in blocks], axis=1)


@pytest.mark.parametrize("how", ["vertex_rows", "per_candidate"])
def test_ac6_vertices(benchmark, outer_caps, how):
    """The vertex step of 5000 outer candidates."""
    if how == "vertex_rows":
        benchmark(bounds._vertex_rows, outer_caps)
    else:
        benchmark(lambda: [bounds._vertices(*caps) for caps in outer_caps.T.tolist()])


def test_gauss_cli_800_steps(benchmark, tmp_path):
    """One weak-family ``crcsec gauss`` job of 800 steps: sweep, frontier and
    the three output files."""
    argv = ["gauss", "--mode", "weak", "--a", "1.3", "--b", "0.75", "--p1", "23.1", "--p2", "17.7",
            "--steps", "800", "--out", str(tmp_path / "gauss")]
    assert benchmark(cli.main, argv) == 0


def test_figure_dataset(benchmark):
    """The four weak-family frontiers of the reference figure, as rate points."""
    benchmark(gaussian.figure_dataset)
