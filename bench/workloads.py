"""Seeded inputs and per-cycle job lists of the three benchmark workloads.

A run repeats whole *cycles*; a cycle is one pass over the workload's job
mix. Every program input (channel files, simulation configs, argv) is
derived from the workload seed and the cycle number, so the same seed gives
the same inputs and no two cycles repeat a call verbatim. Job sizes do not
depend on the seed, so every seed asks for the same amount of work.

Jobs are either ``crcsec`` command lines (run in-process through
``crcsec.cli.main``) or the library call ``gaussian.figure_dataset()``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("search", "gauss", "simulate")

# Unit of work per workload, used by ``units_per_s``.
UNITS = {
    "search": "candidate distributions requested",
    "gauss": "alpha-grid points",
    "simulate": "simulated blocks (trials)",
}

# ``job_tail_s`` is this percentile of job time: the highest multiple of five
# that leaves at least ten jobs beyond it in a run at the seed commit, which
# completes 2 search cycles (44 jobs) and 3 gauss and simulate cycles (42 each).
TAIL_PERCENTILE = 75

SMALL_CARDS = "1,1,1,2"
DEFAULT_CARDS = "1,2,5,5"  # SearchCards() on 2x2-input channels: q=1, w=2, v=u=5
AC6_SAMPLES = 5000
FIGURE_POINTS = 4 * 401  # figure_dataset() / figure2: four b values, 400 steps


@dataclass
class Job:
    """One unit of the closed loop: a CLI call or the figure_dataset() call."""

    name: str  # stable across cycles and seeds; keys the reference outputs
    kind: str  # "discrete" | "check" | "gauss" | "figure2" | "figure_dataset" | "simulate"
    argv: list[str]
    units: int
    expect_exit: int = 0
    out: Path | None = None  # directory the job writes, checked afterwards
    params: dict = field(default_factory=dict)  # inputs the output checks need


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *path]))


def _derived_seed(seed: int, *path: int) -> int:
    return int(_rng(seed, *path).integers(0, 2**31 - 1))


# ------------------------------------------------------------------ inputs

def _pure_noise_kernel() -> np.ndarray:
    """Y1 = X1; Y2 is a fair coin independent of both inputs."""
    k = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        k[x1, :, x1, :] = 0.5
    return k


def _random_kernel(seed: int) -> np.ndarray:
    """A 2x2x2x3 kernel with rows drawn flat-Dirichlet from the seed."""
    rows = _rng(seed, 7001).dirichlet(np.ones(6), size=(2, 2))
    return rows.reshape(2, 2, 2, 3)


def write_inputs(seed: int, inputs: Path) -> dict[str, Path]:
    """Write every channel file the workloads read; return name -> path."""
    from crcsec.channel import (
        DiscreteCRC,
        erasure_cascade_channel,
        orthogonal_channel,
        write_channel,
        xor_channel,
    )

    inputs.mkdir(parents=True, exist_ok=True)
    channels = {
        "orth": orthogonal_channel(),
        "xor": xor_channel(),
        "erasure": erasure_cascade_channel(0.3),
        "noise": DiscreteCRC(_pure_noise_kernel(), name="pure-noise"),
        "rand": DiscreteCRC(_random_kernel(seed), name=f"random-{seed}"),
    }
    paths = {}
    for name, ch in channels.items():
        paths[name] = inputs / f"{name}.json"
        write_channel(ch, paths[name])
    return paths


def setup_files(workload: str, seed: int, inputs: Path) -> list[Path]:
    """Write the inputs and the cycle-0 configs; return the files set-up loads."""
    channels = write_inputs(seed, inputs)
    if workload == "search":
        return [channels[n] for n in ("orth", "xor", "erasure", "rand")]
    if workload == "simulate":
        return [Path(job.argv[2]) for job in cycle_jobs(workload, seed, 0, inputs, inputs)]
    return []


# ------------------------------------------------------------------ search

# (bound, channel, cards, samples): inner, outer and lessnoisy on the four
# channels that admit them, semidet and semidet1 on the three channels with a
# noiseless Y1; small and default cardinalities, 100 to 300 samples each.
_SEARCH_GRID = [
    ("inner", "orth", SMALL_CARDS, 200),
    ("inner", "xor", DEFAULT_CARDS, 100),
    ("inner", "erasure", SMALL_CARDS, 300),
    ("inner", "rand", DEFAULT_CARDS, 200),
    ("outer", "orth", DEFAULT_CARDS, 100),
    ("outer", "xor", SMALL_CARDS, 300),
    ("outer", "erasure", DEFAULT_CARDS, 200),
    ("outer", "rand", SMALL_CARDS, 100),
    ("lessnoisy", "orth", SMALL_CARDS, 300),
    ("lessnoisy", "xor", DEFAULT_CARDS, 200),
    ("lessnoisy", "erasure", SMALL_CARDS, 100),
    ("lessnoisy", "rand", DEFAULT_CARDS, 300),
    ("semidet", "orth", DEFAULT_CARDS, 200),
    ("semidet", "xor", SMALL_CARDS, 300),
    ("semidet", "erasure", DEFAULT_CARDS, 100),
    ("semidet1", "orth", SMALL_CARDS, 100),
    ("semidet1", "xor", DEFAULT_CARDS, 200),
    ("semidet1", "erasure", DEFAULT_CARDS, 300),
]

# (channel, condition, expected exit code): semidet11 holds on xor with a gap
# of exactly 0; lessnoisy46 is violated on orth (exit 3) and holds on erasure.
_CHECKS = [("xor", "semidet11", 0), ("orth", "lessnoisy46", 3), ("erasure", "lessnoisy46", 0)]
CHECK_SAMPLES = 150


def _search_jobs(seed: int, cycle: int, inputs: Path, out: Path) -> list[Job]:
    jobs = []
    for i, (bound, ch, cards, samples) in enumerate(_SEARCH_GRID):
        name = f"discrete-{bound}-{ch}-{'small' if cards == SMALL_CARDS else 'default'}"
        jobs.append(_discrete_job(name, bound, ch, cards, samples, _derived_seed(seed, cycle, i), inputs, out))
    for i, (ch, cond, code) in enumerate(_CHECKS):
        argv = ["check", "--channel", str(inputs / f"{ch}.json"), "--condition", cond,
                "--samples", str(CHECK_SAMPLES), "--seed", str(_derived_seed(seed, cycle, 100 + i))]
        jobs.append(Job(f"check-{cond}-{ch}", "check", argv, CHECK_SAMPLES, code,
                        params={"condition": cond}))
    # One AC6-size job per cycle: AC6's outer-bound search on xor.
    jobs.append(_discrete_job("discrete-outer-xor-ac6", "outer", "xor", DEFAULT_CARDS, AC6_SAMPLES,
                              _derived_seed(seed, cycle, 200), inputs, out))
    return jobs


def _discrete_job(name, bound, ch, cards, samples, job_seed, inputs, out) -> Job:
    argv = ["discrete", "--bound", bound, "--channel", str(inputs / f"{ch}.json"), "--cards", cards,
            "--samples", str(samples), "--seed", str(job_seed), "--out", str(out / name)]
    return Job(name, "discrete", argv, samples, out=out / name, params={"bound": bound})


# ------------------------------------------------------------------ gauss

def _gauss_jobs(seed: int, cycle: int, out: Path) -> list[Job]:
    rng = _rng(seed, cycle, 3)
    p1, p2 = (float(v) for v in rng.uniform(5.0, 40.0, size=2))
    a_weak = float(rng.uniform(0.5, 2.0))
    b_deg = float(rng.uniform(0.3, 0.9))
    b_strong = float(rng.uniform(1.2, 2.0))
    b_sec = float(rng.uniform(0.2, 0.9))
    # Job costs grow quadratically with steps. The classes (tiny, 200, 500,
    # 800 steps, 1000) are at least twice apart in cost, so that machine
    # speed noise does not reorder them: the median job lands in the 500
    # class and the 75th percentile among the 800-step jobs and
    # figure_dataset(), for any number of cycles.
    specs = [  # (name, mode, a, b, steps)
        ("gauss-secrecy-strong-500", "secrecy", a_weak, b_strong, 500),
        ("gauss-secrecy-strong-1000", "secrecy", a_weak, b_strong, 1000),
        ("gauss-weak-b0.25-200", "weak", a_weak, 0.25, 200),
        ("gauss-weak-b0.5-200", "weak", a_weak, 0.5, 200),
        ("gauss-degraded-200", "degraded", 1.0 / b_deg, b_deg, 200),
        ("gauss-weak-b0.25-500", "weak", a_weak, 0.25, 500),
        ("gauss-weak-b0.5-500", "weak", a_weak, 0.5, 500),
        ("gauss-degraded-500", "degraded", 1.0 / b_deg, b_deg, 500),
        ("gauss-weak-b0.75-800", "weak", a_weak, 0.75, 800),
        ("gauss-weak-b1.0-800", "weak", a_weak, 1.0, 800),
        ("gauss-secrecy-weak-800", "secrecy", a_weak, b_sec, 800),
        ("gauss-degraded-1000", "degraded", 1.0 / b_deg, b_deg, 1000),
    ]
    jobs = []
    for name, mode, a, b, steps in specs:
        argv = ["gauss", "--mode", mode, "--a", repr(a), "--b", repr(b), "--p1", repr(p1),
                "--p2", repr(p2), "--steps", str(steps), "--out", str(out / name)]
        jobs.append(Job(name, "gauss", argv, steps + 1, out=out / name,
                        params={"mode": mode, "a": a, "b": b, "p1": p1, "p2": p2, "steps": steps}))
    jobs.append(Job("figure_dataset", "figure_dataset", [], FIGURE_POINTS))
    jobs.append(Job("figure2", "figure2", ["figure2", "--outdir", str(out / "figure2")], FIGURE_POINTS,
                    out=out / "figure2"))
    return jobs


# ------------------------------------------------------------------ simulate

def _u_eq_x1_aux() -> dict:
    """V degenerate, U = X1, X1 and X2 independent uniform (axes V, U, X1, X2)."""
    probs = np.zeros((1, 2, 2, 2))
    for x1 in range(2):
        probs[0, x1, x1, :] = 0.25
    return {"axes": [["V", 1], ["U", 2], ["X1", 2], ["X2", 2]], "probs": [float(v) for v in probs.ravel()]}


# (name, channel, n, r1, r22, eps, trials). (a) the AC8 noiseless
# parallel-links setup, (b) erasure cascade with 16-28 real bins per message,
# plus AC8's pure-noise eavesdropper, whose equivocation is exactly log2|M1|.
# The cost of a (b) job depends on how many bin pairs of its codebook are
# typical, so (b) jobs are kept short and below the median. The median job
# lands in the n = 8, 150-trial class and the 75th percentile in the n = 8,
# 300-trial class, whose costs do not depend on the codebook and are about
# twice apart, so machine speed noise does not reorder them.
_SIM_GRID = [
    *((f"sim-noise-n8-{k}", "noise", 8, 0.5, 0.0, 0.2, 60) for k in "ab"),
    *((f"sim-erasure-eps0.2-{k}", "erasure", 8, 0.3, 0.0, 0.2, 20) for k in "ab"),
    *((f"sim-erasure-eps0.1-{k}", "erasure", 8, 0.3, 0.0, 0.1, 20) for k in "ab"),
    *((f"sim-orth-n8-{k}", "orth", 8, 0.5, 0.5, 0.2, 150) for k in "abc"),
    *((f"sim-orth-n8-long-{k}", "orth", 8, 0.5, 0.5, 0.2, 300) for k in "abc"),
    ("sim-orth-n10", "orth", 10, 0.5, 0.5, 0.2, 150),
    ("sim-orth-n12", "orth", 12, 0.5, 0.5, 0.2, 20),
]


def _simulate_jobs(seed: int, cycle: int, inputs: Path, out: Path) -> list[Job]:
    jobs = []
    for i, (name, ch, n, r1, r22, eps, trials) in enumerate(_SIM_GRID):
        config = {"channel": f"{ch}.json", "aux": _u_eq_x1_aux(), "n": n, "r1": r1, "r21": 0.0,
                  "r22": r22, "eps": eps, "trials": trials, "seed": _derived_seed(seed, cycle, 300 + i)}
        path = inputs / f"{name}-c{cycle}.json"
        path.write_text(json.dumps(config, indent=1))
        argv = ["simulate", "--config", str(path), "--out", str(out / name)]
        jobs.append(Job(name, "simulate", argv, trials, out=out / name, params={"channel": ch, **config}))
    return jobs


def cycle_jobs(workload: str, seed: int, cycle: int, inputs: Path, out: Path) -> list[Job]:
    """The jobs of one cycle; writes the cycle's simulation configs."""
    if workload == "search":
        return _search_jobs(seed, cycle, inputs, out)
    if workload == "gauss":
        return _gauss_jobs(seed, cycle, out)
    if workload == "simulate":
        return _simulate_jobs(seed, cycle, inputs, out)
    raise ValueError(f"unknown workload {workload!r}")
