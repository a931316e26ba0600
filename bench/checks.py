"""Output checks behind ``failed_frac``.

Each job's outputs are parsed into an *observation*: a flat dict of exact
values (exit code, counts, verdicts, strings) and float vectors (rates,
equivocations, probabilities). Two kinds of check run on it:

- seed-independent invariants, which hold for any seed: frontiers are
  antichains with Re <= R, Gaussian sweep rows match the psi formulas
  recomputed here, equivocations lie in [0, log2 |M|], each simulator
  error rate lies inside its own interval, condition verdicts are the
  known ones;
- for the seeds in ``reference.json``, a match against the outputs
  recorded at the seed commit: exact on exact values, within
  ``RATE_TOL`` on floats. Long vectors are stored as a length, a sum and a
  weighted sum, compared within the same per-element tolerance.

A check returns a list of failure messages; an empty list means correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Rates and equivocations must match the reference within 1e-9; CSV values
# carry 9 decimals, so each side may add up to 5e-10 of rounding.
RATE_TOL = 2e-9
# Antichain and formula checks on 9-decimal CSV values.
CSV_TOL = 2e-9
FULL_VECTOR_MAX = 8
CHUNK = 64
_GOLDEN = 0.6180339887498949

DIM_HEADER = {"inner": "R1,R2,Re1,Re2", "outer": "R1,R2,Re1,Re2", "lessnoisy": "R1,R2,Re1,Re2",
              "semidet": "R1,R2,Re1,Re2", "semidet1": "R1,R2,Re1"}
GAUSS_HEADER = {"weak": "R1,R2,Re1", "degraded": "R1,R2,Re1,Re2", "secrecy": "R1,R2"}


def _read_csv(path: Path) -> tuple[str, np.ndarray]:
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    width = len(lines[0].split(","))
    return lines[0], np.array(rows, dtype=float).reshape(len(rows), width)


def _meta_digest(sidecar: Path) -> str:
    meta = json.loads(sidecar.read_text())
    keys = sorted(f"{m.get('source')}:{m.get('index')}" if isinstance(m, dict) else repr(m)
                  for m in meta.values())
    return hashlib.sha1("|".join(keys).encode()).hexdigest()[:16]


def _row_blocks(n: int):
    """Row slices of at most CHUNK rows; keeps pairwise temporaries small so
    the checks do not raise the process's peak RSS."""
    return (slice(i, min(i + CHUNK, n)) for i in range(0, n, CHUNK))


def _antichain_failures(rows: np.ndarray, label: str, ties_undecided: bool = False) -> list[str]:
    """Rows must be pairwise non-dominating; tolerance covers CSV rounding.

    With ``ties_undecided``, a coordinate where two rows print equal counts
    as one that may separate them: the search frontiers are antichains in
    exact arithmetic, but some rows escape domination only by float noise
    below the 9-decimal print resolution (e.g. an R2 of 4.4e-16 printed as
    0), so at that resolution only a row exceeded in every coordinate is a
    certain violation.
    """
    for blk in _row_blocks(len(rows)):
        a = rows[blk, None, :]
        if ties_undecided:
            dominated = np.all(a > rows[None, :, :] + CSV_TOL, axis=2)
        else:
            dominated = np.all(a >= rows[None, :, :] - CSV_TOL, axis=2) & np.any(a > rows[None, :, :] + CSV_TOL, axis=2)
        if dominated.any():
            i, j = np.argwhere(dominated)[0]
            return [f"{label}: row {blk.start + i} dominates row {j}"]
    return []


def _secrecy_failures(header: str, rows: np.ndarray, label: str) -> list[str]:
    cols = header.split(",")
    out = []
    for r, re in (("R1", "Re1"), ("R2", "Re2")):
        if re in cols and np.any(rows[:, cols.index(re)] > rows[:, cols.index(r)] + CSV_TOL):
            out.append(f"{label}: {re} exceeds {r}")
    if np.any(rows < 0.0):
        out.append(f"{label}: negative coordinate")
    return out


def _psi(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.log2(1.0 + x)


def gauss_rows(mode: str, b: float, p1: float, p2: float, alpha: np.ndarray) -> np.ndarray:
    """Closed-form corner coordinates per alpha, in the mode's CSV column order."""
    b2 = b * b
    r1 = _psi(alpha * p1)
    num = (1.0 - alpha) * b2 * p1 + p2 + 2.0 * abs(b) * np.sqrt((1.0 - alpha) * p1 * p2)
    r2 = _psi(num / (alpha * b2 * p1 + 1.0))
    re1 = r1 - _psi(alpha * b2 * p1)
    if mode == "weak":
        return np.stack([r1, r2, re1], axis=1)
    if mode == "degraded":
        return np.stack([r1, r2, re1, np.zeros_like(r1)], axis=1)
    return np.stack([np.maximum(re1, 0.0), r2], axis=1)


def _sweep_failures(path: Path, mode: str, b: float, p1: float, p2: float, steps: int) -> list[str]:
    header, rows = _read_csv(path)
    label = path.name
    if header != "alpha," + GAUSS_HEADER[mode]:
        return [f"{label}: header {header!r}"]
    if len(rows) != steps + 1:
        return [f"{label}: {len(rows)} rows, expected {steps + 1}"]
    alpha = np.arange(steps + 1) / steps
    if np.max(np.abs(rows[:, 0] - alpha)) > CSV_TOL:
        return [f"{label}: alpha grid is off"]
    err = float(np.max(np.abs(rows[:, 1:] - gauss_rows(mode, b, p1, p2, alpha))))
    return [f"{label}: rows differ from the psi formulas by {err:.3g}"] if err > CSV_TOL else []


def _frontier_of_sweep_failures(sweep: np.ndarray, frontier: np.ndarray, label: str) -> list[str]:
    """The frontier is an antichain of sweep rows covering every sweep row."""
    out = _antichain_failures(frontier, label)
    if len(frontier) == 0:
        return out + [f"{label}: empty frontier"]
    for blk in _row_blocks(len(sweep)):
        if not np.any(np.all(frontier[None, :, :] >= sweep[blk, None, :] - CSV_TOL, axis=2), axis=1).all():
            return out + [f"{label}: a sweep row is not dominated by the frontier"]
    for blk in _row_blocks(len(frontier)):
        if not np.any(np.all(np.abs(frontier[blk, None, :] - sweep[None, :, :]) <= CSV_TOL, axis=2), axis=1).all():
            return out + [f"{label}: a frontier row is not a sweep row"]
    return out


# ------------------------------------------------------------------ observe

def observe(job, exit_code: int, stdout: str, result=None) -> tuple[dict, list[str]]:
    """Parse a finished job's outputs; return (observation, invariant failures)."""
    obs: dict = {"exit": exit_code}
    fails: list[str] = []
    if exit_code != job.expect_exit:
        return obs, [f"exit code {exit_code}, expected {job.expect_exit}"]
    kind = job.kind
    if kind == "discrete":
        header, rows = _read_csv(job.out / "frontier.csv")
        obs.update(header=header, rows=len(rows), frontier=rows.ravel(),
                   meta=_meta_digest(job.out / "frontier_meta.json"))
        if header != DIM_HEADER[job.params["bound"]]:
            fails.append(f"header {header!r}")
        if json.loads(stdout)["frontier"] != len(rows) or len(rows) == 0:
            fails.append(f"stdout frontier count != {len(rows)} CSV rows")
        fails += _antichain_failures(rows, "frontier", ties_undecided=True)
        fails += _secrecy_failures(header, rows, "frontier")
    elif kind == "check":
        report = json.loads(stdout)
        probs = np.asarray(report["witness"]["probs"], dtype=float)
        obs.update(violated=report["violated"], samples=report["samples"], max_gap=[report["max_gap"]],
                   witness=probs, witness_axes=json.dumps(report["witness"]["axes"]))
        if report["violated"] != (job.expect_exit == 3):
            fails.append(f"verdict violated={report['violated']}")
        if job.params["condition"] == "semidet11" and report["max_gap"] != 0.0:
            fails.append(f"semidet11 gap {report['max_gap']!r} is not exactly 0")
        if report["samples"] < job.units:
            fails.append(f"only {report['samples']} distributions evaluated")
        if abs(probs.sum() - 1.0) > 1e-9 or np.any(probs < 0.0):
            fails.append("witness is not a distribution")
    elif kind == "gauss":
        p = job.params
        _, sweep = _read_csv(job.out / "sweep.csv")
        header, frontier = _read_csv(job.out / "frontier.csv")
        obs.update(rows=len(sweep), sweep=sweep.ravel(), frontier_rows=len(frontier),
                   frontier=frontier.ravel())
        fails += _sweep_failures(job.out / "sweep.csv", p["mode"], p["b"], p["p1"], p["p2"], p["steps"])
        fails += _frontier_of_sweep_failures(sweep[:, 1:], frontier, "frontier.csv")
        printed = json.loads(stdout)
        if printed != {"rows": len(sweep), "frontier": len(frontier)}:
            fails.append(f"stdout {printed} disagrees with the CSV files")
    elif kind == "figure2":
        values = []
        for b in (0.25, 0.5, 0.75, 1.0):
            path = job.out / f"fig2_b{b}.csv"
            fails += _sweep_failures(path, "weak", b, 20.0, 20.0, 400)
            values.append(_read_csv(path)[1].ravel())
        obs.update(figure=np.concatenate(values))
    elif kind == "figure_dataset":
        sizes, values = [], []
        for b, reg in result:
            pts = np.array([[pt.meta["alpha"], *pt.coords(reg.dims)] for pt in reg.frontier])
            expected = gauss_rows("weak", b, 20.0, 20.0, pts[:, 0])
            if reg.dims != ("r1", "r2", "re1") or np.max(np.abs(pts[:, 1:] - expected)) > 1e-12:
                fails.append(f"b={b}: frontier points differ from the psi formulas")
            fails += _antichain_failures(pts[:, 1:], f"b={b}")
            sizes.append(len(pts))
            values.append(pts.ravel())
        obs.update(sizes=json.dumps(sizes), figure=np.concatenate(values))
    elif kind == "simulate":
        fails += _simulate_observe(job, stdout, obs)
    return obs, fails


def _simulate_observe(job, stdout: str, obs: dict) -> list[str]:
    report = json.loads((job.out / "sim_report.json").read_text())
    fails = []
    if json.loads(stdout) != report:
        fails.append("stdout differs from sim_report.json")
    counts = report["counts"]
    trials = report["trials"]
    errors = [round(report[f"{k}_rate"] * trials) for k in ("encoding_failure", "decode1_error", "decode2_error")]
    eq = [report["exact_equivocation_m1_at_y2"], report["exact_equivocation_m2_at_y1"]]
    obs.update(counts=json.dumps(counts, sort_keys=True), trials=trials, errors=json.dumps(errors),
               ci=[v for k in ("encoding_failure_ci", "decode1_error_ci", "decode2_error_ci") for v in report[k]],
               equivocation=[-1.0 if v is None else v for v in eq])
    if trials != job.params["trials"] or report["n"] != job.params["n"]:
        fails.append("trials or n differ from the config")
    for k in ("encoding_failure", "decode1_error", "decode2_error"):
        rate, (lo, hi) = report[f"{k}_rate"], report[f"{k}_ci"]
        if not (0.0 <= lo <= rate <= hi <= 1.0):
            fails.append(f"{k} rate {rate} outside its interval [{lo}, {hi}]")
    n = report["n"]
    sizes = {"m1_at_y2": counts["n_m1"], "m2_at_y1": counts["n_m21"] * counts["n_m22"]}
    for obs_name, size in sizes.items():
        value = report[f"exact_equivocation_{obs_name}"]
        if value is None:
            fails.append(f"no exact equivocation {obs_name}")
            continue
        if not (-1e-9 <= value <= math.log2(size) + 1e-9):
            fails.append(f"equivocation {obs_name} = {value} outside [0, log2 {size}]")
        if abs(report[f"per_symbol_equivocation_{obs_name}"] - value / n) > 1e-12:
            fails.append(f"per-symbol equivocation {obs_name} != total / n")
    if job.params["channel"] == "noise":
        # Receiver 2 sees pure noise: it learns nothing about M1.
        if abs(eq[0] - math.log2(counts["n_m1"])) > 1e-9:
            fails.append(f"pure-noise equivocation {eq[0]} != log2 {counts['n_m1']}")
    return fails


# ------------------------------------------------------------------ reference

def fingerprint(obs: dict) -> dict:
    """Compact, tolerance-comparable form of an observation."""
    out = {}
    for key, value in obs.items():
        if isinstance(value, (np.ndarray, list)):
            vec = np.asarray(value, dtype=float)
            if vec.size <= FULL_VECTOR_MAX:
                out[key] = [float(v) for v in vec]
            else:
                w = (np.arange(vec.size) * _GOLDEN) % 1.0 + 0.5
                out[key] = {"n": int(vec.size), "sum": float(vec.sum()), "wsum": float(w @ vec)}
        else:
            out[key] = value
    return out


def compare(fp: dict, ref: dict) -> list[str]:
    """Differences between a fingerprint and its recorded reference."""
    fails = []
    for key in sorted(set(fp) | set(ref)):
        a, b = fp.get(key), ref.get(key)
        if isinstance(b, list) and isinstance(a, list):
            if len(a) != len(b) or any(abs(x - y) > RATE_TOL for x, y in zip(a, b)):
                fails.append(f"{key}: {a} != reference {b}")
        elif isinstance(b, dict) and isinstance(a, dict):
            n = b["n"]
            if a["n"] != n or abs(a["sum"] - b["sum"]) > n * RATE_TOL or abs(a["wsum"] - b["wsum"]) > 1.5 * n * RATE_TOL:
                fails.append(f"{key}: {a} != reference {b}")
        elif a != b:
            fails.append(f"{key}: {a!r} != reference {b!r}")
    return fails
