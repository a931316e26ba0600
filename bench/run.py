"""crcsec benchmark: one workload as a closed loop of in-process jobs.

Usage (from the repository root):

    python3 bench/run.py --workload {search,gauss,simulate,all} --seed N \\
        --seconds S --trace {0,1}

One process runs one job at a time; each job is a ``crcsec.cli.main(argv)``
call or ``gaussian.figure_dataset()``, with BLAS/OpenMP threads pinned to 1.
Jobs are grouped into cycles (one pass over the workload's job mix, see
``workloads.py``); the run repeats whole cycles, starting another while its
expected midpoint falls within ``--seconds``, so every run measures the same
mix. Every job's outputs are checked
(``checks.py``); a job fails on an exception, an unexpected exit code or a
failed check.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each cycle
twice, untraced and then traced (``tracing.py``), and reports the per-layer
metrics, normalized per cycle, plus the tracing overhead. ``--workload all``
runs the three workloads in turn and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs, outputs,
run records and span files go under ``.bench_run/``.
"""

import os

PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(PINNED_THREADS)  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import TAIL_PERCENTILE, UNITS, WORKLOADS, cycle_jobs, setup_files  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
IMPORT_MODULES = ("numpy", "scipy.stats", "crcsec.prob", "crcsec.channel", "crcsec.region",
                  "crcsec.gaussian", "crcsec.bounds", "crcsec.binning", "crcsec.accept", "crcsec.cli")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken probe)."""


def import_program():
    """Import crcsec from this checkout's ``src`` and nowhere else."""
    if not (SRC / "crcsec" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'crcsec'}")
    sys.path.insert(0, str(SRC))
    import crcsec.cli
    import crcsec.gaussian

    if not Path(crcsec.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"crcsec was imported from {crcsec.cli.__file__}, not from {SRC}")
    return crcsec


# ------------------------------------------------------------------ set-up

def probe(files: list[str], log: Path, importtime: bool = False) -> float:
    """Seconds from starting a fresh interpreter until it is ready for a job."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(BENCH / "probe.py"), *files]
    with log.open("w") as err:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {log.read_text()[-2000:]}")
    return elapsed


def import_times(log: Path) -> dict[str, float]:
    """Cumulative first-import seconds per module from ``-X importtime`` output."""
    out = {}
    for line in log.read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if name in IMPORT_MODULES and cumulative.isdigit():
            out[name] = int(cumulative) / 1e6
    return out


# ------------------------------------------------------------------ jobs

def run_job(crcsec, job, index: int, tracer=None) -> tuple[float, int | None, str, object, str]:
    """Run one job; return (seconds, exit code, stdout, result, error)."""
    if job.out is not None:
        shutil.rmtree(job.out, ignore_errors=True)
    if job.kind == "figure_dataset":
        call, args, span = crcsec.gaussian.figure_dataset, (), "gaussian.figure_dataset"
    else:
        call, args, span = crcsec.cli.main, (job.argv,), "cli.main"
    stdout, stderr = io.StringIO(), io.StringIO()
    result, code, error = None, None, ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            result = tracer.job(index, span, call, *args) if tracer else call(*args)
        code = 0 if job.kind == "figure_dataset" else result
    except SystemExit as exc:
        code, error = exc.code, stderr.getvalue()
    except Exception:
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    if code != job.expect_exit and not error:
        error = stderr.getvalue()
    return seconds, code, stdout.getvalue(), result, error


class Loop:
    """Runs cycles of jobs, checks every output and keeps per-job records."""

    def __init__(self, crcsec, workload: str, seed: int, work: Path, reference: dict | None):
        self.crcsec, self.workload, self.seed, self.work = crcsec, workload, seed, work
        self.reference = reference
        self.records: list[dict] = []  # one per job run
        self.failures: list[str] = []
        self.job_names: list[str] = []

    def cycle(self, cycle: int, tracer=None) -> list[dict]:
        jobs = cycle_jobs(self.workload, self.seed, cycle, self.work / "inputs", self.work / "jobs")
        records = []
        for job in jobs:
            index = len(self.job_names)
            self.job_names.append(f"c{cycle}:{job.name}")
            seconds, code, stdout, result, error = run_job(self.crcsec, job, index, tracer)
            fails = [error.strip().splitlines()[-1]] if error.strip() else []
            rec = {"job": job.name, "kind": job.kind, "cycle": cycle, "seconds": seconds, "units": job.units,
                   "traced": tracer is not None, "bytes": 0, "report": None}
            if not fails:
                try:
                    obs, fails = checks.observe(job, code, stdout, result)
                    rec["fingerprint"] = checks.fingerprint(obs)
                except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                    fails = [f"unreadable output: {exc!r}"]
                ref = (self.reference or {}).get(job.name)
                if cycle == 0 and ref is not None and "fingerprint" in rec:
                    fails += checks.compare(rec["fingerprint"], ref)
            if job.out is not None and job.out.exists():
                rec["bytes"] = sum(p.stat().st_size for p in job.out.rglob("*") if p.is_file())
                if job.kind == "simulate" and not fails:
                    rec["report"] = json.loads((job.out / "sim_report.json").read_text())
                shutil.rmtree(job.out, ignore_errors=True)
            rec["failed"] = bool(fails)
            self.failures += [f"c{cycle}:{job.name}: {msg}" for msg in fails]
            records.append(rec)
        self.records += records
        return records


# ------------------------------------------------------------------ metrics

def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of a percentile.

    A Beta-weighted average of all order statistics rather than one or two
    of them: the host's speed drifts by up to 1.5x over tens of seconds, and
    a single order statistic then jumps between the fast and the slow
    cluster from run to run. The Beta CDF is integrated by the midpoint rule.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n, p, cells = len(xs), pct / 100.0, 64
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    mid = (np.arange(n * cells) + 0.5) / (n * cells)
    weights = np.exp((a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)).reshape(n, cells).sum(axis=1)
    return float(weights @ xs / weights.sum())


def end_to_end(records: list[dict], setup: list[float]) -> dict[str, float]:
    seconds = [r["seconds"] for r in records]
    units = sum(r["units"] for r in records if not r["failed"])
    return {
        "setup_s": statistics.median(setup),
        "units_per_s": units / sum(seconds),
        "job_p50_s": percentile(seconds, 50),
        "job_tail_s": percentile(seconds, TAIL_PERCENTILE),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


CALL_METRICS = ("prob.marginalize", "prob.cmi", "prob.entropy", "prob.is_jointly_typical", "channel.induce_joint",
                "region.merge_frontier", "gaussian.sweep_points", "binning.encode", "binning.decode_cognitive",
                "binning.decode_primary", "binning.exact_equivocation", "cli.main")
SELF_ONLY_METRICS = ("prob.sample_joint", "channel.load_channel", "bounds.search_region", "bounds.check_condition",
                     "region.pareto_filter", "region.export_csv", "binning.build_codebook", "binning.sample_outputs")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, cycles: int, traced: list[dict], untraced: list[dict],
              imports: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics, per cycle, from ``cycles`` traced runs of cycle 0."""
    times = tracer.self_times()
    c = tracer.counters
    m: dict[str, float] = {}

    def calls(name):
        return times[name][0] if name in times else 0

    def self_s(name):
        return times[name][1] if name in times else 0.0

    for name in CALL_METRICS:
        m[f"{name}.calls"] = calls(name) / cycles
        m[f"{name}.self_s"] = self_s(name) / cycles
    for name in SELF_ONLY_METRICS:
        m[f"{name}.self_s"] = self_s(name) / cycles

    # A candidate is one distribution pushed through the channel by a search or check.
    searches = {"bounds.search_region", "bounds.check_condition"}
    candidates = tracer.count_under("channel.induce_joint", searches)
    searched = tracer.count_under("channel.induce_joint", {"bounds.search_region"})
    search_s = sum(times[n][2] for n in searches if n in times)
    m["prob.marginalize.calls_per_candidate"] = _ratio(calls("prob.marginalize"), candidates)
    m["bounds.candidates"] = candidates / cycles
    m["bounds.candidate_us"] = _ratio(search_s, candidates) * 1e6
    m["bounds.frontier_yield"] = _ratio(c["bounds.search_region.frontier_points"], searched)

    merged = c["region.merge_frontier.points_in"]
    m["region.merge_frontier.points_in"] = merged / cycles
    m["region.merge_frontier.kept_frac"] = _ratio(c["region.merge_frontier.kept"], merged)
    m["region.merge_us_per_point"] = _ratio(
        self_s("region.merge_frontier") + self_s("region.pareto_filter"),
        merged + c["region.pareto_filter.points_in"]) * 1e6
    m["region.export_csv.bytes"] = c["region.export_csv.bytes"] / cycles
    m["gaussian.sweep_points.points"] = c["gaussian.sweep_points.points"] / cycles

    trials = sum(r["units"] for r in traced if r["kind"] == "simulate")
    reports = [r["report"] for r in traced if r["report"]]
    for metric, field in (("binning.encode.fail_frac", "encoding_failure_rate"),
                          ("binning.decode_cognitive.err_frac", "decode1_error_rate"),
                          ("binning.decode_primary.err_frac", "decode2_error_rate")):
        m[metric] = _ratio(sum(rep[field] * rep["trials"] for rep in reports), sum(rep["trials"] for rep in reports))
    m["prob.is_jointly_typical.hit_frac"] = _ratio(c["prob.is_jointly_typical.hits"], calls("prob.is_jointly_typical"))
    m["prob.is_jointly_typical.calls_per_trial"] = _ratio(calls("prob.is_jointly_typical"), trials)
    obs_seqs = c["binning.exact_equivocation.obs_seqs"]
    m["binning.exact_equivocation.obs_seqs"] = obs_seqs / cycles
    m["binning.exact_equivocation.us_per_obs_seq"] = _ratio(self_s("binning.exact_equivocation"), obs_seqs) * 1e6

    m["cli.bytes_written"] = sum(r["bytes"] for r in traced) / cycles
    job_s = sum(r["seconds"] for r in traced)
    for layer in LAYERS:
        m[f"layer.{layer}.self_frac"] = _ratio(sum(v[1] for k, v in times.items() if k.split(".")[0] == layer), job_s)
    m["trace.job_s"] = job_s / cycles
    m["trace.overhead_frac"] = job_s / sum(r["seconds"] for r in untraced) - 1.0
    for module in IMPORT_MODULES:
        m[f"{module}.import_s"] = imports.get(module, 0.0)
    return m


# ------------------------------------------------------------------ record

def run_record(workload: str, seed: int, args) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace, "commit": commit,
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "threads": PINNED_THREADS}


# ------------------------------------------------------------------ main

def run_workload(args) -> dict:
    crcsec = import_program()
    workload, seed = args.workload, args.seed
    work = WORK / f"{workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "jobs").mkdir(parents=True)
    files = setup_files(workload, seed, work / "inputs")
    probe_args = [f"{'sim' if f.name.startswith('sim-') else 'channel'}:{f}" for f in files]
    reference_path = BENCH / "reference.json"
    reference = None
    if reference_path.is_file():
        reference = json.loads(reference_path.read_text()).get(workload, {}).get(str(seed))

    loop = Loop(crcsec, workload, seed, work, reference)
    if not args.trace:
        probe(probe_args, work / "probe.log")  # warm-up: byte-compiles the sources once
        setup = [probe(probe_args, work / "probe.log") for _ in range(SETUP_SAMPLES)]
        start, cycle_s = time.perf_counter(), []
        while not cycle_s or time.perf_counter() - start + statistics.mean(cycle_s) / 2 <= args.seconds:
            t0 = time.perf_counter()
            loop.cycle(len(cycle_s))
            cycle_s.append(time.perf_counter() - t0)
        metrics = end_to_end(loop.records, setup)
        done = f"{len(cycle_s)} cycles"
    else:
        probe(probe_args, work / "probe.log")
        probe(probe_args, work / "importtime.log", importtime=True)
        # Every pair repeats cycle 0, so per-cycle counts do not depend on
        # how many pairs fit in the run.
        start, tracer, traced, untraced, pair_s = time.perf_counter(), Tracer(), [], [], []
        while not pair_s or time.perf_counter() - start + statistics.mean(pair_s) / 2 <= args.seconds:
            t0 = time.perf_counter()
            untraced += loop.cycle(0)
            tracer.install()
            try:
                traced += loop.cycle(0, tracer)
            finally:
                tracer.uninstall()
            pair_s.append(time.perf_counter() - t0)
        metrics = per_layer(tracer, len(pair_s), traced, untraced, import_times(work / "importtime.log"))
        done = f"{len(pair_s)} untraced and traced passes over cycle 0"
        tracer.write(work / "spans.csv", loop.job_names)

    records = loop.records
    failed = sum(r["failed"] for r in records)
    record = run_record(workload, seed, args)
    print("run_record " + json.dumps(record))
    for msg in loop.failures[:20]:
        print(f"FAILED {msg}")
    print(f"workload {workload} seed {seed}: {done}, {len(records)} jobs, {failed} failed "
          f"(failed_frac {failed / len(records):.4f}); unit: {UNITS[workload]}")
    if args.trace:
        if tracer.absent:
            print("absent (not traced): " + ", ".join(tracer.absent))
        if tracer.extra_errors:
            print("counter errors: " + json.dumps(dict(tracer.extra_errors)))
        hot = sorted(((k, v) for k, v in metrics.items() if k.endswith(".self_s")), key=lambda kv: -kv[1])[:5]
        print("largest self times per cycle: " + ", ".join(f"{k[:-7]} {v:.3f}s" for k, v in hot))
    else:
        print(f"job_p50_s and job_tail_s are Harrell-Davis p50 and p{TAIL_PERCENTILE} of {len(records)} jobs")
    result = {
        "correct": not loop.failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": METRIC_UNITS.get(name, _unit(name))}
                    for name, value in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"run_record": record, "result": result,
                                                  "jobs": records}, indent=1, default=str))
    return result


METRIC_UNITS = {"setup_s": "s", "units_per_s": "units/s", "job_p50_s": "s", "job_tail_s": "s", "peak_rss_mb": "MB",
                "bounds.candidate_us": "us", "region.merge_us_per_point": "us",
                "binning.exact_equivocation.us_per_obs_seq": "us", "region.export_csv.bytes": "bytes",
                "cli.bytes_written": "bytes"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_yield", "_per_candidate", "_per_trial")):
        return "ratio"
    return "count"


def run_all(args) -> dict:
    """Run every workload in its own process; print one table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':44s}" + "".join(f"{w:>14s}" for w in results) + "  unit")
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:44s}" + "".join(f"{r['metrics'][name]['value']:14.6g}" for r in results.values()) + f"  {unit}")
    fracs = [r["failed"] / r["attempted"] for r in results.values()]
    print(f"{'failed_frac':44s}" + "".join(f"{f:14.6g}" for f in fracs) + "  ratio")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
