"""Outside-in layer tracing.

The library resolves the functions below through module globals at call
time, so replacing ``module.name`` with a timing wrapper puts a span around
every call without touching the program. Each span records its name,
start, end, parent span and job; spans stay in memory and are written when
the run ends. A name that the program no longer defines is reported as
absent and traced as nothing, so renaming or deleting a call site never
breaks a run.

Span names are ``<layer>.<function>``, where the layer is the module that
defines the function, whichever module's namespace it was wrapped in.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from pathlib import Path

# (namespace module, attribute, span name)
WRAPPED = [
    ("crcsec.bounds", "cmi", "prob.cmi"),
    ("crcsec.bounds", "entropy", "prob.entropy"),
    ("crcsec.bounds", "sample_joint", "prob.sample_joint"),
    ("crcsec.bounds", "induce_joint", "channel.induce_joint"),
    ("crcsec.bounds", "merge_frontier", "region.merge_frontier"),
    ("crcsec.bounds", "pareto_filter", "region.pareto_filter"),
    ("crcsec.bounds", "search_region", "bounds.search_region"),
    ("crcsec.bounds", "check_condition", "bounds.check_condition"),
    ("crcsec.prob", "marginalize", "prob.marginalize"),
    ("crcsec.region", "export_csv", "region.export_csv"),
    ("crcsec.gaussian", "sweep_points", "gaussian.sweep_points"),
    ("crcsec.gaussian", "pareto_filter", "region.pareto_filter"),
    ("crcsec.binning", "build_codebook", "binning.build_codebook"),
    ("crcsec.binning", "encode", "binning.encode"),
    ("crcsec.binning", "decode_cognitive", "binning.decode_cognitive"),
    ("crcsec.binning", "decode_primary", "binning.decode_primary"),
    ("crcsec.binning", "exact_equivocation", "binning.exact_equivocation"),
    ("crcsec.binning", "sample_outputs", "binning.sample_outputs"),
    ("crcsec.binning", "is_jointly_typical", "prob.is_jointly_typical"),
    ("crcsec.cli", "load_channel", "channel.load_channel"),
    ("crcsec.binning", "load_channel", "channel.load_channel"),
]

LAYERS = ("prob", "channel", "gaussian", "bounds", "region", "binning", "cli")


def _points_in(args, index):
    """Materialize the point iterable at ``args[index]`` so it can be counted."""
    args = list(args)
    args[index] = list(args[index])
    return args, len(args[index])


class Tracer:
    """Span recorder; ``install`` wraps the program, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job index]
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.extra_errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._job = -1
        self._saved: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def job(self, job_index: int, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one job."""
        self._job = job_index
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -------------------------------------------------------------- wrapping
    def install(self) -> None:
        for module_name, attr, span in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span: str):
        extra = _EXTRAS.get(span)
        tracer = self

        def traced(*args, **kwargs):
            pre = None
            if extra is not None:
                try:
                    args, pre = extra[0](args)
                except Exception:  # a changed signature must not break the run
                    tracer.extra_errors[span] += 1
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra is not None and pre is not None:
                try:
                    extra[1](tracer.counters, span, args, kwargs, pre, result)
                except Exception:
                    tracer.extra_errors[span] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------------- analysis
    def self_times(self) -> dict[str, list[float]]:
        """name -> [calls, self seconds, inclusive seconds]."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += (t1 - t0) - child[i]
            row[2] += t1 - t0
        return out

    def count_under(self, name: str, ancestors: set[str]) -> int:
        """Spans called ``name`` with an ancestor span named in ``ancestors``."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] in ancestors:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def write(self, path: Path, job_names: list[str]) -> None:
        with path.open("w") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{job_names[job] if job >= 0 else ''}\n")


# Per-span counters: (prepare(args) -> (args, pre),
#                     record(counters, span, args, kwargs, pre, result)).
def _merge_prepare(args):
    args, n = _points_in(args, 1)
    return args, (n, {id(p) for p in args[0]})


def _merge_record(c, span, args, kwargs, pre, result):
    n, before = pre
    c[span + ".points_in"] += n
    c[span + ".kept"] += sum(1 for p in args[0] if id(p) not in before)


def _pareto_prepare(args):
    return _points_in(args, 0)


def _pareto_record(c, span, args, kwargs, n, result):
    c[span + ".points_in"] += n
    c[span + ".kept"] += len(result)


def _nothing(args):
    return args, True


def _export_record(c, span, args, kwargs, pre, result):
    sidecar = args[2] if len(args) > 2 else kwargs.get("sidecar")
    paths = [args[1]] + ([sidecar] if sidecar is not None else [])
    c[span + ".bytes"] += sum(Path(p).stat().st_size for p in paths)


def _len_record(key):
    def record(c, span, args, kwargs, pre, result):
        c[span + key] += len(result)
    return record


def _hit_record(c, span, args, kwargs, pre, result):
    c[span + ".hits"] += bool(result)


def _obs_seqs_record(c, span, args, kwargs, pre, result):
    cb, ch, observer = args[0], args[1], args[2]
    card = ch.cards[3] if observer == "m1_at_y2" else ch.cards[2]
    c[span + ".obs_seqs"] += card ** cb.n


_EXTRAS = {
    "region.merge_frontier": (_merge_prepare, _merge_record),
    "region.pareto_filter": (_pareto_prepare, _pareto_record),
    "region.export_csv": (_nothing, _export_record),
    "gaussian.sweep_points": (_nothing, _len_record(".points")),
    "bounds.search_region": (_nothing, _len_record(".frontier_points")),
    "prob.is_jointly_typical": (_nothing, _hit_record),
    "binning.exact_equivocation": (_nothing, _obs_seqs_record),
}
