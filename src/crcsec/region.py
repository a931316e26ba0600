"""Rate-point set algebra: dominance, Pareto frontiers, inclusion, support functions, CSV.

A region is represented by the Pareto frontier of its achievable rate
tuples; the region itself is the downward closure of that frontier. Points
carry up to four coordinates (R1, R2, Re1, Re2); a region's ``dims`` names
the coordinates that are active (regions without a secrecy guarantee for
one message drop the corresponding equivocation coordinate).

One sort-based skyline kernel, ``_skyline`` over coordinate arrays,
computes every frontier; of equal rows the first occurrence wins. One rule,
``_first_distinct``, merges points that agree to 12 decimals (the first
wins): ``frontier_rows``, the frontier step of an ``(N, d)`` array, applies
it to all its rows (rounding only the rows another row comes within
``TIE_TOL`` of in every column), and so does ``pareto_filter`` (so ``merge``
and ``project``) on its points; ``bounds.search_region`` applies it only to
the corners of one candidate, so across candidates its ties are exact and
the first found wins. ``checked_rows`` applies :class:`RatePoint`'s checks
to a coordinate array, so array callers (the Gaussian sweeps) build no
points.

Time sharing makes the paper's regions convex. ``support``, one matrix
product in any number of dims, is the support function of a region's convex
hull; ``convex_gap`` compares two hulls by it over a fixed simplex grid.

CSV export: one writer, ``write_frontier``, takes a coordinate array and its
rows' CSV lines (``format_rows``); ``export_csv`` wraps it for a region.
Header lists active dims (``R1,R2,Re1,Re2`` subset), values at 9 decimal
digits, rows in lexicographically descending order; re-import round-trips
within 1e-9. The optional JSON sidecar holds the bytes of
``json.dumps(metas, indent=1)``, written by ``_dumps_indent1`` without
``json``'s pure-Python indenting encoder.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import product
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable

import numpy as np

DIM_FIELDS = ("r1", "r2", "re1", "re2")
DIM_HEADERS = {"r1": "R1", "r2": "R2", "re1": "Re1", "re2": "Re2"}
HEADER_DIMS = {v: k for k, v in DIM_HEADERS.items()}
COORD_TOL = 1e-9
DEDUPE_DECIMALS = 12
TIE_TOL = 2 * 10.0**-DEDUPE_DECIMALS  # rows farther apart never share a 12-decimal key
GAP_GRID_DIVISIONS = 10  # convex_gap's weights are multiples of 1/10
SKYLINE_BLOCK = 256  # rows per numpy dominance test
_EARLIER = np.triu(np.ones((SKYLINE_BLOCK, SKYLINE_BLOCK), dtype=bool), 1)  # [j, i]: j < i


class RegionError(ValueError):
    """Ill-formed rate point or region operation."""


@dataclass(frozen=True)
class RatePoint:
    """One rate tuple (bits/channel use) with an optional annotation."""

    r1: float = 0.0
    r2: float = 0.0
    re1: float = 0.0
    re2: float = 0.0
    meta: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for nm in DIM_FIELDS:
            v = float(getattr(self, nm))
            if not (v == v and abs(v) != float("inf")):
                raise RegionError(f"{nm} must be finite, got {v!r}")
            if v < -COORD_TOL:
                raise RegionError(f"{nm} must be nonnegative, got {v}")
            object.__setattr__(self, nm, max(v, 0.0))
        if self.re1 > self.r1 + COORD_TOL:
            raise RegionError(f"re1={self.re1} exceeds r1={self.r1}")
        if self.re2 > self.r2 + COORD_TOL:
            raise RegionError(f"re2={self.re2} exceeds r2={self.r2}")

    def coords(self, dims: tuple[str, ...]) -> tuple[float, ...]:
        return tuple(getattr(self, d) for d in dims)


@dataclass(frozen=True)
class Region:
    """Antichain of maximal rate points plus the active coordinate names."""

    frontier: tuple[RatePoint, ...]
    dims: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _check_dims(self.dims))
        object.__setattr__(self, "frontier", tuple(self.frontier))

    def __len__(self) -> int:
        return len(self.frontier)


def _check_dims(dims: Iterable[str]) -> tuple[str, ...]:
    dims = tuple(dims)
    if not dims or any(d not in DIM_FIELDS for d in dims):
        raise RegionError(f"invalid dims {dims}")
    return dims


def dominates(p: RatePoint, q: RatePoint, dims: Iterable[str] = DIM_FIELDS) -> bool:
    """True iff p >= q componentwise on the active dims (ties count)."""
    return all(getattr(p, d) >= getattr(q, d) for d in _check_dims(dims))


def _coords(points: Iterable[RatePoint], dims: tuple[str, ...]) -> np.ndarray:
    return np.array([p.coords(dims) for p in points], dtype=float).reshape(-1, len(dims))


def _ge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``m[i, j]`` is True iff ``a[i] >= b[j]`` on every coordinate."""
    m = a[:, None, 0] >= b[None, :, 0]
    for c in range(1, a.shape[1]):  # one 2-D test per coordinate: no 3-D temporary
        m &= a[:, None, c] >= b[None, :, c]
    return m


def _descending(rows: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts an ``(N, d)`` array's rows in
    descending lexicographic order (equal rows keep their order)."""
    return np.lexsort(-rows.T[::-1])


def _skyline(rows: np.ndarray) -> np.ndarray:
    """Indices of the maximal rows of an ``(N, d)`` array, in descending
    lexicographic order (the one frontier kernel).

    After a stable descending sort only an earlier row can dominate a later
    one, so (dominance being transitive) a row is maximal iff no earlier row
    dominates it; ties count, so of equal rows the first wins. Each block of
    rows is tested at once against the rows kept before it and its own.
    """
    order = _descending(rows)
    rows = rows[order]
    keep = np.zeros(len(rows), dtype=bool)
    for lo in range(0, len(rows), SKYLINE_BLOCK):
        block = rows[lo : lo + SKYLINE_BLOCK]
        beaten = (_ge(block, block) & _EARLIER[: len(block), : len(block)]).any(axis=0)
        if lo:
            beaten |= _ge(rows[:lo][keep[:lo]], block).any(axis=0)
        keep[lo : lo + SKYLINE_BLOCK] = ~beaten
    return order[keep]


def _first_distinct(rows: Iterable[Iterable[float]]) -> list[int]:
    """Index of the first of each group of rows that agree to 12 decimals
    (Python's ``round`` of each float; ``np.round`` differs)."""
    distinct: dict[tuple[float, ...], int] = {}
    for i, row in enumerate(rows):
        distinct.setdefault(tuple(round(c, DEDUPE_DECIMALS) for c in row), i)
    return list(distinct.values())


def _within_tie(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Where ``x`` and ``y`` lie within ``TIE_TOL`` (plus 1e-15 relative) of
    each other: only such values can share their 12-decimal rounding, since two
    floats with equal ``round(., 12)`` differ by at most 1e-12 plus one unit in
    the last place."""
    return np.abs(x - y) <= TIE_TOL + 1e-15 * np.maximum(np.abs(x), np.abs(y))


def _may_tie(rows: np.ndarray) -> np.ndarray:
    """Rows of an ``(N, d)`` array that lie, in every column,
    :func:`_within_tie` of some other row's value: only these can share their
    12-decimal rounding with another row."""
    near = np.ones(len(rows), dtype=bool)
    for col in rows.T:
        order = np.argsort(col, kind="stable")
        v = col[order]
        close = _within_tie(v[1:], v[:-1])
        hit = np.zeros(len(v), dtype=bool)
        hit[:-1] |= close
        hit[1:] |= close
        near[order] &= hit
    return near


def frontier_rows(rows: np.ndarray) -> np.ndarray:
    """Indices of the maximal rows of an ``(N, d)`` coordinate array, after
    merging rows that agree to 12 decimals (the first wins), in descending
    lexicographic order: the frontier step of :func:`pareto_filter`.
    ``_first_distinct`` rounds only the rows that may tie."""
    near = _may_tie(rows)
    tied = np.flatnonzero(near)
    distinct = np.sort(np.concatenate([np.flatnonzero(~near), tied[_first_distinct(rows[tied].tolist())]]))
    return distinct[_skyline(rows[distinct])]


def checked_rows(rows: np.ndarray, dims: Iterable[str]) -> np.ndarray:
    """An ``(N, len(dims))`` coordinate array under :class:`RatePoint`'s
    checks: the first failing row raises its point's error. Returns the rows
    with coordinates within ``COORD_TOL`` below 0 clipped to 0."""
    cols = [DIM_FIELDS.index(d) for d in _check_dims(dims)]
    full = np.zeros((len(rows), len(DIM_FIELDS)))
    full[:, cols] = rows
    clipped = np.where(full < 0.0, 0.0, full)  # as max(v, 0.0): keeps -0.0
    bad = ~np.isfinite(full).all(axis=1) | (full < -COORD_TOL).any(axis=1)
    bad |= (clipped[:, 2:] > clipped[:, :2] + COORD_TOL).any(axis=1)  # Re1 <= R1, Re2 <= R2
    if bad.any():
        RatePoint(*full[bad.argmax()].tolist())  # raises that row's error
    return clipped[:, cols]


def pareto_filter(points: Iterable[RatePoint], dims: Iterable[str] = DIM_FIELDS) -> Region:
    """Maximal antichain of ``points``, after merging 12-decimal duplicates."""
    dims = _check_dims(dims)
    points = list(points)
    return Region(tuple(points[i] for i in frontier_rows(_coords(points, dims))), dims)


def merge(a: Region, b: Region) -> Region:
    if a.dims != b.dims:
        raise RegionError(f"cannot merge regions with dims {a.dims} and {b.dims}")
    return pareto_filter(a.frontier + b.frontier, a.dims)


def project(region: Region, dims: Iterable[str]) -> Region:
    """Project onto a subset of dims and re-filter."""
    dims = _check_dims(dims)
    if not set(dims) <= set(region.dims):
        raise RegionError(f"projection dims {dims} not within {region.dims}")
    return pareto_filter(region.frontier, dims)


def contains_point(region: Region, p: RatePoint, tol: float = 0.0) -> bool:
    """True iff some frontier point dominates ``p`` after a +tol shift."""
    return inclusion_fraction(Region((p,), region.dims), region, tol) == 1.0


def inclusion_fraction(a: Region, b: Region, tol: float) -> float:
    """Fraction of A's frontier points contained in B (empty A -> 1)."""
    if not a.frontier:
        return 1.0
    front, pts = _coords(b.frontier, b.dims) + tol, _coords(a.frontier, b.dims)
    blocks = range(0, len(pts), SKYLINE_BLOCK)
    hits = sum(int(_ge(front, pts[lo : lo + SKYLINE_BLOCK]).any(axis=0).sum()) for lo in blocks)
    return hits / len(a.frontier)


def _gap_grid(d: int) -> np.ndarray:
    """Every weight vector >= 0 on ``d`` coordinates whose entries are
    multiples of 1/GAP_GRID_DIVISIONS and sum to 1, shape ``(k, d)``."""
    n = GAP_GRID_DIVISIONS
    return np.array([c for c in product(range(n + 1), repeat=d) if sum(c) == n], dtype=float) / n


def support(region: Region, weights: np.ndarray) -> np.ndarray:
    """h(λ) = max(0, max over the frontier of λ·x) for each row λ >= 0 of a
    ``(k, d)`` weight array over ``region.dims``: the support function of the
    region's convex hull. The 0 is the origin, which every down-closed region
    contains, so an empty frontier gives 0."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != len(region.dims) or (weights < 0).any():
        raise RegionError(f"weights must be a nonnegative (k, {len(region.dims)}) array")
    return (_coords(region.frontier, region.dims) @ weights.T).max(axis=0, initial=0.0)


def convex_gap(a: Region, b: Region) -> float:
    """Largest h_A(λ) - h_B(λ) over the simplex grid of ``_gap_grid``: a
    down-closed convex region A lies in B iff h_A <= h_B for every λ >= 0."""
    if a.dims != b.dims:
        raise RegionError(f"cannot compare regions with dims {a.dims} and {b.dims}")
    grid = _gap_grid(len(a.dims))
    return float((support(a, grid) - support(b, grid)).max())


def format_rows(rows: np.ndarray) -> list[str]:
    """Each row of a coordinate array as a CSV line: values at 9 decimals."""
    template = ",".join(["%.9f"] * rows.shape[1])
    return [template % tuple(row) for row in rows.tolist()]


def write_frontier(path: str | Path, dims: tuple[str, ...], rows: np.ndarray, lines: list[str],
                   metas: list[Any], sidecar: str | Path | None = None) -> None:
    """Write frontier rows as CSV in descending lexicographic order of
    ``rows``, an ``(N, len(dims))`` array whose row i is ``lines[i]``
    (:func:`format_rows`); optionally write a JSON metadata sidecar that maps
    each CSV row's index (as a string) to that row's JSON-ready ``metas`` entry.
    """
    order = _descending(rows).tolist()
    header = ",".join(DIM_HEADERS[d] for d in dims)
    Path(path).write_text("\n".join([header, *(lines[i] for i in order)]) + "\n")
    if sidecar is not None:
        Path(sidecar).write_text(_dumps_indent1({str(k): metas[i] for k, i in enumerate(order)}))


class _NotPlainJson(Exception):
    """A value :func:`_dumps_indent1` leaves to ``json.dumps``."""


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _encode_indent1(obj: Any, pad: str, out: list[str]) -> None:
    """Append the chunks of ``json.dumps(obj, indent=1)`` nested ``len(pad)``
    levels deep, testing types in ``json.encoder``'s order."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = pad + " "
        brackets, sep = ("{}" if isinstance(obj, dict) else "[]"), ",\n" + inner
        out.append(brackets[0] + "\n" + inner)
        if isinstance(obj, dict):
            for n, (key, value) in enumerate(obj.items()):
                if not isinstance(key, str):
                    raise _NotPlainJson
                out.append((sep if n else "") + encode_basestring_ascii(key) + ": ")
                _encode_indent1(value, inner, out)
        elif set(map(type, obj)) == {float} and math.isfinite(sum(obj)):  # finite floats: one join
            out.append(sep.join(map(float.__repr__, obj)))
        else:
            for n, value in enumerate(obj):
                if n:
                    out.append(sep)
                _encode_indent1(value, inner, out)
        out.append("\n" + pad + brackets[1])
    else:
        raise _NotPlainJson


def _dumps_indent1(obj: Any) -> str:
    """``json.dumps(obj, indent=1)``, byte for byte, without its pure-Python
    encoder (any ``indent`` leaves the C one) for dicts with str keys, lists,
    tuples, str, int, float, bool and None; ``json.dumps`` itself for anything
    else, so its errors are unchanged."""
    out: list[str] = []
    try:
        _encode_indent1(obj, "", out)
    except (_NotPlainJson, RecursionError):
        return json.dumps(obj, indent=1)
    return "".join(out)


def export_csv(region: Region, path: str | Path, sidecar: str | Path | None = None) -> None:
    """Write the frontier as CSV (:func:`write_frontier`); the optional
    sidecar holds each point's ``meta``, serialized with ``to_jsonable()``
    when available."""
    rows = _coords(region.frontier, region.dims)
    metas = [_jsonable_meta(p.meta) for p in region.frontier]
    write_frontier(path, region.dims, rows, format_rows(rows), metas, sidecar)


def _jsonable_meta(meta: Any) -> Any:
    if meta is None:
        return None
    if hasattr(meta, "to_jsonable"):
        return meta.to_jsonable()
    if isinstance(meta, dict):
        return {k: _jsonable_meta(v) for k, v in meta.items()}
    if isinstance(meta, (list, tuple)):
        return [_jsonable_meta(v) for v in meta]
    if isinstance(meta, (str, int, float, bool)):
        return meta
    return repr(meta)


def import_csv(path: str | Path) -> Region:
    """Read a frontier CSV written by :func:`export_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            headers = next(reader)
        except StopIteration:
            raise RegionError(f"empty region file {path}") from None
        dims = tuple(HEADER_DIMS.get(h.strip(), "") for h in headers)
        if any(not d for d in dims) or len(set(dims)) != len(dims):
            raise RegionError(f"{path}, line 1: unknown or repeated CSV headers {headers}")
        points = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(dims):
                raise RegionError(f"{path}, line {reader.line_num}: expected {len(dims)} values")
            points.append(RatePoint(**dict(zip(dims, (float(v) for v in row)))))
    return Region(tuple(points), dims)
