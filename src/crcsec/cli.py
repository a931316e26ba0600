"""Batch command-line front end.

Commands: gauss, figure2, discrete, check, simulate, verify. Every command
writes a ``manifest.json`` next to its outputs recording the resolved
configuration, the master seed and the tool version; re-running a command
from its manifest (``--config manifest.json``) reproduces the outputs
byte-identically. Numeric output uses 9 decimal digits, period decimal
separator.

Exit codes: 0 success / condition holds, 2 I/O or configuration error,
3 condition violated, 4 scheme-rate validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from . import __version__, accept, binning, bounds, gaussian, region
from .channel import ChannelError, GaussianCRC, load_channel
from .prob import ProbError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_VIOLATED = 3
EXIT_RATES = 4


class CliError(Exception):
    """Configuration / usage error carrying an exit code."""

    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def _write_manifest(outdir: Path, command: str, config: dict[str, Any], outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "outputs": outputs,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def _load_config_overlay(args: argparse.Namespace, keys: Sequence[str]) -> dict[str, Any]:
    """Resolve flag values, letting explicit flags override --config entries."""
    cfg: dict[str, Any] = {}
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise CliError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise CliError(f"cannot parse config file {args.config}: {exc}")
        cfg.update(raw.get("config", raw))
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise CliError(f"missing required options: {', '.join('--' + m for m in missing)}")
    return cfg


def _sweep_rows(points: list[region.RatePoint], dims: tuple[str, ...]) -> list[str]:
    lines = ["alpha," + ",".join(region.DIM_HEADERS[d] for d in dims)]
    for p in points:
        alpha = p.meta["alpha"]
        lines.append(f"{alpha:.9f}," + ",".join(f"{getattr(p, d):.9f}" for d in dims))
    return lines


def cmd_gauss(args: argparse.Namespace) -> int:
    cfg = _load_config_overlay(args, ["mode", "a", "b", "p1", "p2", "steps", "out"])
    try:
        mode = gaussian.parse_mode(str(cfg["mode"]))
        g = GaussianCRC(a=float(cfg["a"]), b=float(cfg["b"]), p1=float(cfg["p1"]), p2=float(cfg["p2"]))
        points = gaussian.sweep_points(g, mode, int(cfg["steps"]))
    except (gaussian.GaussError, ChannelError) as exc:
        raise CliError(str(exc))
    dims = gaussian.MODE_DIMS[mode]
    rows = _sweep_rows(points, dims)
    reg = region.pareto_filter(points, dims)
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep.csv").write_text("\n".join(rows) + "\n")
    region.export_csv(reg, outdir / "frontier.csv", sidecar=outdir / "frontier_meta.json")
    cfg["mode"] = mode.value
    _write_manifest(outdir, "gauss", cfg, ["sweep.csv", "frontier.csv", "frontier_meta.json"])
    print(json.dumps({"rows": len(rows) - 1, "frontier": len(reg)}))
    return EXIT_OK


def cmd_figure2(args: argparse.Namespace) -> int:
    cfg = _load_config_overlay(args, ["outdir"])
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for b, points in gaussian.figure_sweeps():
        rows = _sweep_rows(points, gaussian.MODE_DIMS[gaussian.GaussMode.WEAK])
        name = f"fig2_b{b}.csv"
        (outdir / name).write_text("\n".join(rows) + "\n")
        outputs.append(name)
    _write_manifest(outdir, "figure2", cfg, outputs)
    print(json.dumps({"files": outputs}))
    return EXIT_OK


def cmd_discrete(args: argparse.Namespace) -> int:
    cfg = _load_config_overlay(args, ["bound", "channel", "cards", "samples", "seed", "out"])
    try:
        kind = bounds.parse_bound(str(cfg["bound"]))
        ch = load_channel(cfg["channel"])
        cards_raw = cfg["cards"]
        if isinstance(cards_raw, str):
            cards_raw = [int(v) for v in cards_raw.split(",")]
        cards = bounds.SearchCards(*[int(v) for v in cards_raw])
        reg = bounds.search_region(
            ch, kind, cards=cards, samples=int(cfg["samples"]), seed=int(cfg["seed"])
        )
    except FileNotFoundError as exc:
        raise CliError(f"channel file not found: {exc.filename}")
    except (bounds.BoundsError, ChannelError, ProbError, TypeError, ValueError) as exc:
        raise CliError(str(exc))
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    region.export_csv(reg, outdir / "frontier.csv", sidecar=outdir / "frontier_meta.json")
    cfg["bound"] = kind.value
    cfg["channel"] = str(Path(cfg["channel"]).resolve())
    cfg["cards"] = list(cards_raw)
    _write_manifest(outdir, "discrete", cfg, ["frontier.csv", "frontier_meta.json"])
    print(json.dumps({"frontier": len(reg)}))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    cfg = _load_config_overlay(args, ["channel", "condition", "samples", "seed"])
    try:
        cond = bounds.parse_condition(str(cfg["condition"]))
        ch = load_channel(cfg["channel"])
        report = bounds.check_condition(ch, cond, samples=int(cfg["samples"]), seed=int(cfg["seed"]))
    except FileNotFoundError as exc:
        raise CliError(f"channel file not found: {exc.filename}")
    except (bounds.BoundsError, ChannelError) as exc:
        raise CliError(str(exc))
    payload = report.to_jsonable()
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "condition_report.json").write_text(json.dumps(payload, indent=1))
        cfg["condition"] = cond.value
        cfg["channel"] = str(Path(cfg["channel"]).resolve())
        _write_manifest(outdir, "check", cfg, ["condition_report.json"])
    print(json.dumps(payload))
    return EXIT_VIOLATED if report.violated else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = binning.load_sim_config(args.config)
    except FileNotFoundError as exc:
        raise CliError(f"file not found: {exc.filename}")
    except binning.SimError as exc:
        raise CliError(str(exc))
    try:
        report = binning.run_simulation(cfg)
    except binning.RateConstraintError as exc:
        raise CliError(str(exc), code=EXIT_RATES)
    except binning.SimError as exc:
        raise CliError(str(exc))
    payload = report.to_jsonable()
    outdir = Path(args.out) if args.out else Path(args.config).parent
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sim_report.json").write_text(json.dumps(payload, indent=1))
    _write_manifest(outdir, "simulate", cfg.document, ["sim_report.json"])
    print(json.dumps(payload))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        results = accept.run_suite(args.suite)
    except ValueError as exc:
        raise CliError(str(exc))
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.criterion} {status} ({r.seconds:.2f}s) - {r.detail}")
    payload = {
        "suite": args.suite,
        "criteria": [
            {"id": r.criterion, "passed": r.passed, "detail": r.detail, "seconds": r.seconds}
            for r in results
        ],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1))
    print(json.dumps({"passed": all(r.passed for r in results)}))
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crcsec",
        description="Rate regions and binning-code simulation for the "
        "two-pair cognitive radio channel with confidential messages.",
    )
    parser.add_argument("--version", action="version", version=f"crcsec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gauss", help="closed-form Gaussian region sweep")
    p.add_argument("--mode", default=None, help="weak | degraded | secrecy")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--p1", type=float, default=None)
    p.add_argument("--p2", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON config; flags override")
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("figure2", help="write the bundled four-curve reference dataset")
    p.add_argument("--outdir", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("discrete", help="sampled search of a discrete-channel region")
    p.add_argument("--bound", default=None, help="inner | outer | lessnoisy | semidet | semidet1")
    p.add_argument("--channel", default=None, help="channel JSON file")
    p.add_argument("--cards", default=None, help="Q,W,V,U auxiliary cardinalities")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_discrete)

    p = sub.add_parser("check", help="falsification search for a channel ordering")
    p.add_argument("--channel", default=None)
    p.add_argument("--condition", default=None, help="lessnoisy46 | semidet11")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run the binning-code simulator from a config file")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(accept.SUITES) + ["all"])
    p.add_argument("--out", default=None, help="write the JSON summary here")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
