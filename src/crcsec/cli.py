"""Batch command-line front end.

Commands: gauss, figure2, discrete, check, simulate, verify. Each flag of
gauss, figure2, discrete and check is a config key; ``--config`` names a
JSON config or manifest (:func:`crcsec.channel.read_config`) that holds no
other key, whose entries explicit flags override. gauss, figure2, discrete
and simulate, and check when given an ``out``, write a ``manifest.json``
next to their outputs recording the resolved configuration, the master
seed and the tool version; re-running such a command from its manifest
(``--config manifest.json``) reproduces the outputs byte-identically.
check without ``out`` writes nothing, and verify writes only the JSON
summary named by its ``--out``. Numeric output uses 9 decimal digits,
period decimal separator.

Exit codes: 0 success / condition holds, 1 a verify criterion failed,
2 I/O or configuration error, 3 condition violated, 4 scheme-rate
validation failure; ``main`` maps every command's errors onto them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__, accept, binning, bounds, gaussian, region
from .channel import GaussianCRC, load_channel, read_config
from .prob import read_number

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_VIOLATED = 3
EXIT_RATES = 4

# Malformed configuration values: every library error class (BoundsError,
# ChannelError, GaussError, ProbError, RegionError, SimError) is a ValueError.
CONFIG_ERRORS = (TypeError, ValueError)


class CliError(Exception):
    """Configuration / usage error carrying an exit code."""

    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def _config(args: argparse.Namespace, optional: Sequence[str] = (), ints: Sequence[str] = (),
            floats: Sequence[str] = ()) -> dict[str, Any]:
    """The command's configuration: the entries of its ``--config`` document
    (:func:`read_config`, the numbers of ``ints`` and ``floats`` read
    strictly), overridden by its explicit flags. Every flag except ``config``
    names a key, required unless ``optional``, and the document holds no other."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
    cfg = read_config(args.config, flags, ints, floats) if args.config else {}
    cfg.update({k: v for k, v in flags.items() if v is not None})
    missing = [k for k in flags if k not in cfg and k not in optional]
    if missing:
        raise CliError(f"missing required options: {', '.join('--' + m for m in missing)}")
    return cfg


def _record(args: argparse.Namespace, outdir: Path | None, cfg: dict[str, Any], outputs: list[str],
            summary: dict[str, Any], code: int = EXIT_OK) -> int:
    """End a run: write ``manifest.json`` beside the outputs in ``outdir``
    (none when None), print the JSON summary and return the exit code."""
    if outdir is not None:
        manifest = {"command": args.command, "version": __version__, "config": cfg, "outputs": outputs}
        (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    print(json.dumps(summary))
    return code


def _outdir(path: Any) -> Path:
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _sweep_csv(alpha: np.ndarray, lines: list[str], dims: tuple[str, ...]) -> str:
    """A sweep's CSV text: the header, then each alpha before its corner's CSV line."""
    header = "alpha," + ",".join(region.DIM_HEADERS[d] for d in dims)
    return "\n".join([header, *(f"{a:.9f},{line}" for a, line in zip(alpha.tolist(), lines))]) + "\n"


def cmd_gauss(args: argparse.Namespace) -> int:
    cfg = _config(args, ints=["steps"], floats=["a", "b", "p1", "p2"])
    mode = gaussian.parse_mode(str(cfg["mode"]))
    g = GaussianCRC(a=cfg["a"], b=cfg["b"], p1=cfg["p1"], p2=cfg["p2"])
    alpha, rows = gaussian.sweep(g, mode, cfg["steps"])
    dims = gaussian.FAMILIES[mode].dims
    lines = region.format_rows(rows)
    keep = region.frontier_rows(rows).tolist()
    outdir = _outdir(cfg["out"])
    (outdir / "sweep.csv").write_text(_sweep_csv(alpha, lines, dims))
    region.write_frontier(outdir / "frontier.csv", dims, rows[keep], [lines[i] for i in keep],
                          [{"alpha": a} for a in alpha[keep].tolist()], sidecar=outdir / "frontier_meta.json")
    cfg["mode"] = mode.value
    outputs = ["sweep.csv", "frontier.csv", "frontier_meta.json"]
    return _record(args, outdir, cfg, outputs, {"rows": len(alpha), "frontier": len(keep)})


def cmd_figure2(args: argparse.Namespace) -> int:
    cfg = _config(args)
    outdir = _outdir(cfg["outdir"])
    outputs = []
    dims = gaussian.FAMILIES[gaussian.GaussMode.WEAK].dims
    for b, alpha, rows in gaussian.figure_sweeps():
        name = f"fig2_b{b}.csv"
        (outdir / name).write_text(_sweep_csv(alpha, region.format_rows(rows), dims))
        outputs.append(name)
    return _record(args, outdir, cfg, outputs, {"files": outputs})


def cmd_discrete(args: argparse.Namespace) -> int:
    cfg = _config(args, ints=["samples", "seed"])
    kind = bounds.parse_bound(str(cfg["bound"]))
    ch = load_channel(cfg["channel"])
    cards_raw = cfg["cards"]
    if isinstance(cards_raw, str):
        cards_raw = cards_raw.split(",")
    cards_raw = [read_number(v, int, "cards") for v in cards_raw]
    if len(cards_raw) > 4:
        raise CliError(f"cards take at most four values (Q,W,V,U), got {len(cards_raw)}")
    cards = bounds.SearchCards(*cards_raw)
    reg = bounds.search_region(ch, kind, cards=cards, samples=cfg["samples"], seed=cfg["seed"])
    outdir = _outdir(cfg["out"])
    region.export_csv(reg, outdir / "frontier.csv", sidecar=outdir / "frontier_meta.json")
    cfg.update(bound=kind.value, channel=str(Path(cfg["channel"]).resolve()), cards=cards_raw)
    return _record(args, outdir, cfg, ["frontier.csv", "frontier_meta.json"], {"frontier": len(reg)})


def cmd_check(args: argparse.Namespace) -> int:
    cfg = _config(args, optional=["out"], ints=["samples", "seed"])
    cond = bounds.parse_condition(str(cfg["condition"]))
    ch = load_channel(cfg["channel"])
    report = bounds.check_condition(ch, cond, samples=cfg["samples"], seed=cfg["seed"])
    payload = report.to_jsonable()
    outdir = _outdir(cfg["out"]) if "out" in cfg else None
    if outdir is not None:
        (outdir / "condition_report.json").write_text(json.dumps(payload, indent=1))
        cfg.update(condition=cond.value, channel=str(Path(cfg["channel"]).resolve()))
    code = EXIT_VIOLATED if report.violated else EXIT_OK
    return _record(args, outdir, cfg, ["condition_report.json"], payload, code)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = binning.load_sim_config(args.config)
    report = binning.run_simulation(cfg)
    payload = report.to_jsonable()
    outdir = _outdir(args.out or Path(args.config).parent)
    (outdir / "sim_report.json").write_text(json.dumps(payload, indent=1))
    return _record(args, outdir, cfg.document, ["sim_report.json"], payload)


def cmd_verify(args: argparse.Namespace) -> int:
    results = accept.run_suite(args.suite)
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
        message, code = str(exc), exc.code
    except binning.RateConstraintError as exc:
        message, code = str(exc), EXIT_RATES
    except FileNotFoundError as exc:
        message, code = f"file not found: {exc.filename}", EXIT_CONFIG
    except (OSError, *CONFIG_ERRORS) as exc:
        message, code = str(exc), EXIT_CONFIG
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
