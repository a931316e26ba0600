import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crcsec import cli, gaussian
from crcsec.accept import _benchmark_setup, brute_force_frontier
from crcsec.channel import GaussianCRC, orthogonal_channel, write_channel, xor_channel
from crcsec.region import RatePoint
from test_gaussian import corner_oracle


def run(argv):
    return cli.main([str(a) for a in argv])


def test_gauss_weak_writes_sweep_and_frontier(tmp_path, capsys):
    out = tmp_path / "gauss"
    code = run(["gauss", "--mode", "weak", "--a", 1, "--b", 0.5, "--p1", 20,
                "--p2", 20, "--steps", 200, "--out", out])
    assert code == 0
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "alpha,R1,R2,Re1"
    assert len(sweep) == 202  # header + 201 grid rows
    assert (out / "frontier.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gauss" and manifest["config"]["mode"] == "weak"
    assert json.loads(capsys.readouterr().out)["rows"] == 201


def test_gauss_rerun_from_manifest_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["gauss", "--mode", "weak", "--a", 1, "--b", 0.25, "--p1", 20,
         "--p2", 20, "--steps", 50, "--out", out1])
    run(["gauss", "--config", out1 / "manifest.json", "--out", out2])
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "frontier.csv").read_bytes() == (out2 / "frontier.csv").read_bytes()


def test_every_command_replays_from_its_manifest(tmp_path, monkeypatch):
    # inputs named relative to the first run's directory; replays run elsewhere
    monkeypatch.chdir(tmp_path)
    ch, aux = _benchmark_setup()
    orth = "orth.json"
    write_channel(ch, orth)
    sim = Path("sim.json")
    sim.write_text(json.dumps({"channel": "orth.json", "aux": aux.to_jsonable(), "n": 6,
                               "r1": 0.5, "r21": 0.0, "r22": 0.5, "eps": 0.2, "trials": 20, "seed": 5}))
    commands = {
        "gauss": ["--mode", "weak", "--a", 1, "--b", 0.5, "--p1", 20, "--p2", 20, "--steps", 20],
        "figure2": [],
        "discrete": ["--bound", "inner", "--channel", orth, "--cards", "1,1,1,2",
                     "--samples", 20, "--seed", 7],
        "check": ["--channel", orth, "--condition", "semidet11", "--samples", 20, "--seed", 0],
        "simulate": ["--config", sim],
    }
    for command, flags in commands.items():
        out_flag = "--outdir" if command == "figure2" else "--out"
        first, replay = tmp_path / command, tmp_path / f"{command}-replay"
        code = run([command, *flags, out_flag, first])
        replay.mkdir()
        monkeypatch.chdir(replay)
        assert run([command, "--config", first / "manifest.json", out_flag, replay]) == code
        monkeypatch.chdir(tmp_path)
        outputs = json.loads((first / "manifest.json").read_text())["outputs"]
        assert outputs
        for name in outputs:
            assert (first / name).read_bytes() == (replay / name).read_bytes(), (command, name)


def test_gauss_hypothesis_violation_exits_2(tmp_path, capsys):
    code = run(["gauss", "--mode", "degraded", "--a", 1, "--b", 0.5, "--p1", 20,
                "--p2", 20, "--steps", 10, "--out", tmp_path / "x"])
    assert code == 2
    assert "a*b" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config",
    [
        ("gauss", {"mode": "weak", "a": "x", "b": 0.5, "p1": 20, "p2": 20, "steps": 10}),
        ("discrete", {"bound": "inner", "cards": "1,1,1,2", "samples": "abc", "seed": 0}),
        ("check", {"condition": "semidet11", "samples": "abc", "seed": 0}),
        ("figure2", {"outdir": 5}),
        ("gauss", {"mode": "weak", "a": 1, "b": 0.5, "p1": 20, "p2": 20, "steps": 10, "out": 5}),
        ("discrete", {"bound": "inner", "cards": "1,1,1,2", "samples": 2, "seed": 0, "out": 5}),
    ],
)
def test_malformed_config_value_exits_2(tmp_path, capsys, command, config):
    write_channel(orthogonal_channel(), tmp_path / "orth.json")
    if command in ("discrete", "check"):
        config = dict(config, channel=str(tmp_path / "orth.json"))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = [] if {"out", "outdir"} & set(config) else ["--out", tmp_path / "out"]
    assert run([command, "--config", path, *out]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("document", [[1, 2], {"config": [1, 2]}], ids=["array", "manifest-array"])
@pytest.mark.parametrize("command", ["gauss", "figure2", "discrete", "check", "simulate"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, command, document):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(document))
    out_flag = "--outdir" if command == "figure2" else "--out"
    assert run([command, "--config", path, out_flag, tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_unwritable_output_dir_exits_2(tmp_path, capsys, command):
    ch, aux = _benchmark_setup()
    write_channel(ch, tmp_path / "orth.json")
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"channel": "orth.json", "aux": aux.to_jsonable(), "n": 4,
                               "r1": 0.0, "r21": 0.0, "r22": 0.0, "eps": 0.2, "trials": 2, "seed": 5}))
    flags = {
        "check": ["--channel", tmp_path / "orth.json", "--condition", "semidet11",
                  "--samples", 2, "--seed", 0],
        "simulate": ["--config", sim],
    }[command]
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert run([command, *flags, "--out", blocker / "x"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_gauss_overflow_exits_2_naming_psi(tmp_path, capsys):
    # at alpha = 0 the R2 argument overflows to inf; nothing is written
    out = tmp_path / "g"
    code = run(["gauss", "--mode", "weak", "--a", 1, "--b", 0.5, "--p1", 1e308, "--p2", 1e308,
                "--steps", 4, "--out", out])
    assert code == 2
    assert capsys.readouterr().err == "error: psi requires finite x >= 0, got inf\n"
    assert not out.exists()


ORACLE_HEADERS = {"weak": "R1,R2,Re1", "degraded": "R1,R2,Re1,Re2", "secrecy": "R1,R2"}


def _oracle_csv_line(values):
    return ",".join(f"{v:.9f}" for v in values)


def _oracle_sweep(g, mode, steps):
    """sweep.csv's text and its (alpha, corner) pairs, from the scalar oracle."""
    pairs = [(i / steps, corner_oracle(g, gaussian.GaussMode(mode), i / steps)) for i in range(steps + 1)]
    lines = [f"alpha,{ORACLE_HEADERS[mode]}"] + [f"{a:.9f},{_oracle_csv_line(c)}" for a, c in pairs]
    return "\n".join(lines) + "\n", pairs


def _oracle_gauss_files(g, mode, steps):
    """Every gauss output from the scalar oracle, an O(n^2) dominance scan and
    ``json.dumps``; the frontier's rows descend and each keeps its first alpha."""
    sweep, pairs = _oracle_sweep(g, mode, steps)
    dims = gaussian.FAMILIES[gaussian.GaussMode(mode)].dims
    points = [RatePoint(**dict(zip(dims, c))) for _, c in pairs]
    front = sorted(brute_force_frontier(points, dims), reverse=True)
    first = {}
    for a, c in pairs:
        first.setdefault(tuple(c), a)
    frontier = "\n".join([ORACLE_HEADERS[mode]] + [_oracle_csv_line(c) for c in front]) + "\n"
    meta = json.dumps({str(k): {"alpha": first[c]} for k, c in enumerate(front)}, indent=1)
    return {"sweep.csv": sweep, "frontier.csv": frontier, "frontier_meta.json": meta}, len(front)


@pytest.mark.parametrize(
    "mode, a, b, p1, p2, steps",
    [
        ("weak", 1.3, -0.6, 23.1, 7.7, 1),
        ("weak", 0.7, 1.0, 5.0, 40.0, 300),
        ("degraded", 2.5, 0.4, 12.0, 3.0, 1),
        ("degraded", -2.5, -0.4, 12.0, 3.0, 200),
        ("secrecy", 1.0, 0.45, 20.0, 20.0, 123),
        ("secrecy", 1.0, -1.7, 20.0, 20.0, 50),  # |b| > 1: R1 = 0, one frontier row
    ],
)
def test_gauss_outputs_equal_the_oracle_byte_for_byte(tmp_path, capsys, mode, a, b, p1, p2, steps):
    out = tmp_path / "g"
    assert run(["gauss", "--mode", mode, "--a", a, "--b", b, "--p1", p1, "--p2", p2,
                "--steps", steps, "--out", out]) == 0
    files, frontier = _oracle_gauss_files(GaussianCRC(a, b, p1, p2), mode, steps)
    for name, text in files.items():
        assert (out / name).read_bytes() == text.encode(), name
    assert json.loads(capsys.readouterr().out) == {"rows": steps + 1, "frontier": frontier}
    assert frontier == 1 if abs(b) > 1 else frontier > 1


def test_figure2_equals_the_oracle_byte_for_byte(tmp_path):
    assert run(["figure2", "--outdir", tmp_path]) == 0
    power = gaussian.FIGURE_POWER
    for b in gaussian.FIGURE_B_VALUES:
        g = GaussianCRC(gaussian.FIGURE_A, b, power, power)
        sweep, _ = _oracle_sweep(g, "weak", gaussian.FIGURE_STEPS)
        assert (tmp_path / f"fig2_b{b}.csv").read_bytes() == sweep.encode(), b


def test_gauss_perfect_secrecy_strong_interference_zero_r1(tmp_path):
    out = tmp_path / "cor"
    assert run(["gauss", "--mode", "secrecy", "--a", 1, "--b", 2, "--p1", 20,
                "--p2", 20, "--steps", 40, "--out", out]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_figure2_outputs_and_determinism(tmp_path):
    out = tmp_path / "fig"
    assert run(["figure2", "--outdir", out]) == 0
    names = [f"fig2_b{b}.csv" for b in (0.25, 0.5, 0.75, 1.0)]
    for name in names:
        assert (out / name).exists()
    b1 = (out / "fig2_b1.0.csv").read_text().splitlines()
    assert b1[0] == "alpha,R1,R2,Re1"
    assert len(b1) == gaussian.FIGURE_STEPS + 2
    assert all(float(r.split(",")[3]) == 0.0 for r in b1[1:])
    out2 = tmp_path / "fig2"
    run(["figure2", "--outdir", out2])
    for name in names:
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_discrete_search_cli(tmp_path, capsys):
    chpath = tmp_path / "orth.json"
    write_channel(orthogonal_channel(), chpath)
    out = tmp_path / "disc"
    code = run(["discrete", "--bound", "inner", "--channel", chpath, "--cards", "1,1,1,2",
                "--samples", 50, "--seed", 7, "--out", out])
    assert code == 0
    lines = (out / "frontier.csv").read_text().splitlines()
    assert lines[0] == "R1,R2,Re1,Re2"
    assert "1.000000000,1.000000000,1.000000000,0.000000000" in lines[1:]
    meta = json.loads((out / "frontier_meta.json").read_text())
    assert meta["0"]["aux"]["axes"][0] == ["Q", 1]


def test_discrete_zero_samples_and_bad_bound(tmp_path, capsys):
    chpath = tmp_path / "orth.json"
    write_channel(orthogonal_channel(), chpath)
    assert run(["discrete", "--bound", "semidet1", "--channel", chpath, "--cards", "1,1,2,2",
                "--samples", 0, "--seed", 0, "--out", tmp_path / "d0"]) == 0
    code = run(["discrete", "--bound", "blob", "--channel", chpath, "--cards", "1,1,1,2",
                "--samples", 1, "--seed", 0, "--out", tmp_path / "d1"])
    assert code == 2  # usage error
    assert "unknown bound" in capsys.readouterr().err


def test_check_exit_codes(tmp_path, capsys):
    xorpath = tmp_path / "xor.json"
    write_channel(xor_channel(), xorpath)
    code = run(["check", "--channel", xorpath, "--condition", "semidet11",
                "--samples", 50, "--seed", 0])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_gap"] == 0.0
    orth = tmp_path / "orth.json"
    write_channel(orthogonal_channel(), orth)
    code = run(["check", "--channel", orth, "--condition", "semidet11",
                "--samples", 50, "--seed", 0, "--out", tmp_path / "chk"])
    assert code == 3
    report = json.loads((tmp_path / "chk" / "condition_report.json").read_text())
    assert report["violated"] is True
    capsys.readouterr()
    assert run(["check", "--channel", tmp_path / "nope.json", "--condition", "semidet11",
                "--samples", 10, "--seed", 0]) == 2
    assert capsys.readouterr().err == f"error: file not found: {tmp_path / 'nope.json'}\n"


SIM_CONFIG = {"channel": "orth.json", "n": 6, "r1": 0.5, "r21": 0.0, "r22": 0.5, "eps": 0.2,
              "trials": 20, "seed": 5}


@pytest.mark.parametrize("command", ["discrete", "check", "simulate"])
def test_config_channel_is_relative_to_the_config_file(tmp_path, monkeypatch, command):
    ch, aux = _benchmark_setup()
    (tmp_path / "cfg").mkdir()
    (tmp_path / "elsewhere").mkdir()
    write_channel(ch, tmp_path / "cfg" / "orth.json")
    config = {
        "discrete": {"channel": "orth.json", "bound": "inner", "cards": "1,1,1,2", "samples": 20, "seed": 7},
        "check": {"channel": "orth.json", "condition": "semidet11", "samples": 20, "seed": 0},
        "simulate": dict(SIM_CONFIG, aux=aux.to_jsonable()),
    }[command]
    (tmp_path / "cfg" / "c.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path / "elsewhere")
    expected = 3 if command == "check" else 0  # semidet11 is violated on orth
    assert run([command, "--config", Path("..", "cfg", "c.json"), "--out", "out"]) == expected
    manifest = json.loads(Path("out", "manifest.json").read_text())
    assert manifest["config"]["channel"] == str((tmp_path / "cfg" / "orth.json").resolve())


def test_check_takes_out_from_its_config(tmp_path, capsys):
    write_channel(orthogonal_channel(), tmp_path / "orth.json")
    out = tmp_path / "chk"
    (tmp_path / "c.json").write_text(json.dumps({"channel": "orth.json", "condition": "semidet11",
                                                 "samples": 20, "seed": 0, "out": str(out)}))
    assert run(["check", "--config", tmp_path / "c.json"]) == 3
    report = json.loads((out / "condition_report.json").read_text())
    assert json.loads(capsys.readouterr().out) == report
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "check" and manifest["outputs"] == ["condition_report.json"]
    assert manifest["config"]["out"] == str(out)


def _config_file(tmp_path, command, **entries):
    """A working config of ``command`` beside orth.json, with ``entries`` set."""
    ch, aux = _benchmark_setup()
    write_channel(ch, tmp_path / "orth.json")
    config = {
        "gauss": {"mode": "weak", "a": 1, "b": 0.5, "p1": 20, "p2": 20, "steps": 10},
        "discrete": {"channel": "orth.json", "bound": "inner", "cards": "1,1,1,2", "samples": 20, "seed": 7},
        "check": {"channel": "orth.json", "condition": "semidet11", "samples": 20, "seed": 0},
        "simulate": dict(SIM_CONFIG, aux=aux.to_jsonable()),
    }[command]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(config, **entries)))
    return path


@pytest.mark.parametrize(
    "command, key, value",
    [("gauss", "steps", 2.5), ("gauss", "a", True), ("discrete", "samples", True),
     ("check", "seed", 1.9), ("simulate", "n", 8.7), ("simulate", "trials", True)],
)
def test_config_numbers_are_not_truncated(tmp_path, capsys, command, key, value):
    path = _config_file(tmp_path, command, **{key: value})
    assert run([command, "--config", path, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {key} must be" in err, err


@pytest.mark.parametrize(
    "command, key, value", [("gauss", "steps", 1e1), ("gauss", "steps", "10"), ("simulate", "trials", 2e1)]
)
def test_config_integers_may_be_integral_numbers_or_strings(tmp_path, command, key, value):
    path = _config_file(tmp_path, command, **{key: value})
    assert run([command, "--config", path, "--out", tmp_path / "out"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"][key] == int(float(value))


@pytest.mark.parametrize("command, key", [("gauss", "step"), ("check", "conditions"), ("simulate", "codebook")])
def test_unknown_config_key_exits_2(tmp_path, capsys, command, key):
    path = _config_file(tmp_path, command, **{key: 4})
    assert run([command, "--config", path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: config file {path}: unknown keys {key}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["discrete", "check", "simulate"])
def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys, command):
    path = _config_file(tmp_path, command, seed=-1)
    seed_flag = [] if command == "simulate" else ["--seed", -3]
    assert run([command, "--config", path, *seed_flag, "--out", tmp_path / "out"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("card, kernel_len", [(2.9, 16), (True, 8)])
def test_channel_file_cards_are_not_truncated(tmp_path, capsys, card, kernel_len):
    write_channel(orthogonal_channel(), tmp_path / "orth.json")
    doc = json.loads((tmp_path / "orth.json").read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(doc, x1=card, kernel=doc["kernel"][:kernel_len])))
    assert run(["check", "--channel", path, "--condition", "semidet11", "--samples", 2, "--seed", 0]) == 2
    err = capsys.readouterr().err
    assert f"{path}: x1 must be an integer" in err, err


def test_channel_file_length_check_takes_the_exact_product(tmp_path, capsys):
    write_channel(orthogonal_channel(), tmp_path / "orth.json")
    doc = json.loads((tmp_path / "orth.json").read_text())
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(doc, x1=2**62 + 1, x2=4)))  # 16 cells modulo 2**64
    assert run(["check", "--channel", path, "--condition", "semidet11", "--samples", 2, "--seed", 0]) == 2
    assert f"does not match cardinalities ({2**62 + 1}, 4, 2, 2) ({2**66 + 16})" in capsys.readouterr().err


@pytest.mark.parametrize("card", [1.5, True])
def test_aux_cards_are_not_truncated(tmp_path, capsys, card):
    aux = _benchmark_setup()[1].to_jsonable()
    aux["axes"] = [[name, card if name == "V" else c] for name, c in aux["axes"]]
    path = _config_file(tmp_path, "simulate", aux=aux)
    assert run(["simulate", "--config", path, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"{path}: card of V must be an integer" in err, err


def test_simulate_long_block_exits_2_naming_the_count(tmp_path, capsys):
    # 2 ** (n * r1) overflows a float from n * r1 = 1024 on
    path = _config_file(tmp_path, "simulate", n=100000)
    assert run(["simulate", "--config", path, "--out", tmp_path / "out"]) == 2
    assert "n_m1 needs 2^50000 codewords, over the budget" in capsys.readouterr().err


def test_discrete_cards_take_at_most_four_values(tmp_path, capsys):
    write_channel(orthogonal_channel(), tmp_path / "orth.json")
    assert run(["discrete", "--bound", "inner", "--channel", tmp_path / "orth.json", "--cards", "1,2,5,5,5",
                "--samples", 2, "--seed", 0, "--out", tmp_path / "d"]) == 2
    assert "cards take at most four values" in capsys.readouterr().err


def test_bench_probe_loads_channel_and_sim_config(tmp_path):
    # bench/probe.py times set-up by importing load_channel and load_sim_config
    ch, aux = _benchmark_setup()
    write_channel(ch, tmp_path / "orth.json")
    (tmp_path / "sim.json").write_text(json.dumps(dict(SIM_CONFIG, aux=aux.to_jsonable())))
    probe = Path(__file__).resolve().parents[1] / "bench" / "probe.py"
    argv = [sys.executable, str(probe), f"channel:{tmp_path / 'orth.json'}", f"sim:{tmp_path / 'sim.json'}"]
    out = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path / "..", timeout=120)
    assert (out.returncode, out.stdout) == (0, "ready\n"), out.stderr


def test_simulate_cli(tmp_path, capsys):
    ch, aux = _benchmark_setup()
    write_channel(ch, tmp_path / "orth.json")
    cfg = {
        "channel": "orth.json",
        "aux": aux.to_jsonable(),
        "n": 6,
        "r1": 0.0,
        "r21": 0.0,
        "r22": 0.0,
        "eps": 0.1,
        "trials": 40,
        "seed": 3,
    }
    # zero-rate run: clean error rates
    cfg_zero = dict(cfg, aux=_degenerate_aux_json())
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg_zero))
    assert run(["simulate", "--config", path, "--out", tmp_path / "simout"]) == 0
    report = json.loads((tmp_path / "simout" / "sim_report.json").read_text())
    assert report["decode1_error_rate"] == 0.0
    assert report["encoding_failure_rate"] == 0.0
    # invalid rates: exit 4 naming the violated constraint
    bad = dict(cfg, r1=1.2, r22=0.5)
    path.write_text(json.dumps(bad))
    capsys.readouterr()
    assert run(["simulate", "--config", path, "--out", tmp_path / "bad"]) == 4
    assert "r1_cap" in capsys.readouterr().err
    assert run(["simulate", "--config", tmp_path / "missing.json"]) == 2


def test_readme_simulation_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    config = next(json.loads(block) for block in blocks if '"aux"' in block)
    write_channel(orthogonal_channel(), tmp_path / config["channel"])
    (tmp_path / "sim.json").write_text(json.dumps(config))
    assert run(["simulate", "--config", tmp_path / "sim.json", "--out", tmp_path / "out"]) == 0


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every crcsec line of the README's CLI block, continuation lines joined,
    # beside orth.json and the README's simulation config as sim.json
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("crcsec ")]
    sim = next(b for b in re.findall(r"```json\n(.*?)```", readme, re.S) if '"aux"' in b)
    monkeypatch.chdir(tmp_path)
    write_channel(orthogonal_channel(), "orth.json")
    Path("sim.json").write_text(sim)
    assert [line.split()[1] for line in lines] == ["gauss", "figure2", "discrete", "check", "simulate"]
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        expected = 3 if argv[0] == "check" else 0  # the check line reports a violation on orth.json
        assert run(argv) == expected, (line, capsys.readouterr().err)


def _degenerate_aux_json():
    probs = np.zeros((1, 1, 2, 2))
    probs[0, 0, 0, 0] = 1.0
    from crcsec.prob import JointPmf

    return JointPmf(("V", "U", "X1", "X2"), probs).to_jsonable()


def test_verify_suite_reports_and_detects_tampering(tmp_path, capsys, monkeypatch):
    assert run(["verify", "psi", "--out", tmp_path / "verify.json"]) == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["criteria"][0]["id"] == "AC1"
    assert payload["criteria"][0]["passed"] is True
    # a wrong-base capacity function must fail the unit suite
    import math

    monkeypatch.setattr(gaussian, "psi", lambda x: 0.5 * math.log(1.0 + x))
    capsys.readouterr()
    assert run(["verify", "psi"]) == 1
    out = capsys.readouterr().out
    assert "AC1 FAIL" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        run(["verify", "everything"])


def test_cli_import_leaves_scipy_optimize_unimported():
    # accept imports linprog inside its LP oracle only: at module level it would
    # add the scipy.optimize import to every command's start-up
    code = "import sys\nimport crcsec.cli\nprint('scipy.optimize' in sys.modules)\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_numpy_random_unimported():
    # prob's draw kernel imports numpy.random on first use: at module level it
    # would add about 20 ms to every command's start-up
    code = "import sys\nimport crcsec.cli\nprint('numpy.random' in sys.modules)\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
