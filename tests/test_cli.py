import json
import re
from pathlib import Path

import numpy as np
import pytest

from crcsec import cli, gaussian
from crcsec.accept import _benchmark_setup
from crcsec.channel import orthogonal_channel, write_channel, xor_channel


def run(argv):
    return cli.main([str(a) for a in argv])


def test_gauss_weak_writes_sweep_and_frontier(tmp_path, capsys):
    out = tmp_path / "gauss"
    code = run(["gauss", "--mode", "thm7", "--a", 1, "--b", 0.5, "--p1", 20,
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
    code = run(["gauss", "--mode", "thm3", "--a", 1, "--b", 0.5, "--p1", 20,
                "--p2", 20, "--steps", 10, "--out", tmp_path / "x"])
    assert code == 2
    assert "a*b" in capsys.readouterr().err


def test_gauss_perfect_secrecy_strong_interference_zero_r1(tmp_path):
    out = tmp_path / "cor"
    assert run(["gauss", "--mode", "cor3", "--a", 1, "--b", 2, "--p1", 20,
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
    assert run(["check", "--channel", tmp_path / "nope.json", "--condition", "semidet11",
                "--samples", 10, "--seed", 0]) == 2


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
