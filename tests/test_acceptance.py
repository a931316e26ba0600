"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
CLI's ``crcsec verify all``).
"""

import json

import pytest

from crcsec import accept, cli

BUDGET_SECONDS = {
    "AC1": 1,
    "AC2": 5,
    "AC3": 5,
    "AC4": 10,
    "AC5": 60,
    "AC6": 300,
    "AC7": 60,
    "AC8": 120,
    "AC9": 10,
    "AC10": 60,
}


@pytest.mark.parametrize("cid", accept.CRITERIA)
def test_acceptance_criterion(cid):
    result = accept.run_criterion(cid)
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.criterion} {status} ({result.seconds:.2f}s) - {result.detail}")
    assert result.criterion == cid
    assert result.passed, result.detail
    assert result.seconds < BUDGET_SECONDS[cid], (
        f"{cid} took {result.seconds:.1f}s, over its {BUDGET_SECONDS[cid]}s budget"
    )


def test_verify_runs_each_suite_from_the_table(tmp_path, monkeypatch, capsys):
    assert list(BUDGET_SECONDS) == list(accept.CRITERIA)  # a new criterion needs a budget
    # every check stubbed: its detail names the id it was filed under
    for cid in accept.CRITERIA:
        monkeypatch.setitem(accept.CRITERIA, cid, lambda cid=cid: ([], f"stub {cid}"))
    monkeypatch.setitem(accept.CRITERIA, "AC3", lambda: (["stub failure", "again"], "unused"))
    for suite in [*accept.SUITES, "all"]:
        ids = list(accept.CRITERIA) if suite == "all" else list(accept.SUITES[suite])
        out = tmp_path / f"{suite}.json"
        assert cli.main(["verify", suite, "--out", str(out)]) == (1 if "AC3" in ids else 0)
        payload = json.loads(out.read_text())
        assert payload["suite"] == suite
        assert [c["id"] for c in payload["criteria"]] == ids
        details = [c["detail"] for c in payload["criteria"]]
        assert details == [f"stub {c}" if c != "AC3" else "stub failure; again" for c in ids]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == ids
        assert json.loads(lines[-1]) == {"passed": "AC3" not in ids}
