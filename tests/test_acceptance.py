"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
CLI's ``crcsec verify all``).
"""

import pytest

from crcsec import accept

# "AC5" for ac5_orthogonal_corner, in the order of accept.ALL_CRITERIA
CRITERIA = {check.__name__.split("_")[0].upper(): check for check in accept.ALL_CRITERIA}

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


@pytest.mark.parametrize("cid", CRITERIA)
def test_acceptance_criterion(cid):
    result = CRITERIA[cid]()
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.criterion} {status} ({result.seconds:.2f}s) - {result.detail}")
    assert result.criterion == cid
    assert result.passed, result.detail
    assert result.seconds < BUDGET_SECONDS[cid], (
        f"{cid} took {result.seconds:.1f}s, over its {BUDGET_SECONDS[cid]}s budget"
    )
