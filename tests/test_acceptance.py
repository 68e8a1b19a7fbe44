"""Acceptance suite: one test per release-gating check.

Each check prints its own pass/fail line (visible with ``pytest -s`` or via
``criticalbranch verify``) and carries its tolerance internally.
"""

import pytest

from criticalbranch import acceptance


@pytest.mark.parametrize("ident", acceptance.CHECK_IDS)
def test_acceptance_criterion(ident):
    result = acceptance.run_one(ident)
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.ident} {status} [{result.seconds:.2f}s] {result.description}: {result.detail}")
    assert result.passed, f"{result.ident} {result.description}: {result.detail}"
