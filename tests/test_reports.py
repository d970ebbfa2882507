"""The status rule and report pass/fail."""

from umbra.reports import FAIL, INCONCLUSIVE, PASS, ResidualReport, status_of


def test_status_rule():
    assert status_of(None) == PASS
    assert status_of(None, tainted=True) == INCONCLUSIVE
    # a located failure fails even where truncation also tainted the check
    assert status_of(0) == FAIL
    assert status_of(("lowering", 3), tainted=True) == FAIL


def test_residual_report_passes_within_its_tolerance():
    assert ResidualReport("c", params={"tol": 1e-6}, max_residual=1e-6).passed
    assert not ResidualReport("c", params={"tol": 1e-6}, max_residual=2e-6).passed
