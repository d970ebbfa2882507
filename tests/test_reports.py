"""The verdict rule, the status a report derives from it, and report pass/fail."""

from umbra.core import outcome
from umbra.reports import FAIL, INCONCLUSIVE, PASS, ResidualReport, VerificationReport


def test_the_failing_checks_own_mark_counts():
    assert outcome([(0, True, False), (1, False, True), (2, True, True)]) == (1, True)
    assert outcome([(0, True, False), (1, False, False), (2, True, True)]) == (1, False)


def test_with_no_failure_every_mark_is_gathered():
    assert outcome([("a", True, False), ("b", True, True), ("c", True, False)]) == (None, True)
    assert outcome([("a", True, False), ("b", True, False)]) == (None, False)


def test_an_empty_stream_passes_untainted():
    assert outcome([]) == (None, False)


def test_nothing_past_the_first_failure_is_read():
    read = []

    def checks():
        for n in range(5):
            read.append(n)
            yield n, n != 2, False

    assert outcome(checks()) == (2, False)
    assert read == [0, 1, 2]


def test_the_report_derives_its_status_from_the_failure_and_the_taint():
    assert VerificationReport("c", None).status == PASS
    assert VerificationReport("c", None, tainted=True).status == INCONCLUSIVE
    # a located failure fails even where truncation also tainted the check
    assert VerificationReport("c", None, first_failure=0).status == FAIL
    assert VerificationReport("c", None, tainted=True, first_failure=("lowering", 3)).status == FAIL
    assert VerificationReport("c", None).passed
    assert not VerificationReport("c", None, tainted=True).passed


def test_a_replaced_report_keeps_its_taint():
    r = VerificationReport("c", "monomial", tainted=True)._replace(model="hermite")
    assert (r.tainted, r.status, r.to_dict()["status"]) == (True, INCONCLUSIVE, INCONCLUSIVE)


def test_residual_report_passes_within_its_tolerance():
    assert ResidualReport("c", params={"tol": 1e-6}, max_residual=1e-6).passed
    assert not ResidualReport("c", params={"tol": 1e-6}, max_residual=2e-6).passed
