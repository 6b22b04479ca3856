"""Gate a pytest run on its exact set of failing tests.

Usage: python .github/check_junit.py REPORT.xml

Reads the JUnit XML that ``pytest --junitxml`` writes and exits 0 only when
the tests that failed or errored are exactly EXPECTED_FAILURES. Acceptance
criterion 6 checks the paper's hypercycle partition-dimension closed form,
which is wrong on four short cycles (see README.md), so it stays red on
purpose; any other failure, or criterion 6 passing, fails the gate.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {"tests.test_acceptance::test_criterion_06_pd_hypercycles"}


def failing_tests(path):
    failed = set()
    total = 0
    for case in ET.parse(path).iter("testcase"):
        total += 1
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(f"{case.get('classname')}::{case.get('name')}")
    return total, failed


def main(argv):
    if len(argv) != 2:
        print("usage: python .github/check_junit.py REPORT.xml", file=sys.stderr)
        return 2
    total, failed = failing_tests(argv[1])
    unexpected = sorted(failed - EXPECTED_FAILURES)
    missing = sorted(EXPECTED_FAILURES - failed)
    print(f"{total} tests, {len(failed)} failed")
    for name in unexpected:
        print(f"unexpected failure: {name}")
    for name in missing:
        print(f"expected failure did not fail: {name}")
    return 1 if unexpected or missing or total == 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
