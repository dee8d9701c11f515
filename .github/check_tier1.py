"""Check a Tier-1 JUnit XML report: every test passed except the two
documented non-passes.

* ``test_acceptance_6_phenomenon_reenactment`` fails, with the analysis
  README and its own docstring give: the (0, 0, 0.01) orbit overflows after
  t=66.4261, and from (0, 0, 0.1) no window score crosses 1.0 (peak 0.6272).
* ``test_separation_exceeds_macroscopic_threshold`` is the one strict xfail.

Any other failure, any error (collection errors included), an unexpected
pass of the xfail, or a change in either record exits 1.

Usage: python .github/check_tier1.py tier1.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

CRITERION_6 = "tests.test_acceptance::test_acceptance_6_phenomenon_reenactment"
CRITERION_6_TEXT = (
    "ACCEPTANCE 6 (phenomenon reenactment): FAIL",
    "initial state (0, 0, 0.01)",
    "diverges to overflow",
    "last finite state at t=66.4261",
    "no candidate's cumulative NRMSE ever crosses 1.0 (peak window score 0.6272)",
)
STRICT_XFAIL = ("tests.test_integrate.TestSensitiveDependence"
                "::test_separation_exceeds_macroscopic_threshold")


def main(path: str) -> int:
    outcomes = {"failure": {}, "error": {}, "xfail": {}}
    passed = 0
    for case in ET.parse(path).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        marks = [child for child in case if child.tag in ("failure", "error", "skipped")]
        if not marks:
            passed += 1
        for mark in marks:
            kind = mark.tag
            if kind == "skipped":
                if mark.get("type") != "pytest.xfail":
                    print(f"skipped: {test_id}: {mark.get('message')}")
                    continue
                kind = "xfail"
            outcomes[kind][test_id] = mark.get("message") or ""
    problems = [f"error: {test_id}: {message}"
                for test_id, message in outcomes["error"].items()]
    problems += [f"unexpected failure: {test_id}: {message}"
                 for test_id, message in outcomes["failure"].items()
                 if test_id != CRITERION_6]
    message = outcomes["failure"].get(CRITERION_6)
    if message is None:
        problems.append(f"{CRITERION_6} did not fail; it is red by design")
    else:
        problems += [f"{CRITERION_6} no longer says {text!r}"
                     for text in CRITERION_6_TEXT if text not in message]
    if list(outcomes["xfail"]) != [STRICT_XFAIL]:
        problems.append(f"expected the one strict xfail {STRICT_XFAIL}, "
                        f"got {sorted(outcomes['xfail'])}")
    print(f"{passed} passed, {len(outcomes['failure'])} failed, "
          f"{len(outcomes['error'])} errors, {len(outcomes['xfail'])} xfailed")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
