"""tools/unreached.py: the function-body lines of src/tuneforge a test run never executes."""

import os
import re
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def test_the_stats_tests_leave_exactly_the_numerical_guards_of_stats_unreached():
    done = subprocess.run(
        [sys.executable, os.path.join("tools", "unreached.py"), "-q", "-p", "no:cacheprovider",
         os.path.join("tests", "test_stats.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    listed = re.findall(r"^(\w+\.py):(\d+)  (.*)$", done.stdout, re.M)
    keys = [(module, int(line)) for module, line, _ in listed]
    assert keys == sorted(keys)
    with open(os.path.join(ROOT, "src", "tuneforge", "stats.py"), encoding="utf-8") as fh:
        guards = [(i, text.strip()) for i, text in enumerate(fh, start=1)
                  if text.strip() in ("d = _FPMIN", "c = _FPMIN")
                  or "failed to converge" in text]
    assert len(guards) == 6
    assert [(int(line), text) for module, line, text in listed if module == "stats.py"] == guards
    # the modules whose functions test_stats.py never calls are listed too
    assert {module for module, _, _ in listed} > {"stats.py", "docgen.py", "executor.py"}
    total = re.search(r"^unreached: (\d+) of (\d+) function-body lines$", done.stdout, re.M)
    assert int(total[1]) == len(listed) < int(total[2])
