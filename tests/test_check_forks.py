"""The fork gates (tools/check_forks.py) run with the tier-1 suite, so a
twin that grows back fails locally and not only in the CI docs job."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_retired_fork_or_knob_has_grown_back():
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "check_forks.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
