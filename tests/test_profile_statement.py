"""Smoke test of tools/profile_statement.py: one short in-process run of
a perfbench workload, in its own process (the tool pins itself to one
CPU), prints a row per thread role and a merged profile."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's /proc")

#: ``--cprofile`` gives each thread its own profiler, which Python 3.12's
#: interpreter-wide ``sys.monitoring`` profiling does not allow.
CPROFILE = sys.version_info < (3, 12)


def test_profile_statement_prints_each_roles_cpu_and_switches_per_operation():
    result = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "tools", "profile_statement.py"),
            "--workload", "point_read", "--seconds", "0.5",
        ] + (["--cprofile"] if CPROFILE else []),
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    rows = {}
    for line in result.stdout.splitlines():
        match = re.match(r"  (\S+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)$", line)
        if match:
            rows[match.group(1)] = tuple(float(value) for value in match.groups()[1:])
    for role in ("controller*-conn", "*-mux", "db-*-conn", "mux-reader-*", "perfbench-session*"):
        assert role in rows, result.stdout
    # Every operation crosses threads, so it costs CPU and context switches.
    user_us, _, switches = rows["total"]
    assert user_us > 0 and switches > 0
    if CPROFILE:
        assert "merged profile of every thread over the timed load (top 30" in result.stdout
        assert re.search(r"\d+ function calls", result.stdout), result.stdout
