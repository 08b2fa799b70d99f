"""Repo-level pytest configuration: a deadlock watchdog + chaos seeds.

The lock manager's failure mode is not a wrong answer but a silent hang
(the self-deadlock this PR fixes hung exactly this way), and a hung CI
job idles until the runner's global timeout with no clue where it
stuck. pytest-timeout is not installable in this environment, so a
stdlib ``faulthandler`` watchdog arms before every test: any single
test exceeding ``REPRO_TEST_TIMEOUT`` seconds (default 120) gets every
thread's stack dumped to stderr and the process killed — the dump shows
which locks the threads are parked on.

Set ``REPRO_TEST_TIMEOUT=0`` to disable (e.g. when stepping through a
test under a debugger).

Seeded chaos tests (tests/chaos.py): when a test that drew a chaos seed
fails, the seed is attached to its report as a ``chaos seed`` section,
so the failing interleaving is replayable with
``REPRO_CHAOS_SEED=<seed>`` even when captured stdout was swallowed.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running experiment reproductions")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if _TIMEOUT_S > 0:
        faulthandler.dump_traceback_later(_TIMEOUT_S, exit=True)
    try:
        yield
    finally:
        if _TIMEOUT_S > 0:
            faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    chaos = sys.modules.get("chaos") or sys.modules.get("tests.chaos")
    seed = getattr(chaos, "LAST_SEED", None) if chaos else None
    if seed is not None:
        report.sections.append(
            ("chaos seed", f"rerun this interleaving with REPRO_CHAOS_SEED={seed}")
        )
