"""A ratchet on what one auto-commit statement costs the scheduler.

The calls cProfile counts (Python and builtin, per code object) in one
warm ``RequestScheduler.execute`` over zero-cost stub replicas: the point
UPDATE at one and at three replicas (a write round and its fan-out) and
the point SELECT (one replica). The stubs answer the catalog probe, so
the UPDATE takes a key scope, as a write does on a real cluster. A count
is deterministic where a timing is not, so it gates what a timing could
only suggest. Each bound is the count when it was set, as the
``allowed`` rows of ``tools/check_forks.py`` are: it may only go down,
and a change that lowers a count lowers its bound with it.

Nothing here is timed. Call counts change with the interpreter (3.12
profiles through ``sys.monitoring`` and inlines comprehensions), so the
test runs on Python 3.11 only.
"""

import cProfile
import gc
import sys

import pytest

from repro.cluster.backend import Backend
from repro.cluster.recovery import RecoveryLog
from repro.cluster.scheduler import RequestScheduler

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="cProfile call counts are pinned on Python 3.11"
)

UPDATE = ("UPDATE accounts SET balance = $b WHERE id = $i", {"b": 5, "i": 3})
SELECT = ("SELECT balance FROM accounts WHERE id = $i", {"i": 3})

#: ``(statement, replicas) → most calls``.
BOUNDS = {
    ("update", 1): 150,
    ("update", 3): 236,
    ("select", 3): 56,
}

_CATALOG = [
    ("accounts", None, "id", 1, "INTEGER", True, None),
    ("accounts", None, "balance", 2, "INTEGER", False, None),
]


class _Cursor:
    """Canned answers: the catalog probe, a one-row SELECT, a one-row write."""

    description = None
    rowcount = -1

    def execute(self, sql, params=None):
        if sql.startswith("SELECT table_name"):
            self.description, self._rows, self.rowcount = None, _CATALOG, 2
        elif sql.startswith("SELECT"):
            self.description, self._rows, self.rowcount = [("balance",) + (None,) * 6], [(100,)], 1
        else:
            self.description, self._rows, self.rowcount = None, [], 1

    def fetchall(self):
        return self._rows

    def close(self):
        pass


class _Connection:
    """A replica with no wire and no engine, and no split form."""

    closed = False

    def cursor(self):
        return _Cursor()

    def close(self):
        self.closed = True


def _calls(statement, replicas):
    scheduler = RequestScheduler(
        [Backend(f"db{index + 1}", _Connection) for index in range(replicas)], RecoveryLog()
    )
    sql, params = statement
    for _ in range(3):  # warm: the classifier's memo, the key cache, the shared connections
        scheduler.execute(sql, params, session_id="s")
    # A collection inside the profile would count whatever finalizers
    # earlier tests' garbage runs.
    gc.collect()
    gc.disable()
    try:
        profile = cProfile.Profile()
        profile.enable()
        scheduler.execute(sql, params, session_id="s")
        profile.disable()
    finally:
        gc.enable()
    scheduler.close()
    # Summed per code object: pstats keys by (file, line, name), under
    # which every dataclass's generated ``__init__`` is one entry.
    return sum(entry.callcount for entry in profile.getstats())


@pytest.mark.parametrize(("name", "replicas"), sorted(BOUNDS))
def test_a_warm_statement_makes_no_more_calls_than_its_bound(name, replicas):
    calls = _calls(UPDATE if name == "update" else SELECT, replicas)
    assert calls <= BOUNDS[name, replicas], (
        f"a {name} over {replicas} stub replica(s) made {calls} calls, "
        f"above its bound of {BOUNDS[name, replicas]}"
    )

