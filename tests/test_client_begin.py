"""A BEGIN costs no client request: the application's connection answers
a lone BEGIN itself and its next statement carries it (``begin: true``,
database wire v4 on ``pydb://``, cluster wire v4 on ``sequoia://``).

The tests count the EXECUTE frames the session's owner receives — the
controller on a cluster, the database server on ``pydb://`` — over the
three kinds of connection the deferral lives under
(``dbapi/runtime.py``'s ``WireConnection``); the last compares each kind
with one database behind an eager (v3) driver, text by text."""

import threading
import time

import pytest

from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.wire import ERROR_NOT_PRIMARY, ERROR_SERVER_BUSY, ClusterMessageType, make_error
from repro.core.constants import ExpirationPolicy
from repro.core.loader import DriverLoader
from repro.dbapi import Error, OperationalError, ProgrammingError
from repro.dbapi.driver_factory import build_pydb_driver, build_sequoia_driver
from repro.dbapi.runtime import RuntimeDriver
from repro.dbserver.session import STATEMENTS, ServerSession
from repro.dbserver.wire import BEGIN_MIN_VERSION, MessageType
from repro.experiments.environments import build_cluster, build_single_database

KINDS = ("pydb", "dedicated", "multiplexed")
CLUSTER_KINDS = ("dedicated", "multiplexed")
#: The tx_dedicated operation's statements after its BEGIN.
OPERATION = ["SELECT v FROM t WHERE id = 1", "UPDATE t SET v = v + 1 WHERE id = 1", "COMMIT"]


class _Frames:
    """``(owner, sql, begin)`` per EXECUTE an owner received since
    :meth:`watch`: a controller (by id) or the database server."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.seen = []

    def _tap(self, route, owner):
        seen = self.seen

        def received(context, frame):
            seen.append((owner, frame["sql"], frame.get("begin", False)))
            return route.handler(context, frame)

        return route._replace(handler=received)

    def watch(self, env):
        if hasattr(env, "controllers"):
            for controller in env.controllers:
                route = controller._session_routes[ClusterMessageType.EXECUTE]
                tapped = self._tap(route, controller.config.controller_id)
                for routes in (controller._session_routes, controller._trunk_routes):
                    self._monkeypatch.setitem(routes, ClusterMessageType.EXECUTE, tapped)
        else:
            tapped = self._tap(STATEMENTS[MessageType.EXECUTE], "db")
            self._monkeypatch.setitem(STATEMENTS, MessageType.EXECUTE, tapped)
        return self

    def sent(self):
        return [(sql, begin) for _, sql, begin in self.seen]


@pytest.fixture
def make(monkeypatch):
    """``make(kind, **cluster_options)`` → ``(env, connection, frames)``: a
    connection of ``kind`` with table ``t`` holding ``(1, 10)``, and a
    frame counter watching from there on."""
    envs = []

    def build(kind, driver=None, **cluster_options):
        if kind == "pydb":
            env = build_single_database()
            connection = (driver or RuntimeDriver()).connect(env.url, network=env.network)
        else:
            env = build_cluster(replicas=2, **{"controllers": 1, **cluster_options})
            connection = (driver or ClusterDriverRuntime()).connect(
                env.client_url(), network=env.network, multiplexing=kind == "multiplexed"
            )
        envs.append(env)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        cursor.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        return env, connection, _Frames(monkeypatch).watch(env)

    yield build
    for env in envs:
        env.close()


def _value(connection):
    cursor = connection.cursor()
    cursor.execute("SELECT v FROM t WHERE id = 1")
    return cursor.fetchone()[0]


@pytest.mark.parametrize("by_text", [True, False], ids=["text", "method"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_begin_sends_no_frame_and_only_the_first_statement_carries_it(make, kind, by_text):
    env, connection, frames = make(kind)
    if by_text:
        connection.cursor().execute("BEGIN")
    else:
        connection.begin()
    assert frames.sent() == [] and connection.in_transaction
    for sql in OPERATION:
        connection.cursor().execute(sql)
    # The tx_dedicated operation: 3 EXECUTE frames, the first carrying BEGIN.
    assert frames.sent() == [(OPERATION[0], True), (OPERATION[1], False), (OPERATION[2], False)]
    assert not connection.in_transaction and _value(connection) == 11


@pytest.mark.parametrize("end", ["COMMIT", "ROLLBACK", "commit()", "rollback()"])
@pytest.mark.parametrize("kind", KINDS)
def test_an_empty_transaction_sends_nothing(make, kind, end):
    env, connection, frames = make(kind)
    connection.cursor().execute(" begin transaction ;")
    if end.endswith("()"):
        getattr(connection, end[:-2])()
    else:
        connection.cursor().execute(end)
    assert frames.sent() == [] and not connection.in_transaction
    # Nothing was left open: the next statement carries no BEGIN.
    connection.cursor().execute("UPDATE t SET v = 12 WHERE id = 1")
    assert frames.sent() == [("UPDATE t SET v = 12 WHERE id = 1", False)]


def _sequoia_v1():
    return DriverLoader().load(build_sequoia_driver("sequoia-v1", protocol_version=1))


@pytest.mark.parametrize(
    "kind, end",
    [
        ("pydb", "driver"),
        ("pydb", "server"),
        ("dedicated", "driver"),
        ("multiplexed", "driver"),
        ("dedicated", "controller"),
        ("multiplexed", "controller"),
        ("dedicated", "v1 package"),
    ],
)
def test_a_v3_end_keeps_the_eager_begin(make, monkeypatch, kind, end):
    old = BEGIN_MIN_VERSION - 1
    driver, options = None, {}
    if end == "driver":
        runtime = RuntimeDriver if kind == "pydb" else ClusterDriverRuntime
        driver = runtime(protocol_version=old)
    elif end == "server":
        handshake = ServerSession.handshake

        def older(session, connect):
            return {**handshake(session, connect), "protocol_version": old}

        monkeypatch.setattr(ServerSession, "handshake", older)
    elif end == "controller":
        options = {"controller_options": {"protocol_version": 3}}
    else:
        driver = _sequoia_v1()
    env, connection, frames = make(kind, driver=driver, **options)
    connection.cursor().execute("BEGIN")
    for sql in OPERATION:
        connection.cursor().execute(sql)
    assert frames.sent() == [("BEGIN", False)] + [(sql, False) for sql in OPERATION]
    assert _value(connection) == 11


@pytest.mark.parametrize("carried", [True, False], ids=["v4", "v3"])
@pytest.mark.parametrize("kind", CLUSTER_KINDS)
def test_a_bounced_carried_request_keeps_its_debt_and_retries_on_the_primary(make, kind, carried):
    env, _, frames = make(kind, controllers=3, ha=True)
    primary, follower = env.controllers[0], env.controllers[1]
    # A fresh driver's first connection starts at the URL's second host.
    connection = ClusterDriverRuntime(protocol_version=4 if carried else 3).connect(
        f"sequoia://{primary.address},{follower.address}/vdb",
        network=env.network,
        multiplexing=kind == "multiplexed",
    )
    assert connection.controller_id == follower.config.controller_id
    connection.begin()
    connection.cursor().execute("UPDATE t SET v = 20 WHERE id = 1")
    # An eager BEGIN is bounced and retried; a carried one rides the
    # bounced statement and the retry alike: the same bounce, the same failover.
    assert (connection.not_primary_bounces, connection.failovers) == (1, 1)
    assert connection.controller_id == primary.config.controller_id
    bounced, primary_id = follower.config.controller_id, primary.config.controller_id
    update = "UPDATE t SET v = 20 WHERE id = 1"
    if carried:
        expected = [(bounced, update, True), (primary_id, update, True)]
    else:
        expected = [(bounced, "BEGIN", False), (primary_id, "BEGIN", False), (primary_id, update, False)]
    assert frames.seen == expected
    assert connection.in_transaction and primary.scheduler.in_transaction(connection.session_id)
    connection.rollback()
    assert _value(connection) == 10


@pytest.mark.parametrize("kind", CLUSTER_KINDS)
def test_a_debt_carried_onto_an_older_controller_is_paid_there_eagerly(make, kind):
    env, connection, frames = make(kind, controllers=2)
    first = [c for c in env.controllers if c.config.controller_id == connection.controller_id][0]
    (second,) = [c for c in env.controllers if c is not first]
    second.config.protocol_version = 3
    bounce = {**make_error(ERROR_NOT_PRIMARY, "a follower"), "primary_host": second.address}
    first._ha_gate_write = lambda: dict(bounce)
    sql = "UPDATE t SET v = 30 WHERE id = 1"
    connection.begin()
    connection.cursor().execute(sql)
    assert frames.seen == [
        (first.config.controller_id, sql, True),
        (second.config.controller_id, "BEGIN", False),
        (second.config.controller_id, sql, False),
    ]
    assert connection.in_transaction and second.scheduler.in_transaction(connection.session_id)
    connection.commit()
    assert _value(connection) == 30


@pytest.mark.parametrize("carried", [True, False], ids=["carried", "auto-commit"])
@pytest.mark.parametrize("kind", CLUSTER_KINDS)
def test_a_carried_request_lost_in_flight_ends_the_connection(make, monkeypatch, kind, carried):
    env, connection, frames = make(kind, controllers=2)
    (attached,) = [c for c in env.controllers if c.config.controller_id == connection.controller_id]
    route = attached._session_routes[ClusterMessageType.EXECUTE]

    def lost(state, frame):
        frames.seen.append((attached.config.controller_id, frame["sql"], frame.get("begin", False)))
        state.channel.close()  # unanswered: the client cannot tell whether it ran

    for routes in (attached._session_routes, attached._trunk_routes):
        monkeypatch.setitem(routes, ClusterMessageType.EXECUTE, route._replace(handler=lost))
    if carried:
        connection.begin()
        # The BEGIN may have run before the loss: as mid-transaction, no retry.
        with pytest.raises(OperationalError):
            connection.cursor().execute("UPDATE t SET v = 40 WHERE id = 1")
        assert connection.closed and connection.failovers == 0
        assert not connection.in_transaction
    else:
        # An auto-commit statement is retried on the sibling, as before.
        connection.cursor().execute("UPDATE t SET v = 40 WHERE id = 1")
        assert not connection.closed and connection.failovers == 1
    assert [begin for _, _, begin in frames.seen][0] == carried


@pytest.mark.parametrize("kind", CLUSTER_KINDS)
def test_a_carried_begin_the_controller_refuses_fails_its_statement_unrun(make, kind):
    env, holder, frames = make(kind)
    controller = env.controllers[0]
    holder.begin()
    holder.cursor().execute("UPDATE t SET v = 11 WHERE id = 1")
    connection = ClusterDriverRuntime().connect(
        env.client_url(), network=env.network, multiplexing=kind == "multiplexed", busy_retries=0
    )
    connection.begin()
    # The write gate refuses the carried BEGIN, as it would at saturation.
    controller._ha_gate_write = lambda: make_error(ERROR_SERVER_BUSY, "refused at BEGIN")
    with pytest.raises(OperationalError, match="refused at BEGIN"):
        connection.cursor().execute("INSERT INTO t (id, v) VALUES (2, 20)")
    del controller._ha_gate_write
    assert frames.sent()[-1] == ("INSERT INTO t (id, v) VALUES (2, 20)", True)
    assert not connection.in_transaction and controller.scheduler.open_transactions == 1
    # Another session's transaction was never in the way, and is whole.
    assert controller.scheduler.in_transaction(holder.session_id)
    holder.commit()
    cursor = holder.cursor()
    cursor.execute("SELECT id, v FROM t ORDER BY id")
    assert cursor.fetchall() == [(1, 11)]
    connection.close()


@pytest.mark.parametrize("kind", CLUSTER_KINDS)
def test_a_pipeline_carries_an_owed_begin_on_its_first_statement(make, kind):
    env, connection, frames = make(kind)
    connection.begin()
    assert connection.execute_pipeline([]) == [] and connection.in_transaction
    inserts = [f"INSERT INTO t (id, v) VALUES ({n}, 0)" for n in (2, 3)]
    connection.execute_pipeline(inserts)
    assert frames.sent() == [(inserts[0], True), (inserts[1], False)]
    assert connection.in_transaction
    connection.rollback()
    cursor = connection.cursor()
    cursor.execute("SELECT COUNT(*) FROM t")
    assert cursor.fetchone() == (1,)


@pytest.mark.parametrize("kind", CLUSTER_KINDS)
def test_a_pipeline_refused_at_saturation_with_its_begin_runs_nothing_outside_it(make, kind):
    env, connection, frames = make(kind, controller_options={"max_in_flight_statements": 1})
    controller = env.controllers[0]
    # A writer parked on the scheduler's exclusive lock holds the only slot.
    exclusive = controller.scheduler._locks.exclusive()
    exclusive.__enter__()
    blocked = ClusterDriverRuntime().connect(env.client_url(), network=env.network, busy_retries=0)
    parked = threading.Thread(
        target=blocked.cursor().execute, args=("INSERT INTO t (id, v) VALUES (9, 0)",)
    )
    parked.start()
    patient = ClusterDriverRuntime().connect(
        env.client_url(),
        network=env.network,
        multiplexing=kind == "multiplexed",
        busy_retries=10_000,
        busy_backoff_ms=1.0,
        busy_backoff_cap_ms=5.0,
    )
    inserts = [f"INSERT INTO t (id, v) VALUES ({n}, 0)" for n in (2, 3)]
    errors = []

    def pipeline():
        try:
            patient.execute_pipeline(inserts)
        except Error as exc:  # surfaced below
            errors.append(exc)

    try:
        assert _wait_for(lambda: controller.stats()["front_end"]["in_flight_statements"] == 1)
        patient.begin()
        app = threading.Thread(target=pipeline)
        app.start()
        # The statement carrying the BEGIN is refused and retried, alone:
        # nothing behind it is fired until the BEGIN has run.
        assert _wait_for(lambda: patient.stats()["server_busy_retries"] >= 1)
        assert [sql for _, sql, _ in frames.seen if sql == inserts[1]] == []
    finally:
        exclusive.__exit__(None, None, None)
    app.join(10.0)
    parked.join(10.0)
    assert errors == [] and patient.in_transaction
    patient.rollback()
    cursor = patient.cursor()
    cursor.execute("SELECT id FROM t ORDER BY id")
    assert cursor.fetchall() == [(1,), (9,)]
    for other in (blocked, patient):
        other.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


@pytest.mark.parametrize("kind", KINDS)
def test_close_while_owing_a_begin_sends_no_rollback(make, kind):
    env, connection, frames = make(kind)
    connection.begin()
    connection.close()
    assert frames.sent() == [] and not connection.in_transaction
    if kind != "pydb":
        assert env.controllers[0].scheduler.open_transactions == 0


def test_after_commit_defers_a_connection_owing_a_begin_and_closes_it_at_its_commit(
    single_db_env, monkeypatch
):
    env = single_db_env
    record = env.admin.install_driver(
        build_pydb_driver("pydb-A", driver_version=(1, 0, 0)),
        database=env.database_name,
        lease_time_ms=1_000,
        expiration_policy=ExpirationPolicy.AFTER_COMMIT,
    )
    bootloader = env.new_bootloader()
    idle, owing = bootloader.connect(env.url), bootloader.connect(env.url)
    frames = _Frames(monkeypatch).watch(env)
    owing.begin()
    assert owing.in_transaction and frames.sent() == []
    env.admin.push_upgrade(
        build_pydb_driver("pydb-B", driver_version=(2, 0, 0)),
        old_record=record,
        database=env.database_name,
        lease_time_ms=1_000,
        expiration_policy=ExpirationPolicy.AFTER_COMMIT,
        notify=False,
    )
    env.clock.advance(2.0)
    assert bootloader.check_for_update(url=env.url, force=True) == "upgraded"
    transition = bootloader.last_transition
    assert (transition.closed_immediately, transition.deferred_to_commit) == (1, 1)
    assert idle.closed and not owing.closed
    owing.commit()
    assert owing.closed and frames.sent() == []
    assert transition.aborted_transactions == 0


# -- every connection answers a transaction-control text as one database does ------

SCRIPTS = [
    ["BEGIN foo"],
    ["BEGIN WORK"],
    ["BEGIN;;"],
    ["BEGIN", "COMMIT foo", "SELECT v FROM t WHERE id = 1", "ROLLBACK"],
    ["BEGIN", "ROLLBACK WORK", "COMMIT"],
    ["begin", "BEGIN", "COMMIT"],
    [" Begin Transaction ; ", "UPDATE t SET v = 5 WHERE id = 1", "commit;"],
    ["START TRANSACTION", "\tROLLBACK\n"],
    ["COMMIT"],
    ["ROLLBACK;"],
]


def _outcomes(connection, script):
    """``(accepted, in_transaction)`` after each statement of ``script``."""
    outcomes = []
    for sql in script:
        try:
            connection.cursor().execute(sql)
            accepted = True
        except Error:
            accepted = False
        outcomes.append((accepted, connection.in_transaction))
    return outcomes


@pytest.mark.parametrize("script", SCRIPTS, ids=[" / ".join(script) for script in SCRIPTS])
@pytest.mark.parametrize("kind", KINDS)
def test_transaction_control_is_refused_and_accepted_as_one_database_does(make, kind, script):
    """The reference is one database behind a v3 driver: every text
    reaches its engine, nothing is deferred or answered by a connection."""
    single = build_single_database()
    try:
        eager = RuntimeDriver(protocol_version=BEGIN_MIN_VERSION - 1)
        alone = eager.connect(single.url, network=single.network)
        alone.cursor().execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        alone.cursor().execute("INSERT INTO t (id, v) VALUES (1, 10)")
        env, connection, _ = make(kind)
        assert _outcomes(connection, script) == _outcomes(alone, script)
        alone.rollback()
        connection.rollback()
        assert _value(connection) == _value(alone)
    finally:
        single.close()
