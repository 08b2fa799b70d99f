"""One answer to "is a transaction open on this session?".

The server that owns a session says so on every RESULT/ERROR
(``in_transaction``, omitted when false), and ``connection.in_transaction``
is whatever the last reply said — or True while the connection owes a
BEGIN it answered itself, which its next statement carries (wire v4 on
both protocols). For ``pydb://`` the owner is the
database server's ``ServerSession``. For ``sequoia://`` it is the
controller: the scheduler's record of the session's transaction
(``scheduler.in_transaction(session_id)``), which runs on replica
connections checked out for it alone. So a legacy application cannot
tell the middleware from one database by *how it spells BEGIN*: by
method or by text, the failover guard, the ROLLBACK-before-CLOSE and
the expiration policies see the same flag — and no flag outlives the
transaction it names. Nor by what another session sends: a second
session's COMMIT/ROLLBACK finds nothing open on that session and is
refused, on either kind of owner, and an owed BEGIN stays owed.

The oracle: random sequences of transaction control (by text and by
method), good DML, failing statements and pipelines over the three
connection kinds, with a second session that sends COMMIT/ROLLBACK by
text; after every step the driver's flag equals the owner's answer, and
at the end every database holds exactly what a model that applies only
committed steps holds. The directed cases are the three ways a
text-opened transaction used to be invisible to the client side, and
the two ways a second session's COMMIT reached the first one's
transaction on the controller when the replicas shared one connection.
"""

import itertools
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaos
from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.wire import ClusterMessageType
from repro.cluster.wire import make_connect as make_seq_connect
from repro.cluster.wire import make_execute as make_seq_execute
from repro.core.constants import ExpirationPolicy
from repro.dbapi import Error, OperationalError, ProgrammingError
from repro.dbapi.driver_factory import build_pydb_driver
from repro.dbserver.wire import PROTOCOL_VERSION, MessageType, make_connect, make_execute
from repro.experiments.environments import build_cluster, build_single_database

KINDS = ("pydb", "dedicated", "multiplexed")

_table_numbers = itertools.count(1)


class _Setting:
    """One kind of connection, who owns its session, and where its rows
    end up."""

    def __init__(self, kind):
        self.kind = kind
        if kind == "pydb":
            self.env = build_single_database()
            self.engines = [self.env.engine]
        else:
            self.env = build_cluster(replicas=2, controllers=1)
            self.engines = self.env.replica_engines

    def connect(self):
        if self.kind == "pydb":
            return self.env.legacy_connect()
        connection = ClusterDriverRuntime(name=f"flag-{self.kind}").connect(
            self.env.client_url(),
            network=self.env.network,
            multiplexing=self.kind == "multiplexed",
        )
        assert connection.multiplexed == (self.kind == "multiplexed")
        return connection

    def owner_says(self, connection):
        """The transaction state of ``connection``'s session: the server
        that owns it holds one open, or the connection owes a BEGIN."""
        if connection._owed_begin:
            return True
        if self.kind == "pydb":
            (session,) = [
                session
                for session in self.env.db_server.active_sessions()
                if session.session_id == connection.session_id
            ]
            return session.sql_session.in_transaction
        return self.env.controllers[0].scheduler.in_transaction(connection.session_id)

    def settled(self):
        """No session's transaction is still open anywhere (a cluster
        session's close is fire-and-forget; its rollback follows)."""
        if self.kind == "pydb":
            return True
        return chaos.wait_until(
            lambda: self.env.controllers[0].scheduler.stats()["open_transactions"] == 0
        )

    def rows(self, table):
        """``{id: v}`` of ``table`` on every database that holds it."""
        return [
            {
                row[0]: row[1]
                for row in engine.open_session(self.env.database_name)
                .execute(f"SELECT id, v FROM {table}")
                .rows
            }
            for engine in self.engines
        ]


@pytest.fixture(scope="module", params=KINDS)
def setting(request):
    setting = _Setting(request.param)
    yield setting
    setting.env.close()


class _Script:
    """Runs steps against a connection and a model of what they mean:
    ``committed`` rows, and ``pending`` — the transaction's view of the
    table — while one is open; ``owed`` while its BEGIN was answered by
    the connection and has reached no server yet (the next statement
    sent carries it). ``other`` is a second session on the same
    database."""

    def __init__(self, setting, connection, table, other):
        self.setting = setting
        self.connection = connection
        self.other = other
        self.cursor = connection.cursor()
        self.table = table
        self.committed = {}
        self.pending = None
        self.owed = False
        self.next_id = itertools.count(1)

    @property
    def open(self):
        return self.pending is not None

    @property
    def visible(self):
        return self.pending if self.open else self.committed

    def attempt(self, call, *args):
        """Whether the statement was accepted; a DB-API error is a "no".
        A statement that reaches the server carries an owed BEGIN."""
        self.owed = False
        try:
            call(*args)
        except Error:
            return False
        return True

    def insert(self, row_id, value=0):
        return (f"INSERT INTO {self.table} (id, v) VALUES ($id, $v)", {"id": row_id, "v": value})

    # -- steps ----------------------------------------------------------------

    def begin(self, by_text):
        opens = not self.open
        accepted = (
            self.attempt(self.cursor.execute, "BEGIN")
            if by_text
            else self.attempt(self.connection.begin)
        )
        # A nested BEGIN is refused and leaves the open transaction open
        # (an owed one, carried by the refused BEGIN, opened on the server).
        assert accepted == opens
        if accepted:
            # Answered by the connection: owed until a statement carries it.
            self.pending, self.owed = dict(self.committed), True

    def end(self, verb, by_text):
        # Ending an owed BEGIN sends nothing (attempt() settles it).
        if by_text:
            # By text it reaches the server even with nothing open, and
            # is refused there.
            assert self.attempt(self.cursor.execute, verb) == self.open
        else:
            # By method it is a no-op when the flag says nothing is open.
            assert self.attempt(getattr(self.connection, verb.lower()))
        if self.open:
            if verb == "COMMIT":
                self.committed = self.pending
            self.pending = None

    def other_ends(self, verb):
        """The second session sends ``verb`` by text. Its owner keeps the
        sessions apart — a database server, and a controller whose
        sessions' transactions run on connections of their own — so it
        is refused: nothing is open on the second one."""
        owed = self.owed
        assert not self.attempt(self.other.cursor().execute, verb)
        self.owed = owed
        assert not self.other.in_transaction
        # This session's flag is what its next reply says.
        assert self.attempt(self.cursor.execute, "SELECT 1")

    def good_insert(self):
        row_id = next(self.next_id)
        assert self.attempt(self.cursor.execute, *self.insert(row_id))
        self.visible[row_id] = 0

    def good_update(self):
        if not self.visible:
            return self.good_insert()
        row_id = min(self.visible)
        assert self.attempt(
            self.cursor.execute,
            f"UPDATE {self.table} SET v = v + 1 WHERE id = $id",
            {"id": row_id},
        )
        self.visible[row_id] += 1

    def duplicate_key(self):
        if not self.visible:
            return self.good_insert()
        assert not self.attempt(self.cursor.execute, *self.insert(min(self.visible), 99))

    def bad_sql(self):
        assert not self.attempt(self.cursor.execute, "SELEC 1")
        assert not self.attempt(
            self.cursor.execute, "INSERT INTO flag_no_such_table (id) VALUES (1)"
        )

    def pipeline(self, with_duplicate):
        if self.setting.kind == "pydb":
            return self.good_insert()
        first, second = next(self.next_id), next(self.next_id)
        statements = [self.insert(first), self.insert(second)]
        if with_duplicate:
            # Fired behind the good ones: they ran, the burst still raises.
            statements.append(self.insert(first, 99))
        assert self.attempt(self.connection.execute_pipeline, statements) == (not with_duplicate)
        self.visible[first] = self.visible[second] = 0
        # Refused by the driver: nothing is sent.
        assert not self.attempt(self.connection.execute_pipeline, ["BEGIN"])
        assert not self.attempt(self.connection.execute_pipeline, [" commit ;"])

    def check_flag(self, step):
        flag = self.connection.in_transaction
        assert flag == self.setting.owner_says(self.connection), step
        assert flag == self.open, step
        assert self.connection._owed_begin == self.owed, step


STEPS = {
    "text BEGIN": lambda script: script.begin(by_text=True),
    "begin()": lambda script: script.begin(by_text=False),
    "text COMMIT": lambda script: script.end("COMMIT", by_text=True),
    "commit()": lambda script: script.end("COMMIT", by_text=False),
    "text ROLLBACK": lambda script: script.end("ROLLBACK", by_text=True),
    "rollback()": lambda script: script.end("ROLLBACK", by_text=False),
    "other session's COMMIT": lambda script: script.other_ends("COMMIT"),
    "other session's ROLLBACK": lambda script: script.other_ends("ROLLBACK"),
    "insert": _Script.good_insert,
    "update": _Script.good_update,
    "duplicate key": _Script.duplicate_key,
    "bad SQL": _Script.bad_sql,
    "pipeline": lambda script: script.pipeline(with_duplicate=False),
    "pipeline with a duplicate": lambda script: script.pipeline(with_duplicate=True),
}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(sorted(STEPS)), max_size=24))
def test_the_flag_is_the_owners_answer_and_only_committed_steps_persist(setting, steps):
    table = f"flag_{setting.kind}_{next(_table_numbers)}"
    connection, other = setting.connect(), setting.connect()
    try:
        connection.cursor().execute(
            f"CREATE TABLE {table} (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)"
        )
        script = _Script(setting, connection, table, other)
        script.check_flag("start")
        for step in steps:
            STEPS[step](script)
            script.check_flag(step)
    finally:
        # Whatever is still open is rolled back by the close.
        connection.close()
        other.close()
    assert setting.settled()
    assert setting.rows(table) == [script.committed] * len(setting.engines)


# -- frames: the field is there when true and only then -------------------------


def test_pydb_replies_carry_the_field_only_while_a_transaction_is_open():
    env = build_single_database()
    try:
        with env.network.connect(env.db_address, timeout=5.0) as channel:
            channel.request(make_connect(env.database_name, PROTOCOL_VERSION), 5.0)

            def reply_to(sql):
                return channel.request(make_execute(sql), timeout=5.0)

            assert "in_transaction" not in reply_to("CREATE TABLE f (id INTEGER PRIMARY KEY)")
            assert reply_to("BEGIN")["in_transaction"] is True
            assert reply_to("INSERT INTO f (id) VALUES (1)")["in_transaction"] is True
            error = reply_to("INSERT INTO f (id) VALUES (1)")
            assert error["type"] == MessageType.ERROR and error["in_transaction"] is True
            error = channel.request({"type": MessageType.EXECUTE, "sql": 7}, timeout=5.0)
            assert error["code"] == "bad_message" and error["in_transaction"] is True
            assert reply_to("BEGIN")["in_transaction"] is True  # refused: still the first
            assert "in_transaction" not in reply_to("COMMIT")
            error = reply_to("COMMIT")
            assert error["type"] == MessageType.ERROR and "in_transaction" not in error
    finally:
        env.close()


def test_controller_replies_and_refusals_carry_the_field_only_while_open():
    env = build_cluster(replicas=2, controllers=1)
    try:
        with env.network.connect(env.controllers[0].address, timeout=5.0) as channel:
            # v2: a dedicated channel, the frames an old package exchanges.
            reply = channel.request(make_seq_connect("vdb", 2), timeout=5.0)
            assert reply["type"] == ClusterMessageType.CONNECT_OK

            def reply_to(sql, **fields):
                return channel.request({**make_seq_execute(sql), **fields}, timeout=5.0)

            assert "in_transaction" not in reply_to("CREATE TABLE f (id INTEGER PRIMARY KEY)")
            assert reply_to("BEGIN")["in_transaction"] is True
            assert reply_to("INSERT INTO f (id) VALUES (1)")["in_transaction"] is True
            error = reply_to("INSERT INTO f (id) VALUES (1)")
            assert error["code"] == "execution_failed" and error["in_transaction"] is True
            # A refusal from the admission path, not from a statement that ran.
            error = reply_to("SELECT 1", params=[1])
            assert error["code"] == "bad_message" and error["in_transaction"] is True
            assert "in_transaction" not in reply_to("ROLLBACK")
            assert "in_transaction" not in reply_to("SELECT 1", params=[1])
            assert "in_transaction" not in reply_to("SELECT COUNT(*) FROM f")
    finally:
        env.close()


# -- the three scripts a text BEGIN used to break ---------------------------------


@pytest.mark.parametrize("multiplexing", [True, False], ids=["multiplexed", "dedicated"])
def test_controller_death_in_a_text_opened_transaction_raises_and_closes(multiplexing):
    env = build_cluster(replicas=2, controllers=2)
    try:
        connection = ClusterDriverRuntime(name="flag-failover").connect(
            env.client_url(), network=env.network, multiplexing=multiplexing
        )
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE fo (id INTEGER PRIMARY KEY)")
        cursor.execute("BEGIN")
        cursor.execute("INSERT INTO fo (id) VALUES (1)")
        assert connection.in_transaction
        (attached,) = [
            c for c in env.controllers if c.config.controller_id == connection.controller_id
        ]
        chaos.graceful_stop(env, attached)
        # The sibling never saw BEGIN or row 1: running row 2 there would
        # commit half a transaction.
        with pytest.raises(OperationalError):
            cursor.execute("INSERT INTO fo (id) VALUES (2)")
        assert connection.failovers == 0 and connection.closed
        for engine in env.replica_engines:
            session = engine.open_session(env.database_name)
            assert chaos.wait_until(
                lambda: session.execute("SELECT id FROM fo").rows == []
            ), session.execute("SELECT id FROM fo").rows
    finally:
        env.close()


def _upgrade_under(env, policy):
    """A bootloader on driver A with one idle connection and one inside
    a transaction opened by text; then driver B arrives under ``policy``."""
    record = env.admin.install_driver(
        build_pydb_driver("pydb-A", driver_version=(1, 0, 0)),
        database=env.database_name,
        lease_time_ms=1_000,
        expiration_policy=policy,
    )
    bootloader = env.new_bootloader()
    idle, busy = bootloader.connect(env.url), bootloader.connect(env.url)
    cursor = busy.cursor()
    cursor.execute("CREATE TABLE up (id INTEGER PRIMARY KEY)")
    cursor.execute("BEGIN")
    cursor.execute("INSERT INTO up (id) VALUES (1)")
    assert busy.in_transaction and not idle.in_transaction
    env.admin.push_upgrade(
        build_pydb_driver("pydb-B", driver_version=(2, 0, 0)),
        old_record=record,
        database=env.database_name,
        lease_time_ms=1_000,
        expiration_policy=policy,
        notify=False,
    )
    env.clock.advance(2.0)
    assert bootloader.check_for_update(url=env.url, force=True) == "upgraded"
    return bootloader.last_transition, idle, busy, cursor


def test_after_commit_lets_a_text_opened_transaction_finish_and_nothing_more(single_db_env):
    env = single_db_env
    transition, idle, busy, cursor = _upgrade_under(env, ExpirationPolicy.AFTER_COMMIT)
    assert (transition.closed_immediately, transition.deferred_to_commit) == (1, 1)
    assert idle.closed and not busy.closed
    # The transaction goes on: more statements, a failing one, then COMMIT.
    cursor.execute("INSERT INTO up (id) VALUES (2)")
    with pytest.raises(Error):
        cursor.execute("INSERT INTO up (id) VALUES (2)")
    assert not busy.closed
    cursor.execute("COMMIT")
    assert busy.closed
    rows = env.open_sql_session().execute("SELECT id FROM up ORDER BY id").rows
    assert [row[0] for row in rows] == [1, 2]


def test_immediate_counts_a_text_opened_transaction_as_aborted(single_db_env):
    env = single_db_env
    transition, idle, busy, _ = _upgrade_under(env, ExpirationPolicy.IMMEDIATE)
    assert (transition.closed_immediately, transition.aborted_transactions) == (2, 1)
    assert idle.closed and busy.closed
    assert env.open_sql_session().execute("SELECT id FROM up").rows == []


@pytest.mark.parametrize("kind", KINDS)
def test_commit_by_method_commits_a_transaction_opened_by_text(kind):
    setting = _Setting(kind)
    try:
        connection = setting.connect()
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE mixed (id INTEGER PRIMARY KEY, v INTEGER)")
        cursor.execute("BEGIN")
        cursor.execute("INSERT INTO mixed (id, v) VALUES (1, 0)")
        connection.commit()
        assert not connection.in_transaction
        connection.close()
        assert setting.settled()
        assert setting.rows("mixed") == [{1: 0}] * len(setting.engines)
        # And the other way round: begin() by method, ROLLBACK by text,
        # after which commit() has nothing to do.
        connection = setting.connect()
        connection.begin()
        connection.cursor().execute("INSERT INTO mixed (id, v) VALUES (2, 0)")
        connection.cursor().execute("ROLLBACK")
        connection.commit()
        connection.close()
        assert setting.settled()
        assert setting.rows("mixed") == [{1: 0}] * len(setting.engines)
    finally:
        setting.env.close()


# -- a second session's COMMIT on the controller ------------------------------------


def _teardown_finished(controller):
    """A predicate ``finished(session_id)``: the controller has torn the
    session down, its teardown ROLLBACK included if it sends one. A
    session leaves ``controller._sessions`` inside its teardown, so once
    it is gone and no teardown is running, its own has returned."""
    running = [0]
    lock = threading.Lock()
    finish = controller._finish_session

    def counted(state, session):
        with lock:
            running[0] += 1
        try:
            finish(state, session)
        finally:
            with lock:
                running[0] -= 1

    controller._finish_session = counted

    def finished(session_id):
        with lock:
            return session_id not in controller._sessions and not running[0]

    return finished


@pytest.mark.parametrize("kind", ("dedicated", "multiplexed"))
def test_another_sessions_commit_leaves_no_stale_flag(kind):
    setting = _Setting(kind)
    try:
        a, b = setting.connect(), setting.connect()
        cursor = a.cursor()
        cursor.execute("CREATE TABLE rogue (id INTEGER PRIMARY KEY, v INTEGER)")
        cursor.execute("BEGIN")
        cursor.execute("INSERT INTO rogue (id, v) VALUES (1, 0)")
        # B has nothing open: its COMMIT is refused as one database
        # refuses it, and A's transaction stays whole.
        with pytest.raises(ProgrammingError, match="COMMIT without an open transaction"):
            b.cursor().execute("COMMIT")
        cursor.execute("SELECT 1")
        assert a.in_transaction and not b.in_transaction
        scheduler = setting.env.controllers[0].scheduler
        assert scheduler.in_transaction(a.session_id) and not scheduler.in_transaction(b.session_id)
        # A's own COMMIT ends it, and A is free to open a transaction again.
        a.commit()
        assert not a.in_transaction and not scheduler.in_transaction(a.session_id)
        a.begin()
        # The BEGIN is owed: the transaction opens with its first statement.
        assert a.in_transaction and not scheduler.in_transaction(a.session_id)
        cursor.execute("SELECT 1")
        assert a.in_transaction and scheduler.in_transaction(a.session_id)
        a.rollback()
        assert setting.rows("rogue") == [{1: 0}] * len(setting.engines)
        a.close()
        b.close()
    finally:
        setting.env.close()


@pytest.mark.parametrize("kind", ("dedicated", "multiplexed"))
def test_a_closing_non_owner_never_rolls_back_another_sessions_transaction(kind):
    setting = _Setting(kind)
    controller = setting.env.controllers[0]
    finished = _teardown_finished(controller)
    try:
        a, b, c = setting.connect(), setting.connect(), setting.connect()
        cursor = c.cursor()
        cursor.execute("CREATE TABLE later (id INTEGER PRIMARY KEY, v INTEGER)")
        a.cursor().execute("BEGIN")
        a.cursor().execute("SELECT 1")  # carries the BEGIN: A's transaction opens
        with pytest.raises(ProgrammingError, match="COMMIT without an open transaction"):
            b.cursor().execute("COMMIT")  # B has nothing open
        cursor.execute("BEGIN")
        cursor.execute("INSERT INTO later (id, v) VALUES (1, 0)")
        session_a = a.session_id
        a.close()
        assert chaos.wait_until(lambda: finished(session_a))
        # A's teardown rolled back A's transaction and nothing else: C's
        # transaction is whole.
        assert not controller.scheduler.in_transaction(session_a)
        assert controller.scheduler.in_transaction(c.session_id)
        cursor.execute("COMMIT")
        assert not c.in_transaction
        assert setting.rows("later") == [{1: 0}] * len(setting.engines)
        b.close()
        c.close()
    finally:
        setting.env.close()


def test_pipelined_transaction_control_is_refused_as_the_classifier_reads_it():
    env = build_cluster(replicas=2, controllers=1)
    try:
        connection = ClusterDriverRuntime(name="flag-pipeline").connect(
            env.client_url(), network=env.network
        )
        for sql in ("BEGIN", "  commit", "rollback;", "START TRANSACTION", "SAVEPOINT s"):
            with pytest.raises(ProgrammingError, match="cannot pipeline transaction control"):
                connection.execute_pipeline(["SELECT 1", sql])
        connection.close()
    finally:
        env.close()
