"""A BEGIN costs no replica request: each replica connection opens the
transaction with its first statement (database wire v4's ``begin``).

Every test runs a real cluster (``build_cluster``: pydb replicas on the
in-memory network), drives ``RequestScheduler.execute`` as the
controller's session loop does, and watches the replicas from two
sides: the EXECUTE frames each database server receives, and the
statements each engine session runs."""

import pytest

from repro.cluster.backend import BackendState
from repro.cluster.scheduler import SchedulerError
from repro.dbapi.runtime import RuntimeDriver
from repro.dbserver.session import STATEMENTS, ServerSession
from repro.dbserver.wire import BEGIN_MIN_VERSION, PROTOCOL_VERSION, MessageType
from repro.experiments.environments import build_cluster
from repro.sqlengine.engine import Session
from repro.sqlengine.errors import TransactionError
from repro.sqlengine.transactions import TransactionManager

SESSION = "s1"
OPERATION = [
    "SELECT v FROM t WHERE id = 1",
    "UPDATE t SET v = v + 1 WHERE id = 1",
    "COMMIT",
]


class _Replicas:
    """What the replicas saw once :meth:`watch` started: ``frames`` —
    ``(replica, sql, begin)`` per EXECUTE a server received — and
    ``statements`` — ``(replica, engine session, sql)`` per statement
    an engine session ran."""

    def __init__(self, env, monkeypatch):
        self._names = {engine.name: f"db{n + 1}" for n, engine in enumerate(env.replica_engines)}
        self._monkeypatch = monkeypatch
        self.frames = []
        self.statements = []

    def watch(self):
        route = STATEMENTS[MessageType.EXECUTE]
        names, frames, statements = self._names, self.frames, self.statements

        def received(session, frame):
            frames.append((names[session._engine.name], frame["sql"], frame.get("begin", False)))
            return route.handler(session, frame)

        run = Session.execute

        def ran(session, sql, *args, **kwargs):
            statements.append((names[session._engine.name], id(session), sql))
            return run(session, sql, *args, **kwargs)

        self._monkeypatch.setitem(STATEMENTS, MessageType.EXECUTE, route._replace(handler=received))
        self._monkeypatch.setattr(Session, "execute", ran)
        return self

    def requests(self):
        return len(self.frames)


@pytest.fixture
def make_env(monkeypatch):
    envs = []

    def make(driver_version=None, server_version=None):
        """``driver_version`` is what the replicas' connections speak;
        ``server_version`` what the replicas' CONNECT_OK says."""
        env = build_cluster(replicas=2, controllers=1)
        envs.append(env)
        if server_version is not None:
            handshake = ServerSession.handshake

            def older(session, connect):
                reply = handshake(session, connect)
                if reply["type"] == MessageType.CONNECT_OK:
                    reply["protocol_version"] = server_version
                return reply

            monkeypatch.setattr(ServerSession, "handshake", older)
        driver = RuntimeDriver(protocol_version=driver_version or PROTOCOL_VERSION)
        for index, backend in enumerate(env.controllers[0].backends()):
            url = env.replica_url(index)
            backend.replace_connection_factory(lambda url=url: driver.connect(url, network=env.network))
        scheduler = env.controllers[0].scheduler
        scheduler.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        scheduler.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        return env, scheduler, _Replicas(env, monkeypatch).watch()

    yield make
    for env in envs:
        env.close()


def _tx(scheduler, sql):
    return scheduler.execute(sql, in_transaction=True, session_id=SESSION)


def _executed(env):
    """The statements the backends counted, and their pydb connections
    (each backend's own, and those its transactions returned idle)."""
    backends = env.controllers[0].backends()
    return (
        sum(backend.statements_executed for backend in backends),
        sum(
            connection.statements_executed
            for backend in backends
            for connection in [backend._connection, *backend._idle]
        ),
    )


def _open_sessions(env):
    return [
        session.sql_session.in_transaction
        for server in env.replica_servers
        for session in server.active_sessions()
    ]


def test_a_begin_sends_no_request_and_opens_the_record(make_env):
    env, scheduler, replicas = make_env()
    before = _executed(env)
    scheduler.execute("BEGIN", session_id=SESSION)
    assert replicas.requests() == 0 and _executed(env) == before
    # The BEGIN opens the session's record and checks out no connection.
    assert scheduler.open_transactions == 1 and scheduler.in_transaction(SESSION)
    assert not any(backend._leased for backend in env.controllers[0].backends())
    assert not any(_open_sessions(env))


@pytest.mark.parametrize("end", ["COMMIT", "ROLLBACK"])
def test_an_empty_transaction_sends_no_request(make_env, end):
    env, scheduler, replicas = make_env()
    before = _executed(env)
    scheduler.execute("BEGIN", session_id=SESSION)
    _tx(scheduler, end)
    assert replicas.requests() == 0 and _executed(env) == before
    assert scheduler.open_transactions == 0 and not scheduler.in_transaction(SESSION)


def test_the_four_statement_operation_is_five_requests_and_seven_statements(make_env):
    env, scheduler, replicas = make_env()
    before = _executed(env)
    scheduler.execute("BEGIN", session_id=SESSION)
    for sql in OPERATION:
        _tx(scheduler, sql)
    assert replicas.requests() == 5
    assert [after - at for after, at in zip(_executed(env), before)] == [7, 7]
    # Each replica's first request carries the BEGIN, and no other does.
    carried = [(name, sql) for name, sql, begin in replicas.frames if begin]
    assert sorted(name for name, _ in carried) == ["db1", "db2"]
    firsts = {}
    for name, sql, _ in replicas.frames:
        firsts.setdefault(name, sql)
    assert sorted(carried) == sorted(firsts.items())
    assert scheduler.open_transactions == 0
    assert scheduler.execute("SELECT v FROM t WHERE id = 1")[1] == [(11,)]


def test_each_engine_session_sees_begin_right_before_its_first_statement(make_env):
    env, scheduler, replicas = make_env()
    scheduler.execute("BEGIN", session_id=SESSION)
    for sql in OPERATION:
        _tx(scheduler, sql)
    by_session = {}
    for name, session, sql in replicas.statements:
        by_session.setdefault((name, session), []).append(sql)
    sequences = sorted(by_session.values())
    # One replica served the SELECT; both took the UPDATE and the COMMIT.
    assert sequences == [["BEGIN", OPERATION[0], OPERATION[1], "COMMIT"], ["BEGIN", OPERATION[1], "COMMIT"]]


@pytest.mark.parametrize("driver_version", [None, BEGIN_MIN_VERSION - 1])
@pytest.mark.parametrize("how", ["dropped", "replaced"])
def test_a_transactions_lost_connections_open_nothing_on_their_successors(make_env, how, driver_version):
    # driver_version None is v4 (BEGIN carried); v3 runs it eagerly.
    env, scheduler, replicas = make_env(driver_version=driver_version)
    scheduler.execute("BEGIN", session_id=SESSION)
    _tx(scheduler, "UPDATE t SET v = 15 WHERE id = 1")
    for backend in env.controllers[0].backends():
        if how == "dropped":
            backend.close_connection()
        else:
            backend.replace_connection_factory(backend._connection_factory)
    assert not any(_open_sessions(env))
    # The transaction's next statement finds its connections gone: it
    # fails, and the record DISCARDs.
    with pytest.raises(SchedulerError, match="rolled back"):
        _tx(scheduler, "UPDATE t SET v = 16 WHERE id = 1")
    assert scheduler.open_transactions == 0
    before = len(replicas.frames)
    scheduler.execute("UPDATE t SET v = 20 WHERE id = 1")
    assert not any(begin for _, _, begin in replicas.frames[before:])
    assert not any(_open_sessions(env))
    assert scheduler.execute("SELECT v FROM t WHERE id = 1")[1] == [(20,)]


def test_a_carried_begin_the_replica_refuses_leaves_the_statement_unrun(make_env, monkeypatch):
    env, scheduler, replicas = make_env()
    scheduler.execute("BEGIN", session_id=SESSION)
    before = _executed(env)

    def refuse(manager):
        raise TransactionError("read-only replica")

    with monkeypatch.context() as patch:
        patch.setattr(TransactionManager, "begin", refuse)
        with pytest.raises(SchedulerError, match="read-only replica"):
            _tx(scheduler, "UPDATE t SET v = 30 WHERE id = 1")
    assert [(begin, sql) for _, sql, begin in replicas.frames] == [(True, "UPDATE t SET v = 30 WHERE id = 1")] * 2
    # A statement fault on every replica blames the statement: both stay
    # in, neither ran the UPDATE, and with no transaction open anywhere
    # the record is discarded.
    assert {backend.state for backend in env.controllers[0].backends()} == {BackendState.ENABLED}
    assert _executed(env) == before and scheduler.open_transactions == 0
    for index in range(2):
        backend = env.controllers[0].backends()[index]
        assert backend.execute("SELECT v FROM t WHERE id = 1", track=False)[1] == [(10,)]


@pytest.mark.parametrize(
    "versions", [{"driver_version": BEGIN_MIN_VERSION - 1}, {"server_version": BEGIN_MIN_VERSION - 1}]
)
def test_a_v3_end_keeps_the_eager_begin(make_env, versions):
    env, scheduler, replicas = make_env(**versions)
    scheduler.execute("BEGIN", session_id=SESSION)
    assert replicas.requests() == 0
    for sql in OPERATION:
        _tx(scheduler, sql)
    assert replicas.requests() == 7
    assert not any(begin for _, _, begin in replicas.frames)
    # Each replica's first request is the eager BEGIN of its connection.
    firsts = {}
    for name, sql, _ in replicas.frames:
        firsts.setdefault(name, sql)
    assert firsts == {"db1": "BEGIN", "db2": "BEGIN"}
    assert scheduler.open_transactions == 0


def test_a_replica_dead_before_the_first_statement_is_found_there_not_at_begin(make_env):
    env, scheduler, replicas = make_env()
    for address in env.replica_addresses:
        env.network.kill_endpoint(address)
    scheduler.execute("BEGIN", session_id=SESSION)
    assert scheduler.open_transactions == 1
    with pytest.raises(SchedulerError):
        _tx(scheduler, "UPDATE t SET v = 40 WHERE id = 1")
    assert {backend.state for backend in env.controllers[0].backends()} == {BackendState.FAILED}
    assert scheduler.open_transactions == 0
