"""Who may send what: every listener's one table, checked from outside.

Directed cases pin the refusals the tables exist for — an anonymous
client's group operations, ill-typed Drivolution requests, a ``bool``
protocol version — and the docs table is compared with the code's. A
flow test captures every frame sent: a secret reaches only the database
that checks it, and no request carries a field its row does not declare.
The property test sends arbitrary well-framed frames at every listener from
an anonymous source: frame types drawn from the listener's own table,
the other tables and junk, fields arbitrary JSON. Every frame must get
an ERROR, a legal reply or a closed channel; no thread may die; nothing
an unauthorised sender does may change backend states, driver lists,
HA epochs and roles or log heads; and a sibling session on the same
trunk keeps executing.
"""

import os
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.wire import (
    CLUSTER_PROTOCOL_VERSION,
    ClusterMessageType,
    make_connect as make_seq_connect,
    make_execute as make_seq_execute,
    make_group,
    make_ha_status,
    make_replicate,
    make_session_open,
)
from repro.core import Bootloader, BootloaderConfig, DrivolutionRequest, messages
from repro.dbapi.driver_factory import build_pydb_driver
from repro.dbserver import DatabaseServer, ServerConfig
from repro.dbserver.session import STATEMENTS
from repro.dbserver.wire import PROTOCOL_VERSION, MessageType, make_connect, make_execute
from repro.errors import TransportError
from repro.experiments.environments import build_cluster, build_single_database
from repro.netsim import InMemoryNetwork
from repro.netsim.transport import ChannelServer
from repro.sqlengine import Engine

# -- directed: the refusals the tables exist for ----------------------------------


@pytest.fixture
def group_env():
    env = build_cluster(replicas=1, controllers=2, embedded_drivolution=True)
    yield env
    env.close()


def _driver_names(controller):
    return [package.name for _id, package in controller.drivolution.registry.list_drivers()]


class TestGroupOperationsComeFromGroupPeers:
    def test_anonymous_install_driver_is_refused(self, group_env):
        c1, c2 = group_env.controllers
        before = _driver_names(c1)
        payload = {"package": build_pydb_driver("evil").to_wire(), "lease_time_ms": 1_000}
        with group_env.network.connect(c1.address) as channel:
            reply = channel.request(make_group("install_driver", payload), 5.0)
        assert reply["type"] == ClusterMessageType.ERROR and reply["code"] == "not_a_peer"
        assert _driver_names(c1) == before and "evil" not in before

    def test_anonymous_disable_backend_is_refused(self, group_env):
        c1, c2 = group_env.controllers
        with group_env.network.connect(c1.address) as channel:
            reply = channel.request(make_group("disable_backend", {"backend": "db1"}), 5.0)
            assert reply["code"] == "not_a_peer"
            # Same frame, same channel: still refused, still served.
            assert channel.request(make_group("disable_backend", {"backend": "db1"}), 5.0)[
                "code"
            ] == "not_a_peer"
        assert c1.backend("db1").enabled
        # From the group peer's own address the operation is applied.
        with group_env.network.connect(c1.address, source=c2.address) as channel:
            reply = channel.request(make_group("disable_backend", {"backend": "db1"}), 5.0)
        assert reply["type"] == "seq_group_ack" and not c1.backend("db1").enabled


def _request(env, **overrides):
    wire = DrivolutionRequest(
        database=env.database_name, api_name="PYDB-API", client_platform="cpython-any"
    ).to_wire()
    wire.update(overrides)
    return wire


@pytest.fixture(params=["in_database", "standalone"])
def drivolution_address(request):
    env = build_single_database()
    env.admin.install_driver(build_pydb_driver("pydb-1.0.0"), database=env.database_name)
    address = env.db_address
    if request.param == "standalone":
        from repro.core import DrivolutionAdmin, DrivolutionServer, StandaloneServerBinding

        server = DrivolutionServer(
            StandaloneServerBinding(clock=env.clock), network=env.network, address="drivo:8000"
        ).start()
        env._cleanup.append(server.stop)
        DrivolutionAdmin([server]).install_driver(
            build_pydb_driver("pydb-1.0.0"), database=env.database_name
        )
        address = "drivo:8000"
    yield env, address
    env.close()


class TestIllTypedDrivolutionRequests:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"api_version": 5},
            {"preferred_driver_version": "abc"},
            {"type": messages.DISCOVER, "api_version": 5},
        ],
        ids=["api_version", "driver_version", "discover"],
    )
    def test_refused_and_the_handler_keeps_serving(self, drivolution_address, overrides):
        env, address = drivolution_address
        with env.network.connect(address) as channel:
            reply = channel.request(_request(env, **overrides), timeout=5.0)
            assert reply["type"] == messages.ERROR and reply["code"] == "bad_message", reply
            # Same channel: the handler thread is still there to answer.
            assert channel.request(_request(env), timeout=5.0)["type"] == messages.OFFER


class TestBoolIsNoInt:
    def test_controller_refuses_a_bool_protocol_version(self, group_env):
        connect = make_seq_connect("vdb", CLUSTER_PROTOCOL_VERSION)
        connect["protocol_version"] = True
        with group_env.network.connect(group_env.controllers[0].address) as channel:
            reply = channel.request(connect, timeout=5.0)
        assert reply["type"] == ClusterMessageType.ERROR and reply["code"] == "bad_handshake"

    def test_database_refuses_a_bool_protocol_version(self):
        network = InMemoryNetwork()
        engine = Engine(name="boolsrv")
        engine.create_database("appdb")
        server = DatabaseServer(
            engine, network, "boolsrv:5432", ServerConfig(name="boolsrv", min_protocol_version=1)
        ).start()
        try:
            with network.connect("boolsrv:5432") as channel:
                reply = channel.request(make_connect("appdb", True), timeout=5.0)
            assert reply["type"] == MessageType.ERROR and reply["code"] == "bad_handshake"
        finally:
            server.stop()


class TestRefusedConnectEndsTheChannel:
    """A CONNECT turned down after it parsed (bad password, unknown
    database) closes the channel: no second guess on one connection, no
    unauthenticated client parked on an unbounded wait."""

    def test_database_closes_after_auth_failed(self):
        network = InMemoryNetwork()
        engine = Engine(name="authsrv")
        engine.create_database("appdb")
        engine.create_user("alice", "secret")
        server = DatabaseServer(engine, network, "authsrv:5432").start()
        try:
            with network.connect("authsrv:5432") as channel:
                reply = channel.request(make_connect("appdb", PROTOCOL_VERSION, "alice", "guess"), 5.0)
                assert reply["type"] == MessageType.ERROR and reply["code"] == "auth_failed"
                with pytest.raises(TransportError, match="closed"):
                    channel.recv(timeout=5.0)
        finally:
            server.stop()

    def test_controller_closes_after_unknown_database(self, group_env):
        connect = make_seq_connect("no-such-vdb", CLUSTER_PROTOCOL_VERSION)
        with group_env.network.connect(group_env.controllers[0].address) as channel:
            reply = channel.request(connect, 5.0)
            assert reply["type"] == ClusterMessageType.ERROR and reply["code"] == "unknown_database"
            with pytest.raises(TransportError, match="closed"):
                channel.recv(timeout=5.0)


# -- the flow: a frame carries only what its receiver reads -------------------------

_PASSWORD = "pw-flow-7f3c"
_REALM_SECRET = "realm-flow-9b1e"


def test_credentials_reach_only_the_database_that_checks_them(monkeypatch):
    """Every frame any channel sends, as it goes on the wire: the password
    reaches only a database's CONNECT, the realm secret nothing, and each
    request carries only the fields its row declares."""
    from repro.cluster import ClusterDriverRuntime
    from repro.core import DrivolutionServer, StandaloneServerBinding
    from repro.dbapi.runtime import RuntimeDriver
    from repro.dbserver.auth import TokenAuthenticator
    from repro.netsim.framing import decode_message, encode_message
    from repro.netsim.inmem import InMemoryChannel
    from test_core_bootloader import _Bystander

    sent = []
    send = InMemoryChannel.send

    def capture(channel, message):
        sent.append((channel.remote_address, decode_message(encode_message(message))))
        send(channel, message)

    monkeypatch.setattr(InMemoryChannel, "send", capture)
    cluster = build_cluster(replicas=2, controllers=3, ha=True)
    single = build_single_database()
    kerberos = DatabaseServer(
        Engine(name="kerb"), single.network, "kerb:5432",
        ServerConfig(name="kerb", authenticators={"token": TokenAuthenticator(_REALM_SECRET)}),
    )
    kerberos.engine.create_database("appdb")
    kerberos.start()
    bystander = _Bystander(single.network, "printer:515")
    try:
        for multiplexing in (False, True):  # a dedicated channel, then a trunk
            connection = ClusterDriverRuntime().connect(
                cluster.client_url(), user="alice", password=_PASSWORD,
                network=cluster.network, multiplexing=multiplexing,
            )
            assert connection.multiplexed is multiplexing
            cursor = connection.cursor()
            cursor.execute(f"CREATE TABLE flow_{int(multiplexing)} (id INTEGER PRIMARY KEY)")
            cursor.execute(f"INSERT INTO flow_{int(multiplexing)} (id) VALUES (1)")
            connection.close()
        primary = next(c for c in cluster.controllers if c.ha_store.is_primary)
        follower = next(c for c in cluster.controllers if c is not primary)
        primary.disable_backend_cluster_wide("db1")
        assert follower.ha_store.ensure_primary(follower.promote) is False

        RuntimeDriver(extensions=["kerberos"]).connect(
            "pydb://kerb:5432/appdb", network=single.network, user="bob", realm_secret=_REALM_SECRET
        ).close()

        single.engine.create_user("alice", _PASSWORD)
        single.admin.install_driver(build_pydb_driver("pydb-1.0.0"), database=single.database_name)
        bootloader = single.new_bootloader(BootloaderConfig(use_discovery=True))
        bootloader.connect(single.url, user="alice", password=_PASSWORD).close()
        assert bootloader.stats.discover_rounds == 1
    finally:
        bystander.stop()
        kerberos.stop()
        cluster.close()
        single.close()
    assert bystander.first_frames, "the discovery reached the bystander"

    databases = {server.address for server in cluster.replica_servers} | {single.db_address, "kerb:5432"}
    carried = [(to, frame) for to, frame in sent if _PASSWORD in repr(frame)]
    assert carried, "the database that checks the password received it"
    for to, frame in carried:
        assert frame["type"] == MessageType.CONNECT and to in databases, (to, frame)
    assert not [frame for _, frame in sent if _REALM_SECRET in repr(frame)]
    routes = {
        **cluster.controllers[0].routes,
        **cluster.controllers[0]._trunk_routes,
        **single.db_server.routes,
        **STATEMENTS,
        **DrivolutionServer(StandaloneServerBinding()).routes,
        **Bootloader._push_routes,
    }
    requests = [frame for _, frame in sent if frame.get("type") in routes]
    assert {frame["type"] for frame in requests} >= {
        ClusterMessageType.CONNECT, ClusterMessageType.GROUP, ClusterMessageType.REPLICATE,
        ClusterMessageType.HA_STATUS, MessageType.CONNECT, messages.REQUEST, messages.DISCOVER,
    }
    for frame in requests:
        route = routes[frame["type"]]
        declared = {"type", "session_id", "request_id", *route.required, *route.optional}
        assert set(frame) <= declared, (frame["type"], set(frame) - declared)
        assert route.problem(frame) is None, frame


# -- the docs table is the code's table ---------------------------------------------


def _markdown(routes):
    """The table docs/wire.md must carry for ``routes``."""

    def fields(kinds, optional):
        return ", ".join(f"`{name}`{'?' if optional else ''}: {kind.__name__}" for name, kind in kinds.items())

    lines = ["| type | fields | sender | refused with |", "|---|---|---|---|"]
    for kind, route in routes.items():
        listed = ", ".join(part for part in (fields(route.required, False), fields(route.optional, True)) if part)
        refusals = [f"`{route.code}`"] + ([f"`{route.sender.refusal}`"] if route.sender else [])
        sender = route.sender.name if route.sender else "anyone"
        lines.append(f"| `{kind}` | {listed or '—'} | {sender} | {' / '.join(refusals)} |")
    return "\n".join(lines)


def test_docs_list_every_table_as_the_code_declares_it():
    from repro.core import DrivolutionServer, StandaloneServerBinding
    from repro.netsim.secure import CertificateAuthority

    env = build_cluster(replicas=1, controllers=1)
    try:
        controller = env.controllers[0]
        plain = DrivolutionServer(StandaloneServerBinding())
        secure = DrivolutionServer(
            StandaloneServerBinding(), certificate=CertificateAuthority().issue("drivo")
        )
        tables = {
            "controller": controller.routes,
            "controller session": controller._trunk_routes,
            "database": env.replica_servers[0].routes,
            "database session": STATEMENTS,
            "Drivolution": plain.routes,
            "Drivolution with a certificate": secure.routes,
            "bootloader push channel": Bootloader._push_routes,
        }
    finally:
        env.close()
    with open(os.path.join(os.path.dirname(__file__), "..", "docs", "wire.md"), encoding="utf-8") as handle:
        document = handle.read()
    for listener, routes in tables.items():
        assert _markdown(routes) in document, f"docs/wire.md lacks the {listener} table:\n{_markdown(routes)}"


# -- the property: anything, from anyone ----------------------------------------------

_ERRORS = {ClusterMessageType.ERROR, MessageType.ERROR, messages.ERROR}
_LEGAL = {
    ClusterMessageType.CONNECT_OK,
    ClusterMessageType.RESULT,
    ClusterMessageType.PONG,
    ClusterMessageType.SESSION_OPEN_OK,
    MessageType.CONNECT_OK,
    MessageType.RESULT,
    MessageType.PONG,
    messages.OFFER,
    messages.FILE_DATA,
    "drivolution_release_ack",
    "drivolution_subscribe_ack",
}


class _FakeDrivolutionServer:
    """Accepts one SUBSCRIBE and keeps the push channel, so the test can
    push whatever it likes at a real bootloader."""

    def __init__(self, network, address):
        self.channels = []
        self._done = threading.Event()
        self._server = ChannelServer(network.listen(address), self._serve, name="fake-drivo").start()

    def _serve(self, channel):
        channel.recv(timeout=5.0)
        channel.send({"type": "drivolution_subscribe_ack", "server_id": "fake"})
        self.channels.append(channel)
        self._done.wait(timeout=120.0)

    def stop(self):
        self._done.set()
        self._server.stop()


class _World:
    """Every listener, plus what an unauthorised sender must not change."""

    def __init__(self):
        self.cluster = build_cluster(
            replicas=1, controllers=3, ha=True, embedded_drivolution=True, standalone_drivolution=True
        )
        self.single = build_single_database()
        self.single.admin.install_driver(build_pydb_driver("pydb-1.0.0"), database=self.single.database_name)
        self.controller = self.cluster.controllers[0]
        self.fake = _FakeDrivolutionServer(self.cluster.network, "fake-drivo:9000")
        self.bootloader = Bootloader(BootloaderConfig(), network=self.cluster.network)
        self.bootloader.subscribe_for_updates("fake-drivo:9000")
        self.push = self.fake.channels[0]
        self.tables = [
            self.controller.routes,
            self.controller._trunk_routes,
            self.single.db_server.routes,
            STATEMENTS,
            self.cluster.standalone_drivolution.routes,
            Bootloader._push_routes,
        ]

    def state(self):
        cluster = [
            (
                c.ha_store.epoch,
                c.ha_store.role,
                c.ha_store.last_index,
                tuple(b.enabled for b in c.backends()),
                tuple(i for i, _ in c.drivolution.registry.list_drivers()),
            )
            for c in self.cluster.controllers
        ]
        servers = [self.cluster.standalone_drivolution, self.single.drivolution]
        return cluster, [tuple(i for i, _ in s.registry.list_drivers()) for s in servers]

    def close(self):
        self.bootloader.shutdown()
        self.fake.stop()
        self.cluster.close()
        self.single.close()


@pytest.fixture(scope="module")
def world():
    died = []
    previous = threading.excepthook
    threading.excepthook = died.append
    built = _World()
    built.died = died
    yield built
    built.close()
    threading.excepthook = previous


def _types(world):
    known = sorted({kind for table in world.tables for kind in table})
    return st.one_of(st.sampled_from(known), st.text(max_size=12), st.integers(), st.none(), st.lists(st.integers(), max_size=2))


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.binary(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

_CANNED = [
    make_seq_connect("vdb", CLUSTER_PROTOCOL_VERSION, multiplex=True),
    make_seq_connect("vdb", 2),
    make_session_open("fuzz", 1),
    make_seq_execute("SELECT 1", session_id="fuzz", request_id=2),
    make_connect("appdb", PROTOCOL_VERSION),
    make_execute("SELECT 1"),
    DrivolutionRequest(database="appdb", api_name="PYDB-API", client_platform="cpython-any").to_wire(),
    messages.make_file_request("driver:1", ""),
    messages.make_update_available("PYDB-API"),
    # What only a peer may send, sent by a client:
    make_group("disable_backend", {"backend": "db1"}),
    make_group("install_driver", {"package": build_pydb_driver("evil").to_wire()}),
    make_replicate(100, [], 0),
    make_ha_status(),
]


@st.composite
def _frames(draw, world):
    names = sorted({name for table in world.tables for route in table.values() for name in (*route.required, *route.optional)})
    frame = dict(draw(st.sampled_from(_CANNED))) if draw(st.booleans()) else {}
    frame["type"] = draw(_types(world)) if not frame or draw(st.booleans()) else frame["type"]
    keys = draw(st.lists(st.one_of(st.sampled_from(names), st.text(max_size=6)), max_size=4))
    for key in keys:
        frame[key] = draw(_JSON)
    return frame


def _answered(channel, frame):
    """The reply to ``frame``: a frame, "closed", or None when silent."""
    silent = frame.get("type") == ClusterMessageType.SESSION_CLOSE  # taken unanswered
    try:
        channel.send(frame)
        return channel.recv(timeout=0.3 if silent else 5.0)
    except TransportError as exc:
        if silent and "timed out" in str(exc):
            return None
        assert "timed out" not in str(exc), f"{frame!r} went unanswered"
        return "closed"


def _check_reply(frame, reply):
    if reply is None or reply == "closed":
        return
    assert reply.get("type") in _ERRORS | _LEGAL, (frame, reply)


def _trunk_with_sibling(world):
    channel = world.cluster.network.connect(world.controller.address)
    channel.request(make_seq_connect("vdb", CLUSTER_PROTOCOL_VERSION, multiplex=True), 5.0)
    assert channel.request(make_session_open("sibling", 1), 5.0)["type"] == ClusterMessageType.SESSION_OPEN_OK
    return channel


def _sibling_executes(channel):
    channel.send(make_seq_execute("SELECT 1", session_id="sibling", request_id=2**62))
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        reply = channel.recv(timeout=5.0)
        if reply.get("session_id") == "sibling" and reply.get("request_id") == 2**62:
            return reply
    raise AssertionError("the sibling session was never answered")


_TARGETS = ["controller", "trunk", "database", "database_session", "drivolution", "push"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_anything_from_anyone_is_answered_and_changes_nothing(world, data):
    target = data.draw(st.sampled_from(_TARGETS))
    frames = data.draw(st.lists(_frames(world), min_size=1, max_size=5))
    before = world.state()
    network = world.single.network if target.startswith("database") else world.cluster.network
    if target == "push":
        checks = world.bootloader.stats.update_checks
        for frame in frames:
            world.push.send(frame)
        world.push.send(messages.make_update_available("PYDB-API"))
        deadline = time.monotonic() + 5.0
        while world.bootloader.stats.update_checks == checks and time.monotonic() < deadline:
            time.sleep(0.005)
        assert world.bootloader.stats.update_checks > checks, "the push channel stopped serving"
        with pytest.raises(TransportError):
            world.push.recv(timeout=0.01)  # it answers nothing
    else:
        if target == "trunk":
            channel = _trunk_with_sibling(world)
            frames = [f for f in frames if f.get("type") != ClusterMessageType.CLOSE]
        elif target == "database_session":
            channel = network.connect(world.single.db_address)
            channel.request(make_connect("appdb", PROTOCOL_VERSION), 5.0)
        else:
            address = {
                "controller": world.controller.address,
                "database": world.single.db_address,
                "drivolution": "drivolution:8000",
            }[target]
            channel = network.connect(address)
        try:
            for frame in frames:
                reply = _answered(channel, frame)
                _check_reply(frame, reply)
                if reply == "closed":
                    break
            if target == "trunk":
                assert _sibling_executes(channel)["type"] == ClusterMessageType.RESULT
        finally:
            channel.close()
    assert world.state() == before
    assert world.died == [], world.died
