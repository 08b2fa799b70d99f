"""Unit tests for the in-memory network."""

import threading
import time

import pytest

from repro.errors import TransportError
from repro.netsim import InMemoryNetwork
from repro.netsim.ingress import Route, refuse_with, serve
from repro.netsim.transport import ChannelServer


@pytest.fixture
def net():
    return InMemoryNetwork()


class TestConnectAndSend:
    def test_basic_roundtrip(self, net):
        listener = net.listen("svc:1")
        client = net.connect("svc:1")
        server = listener.accept(timeout=1.0)
        client.send({"ping": 1})
        assert server.recv(timeout=1.0) == {"ping": 1}
        server.send({"pong": 2})
        assert client.recv(timeout=1.0) == {"pong": 2}

    def test_connect_refused_without_listener(self, net):
        with pytest.raises(TransportError):
            net.connect("nobody:9")

    def test_duplicate_bind_rejected(self, net):
        net.listen("svc:1")
        with pytest.raises(TransportError):
            net.listen("svc:1")

    def test_close_wakes_peer(self, net):
        listener = net.listen("svc:1")
        client = net.connect("svc:1")
        server = listener.accept(timeout=1.0)
        client.close()
        with pytest.raises(TransportError):
            server.recv(timeout=1.0)

    def test_close_wakes_the_local_receiver_and_no_later_frame_is_served(self, net):
        # ChannelServer.stop closes each accepted channel. As with a TCP
        # shutdown, that must wake the handler idle in recv, so a frame the
        # client sends before it reads the end-of-stream reaches no route.
        applied = []
        routes = {
            "ping": Route(lambda context, frame: {"type": "pong"}),
            "UPDATE": Route(lambda context, frame: applied.append(frame)),
        }
        refuse = refuse_with(lambda code, detail: {"type": "error", "code": code})
        server = ChannelServer(net.listen("svc:1"), lambda ch: serve(ch, routes, refuse), name="svc")
        server.start()
        client = net.connect("svc:1")
        assert client.request({"type": "ping"}, timeout=2.0) == {"type": "pong"}
        server.stop()  # the handler now waits, greeted, with no timeout
        deadline = time.monotonic() + 2.0
        while server.handler_thread_count() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.handler_thread_count() == 0
        client.send({"type": "UPDATE"})
        with pytest.raises(TransportError):
            client.recv(timeout=1.0)
        assert applied == []

    def test_recv_timeout(self, net):
        listener = net.listen("svc:1")
        client = net.connect("svc:1")
        listener.accept(timeout=1.0)
        with pytest.raises(TransportError):
            client.recv(timeout=0.05)

    def test_registered_addresses(self, net):
        net.listen("b:1")
        a = net.listen("a:1")
        assert net.registered_addresses() == ["a:1", "b:1"]
        a.close()
        assert net.registered_addresses() == ["b:1"]

    def test_listener_close_frees_address(self, net):
        listener = net.listen("svc:1")
        listener.close()
        net.listen("svc:1")  # no error


class TestFaultInjection:
    def test_kill_endpoint_blocks_connect(self, net):
        net.listen("svc:1")
        net.kill_endpoint("svc:1")
        with pytest.raises(TransportError):
            net.connect("svc:1")
        net.revive_endpoint("svc:1")
        assert net.connect("svc:1") is not None

    def test_kill_endpoint_blocks_send(self, net):
        listener = net.listen("svc:1")
        client = net.connect("svc:1")
        listener.accept(timeout=1.0)
        net.kill_endpoint("svc:1")
        with pytest.raises(TransportError):
            client.send({"x": 1})

    def test_partition_between_endpoints(self, net):
        listener = net.listen("svc:1")
        client = net.connect("svc:1")
        server = listener.accept(timeout=1.0)
        net.partition(client.local_address, "svc:1")
        with pytest.raises(TransportError):
            client.send({"x": 1})
        net.heal_partition(client.local_address, "svc:1")
        client.send({"x": 1})
        assert server.recv(timeout=1.0) == {"x": 1}

    def test_partition_between_two_listeners_severs_a_source_named_link(self, net):
        # A server connecting out to a peer names its own listener
        # address as the source, so a partition between the two listener
        # addresses severs the link (an anonymous client-N source would
        # match no address pair).
        net.listen("a:1")
        b_listener = net.listen("b:1")
        link = net.connect("b:1", source="a:1")
        accepted = b_listener.accept(timeout=1.0)
        assert (link.local_address, accepted.remote_address) == ("a:1", "a:1")
        bystander = net.connect("b:1")
        net.partition("a:1", "b:1")
        with pytest.raises(TransportError):
            link.send({"x": 1})
        with pytest.raises(TransportError):
            accepted.send({"x": 1})
        with pytest.raises(TransportError):
            net.connect("b:1", source="a:1")
        bystander.send({"x": 1})  # other channels to b:1 are untouched
        net.heal_partition("a:1", "b:1")
        link.send({"x": 2})
        assert accepted.recv(timeout=1.0) == {"x": 2}

    def test_kill_endpoint_stops_links_sourced_from_it(self, net):
        # A "crashed" node must not keep shipping frames over the
        # channels it opened before it died.
        net.listen("a:1")
        b_listener = net.listen("b:1")
        link = net.connect("b:1", source="a:1")
        b_listener.accept(timeout=1.0)
        net.kill_endpoint("a:1")
        with pytest.raises(TransportError):
            link.send({"x": 1})
        with pytest.raises(TransportError):
            net.connect("b:1", source="a:1")
        net.revive_endpoint("a:1")
        link.send({"x": 2})

    def test_drop_every_nth_message(self, net):
        listener = net.listen("svc:1")
        client = net.connect("svc:1")
        server = listener.accept(timeout=1.0)
        net.drop_every_nth_message(2)
        client.send({"n": 1})  # dropped (2nd overall counting... deterministic counter)
        client.send({"n": 2})
        received = server.recv(timeout=1.0)
        assert received["n"] in (1, 2)
        net.drop_every_nth_message(0)

    def test_negative_latency_rejected(self, net):
        with pytest.raises(ValueError):
            net.set_latency(-1)


class TestChannelServer:
    def test_handler_dispatch(self, net):
        echoed = []

        def handler(channel):
            message = channel.recv(timeout=1.0)
            echoed.append(message)
            channel.send({"echo": message})

        server = ChannelServer(net.listen("svc:1"), handler, name="echo").start()
        try:
            client = net.connect("svc:1")
            client.send({"hello": "world"})
            assert client.recv(timeout=2.0) == {"echo": {"hello": "world"}}
            assert echoed == [{"hello": "world"}]
        finally:
            server.stop()

    def test_stop_prevents_new_connections(self, net):
        server = ChannelServer(net.listen("svc:1"), lambda ch: None, name="noop").start()
        server.stop()
        with pytest.raises(TransportError):
            net.connect("svc:1")

    def test_concurrent_connections(self, net):
        def handler(channel):
            message = channel.recv(timeout=2.0)
            channel.send({"double": message["n"] * 2})

        server = ChannelServer(net.listen("svc:1"), handler, name="calc").start()
        results = {}

        def worker(n):
            client = net.connect("svc:1")
            client.send({"n": n})
            results[n] = client.recv(timeout=2.0)["double"]

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        server.stop()
        assert results == {n: n * 2 for n in range(8)}
