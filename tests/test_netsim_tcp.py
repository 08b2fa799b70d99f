"""Integration tests for the TCP transport (real sockets on localhost)."""

import socket
import threading
import time

import pytest

from repro.errors import TransportError
from repro.netsim import TcpNetwork
from repro.netsim.framing import frame
from repro.netsim.ingress import Route, refuse_with, serve
from repro.netsim.transport import ChannelServer


@pytest.fixture
def net():
    return TcpNetwork()


class TestTcpTransport:
    def test_roundtrip_with_bytes(self, net):
        listener = net.listen("127.0.0.1:0")
        received = {}

        def server_side():
            channel = listener.accept(timeout=5.0)
            received.update(channel.recv(timeout=5.0))
            channel.send({"ack": True})
            channel.close()

        thread = threading.Thread(target=server_side)
        thread.start()
        client = net.connect(listener.address, timeout=5.0)
        client.send({"blob": b"\x00\x01binary", "n": 42})
        assert client.recv(timeout=5.0) == {"ack": True}
        thread.join(timeout=5.0)
        listener.close()
        assert received == {"blob": b"\x00\x01binary", "n": 42}

    def test_ephemeral_port_reported(self, net):
        listener = net.listen("127.0.0.1:0")
        host, _, port = listener.address.rpartition(":")
        assert host == "127.0.0.1"
        assert int(port) > 0
        listener.close()

    def test_connect_refused(self, net):
        listener = net.listen("127.0.0.1:0")
        address = listener.address
        listener.close()
        with pytest.raises(TransportError):
            net.connect(address, timeout=0.5)

    def test_invalid_address(self, net):
        with pytest.raises(TransportError):
            net.connect("not-an-address", timeout=0.5)
        with pytest.raises(TransportError):
            net.listen("127.0.0.1:notaport")

    def test_channel_server_over_tcp(self, net):
        def handler(channel):
            message = channel.recv(timeout=5.0)
            channel.send({"echo": message.get("value"), "from": channel.remote_address})

        listener = net.listen("127.0.0.1:0")
        server = ChannelServer(listener, handler, name="tcp-echo").start()
        try:
            client = net.connect(listener.address, timeout=5.0)
            client.send({"value": "over tcp"})
            reply = client.recv(timeout=5.0)
            assert reply["echo"] == "over tcp"
            # Each side names the other as the transport sees it: the
            # server, the client's ephemeral host:port (nobody's listener).
            assert client.remote_address == listener.address
            host, _, port = reply["from"].rpartition(":")
            assert host == "127.0.0.1" and int(port) > 0 and reply["from"] != listener.address
        finally:
            server.stop()

    def test_frame_nested_too_deep_closes_the_channel_and_kills_no_thread(self, net, monkeypatch):
        # A raw peer chooses how deep its frame nests. Too deep to decode is
        # a codec error like any other: ingress.serve closes the channel and
        # the handler ends, rather than dying of an uncaught RecursionError.
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        routes = {"ping": Route(lambda context, frame: {"type": "pong"})}
        refuse = refuse_with(lambda code, detail: {"type": "error", "code": code})
        listener = net.listen("127.0.0.1:0")
        server = ChannelServer(listener, lambda ch: serve(ch, routes, refuse), name="tcp-deep")
        server.start()
        try:
            host, _, port = listener.address.rpartition(":")
            with socket.create_connection((host, int(port)), timeout=5.0) as peer:
                depth = 5000
                peer.sendall(frame(b'RPRO{"type":' + b"[" * depth + b"]" * depth + b"}"))
                assert peer.recv(1) == b""  # closed, not answered
            deadline = time.monotonic() + 5.0
            while server.handler_thread_count() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.handler_thread_count() == 0
        finally:
            server.stop()
        assert uncaught == []

    def test_peer_close_detected(self, net):
        listener = net.listen("127.0.0.1:0")

        def server_side():
            channel = listener.accept(timeout=5.0)
            channel.close()

        thread = threading.Thread(target=server_side)
        thread.start()
        client = net.connect(listener.address, timeout=5.0)
        thread.join(timeout=5.0)
        with pytest.raises(TransportError):
            client.recv(timeout=1.0)
        listener.close()
