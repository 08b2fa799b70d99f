"""Real TCP transport over localhost.

Provides the same :class:`~repro.netsim.transport.Network` interface as the
in-memory network but backed by actual sockets, so integration tests can
demonstrate that every protocol in the repro (database wire protocol,
cluster protocol, Drivolution bootstrap protocol) works over a real
network stack, not only the simulated one.

Addresses are ``"host:port"``; ``"host:0"`` binds an ephemeral port and
the listener's :attr:`address` reports the actual port chosen.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, Optional

from repro.errors import TransportError
from repro.netsim.framing import decode_message, encode_message, frame, read_frame
from repro.netsim.transport import Address, Channel, Listener, Network


def _parse_address(address: Address) -> tuple:
    host, _, port = address.rpartition(":")
    if not host or not port:
        raise TransportError(f"invalid TCP address (expected host:port): {address!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise TransportError(f"invalid TCP port in address {address!r}") from exc


class TcpChannel(Channel):
    """Message channel over a connected TCP socket."""

    def __init__(self, sock: socket.socket, remote: Address) -> None:
        self._sock = sock
        self._remote = remote
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def remote_address(self) -> Address:
        return self._remote

    def _read_exactly(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining > 0:
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout:
                raise TransportError("timed out waiting for message") from None
            except OSError as exc:
                raise TransportError(f"socket error: {exc}") from exc
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def send(self, message: Dict[str, Any]) -> None:
        if self._closed:
            raise TransportError("channel is closed")
        data = frame(encode_message(message))
        with self._send_lock:
            try:
                self._sock.sendall(data)
            except OSError as exc:
                self._closed = True
                raise TransportError(f"send failed: {exc}") from exc

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        if self._closed:
            raise TransportError("channel is closed")
        with self._recv_lock:
            self._sock.settimeout(timeout)
            try:
                body = read_frame(self._read_exactly)
            except TransportError:
                self._closed = True
                raise
        return decode_message(body)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpListener(Listener):
    """Listener bound to a TCP socket."""

    def __init__(self, address: Address) -> None:
        host, port = _parse_address(address)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            raise TransportError(f"cannot bind {address}: {exc}") from exc
        self._sock.listen(64)
        actual_host, actual_port = self._sock.getsockname()[:2]
        self._address = f"{actual_host}:{actual_port}"
        self._closed = False

    @property
    def address(self) -> Address:
        return self._address

    @property
    def closed(self) -> bool:
        return self._closed

    def accept(self, timeout: Optional[float] = None) -> Channel:
        if self._closed:
            raise TransportError(f"listener {self._address} is closed")
        self._sock.settimeout(timeout)
        try:
            conn, peer = self._sock.accept()
        except socket.timeout:
            raise TransportError(f"accept timed out on {self._address}") from None
        except OSError as exc:
            raise TransportError(f"accept failed on {self._address}: {exc}") from exc
        return TcpChannel(conn, "%s:%d" % peer[:2])

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._sock.close()


class TcpNetwork(Network):
    """TCP-backed network. Addresses are ``host:port`` strings."""

    def listen(self, address: Address) -> Listener:
        return TcpListener(address)

    def connect(
        self,
        address: Address,
        timeout: Optional[float] = None,
        source: Optional[Address] = None,
    ) -> Channel:
        host, port = _parse_address(address)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout if timeout is not None else 5.0)
        try:
            sock.connect((host, port))
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot connect to {address}: {exc}") from exc
        sock.settimeout(None)
        return TcpChannel(sock, address)
