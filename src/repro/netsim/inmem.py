"""Deterministic in-memory network.

This is the default substrate for tests and experiments. It provides:

- named endpoints (``"db1:5432"``-style addresses),
- blocking, message-oriented channels backed by queues,
- enumeration of listening addresses (used by ``DRIVOLUTION_DISCOVER``
  broadcast),
- fault injection: kill an endpoint, partition two endpoints, add fixed
  latency, or drop a fraction of messages (deterministically, via a
  counter rather than a random source, so tests stay reproducible).
  Faults match a channel by its two addresses: the listener's, and the
  ``source`` the connecting side named (an anonymous ``client-N``
  otherwise).

Messages are round-tripped through the framing codec on every send so the
in-memory network exercises exactly the same serialization constraints as
the TCP network.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import TransportError
from repro.netsim.framing import decode_message, encode_message
from repro.netsim.transport import Address, Channel, Listener, Network


class _Faults:
    """Shared fault-injection state for one :class:`InMemoryNetwork`."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.dead_endpoints: Set[Address] = set()
        self.partitions: Set[Tuple[Address, Address]] = set()
        self.latency_seconds: float = 0.0
        self.drop_every_nth: int = 0
        self._send_counter = 0

    def is_dead(self, address: Address) -> bool:
        with self.lock:
            return address in self.dead_endpoints

    def check_path(self, local: Address, remote: Address) -> None:
        """Refuse a frame across a dead endpoint or a partition (one lock acquisition)."""
        with self.lock:
            dead = remote in self.dead_endpoints or local in self.dead_endpoints
            cut = (local, remote) in self.partitions or (remote, local) in self.partitions
        if dead:
            raise TransportError(f"endpoint unreachable: {remote}")
        if cut:
            raise TransportError(f"network partition between {local} and {remote}")

    def should_drop(self) -> bool:
        with self.lock:
            if self.drop_every_nth <= 0:
                return False
            self._send_counter += 1
            return self._send_counter % self.drop_every_nth == 0


class InMemoryChannel(Channel):
    """One side of an in-memory connection."""

    def __init__(
        self,
        local: Address,
        remote: Address,
        inbox: "queue.SimpleQueue[Optional[bytes]]",
        outbox: "queue.SimpleQueue[Optional[bytes]]",
        faults: _Faults,
    ) -> None:
        self._local = local
        self._remote = remote
        self._inbox = inbox
        self._outbox = outbox
        self._faults = faults
        self._closed = False

    @property
    def local_address(self) -> Address:
        return self._local

    @property
    def remote_address(self) -> Address:
        return self._remote

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, message: Dict[str, Any]) -> None:
        if self._closed:
            raise TransportError(f"channel {self._local}->{self._remote} is closed")
        self._faults.check_path(self._local, self._remote)
        data = encode_message(message)
        if self._faults.drop_every_nth > 0 and self._faults.should_drop():
            return
        if self._faults.latency_seconds > 0:
            time.sleep(self._faults.latency_seconds)
        self._outbox.put(data)

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        if self._closed:
            raise TransportError(f"channel {self._local}->{self._remote} is closed")
        try:
            data = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(
                f"timed out waiting for message from {self._remote}"
            ) from None
        # A frame that arrives after this side closed is never handed on.
        if self._closed:
            raise TransportError(f"channel {self._local}->{self._remote} is closed")
        if data is None:
            self._closed = True
            raise TransportError(f"peer {self._remote} closed the channel")
        return decode_message(data)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # End-of-stream wakes both receivers, as a TCP shutdown does.
        self._outbox.put(None)
        self._inbox.put(None)


class InMemoryListener(Listener):
    """Listener bound to a named address on an :class:`InMemoryNetwork`."""

    def __init__(self, network: "InMemoryNetwork", address: Address) -> None:
        self._network = network
        self._address = address
        self._pending: "queue.SimpleQueue[InMemoryChannel]" = queue.SimpleQueue()
        self._closed = threading.Event()

    @property
    def address(self) -> Address:
        return self._address

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def _enqueue(self, channel: InMemoryChannel) -> None:
        if self._closed.is_set():
            raise TransportError(f"listener {self._address} is closed")
        self._pending.put(channel)

    def accept(self, timeout: Optional[float] = None) -> Channel:
        if self._closed.is_set():
            raise TransportError(f"listener {self._address} is closed")
        try:
            return self._pending.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(f"accept timed out on {self._address}") from None

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        self._network._unbind(self._address)


class InMemoryNetwork(Network):
    """A process-local network with named endpoints and fault injection."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._listeners: Dict[Address, InMemoryListener] = {}
        self._faults = _Faults()
        self._client_counter = 0

    # -- Network interface -------------------------------------------------

    def listen(self, address: Address) -> Listener:
        with self._lock:
            if address in self._listeners:
                raise TransportError(f"address already in use: {address}")
            listener = InMemoryListener(self, address)
            self._listeners[address] = listener
            return listener

    def connect(
        self,
        address: Address,
        timeout: Optional[float] = None,
        source: Optional[Address] = None,
    ) -> Channel:
        for endpoint in (address, source):
            if self._faults.is_dead(endpoint):
                raise TransportError(f"endpoint unreachable: {endpoint}")
        with self._lock:
            listener = self._listeners.get(address)
            self._client_counter += 1
            client_address = source or f"client-{self._client_counter}"
        if listener is None or listener.closed:
            raise TransportError(f"connection refused: no listener at {address}")
        self._faults.check_path(client_address, address)
        client_to_server: "queue.SimpleQueue[Optional[bytes]]" = queue.SimpleQueue()
        server_to_client: "queue.SimpleQueue[Optional[bytes]]" = queue.SimpleQueue()
        client_side = InMemoryChannel(
            client_address, address, server_to_client, client_to_server, self._faults
        )
        server_side = InMemoryChannel(
            address, client_address, client_to_server, server_to_client, self._faults
        )
        listener._enqueue(server_side)
        return client_side

    def registered_addresses(self) -> List[Address]:
        with self._lock:
            return sorted(addr for addr, lst in self._listeners.items() if not lst.closed)

    # -- management --------------------------------------------------------

    def _unbind(self, address: Address) -> None:
        with self._lock:
            self._listeners.pop(address, None)

    # -- fault injection ---------------------------------------------------

    def kill_endpoint(self, address: Address) -> None:
        """Make ``address`` unreachable (connect and send both fail)."""
        with self._faults.lock:
            self._faults.dead_endpoints.add(address)

    def revive_endpoint(self, address: Address) -> None:
        """Undo :meth:`kill_endpoint`."""
        with self._faults.lock:
            self._faults.dead_endpoints.discard(address)

    def partition(self, a: Address, b: Address) -> None:
        """Drop all traffic between endpoints ``a`` and ``b``."""
        with self._faults.lock:
            self._faults.partitions.add((a, b))

    def heal_partition(self, a: Address, b: Address) -> None:
        """Undo :meth:`partition`."""
        with self._faults.lock:
            self._faults.partitions.discard((a, b))
            self._faults.partitions.discard((b, a))

    def set_latency(self, seconds: float) -> None:
        """Add a fixed delay to every message send, charged to the
        sender: ``send`` sleeps before the frame is queued, so a caller
        sending to several channels in turn pays it once per channel."""
        if seconds < 0:
            raise ValueError("latency must be non-negative")
        with self._faults.lock:
            self._faults.latency_seconds = seconds

    def drop_every_nth_message(self, n: int) -> None:
        """Silently drop every n-th sent message (0 disables dropping)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        with self._faults.lock:
            self._faults.drop_every_nth = n
            self._faults._send_counter = 0
