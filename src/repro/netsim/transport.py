"""Abstract transport interfaces.

A :class:`Network` creates :class:`Listener` objects (server side) and
:class:`Channel` objects (client side). Channels are bidirectional,
message-oriented and blocking; servers typically wrap a listener in a
:class:`ChannelServer` which accepts connections on a background thread
and dispatches each one to a handler callable.

The same interfaces are implemented by the in-memory network
(:mod:`repro.netsim.inmem`) and the TCP network (:mod:`repro.netsim.tcp`),
so every server and client in the repro is transport agnostic.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional

from repro.errors import TransportError

#: Addresses are plain strings, e.g. ``"db1:5432"`` for the in-memory
#: network or ``"127.0.0.1:15432"`` for TCP.
Address = str


class Channel(ABC):
    """A bidirectional, message-oriented connection between two peers."""

    @abstractmethod
    def send(self, message: Dict[str, Any]) -> None:
        """Send one message dictionary to the peer."""

    @abstractmethod
    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Receive one message, blocking up to ``timeout`` seconds.

        Raises :class:`repro.errors.TransportError` on timeout or if the
        peer has closed the channel.
        """

    @abstractmethod
    def close(self) -> None:
        """Close the channel; pending receivers on both sides are woken."""

    @property
    @abstractmethod
    def closed(self) -> bool:
        """Whether the channel has been closed by either side."""

    @property
    @abstractmethod
    def remote_address(self) -> Address:
        """Who is at the other end as the transport knows it: the in-memory
        ``source=`` (else an anonymous ``client-N``), a TCP peer's host:port."""

    def request(self, message: Dict[str, Any], timeout: Optional[float] = None) -> Dict[str, Any]:
        """Convenience helper: send ``message`` and wait for one reply."""
        self.send(message)
        return self.recv(timeout=timeout)

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Listener(ABC):
    """Server-side endpoint accepting incoming channels."""

    @property
    @abstractmethod
    def address(self) -> Address:
        """The address clients use to connect to this listener."""

    @abstractmethod
    def accept(self, timeout: Optional[float] = None) -> Channel:
        """Accept one incoming channel, blocking up to ``timeout``."""

    @abstractmethod
    def close(self) -> None:
        """Stop accepting connections and release the address."""

    @property
    @abstractmethod
    def closed(self) -> bool:
        """Whether the listener has been closed."""


class Network(ABC):
    """Factory for listeners and outbound channels."""

    @abstractmethod
    def listen(self, address: Address) -> Listener:
        """Bind a listener to ``address``."""

    @abstractmethod
    def connect(
        self,
        address: Address,
        timeout: Optional[float] = None,
        source: Optional[Address] = None,
    ) -> Channel:
        """Open a channel to the listener bound at ``address``.

        ``source`` names the address the connection comes *from* — a
        server connecting out to a peer passes its own listener address
        — so the in-memory network's endpoint faults (kill, partition)
        apply to the channel; real TCP picks its own source and ignores
        it."""

    def registered_addresses(self) -> List[Address]:
        """Addresses currently listening on this network.

        Used by broadcast-style discovery (``DRIVOLUTION_DISCOVER``).
        Networks that cannot enumerate peers (real TCP) return an empty
        list, and discovery falls back to an explicit server list.
        """
        return []


class ChannelServer:
    """Accept loop that dispatches each incoming channel to a handler.

    The handler is called as ``handler(channel)`` on a dedicated thread
    per connection; it owns the channel and must close it when done.
    This is the building block used by the database server, the Sequoia
    controller and the Drivolution server.
    """

    def __init__(
        self,
        listener: Listener,
        handler: Callable[[Channel], None],
        name: str = "server",
    ):
        self._listener = listener
        self._handler = handler
        self._name = name
        self._threads: List[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        # Accepted channels still owned by a live handler: stop() closes
        # them so clients blocked on an in-flight reply observe the
        # server's death (a real TCP server's sockets die with it) instead
        # of hanging until their own receive timeout.
        self._open_channels: Dict[int, Channel] = {}
        self._open_lock = threading.Lock()

    @property
    def address(self) -> Address:
        return self._listener.address

    @property
    def running(self) -> bool:
        return self._accept_thread is not None and not self._stopped.is_set()

    def start(self) -> "ChannelServer":
        """Start accepting connections on a background thread."""
        if self._accept_thread is not None:
            raise TransportError(f"{self._name} already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self._name}-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                channel = self._listener.accept(timeout=0.1)
            except TransportError:
                if self._listener.closed:
                    return
                continue
            # Reap finished handler threads before tracking a new one, or
            # a long-lived listener's list (and the dead Thread objects it
            # pins) grows by one entry per connection ever accepted.
            self._threads = [thread for thread in self._threads if thread.is_alive()]
            thread = threading.Thread(
                target=self._run_handler, args=(channel,), name=f"{self._name}-conn", daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def handler_thread_count(self) -> int:
        """Live handler threads (observability for leak tests and the
        session-scaling bench)."""
        return sum(1 for thread in self._threads if thread.is_alive())

    def _run_handler(self, channel: Channel) -> None:
        with self._open_lock:
            self._open_channels[id(channel)] = channel
        try:
            self._handler(channel)
        except TransportError:
            pass
        finally:
            with self._open_lock:
                self._open_channels.pop(id(channel), None)
            try:
                channel.close()
            except Exception:  # pragma: no cover - defensive
                pass

    def stop(self) -> None:
        """Stop accepting new connections and close the accepted channels
        (waking any client blocked on a reply with end-of-stream, like a
        dying process's sockets would). Existing handlers keep running
        until their next channel operation observes the close."""
        self._stopped.set()
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        with self._open_lock:
            channels = list(self._open_channels.values())
            self._open_channels.clear()
        for channel in channels:
            try:
                channel.close()
            except Exception:  # pragma: no cover - defensive
                pass
