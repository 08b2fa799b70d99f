"""One ingress loop: which frames a listener takes, in what shape, from whom.

Every listener states once, as a table of :class:`Route` s keyed by frame
type, each frame's top-level field types and who may send it; :func:`serve`
reads frames against the table, so a handler only sees a well-typed frame
of its type from an admitted sender (docs/wire.md "Who may send what"). The
sender is the transport's ``Channel.remote_address``, never the payload's.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional

from repro.errors import TransportError
from repro.netsim.transport import Channel

#: Seconds a channel may stay silent while none of its frames was accepted.
FIRST_FRAME_TIMEOUT_S = 30.0

#: A handler's answer when the channel is done: :func:`serve` returns.
STOP = object()

#: ``refuse(context, frame, code, detail)``: the protocol's ERROR frame to
#: send, or None when nothing is to be sent.
Refuse = Callable[[Any, Dict[str, Any], str, str], Optional[Dict[str, Any]]]


def refuse_with(error: Callable[[str, str], Dict[str, Any]]) -> Refuse:
    """The :data:`Refuse` answering ``error(code, detail)``."""
    return lambda context, frame, code, detail: error(code, detail)


class Sender(NamedTuple):
    """Who may send a frame, judged from the channel it arrived on."""

    name: str
    admits: Callable[[Channel], bool]
    #: The error code a sender it does not admit is refused with.
    refusal: str


class Route(NamedTuple):
    """One row of a listener's table.

    ``handler(context, frame)`` returns the reply to send, None, or
    :data:`STOP`. Field types match exactly (a ``bool`` is no ``int``);
    an optional field may also be absent or None. ``sender`` None admits
    anyone. An ill-typed frame is refused with ``code`` through
    ``refuse`` — when set, the row's own protocol, which need not be the
    listener's (a database answers Drivolution frames in Drivolution's).
    """

    handler: Callable[[Any, Dict[str, Any]], Any]
    required: Mapping[str, type] = {}
    optional: Mapping[str, type] = {}
    sender: Optional[Sender] = None
    code: str = "bad_message"
    refuse: Optional[Refuse] = None

    def problem(self, frame: Dict[str, Any]) -> Optional[str]:
        """Why ``frame``'s fields do not fit this row; None if they do."""
        for name, kind in self.required.items():
            if type(frame.get(name)) is not kind:
                return f"field {name!r} must be {kind.__name__}, got {type(frame.get(name)).__name__}"
        for name, kind in self.optional.items():
            value = frame.get(name)
            if value is not None and type(value) is not kind:
                return f"field {name!r} must be {kind.__name__} or absent, got {type(value).__name__}"
        return None


def serve(
    channel: Channel,
    routes: Mapping[str, Route],
    refuse: Refuse,
    context: Any = None,
    greeted: bool = False,
) -> None:
    """Serve ``channel`` from ``routes`` until it closes or a handler
    returns :data:`STOP`; a refused frame (no route: ``bad_message`` via
    ``refuse``) never stops it. Handlers get ``context`` (default: the
    channel). Waits are bounded until a frame is accepted, unless
    ``greeted``: the channel already shook hands, so its next frame may be
    any time away (an idle pooled connection, a push subscription)."""
    subject = channel if context is None else context
    while True:
        try:
            frame = channel.recv(timeout=None) if greeted else channel.recv(timeout=FIRST_FRAME_TIMEOUT_S)
        except TransportError:
            return
        kind = frame.get("type")
        route = routes.get(kind) if type(kind) is str else None
        if route is None:
            reply = refuse(subject, frame, "bad_message", f"unexpected message {kind!r}")
        elif route.sender is not None and not route.sender.admits(channel):
            detail = f"{kind} is taken from a {route.sender.name} only, not {channel.remote_address!r}"
            reply = (route.refuse or refuse)(subject, frame, route.sender.refusal, detail)
        elif (problem := route.problem(frame)) is not None:
            reply = (route.refuse or refuse)(subject, frame, route.code, f"{kind}: {problem}")
        else:
            greeted = True
            reply = route.handler(subject, frame)
            if reply is STOP:
                return
        if reply is not None:
            try:
                channel.send(reply)
            except TransportError:
                return
