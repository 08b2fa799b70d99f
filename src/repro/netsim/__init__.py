"""Network substrate used by every distributed component in the repro.

The paper's system spans client applications, database servers, Sequoia
controllers and Drivolution servers that all talk over a network. This
package provides that network twice:

- :class:`repro.netsim.inmem.InMemoryNetwork` — a deterministic in-process
  network with named endpoints, connection brokering, broadcast domains
  (used by ``DRIVOLUTION_DISCOVER``) and fault injection. This is the
  default substrate for tests and experiments.
- :class:`repro.netsim.tcp.TcpNetwork` — a real TCP/localhost transport
  with the same interface, used by integration tests to show the system
  also works over actual sockets.

Both produce message-oriented :class:`repro.netsim.transport.Channel`
objects carrying JSON-compatible dictionaries (bytes payloads are
supported transparently by the framing codec). A simulated secure channel
(:mod:`repro.netsim.secure`) adds certificate verification and tamper
detection on top of any plain channel.
"""

from repro.netsim.transport import Channel, Listener, Network, Address
from repro.netsim.inmem import InMemoryNetwork
from repro.netsim.tcp import TcpNetwork
from repro.netsim.framing import encode_message, decode_message, MessageCodecError
from repro.netsim.secure import (
    Certificate,
    CertificateAuthority,
    SecureChannel,
    SecureChannelError,
)

__all__ = [
    "Address",
    "Channel",
    "Listener",
    "Network",
    "InMemoryNetwork",
    "TcpNetwork",
    "encode_message",
    "decode_message",
    "MessageCodecError",
    "Certificate",
    "CertificateAuthority",
    "SecureChannel",
    "SecureChannelError",
]
