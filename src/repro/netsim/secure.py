"""Simulated secure channel: certificates, handshake and tamper detection.

The paper (Section 3.1) states that driver transfer should use "encrypted
authenticated SSL channels": the bootloader verifies the Drivolution
server's certificate so a man-in-the-middle cannot substitute a malicious
driver, and the transfer itself cannot be tampered with.

Real TLS is unnecessary for reproducing that behaviour; what matters is
that the code paths exist and are exercised: certificate issuance and
verification against a trusted authority, rejection of unknown or forged
certificates, and detection of payload tampering in transit. This module
implements those semantics with HMAC-based message authentication over an
existing :class:`~repro.netsim.transport.Channel`.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import TransportError
from repro.netsim.framing import decode_message, encode_message
from repro.netsim.transport import Channel


class SecureChannelError(TransportError):
    """Handshake failure, unknown certificate, or tampered payload."""


@dataclass(frozen=True)
class Certificate:
    """A certificate binding a subject name to a public identity.

    ``fingerprint`` is derived from the subject and the issuing
    authority's secret, so a certificate cannot be forged without the
    authority's key.
    """

    subject: str
    issuer: str
    fingerprint: str

    def to_wire(self) -> Dict[str, str]:
        return {"subject": self.subject, "issuer": self.issuer, "fingerprint": self.fingerprint}

    @staticmethod
    def from_wire(data: Dict[str, Any]) -> "Certificate":
        try:
            return Certificate(
                subject=str(data["subject"]),
                issuer=str(data["issuer"]),
                fingerprint=str(data["fingerprint"]),
            )
        except KeyError as exc:
            raise SecureChannelError(f"malformed certificate: missing {exc}") from exc


class CertificateAuthority:
    """Issues and verifies certificates for servers and clients."""

    def __init__(self, name: str = "repro-ca", secret: Optional[bytes] = None) -> None:
        self.name = name
        self._secret = secret if secret is not None else os.urandom(32)

    def issue(self, subject: str) -> Certificate:
        """Issue a certificate for ``subject``."""
        fingerprint = hmac.new(
            self._secret, f"{self.name}:{subject}".encode("utf-8"), hashlib.sha256
        ).hexdigest()
        return Certificate(subject=subject, issuer=self.name, fingerprint=fingerprint)

    def verify(self, certificate: Certificate) -> bool:
        """Check that ``certificate`` was issued by this authority."""
        if certificate.issuer != self.name:
            return False
        expected = self.issue(certificate.subject)
        return hmac.compare_digest(expected.fingerprint, certificate.fingerprint)


class SecureChannel(Channel):
    """Wraps a plain channel with certificate handshake and payload MACs.

    Both peers must share the session key established during the
    handshake; every message carries an HMAC over its canonical encoding.
    A tampering adversary (simulated in tests by rewriting messages on the
    underlying channel) causes :class:`SecureChannelError` on receive.
    """

    def __init__(self, inner: Channel, session_key: bytes, peer_certificate: Certificate) -> None:
        self._inner = inner
        self._session_key = session_key
        self.peer_certificate = peer_certificate

    # -- handshake ---------------------------------------------------------

    @staticmethod
    def client_handshake(
        inner: Channel,
        authority: CertificateAuthority,
        client_certificate: Optional[Certificate] = None,
        expected_subject: Optional[str] = None,
        timeout: Optional[float] = 5.0,
    ) -> "SecureChannel":
        """Initiate a handshake and verify the server's certificate."""
        client_nonce = os.urandom(16)
        hello: Dict[str, Any] = {"type": "secure_hello", "nonce": client_nonce}
        if client_certificate is not None:
            hello["certificate"] = client_certificate.to_wire()
        inner.send(hello)
        reply = inner.recv(timeout=timeout)
        if reply.get("type") != "secure_hello_ack":
            raise SecureChannelError(f"unexpected handshake reply: {reply.get('type')!r}")
        server_cert = Certificate.from_wire(reply.get("certificate", {}))
        if not authority.verify(server_cert):
            raise SecureChannelError(
                f"server certificate for {server_cert.subject!r} not trusted by {authority.name!r}"
            )
        if expected_subject is not None and server_cert.subject != expected_subject:
            raise SecureChannelError(
                f"server certificate subject {server_cert.subject!r} does not match "
                f"expected {expected_subject!r}"
            )
        server_nonce = reply.get("nonce", b"")
        session_key = _derive_key(client_nonce, server_nonce, server_cert.fingerprint)
        return SecureChannel(inner, session_key, server_cert)

    @staticmethod
    def server_handshake(
        inner: Channel,
        certificate: Certificate,
        authority: Optional[CertificateAuthority] = None,
        require_client_certificate: bool = False,
        timeout: Optional[float] = 5.0,
        hello: Optional[Dict[str, Any]] = None,
    ) -> "SecureChannel":
        """Answer a client handshake, presenting ``certificate``.

        ``hello`` is the client's first frame when the caller's listener
        already read it to dispatch on; otherwise it is received here."""
        if hello is None:
            hello = inner.recv(timeout=timeout)
        if hello.get("type") != "secure_hello":
            raise SecureChannelError(f"unexpected handshake message: {hello.get('type')!r}")
        client_cert: Optional[Certificate] = None
        if "certificate" in hello:
            client_cert = Certificate.from_wire(hello["certificate"])
            if authority is not None and not authority.verify(client_cert):
                raise SecureChannelError(f"client certificate {client_cert.subject!r} not trusted")
        elif require_client_certificate:
            raise SecureChannelError("client certificate required but not presented")
        server_nonce = os.urandom(16)
        inner.send(
            {
                "type": "secure_hello_ack",
                "nonce": server_nonce,
                "certificate": certificate.to_wire(),
            }
        )
        client_nonce = hello.get("nonce", b"")
        session_key = _derive_key(client_nonce, server_nonce, certificate.fingerprint)
        peer = client_cert if client_cert is not None else Certificate("anonymous", "none", "")
        return SecureChannel(inner, session_key, peer)

    # -- channel interface ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._inner.closed

    @property
    def remote_address(self) -> str:
        return self._inner.remote_address

    def send(self, message: Dict[str, Any]) -> None:
        body = encode_message(message)
        mac = hmac.new(self._session_key, body, hashlib.sha256).hexdigest()
        self._inner.send({"type": "secure_data", "body": body, "mac": mac})

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        envelope = self._inner.recv(timeout=timeout)
        if envelope.get("type") != "secure_data":
            raise SecureChannelError(f"unexpected secure frame type: {envelope.get('type')!r}")
        body = envelope.get("body", b"")
        mac = envelope.get("mac", "")
        expected = hmac.new(self._session_key, body, hashlib.sha256).hexdigest()
        if not hmac.compare_digest(expected, mac):
            raise SecureChannelError("message authentication failed (payload tampered in transit)")
        return decode_message(body)

    def close(self) -> None:
        self._inner.close()


def _derive_key(client_nonce: bytes, server_nonce: bytes, fingerprint: str) -> bytes:
    if not isinstance(client_nonce, bytes):
        client_nonce = bytes(str(client_nonce), "utf-8")
    if not isinstance(server_nonce, bytes):
        server_nonce = bytes(str(server_nonce), "utf-8")
    return hashlib.sha256(client_nonce + server_nonce + fingerprint.encode("utf-8")).digest()

