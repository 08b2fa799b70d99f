"""Database server: a versioned wire protocol in front of the SQL engine.

This is the analogue of a production DBMS's client/server protocol. The
points that matter for reproducing the paper are:

- the protocol is **versioned** and the server only accepts a range of
  protocol versions, so a driver built for the wrong version fails at
  connection time (the incompatibility the legacy lifecycle suffers from),
- the server supports multiple **authentication methods** (password and a
  Kerberos-like token method), so a driver lacking the method required by
  the database fails at authentication time (step 6 of the paper's
  lifecycle),
- what the server's listener takes is one table (``DatabaseServer.routes``)
  that an attached Drivolution server adds its rows to — this is how the
  in-database Drivolution server answers bootloader requests on the same
  or a separate port (paper Section 4.1.2).
"""

from repro.dbserver.wire import (
    PROTOCOL_VERSION,
    MessageType,
    make_error,
)
from repro.dbserver.auth import AuthenticationError, Authenticator, PasswordAuthenticator, TokenAuthenticator
from repro.dbserver.server import DatabaseServer, ServerConfig

__all__ = [
    "PROTOCOL_VERSION",
    "MessageType",
    "make_error",
    "AuthenticationError",
    "Authenticator",
    "PasswordAuthenticator",
    "TokenAuthenticator",
    "DatabaseServer",
    "ServerConfig",
]
