"""Database wire protocol message definitions.

The protocol is deliberately simple (connect / execute / result / error /
close) but carries an explicit ``protocol_version`` so that driver/server
mismatches surface exactly where the paper says they do: at connection
time (step 5 of the legacy lifecycle) rather than at install time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Current protocol version spoken by the reference server and the
#: up-to-date driver generation. Older driver generations speak lower
#: versions; the server accepts a configurable range. v4 adds the
#: EXECUTE's ``begin``: run BEGIN, then the statement if BEGIN succeeded.
PROTOCOL_VERSION = 4
#: The first version whose EXECUTE may carry ``begin`` (both ends must speak it).
BEGIN_MIN_VERSION = 4


class MessageType:
    """Message type tags used on the database wire protocol."""

    CONNECT = "db_connect"
    CONNECT_OK = "db_connect_ok"
    EXECUTE = "db_execute"
    RESULT = "db_result"
    ERROR = "db_error"
    CLOSE = "db_close"
    PING = "db_ping"
    PONG = "db_pong"


def make_connect(
    database: str,
    protocol_version: int,
    user: Optional[str] = None,
    password: Optional[str] = None,
    auth_method: str = "password",
    auth_token: Optional[str] = None,
) -> Dict[str, Any]:
    """Build a CONNECT message: the credentials go to the database that
    checks them, and an unset one is omitted."""
    message = {
        "type": MessageType.CONNECT,
        "database": database,
        "protocol_version": protocol_version,
        "auth_method": auth_method,
    }
    for name, value in (("user", user), ("password", password), ("auth_token", auth_token)):
        if value is not None:
            message[name] = value
    return message


def make_connect_ok(server_name: str, protocol_version: int, session_id: str) -> Dict[str, Any]:
    return {
        "type": MessageType.CONNECT_OK,
        "server": server_name,
        "protocol_version": protocol_version,
        "session_id": session_id,
    }


def make_execute(
    sql: str, params: Optional[Dict[str, Any]] = None, positional: Optional[list] = None, begin: bool = False
) -> Dict[str, Any]:
    message = {"type": MessageType.EXECUTE, "sql": sql, "params": params or {}}
    if positional:
        message["positional"] = positional
    if begin:
        message["begin"] = True
    return message


def make_result(columns: list, rows: list, rowcount: int) -> Dict[str, Any]:
    return {
        "type": MessageType.RESULT,
        "columns": columns,
        "rows": [list(row) for row in rows],
        "rowcount": rowcount,
    }


def make_error(code: str, message: str) -> Dict[str, Any]:
    return {"type": MessageType.ERROR, "code": code, "message": message}
