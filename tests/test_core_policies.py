"""Unit tests for renew/expiration policy machinery and constants."""

import pytest

from repro.core.constants import ExpirationPolicy, RenewPolicy, TransferMethod
from repro.core.policies import CLOSE, apply_expiration_policy, expiry_step


class FakeConnection:
    """Stand-in for a ManagedConnection with controllable transaction
    state. It exposes the one hook, ``expire``, and asks the expiry rule
    as ManagedConnection does: when superseded and at every statement
    boundary."""

    def __init__(self, connection_id: str, in_transaction: bool = False):
        self.connection_id = connection_id
        self.in_transaction = in_transaction
        self.closed = False
        self._expiry = None

    @property
    def stale(self):
        return self._expiry is not None and not self.closed

    def expire(self, policy=None):
        if policy is not None:
            self._expiry = policy
        verdict = expiry_step(self._expiry, self.in_transaction, False)
        self.closed = self.closed or verdict == CLOSE
        return verdict, self.in_transaction

    def commit(self):
        self.in_transaction = False
        if self._expiry is not None:
            self.expire()


class TestConstants:
    def test_paper_integer_encodings(self):
        assert int(RenewPolicy.RENEW) == 0
        assert int(RenewPolicy.UPGRADE) == 1
        assert int(RenewPolicy.REVOKE) == 2
        assert int(ExpirationPolicy.AFTER_CLOSE) == 0
        assert int(ExpirationPolicy.AFTER_COMMIT) == 1
        assert int(ExpirationPolicy.IMMEDIATE) == 2
        assert int(TransferMethod.ANY) == -1

    def test_from_value_accepts_names_ints_and_enums(self):
        assert RenewPolicy.from_value("upgrade") == RenewPolicy.UPGRADE
        assert RenewPolicy.from_value(2) == RenewPolicy.REVOKE
        assert RenewPolicy.from_value(RenewPolicy.RENEW) == RenewPolicy.RENEW
        assert ExpirationPolicy.from_value("immediate") == ExpirationPolicy.IMMEDIATE
        assert ExpirationPolicy.from_value(0) == ExpirationPolicy.AFTER_CLOSE
        with pytest.raises(ValueError):
            ExpirationPolicy.from_value(9)


class TestApplyExpirationPolicy:
    def _connections(self):
        return [
            FakeConnection("idle-1"),
            FakeConnection("idle-2"),
            FakeConnection("tx-1", in_transaction=True),
        ]

    def test_immediate_closes_everything_and_counts_aborts(self):
        connections = self._connections()
        report = apply_expiration_policy(connections, ExpirationPolicy.IMMEDIATE)
        assert report.closed_immediately == 3
        assert report.aborted_transactions == 1
        assert all(connection.closed for connection in connections)
        assert report.still_open == 0

    def test_after_commit_defers_only_transactions(self):
        connections = self._connections()
        report = apply_expiration_policy(connections, ExpirationPolicy.AFTER_COMMIT)
        assert report.closed_immediately == 2
        assert report.deferred_to_commit == 1
        assert report.aborted_transactions == 0
        tx = connections[2]
        assert not tx.closed
        tx.commit()
        assert tx.closed

    def test_after_close_leaves_everything_to_the_application(self):
        connections = self._connections()
        report = apply_expiration_policy(connections, ExpirationPolicy.AFTER_CLOSE)
        assert report.closed_immediately == 0
        assert report.deferred_to_close == 3
        assert all(not connection.closed for connection in connections)
        assert all(connection.stale for connection in connections)

    def test_already_closed_connections_are_counted_separately(self):
        connection = FakeConnection("gone")
        connection.closed = True
        report = apply_expiration_policy([connection], ExpirationPolicy.IMMEDIATE)
        assert report.already_closed == 1
        assert report.closed_immediately == 0

    def test_empty_connection_set(self):
        report = apply_expiration_policy([], ExpirationPolicy.IMMEDIATE)
        assert report.total_connections == 0
