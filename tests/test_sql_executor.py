"""Integration-level tests of SQL execution through the engine session API."""

import sqlite3

import pytest

from repro.sqlengine import ConstraintViolation, Engine, SqlExecutionError, TableNotFound
from repro.sqlengine.errors import TransactionError


@pytest.fixture
def db_session():
    engine = Engine(name="exec-test")
    engine.create_database("db")
    session = engine.open_session("db")
    session.execute(
        "CREATE TABLE drivers (driver_id INTEGER NOT NULL PRIMARY KEY, "
        "api_name VARCHAR NOT NULL, platform VARCHAR, code BLOB)"
    )
    return session


def _table(session, name):
    return session._engine.database(session.database_name).lookup_table(name)


class TestInsertSelect:
    def test_insert_and_select_star(self, db_session):
        db_session.execute(
            "INSERT INTO drivers (driver_id, api_name, platform, code) "
            "VALUES (1, 'JDBC', 'linux', 'blob')"
        )
        result = db_session.execute("SELECT * FROM drivers")
        assert result.rowcount == 1
        assert result.columns == ["driver_id", "api_name", "platform", "code"]
        assert result.rows[0][1] == "JDBC"
        assert result.rows[0][3] == b"blob"

    def test_multi_row_insert(self, db_session):
        result = db_session.execute(
            "INSERT INTO drivers (driver_id, api_name) VALUES (1, 'JDBC'), (2, 'ODBC')"
        )
        assert result.rowcount == 2

    def test_projection_and_where_params(self, db_session):
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'JDBC')")
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (2, 'ODBC')")
        result = db_session.execute(
            "SELECT api_name FROM drivers WHERE driver_id = $id", params={"id": 2}
        )
        assert result.rows == [("ODBC",)]

    def test_positional_params(self, db_session):
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'JDBC')")
        result = db_session.execute(
            "SELECT api_name FROM drivers WHERE driver_id = ?", positional=[1]
        )
        assert result.rows == [("JDBC",)]

    def test_positional_params_number_across_clauses_and_rows(self, db_session):
        """Each ``?`` is one position in the statement, whichever clause or
        row it is evaluated for."""
        db_session.execute(
            "INSERT INTO drivers (driver_id, api_name) VALUES (?, ?), (?, ?)",
            positional=[1, "JDBC", 2, "ODBC"],
        )
        updated = db_session.execute(
            "UPDATE drivers SET platform = ? WHERE driver_id = ?", positional=["linux", 1]
        )
        assert updated.rowcount == 1
        rows = db_session.execute(
            "SELECT api_name, ? FROM drivers WHERE platform = ? OR driver_id = ?",
            positional=["tag", "linux", 2],
        ).rows
        assert rows == [("JDBC", "tag"), ("ODBC", "tag")]
        with pytest.raises(SqlExecutionError):
            db_session.execute(
                "SELECT api_name FROM drivers WHERE platform = ? AND driver_id = ?",
                positional=["linux"],
            )

    def test_order_by_and_limit(self, db_session):
        for index in range(5):
            db_session.execute(
                "INSERT INTO drivers (driver_id, api_name) VALUES ($id, 'API')",
                params={"id": index + 1},
            )
        result = db_session.execute("SELECT driver_id FROM drivers ORDER BY driver_id DESC LIMIT 2")
        assert result.rows == [(5,), (4,)]

    def test_order_by_nulls_last(self, db_session):
        db_session.execute("INSERT INTO drivers (driver_id, api_name, platform) VALUES (1, 'A', NULL)")
        db_session.execute("INSERT INTO drivers (driver_id, api_name, platform) VALUES (2, 'B', 'aix')")
        result = db_session.execute("SELECT driver_id FROM drivers ORDER BY platform")
        assert result.rows == [(2,), (1,)]

    def test_aggregates(self, db_session):
        for index in range(3):
            db_session.execute(
                "INSERT INTO drivers (driver_id, api_name) VALUES ($id, 'API')",
                params={"id": index + 1},
            )
        count = db_session.execute("SELECT COUNT(*) FROM drivers").scalar()
        max_id = db_session.execute("SELECT MAX(driver_id) AS m FROM drivers").scalar()
        min_id = db_session.execute("SELECT MIN(driver_id) FROM drivers").scalar()
        total = db_session.execute("SELECT SUM(driver_id) FROM drivers").scalar()
        assert (count, max_id, min_id, total) == (3, 3, 1, 6)

    def test_aggregate_on_empty_table(self, db_session):
        assert db_session.execute("SELECT COUNT(*) FROM drivers").scalar() == 0
        assert db_session.execute("SELECT MAX(driver_id) FROM drivers").scalar() is None

    def test_mixed_aggregate_rejected(self, db_session):
        with pytest.raises(SqlExecutionError):
            db_session.execute("SELECT COUNT(*), api_name FROM drivers")

    def test_select_without_from(self, db_session):
        assert db_session.execute("SELECT 41 + 1").scalar() == 42

    def test_as_dicts(self, db_session):
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'JDBC')")
        rows = db_session.execute("SELECT driver_id, api_name FROM drivers").as_dicts()
        assert rows == [{"driver_id": 1, "api_name": "JDBC"}]


class TestUpdateDelete:
    def test_update_with_where(self, db_session):
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'JDBC')")
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (2, 'ODBC')")
        result = db_session.execute(
            "UPDATE drivers SET platform = 'linux' WHERE api_name = 'JDBC'"
        )
        assert result.rowcount == 1
        assert db_session.execute(
            "SELECT platform FROM drivers WHERE driver_id = 1"
        ).scalar() == "linux"

    def test_update_all_rows(self, db_session):
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'A'), (2, 'B')")
        assert db_session.execute("UPDATE drivers SET platform = 'any'").rowcount == 2

    def test_delete(self, db_session):
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'A'), (2, 'B')")
        assert db_session.execute("DELETE FROM drivers WHERE driver_id = 1").rowcount == 1
        assert db_session.execute("SELECT COUNT(*) FROM drivers").scalar() == 1


class TestConstraints:
    def test_not_null_violation(self, db_session):
        with pytest.raises(ConstraintViolation):
            db_session.execute("INSERT INTO drivers (driver_id) VALUES (1)")

    def test_primary_key_violation(self, db_session):
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'A')")
        with pytest.raises(ConstraintViolation):
            db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'B')")

    def test_foreign_key_enforced(self, db_session):
        db_session.execute(
            "CREATE TABLE permissions (pid INTEGER NOT NULL PRIMARY KEY, "
            "driver_id INTEGER NOT NULL REFERENCES drivers(driver_id))"
        )
        with pytest.raises(ConstraintViolation):
            db_session.execute("INSERT INTO permissions (pid, driver_id) VALUES (1, 99)")
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (99, 'A')")
        db_session.execute("INSERT INTO permissions (pid, driver_id) VALUES (1, 99)")

    def test_a_referenced_row_is_not_deleted_nor_its_key_changed(self, db_session):
        """REFERENCES holds on the parent side too (SQLite's NO ACTION): the
        child row stays, and stays updatable."""
        db_session.execute(
            "CREATE TABLE permissions (pid INTEGER PRIMARY KEY, "
            "driver_id INTEGER REFERENCES drivers(driver_id), note VARCHAR)"
        )
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'A'), (2, 'B')")
        db_session.execute("INSERT INTO permissions VALUES (1, 1, 'a')")
        for refused in ("DELETE FROM drivers WHERE driver_id = 1", "UPDATE drivers SET driver_id = 3 WHERE driver_id = 1"):
            with pytest.raises(ConstraintViolation):
                db_session.execute(refused)
        assert db_session.execute("UPDATE drivers SET driver_id = 1, api_name = 'C' WHERE driver_id = 1").rowcount == 1
        assert db_session.execute("UPDATE permissions SET note = 'b' WHERE pid = 1").rowcount == 1
        assert db_session.execute("DELETE FROM drivers WHERE driver_id = 2").rowcount == 1
        db_session.execute("UPDATE permissions SET driver_id = NULL")
        assert db_session.execute("DELETE FROM drivers").rowcount == 1

    def test_a_row_that_references_only_itself_may_be_deleted(self, db_session):
        db_session.execute("CREATE TABLE tree (id INTEGER PRIMARY KEY, up INTEGER REFERENCES tree(id))")
        db_session.execute("INSERT INTO tree VALUES (1, NULL), (2, 1)")
        db_session.execute("UPDATE tree SET up = 1 WHERE id = 1")
        with pytest.raises(ConstraintViolation):
            db_session.execute("DELETE FROM tree WHERE id = 1")
        assert db_session.execute("DELETE FROM tree WHERE id = 2").rowcount == 1
        assert db_session.execute("DELETE FROM tree WHERE id = 1").rowcount == 1

    def test_a_row_may_reference_itself(self, db_session):
        """The row being inserted is its own parent, as on sqlite3 with
        foreign keys on; a reference to a row that is not there still fails."""
        oracle = sqlite3.connect(":memory:", isolation_level=None)
        oracle.execute("PRAGMA foreign_keys = ON")
        for side, refused in ((db_session.execute, ConstraintViolation), (oracle.execute, sqlite3.IntegrityError)):
            side("CREATE TABLE tree (id INTEGER PRIMARY KEY, up INTEGER REFERENCES tree(id))")
            side("INSERT INTO tree VALUES (1, 1)")
            side("INSERT INTO tree VALUES (2, 1)")
            with pytest.raises(refused):
                side("INSERT INTO tree VALUES (3, 4)")
        ours = db_session.execute("SELECT id, up FROM tree ORDER BY id").rows
        assert ours == oracle.execute("SELECT id, up FROM tree ORDER BY id").fetchall() == [(1, 1), (2, 1)]
        oracle.close()

    @pytest.mark.parametrize(
        "setup, statement, fails, rows",
        [
            # A PRIMARY KEY is checked per row, and the statement is undone whole.
            (["INSERT INTO tree VALUES (2, NULL)"], "INSERT INTO tree VALUES (3, NULL), (2, NULL)", True, [(2, None)]),
            # REFERENCES are checked at the statement's end.
            ([], "INSERT INTO tree VALUES (1, 2), (2, 1)", False, [(1, 2), (2, 1)]),
            (["INSERT INTO tree VALUES (1, NULL), (2, 1)"], "DELETE FROM tree", False, []),
            (["INSERT INTO tree VALUES (1, NULL), (2, 1)"], "DELETE FROM tree WHERE id = 1", True, [(1, None), (2, 1)]),
            (["INSERT INTO tree VALUES (1, NULL), (2, NULL)"], "UPDATE tree SET id = id + 1", True, [(1, None), (2, None)]),
        ],
        ids=["key_per_row", "mutual_references", "parent_with_child", "referenced_parent", "key_shift"],
    )
    def test_a_statement_is_checked_and_undone_whole_as_on_sqlite(self, db_session, setup, statement, fails, rows):
        oracle = sqlite3.connect(":memory:", isolation_level=None)
        oracle.execute("PRAGMA foreign_keys = ON")
        for side, refused in ((db_session.execute, ConstraintViolation), (oracle.execute, sqlite3.IntegrityError)):
            side("CREATE TABLE tree (id INTEGER PRIMARY KEY, up INTEGER REFERENCES tree(id))")
            for text in setup:
                side(text)
            if fails:
                with pytest.raises(refused):
                    side(statement)
            else:
                side(statement)
        ours = db_session.execute("SELECT id, up FROM tree ORDER BY id").rows
        assert ours == oracle.execute("SELECT id, up FROM tree ORDER BY id").fetchall() == rows
        oracle.close()

    def test_a_failing_statement_inside_a_transaction_keeps_the_earlier_ones(self, db_session):
        oracle = sqlite3.connect(":memory:", isolation_level=None)
        oracle.execute("PRAGMA foreign_keys = ON")
        for side, refused in ((db_session.execute, ConstraintViolation), (oracle.execute, sqlite3.IntegrityError)):
            side("CREATE TABLE tree (id INTEGER PRIMARY KEY, up INTEGER REFERENCES tree(id))")
            side("BEGIN")
            side("INSERT INTO tree VALUES (1, NULL)")
            with pytest.raises(refused):
                side("INSERT INTO tree VALUES (2, 1), (1, NULL)")
        assert db_session.in_transaction and oracle.in_transaction
        ours = db_session.execute("SELECT id, up FROM tree ORDER BY id").rows
        assert ours == oracle.execute("SELECT id, up FROM tree ORDER BY id").fetchall() == [(1, None)]
        for side in (db_session.execute, oracle.execute):
            side("ROLLBACK")
        assert db_session.execute("SELECT COUNT(*) FROM tree").scalar() == 0
        assert not (db_session.in_transaction or oracle.in_transaction)
        oracle.close()

    def test_a_referenced_value_another_parent_row_holds_may_go(self, db_session):
        """A REFERENCES to a column that is not a key: while another parent
        row holds the value, there is nothing to refuse."""
        db_session.execute("CREATE TABLE apis (name VARCHAR REFERENCES drivers(api_name))")
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'JDBC'), (2, 'JDBC')")
        db_session.execute("INSERT INTO apis VALUES ('JDBC')")
        assert db_session.execute("UPDATE drivers SET api_name = 'ODBC' WHERE driver_id = 1").rowcount == 1
        with pytest.raises(ConstraintViolation):
            db_session.execute("DELETE FROM drivers WHERE driver_id = 2")
        assert db_session.execute("SELECT COUNT(*) FROM drivers").scalar() == 2

    def test_an_update_checks_only_the_references_it_changes(self, db_session, monkeypatch):
        from repro.sqlengine.storage import Table

        db_session.execute(
            "CREATE TABLE permissions (pid INTEGER PRIMARY KEY, "
            "driver_id INTEGER REFERENCES drivers(driver_id), note VARCHAR)"
        )
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'A'), (2, 'B')")
        db_session.execute("INSERT INTO permissions VALUES (1, 1, 'a')")
        probes = []
        original = Table.has_value
        monkeypatch.setattr(
            Table, "has_value", lambda table, *args, **kwargs: probes.append(table.name) or original(table, *args, **kwargs)
        )
        db_session.execute("UPDATE permissions SET note = 'b', driver_id = 1")
        db_session.execute("UPDATE drivers SET api_name = 'C'")
        assert probes == []
        db_session.execute("UPDATE permissions SET driver_id = 2")
        assert probes == ["drivers"]

    def test_duplicate_table(self, db_session):
        with pytest.raises(SqlExecutionError):
            db_session.execute("CREATE TABLE drivers (x INTEGER)")
        db_session.execute("CREATE TABLE IF NOT EXISTS drivers (x INTEGER)")

    def test_missing_table(self, db_session):
        with pytest.raises(TableNotFound):
            db_session.execute("SELECT * FROM nothing")
        with pytest.raises(TableNotFound):
            db_session.execute("DROP TABLE nothing")
        db_session.execute("DROP TABLE IF EXISTS nothing")


class TestTransactions:
    def test_rollback_undoes_insert_update_delete(self, db_session):
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'A')")
        db_session.execute("BEGIN")
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (2, 'B')")
        db_session.execute("UPDATE drivers SET platform = 'x' WHERE driver_id = 1")
        db_session.execute("DELETE FROM drivers WHERE driver_id = 1")
        db_session.execute("ROLLBACK")
        result = db_session.execute("SELECT driver_id, platform FROM drivers ORDER BY driver_id")
        assert result.rows == [(1, None)]

    def test_rolled_back_key_update_releases_the_new_key(self, db_session):
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (2, 'ODBC')")
        db_session.begin()
        db_session.execute("UPDATE drivers SET driver_id = 50 WHERE driver_id = 2")
        db_session.rollback()
        drivers = _table(db_session, "drivers")
        assert drivers.pk_index_consistent()
        assert db_session.execute("SELECT api_name FROM drivers WHERE driver_id = 50").rows == []
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (50, 'JDBC')")
        rows = db_session.execute("SELECT driver_id, api_name FROM drivers").rows
        assert rows == [(2, "ODBC"), (50, "JDBC")]
        assert drivers.pk_index_consistent()

    def test_commit_persists(self, db_session):
        db_session.execute("BEGIN")
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (1, 'A')")
        db_session.execute("COMMIT")
        assert db_session.execute("SELECT COUNT(*) FROM drivers").scalar() == 1

    def test_commit_without_begin(self, db_session):
        with pytest.raises(TransactionError):
            db_session.execute("COMMIT")

    def test_nested_begin_rejected(self, db_session):
        db_session.execute("BEGIN")
        with pytest.raises(TransactionError):
            db_session.execute("BEGIN")
        db_session.execute("ROLLBACK")

    def test_abort_rolls_back(self, db_session):
        db_session.execute("BEGIN")
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (5, 'A')")
        assert db_session.in_transaction
        assert db_session.abort() is True
        assert not db_session.in_transaction
        assert db_session.execute("SELECT COUNT(*) FROM drivers").scalar() == 0

    def test_close_aborts_open_transaction(self, db_session):
        db_session.execute("BEGIN")
        db_session.execute("INSERT INTO drivers (driver_id, api_name) VALUES (5, 'A')")
        db_session.close()
        assert db_session.closed


class TestEngineCatalog:
    def test_information_schema_tables_view(self, db_session):
        rows = db_session.execute(
            "SELECT table_name FROM information_schema.tables"
        ).rows
        assert ("drivers",) in rows

    def test_reading_a_catalog_does_not_grow_it(self, db_session):
        for _ in range(100):
            rows = db_session.execute(
                "SELECT column_name FROM information_schema.columns WHERE table_name = 'drivers'"
            ).rows
            db_session.execute("SELECT table_name FROM information_schema.tables")
        assert len(rows) == 4
        columns = _table(db_session, "information_schema.columns")
        tables = _table(db_session, "information_schema.tables")
        assert len(columns) == 4 and len(tables) == 1
        # No dead slot is left behind either: a row's index is its rank.
        assert [index for index, _row in columns.enumerate_rows()] == [0, 1, 2, 3]

    def test_len_counts_live_rows(self, db_session):
        for driver_id in (1, 2, 3):
            db_session.execute(
                "INSERT INTO drivers (driver_id, api_name) VALUES ($id, 'JDBC')",
                params={"id": driver_id},
            )
        db_session.execute("DELETE FROM drivers WHERE driver_id = 2")
        assert len(_table(db_session, "drivers")) == 2

    def test_engine_users(self):
        engine = Engine()
        engine.create_database("db")
        assert engine.authenticate(None, None)  # no users configured
        engine.create_user("alice", "secret")
        assert engine.authenticate("alice", "secret")
        assert not engine.authenticate("alice", "wrong")
        assert not engine.authenticate(None, "secret")

    def test_open_session_unknown_database(self):
        engine = Engine()
        with pytest.raises(SqlExecutionError):
            engine.open_session("missing")

    def test_drop_database(self):
        engine = Engine()
        engine.create_database("db")
        assert engine.drop_database("db")
        assert not engine.drop_database("db")
