"""The engine's SQL dialect where it differs from sqlite3's.

One test per row of the dialect table in docs/architecture.md ("The
oracle"): each runs one text on an engine session and on sqlite3 and pins
both answers, so a change on either side shows here. The sqlite3 oracle
(tests/test_sql_sqlite_oracle.py) keeps its strategy out of exactly these
cases.
"""

import sqlite3

import pytest

from repro.sqlengine import Engine
from repro.sqlengine.errors import ColumnNotFound, ConstraintViolation, SqlExecutionError, SqlParseError

_ROWS = [(0, None), (1, 1), (2, 2)]


@pytest.fixture
def sides():
    """``t(id, v)`` holding ``_ROWS`` on both sides: (engine session, sqlite3 connection)."""
    engine = Engine(clock=lambda: 1000.0)
    engine.create_database("db")
    session = engine.open_session("db")
    session.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    connection = sqlite3.connect(":memory:", isolation_level=None)
    connection.execute("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER) STRICT")
    for row in _ROWS:
        session.execute("INSERT INTO t VALUES (?, ?)", positional=row)
        connection.execute("INSERT INTO t VALUES (?, ?)", row)
    yield session, connection
    connection.close()


def _both(sides, sql):
    session, connection = sides
    return session.execute(sql).rows, connection.execute(sql).fetchall()


def test_a_comparison_with_null_is_false_not_unknown(sides):
    """``NOT (v = 1)`` keeps the row whose ``v`` is NULL; SQLite drops it."""
    ours, theirs = _both(sides, "SELECT id FROM t WHERE NOT (v = 1)")
    assert ours == [(0,), (2,)] and theirs == [(2,)]


def test_null_sorts_as_the_largest_value(sides):
    assert _both(sides, "SELECT v FROM t ORDER BY v") == ([(1,), (2,), (None,)], [(None,), (1,), (2,)])
    assert _both(sides, "SELECT v FROM t ORDER BY v DESC") == ([(None,), (2,), (1,)], [(2,), (1,), (None,)])


def test_true_matches_every_non_zero_integer(sides):
    assert _both(sides, "SELECT id FROM t WHERE id = TRUE") == ([(1,), (2,)], [(1,)])


def test_a_number_and_a_text_compare_as_text(sides):
    """``id = '01'`` compares ``'1'`` with ``'01'``; SQLite gives the text
    the column's affinity and matches id 1."""
    assert _both(sides, "SELECT id FROM t WHERE id = '01'") == ([], [(1,)])


def test_an_unknown_column_or_a_missing_parameter_raises_only_on_a_row(sides):
    session, connection = sides
    assert session.execute("SELECT nosuch FROM t WHERE id = 99").rows == []
    assert session.execute("SELECT id FROM t WHERE id = 99 AND v = $missing").rows == []
    with pytest.raises(ColumnNotFound):
        session.execute("SELECT nosuch FROM t WHERE id = 1")
    with pytest.raises(sqlite3.OperationalError):
        connection.execute("SELECT nosuch FROM t WHERE id = 99")
    with pytest.raises(sqlite3.ProgrammingError):
        connection.execute("SELECT id FROM t WHERE id = 99 AND v = $missing", {})


def test_a_select_rowcount_is_its_row_count(sides):
    session, connection = sides
    assert session.execute("SELECT * FROM t").rowcount == 3
    assert connection.execute("SELECT * FROM t").rowcount == -1


def test_division_is_not_in_the_grammar_and_now_reads_the_engine_clock(sides):
    session, connection = sides
    with pytest.raises(SqlParseError):
        session.execute("SELECT 7 / 2")
    assert connection.execute("SELECT 7 / 2").fetchall() == [(3,)]
    assert session.execute("SELECT now()").rows == [(1000.0,)]
    with pytest.raises(sqlite3.OperationalError):
        connection.execute("SELECT now()")


def test_arithmetic_on_a_text_operand_is_the_statements_error(sides):
    """``v + '5'`` raises; SQLite reads the text as a number and answers 6."""
    session, connection = sides
    for text in ("SELECT v + '5' FROM t WHERE id = 1", "SELECT -'5' FROM t WHERE id = 1"):
        with pytest.raises(SqlExecutionError):
            session.execute(text)
    assert connection.execute("SELECT v + '5' FROM t WHERE id = 1").fetchall() == [(6,)]
    assert connection.execute("SELECT -'5' FROM t WHERE id = 1").fetchall() == [(-5,)]


def test_a_failing_statement_keeps_the_rows_it_changed_before_the_error(sides):
    """Row 0 takes id 5, then row 1 collides; SQLite undoes the statement."""
    session, connection = sides
    with pytest.raises(ConstraintViolation):
        session.execute("UPDATE t SET id = 5")
    with pytest.raises(sqlite3.IntegrityError):
        connection.execute("UPDATE t SET id = 5")
    assert _both(sides, "SELECT id, v FROM t ORDER BY id") == ([(1, 1), (2, 2), (5, None)], _ROWS)


def test_a_null_integer_key_is_refused(sides):
    """SQLite gives a NULL INTEGER PRIMARY KEY the next rowid, NOT NULL or not."""
    session, connection = sides
    with pytest.raises(ConstraintViolation):
        session.execute("INSERT INTO t (v) VALUES (7)")
    connection.execute("INSERT INTO t (v) VALUES (7)")
    assert connection.execute("SELECT id FROM t WHERE v = 7").fetchall() == [(3,)]
