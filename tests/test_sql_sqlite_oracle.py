"""The engine against sqlite3: one session each, the same statements.

Each example draws two tables — a parent ``p`` and a child ``ch`` whose
``pid`` REFERENCES ``p(id)`` — and a run of INSERT, UPDATE, DELETE, SELECT
(WHERE, ORDER BY, LIMIT, aggregates) and BEGIN/COMMIT/ROLLBACK. The DDL is
rendered per side from the engine's parsed schema (SQLite gets ``STRICT``
tables, so an ill-typed value is an error on both sides); every other text
is sent to both unchanged, SQLite binding ``$name`` and ``?`` as the engine
does. After each step the two agree on the rows a SELECT returns (a
multiset unless its ORDER BY fixes the order), a DML rowcount, whether the
statement failed (not the error's class), ``in_transaction`` and the rows
of every table.

The strategy stays inside the dialect the two share. Each row of the
dialect table in docs/architecture.md ("The oracle"), pinned by
tests/test_sql_dialect.py, is one rule here:
- NULL compared is false, not unknown: a ``NOT`` wraps only NOT NULL
  columns (and ``IS NULL``), and no NULL constant sits under a negation;
- NULL sorts last: ORDER BY names only NOT NULL columns;
- TRUE is not 1: no boolean is drawn;
- errors raised per row: no unknown column, every parameter supplied;
- a SELECT's rowcount is not compared;
- no ``/`` and no ``now()``, and no ``length()`` (it takes text only);
- a number and a text compare as text: a comparison's constants have
  the column's type (a stored value may be ill-typed: both coerce it);
- a NULL INTEGER key is refused: every INSERT gives a key.
"""

import sqlite3
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sqlengine import Engine
from repro.sqlengine.errors import SqlEngineError
from repro.sqlengine.parser import parse
from repro.sqlengine.types import SqlType

_SQLITE_TYPES = {SqlType.INTEGER: "INTEGER", SqlType.BIGINT: "INTEGER", SqlType.VARCHAR: "TEXT"}
#: Values by (is ``p.id`` or ``ch.pid``, is an integer): those two take
#: few values, so a parent row and its children meet.
_VALUES = {
    (False, True): st.integers(min_value=-1, max_value=6),
    (False, False): st.sampled_from(["a", "b", "B", "ab", "", "5", "05", "x_y"]),
    (True, True): st.integers(min_value=0, max_value=2),
    (True, False): st.sampled_from(["a", "B", "05"]),
}
_PATTERNS = st.sampled_from(["%", "a%", "_", "%5", "B%", "x_%", ""])
_COMPARISONS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def _sqlite_ddl(ddl):
    """``ddl``, an engine CREATE TABLE, as SQLite's STRICT table."""
    schema = parse(ddl).schema
    columns = [
        f"{column.name} {_SQLITE_TYPES[column.sql_type]}"
        + " NOT NULL" * column.not_null
        + (f" REFERENCES {column.references.table}({column.references.column})" if column.references else "")
        for column in schema.columns
    ]
    key = ", ".join(schema.primary_key_columns)
    return f"CREATE TABLE {schema.name} ({', '.join(columns)}, PRIMARY KEY ({key})) STRICT"


class _Text:
    """One statement's text, built left to right, and the values it binds:
    by name or by position (never both, as sqlite3 requires)."""

    def __init__(self, draw, named):
        self.draw, self.named = draw, named
        self.params, self.positional = {}, []

    def value(self, value):
        if self.draw(st.booleans()):
            if value is None:
                return "NULL"
            return repr(value) if isinstance(value, int) else f"'{value}'"
        if self.named:
            name = f"p{len(self.params)}"
            self.params[name] = value
            return f"${name}"
        self.positional.append(value)
        return "?"

    def constant(self, name, is_int, null=True):
        """A constant for column ``name``, of its type if ``is_int`` says so;
        NULL one time in four if ``null``."""
        if null and self.draw(st.integers(0, 3)) == 0:
            return self.value(None)
        return self.value(self.draw(_VALUES[name in ("id", "pid"), is_int]))

    def predicate(self, columns, depth=0, under_not=False):
        """A WHERE over ``columns`` (name, is_int, nullable)."""
        draw = self.draw
        kinds = ["cmp", "cmp", "in", "between", "like", "is_null"] + ["and", "or", "not"] * (depth < 2)
        kind = draw(st.sampled_from(kinds))
        if kind in ("and", "or"):
            left = self.predicate(columns, depth + 1, under_not)
            return f"({left} {kind.upper()} {self.predicate(columns, depth + 1, under_not)})"
        if kind == "not":
            return f"NOT ({self.predicate(columns, depth + 1, True)})"
        if kind == "is_null":
            return f"{draw(st.sampled_from(columns))[0]} IS {'NOT ' * draw(st.booleans())}NULL"
        name, is_int, _nullable = draw(st.sampled_from([c for c in columns if not (under_not and c[2])]))
        if kind == "cmp":
            shifted = f"{name} {draw(st.sampled_from('+-'))} {draw(st.integers(0, 3))}" if is_int else f"lower({name})"
            operand = shifted if draw(st.booleans()) else name
            return f"{operand} {draw(_COMPARISONS)} {self.constant(name, is_int, null=not under_not)}"
        negation = "NOT " * draw(st.booleans())
        null = not (under_not or negation)
        if kind == "in":
            choices = [self.constant(name, is_int, null) for _ in range(draw(st.integers(1, 3)))]
            return f"{name} {negation}IN ({', '.join(choices)})"
        if kind == "between":
            low = self.constant(name, is_int, null)
            return f"{name} {negation}BETWEEN {low} AND {self.constant(name, is_int, null)}"
        return f"{name} {negation}LIKE {self.value(draw(_PATTERNS))}"

    def where(self, columns):
        return f" WHERE {self.predicate(columns)}" if self.draw(st.booleans()) else ""


@st.composite
def _schemas(draw):
    key = draw(st.sampled_from(["INTEGER", "BIGINT", "VARCHAR"]))
    name_null, score_null = (draw(st.sampled_from(["", " NOT NULL"])) for _ in range(2))
    ddl = [
        f"CREATE TABLE p (id {key} PRIMARY KEY, name VARCHAR{name_null}, score INTEGER{score_null})",
        f"CREATE TABLE ch (cid INTEGER PRIMARY KEY, pid {key} REFERENCES p(id), note VARCHAR)",
    ]
    tables = {}
    for text in ddl:
        schema = parse(text).schema
        tables[schema.name] = [
            (column.name, column.sql_type is not SqlType.VARCHAR, not column.not_null) for column in schema.columns
        ]
    return ddl, tables


def _insert(text, table, columns):
    draw = text.draw
    others = st.one_of(st.just(columns[1:]), st.lists(st.sampled_from(columns[1:]), unique=True))
    names = columns[:1] + draw(others)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        values = [text.constant(*columns[0][:2], null=False)]
        for name, is_int, nullable in names[1:]:
            # One value in five has the other type: both sides coerce it, or both refuse it.
            mistyped = draw(st.integers(0, 4)) == 0
            values.append(text.constant(name, is_int != mistyped, null=nullable or draw(st.booleans())))
        rows.append(f"({', '.join(values)})")
    listed = "" if names == columns else f" ({', '.join(name for name, _, _ in names)})"
    return f"INSERT INTO {table}{listed} VALUES {', '.join(rows)}"


def _update(text, table, columns):
    draw = text.draw
    key, key_is_int, _ = columns[0]
    if draw(st.integers(0, 3)) == 0:
        # A new key is a constant: a per-row one would be checked in each side's own row order.
        return f"UPDATE {table} SET {key} = {text.constant(key, key_is_int, False)}{text.where(columns)}"
    name, is_int, nullable = draw(st.sampled_from(columns[1:]))
    if draw(st.booleans()):
        value = f"{name} + {text.constant(name, True, False)}" if is_int else f"lower({name})"
    else:
        value = text.constant(name, is_int, null=nullable or draw(st.booleans()))
    return f"UPDATE {table} SET {name} = {value}{text.where(columns)}"


def _delete(text, table, columns):
    return f"DELETE FROM {table}{text.where(columns)}"


def _select(text, table, columns):
    """A SELECT and whether its ORDER BY fixes the order of its rows."""
    draw = text.draw
    ints = [name for name, is_int, _ in columns if is_int]
    texts = [name for name, is_int, _ in columns if not is_int]
    if draw(st.integers(0, 3)) == 0:
        items = draw(st.lists(st.sampled_from(
            ["COUNT(*)"] + [f"{f}({c})" for c in ints for f in ("SUM", "AVG")]
            + [f"{f}({name})" for name, _, _ in columns for f in ("COUNT", "MAX", "MIN")]
        ), min_size=1, max_size=3))
        return f"SELECT {', '.join(items)} FROM {table}{text.where(columns)}", False
    items = draw(st.sampled_from([
        "*",
        f"{columns[0][0]}, {columns[1][0]}",
        f"{draw(st.sampled_from(ints))} + ?",
        f"lower({draw(st.sampled_from(texts))})",
    ]))
    if "?" in items:
        items = items.replace("?", text.constant("score", True, False))
    sql = f"SELECT {items} FROM {table}{text.where(columns)}"
    if not draw(st.booleans()):
        return sql, False
    firm = [name for name, _, nullable in columns[1:] if not nullable]
    order = draw(st.lists(st.sampled_from(firm), unique=True, max_size=1)) if firm else []
    directions = st.sampled_from(["", " ASC", " DESC"])
    sql += " ORDER BY " + ", ".join(f"{name}{draw(directions)}" for name in order + [columns[0][0]])
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 4))}"
    return sql, True


_STEPS = {"insert": _insert, "update": _update, "delete": _delete}


@st.composite
def _programs(draw):
    ddl, tables = draw(_schemas())
    steps = []
    # The first steps fill the parent, then the child, so that a child row
    # finds a parent to reference and a parent row a child that holds it.
    filling = ["p"] * draw(st.integers(1, 3)) + ["ch"] * draw(st.integers(0, 3))
    for step in range(len(filling) + draw(st.integers(min_value=1, max_value=12))):
        kinds = ["insert"] * 3 + ["update", "delete"] * 2 + ["select"] * 2 + ["tx"]
        kind = "insert" if step < len(filling) else draw(st.sampled_from(kinds))
        if kind == "tx":
            steps.append((draw(st.sampled_from(["BEGIN", "COMMIT", "ROLLBACK"])), {}, [], False))
            continue
        table = filling[step] if step < len(filling) else draw(st.sampled_from(sorted(tables)))
        text = _Text(draw, named=draw(st.booleans()))
        ordered = False
        if kind == "select":
            sql, ordered = _select(text, table, tables[table])
        else:
            sql = _STEPS[kind](text, table, tables[table])
        steps.append((sql, text.params, text.positional, ordered))
    return ddl, sorted(tables), steps


def _engine_side(session, sql, params, positional):
    try:
        return session.execute(sql, params=params, positional=positional)
    except SqlEngineError:
        return None


def _sqlite_side(connection, sql, params, positional):
    try:
        return connection.execute(sql, params if params else positional)
    except sqlite3.Error:
        return None


#: A parent row deleted while a child row references it: SQLite refuses
#: the DELETE, and the child row stays updatable.
_ORPHAN = (
    [
        "CREATE TABLE p (id INTEGER PRIMARY KEY, name VARCHAR, score INTEGER)",
        "CREATE TABLE ch (cid INTEGER PRIMARY KEY, pid INTEGER REFERENCES p(id), note VARCHAR)",
    ],
    ["ch", "p"],
    [
        ("INSERT INTO p VALUES (1, 'a', 1)", {}, [], False),
        ("INSERT INTO ch VALUES (1, 1, 'a')", {}, [], False),
        ("DELETE FROM p WHERE id = 1", {}, [], False),
        ("UPDATE ch SET note = 'b' WHERE cid = 1", {}, [], False),
    ],
)


@settings(max_examples=300, deadline=None)
@given(_programs())
@example(_ORPHAN)
def test_engine_answers_as_sqlite(program):
    ddl, tables, steps = program
    engine = Engine()
    engine.create_database("db")
    session = engine.open_session("db")
    connection = sqlite3.connect(":memory:", isolation_level=None)
    try:
        connection.execute("PRAGMA foreign_keys=ON")
        for text in ddl:
            session.execute(text)
            connection.execute(_sqlite_ddl(text))
        for sql, params, positional, ordered in steps:
            ours = _engine_side(session, sql, params, positional)
            theirs = _sqlite_side(connection, sql, params, positional)
            assert (ours is None) == (theirs is None), (sql, params, positional)
            if ours is not None and sql.startswith("SELECT"):
                rows, expected = ours.rows, theirs.fetchall()
                assert rows == expected if ordered else Counter(rows) == Counter(expected), sql
            elif ours is not None and not sql.startswith(("BEGIN", "COMMIT", "ROLLBACK")):
                assert ours.rowcount == theirs.rowcount, sql
            assert session.in_transaction == connection.in_transaction, sql
            for table in tables:
                rows = session.execute(f"SELECT * FROM {table}").rows
                assert Counter(rows) == Counter(connection.execute(f"SELECT * FROM {table}").fetchall()), sql
    finally:
        connection.close()
        session.close()
