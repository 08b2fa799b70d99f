"""Property-based tests of the SQL engine's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import Engine

_ids = st.lists(st.integers(min_value=1, max_value=10_000), unique=True, min_size=1, max_size=25)
_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)


def _fresh_session():
    engine = Engine()
    engine.create_database("db")
    session = engine.open_session("db")
    session.execute(
        "CREATE TABLE items (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR, score INTEGER)"
    )
    return session


@settings(max_examples=40, deadline=None)
@given(_ids)
def test_insert_then_count_matches(ids):
    """COUNT(*) equals the number of successfully inserted rows."""
    session = _fresh_session()
    for row_id in ids:
        session.execute(
            "INSERT INTO items (id, name, score) VALUES ($id, 'n', $score)",
            params={"id": row_id, "score": row_id * 2},
        )
    assert session.execute("SELECT COUNT(*) FROM items").scalar() == len(ids)


@settings(max_examples=40, deadline=None)
@given(_ids)
def test_select_by_primary_key_finds_each_row(ids):
    session = _fresh_session()
    for row_id in ids:
        session.execute(
            "INSERT INTO items (id, name) VALUES ($id, $name)",
            params={"id": row_id, "name": f"item-{row_id}"},
        )
    for row_id in ids:
        rows = session.execute(
            "SELECT name FROM items WHERE id = $id", params={"id": row_id}
        ).rows
        assert rows == [(f"item-{row_id}",)]


@settings(max_examples=40, deadline=None)
@given(_ids, st.integers(min_value=0, max_value=10_000))
def test_delete_is_complement_of_select(ids, threshold):
    """Rows deleted by a predicate plus rows remaining equals total rows."""
    session = _fresh_session()
    for row_id in ids:
        session.execute(
            "INSERT INTO items (id, score) VALUES ($id, $score)",
            params={"id": row_id, "score": row_id},
        )
    deleted = session.execute(
        "DELETE FROM items WHERE score < $t", params={"t": threshold}
    ).rowcount
    remaining = session.execute("SELECT COUNT(*) FROM items").scalar()
    assert deleted + remaining == len(ids)
    assert remaining == sum(1 for row_id in ids if row_id >= threshold)


@settings(max_examples=40, deadline=None)
@given(_ids)
def test_transaction_rollback_restores_row_count(ids):
    """Any sequence of writes inside a transaction is fully undone by ROLLBACK."""
    session = _fresh_session()
    session.execute("INSERT INTO items (id, name) VALUES (99999, 'anchor')")
    before = session.execute("SELECT COUNT(*) FROM items").scalar()
    session.execute("BEGIN")
    for row_id in ids:
        if row_id == 99999:
            continue
        session.execute("INSERT INTO items (id) VALUES ($id)", params={"id": row_id})
    session.execute("UPDATE items SET name = 'changed' WHERE id = 99999")
    session.execute("ROLLBACK")
    assert session.execute("SELECT COUNT(*) FROM items").scalar() == before
    assert session.execute("SELECT name FROM items WHERE id = 99999").scalar() == "anchor"


@settings(max_examples=40, deadline=None)
@given(st.lists(_names, min_size=1, max_size=15))
def test_order_by_matches_python_sort(names):
    session = _fresh_session()
    for index, name in enumerate(names):
        session.execute(
            "INSERT INTO items (id, name) VALUES ($id, $name)",
            params={"id": index + 1, "name": name},
        )
    rows = session.execute("SELECT name FROM items ORDER BY name").rows
    assert [row[0] for row in rows] == sorted(names)


# -- differential oracle: index path == full scan ----------------------------
#
# Random tables, rows and predicates; the engine's answer to SELECT, UPDATE
# and DELETE on ``t`` must equal its answer on a keyless twin of ``t``: the
# same columns and rows, in the same order, with NOT NULL where ``t`` has a
# key, so every statement on it scans. Constants cross types on purpose
# (``id = TRUE``, ``id = '05'``, ``id = 5.0``): those are where a probe
# could disagree with the scan under the engine's own coercions — and where
# sqlite3, the other oracle (tests/test_sql_sqlite_oracle.py), disagrees
# with the engine. Projections and SETs hold expressions, a missing
# parameter and an unknown column, so the error a statement raises (its
# class), and the rows an UPDATE changed before it, must be the twin's too.
# Each text runs twice: the second run is served by the plan the first one
# left.

_SHAPES = {
    "int_key": "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR, score INTEGER)",
    "text_key": "CREATE TABLE t (id VARCHAR PRIMARY KEY, name VARCHAR, score INTEGER)",
    "two_column_key": "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR PRIMARY KEY, score INTEGER)",
    "no_key": "CREATE TABLE t (id INTEGER, name VARCHAR, score INTEGER)",
}
_small_ints = st.integers(min_value=-1, max_value=9)
_texts = st.sampled_from(["5", "05", "1", "a", "b", "True", ""])
_constants = st.one_of(
    _small_ints, _texts, st.sampled_from([5.0, 2.5, 0.0]), st.booleans(), st.none()
)
_columns = st.sampled_from(["id", "id", "id", "name", "score"])
_renderings = st.sampled_from(["literal", "named", "positional"])


@st.composite
def _tables(draw, shapes=tuple(sorted(_SHAPES))):
    shape = draw(st.sampled_from(shapes))
    ids = _texts if shape == "text_key" else st.integers(min_value=0, max_value=9)
    names = _texts if shape == "two_column_key" else st.one_of(_texts, st.none())
    rows = draw(st.lists(st.tuples(ids, names, st.one_of(_small_ints, st.none())), max_size=12))
    key = {"int_key": lambda r: r[0], "text_key": lambda r: r[0], "two_column_key": lambda r: r[:2]}
    if shape in key:
        rows = list({key[shape](row): row for row in rows}.values())
    return shape, rows


def _typed(draw, shape, column):
    """A constant of the column's own type, for BETWEEN (which raises on mixed types)."""
    return draw(_texts if column == "name" or (column == "id" and shape == "text_key") else _small_ints)


@st.composite
def _predicates(draw, shape, depth=0):
    """A predicate as nested tuples; ``_render`` turns it into SQL."""
    kind = draw(
        st.sampled_from(["eq", "eq", "eq", "in", "is_null", "between", "like"] + ["and", "and", "or", "not"] * (depth < 3))
    )
    if kind in ("and", "or"):
        return kind, draw(_predicates(shape, depth + 1)), draw(_predicates(shape, depth + 1))
    if kind == "not":
        return kind, draw(_predicates(shape, depth + 1))
    column = draw(_columns)
    if kind == "eq":
        return kind, column, (draw(_constants), draw(_renderings)), draw(st.booleans())
    if kind == "in":
        choices = draw(st.lists(st.tuples(_constants, _renderings), min_size=1, max_size=4))
        return kind, column, choices + choices[: draw(st.integers(0, 1))], draw(st.booleans())
    if kind == "is_null":
        return kind, column, draw(st.booleans())
    if kind == "like":
        return kind, column, (draw(st.sampled_from(["5", "_5", "%", "a%", ""])), draw(_renderings)), draw(st.booleans())
    low, high = _typed(draw, shape, column), _typed(draw, shape, column)
    return kind, column, (low, "literal"), (high, draw(_renderings)), draw(st.booleans())


class _Rendering:
    """SQL text built left to right, collecting the parameters it refers to."""

    def __init__(self):
        self.params, self.positional = {}, []

    def constant(self, constant):
        value, how = constant
        if how == "named":
            name = f"p{len(self.params)}"
            self.params[name] = value
            return f"${name}"
        if how == "positional":
            self.positional.append(value)
            return "?"
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        return "'" + value + "'" if isinstance(value, str) else repr(value)

    def predicate(self, node):
        kind = node[0]
        if kind in ("and", "or"):
            return f"({self.predicate(node[1])} {kind.upper()} {self.predicate(node[2])})"
        if kind == "not":
            return f"NOT ({self.predicate(node[1])})"
        column = node[1]
        if kind == "eq":
            constant = self.constant(node[2])
            return f"{constant} = {column}" if node[3] else f"{column} = {constant}"
        if kind == "in":
            choices = ", ".join(self.constant(choice) for choice in node[2])
            return f"{column} {'NOT ' if node[3] else ''}IN ({choices})"
        if kind == "is_null":
            return f"{column} IS {'NOT ' if node[2] else ''}NULL"
        if kind == "like":
            return f"{column} {'NOT ' if node[3] else ''}LIKE {self.constant(node[2])}"
        low, high = self.constant(node[2]), self.constant(node[3])
        return f"{column} {'NOT ' if node[4] else ''}BETWEEN {low} AND {high}"


#: SELECT lists and SET lists; ``?`` is the step's drawn constant.
_PROJECTIONS = ["id, name, score", "*", "score + ?", "lower(name)", "id, nosuch", "$missing"]
_ASSIGNMENTS = ["score = ?", "score = score + 1", "score = score + ?", "score = $missing", "nosuch = 1"]


def _outcome(session, table, sql, params, positional):
    """(the error class ``sql`` raises or None, its result rows and
    rowcount, the table's rows afterwards)."""
    try:
        result = session.execute(sql, params=params, positional=positional)
    except Exception as error:  # noqa: BLE001 - the class is what is compared
        outcome = type(error), None, None
    else:
        outcome = None, result.rows, result.rowcount
    return outcome + (list(table.enumerate_rows()),)


@st.composite
def _scenarios(draw):
    # A keyless ``t`` would be its own twin: both sides would scan.
    shape, rows = draw(_tables(tuple(sorted(set(_SHAPES) - {"no_key"}))))
    kinds = ["select", "update", "delete"] + ["move_key"] * (shape in ("int_key", "two_column_key"))
    variants = {"select": st.sampled_from(_PROJECTIONS), "update": st.sampled_from(_ASSIGNMENTS)}
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(kinds))
        variant = draw(variants[kind]) if kind in variants else None
        # One step in four has no WHERE, so projections and SETs meet rows more often.
        predicate = draw(st.one_of(st.none(), _predicates(shape), _predicates(shape), _predicates(shape)))
        steps.append((kind, variant, predicate, draw(st.booleans()), draw(_constants)))
    return shape, rows, steps


@settings(max_examples=300, deadline=None)
@given(_scenarios())
def test_index_path_equals_full_scan(scenario):
    shape, rows, steps = scenario
    sides = []
    for ddl in (_SHAPES[shape], _SHAPES[shape].replace("PRIMARY KEY", "NOT NULL")):
        engine = Engine()
        engine.create_database("db")
        session = engine.open_session("db")
        session.execute(ddl)
        for row_id, name, score in rows:
            session.execute("INSERT INTO t VALUES (?, ?, ?)", positional=[row_id, name, score])
        sides.append((session, engine.database("db").lookup_table("t")))
    (session, table), (twin_session, twin) = sides

    for kind, variant, predicate, rolled_back, constant in steps:
        rendering = _Rendering()
        if variant is not None and "?" in variant:
            # Bound first, so the predicate's own ``?`` values follow it.
            variant = variant.replace("?", rendering.constant((constant, "positional")))
        if kind == "select":
            head = f"SELECT {variant} FROM t"
        elif kind == "update":
            head = f"UPDATE t SET {variant}"
        elif kind == "move_key":
            head = "UPDATE t SET id = id + 100"
        else:
            head = "DELETE FROM t"
        sql = head if predicate is None else f"{head} WHERE {rendering.predicate(predicate)}"
        params, positional = rendering.params, rendering.positional

        before = list(table.enumerate_rows())
        if rolled_back:
            session.execute("BEGIN")
            twin_session.execute("BEGIN")
        for _run in range(2):
            expected = _outcome(twin_session, twin, sql, params, positional)
            assert _outcome(session, table, sql, params, positional) == expected, sql
            assert table.pk_index_consistent(), sql
        if rolled_back:
            session.execute("ROLLBACK")
            twin_session.execute("ROLLBACK")
            assert list(table.enumerate_rows()) == before == list(twin.enumerate_rows()), sql
            assert table.pk_index_consistent(), sql
