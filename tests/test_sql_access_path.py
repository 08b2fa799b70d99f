"""The engine's access path and statement cache (docs/architecture.md,
"Engine access path"): how many rows a statement visits, and that neither
the key index nor the cache can serve something stale.

These count work, never time. Equality of *results* between the index and
the scan is the differential property in tests/test_sql_property.py.
"""

import sys
import threading

import pytest

from repro.sqlengine import Engine, TableNotFound, expressions, parser
from repro.sqlengine import engine as engine_module

ROWS = 2000


def _session(engine=None):
    engine = engine or Engine()
    engine.create_database("db")
    return engine.open_session("db")


@pytest.fixture(scope="module")
def accounts():
    session = _session()
    session.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INTEGER)")
    for row_id in range(ROWS):
        session.execute(
            "INSERT INTO accounts (id, balance) VALUES ($i, $b)", params={"i": row_id, "b": row_id % 7}
        )
    return session


@pytest.fixture
def visited(monkeypatch, accounts):
    """Counts the rows a predicate on ``id`` / ``balance`` is evaluated on:
    each of the predicates below reads its column once per row it sees.

    The count is kept by the compiled column read, so the plans compiled
    before the count began (kept by the database, one per text) are
    forgotten first, and those compiled with the count after it ends."""
    counts = {"id": 0, "balance": 0}
    compile_column = expressions.ColumnRef.compile

    def counting(self, resolve, clock):
        read = compile_column(self, resolve, clock)
        if self.name not in counts:
            return read

        def counted(row, params, positional):
            counts[self.name] += 1
            return read(row, params, positional)

        return counted

    database = accounts._engine.database("db")
    database.clear_plans()
    monkeypatch.setattr(expressions.ColumnRef, "compile", counting)
    yield counts
    database.clear_plans()


class TestRowsVisited:
    def test_key_select_visits_one_row(self, accounts, visited):
        rows = accounts.execute("SELECT id FROM accounts WHERE id = $i", params={"i": 1234}).rows
        assert rows == [(1234,)]
        assert visited["id"] == 2  # the predicate once, the projection once

    def test_key_update_and_delete_visit_one_row(self, accounts, visited):
        accounts.execute("BEGIN")
        try:
            updated = accounts.execute("UPDATE accounts SET balance = 9 WHERE id = ?", positional=[77])
            assert (updated.rowcount, visited["id"]) == (1, 1)
            deleted = accounts.execute("DELETE FROM accounts WHERE 78 = id")
            assert (deleted.rowcount, visited["id"]) == (1, 2)
        finally:
            accounts.execute("ROLLBACK")

    def test_in_list_visits_one_row_per_distinct_key(self, accounts, visited):
        rows = accounts.execute(
            "SELECT balance FROM accounts WHERE id IN (1500, 3, 3, 999999, $k)", params={"k": 40}
        ).rows
        assert rows == [(3 % 7,), (40 % 7,), (1500 % 7,)]
        assert visited["id"] == 3

    def test_extra_conjuncts_are_still_evaluated_on_the_candidate(self, accounts, visited):
        sql = "SELECT id FROM accounts WHERE balance = $b AND id = 10"
        assert accounts.execute(sql, params={"b": 10 % 7}).rows == [(10,)]
        assert accounts.execute(sql, params={"b": 6}).rows == []
        assert visited["balance"] == 2

    def test_a_null_key_constant_visits_nothing(self, accounts, visited):
        assert accounts.execute("SELECT id FROM accounts WHERE id = NULL").rows == []
        assert accounts.execute("SELECT id FROM accounts WHERE id IN (NULL, $n)", params={"n": None}).rows == []
        assert visited["id"] == 0

    @pytest.mark.parametrize(
        "where, params, expected",
        [
            ("id = TRUE", {}, ROWS - 1),  # a boolean compares by truth: every non-zero id
            ("id = $s", {"s": "5"}, 1),  # a string compares as text
            ("id = 5.0", {}, 1),
            ("id = 5 OR id = 6", {}, 2),
            ("NOT id = 5", {}, ROWS - 1),
            ("id NOT IN (5)", {}, ROWS - 1),
            ("id = balance", {}, 7),
        ],
    )
    def test_doubtful_predicates_scan(self, accounts, visited, where, params, expected):
        count = accounts.execute(f"SELECT COUNT(*) FROM accounts WHERE {where}", params=params).scalar()
        assert count == expected
        assert visited["id"] >= ROWS  # every row (the OR reads the column twice)

    def test_non_key_predicate_scans(self, accounts, visited):
        accounts.execute("SELECT id FROM accounts WHERE balance = 5")
        assert visited["balance"] == ROWS

    def test_missing_key_parameter_is_reported_by_the_scan(self, accounts):
        with pytest.raises(Exception, match="missing statement parameter"):
            accounts.execute("SELECT id FROM accounts WHERE id = $nope")

    @pytest.mark.parametrize(
        "conjunct, error",
        [("nosuch = 1", "unknown column"), ("balance = $nope", "missing statement parameter")],
    )
    def test_a_failing_conjunct_fails_only_on_a_row_the_probe_visits(self, accounts, conjunct, error):
        """The one difference from the scan a client can see (docs/architecture.md):
        a conjunct that cannot be evaluated raises on the candidate row, and is
        never reached when the probed key has no row. Without a key, as before,
        the scan meets it on the first row."""
        with pytest.raises(Exception, match=error):
            accounts.execute(f"SELECT id FROM accounts WHERE {conjunct} AND id = 5")
        assert accounts.execute(f"SELECT id FROM accounts WHERE {conjunct} AND id = 999999").rows == []
        assert accounts.execute(f"DELETE FROM accounts WHERE id = 999999 AND {conjunct}").rowcount == 0
        with pytest.raises(Exception, match=error):
            accounts.execute(f"SELECT id FROM accounts WHERE {conjunct}")

    def test_partly_bound_composite_key_scans_and_fully_bound_probes(self, visited):
        session = _session()
        session.execute("CREATE TABLE pairs (id INTEGER PRIMARY KEY, balance INTEGER PRIMARY KEY)")
        for row_id in range(20):
            session.execute("INSERT INTO pairs VALUES ($i, $b)", params={"i": row_id % 5, "b": row_id})
        assert session.execute("SELECT balance FROM pairs WHERE id = 3").rowcount == 4
        assert visited["id"] == 20
        assert session.execute("SELECT balance FROM pairs WHERE id = 3 AND balance = 8").rows == [(8,)]
        assert visited["id"] == 21

    def test_foreign_key_check_probes_the_parent_key(self, monkeypatch):
        session = _session()
        session.execute("CREATE TABLE parent (id INTEGER PRIMARY KEY)")
        session.execute("CREATE TABLE child (id INTEGER PRIMARY KEY, parent_id INTEGER REFERENCES parent(id))")
        for row_id in range(50):
            session.execute("INSERT INTO parent VALUES ($i)", params={"i": row_id})
        parent = session._engine.database("db").lookup_table("parent")
        monkeypatch.setattr(parent, "rows", lambda: pytest.fail("the parent table was scanned"))
        session.execute("INSERT INTO child VALUES (1, 49)")
        with pytest.raises(Exception, match="foreign key violation"):
            session.execute("INSERT INTO child VALUES (2, 50)")


class TestStatementCache:
    def test_a_repeated_text_is_tokenized_once(self, accounts, monkeypatch):
        calls = []
        tokenize = parser.tokenize
        monkeypatch.setattr(parser, "tokenize", lambda sql: calls.append(sql) or tokenize(sql))
        sql = "SELECT balance FROM accounts WHERE id = $tokenized_once"
        for row_id in (1, 2, 3):
            assert accounts.execute(sql, params={"tokenized_once": row_id}).rows == [(row_id % 7,)]
        assert calls == [sql]

    def test_same_text_after_the_key_moved_to_another_column(self):
        session = _session()
        select = "SELECT a, b FROM moved WHERE a = 1"
        session.execute("CREATE TABLE moved (a INTEGER PRIMARY KEY, b INTEGER)")
        session.execute("INSERT INTO moved VALUES (1, 2), (2, 1)")
        assert session.execute(select).rows == [(1, 2)]
        session.execute("DROP TABLE moved")
        session.execute("CREATE TABLE moved (a INTEGER, b INTEGER PRIMARY KEY)")
        session.execute("INSERT INTO moved VALUES (1, 2), (1, 3), (2, 1)")
        assert session.execute(select).rows == [(1, 2), (1, 3)]
        assert session.execute("SELECT a, b FROM moved WHERE b = 1").rows == [(2, 1)]

    def test_engines_running_the_same_ddl_text_share_no_schema(self):
        ddl = "CREATE TABLE shared_text (id INTEGER PRIMARY KEY, v VARCHAR)"
        tables = []
        for _ in range(2):
            engine = Engine()
            _session(engine).execute(ddl)
            tables.append(engine.database("db").lookup_table("shared_text"))
        assert tables[0].schema is not tables[1].schema
        assert tables[0].schema == tables[1].schema

    def test_sessions_share_the_cache_while_it_churns(self):
        """Eight sessions repeat one text while a ninth pushes more distinct
        texts through the cache than it holds: every answer is the right
        row, nothing raises, the statement cache and the database's plan
        cache stay within their bound."""
        engine = Engine()
        _session(engine).execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        setup = engine.open_session("db")
        for row_id in range(64):
            setup.execute("INSERT INTO t VALUES ($i, $v)", params={"i": row_id, "v": row_id * 3})
        failures = []

        def hammer(worker):
            session = engine.open_session("db")
            try:
                for step in range(400):
                    row_id = (worker * 7 + step) % 64
                    rows = session.execute("SELECT v FROM t WHERE id = $i", params={"i": row_id}).rows
                    if rows != [(row_id * 3,)]:
                        failures.append((worker, row_id, rows))
            except Exception as error:  # noqa: BLE001 - reported by the assertion below
                failures.append((worker, error))

        def churn():
            session = engine.open_session("db")
            try:
                for step in range(2 * parser.STATEMENT_CACHE_SIZE + 50):
                    rows = session.execute(f"SELECT v FROM t WHERE id = {step % 64} AND {step} = {step}").rows
                    if rows != [(step % 64 * 3,)]:
                        failures.append(("churn", step, rows))
            except Exception as error:  # noqa: BLE001
                failures.append(("churn", error))

        threads = [threading.Thread(target=hammer, args=(worker,)) for worker in range(8)]
        threads.append(threading.Thread(target=churn))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(parser._cache) <= parser.STATEMENT_CACHE_SIZE
        assert len(engine.database("db")._plans) <= parser.STATEMENT_CACHE_SIZE


class TestPlanCache:
    """The database keeps a plan per SQL text (docs/architecture.md, "Engine
    access path"): a repeated text is not parsed again, and no plan outlives
    the catalog it was built against."""

    @staticmethod
    def _parses(monkeypatch):
        calls = []
        parse = engine_module.parse
        monkeypatch.setattr(engine_module, "parse", lambda sql: calls.append(sql) or parse(sql))
        return calls

    def test_a_repeated_text_is_parsed_once(self, monkeypatch):
        session = _session()
        session.execute("CREATE TABLE once (id INTEGER PRIMARY KEY, v INTEGER)")
        parses = self._parses(monkeypatch)
        for row_id in range(3):
            session.execute("INSERT INTO once VALUES (?, ?)", positional=[row_id, row_id * 2])
            assert session.execute("SELECT v FROM once WHERE id = ?", positional=[row_id]).rows == [(row_id * 2,)]
        assert parses == ["INSERT INTO once VALUES (?, ?)", "SELECT v FROM once WHERE id = ?"]

    @pytest.mark.parametrize(
        "second",
        [
            "CREATE TABLE moved (a INTEGER, b INTEGER PRIMARY KEY)",  # another key
            "CREATE TABLE moved (A INTEGER PRIMARY KEY, B INTEGER)",  # another column case
        ],
    )
    def test_drop_and_create_under_the_same_text_replans(self, second, monkeypatch):
        session = _session()
        select = "SELECT a, b FROM moved WHERE a = 1"
        session.execute("CREATE TABLE moved (a INTEGER PRIMARY KEY, b INTEGER)")
        session.execute("INSERT INTO moved VALUES (1, 2), (2, 1)")
        assert session.execute(select).rows == [(1, 2)]
        session.execute("DROP TABLE moved")
        session.execute(second)
        session.execute("INSERT INTO moved VALUES (1, 3), (2, 1)")
        parses = self._parses(monkeypatch)
        assert session.execute(select).rows == [(1, 3)]
        assert session.execute("UPDATE moved SET b = 4 WHERE a = 1").rowcount == 1
        assert session.execute(select).rows == [(1, 4)]
        assert parses == [select, "UPDATE moved SET b = 4 WHERE a = 1"]

    def test_a_catalog_read_after_a_create_sees_the_new_table(self):
        session = _session()
        read = "SELECT column_name FROM information_schema.columns WHERE table_name = 'fresh'"
        assert session.execute(read).rows == []
        session.execute("CREATE TABLE fresh (id INTEGER PRIMARY KEY, note VARCHAR)")
        assert session.execute(read).rows == [("id",), ("note",)]
        tables = "SELECT table_name FROM information_schema.tables"
        assert session.execute(tables).rows == [("fresh",)]
        session.execute("CREATE TABLE later (id INTEGER)")
        assert session.execute(tables).rows == [("fresh",), ("later",)]

    def test_a_plan_built_by_one_session_is_undone_in_anothers_transaction(self):
        engine = Engine()
        first = _session(engine)
        first.execute("CREATE TABLE shared (id INTEGER PRIMARY KEY, v INTEGER)")
        first.execute("INSERT INTO shared VALUES (1, 10)")
        update, insert, delete = (
            "UPDATE shared SET v = v + 1 WHERE id = 1",
            "INSERT INTO shared VALUES (?, 0)",
            "DELETE FROM shared WHERE id = 1",
        )
        first.execute(update)
        first.execute(insert, positional=[2])
        first.execute(delete)
        first.execute("INSERT INTO shared VALUES (1, 11)")
        before = first.execute("SELECT id, v FROM shared").rows
        second = engine.open_session("db")
        second.execute("BEGIN")
        assert second.execute(update).rowcount == 1
        assert second.execute(insert, positional=[3]).rowcount == 1
        assert second.execute(delete).rowcount == 1
        second.execute("ROLLBACK")
        assert first.execute("SELECT id, v FROM shared").rows == before == [(2, 0), (1, 11)]

    def test_one_text_more_than_the_cache_holds_evicts_the_oldest_plan(self, monkeypatch):
        session = _session()
        session.execute("CREATE TABLE lru (id INTEGER PRIMARY KEY)")
        texts = [f"SELECT id FROM lru WHERE id = {n}" for n in range(parser.STATEMENT_CACHE_SIZE + 1)]
        parses = self._parses(monkeypatch)
        for text in texts:
            session.execute(text)
        session.execute(texts[-1])
        session.execute(texts[1])
        assert parses == texts
        session.execute(texts[0])
        assert parses == texts + [texts[0]]

    def test_no_plan_is_kept_for_an_insert_without_parameters(self):
        """A literal INSERT is not run again with other values, and its plan
        would hold a closure per value: it keeps none. A parameterized one
        keeps its plan."""
        session = _session()
        session.execute("CREATE TABLE bulk (id INTEGER PRIMARY KEY, v INTEGER)")
        plans = session._engine.database("db")._plans
        literal = "INSERT INTO bulk VALUES " + ", ".join(f"({n}, -{n})" for n in range(64))
        session.execute(literal)
        assert literal not in plans
        for row_id in (100, 101):
            session.execute("INSERT INTO bulk VALUES ($id, -1)", params={"id": row_id})
            session.execute("INSERT INTO bulk VALUES (?, ?)", positional=[row_id + 100, 1])
        assert {"INSERT INTO bulk VALUES ($id, -1)", "INSERT INTO bulk VALUES (?, ?)"} <= set(plans)
        assert session.execute("SELECT COUNT(*) FROM bulk").scalar() == 68

    def test_an_unknown_set_column_fails_only_on_a_row(self, accounts):
        for _run in range(2):
            assert accounts.execute("UPDATE accounts SET nosuch = 1 WHERE id = 999999").rowcount == 0
        with pytest.raises(Exception, match="has no column"):
            accounts.execute("UPDATE accounts SET nosuch = 1 WHERE id = 5")

    def test_no_plan_is_kept_for_a_missing_table(self, monkeypatch):
        session = _session()
        parses = self._parses(monkeypatch)
        for _run in range(2):
            with pytest.raises(TableNotFound):
                session.execute("SELECT id FROM later")
        session.execute("CREATE TABLE later (id INTEGER)")
        assert session.execute("SELECT id FROM later").rows == []
        assert parses == ["SELECT id FROM later"] * 2 + ["CREATE TABLE later (id INTEGER)", "SELECT id FROM later"]
