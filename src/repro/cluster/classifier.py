"""SQL-aware statement classification for the request scheduler.

The original scheduler sniffed the first word of each statement, which
misclassified ``WITH ... SELECT``, parenthesized selects and ``EXPLAIN``
as writes — broadcasting them to every backend and appending them to the
recovery log, so read-only statements were replayed during resync.

This module classifies statements on the real token stream produced by
:mod:`repro.sqlengine.tokenizer` and extracts the table names each
statement reads and writes. Table sets drive two things downstream:

- the query-result cache invalidates exactly the cached SELECTs that read
  a table the write touches,
- the recovery log only records genuine writes.

Statements the tokenizer cannot understand fall back to conservative
prefix classification (treated as writes with an unknown table set, which
invalidates the whole cache).

Table names are *canonicalised* by :func:`normalize_table_name`: quoted
identifiers lose their quotes, everything is lowercased, and the default
``public`` schema qualifier is stripped — so ``"Users"``, ``users`` and
``public.users`` produce the same key. Placement routing and query-cache
invalidation both key off these names; a spelling-dependent key would
route (or invalidate) the same table inconsistently.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Optional, Tuple

from repro.sqlengine.errors import SqlParseError
from repro.sqlengine.tokenizer import Token, tokenize


class StatementKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    TRANSACTION = "transaction"
    UNKNOWN = "unknown"


#: Commands that start a read-only statement.
_READ_COMMANDS = {"SELECT", "EXPLAIN", "SHOW", "DESCRIBE", "DESC"}
#: Commands that modify database state.
_WRITE_COMMANDS = {
    "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER",
    "TRUNCATE", "REPLACE", "MERGE", "GRANT", "REVOKE", "SET",
}
#: Transaction-control commands: broadcast but never logged for resync.
_TRANSACTION_COMMANDS = {"BEGIN", "COMMIT", "ROLLBACK", "START", "SAVEPOINT"}
#: Keywords that end a DML WHERE clause at statement depth.
_WHERE_TERMINATORS = {"ORDER", "GROUP", "HAVING", "LIMIT", "OFFSET", "RETURNING"}
#: Functions whose result changes between calls, so their SELECTs must
#: not be served from the query cache. Called forms require a following
#: ``(``; the CURRENT_* keywords also appear bare (the sqlengine parser
#: accepts both spellings).
_NONDETERMINISTIC_FUNCTIONS = {"NOW", "RANDOM", "RAND"}
_NONDETERMINISTIC_KEYWORDS = {"CURRENT_TIMESTAMP", "CURRENT_DATE", "CURRENT_TIME"}


#: One side of an extracted predicate/value, pre-parameter-resolution:
#: ``("value", literal)`` for an inline literal (NULL → ``None``,
#: TRUE/FALSE → bool), ``("param", name)`` for a named placeholder
#: (positional ``?`` keeps the name ``"?"`` — never resolvable, so the
#: scheduler falls back to a table lock), ``("opaque", None)`` for an
#: expression the classifier refuses to evaluate (``DEFAULT``, ``v + 1``,
#: a subquery…).
KeyExpr = Tuple[str, Any]


@dataclass(frozen=True)
class ClassifiedStatement:
    """What the scheduler needs to know about one SQL statement."""

    kind: StatementKind
    #: The leading command keyword after unwrapping parens/EXPLAIN/WITH
    #: (e.g. ``SELECT`` for ``WITH c AS (...) SELECT ...``).
    command: str = ""
    read_tables: FrozenSet[str] = frozenset()
    write_tables: FrozenSet[str] = frozenset()
    #: Tables named as ``REFERENCES`` targets (DDL): under partial
    #: replication every host of the created table must also host these,
    #: or per-row foreign-key checks fail on some replicas.
    referenced_tables: FrozenSet[str] = frozenset()
    #: Whether the result may be stored in the query cache.
    cacheable: bool = False
    #: Top-level AND-connected ``column = <scalar>`` conjuncts from a DML
    #: WHERE clause, as ``(column, KeyExpr)`` pairs. Sound to use for
    #: narrowing because every *conjunct* only shrinks the matched row
    #: set — so if ``pk = v`` appears here, the statement touches at most
    #: the row with that key no matter what the other conjuncts say.
    #: Empty when there is no WHERE, when a top-level OR widens the set,
    #: or when no conjunct is a simple equality.
    where_equalities: Tuple[Tuple[str, KeyExpr], ...] = ()
    #: Top-level AND-connected ``column IN (scalar, scalar, ...)``
    #: conjuncts, as ``(column, (KeyExpr, ...))`` pairs. Same soundness
    #: argument as :attr:`where_equalities`: an AND-conjunct only shrinks
    #: the matched rows, so ``pk IN (a, b)`` bounds the statement to at
    #: most the rows with those keys. ``NOT IN`` and ``IN (SELECT ...)``
    #: never match (they don't bound the row set by listed keys).
    where_in_lists: Tuple[Tuple[str, Tuple[KeyExpr, ...]], ...] = ()
    #: Columns assigned by an UPDATE's SET list. An UPDATE that assigns
    #: the primary key moves the row to a *second* key, so the scheduler
    #: must fall back to a table lock when the PK is in here.
    set_columns: FrozenSet[str] = frozenset()
    #: INSERT column list (``None`` when the statement omits it — the
    #: scheduler then maps values by catalog ordinal position).
    insert_columns: Optional[Tuple[str, ...]] = None
    #: The single VALUES row of an INSERT, positionally. ``None`` for
    #: multi-row inserts, ``INSERT ... SELECT`` and anything else that
    #: is not one literal row — those fall back to a table lock.
    insert_values: Optional[Tuple[KeyExpr, ...]] = None

    @property
    def is_read(self) -> bool:
        return self.kind is StatementKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is StatementKind.WRITE

    @property
    def is_transaction_control(self) -> bool:
        return self.kind is StatementKind.TRANSACTION

    @property
    def tables(self) -> FrozenSet[str]:
        return self.read_tables | self.write_tables

    @functools.cached_property
    def lock_tables(self) -> Optional[FrozenSet[str]]:
        """Table set a broadcast of this statement must lock, or ``None``
        when only the exclusive global lock is safe. Computed once per
        statement object, so it rides :func:`classify`'s memo.

        A genuine write locks everything it touches: its write tables
        (two writers of one table must serialise), its read tables (an
        ``INSERT INTO a SELECT FROM b`` observing different states of
        ``b`` on different replicas would diverge ``a``) and any
        ``REFERENCES`` targets (their placement is mutated at DDL time).
        An in-transaction read locks its read set the same way. ``None``
        — the exclusive fallback — for transaction control (broadcast to
        every backend, mutates the scheduler's transaction accounting),
        for unknown statements, and for any statement whose table set
        could not be extracted: not knowing what a statement conflicts
        with means conflicting with everything, so total order is the
        worst case, never violated."""
        if self.is_transaction_control or self.kind is StatementKind.UNKNOWN:
            return None
        scope = self.read_tables | self.write_tables | self.referenced_tables
        if not scope:
            return None
        if self.is_write and not self.write_tables:
            # A "write" with no extracted write target is the
            # conservative-fallback shape: unknown side effects.
            return None
        return scope


#: Schema qualifier that names the default schema: ``public.users`` and
#: ``users`` are the same table, so the qualifier is stripped from the
#: canonical form. Other schemas (``information_schema``, application
#: schemas) stay qualified — they are genuinely distinct namespaces.
_DEFAULT_SCHEMA = "public"


def normalize_table_name(name: str) -> str:
    """Canonicalise one (possibly qualified, possibly quoted) table name.

    ``"Users"`` → ``users``, ``Public."Users"`` → ``users``,
    ``myschema.Orders`` → ``myschema.orders``. This is the form stored in
    ``read_tables``/``write_tables`` and keyed on by the placement map
    and the query cache's invalidation index.
    """
    parts = [part.strip().strip('"').lower() for part in str(name).split(".")]
    parts = [part for part in parts if part]
    if len(parts) > 1 and parts[0] == _DEFAULT_SCHEMA:
        parts = parts[1:]
    return ".".join(parts)


def classify(sql: str) -> ClassifiedStatement:
    """Classify one statement (results are memoised — this is the hot path)."""
    return _classify_cached(sql)


@functools.lru_cache(maxsize=4096)
def _classify_cached(sql: str) -> ClassifiedStatement:
    if not sql or not sql.strip():
        return ClassifiedStatement(kind=StatementKind.READ)
    try:
        tokens = tokenize(sql)
    except SqlParseError:
        return _classify_by_prefix(sql)
    if not tokens:
        return ClassifiedStatement(kind=StatementKind.READ)
    return _classify_tokens(tokens)


def _classify_by_prefix(sql: str) -> ClassifiedStatement:
    """Fallback for statements the tokenizer rejects."""
    head = sql.lstrip().split(None, 1)[0].upper() if sql.strip() else ""
    if head in _READ_COMMANDS:
        # No table information, so the result can never be invalidated
        # accurately — refuse to cache it.
        return ClassifiedStatement(kind=StatementKind.READ, command=head)
    if head in _TRANSACTION_COMMANDS:
        return ClassifiedStatement(kind=StatementKind.TRANSACTION, command=head)
    # Unknown statements are conservatively treated as writes touching an
    # unknown table set (empty write_tables ⇒ full cache invalidation).
    return ClassifiedStatement(kind=StatementKind.WRITE, command=head)


def _is_ident(token: Optional[Token], value: Optional[str] = None) -> bool:
    if token is None or token.kind != "IDENT":
        return False
    if value is None:
        return True
    # Keyword matching only: a double-quoted identifier is always a name
    # ("from" is a column called from, never the FROM keyword).
    return not getattr(token, "quoted", False) and str(token.value).upper() == value


def _is_op(token: Optional[Token], value: str) -> bool:
    return token is not None and token.kind == "OP" and token.value == value


def _find_command(tokens: List[Token]) -> Tuple[str, int, FrozenSet[str], bool]:
    """Locate the main command keyword, unwrapping ``(...)``, ``EXPLAIN``
    and ``WITH`` prefixes. Returns (command, index, cte_names, explain)."""
    index = 0
    length = len(tokens)
    explain = False
    while index < length and _is_op(tokens[index], "("):
        index += 1
    if index < length and _is_ident(tokens[index], "EXPLAIN"):
        explain = True
        index += 1
        if index < length and _is_ident(tokens[index], "ANALYZE"):
            index += 1
    cte_names: set = set()
    if index < length and _is_ident(tokens[index], "WITH"):
        index += 1
        if index < length and _is_ident(tokens[index], "RECURSIVE"):
            index += 1
        while index < length and tokens[index].kind == "IDENT":
            cte_names.add(str(tokens[index].value).lower())
            index += 1
            # Optional column list: name (a, b) AS (...)
            if _is_op(tokens[index] if index < length else None, "("):
                index = _skip_balanced(tokens, index)
            if _is_ident(tokens[index] if index < length else None, "AS"):
                index += 1
            if _is_op(tokens[index] if index < length else None, "("):
                index = _skip_balanced(tokens, index)
            if _is_op(tokens[index] if index < length else None, ","):
                index += 1
                continue
            break
    if (
        index < length
        and tokens[index].kind == "IDENT"
        and not getattr(tokens[index], "quoted", False)
    ):
        return str(tokens[index].value).upper(), index, frozenset(cte_names), explain
    return "", index, frozenset(cte_names), explain


def _skip_balanced(tokens: List[Token], index: int) -> int:
    """Skip past one balanced ``( ... )`` group starting at ``index``."""
    depth = 0
    length = len(tokens)
    while index < length:
        if _is_op(tokens[index], "("):
            depth += 1
        elif _is_op(tokens[index], ")"):
            depth -= 1
            if depth == 0:
                return index + 1
        index += 1
    return index


def _read_table_name(tokens: List[Token], index: int) -> Tuple[Optional[str], int]:
    """Read a possibly dotted table name at ``index``; returns (name, next)."""
    if index >= len(tokens) or tokens[index].kind != "IDENT":
        return None, index
    name = str(tokens[index].value)
    index += 1
    if _is_op(tokens[index] if index < len(tokens) else None, ".") and (
        index + 1 < len(tokens) and tokens[index + 1].kind == "IDENT"
    ):
        name = f"{name}.{tokens[index + 1].value}"
        index += 2
    return normalize_table_name(name), index


def _find_keyword(tokens: List[Token], start: int, keyword: str) -> int:
    """Index of the first depth-0 occurrence of ``keyword`` at or after
    ``start``, or -1. Occurrences inside parens (subqueries, expression
    groups) belong to a nested scope and are skipped."""
    depth = 0
    for index in range(start, len(tokens)):
        token = tokens[index]
        if _is_op(token, "("):
            depth += 1
        elif _is_op(token, ")"):
            depth -= 1
        elif depth == 0 and _is_ident(token, keyword):
            return index
    return -1


def _scalar_expr(tokens: List[Token], index: int) -> Tuple[Optional[KeyExpr], int]:
    """Match one scalar at ``index``: a literal (with optional unary
    minus), a parameter, or the NULL/TRUE/FALSE keywords. Returns
    (KeyExpr, next_index), or (None, index) when the shape is anything
    else."""
    if index >= len(tokens):
        return None, index
    token = tokens[index]
    if token.kind in ("NUMBER", "STRING"):
        return ("value", token.value), index + 1
    if token.kind == "PARAM":
        return ("param", str(token.value)), index + 1
    if _is_op(token, "-") and index + 1 < len(tokens) and tokens[index + 1].kind == "NUMBER":
        return ("value", -tokens[index + 1].value), index + 2
    if _is_ident(token, "NULL"):
        return ("value", None), index + 1
    if _is_ident(token, "TRUE"):
        return ("value", True), index + 1
    if _is_ident(token, "FALSE"):
        return ("value", False), index + 1
    return None, index


def _read_column_name(tokens: List[Token], index: int) -> Tuple[Optional[str], int]:
    """Read a possibly qualified column reference; returns the bare
    column name (qualifier stripped, lowercased) and the next index."""
    if index >= len(tokens) or tokens[index].kind != "IDENT":
        return None, index
    name = str(tokens[index].value)
    index += 1
    while (
        _is_op(tokens[index] if index < len(tokens) else None, ".")
        and index + 1 < len(tokens)
        and tokens[index + 1].kind == "IDENT"
    ):
        name = str(tokens[index + 1].value)
        index += 2
    return name.strip('"').lower(), index


def _strip_outer_parens(tokens: List[Token]) -> List[Token]:
    while (
        len(tokens) >= 2
        and _is_op(tokens[0], "(")
        and _skip_balanced(tokens, 0) == len(tokens)
    ):
        tokens = tokens[1:-1]
    return tokens


def _match_equality(conjunct: List[Token]) -> Optional[Tuple[str, KeyExpr]]:
    """Match ``column = scalar`` (either side order) exactly — function
    calls, casts and compound expressions fail the match and the conjunct
    is simply ignored (it can only narrow the row set further)."""
    conjunct = _strip_outer_parens(conjunct)
    column, index = _read_column_name(conjunct, 0)
    if column is not None and _is_op(conjunct[index] if index < len(conjunct) else None, "="):
        expr, end = _scalar_expr(conjunct, index + 1)
        if expr is not None and end == len(conjunct):
            return column, expr
    expr, index = _scalar_expr(conjunct, 0)
    if expr is not None and _is_op(conjunct[index] if index < len(conjunct) else None, "="):
        column, end = _read_column_name(conjunct, index + 1)
        if column is not None and end == len(conjunct):
            return column, expr
    return None


def _match_in_list(conjunct: List[Token]) -> Optional[Tuple[str, Tuple[KeyExpr, ...]]]:
    """Match ``column IN (scalar, scalar, ...)`` exactly. Every element
    must be one scalar — a subquery, expression or empty list fails the
    match (the conjunct is then simply ignored, which is always safe:
    ignoring an AND-conjunct can only widen the *assumed* row set, and
    the caller falls back to a coarser lock). ``column NOT IN (...)``
    cannot match: after the column name the next token is NOT, never the
    IN keyword."""
    conjunct = _strip_outer_parens(conjunct)
    column, index = _read_column_name(conjunct, 0)
    if column is None or not _is_ident(conjunct[index] if index < len(conjunct) else None, "IN"):
        return None
    index += 1
    if not _is_op(conjunct[index] if index < len(conjunct) else None, "("):
        return None
    # The parenthesized list must be the conjunct's tail — trailing
    # tokens mean this is some larger expression we don't understand.
    if _skip_balanced(conjunct, index) != len(conjunct):
        return None
    elements: List[KeyExpr] = []
    index += 1
    end = len(conjunct) - 1  # the closing ")"
    while index < end:
        expr, index = _scalar_expr(conjunct, index)
        if expr is None:
            return None
        elements.append(expr)
        if index < end:
            if not _is_op(conjunct[index], ","):
                return None
            index += 1
            if index >= end:
                return None  # trailing comma
    if not elements:
        return None
    return column, tuple(elements)


def _extract_where_predicates(
    tokens: List[Token], start: int
) -> Tuple[Tuple[Tuple[str, KeyExpr], ...], Tuple[Tuple[str, Tuple[KeyExpr, ...]], ...]]:
    """Collect the simple equality and IN-list conjuncts of a DML WHERE
    clause. A depth-0 OR abandons extraction entirely: a disjunction
    *widens* the matched rows, so no single conjunct bounds the
    statement any more."""
    where = _find_keyword(tokens, start, "WHERE")
    if where < 0:
        return (), ()
    region: List[Token] = []
    depth = 0
    for index in range(where + 1, len(tokens)):
        token = tokens[index]
        if _is_op(token, "("):
            depth += 1
        elif _is_op(token, ")"):
            depth -= 1
            if depth < 0:
                break
        elif (
            depth == 0
            and token.kind == "IDENT"
            and not getattr(token, "quoted", False)
            and str(token.value).upper() in _WHERE_TERMINATORS
        ):
            break
        region.append(token)
    conjuncts: List[List[Token]] = [[]]
    depth = 0
    for token in region:
        if _is_op(token, "("):
            depth += 1
        elif _is_op(token, ")"):
            depth -= 1
        if depth == 0 and _is_ident(token, "OR"):
            return (), ()
        if depth == 0 and _is_ident(token, "AND"):
            conjuncts.append([])
        else:
            conjuncts[-1].append(token)
    equalities = []
    in_lists = []
    for conjunct in conjuncts:
        matched = _match_equality(conjunct)
        if matched is not None:
            equalities.append(matched)
            continue
        in_matched = _match_in_list(conjunct)
        if in_matched is not None:
            in_lists.append(in_matched)
    return tuple(equalities), tuple(in_lists)


def _extract_set_columns(tokens: List[Token], start: int) -> FrozenSet[str]:
    """Column names assigned by an UPDATE's SET list (depth-0 segment
    heads between SET and WHERE/end)."""
    set_index = _find_keyword(tokens, start, "SET")
    if set_index < 0:
        return frozenset()
    columns: set = set()
    depth = 0
    expecting_column = True
    index = set_index + 1
    while index < len(tokens):
        token = tokens[index]
        if _is_op(token, "("):
            depth += 1
        elif _is_op(token, ")"):
            depth -= 1
            if depth < 0:
                break
        elif depth == 0 and _is_ident(token, "WHERE"):
            break
        elif depth == 0 and _is_op(token, ","):
            expecting_column = True
        elif depth == 0 and expecting_column and token.kind == "IDENT":
            column, index = _read_column_name(tokens, index)
            if column is not None:
                columns.add(column)
            expecting_column = False
            continue
        index += 1
    return frozenset(columns)


def _extract_insert_shape(
    tokens: List[Token], start: int
) -> Tuple[Optional[Tuple[str, ...]], Optional[Tuple[KeyExpr, ...]]]:
    """The column list and single VALUES row of an INSERT. Multi-row
    inserts and ``INSERT ... SELECT`` return ``(columns, None)`` — the
    scheduler cannot reduce those to one key and takes a table lock."""
    into = _find_keyword(tokens, start, "INTO")
    if into < 0:
        return None, None
    _, index = _read_table_name(tokens, into + 1)
    columns: Optional[Tuple[str, ...]] = None
    if _is_op(tokens[index] if index < len(tokens) else None, "("):
        names: List[str] = []
        index += 1
        while index < len(tokens) and not _is_op(tokens[index], ")"):
            if tokens[index].kind == "IDENT":
                names.append(str(tokens[index].value).strip('"').lower())
            index += 1
        index += 1  # past the ")"
        columns = tuple(names)
    values_index = _find_keyword(tokens, index, "VALUES")
    if values_index < 0:
        return columns, None
    index = values_index + 1
    if not _is_op(tokens[index] if index < len(tokens) else None, "("):
        return columns, None
    row_end = _skip_balanced(tokens, index)
    # A second parenthesized row after a comma means multi-row.
    if (
        _is_op(tokens[row_end] if row_end < len(tokens) else None, ",")
        or row_end < len(tokens)
        and _is_op(tokens[row_end], "(")
    ):
        return columns, None
    # Split the row's tokens at depth-1 commas; each element must be one
    # scalar to stay evaluable, anything else is opaque.
    elements: List[List[Token]] = [[]]
    depth = 0
    for position in range(index, row_end):
        token = tokens[position]
        if _is_op(token, "("):
            depth += 1
            if depth == 1:
                continue
        elif _is_op(token, ")"):
            depth -= 1
            if depth == 0:
                continue
        if depth == 1 and _is_op(token, ","):
            elements.append([])
        else:
            elements[-1].append(token)
    values: List[KeyExpr] = []
    for element in elements:
        expr, end = _scalar_expr(element, 0)
        if expr is not None and end == len(element):
            values.append(expr)
        else:
            values.append(("opaque", None))
    return columns, tuple(values)


def _classify_tokens(tokens: List[Token]) -> ClassifiedStatement:
    command, cmd_index, cte_names, explain = _find_command(tokens)
    if not command:
        return ClassifiedStatement(kind=StatementKind.UNKNOWN)
    if command in _TRANSACTION_COMMANDS:
        return ClassifiedStatement(kind=StatementKind.TRANSACTION, command=command)
    if explain or command in _READ_COMMANDS:
        # EXPLAIN over anything — including EXPLAIN INSERT/UPDATE — only
        # describes the plan, it never modifies state.
        kind = StatementKind.READ
    elif command in _WRITE_COMMANDS:
        kind = StatementKind.WRITE
    else:
        kind = StatementKind.UNKNOWN

    read_tables: set = set()
    write_tables: set = set()
    referenced_tables: set = set()
    nondeterministic = False
    index = 0
    length = len(tokens)
    while index < length:
        token = tokens[index]
        if token.kind != "IDENT":
            index += 1
            continue
        if getattr(token, "quoted", False):
            # Quoted identifiers are names, never keywords — a column
            # called "from" must not start a table-name scan.
            index += 1
            continue
        keyword = str(token.value).upper()
        if keyword in _NONDETERMINISTIC_KEYWORDS:
            nondeterministic = True
            index += 1
            continue
        if keyword in _NONDETERMINISTIC_FUNCTIONS and _is_op(
            tokens[index + 1] if index + 1 < length else None, "("
        ):
            nondeterministic = True
            index += 1
            continue
        if keyword == "FROM":
            name, next_index = _read_table_name(tokens, index + 1)
            if name is not None:
                # DELETE FROM <t>: the FROM adjacent to the command names
                # the write target; every other FROM is a read source.
                if command == "DELETE" and index == cmd_index + 1:
                    write_tables.add(name)
                else:
                    read_tables.add(name)
            index = next_index
            continue
        if keyword == "JOIN":
            name, next_index = _read_table_name(tokens, index + 1)
            if name is not None:
                read_tables.add(name)
            index = next_index
            continue
        if keyword == "INTO":
            name, next_index = _read_table_name(tokens, index + 1)
            if name is not None:
                write_tables.add(name)
            index = next_index
            continue
        if keyword == "REFERENCES":
            name, next_index = _read_table_name(tokens, index + 1)
            if name is not None:
                referenced_tables.add(name)
            index = next_index
            continue
        if keyword == "UPDATE" and index == cmd_index:
            name, next_index = _read_table_name(tokens, index + 1)
            if name is not None:
                write_tables.add(name)
            index = next_index
            continue
        if keyword == "TABLE" and command in ("CREATE", "DROP", "ALTER", "TRUNCATE"):
            next_index = index + 1
            # Skip IF [NOT] EXISTS.
            if _is_ident(tokens[next_index] if next_index < length else None, "IF"):
                next_index += 1
                if _is_ident(tokens[next_index] if next_index < length else None, "NOT"):
                    next_index += 1
                if _is_ident(tokens[next_index] if next_index < length else None, "EXISTS"):
                    next_index += 1
            name, next_index = _read_table_name(tokens, next_index)
            if name is not None:
                write_tables.add(name)
            index = next_index
            continue
        index += 1

    read_tables -= cte_names
    write_tables -= cte_names
    if kind is StatementKind.READ:
        # A read never writes; tables picked up by INTO-style scans inside
        # odd statements stay on the read side.
        read_tables |= write_tables
        write_tables = set()
    cacheable = (
        kind is StatementKind.READ
        and not nondeterministic
        and not explain
        and command == "SELECT"
    )
    where_equalities: Tuple[Tuple[str, KeyExpr], ...] = ()
    where_in_lists: Tuple[Tuple[str, Tuple[KeyExpr, ...]], ...] = ()
    set_columns: FrozenSet[str] = frozenset()
    insert_columns: Optional[Tuple[str, ...]] = None
    insert_values: Optional[Tuple[KeyExpr, ...]] = None
    if kind is StatementKind.WRITE:
        if command in ("UPDATE", "DELETE"):
            where_equalities, where_in_lists = _extract_where_predicates(tokens, cmd_index)
        if command == "UPDATE":
            set_columns = _extract_set_columns(tokens, cmd_index)
        if command == "INSERT":
            insert_columns, insert_values = _extract_insert_shape(tokens, cmd_index)
    return ClassifiedStatement(
        kind=kind,
        command=command,
        read_tables=frozenset(read_tables),
        write_tables=frozenset(write_tables),
        referenced_tables=frozenset(referenced_tables),
        cacheable=cacheable,
        where_equalities=where_equalities,
        where_in_lists=where_in_lists,
        set_columns=set_columns,
        insert_columns=insert_columns,
        insert_values=insert_values,
    )


def is_write_statement(sql: str) -> bool:
    """Whether ``sql`` modifies state and must be broadcast to all replicas.

    Read-only statements — including ``WITH ... SELECT``, parenthesized
    selects and ``EXPLAIN`` — return False; everything else (writes,
    transaction control, unparseable statements) returns True.
    """
    return not classify(sql).is_read


def is_transaction_control(sql: str) -> bool:
    return classify(sql).is_transaction_control
