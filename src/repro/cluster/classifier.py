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

The token scan answers only what can safely be *over*-approximated from
any dialect: a spurious table name costs a wider lock or an extra
invalidation, never a missed one. It reads names, never values. Which
*rows* a write touches is a question about the grammar, and one module
answers it — :func:`repro.sqlengine.parser.parse`: a SELECT / INSERT /
UPDATE / DELETE text the parser accepts whole carries its AST as
:attr:`ClassifiedStatement.dml` for :mod:`repro.cluster.lockscope` to
prove a key scope from; a text it rejects carries ``None`` and locks its
tables.

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
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple, Union

from repro.sqlengine.errors import SqlParseError
from repro.sqlengine.parser import parse
from repro.sqlengine.statements import Delete, Insert, Select, Update
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
#: Row-level writes: the statements the write batcher may coalesce, and
#: with SELECT those the parser is asked to read (see
#: :attr:`ClassifiedStatement.dml`).
DML_COMMANDS = ("INSERT", "UPDATE", "DELETE")
#: Functions whose result changes between calls, so their SELECTs must
#: not be served from the query cache. Called forms require a following
#: ``(``; the CURRENT_* keywords also appear bare (the sqlengine parser
#: accepts both spellings).
_NONDETERMINISTIC_FUNCTIONS = {"NOW", "RANDOM", "RAND"}
_NONDETERMINISTIC_KEYWORDS = {"CURRENT_TIMESTAMP", "CURRENT_DATE", "CURRENT_TIME"}


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
    #: The parser's AST of a SELECT / INSERT / UPDATE / DELETE text, or
    #: ``None`` when the parser does not accept the whole statement
    #: (``RETURNING``, a subquery, ``CASE``, ``USING``, a join, ``WITH``…)
    #: — and always ``None`` for DDL and transaction control, which are
    #: never parsed here. Shared with the engine's statement cache: read-only.
    dml: Union[Select, Insert, Update, Delete, None] = None

    # Read on every statement: computed once per (memoised) statement object.
    @functools.cached_property
    def is_read(self) -> bool:
        return self.kind is StatementKind.READ

    @functools.cached_property
    def is_write(self) -> bool:
        return self.kind is StatementKind.WRITE

    @functools.cached_property
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
    return _classify_tokens(tokens, sql)


def _parse_dml(sql: str) -> Union[Select, Insert, Update, Delete, None]:
    """The parser's reading of one SELECT / INSERT / UPDATE / DELETE
    text, or ``None`` when it has none: what it cannot parse whole it
    says nothing about, and the statement locks its tables."""
    try:
        return parse(sql)
    except (SqlParseError, RecursionError):
        return None


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


def _classify_tokens(tokens: List[Token], sql: str) -> ClassifiedStatement:
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
        if keyword in ("JOIN", "USING"):
            # DELETE FROM t USING u / MERGE INTO t USING u name a second
            # table; JOIN u USING (col) names none (a paren follows).
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
    select = kind is StatementKind.READ and command == "SELECT"
    cacheable = select and not nondeterministic and not explain
    return ClassifiedStatement(
        kind=kind,
        command=command,
        read_tables=frozenset(read_tables),
        write_tables=frozenset(write_tables),
        referenced_tables=frozenset(referenced_tables),
        cacheable=cacheable,
        dml=_parse_dml(sql)
        if select or (kind is StatementKind.WRITE and command in DML_COMMANDS)
        else None,
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
