"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    statement   := create | drop | insert | select | update | delete
                 | BEGIN | COMMIT | ROLLBACK
    create      := CREATE TABLE [IF NOT EXISTS] table '(' column_def (',' column_def)* ')'
    column_def  := name type [NOT NULL] [PRIMARY KEY] [REFERENCES table '(' name ')']
    insert      := INSERT INTO table ['(' names ')'] VALUES tuple (',' tuple)*
    select      := SELECT items FROM table [WHERE expr] [ORDER BY ...] [LIMIT n]
    update      := UPDATE table SET name '=' expr (',' ...)* [WHERE expr]
    delete      := DELETE FROM table [WHERE expr]
    expr        := or_expr with LIKE / IS NULL / BETWEEN / IN / comparisons

The expression grammar intentionally covers exactly what the paper's
Sample code 1 and 2 need (nested parentheses, LIKE, IS NULL, BETWEEN,
``now()``), plus the operators the rest of the repro uses.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.sqlengine.errors import SqlParseError
from repro.sqlengine.expressions import (
    BetweenOp,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InOp,
    IsNullOp,
    LikeOp,
    Literal,
    Parameter,
    UnaryOp,
    key_terms,
)
from repro.sqlengine.schema import Column, ForeignKey, TableSchema
from repro.sqlengine.statements import (
    Begin,
    Commit,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    OrderItem,
    Rollback,
    Select,
    SelectItem,
    Statement,
    TableName,
    Update,
)
from repro.sqlengine.tokenizer import Token, tokenize
from repro.sqlengine.types import SqlType

_AGGREGATES = {"COUNT", "MAX", "MIN", "SUM", "AVG"}


class _Parser:
    def __init__(self, tokens: List[Token], sql: str) -> None:
        self._tokens = tokens
        self._sql = sql
        self._index = 0
        self._positionals = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[Token]:
        index = self._index + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise SqlParseError(f"unexpected end of statement: {self._sql!r}")
        self._index += 1
        return token

    def _is_keyword(self, keyword: str, offset: int = 0) -> bool:
        token = self._peek(offset)
        return token is not None and token.kind == "IDENT" and token.value.upper() == keyword

    def _accept_keyword(self, keyword: str) -> bool:
        if self._is_keyword(keyword):
            self._index += 1
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            token = self._peek()
            raise SqlParseError(f"expected {keyword}, got {token.value if token else 'end of input'!r}")

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "OP" and token.value == op:
            self._index += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            token = self._peek()
            raise SqlParseError(f"expected {op!r}, got {token.value if token else 'end of input'!r}")

    def _expect_ident(self) -> str:
        token = self._next()
        if token.kind != "IDENT":
            raise SqlParseError(f"expected identifier, got {token.value!r}")
        return str(token.value)

    # -- statements --------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self._is_keyword("CREATE"):
            return self._parse_create()
        if self._is_keyword("DROP"):
            return self._parse_drop()
        if self._is_keyword("INSERT"):
            return self._parse_insert()
        if self._is_keyword("SELECT"):
            return self._parse_select()
        if self._is_keyword("UPDATE"):
            return self._parse_update()
        if self._is_keyword("DELETE"):
            return self._parse_delete()
        if self._accept_keyword("BEGIN") or (
            self._is_keyword("START") and self._is_keyword("TRANSACTION", 1)
        ):
            if self._is_keyword("TRANSACTION"):
                self._index += 1
            elif self._is_keyword("START"):
                self._index += 2
            self._finish()
            return Begin()
        if self._accept_keyword("COMMIT"):
            self._finish()
            return Commit()
        if self._accept_keyword("ROLLBACK"):
            self._finish()
            return Rollback()
        token = self._peek()
        raise SqlParseError(f"unsupported statement starting with {token.value if token else ''!r}")

    def _finish(self) -> None:
        self._accept_op(";")
        token = self._peek()
        if token is not None:
            raise SqlParseError(f"unexpected trailing token {token.value!r}")

    def _parse_table_name(self) -> TableName:
        first = self._expect_ident()
        if self._accept_op("."):
            second = self._expect_ident()
            return TableName(name=second, schema=first)
        return TableName(name=first)

    def _parse_create(self) -> CreateTable:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        if_not_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        table = self._parse_table_name()
        self._expect_op("(")
        columns: List[Column] = []
        while True:
            columns.append(self._parse_column_def())
            if self._accept_op(","):
                continue
            break
        self._expect_op(")")
        self._finish()
        schema = TableSchema(name=table.qualified, columns=columns)
        return CreateTable(table=table, schema=schema, if_not_exists=if_not_exists)

    def _parse_column_def(self) -> Column:
        name = self._expect_ident()
        type_name = self._expect_ident()
        sql_type = SqlType.from_name(type_name)
        # Optional length spec, e.g. VARCHAR(255): parsed and ignored.
        if self._accept_op("("):
            self._next()
            self._expect_op(")")
        not_null = False
        primary_key = False
        references: Optional[ForeignKey] = None
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
                continue
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
                not_null = True
                continue
            if self._accept_keyword("REFERENCES"):
                ref_table = self._parse_table_name()
                self._expect_op("(")
                ref_column = self._expect_ident()
                self._expect_op(")")
                references = ForeignKey(table=ref_table.qualified, column=ref_column)
                continue
            break
        return Column(
            name=name,
            sql_type=sql_type,
            not_null=not_null,
            primary_key=primary_key,
            references=references,
        )

    def _parse_drop(self) -> DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        table = self._parse_table_name()
        self._finish()
        return DropTable(table=table, if_exists=if_exists)

    def _parse_insert(self) -> Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._parse_table_name()
        columns: List[str] = []
        if self._accept_op("("):
            while True:
                columns.append(self._expect_ident())
                if self._accept_op(","):
                    continue
                break
            self._expect_op(")")
        self._expect_keyword("VALUES")
        rows: List[List[Expression]] = []
        while True:
            self._expect_op("(")
            row: List[Expression] = []
            while True:
                row.append(self._parse_expression())
                if self._accept_op(","):
                    continue
                break
            self._expect_op(")")
            rows.append(row)
            if self._accept_op(","):
                continue
            break
        self._finish()
        parameterized = any(token.kind == "PARAM" for token in self._tokens)
        return Insert(table=table, columns=columns, rows=rows, parameterized=parameterized)

    def _parse_select(self) -> Select:
        self._expect_keyword("SELECT")
        items: List[SelectItem] = []
        while True:
            items.append(self._parse_select_item())
            if self._accept_op(","):
                continue
            break
        table: Optional[TableName] = None
        if self._accept_keyword("FROM"):
            table = self._parse_table_name()
        where: Optional[Expression] = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        order_by: List[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                expression = self._parse_expression()
                descending = False
                if self._accept_keyword("DESC"):
                    descending = True
                elif self._accept_keyword("ASC"):
                    descending = False
                order_by.append(OrderItem(expression=expression, descending=descending))
                if self._accept_op(","):
                    continue
                break
        limit: Optional[int] = None
        if self._accept_keyword("LIMIT"):
            token = self._next()
            if token.kind != "NUMBER" or not isinstance(token.value, int):
                raise SqlParseError("LIMIT requires an integer literal")
            limit = token.value
        self._finish()
        return Select(
            table=table,
            items=items,
            where=where,
            key_terms=key_terms(where),
            order_by=order_by,
            limit=limit,
        )

    def _parse_select_item(self) -> SelectItem:
        if self._accept_op("*"):
            return SelectItem(star=True)
        token = self._peek()
        if (
            token is not None
            and token.kind == "IDENT"
            and token.value.upper() in _AGGREGATES
            and self._peek(1) is not None
            and self._peek(1).kind == "OP"
            and self._peek(1).value == "("
        ):
            aggregate = self._next().value.upper()
            self._expect_op("(")
            argument: Optional[Expression] = None
            if not self._accept_op("*"):
                argument = self._parse_expression()
            else:
                pass
            self._expect_op(")")
            alias = self._parse_alias()
            return SelectItem(expression=argument, alias=alias, aggregate=aggregate)
        expression = self._parse_expression()
        alias = self._parse_alias()
        return SelectItem(expression=expression, alias=alias)

    def _parse_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._expect_ident()
        return None

    def _parse_update(self) -> Update:
        self._expect_keyword("UPDATE")
        table = self._parse_table_name()
        self._expect_keyword("SET")
        assignments: List[Tuple[str, Expression]] = []
        while True:
            column = self._expect_ident()
            self._expect_op("=")
            assignments.append((column, self._parse_expression()))
            if self._accept_op(","):
                continue
            break
        where: Optional[Expression] = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        self._finish()
        return Update(
            table=table, assignments=assignments, where=where, key_terms=key_terms(where)
        )

    def _parse_delete(self) -> Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._parse_table_name()
        where: Optional[Expression] = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        self._finish()
        return Delete(table=table, where=where, key_terms=key_terms(where))

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            right = self._parse_and()
            left = BinaryOp("OR", left, right)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            right = self._parse_not()
            left = BinaryOp("AND", left, right)
        return left

    def _parse_not(self) -> Expression:
        if self._accept_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        if self._accept_keyword("IS"):
            negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return IsNullOp(operand=left, negated=negated)
        negated = False
        if self._is_keyword("NOT") and (
            self._is_keyword("LIKE", 1) or self._is_keyword("BETWEEN", 1) or self._is_keyword("IN", 1)
        ):
            self._index += 1
            negated = True
        if self._accept_keyword("LIKE"):
            pattern = self._parse_additive()
            return LikeOp(operand=left, pattern=pattern, negated=negated)
        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return BetweenOp(operand=left, low=low, high=high, negated=negated)
        if self._accept_keyword("IN"):
            self._expect_op("(")
            choices: List[Expression] = []
            while True:
                choices.append(self._parse_expression())
                if self._accept_op(","):
                    continue
                break
            self._expect_op(")")
            return InOp(operand=left, choices=choices, negated=negated)
        for op in ("<>", "!=", "<=", ">=", "=", "<", ">"):
            if self._accept_op(op):
                right = self._parse_additive()
                return BinaryOp(op, left, right)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_primary()
        while True:
            token = self._peek()
            if token is not None and token.kind == "OP" and token.value in ("+", "-"):
                self._index += 1
                right = self._parse_primary()
                left = BinaryOp(str(token.value), left, right)
                continue
            break
        return left

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token is None:
            raise SqlParseError("unexpected end of expression")
        if token.kind == "OP" and token.value == "(":
            self._index += 1
            inner = self._parse_expression()
            self._expect_op(")")
            return inner
        if token.kind == "NUMBER":
            self._index += 1
            return Literal(token.value)
        if token.kind == "STRING":
            self._index += 1
            return Literal(token.value)
        if token.kind == "PARAM":
            self._index += 1
            if token.value != "?":
                return Parameter(str(token.value))
            self._positionals += 1
            return Parameter("?", ordinal=self._positionals - 1)
        if token.kind == "OP" and token.value == "-":
            self._index += 1
            return UnaryOp("-", self._parse_primary())
        if token.kind == "IDENT":
            upper = token.value.upper()
            if upper == "NULL":
                self._index += 1
                return Literal(None)
            if upper == "TRUE":
                self._index += 1
                return Literal(True)
            if upper == "FALSE":
                self._index += 1
                return Literal(False)
            if upper in ("CURRENT_DATE", "CURRENT_TIMESTAMP") and not (
                self._peek(1) is not None and self._peek(1).kind == "OP" and self._peek(1).value == "("
            ):
                self._index += 1
                return FunctionCall(name=upper.lower(), args=[])
            # Function call?
            if (
                self._peek(1) is not None
                and self._peek(1).kind == "OP"
                and self._peek(1).value == "("
            ):
                name = self._expect_ident()
                self._expect_op("(")
                args: List[Expression] = []
                if not self._accept_op(")"):
                    while True:
                        args.append(self._parse_expression())
                        if self._accept_op(","):
                            continue
                        break
                    self._expect_op(")")
                return FunctionCall(name=name, args=args)
            # Column reference, possibly qualified.
            name = self._expect_ident()
            if self._accept_op("."):
                column = self._expect_ident()
                return ColumnRef(name=column, table=name)
            return ColumnRef(name=name)
        raise SqlParseError(f"unexpected token {token.value!r} in expression")


#: How many distinct SQL texts keep their parsed statement. Applications
#: that bind parameters repeat a few dozen texts; one that inlines literals
#: churns through the cache and pays the parse, as it did before there was one.
STATEMENT_CACHE_SIZE = 512

_cache: "OrderedDict[str, Statement]" = OrderedDict()
_cache_lock = threading.Lock()


def parse(sql: str) -> Statement:
    """Parse one SQL statement into its AST.

    The statement of a text seen before comes from a least-recently-used
    cache shared by every engine in the process, so callers must treat what
    they get as read-only — the executor does. It cannot go stale: an AST
    (and the ``key_terms`` of its ``where``) depends on the text alone, and
    what a name in it means is resolved against the catalog on every
    execution. ``CREATE TABLE`` is never cached, because the table adopts
    the statement's :class:`TableSchema` and two engines must not share one.
    """
    with _cache_lock:
        statement = _cache.get(sql)
        if statement is not None:
            _cache.move_to_end(sql)
            return statement
    tokens = tokenize(sql)
    if not tokens:
        raise SqlParseError("empty statement")
    statement = _Parser(tokens, sql).parse_statement()
    if not isinstance(statement, CreateTable):
        with _cache_lock:
            _cache[sql] = statement
            if len(_cache) > STATEMENT_CACHE_SIZE:
                _cache.popitem(last=False)
    return statement
