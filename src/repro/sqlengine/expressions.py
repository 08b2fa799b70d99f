"""Expression AST and its compiled form.

Expressions appear in WHERE clauses, UPDATE SET clauses and INSERT value
lists. An expression runs only as the closure :meth:`Expression.compile`
returns, ``fn(row, params, positional)``, built once per statement and
table. Its errors (an unknown column, a missing parameter, an unknown
function) are raised when a row is evaluated, never when compiling.

The semantics are the engine's SQL dialect, which ``sqlite3`` checks
(tests/test_sql_sqlite_oracle.py) except where docs/architecture.md's
dialect table lists a difference. Any comparison with NULL is false, not
unknown — sufficient for the driver match-making queries, which guard
NULLs explicitly with ``IS NULL`` as in Sample code 1/2. ``LIKE`` supports
``%`` and ``_`` wildcards case-insensitively, and ``now()`` reads the
clock the expression is compiled with, so experiments can use a simulated
clock.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sqlengine.errors import ColumnNotFound, SqlExecutionError

#: A compiled expression: ``fn(row, params, positional)``. ``row`` is a
#: stored row, keyed by the column names its table's schema spells.
Compiled = Callable[[Dict[str, Any], Dict[str, Any], Sequence[Any]], Any]
#: What compiling asks of the table: the key a row stores a column under,
#: given the name a statement spells it with, or None if there is none.
Resolve = Callable[[str], Optional[str]]


class Expression:
    """Base class for all expression AST nodes."""

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        """This expression as a closure over stored rows: column names
        resolved once by ``resolve``, ``now()`` read from ``clock``.
        Compiling never raises: an error is raised by the closure, on
        each row it is evaluated on."""
        raise NotImplementedError


@dataclass
class Literal(Expression):
    value: Any

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        value = self.value
        return lambda row, params, positional: value


@dataclass
class ColumnRef(Expression):
    """Reference to a column, optionally qualified (``table.column``)."""

    name: str
    table: Optional[str] = None

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        key = resolve(self.name)
        if key is None:
            return failing(ColumnNotFound, f"unknown column {self.name!r}")
        return lambda row, params, positional: row[key]


@dataclass
class Parameter(Expression):
    """A ``$name`` named parameter or ``?`` positional parameter.

    A ``?`` carries its ``ordinal`` — its position among the statement's
    ``?`` placeholders, numbered by the parser — so its value does not
    depend on which clause, or which row, is evaluated first.
    """

    name: str  # "?" means positional
    ordinal: Optional[int] = None

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        if self.name == "?":
            ordinal = self.ordinal
            if ordinal is None:
                return failing(SqlExecutionError, "not enough positional parameters supplied")

            def positional_parameter(row, params, positional):
                if ordinal >= len(positional):
                    raise SqlExecutionError("not enough positional parameters supplied")
                return positional[ordinal]

            return positional_parameter
        name = self.name

        def named_parameter(row, params, positional):
            if name not in params:
                raise SqlExecutionError(f"missing statement parameter ${name}")
            return params[name]

        return named_parameter


@dataclass
class FunctionCall(Expression):
    """Supported scalar functions: ``now()``, ``current_date()``, ``lower()``, ``upper()``, ``length()``."""

    name: str
    args: List[Expression]

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        func = self.name.lower()
        if func in ("now", "current_timestamp", "current_date"):
            return lambda row, params, positional: clock()
        args = [arg.compile(resolve, clock) for arg in self.args]
        apply = _FUNCTIONS.get(func)
        if apply is None:
            return failing(SqlExecutionError, f"unknown function {self.name!r}", args)
        if len(args) != 1:
            return failing(SqlExecutionError, f"{func}() takes one argument, not {len(args)}", args)

        def call(row, params, positional):
            return apply([arg(row, params, positional) for arg in args])

        return call


@dataclass
class UnaryOp(Expression):
    """NOT and unary minus."""

    op: str
    operand: Expression

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        operand = self.operand.compile(resolve, clock)
        if self.op == "NOT":
            return lambda row, params, positional: not _truthy(operand(row, params, positional))
        if self.op == "-":

            def negate(row, params, positional):
                value = operand(row, params, positional)
                if value is not None and not isinstance(value, (int, float)):
                    raise SqlExecutionError(f"cannot negate a {type(value).__name__} value")
                return None if value is None else -value

            return negate
        return failing(SqlExecutionError, f"unknown unary operator {self.op!r}", [operand])


@dataclass
class BinaryOp(Expression):
    """Comparison, logical and arithmetic binary operators."""

    op: str
    left: Expression
    right: Expression

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        op = self.op
        left = self.left.compile(resolve, clock)
        right = self.right.compile(resolve, clock)
        if op == "AND":
            return lambda row, params, positional: _truthy(left(row, params, positional)) and _truthy(
                right(row, params, positional)
            )
        if op == "OR":
            return lambda row, params, positional: _truthy(left(row, params, positional)) or _truthy(
                right(row, params, positional)
            )
        if op in _COMPARISONS:
            return lambda row, params, positional: _compare(
                op, left(row, params, positional), right(row, params, positional)
            )
        if op in ("+", "-"):
            combine = operator.add if op == "+" else operator.sub

            def arithmetic(row, params, positional):
                a = left(row, params, positional)
                b = right(row, params, positional)
                if a is None or b is None:
                    return None
                if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
                    raise SqlExecutionError(f"cannot apply {op} to {type(a).__name__} and {type(b).__name__}")
                return combine(a, b)

            return arithmetic
        return failing(SqlExecutionError, f"unknown binary operator {op!r}", [left, right])


@dataclass
class LikeOp(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` / ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        operand = self.operand.compile(resolve, clock)
        pattern = self.pattern.compile(resolve, clock)
        negated = self.negated

        def like(row, params, positional):
            value = operand(row, params, positional)
            text = pattern(row, params, positional)
            if value is None or text is None:
                return False
            matched = like_match(str(value), str(text))
            return not matched if negated else matched

        return like


@dataclass
class IsNullOp(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        operand = self.operand.compile(resolve, clock)
        if self.negated:
            return lambda row, params, positional: operand(row, params, positional) is not None
        return lambda row, params, positional: operand(row, params, positional) is None


@dataclass
class BetweenOp(Expression):
    """``expr [NOT] BETWEEN low AND high`` (inclusive)."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        operand = self.operand.compile(resolve, clock)
        low = self.low.compile(resolve, clock)
        high = self.high.compile(resolve, clock)
        negated = self.negated

        def between(row, params, positional):
            value = operand(row, params, positional)
            lowest = low(row, params, positional)
            highest = high(row, params, positional)
            if value is None or lowest is None or highest is None:
                return False
            result = lowest <= value <= highest
            return not result if negated else result

        return between


@dataclass
class InOp(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    choices: List[Expression]
    negated: bool = False

    def compile(self, resolve: Resolve, clock: Callable[[], float]) -> Compiled:
        operand = self.operand.compile(resolve, clock)
        choices = [choice.compile(resolve, clock) for choice in self.choices]
        negated = self.negated

        def member(row, params, positional):
            value = operand(row, params, positional)
            if value is None:
                return False
            values = [choice(row, params, positional) for choice in choices]
            result = any(_compare("=", value, candidate) for candidate in values)
            return not result if negated else result

        return member


#: Lowercase column name -> the constant expressions a WHERE clause pins it
#: to: one for ``column = c``, several for ``column IN (c, ...)``.
KeyTerms = Dict[str, Tuple[Expression, ...]]


def _conjuncts(expression: Expression) -> Iterator[Expression]:
    if isinstance(expression, BinaryOp) and expression.op == "AND":
        yield from _conjuncts(expression.left)
        yield from _conjuncts(expression.right)
    else:
        yield expression


def key_terms(where: Optional[Expression]) -> KeyTerms:
    """The columns ``where`` pins to constants, read off its top-level ``AND``
    conjuncts: ``column = c``, ``c = column`` and a non-negated
    ``column IN (c, ...)``, every ``c`` a :class:`Literal` or
    :class:`Parameter`.

    A row can only match ``where`` if each listed column compares equal to
    one of its constants, which is what lets the executor probe a key index
    for candidates instead of visiting every row. Anything else — ``OR``,
    ``NOT``, a function or a column on the other side — pins nothing. The
    result names columns, not a table, so it is valid under any schema.
    """
    terms: KeyTerms = {}
    if where is None:
        return terms
    for conjunct in _conjuncts(where):
        column: Any = None
        constants: Sequence[Expression] = ()
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            column, constants = conjunct.left, (conjunct.right,)
            if not isinstance(column, ColumnRef):
                column, constants = conjunct.right, (conjunct.left,)
        elif isinstance(conjunct, InOp) and not conjunct.negated:
            column, constants = conjunct.operand, conjunct.choices
        if isinstance(column, ColumnRef) and all(
            isinstance(constant, (Literal, Parameter)) for constant in constants
        ):
            terms.setdefault(column.name.lower(), tuple(constants))
    return terms


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE matching (case-insensitive, ``%`` and ``_`` wildcards)."""
    regex_parts = []
    for char in pattern:
        if char == "%":
            regex_parts.append(".*")
        elif char == "_":
            regex_parts.append(".")
        else:
            regex_parts.append(re.escape(char))
    regex = "^" + "".join(regex_parts) + "$"
    return re.match(regex, value, flags=re.IGNORECASE | re.DOTALL) is not None


def failing(error: type, message: str, operands: Sequence[Compiled] = ()) -> Compiled:
    """A compiled expression that raises ``error(message)`` on every row it
    is evaluated on, after evaluating ``operands`` in order (so an error
    among them is the one raised)."""

    def fail(row, params, positional):
        for operand in operands:
            operand(row, params, positional)
        raise error(message)

    return fail


def _function_of_first(convert: Callable[[Any], Any]) -> Callable[[List[Any]], Any]:
    return lambda values: None if values[0] is None else convert(values[0])


def _length(value: Any) -> int:
    if not isinstance(value, (str, bytes)):
        raise SqlExecutionError(f"length() takes a text or a BLOB, not {type(value).__name__}")
    return len(value)


#: ``lower`` / ``upper`` / ``length`` over their one evaluated argument.
_FUNCTIONS = {
    "lower": _function_of_first(lambda value: str(value).lower()),
    "upper": _function_of_first(lambda value: str(value).upper()),
    "length": _function_of_first(_length),
}

#: The comparison operators, as applied once ``_compare`` has made the
#: operands comparable.
_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _truthy(value: Any) -> bool:
    if value is None:
        return False
    return bool(value)


def _compare(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    # A same-typed pair compares as it is. Otherwise allow numeric
    # cross-type comparison but avoid comparing str to int.
    if type(left) is not type(right):
        if isinstance(left, bool) or isinstance(right, bool):
            left, right = bool(left), bool(right)
        elif isinstance(left, (int, float)) and isinstance(right, (int, float)):
            pass
        elif isinstance(left, str) and isinstance(right, (int, float)):
            right = str(right)
        elif isinstance(right, str) and isinstance(left, (int, float)):
            left = str(left)
        elif isinstance(left, bytes) and isinstance(right, str):
            right = right.encode("utf-8")
        elif isinstance(right, bytes) and isinstance(left, str):
            left = left.encode("utf-8")
    compare = _COMPARISONS.get(op)
    if compare is None:  # pragma: no cover
        raise SqlExecutionError(f"unknown comparison operator {op!r}")
    return compare(left, right)
