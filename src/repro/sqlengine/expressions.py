"""Expression AST and evaluation.

Expressions appear in WHERE clauses, UPDATE SET clauses and INSERT value
lists. Evaluation follows SQL three-valued-ish semantics in the places the
paper's queries depend on: any comparison with NULL is false (not
unknown-propagating — sufficient for the driver match-making queries,
which guard NULLs explicitly with ``IS NULL`` as in Sample code 1/2),
``LIKE`` supports ``%`` and ``_`` wildcards case-insensitively, and the
``now()`` function returns the clock supplied by the evaluation context so
experiments can use a simulated clock.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sqlengine.errors import ColumnNotFound, SqlExecutionError


@dataclass
class EvalContext:
    """Everything an expression needs to evaluate against one row.

    ``row`` maps lowercase column names to values. ``params`` holds the
    named statement parameters, ``positional`` the values of the ``?``
    placeholders in statement order. ``clock`` supplies ``now()`` /
    ``current_date``.
    """

    row: Dict[str, Any]
    params: Dict[str, Any]
    positional: Sequence[Any] = ()
    clock: Callable[[], float] = time.time


class Expression:
    """Base class for all expression AST nodes."""

    def evaluate(self, context: EvalContext) -> Any:
        raise NotImplementedError

    def columns_referenced(self) -> List[str]:
        """Names of all columns this expression reads (for validation)."""
        return []


@dataclass
class Literal(Expression):
    value: Any

    def evaluate(self, context: EvalContext) -> Any:
        return self.value


@dataclass
class ColumnRef(Expression):
    """Reference to a column, optionally qualified (``table.column``)."""

    name: str
    table: Optional[str] = None

    def evaluate(self, context: EvalContext) -> Any:
        key = self.name.lower()
        if key not in context.row:
            raise ColumnNotFound(f"unknown column {self.name!r}")
        return context.row[key]

    def columns_referenced(self) -> List[str]:
        return [self.name.lower()]


@dataclass
class Parameter(Expression):
    """A ``$name`` named parameter or ``?`` positional parameter.

    A ``?`` carries its ``ordinal`` — its position among the statement's
    ``?`` placeholders, numbered by the parser — so its value does not
    depend on which clause, or which row, is evaluated first.
    """

    name: str  # "?" means positional
    ordinal: Optional[int] = None

    def evaluate(self, context: EvalContext) -> Any:
        if self.name == "?":
            if self.ordinal is None or self.ordinal >= len(context.positional):
                raise SqlExecutionError("not enough positional parameters supplied")
            return context.positional[self.ordinal]
        if self.name not in context.params:
            raise SqlExecutionError(f"missing statement parameter ${self.name}")
        return context.params[self.name]


@dataclass
class FunctionCall(Expression):
    """Supported scalar functions: ``now()``, ``current_date()``, ``lower()``, ``upper()``, ``length()``."""

    name: str
    args: List[Expression]

    def evaluate(self, context: EvalContext) -> Any:
        func = self.name.lower()
        if func in ("now", "current_timestamp", "current_date"):
            return context.clock()
        values = [arg.evaluate(context) for arg in self.args]
        if func == "lower":
            return None if values[0] is None else str(values[0]).lower()
        if func == "upper":
            return None if values[0] is None else str(values[0]).upper()
        if func == "length":
            return None if values[0] is None else len(values[0])
        raise SqlExecutionError(f"unknown function {self.name!r}")

    def columns_referenced(self) -> List[str]:
        refs: List[str] = []
        for arg in self.args:
            refs.extend(arg.columns_referenced())
        return refs


@dataclass
class UnaryOp(Expression):
    """NOT and unary minus."""

    op: str
    operand: Expression

    def evaluate(self, context: EvalContext) -> Any:
        value = self.operand.evaluate(context)
        if self.op == "NOT":
            return not _truthy(value)
        if self.op == "-":
            return None if value is None else -value
        raise SqlExecutionError(f"unknown unary operator {self.op!r}")

    def columns_referenced(self) -> List[str]:
        return self.operand.columns_referenced()


@dataclass
class BinaryOp(Expression):
    """Comparison, logical and arithmetic binary operators."""

    op: str
    left: Expression
    right: Expression

    def evaluate(self, context: EvalContext) -> Any:
        op = self.op
        if op == "AND":
            return _truthy(self.left.evaluate(context)) and _truthy(self.right.evaluate(context))
        if op == "OR":
            return _truthy(self.left.evaluate(context)) or _truthy(self.right.evaluate(context))
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        if op in ("=", "<>", "!=", "<", "<=", ">", ">="):
            return _compare(op, left, right)
        if op in ("+", "-"):
            if left is None or right is None:
                return None
            return left + right if op == "+" else left - right
        raise SqlExecutionError(f"unknown binary operator {op!r}")

    def columns_referenced(self) -> List[str]:
        return self.left.columns_referenced() + self.right.columns_referenced()


@dataclass
class LikeOp(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` / ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def evaluate(self, context: EvalContext) -> Any:
        value = self.operand.evaluate(context)
        pattern = self.pattern.evaluate(context)
        if value is None or pattern is None:
            return False
        matched = like_match(str(value), str(pattern))
        return not matched if self.negated else matched

    def columns_referenced(self) -> List[str]:
        return self.operand.columns_referenced() + self.pattern.columns_referenced()


@dataclass
class IsNullOp(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def evaluate(self, context: EvalContext) -> Any:
        is_null = self.operand.evaluate(context) is None
        return not is_null if self.negated else is_null

    def columns_referenced(self) -> List[str]:
        return self.operand.columns_referenced()


@dataclass
class BetweenOp(Expression):
    """``expr [NOT] BETWEEN low AND high`` (inclusive)."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def evaluate(self, context: EvalContext) -> Any:
        value = self.operand.evaluate(context)
        low = self.low.evaluate(context)
        high = self.high.evaluate(context)
        if value is None or low is None or high is None:
            return False
        result = low <= value <= high
        return not result if self.negated else result

    def columns_referenced(self) -> List[str]:
        return (
            self.operand.columns_referenced()
            + self.low.columns_referenced()
            + self.high.columns_referenced()
        )


@dataclass
class InOp(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    choices: List[Expression]
    negated: bool = False

    def evaluate(self, context: EvalContext) -> Any:
        value = self.operand.evaluate(context)
        if value is None:
            return False
        values = [choice.evaluate(context) for choice in self.choices]
        result = any(_compare("=", value, candidate) for candidate in values)
        return not result if self.negated else result

    def columns_referenced(self) -> List[str]:
        refs = self.operand.columns_referenced()
        for choice in self.choices:
            refs.extend(choice.columns_referenced())
        return refs


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


def _truthy(value: Any) -> bool:
    if value is None:
        return False
    return bool(value)


def _compare(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    # Allow numeric cross-type comparison but avoid comparing str to int.
    if isinstance(left, bool) or isinstance(right, bool):
        left, right = bool(left), bool(right)
    elif isinstance(left, (int, float)) and isinstance(right, (int, float)):
        pass
    elif type(left) is not type(right):
        if isinstance(left, str) and isinstance(right, (int, float)):
            right = str(right)
        elif isinstance(right, str) and isinstance(left, (int, float)):
            left = str(left)
        elif isinstance(left, bytes) and isinstance(right, str):
            right = right.encode("utf-8")
        elif isinstance(right, bytes) and isinstance(left, str):
            left = left.encode("utf-8")
    if op == "=":
        return left == right
    if op in ("<>", "!="):
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise SqlExecutionError(f"unknown comparison operator {op!r}")  # pragma: no cover
