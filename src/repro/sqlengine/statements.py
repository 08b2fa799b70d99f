"""Parsed statement dataclasses produced by the parser and consumed by the executor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sqlengine.expressions import Expression, KeyTerms
from repro.sqlengine.schema import TableSchema


@dataclass(frozen=True)
class TableName:
    """A possibly schema-qualified table name (``information_schema.drivers``)."""

    name: str
    schema: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.schema}.{self.name}" if self.schema else self.name

    def key(self) -> str:
        """Canonical lowercase lookup key."""
        return self.qualified.lower()


@dataclass
class Statement:
    """Base class for all parsed statements."""


# ``Select`` / ``Update`` / ``Delete`` carry ``key_terms``: what their
# ``where`` pins to constants (``expressions.key_terms``), set by the parser
# when it builds the statement, so the statement cache holds it too. ``where``
# is never replaced after construction; left empty, the executor scans.


@dataclass
class CreateTable(Statement):
    table: TableName
    schema: TableSchema
    if_not_exists: bool = False


@dataclass
class DropTable(Statement):
    table: TableName
    if_exists: bool = False


@dataclass
class Insert(Statement):
    table: TableName
    columns: List[str]
    rows: List[List[Expression]]
    #: Whether a VALUES row holds a parameter. A text without one is not
    #: repeated with other values, so its plan is not kept.
    parameterized: bool


@dataclass
class SelectItem:
    """One projection item: an expression with an optional alias.

    ``star`` marks ``SELECT *``; ``aggregate`` is ``COUNT``/``MAX``/``MIN``
    with ``expression`` as the argument (None for ``COUNT(*)``).
    """

    expression: Optional[Expression] = None
    alias: Optional[str] = None
    star: bool = False
    aggregate: Optional[str] = None


@dataclass
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass
class Select(Statement):
    table: Optional[TableName]
    items: List[SelectItem] = field(default_factory=list)
    where: Optional[Expression] = None
    key_terms: KeyTerms = field(default_factory=dict)
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None


@dataclass
class Update(Statement):
    table: TableName
    assignments: List[Tuple[str, Expression]] = field(default_factory=list)
    where: Optional[Expression] = None
    key_terms: KeyTerms = field(default_factory=dict)


@dataclass
class Delete(Statement):
    table: TableName
    where: Optional[Expression] = None
    key_terms: KeyTerms = field(default_factory=dict)


@dataclass
class Begin(Statement):
    pass


@dataclass
class Commit(Statement):
    pass


@dataclass
class Rollback(Statement):
    pass
