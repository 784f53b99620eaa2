"""What executing a statement returns: rows, a work profile, binlog text."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["ResultSet", "ExecutionProfile", "ExecutionResult"]


@dataclass(slots=True)
class ResultSet:
    """Rows returned to the client."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0          # affected rows for DML
    lastrowid: Optional[int] = None

    def scalar(self) -> Any:
        """First column of the first row (or None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


@dataclass(slots=True)
class ExecutionProfile:
    """What the statement actually did — input to the CPU cost model."""

    kind: str                 # select | insert | update | delete | ddl | txn | use
    table: Optional[str] = None
    rows_examined: int = 0
    rows_returned: int = 0
    rows_affected: int = 0
    used_index: bool = False
    joined_tables: int = 0


@dataclass(slots=True)
class ExecutionResult:
    """Result + profile + the statements destined for the binlog."""

    result: ResultSet
    profile: ExecutionProfile
    #: (text, database) pairs committed by this call (autocommit or COMMIT).
    committed: list[tuple[str, str]] = field(default_factory=list)
