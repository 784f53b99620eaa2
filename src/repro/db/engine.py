"""The storage engine: statement execution against in-memory tables.

One :class:`StorageEngine` instance is the data of one MySQL-like
server.  It executes parsed statements (or SQL text), maintains
secondary indexes, supports transactions with an undo log, and reports
an :class:`ExecutionProfile` per statement so the simulated server can
charge CPU time proportional to the actual work done (rows examined /
mutated, index vs. scan).

The engine itself runs in zero simulated time; *when* things happen is
the business of :mod:`repro.replication.server`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence, Union

from ..sql.ast import (BeginStatement, CommitStatement,
                       CreateDatabaseStatement, CreateIndexStatement,
                       CreateTableStatement, DeleteStatement,
                       DropTableStatement, InsertStatement,
                       RollbackStatement, SelectStatement, Statement,
                       UpdateStatement, UseStatement)
from ..sql.parser import parse
from ..sql.plancache import PlanCache
from ..sql.render import render_statement
from .errors import (DatabaseError, SchemaError, TableNotFoundError,
                     TransactionError)
from .plans import Plan, compile_plan
from .results import ExecutionProfile, ExecutionResult, ResultSet
from .schema import schema_from_ast
from .table import Table
from .transaction import Transaction, UndoRecord

__all__ = ["ResultSet", "ExecutionProfile", "ExecutionResult",
           "StorageEngine"]

#: Compiled plans kept per engine; a few dozen statement shapes cover
#: the Cloudstone mix.
PLAN_CAPACITY = 256


class StorageEngine:
    """Executes statements; one instance per simulated database server."""

    def __init__(self,
                 functions: Optional[Mapping[str, Callable]] = None,
                 default_database: str = "main",
                 commit_listener: Optional[
                     Callable[[list[tuple[str, str]]], None]] = None,
                 plan_cache: Optional[PlanCache] = None):
        self.functions = dict(functions or {})
        self.default_database = default_database
        #: Optional prepared-plan cache for SQL-text execution; safe to
        #: share across engines (plans are frozen ASTs).
        self.plan_cache = plan_cache
        self.databases: set[str] = {default_database}
        self.tables: dict[str, Table] = {}
        self.commit_listener = commit_listener
        self.transaction: Optional[Transaction] = None
        self.statements_executed = 0
        #: "statement" logs SQL text (the paper's mode — required by
        #: its heartbeat methodology); "row" logs row images.
        self.binlog_format = "statement"
        #: Compiled plans: statement identity -> (plan, default
        #: database), at most PLAN_CAPACITY (oldest evicted first).
        #: Every DDL and restore() empties it.
        self._plans: dict[_Identity, tuple] = {}

    # ------------------------------------------------------------- naming
    def qualify(self, name: str) -> str:
        return name if "." in name else f"{self.default_database}.{name}"

    def table(self, name: str) -> Table:
        qualified = self.qualify(name)
        table = self.tables.get(qualified)
        if table is None:
            raise TableNotFoundError(f"table {qualified!r} does not exist")
        return table

    def has_table(self, name: str) -> bool:
        return self.qualify(name) in self.tables

    # ------------------------------------------------------------ execute
    def execute(self, statement: Union[str, Statement],
                params: Optional[Sequence[Any]] = None,
                database: Optional[str] = None) -> ExecutionResult:
        """Execute one statement (SQL text or a parsed AST node).

        ``database`` overrides the session default database for this
        single call — the slave SQL thread uses it to run each binlog
        event against the event's recorded database without disturbing
        concurrent client sessions.
        """
        if database is not None:
            saved = self.default_database
            self.default_database = database
            try:
                return self.execute(statement, params)
            finally:
                self.default_database = saved
        if isinstance(statement, str):
            cache = self.plan_cache
            if cache is None:
                statement = parse(statement)
            else:
                statement, params = cache.prepare(statement, params)
        self.statements_executed += 1
        params = params or ()
        if isinstance(statement, SelectStatement):
            result, profile = self._plan(statement).execute(params, None)
            return ExecutionResult(result, profile)
        if isinstance(statement, (InsertStatement, UpdateStatement,
                                  DeleteStatement)):
            return self._write(statement, params)
        if isinstance(statement, (CreateTableStatement,
                                  CreateIndexStatement,
                                  DropTableStatement,
                                  CreateDatabaseStatement)):
            return self._execute_ddl(statement)
        if isinstance(statement, UseStatement):
            if statement.name not in self.databases:
                raise DatabaseError(f"unknown database {statement.name!r}")
            self.default_database = statement.name
            return ExecutionResult(ResultSet(), ExecutionProfile("use"))
        if isinstance(statement, BeginStatement):
            return self._begin()
        if isinstance(statement, CommitStatement):
            return self._commit()
        if isinstance(statement, RollbackStatement):
            return self._rollback()
        raise DatabaseError(
            f"cannot execute {type(statement).__name__}")

    # --------------------------------------------------------- transactions
    @property
    def in_transaction(self) -> bool:
        return self.transaction is not None

    def _begin(self) -> ExecutionResult:
        if self.transaction is not None:
            raise TransactionError("transaction already open")
        self.transaction = Transaction()
        return ExecutionResult(ResultSet(), ExecutionProfile("txn"))

    def _commit(self) -> ExecutionResult:
        if self.transaction is None:
            raise TransactionError("COMMIT without open transaction")
        committed = self.transaction.binlog_statements
        self.transaction = None
        if committed and self.commit_listener is not None:
            self.commit_listener(committed)
        return ExecutionResult(ResultSet(), ExecutionProfile("txn"),
                               committed=list(committed))

    def _rollback(self) -> ExecutionResult:
        if self.transaction is None:
            raise TransactionError("ROLLBACK without open transaction")
        for record in reversed(self.transaction.undo):
            self._undo(record)
        self.transaction = None
        return ExecutionResult(ResultSet(), ExecutionProfile("txn"))

    def _undo(self, record: UndoRecord) -> None:
        table = self.tables[record.table]
        if record.kind == "insert":
            table.delete(record.pk)
        elif record.kind == "update":
            # record.pk is where the row lives NOW (updates can move the
            # primary key); restore the old row at its old location.
            table.delete(record.pk)
            table.restore(record.old_row[table.primary_key_column],
                          record.old_row)
        elif record.kind == "delete":
            table.restore(record.pk, record.old_row)
        else:  # pragma: no cover - defensive
            raise DatabaseError(f"unknown undo kind {record.kind!r}")

    def _write(self, statement: Statement,
               params: Sequence[Any]) -> ExecutionResult:
        """Run a DML statement inside the open (or an implicit) txn."""
        plan = self._plan(statement)
        implicit = self.transaction is None
        if implicit:
            self.transaction = Transaction()
        undo_start = len(self.transaction.undo)
        try:
            result, profile = plan.execute(params, self.transaction)
        except DatabaseError:
            if implicit:
                # Roll the implicit transaction back entirely.
                for record in reversed(self.transaction.undo):
                    self._undo(record)
                self.transaction = None
            raise
        if profile.rows_affected > 0:
            if self.binlog_format == "row":
                ops = self._row_ops_since(undo_start)
                self.transaction.record_statement(ops,
                                                  self.default_database)
            else:
                text = render_statement(statement, params)
                self.transaction.record_statement(text,
                                                  self.default_database)
        if implicit:
            committed = self.transaction.binlog_statements
            self.transaction = None
            if committed and self.commit_listener is not None:
                self.commit_listener(committed)
            return ExecutionResult(result, profile, committed=list(committed))
        return ExecutionResult(result, profile)

    def _row_ops_since(self, undo_start: int) -> tuple:
        """Row images for the undo records of the last statement.

        Captured immediately after the statement runs, so the images
        reflect its effects and not those of later statements.
        """
        from .rowevents import RowOp
        ops = []
        for record in self.transaction.undo[undo_start:]:
            table = self.tables[record.table]
            if record.kind == "insert":
                ops.append(RowOp("insert", record.table, record.pk,
                                 dict(table.rows[record.pk])))
            elif record.kind == "update":
                old_pk = record.old_row[table.primary_key_column]
                ops.append(RowOp("update", record.table, old_pk,
                                 dict(table.rows[record.pk])))
            else:
                ops.append(RowOp("delete", record.table, record.pk))
        return tuple(ops)

    # ----------------------------------------------------------------- DDL
    def _execute_ddl(self, statement: Statement) -> ExecutionResult:
        if self.transaction is not None:
            raise TransactionError("DDL inside a transaction is not "
                                   "supported (MySQL would implicitly "
                                   "commit; be explicit instead)")
        profile = ExecutionProfile("ddl")
        if isinstance(statement, CreateDatabaseStatement):
            if statement.name in self.databases:
                if not statement.if_not_exists:
                    raise SchemaError(
                        f"database {statement.name!r} already exists")
            self.databases.add(statement.name)
        elif isinstance(statement, CreateTableStatement):
            qualified = self.qualify(statement.table)
            database = qualified.split(".", 1)[0]
            if database not in self.databases:
                raise DatabaseError(f"unknown database {database!r}")
            if qualified in self.tables:
                if not statement.if_not_exists:
                    raise SchemaError(f"table {qualified!r} already exists")
            else:
                schema = schema_from_ast(qualified, statement.columns)
                self.tables[qualified] = Table(schema)
            profile.table = qualified
        elif isinstance(statement, CreateIndexStatement):
            table = self.table(statement.table)
            table.create_index(statement.name, statement.columns,
                               statement.unique)
            profile.table = table.name
            profile.rows_examined = len(table)
        elif isinstance(statement, DropTableStatement):
            qualified = self.qualify(statement.table)
            if qualified not in self.tables:
                if not statement.if_exists:
                    raise TableNotFoundError(
                        f"table {qualified!r} does not exist")
            else:
                del self.tables[qualified]
            profile.table = qualified
        self._plans.clear()   # plans bake in tables and index choices
        text = render_statement(statement)
        committed = [(text, self.default_database)]
        if self.commit_listener is not None:
            self.commit_listener(committed)
        return ExecutionResult(ResultSet(), profile, committed=committed)

    # --------------------------------------------------------------- plans
    def _plan(self, statement: Statement) -> Plan:
        """The compiled plan for ``statement``, compiling on a miss.

        Keyed by the statement object's identity; the key holds a
        strong reference, so it cannot stand for a later object.  DDL
        and :meth:`restore` drop every plan; a plan is otherwise reused
        while the default database is the one it was compiled under and
        the tables it references are still the engine's tables.
        """
        plans = self._plans
        key = _Identity(statement)
        entry = plans.get(key)
        if entry is not None:
            plan, database = entry
            if database == self.default_database:
                tables = self.tables
                for name, table in plan.tables:
                    if tables.get(name) is not table:
                        break
                else:
                    return plan
        plan = compile_plan(statement, self.table, self.functions)
        if entry is None and len(plans) >= PLAN_CAPACITY:
            del plans[next(iter(plans))]    # the oldest compiled plan
        plans[key] = (plan, self.default_database)
        return plan

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> dict:
        """A copy of all data — the slave initial-sync payload.

        Stored rows are never mutated in place (updates build a fresh
        row dict), so the copy shares row dicts and copies only the
        containers.  ``databases`` is a *sorted list*, not a set: the
        payload must serialize identically across runs (and across
        hosts with different hash seeds) for replay comparisons to hold.
        """
        return {
            "databases": sorted(self.databases),
            "default_database": self.default_database,
            "tables": {name: table.copy()
                       for name, table in self.tables.items()},
        }

    def restore(self, snapshot: dict) -> None:
        """Load a snapshot previously produced by :meth:`snapshot`."""
        self.databases = set(snapshot["databases"])
        self.default_database = snapshot["default_database"]
        self.tables = {name: table.copy()
                       for name, table in snapshot["tables"].items()}
        self.transaction = None
        self._plans.clear()

    def checksum(self) -> tuple:
        """Canonical snapshot of all table contents, for convergence
        checks between replicas."""
        return tuple(
            (name, self.tables[name].checksum_state())
            for name in sorted(self.tables))


class _Identity:
    """A map key that hashes and compares by object identity.

    Statement ASTs compare by value, and value equality is too coarse
    for plans: ``Literal(1) == Literal(True) == Literal(1.0)``, yet
    ``SELECT 1`` and ``SELECT TRUE`` return different values and
    labels.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: Any):
        self.obj = obj

    def __hash__(self) -> int:
        return object.__hash__(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Identity) and self.obj is other.obj
