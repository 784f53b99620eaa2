"""Compiled statement plans.

A statement is compiled once per (statement object, engine) into a
:class:`Plan`: an ``execute(params, transaction)`` closure plus the tables
it was compiled against.  Everything that depends only on the
statement's shape and the schema is decided here, once:

* the *slot layout* — base table first, then each joined table; a row
  environment is a tuple of per-slot row dicts (the stored rows
  themselves, never copied) and every column reference is already a
  ``(slot, column)`` pair;
* the *access path* — primary-key probe, index equality, index range
  or full scan — with its probe-value closure;
* join probe-key and ON closures, the WHERE residual, ORDER keys,
  projection extractors (labels precomputed when they do not depend on
  parameters) and aggregate accumulators.

Only literal values arrive per execution, as ``params``: the plan cache
hands the engine one shared template AST per statement shape.  The
work done — and so every :class:`ExecutionProfile` count the CPU cost
model charges for — is exactly that of a naive executor: all
candidates of the access path are examined, every join candidate is
probed, sorts are full and stable.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from ..sql.ast import (BetweenOp, BinaryOp, ColumnRef, DeleteStatement,
                       Expression, FunctionCall, InList, InsertStatement,
                       IsNull, LikeOp, Literal, ParamRef, SelectItem,
                       SelectStatement, Star, Statement, UnaryOp,
                       UpdateStatement)
from ..sql.expressions import (Compiled, EvaluationError, Scope,
                               compile_expression)
from ..sql.render import render_expression
from .errors import DatabaseError, SchemaError
from .results import ExecutionProfile, ResultSet
from .table import Table
from .transaction import UndoRecord

__all__ = ["Plan", "compile_plan"]

#: The scope of constant expressions (probe values, INSERT values).
_NO_COLUMNS = Scope()
_NO_ROW: tuple = ()


class _NullRow(dict):
    """A row whose every column reads NULL (the empty implicit group)."""

    def __missing__(self, column: str) -> None:
        return None


_NULL_ROW = _NullRow()


class Plan:
    """A compiled statement: ``execute(params, transaction)`` returns
    ``(ResultSet, ExecutionProfile)``; ``tables`` lists the
    ``(qualified name, Table)`` pairs it was compiled against."""

    __slots__ = ("execute", "tables")

    def __init__(self, execute: Callable,
                 tables: tuple[tuple[str, Table], ...]):
        self.execute = execute
        self.tables = tables


def compile_plan(statement: Statement, lookup: Callable[[str], Table],
                 functions: Mapping[str, Callable]) -> Plan:
    """Compile a SELECT / INSERT / UPDATE / DELETE statement.

    ``lookup`` resolves a table name (raising if it does not exist);
    ``functions`` is the server's scalar-function registry.
    """
    if isinstance(statement, SelectStatement):
        return _compile_select(statement, lookup, functions)
    if isinstance(statement, InsertStatement):
        return _compile_insert(statement, lookup(statement.table), functions)
    if isinstance(statement, (UpdateStatement, DeleteStatement)):
        return _compile_update_delete(statement, lookup(statement.table),
                                      functions)
    raise DatabaseError(f"cannot compile {type(statement).__name__}")


# ------------------------------------------------------------------ SELECT
def _compile_select(statement: SelectStatement,
                    lookup: Callable[[str], Table],
                    functions: Mapping[str, Callable]) -> Plan:
    if statement.table is None:
        return _compile_tableless(statement, functions)
    table = lookup(statement.table)
    slots: list[tuple[str, Table]] = [
        (statement.alias or _short_name(table.name), table)]
    joins = []
    for join in statement.joins:
        right = lookup(join.table)
        left_scope = _scope(slots)
        slots.append((join.alias or _short_name(right.name), right))
        joins.append(_compile_join(join.condition, right, slots[-1][0],
                                   left_scope, _scope(slots), functions))
    scope = _scope(slots)
    access = _access_path(table, statement.where, scope, functions)
    where = None if statement.where is None \
        else compile_expression(statement.where, scope, functions)
    offset = statement.offset or 0
    limit = statement.limit
    grouped = bool(statement.group_by) or any(
        _contains_aggregate(e) for e in
        [item.expression for item in statement.items]
        + [o.expression for o in statement.order_by]
        + ([statement.having] if statement.having is not None else []))
    if grouped:
        shape = _compile_grouped(statement, scope, functions)
    else:
        shape = _compile_ungrouped(statement, slots, scope, functions)
    table_name = table.name
    rows = table.rows

    def execute(params: Sequence[Any], transaction=None):
        pks, examined, used_index = access(params)
        envs = [(rows[pk],) for pk in pks]
        for join in joins:
            envs, join_examined = join(envs, params)
            examined += join_examined
        if where is not None:
            envs = [env for env in envs
                    if (keep := where(env, params)) is not None and keep]
        columns, result = shape(envs, params)
        if offset:
            result = result[offset:]
        if limit is not None:
            result = result[:limit]
        profile = ExecutionProfile("select", table=table_name,
                                   rows_examined=examined,
                                   rows_returned=len(result),
                                   used_index=used_index,
                                   joined_tables=len(joins))
        return ResultSet(columns=columns, rows=result,
                         rowcount=len(result)), profile

    return Plan(execute, _referenced(slots))


def _compile_tableless(statement: SelectStatement,
                       functions: Mapping[str, Callable]) -> Plan:
    """``SELECT 1``, ``SELECT USEC_NOW()``: one row, no table."""
    items = [compile_expression(item.expression, _NO_COLUMNS, functions)
             for item in statement.items]
    labels = _labels(statement.items)

    def execute(params: Sequence[Any], transaction=None):
        row = tuple(item(_NO_ROW, params) for item in items)
        profile = ExecutionProfile("select", rows_returned=1)
        return ResultSet(columns=labels(params), rows=[row],
                         rowcount=1), profile

    return Plan(execute, ())


def _compile_join(condition: Expression, right: Table, right_alias: str,
                  left_scope: Scope, scope: Scope,
                  functions: Mapping[str, Callable]) -> Callable:
    """Nested-loop join, probing the right table's pk or an index with
    the left side of ``left_expr = right_alias.col`` where possible."""
    on = compile_expression(condition, scope, functions)
    rows = right.rows
    probe = _join_probe(condition, right, right_alias)
    if probe is None:
        key = None
        candidates = None
    else:
        left_expr, column = probe
        key = compile_expression(left_expr, left_scope, functions)
        candidates = _lookup_by_column(right, column)

    def join(envs: list[tuple], params: Sequence[Any]
             ) -> tuple[list[tuple], int]:
        examined = 0
        joined = []
        for env in envs:
            if key is None:
                pks = list(rows)
            else:
                pks = candidates(key(env, params))
            for pk in pks:
                examined += 1
                combined = env + (rows[pk],)
                keep = on(combined, params)
                if keep is not None and keep:
                    joined.append(combined)
        return joined, examined

    return join


def _compile_ungrouped(statement: SelectStatement,
                       slots: list[tuple[str, Table]], scope: Scope,
                       functions: Mapping[str, Callable]) -> Callable:
    """ORDER BY, projection and DISTINCT over row environments."""
    order = [(_sort_key_fn(o.expression, scope, functions), o.descending)
             for o in reversed(statement.order_by)]
    labels, project = _compile_projection(statement.items, slots, scope,
                                          functions)
    distinct = statement.distinct

    def shape(envs: list[tuple], params: Sequence[Any]
              ) -> tuple[list[str], list[tuple]]:
        # Stable sorts applied in reverse clause order give multi-key
        # ordering with per-key ASC/DESC.
        for sort_key, descending in order:
            envs = sorted(envs, key=sort_key(params), reverse=descending)
        rows = [project(env, params) for env in envs]
        if distinct:
            seen: set = set()
            rows = [r for r in rows if not (r in seen or seen.add(r))]
        return labels(params), rows

    return shape


def _compile_projection(items: Sequence[SelectItem],
                        slots: list[tuple[str, Table]], scope: Scope,
                        functions: Mapping[str, Callable]
                        ) -> tuple[Callable, Callable]:
    """``(labels(params), project(env, params) -> tuple)``.

    ``*`` expands to one plain column read per column; a run of plain
    reads from one slot becomes one ``itemgetter`` call.
    """
    reads: list[tuple[int, str]] = []     # pending (slot, column) run
    parts: list[Compiled] = []            # each returns a tuple
    label_items: list[Any] = []           # label str, or a SelectItem

    def flush() -> None:
        for slot, run in groupby(reads, key=lambda read: read[0]):
            parts.append(_reader(slot, [column for _slot, column in run]))
        reads.clear()

    for item in items:
        expr = item.expression
        if isinstance(expr, Star):
            for alias, table in slots:
                if expr.table is not None and expr.table != alias:
                    continue
                slot = scope.slot_of(alias)
                for column in table.schema.column_names:
                    label_items.append(column)
                    reads.append((slot, column))
            continue
        label_items.append(item)
        if isinstance(expr, ColumnRef):
            try:
                reads.append(scope.resolve(expr))
                continue
            except EvaluationError:
                pass
        flush()
        value = compile_expression(expr, scope, functions)
        parts.append(lambda env, params, value=value: (value(env, params),))
    flush()
    labels = _labels(label_items)
    if len(parts) == 1:
        return labels, parts[0]

    def project(env, params):
        row: tuple = ()
        for part in parts:
            row += part(env, params)
        return row

    return labels, project


def _reader(slot: int, columns: list[str]) -> Compiled:
    """``columns`` of one slot's row, as a tuple."""
    if len(columns) == 1:
        column = columns[0]
        return lambda env, params: (env[slot][column],)
    getter = itemgetter(*columns)
    return lambda env, params: getter(env[slot])


def _compile_grouped(statement: SelectStatement, scope: Scope,
                     functions: Mapping[str, Callable]) -> Callable:
    """GROUP BY / aggregate execution.

    Follows MySQL's permissive (pre-ONLY_FULL_GROUP_BY) semantics: a
    non-aggregate expression in the select list evaluates against an
    arbitrary (the first) row of each group, and against all-NULL rows
    in the empty implicit group.  Aggregates compile to accumulators
    whose per-group values are the environment's last slot; HAVING's
    are computed first, the rest only for groups HAVING keeps.
    """
    group_keys = [compile_expression(g, scope, functions)
                  for g in statement.group_by]
    calls: list[FunctionCall] = []
    having = None
    if statement.having is not None:
        having = compile_expression(statement.having, scope, functions,
                                    calls)
    having_calls = len(calls)
    items = [compile_expression(item.expression, scope, functions, calls)
             for item in statement.items]
    orders = [compile_expression(o.expression, scope, functions, calls)
              for o in statement.order_by]
    aggregates = [_compile_aggregate(call, scope, functions)
                  for call in calls]
    null_env = (_NULL_ROW,) * len(scope.slots)
    labels = _labels(statement.items)
    descending = [o.descending for o in statement.order_by]
    distinct = statement.distinct

    def shape(envs: list[tuple], params: Sequence[Any]
              ) -> tuple[list[str], list[tuple]]:
        if group_keys:
            groups: dict[tuple, list[tuple]] = {}
            for env in envs:
                key = tuple(_freeze(g(env, params)) for g in group_keys)
                groups.setdefault(key, []).append(env)
            group_rows = list(groups.values())
        else:
            # Implicit single group — even over an empty input
            # (COUNT(*) of an empty table is 0, not no-rows).
            group_rows = [envs]
        produced: list[tuple[tuple, tuple]] = []  # (order_keys, row)
        for members in group_rows:
            values = [aggregate(members, params)
                      for aggregate in aggregates[:having_calls]]
            env = (members[0] if members else null_env) + (values,)
            if having is not None:
                keep = having(env, params)
                if keep is None or not keep:
                    continue
            values.extend(aggregate(members, params)
                          for aggregate in aggregates[having_calls:])
            row = tuple(item(env, params) for item in items)
            order_keys = tuple(_sort_key(o(env, params)) for o in orders)
            produced.append((order_keys, row))
        for index in reversed(range(len(descending))):
            produced.sort(key=lambda pair: pair[0][index],
                          reverse=descending[index])
        rows = [row for _keys, row in produced]
        if distinct:
            seen: set = set()
            rows = [r for r in rows if not (r in seen or seen.add(r))]
        return labels(params), rows

    return shape


def _compile_aggregate(call: FunctionCall, scope: Scope,
                       functions: Mapping[str, Callable]) -> Callable:
    """An accumulator: ``fn(member envs, params) -> aggregate value``."""
    name = call.name
    if name == "COUNT" and (not call.args or isinstance(call.args[0], Star)):
        return lambda members, params: len(members)
    arg = compile_expression(call.args[0], scope, functions)
    distinct = call.distinct

    def aggregate(members: list[tuple], params: Sequence[Any]) -> Any:
        samples = [value for env in members
                   if (value := arg(env, params)) is not None]
        if distinct:
            samples = list(dict.fromkeys(samples))
        if name == "COUNT":
            return len(samples)
        if not samples:
            return None
        if name == "SUM":
            return sum(samples)
        if name == "AVG":
            return sum(samples) / len(samples)
        if name == "MIN":
            return min(samples)
        if name == "MAX":
            return max(samples)
        raise DatabaseError(f"unknown aggregate {name!r}")

    return aggregate


# --------------------------------------------------------------------- DML
def _compile_insert(statement: InsertStatement, table: Table,
                    functions: Mapping[str, Callable]) -> Plan:
    columns = statement.columns or tuple(table.schema.column_names)
    rows: list[Any] = []
    for row_exprs in statement.rows:
        if len(row_exprs) != len(columns):
            # Raised when reached, after the rows before it went in.
            rows.append(f"INSERT has {len(row_exprs)} values for "
                        f"{len(columns)} columns")
        else:
            rows.append(tuple(
                (column, compile_expression(expr, _NO_COLUMNS, functions))
                for column, expr in zip(columns, row_exprs)))
    table_name = table.name

    def execute(params: Sequence[Any], transaction):
        lastrowid = None
        for row in rows:
            if isinstance(row, str):
                raise SchemaError(row)
            pk = table.insert({column: value(_NO_ROW, params)
                               for column, value in row})
            transaction.record(UndoRecord("insert", table_name, pk))
            if isinstance(pk, int):
                lastrowid = pk
        profile = ExecutionProfile("insert", table=table_name,
                                   rows_affected=len(rows))
        return ResultSet(rowcount=len(rows), lastrowid=lastrowid), profile

    return Plan(execute, ((table_name, table),))


def _compile_update_delete(statement: Union[UpdateStatement,
                                           DeleteStatement],
                           table: Table,
                           functions: Mapping[str, Callable]) -> Plan:
    scope = _scope([(_short_name(table.name), table)])
    access = _access_path(table, statement.where, scope, functions)
    where = None if statement.where is None \
        else compile_expression(statement.where, scope, functions)
    table_name = table.name
    rows = table.rows
    if isinstance(statement, DeleteStatement):
        kind = "delete"
        assignments = None
    else:
        kind = "update"
        assignments = tuple((column, compile_expression(expr, scope,
                                                        functions))
                            for column, expr in statement.assignments)
        pk_column = table.primary_key_column
        coerce_pk = table.schema.primary_key.sql_type.coerce

    def execute(params: Sequence[Any], transaction):
        pks, examined, used_index = access(params)
        affected = 0
        for pk in list(pks):
            env = (rows[pk],)
            if where is not None:
                keep = where(env, params)
                if keep is None or not keep:
                    continue
            if assignments is None:
                old_row = table.delete(pk)
                transaction.record(
                    UndoRecord("delete", table_name, pk, old_row))
            else:
                changes = {column: value(env, params)
                           for column, value in assignments}
                old_row = table.update(pk, changes)
                new_pk = pk
                if pk_column in changes:
                    new_pk = coerce_pk(changes[pk_column], pk_column)
                transaction.record(
                    UndoRecord("update", table_name, new_pk, old_row))
            affected += 1
        profile = ExecutionProfile(kind, table=table_name,
                                   rows_examined=examined,
                                   rows_affected=affected,
                                   used_index=used_index)
        return ResultSet(rowcount=affected), profile

    return Plan(execute, ((table_name, table),))


# ------------------------------------------------------------ access path
def _access_path(table: Table, where: Optional[Expression], scope: Scope,
                 functions: Mapping[str, Callable]) -> Callable:
    """Choose the access path once: ``fn(params) -> (candidate pks,
    rows_examined, used_index)``.

    Probes come only from conjuncts whose column resolves to the base
    table's slot (0).  The candidates still pass the full WHERE as a
    residual filter.
    """
    rows = table.rows

    def scan(params):
        return list(rows), len(rows), False

    if where is None:
        return scan

    def constant(expr: Expression) -> Compiled:
        return compile_expression(expr, _NO_COLUMNS, functions)

    # Equality probes on a column without a usable index are still
    # evaluated, in clause order, before the chosen path runs.
    skipped: list[Compiled] = []
    for conjunct in _conjuncts(where):
        probe = _equality_probe(conjunct)
        column = _base_column(probe[0], scope) if probe else None
        if column is None:
            continue
        value = constant(probe[1])
        if column == table.primary_key_column:
            coerce = table.schema.primary_key.sql_type.coerce

            def pk_probe(params, value=value, column=column):
                pk = coerce(value(_NO_ROW, params), column)
                return ([pk] if pk in rows else []), 1, True
            return _after(skipped, pk_probe)
        index = table.index_on(column)
        if index is not None and len(index.columns) == 1:
            def index_probe(params, value=value, index=index):
                # lookup() returns a frozenset; sort so unordered
                # SELECTs return rows in pk order, not hash order.
                pks = sorted(index.lookup((value(_NO_ROW, params),)))
                return pks, len(pks), True
            return _after(skipped, index_probe)
        skipped.append(value)
    # Range probe on a single-column index.
    for conjunct in _conjuncts(where):
        probe = _range_probe(conjunct)
        column = _base_column(probe[0], scope) if probe else None
        index = table.index_on(column) if column is not None else None
        if index is None or len(index.columns) != 1:
            continue
        _ref, low_expr, high_expr, include_low, include_high = probe
        low = constant(low_expr) if low_expr is not None else None
        high = constant(high_expr) if high_expr is not None else None

        def range_probe(params, index=index, low=low, high=high,
                        include_low=include_low, include_high=include_high):
            low_key = (low(_NO_ROW, params),) if low is not None else None
            high_key = (high(_NO_ROW, params),) if high is not None \
                else None
            pks = list(index.range_scan(low_key, high_key, include_low,
                                        include_high))
            return pks, len(pks), True
        return _after(skipped, range_probe)
    return _after(skipped, scan)


def _after(skipped: list[Compiled], path: Callable) -> Callable:
    """``path``, preceded by evaluating the ``skipped`` probe values."""
    if not skipped:
        return path
    values = tuple(skipped)

    def evaluate_skipped_then(params):
        for value in values:
            value(_NO_ROW, params)
        return path(params)
    return evaluate_skipped_then


def _base_column(ref: ColumnRef, scope: Scope) -> Optional[str]:
    """``ref``'s column if it resolves to the base table's slot."""
    try:
        slot, column = scope.resolve(ref)
    except EvaluationError:
        return None
    return column if slot == 0 else None


def _lookup_by_column(table: Table, column: str) -> Callable:
    """Join candidates: ``fn(value) -> pks`` for ``column = value``."""
    rows = table.rows
    if column == table.primary_key_column:
        return lambda value: [value] if value in rows else []
    index = table.index_on(column)
    if index is not None and len(index.columns) == 1:
        return lambda value: list(index.lookup((value,)))
    return lambda value: list(rows)


# ----------------------------------------------------------------- helpers
def _scope(slots: list[tuple[str, Table]]) -> Scope:
    return Scope((alias, table.schema.column_names)
                 for alias, table in slots)


def _referenced(slots: list[tuple[str, Table]]
                ) -> tuple[tuple[str, Table], ...]:
    return tuple((table.name, table) for _alias, table in slots)


def _short_name(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


def _sort_key(value: Any) -> tuple:
    """Total order over SQL values: NULLs first, then numbers, then text."""
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, (bool, int, float)):
        return (1, float(value), "")
    return (2, 0.0, str(value))


def _sort_key_fn(expr: Expression, scope: Scope,
                 functions: Mapping[str, Callable]) -> Callable:
    """``sort_key(params)`` -> the ``key=`` function of one ORDER BY
    term; a plain column needs no parameters and is built once."""
    if isinstance(expr, ColumnRef):
        try:
            slot, column = scope.resolve(expr)
        except EvaluationError:
            pass
        else:
            def column_key(env: tuple) -> tuple:
                return _sort_key(env[slot][column])
            return lambda params: column_key
    value = compile_expression(expr, scope, functions)
    return lambda params: lambda env: _sort_key(value(env, params))


def _labels(entries: Sequence[Any]) -> Callable:
    """``labels(params) -> list[str]``; each entry is a label or a
    :class:`SelectItem`.  Labels are fixed unless an unaliased
    expression mentions a parameter (its label renders the value)."""
    def label(item: SelectItem, params: Sequence[Any]) -> str:
        if item.alias:
            return item.alias
        expr = item.expression
        if isinstance(expr, ColumnRef):
            return expr.name
        return render_expression(expr, params).lower()

    if not any(isinstance(entry, SelectItem) and not entry.alias
               and any(isinstance(node, ParamRef)
                       for node in _walk(entry.expression))
               for entry in entries):
        fixed = [entry if isinstance(entry, str) else label(entry, ())
                 for entry in entries]
        return lambda params: list(fixed)
    return lambda params: [
        entry if isinstance(entry, str) else label(entry, params)
        for entry in entries]


def _walk(expr: Expression):
    """``expr`` and every expression below it."""
    yield expr
    if isinstance(expr, BinaryOp):
        children = (expr.left, expr.right)
    elif isinstance(expr, (UnaryOp, IsNull)):
        children = (expr.operand,)
    elif isinstance(expr, FunctionCall):
        children = expr.args
    elif isinstance(expr, InList):
        children = (expr.operand,) + expr.options
    elif isinstance(expr, BetweenOp):
        children = (expr.operand, expr.low, expr.high)
    elif isinstance(expr, LikeOp):
        children = (expr.operand, expr.pattern)
    else:
        children = ()
    for child in children:
        yield from _walk(child)


def _contains_aggregate(expr: Expression) -> bool:
    return any(isinstance(node, FunctionCall) and node.is_aggregate
               for node in _walk(expr))


def _mentions_alias(expr: Expression, alias: str) -> bool:
    return any(isinstance(node, ColumnRef) and node.table == alias
               for node in _walk(expr))


def _freeze(value: Any):
    """Hashable form of a group key component."""
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


def _conjuncts(expr: Expression) -> list[Expression]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _is_constant(expr: Expression) -> bool:
    if isinstance(expr, (Literal, ParamRef)):
        return True
    if isinstance(expr, BinaryOp):
        return _is_constant(expr.left) and _is_constant(expr.right)
    return False


def _equality_probe(expr: Expression
                    ) -> Optional[tuple[ColumnRef, Expression]]:
    """Match ``col = const`` / ``const = col``; return (column, value)."""
    if not isinstance(expr, BinaryOp) or expr.op != "=":
        return None
    left, right = expr.left, expr.right
    if isinstance(left, ColumnRef) and _is_constant(right):
        return left, right
    if isinstance(right, ColumnRef) and _is_constant(left):
        return right, left
    return None


def _range_probe(expr: Expression):
    """Match BETWEEN / single comparison on a column vs constants.

    Returns (column, low, high, include_low, include_high) or None.
    """
    if isinstance(expr, BetweenOp) and not expr.negated \
            and isinstance(expr.operand, ColumnRef) \
            and _is_constant(expr.low) and _is_constant(expr.high):
        return expr.operand, expr.low, expr.high, True, True
    if isinstance(expr, BinaryOp) and expr.op in ("<", ">", "<=", ">="):
        left, right = expr.left, expr.right
        if isinstance(left, ColumnRef) and _is_constant(right):
            column, value, op = left, right, expr.op
        elif isinstance(right, ColumnRef) and _is_constant(left):
            column, value = right, left
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}[expr.op]
        else:
            return None
        if op == "<":
            return column, None, value, True, False
        if op == "<=":
            return column, None, value, True, True
        if op == ">":
            return column, value, None, False, True
        return column, value, None, True, True
    return None


def _join_probe(condition: Expression, right: Table, right_alias: str
                ) -> Optional[tuple[Expression, str]]:
    """Match ``left_expr = right_alias.col`` where col is pk/indexed.

    Returns (left_expr, right_column) so the executor can evaluate the
    left side per outer row and index-probe the right table.
    """
    for conjunct in _conjuncts(condition):
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            continue
        for own, other in ((conjunct.left, conjunct.right),
                           (conjunct.right, conjunct.left)):
            if isinstance(own, ColumnRef) and own.table == right_alias:
                column = own.name
                if not right.schema.has_column(column):
                    continue
                if _mentions_alias(other, right_alias):
                    continue
                if column == right.primary_key_column \
                        or right.index_on(column) is not None:
                    return other, column
    return None
