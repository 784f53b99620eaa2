"""Expression compilation and evaluation.

An expression is compiled once against a :class:`Scope` — the ordered
``(alias, columns)`` slots of the tables it may read — into a closure
``f(env, params)``.  ``env`` is a tuple holding one row dict per slot,
so every :class:`ColumnRef` is resolved to a ``(slot, column)`` pair at
compile time and a row read is two subscripts.  Scalar functions come
from the server's registry (functions need server state — the
microsecond-``now`` UDF reads the instance's local clock).

Errors keep their evaluation-time timing: an unknown or ambiguous
column, an unknown function, ``*`` outside a select list or an
aggregate outside a select list compiles to a closure that raises the
same :class:`EvaluationError` when — and only if — it is evaluated.

SQL three-valued logic (NULL propagation, AND/OR truth tables) lives
here and only here.  :func:`evaluate` is the one-shot entry point over
a flat ``{"alias.column": value}`` row mapping in an
:class:`EvalContext`; it compiles and runs.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .ast import (BetweenOp, BinaryOp, ColumnRef, Expression, FunctionCall,
                  InList, IsNull, LikeOp, Literal, ParamRef, Star, UnaryOp)

__all__ = ["EvalContext", "EvaluationError", "Scope", "compile_expression",
           "evaluate", "like_match", "sql_mod"]

#: A compiled expression: ``fn(env, params) -> value``.
Compiled = Callable[[Sequence[Mapping[str, Any]], Sequence[Any]], Any]


class EvaluationError(ValueError):
    """Raised when an expression cannot be evaluated."""


class EvalContext:
    """A flat row mapping, bound parameters and a function registry —
    the input of one-shot :func:`evaluate`."""

    __slots__ = ("row", "params", "functions")

    def __init__(self,
                 row: Optional[Mapping[str, Any]] = None,
                 params: Optional[Sequence[Any]] = None,
                 functions: Optional[Mapping[str, Callable]] = None):
        self.row = row or {}
        self.params = params or ()
        self.functions = functions or {}


class Scope:
    """The ordered ``(alias, columns)`` slots an expression reads from.

    A later slot with the same alias shadows an earlier one (a self
    join without aliases sees the right-hand row under both names).
    An alias of ``None`` holds bare column names, which an unqualified
    reference matches before any aliased slot.
    """

    __slots__ = ("slots", "_by_alias")

    def __init__(self, slots: Iterable[tuple[Optional[str],
                                             Iterable[str]]] = ()):
        self.slots = tuple((alias, frozenset(columns))
                           for alias, columns in slots)
        self._by_alias: dict[Optional[str], int] = {}
        for index, (alias, _columns) in enumerate(self.slots):
            self._by_alias[alias] = index

    def slot_of(self, alias: Optional[str]) -> Optional[int]:
        """The slot an alias resolves to (the last one carrying it)."""
        return self._by_alias.get(alias)

    def resolve(self, ref: ColumnRef) -> tuple[int, str]:
        """``(slot, column)`` for ``ref``; raises :class:`EvaluationError`
        for an unknown or ambiguous column."""
        name = ref.name
        if ref.table is not None:
            slot = self._by_alias.get(ref.table)
            if slot is not None and name in self.slots[slot][1]:
                return slot, name
            raise EvaluationError(f"unknown column {ref.qualified!r}")
        bare = self._by_alias.get(None)
        if bare is not None and name in self.slots[bare][1]:
            return bare, name
        matches = [slot for alias, slot in self._by_alias.items()
                   if alias is not None and name in self.slots[slot][1]]
        if len(matches) == 1:
            return matches[0], name
        if matches:
            raise EvaluationError(f"ambiguous column {name!r}")
        raise EvaluationError(f"unknown column {ref.qualified!r}")


def _raiser(message: str) -> Compiled:
    def fail(env, params):
        raise EvaluationError(message)
    return fail


def compile_expression(expr: Expression, scope: Scope,
                       functions: Mapping[str, Callable],
                       aggregates: Optional[list[FunctionCall]] = None
                       ) -> Compiled:
    """Compile ``expr`` against ``scope`` into ``fn(env, params)``.

    With an ``aggregates`` list, each aggregate call is appended to it
    and compiles to a read of ``env[-1][k]`` — the caller computes the
    aggregate values per group and passes them as the last slot.
    Without one, an aggregate raises when evaluated.
    """
    def node_closure(node: Expression) -> Compiled:
        if isinstance(node, Literal):
            value = node.value
            return lambda env, params: value
        if isinstance(node, ColumnRef):
            try:
                slot, name = scope.resolve(node)
            except EvaluationError as exc:
                return _raiser(str(exc))
            return lambda env, params: env[slot][name]
        if isinstance(node, ParamRef):
            return _param(node.index)
        if isinstance(node, BinaryOp):
            return _binary_op(node.op, node_closure(node.left),
                           node_closure(node.right))
        if isinstance(node, UnaryOp):
            return _unary_op(node.op, node_closure(node.operand))
        if isinstance(node, FunctionCall):
            if node.is_aggregate:
                if aggregates is None:
                    return _raiser(
                        f"aggregate {node.name} outside a select list")
                position = len(aggregates)
                aggregates.append(node)
                return lambda env, params: env[-1][position]
            return _call(node.name, functions,
                         [node_closure(a) for a in node.args])
        if isinstance(node, InList):
            return _in_list(node_closure(node.operand),
                            [node_closure(o) for o in node.options],
                            node.negated)
        if isinstance(node, BetweenOp):
            return _between(node_closure(node.operand),
                            node_closure(node.low),
                            node_closure(node.high), node.negated)
        if isinstance(node, LikeOp):
            return _like(node_closure(node.operand),
                         node_closure(node.pattern), node.negated)
        if isinstance(node, IsNull):
            return _is_null(node_closure(node.operand), node.negated)
        if isinstance(node, Star):
            return _raiser("'*' is only valid in a select list")
        return _raiser(f"cannot evaluate {type(node).__name__}")

    return node_closure(expr)


def evaluate(expr: Expression, ctx: EvalContext) -> Any:
    """Evaluate ``expr`` once in ``ctx`` (SQL three-valued logic).

    ``ctx.row`` keys are ``"alias.column"`` (or bare column names); the
    row is split into one slot per alias and the expression compiled
    against that scope.
    """
    grouped: dict[Optional[str], dict[str, Any]] = {}
    for key, value in ctx.row.items():
        alias, dot, column = key.rpartition(".")
        grouped.setdefault(alias if dot else None, {})[column] = value
    scope = Scope((alias, row) for alias, row in grouped.items())
    compiled = compile_expression(expr, scope, ctx.functions)
    return compiled(tuple(grouped.values()), ctx.params)


# ------------------------------------------------------------ node closures
def _param(index: int) -> Compiled:
    def param(env, params):
        try:
            return params[index]
        except IndexError:
            raise EvaluationError(
                f"statement references parameter {index} but only "
                f"{len(params)} were bound") from None
    return param


def sql_mod(left: Any, right: Any) -> Any:
    """MySQL ``%`` / ``MOD``: NULL-propagating, NULL on a zero divisor,
    and the result takes the sign of the dividend (``-1 % 2`` is -1)."""
    if left is None or right is None or right == 0:
        return None
    remainder = abs(left) % abs(right)
    return -remainder if left < 0 else remainder


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        return None  # MySQL semantics: division by zero yields NULL
    return left / right


#: Binary operators other than AND/OR/= (which have their own closures).
_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "!=": operator.ne, "<": operator.lt, ">": operator.gt,
    "<=": operator.le, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": sql_mod,
}


def _binary_op(op: str, left: Compiled, right: Compiled) -> Compiled:
    if op == "AND":
        def and_(env, params):
            lhs = left(env, params)
            if lhs is False or (lhs is not None and not lhs):
                return False
            rhs = right(env, params)
            if rhs is False or (rhs is not None and not rhs):
                return False
            if lhs is None or rhs is None:
                return None
            return True
        return and_
    if op == "OR":
        def or_(env, params):
            lhs = left(env, params)
            if lhs not in (None, False, 0):
                return True
            rhs = right(env, params)
            if rhs not in (None, False, 0):
                return True
            if lhs is None or rhs is None:
                return None
            return False
        return or_
    if op == "=":
        # The hot shape (every probe and join key): inlined.
        def eq(env, params):
            lhs = left(env, params)
            rhs = right(env, params)
            if lhs is None or rhs is None:
                return None
            return lhs == rhs
        return eq
    apply = _OPERATORS.get(op)
    if apply is None:
        return _raiser(f"unknown operator {op!r}")

    def binary(env, params):
        lhs = left(env, params)
        rhs = right(env, params)
        if lhs is None or rhs is None:
            return None
        return apply(lhs, rhs)
    return binary


def _unary_op(op: str, operand: Compiled) -> Compiled:
    if op == "NOT":
        def not_(env, params):
            value = operand(env, params)
            return None if value is None else not value
        return not_
    if op == "-":
        def negate(env, params):
            value = operand(env, params)
            return None if value is None else -value
        return negate
    return _raiser(f"unknown unary operator {op!r}")


def _call(name: str, functions: Mapping[str, Callable],
          args: list[Compiled]) -> Compiled:
    def call(env, params):
        values = [arg(env, params) for arg in args]
        fn = functions.get(name)
        if fn is None:
            raise EvaluationError(f"unknown function {name!r}")
        return fn(*values)
    return call


def _in_list(operand: Compiled, options: list[Compiled],
             negated: bool) -> Compiled:
    def in_list(env, params):
        value = operand(env, params)
        if value is None:
            return None
        found = any(option(env, params) == value for option in options)
        return (not found) if negated else found
    return in_list


def _between(operand: Compiled, low: Compiled, high: Compiled,
             negated: bool) -> Compiled:
    def between(env, params):
        value = operand(env, params)
        lo = low(env, params)
        hi = high(env, params)
        if value is None or lo is None or hi is None:
            return None
        result = lo <= value <= hi
        return (not result) if negated else result
    return between


def _like(operand: Compiled, pattern: Compiled, negated: bool) -> Compiled:
    def like(env, params):
        value = operand(env, params)
        text = pattern(env, params)
        if value is None or text is None:
            return None
        result = like_match(str(value), str(text))
        return (not result) if negated else result
    return like


def _is_null(operand: Compiled, negated: bool) -> Compiled:
    def is_null(env, params):
        result = operand(env, params) is None
        return (not result) if negated else result
    return is_null


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE: ``%`` matches any run, ``_`` matches one character."""
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    regex = "".join(parts)
    return re.fullmatch(regex, value, flags=re.DOTALL | re.IGNORECASE) \
        is not None
