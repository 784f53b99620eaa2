"""Expression evaluation tests."""

import pytest

from repro.sql import EvalContext, EvaluationError, evaluate, like_match, parse
from repro.sql.ast import ColumnRef
from repro.sql.expressions import Scope, compile_expression


def eval_sql(expr_sql, row=None, params=None, functions=None):
    stmt = parse(f"SELECT {expr_sql}")
    ctx = EvalContext(row=row or {}, params=params or (),
                      functions=functions or {})
    return evaluate(stmt.items[0].expression, ctx)


def test_arithmetic():
    assert eval_sql("1 + 2 * 3") == 7
    assert eval_sql("(1 + 2) * 3") == 9
    assert eval_sql("10 / 4") == 2.5
    assert eval_sql("10 % 3") == 1
    assert eval_sql("-5 + 2") == -3


def test_division_by_zero_is_null():
    assert eval_sql("1 / 0") is None
    assert eval_sql("1 % 0") is None


def test_modulo_takes_the_sign_of_the_dividend():
    # MySQL semantics, not Python's floor modulo.
    assert eval_sql("-1 % 2") == -1
    assert eval_sql("-7 % 3") == -1
    assert eval_sql("7 % -3") == 1
    assert eval_sql("-7 % -3") == -1
    assert eval_sql("-5.5 % 2") == -1.5
    assert eval_sql("5.5 % 2") == 1.5
    assert eval_sql("NULL % 2") is None
    assert eval_sql("2 % NULL") is None


def test_comparisons():
    assert eval_sql("3 > 2") is True
    assert eval_sql("2 >= 3") is False
    assert eval_sql("'abc' = 'abc'") is True
    assert eval_sql("1 != 2") is True


def test_null_propagation():
    assert eval_sql("NULL + 1") is None
    assert eval_sql("NULL = NULL") is None
    assert eval_sql("NOT NULL") is None


def test_three_valued_and_or():
    assert eval_sql("TRUE AND NULL") is None
    assert eval_sql("FALSE AND NULL") is False
    assert eval_sql("TRUE OR NULL") is True
    assert eval_sql("FALSE OR NULL") is None


def test_in_list():
    assert eval_sql("2 IN (1, 2, 3)") is True
    assert eval_sql("5 IN (1, 2, 3)") is False
    assert eval_sql("5 NOT IN (1, 2, 3)") is True
    assert eval_sql("NULL IN (1)") is None


def test_between():
    assert eval_sql("2 BETWEEN 1 AND 3") is True
    assert eval_sql("0 BETWEEN 1 AND 3") is False
    assert eval_sql("0 NOT BETWEEN 1 AND 3") is True


def test_like():
    assert eval_sql("'hello' LIKE 'he%'") is True
    assert eval_sql("'hello' LIKE 'h_llo'") is True
    assert eval_sql("'hello' LIKE 'x%'") is False
    assert eval_sql("'hello' NOT LIKE 'x%'") is True


def test_like_case_insensitive():
    assert like_match("Hello", "hello")
    assert like_match("TAG42", "tag%")


def test_like_special_chars_escaped():
    assert like_match("a.b", "a.b")
    assert not like_match("axb", "a.b")  # '.' is literal, not wildcard


def test_is_null():
    assert eval_sql("NULL IS NULL") is True
    assert eval_sql("1 IS NULL") is False
    assert eval_sql("1 IS NOT NULL") is True


def test_column_lookup():
    row = {"users.id": 7, "users.name": "bob"}
    assert eval_sql("id + 1", row=row) == 8
    assert eval_sql("users.name", row=row) == "bob"


def test_unknown_column_raises():
    with pytest.raises(EvaluationError):
        eval_sql("missing", row={"t.a": 1})


def test_ambiguous_column_raises():
    row = {"a.id": 1, "b.id": 2}
    with pytest.raises(EvaluationError):
        evaluate(ColumnRef("id"), EvalContext(row=row))


def test_params():
    assert eval_sql("? + ?", params=(2, 3)) == 5


def test_unbound_param_raises():
    with pytest.raises(EvaluationError):
        eval_sql("?", params=())


def test_function_dispatch():
    assert eval_sql("double(4)", functions={"DOUBLE": lambda v: v * 2}) == 8


def test_unknown_function_raises():
    with pytest.raises(EvaluationError):
        eval_sql("nope()")


def test_string_concat_plus_rejected_types():
    # '+' on strings follows Python semantics here; MySQL would coerce,
    # the workload never relies on it.
    assert eval_sql("'a' + 'b'") == "ab"


def test_compiled_expression_reads_slots():
    stmt = parse("SELECT u.karma + karma * 2 + ?")
    scope = Scope([("u", ("id", "karma"))])
    fn = compile_expression(stmt.items[0].expression, scope, {})
    assert fn(({"id": 1, "karma": 4},), (1,)) == 13
    assert fn(({"id": 2, "karma": 0},), (5,)) == 5


def test_compiled_unknown_column_raises_only_when_called():
    stmt = parse("SELECT nope")
    fn = compile_expression(stmt.items[0].expression,
                            Scope([("t", ("a",))]), {})
    with pytest.raises(EvaluationError, match="unknown column"):
        fn(({"a": 1},), ())


def test_scope_later_alias_shadows_earlier():
    scope = Scope([("t", ("a", "b")), ("t", ("a",))])
    assert scope.resolve(ColumnRef("a", "t")) == (1, "a")
    assert scope.resolve(ColumnRef("a")) == (1, "a")
    with pytest.raises(EvaluationError):
        scope.resolve(ColumnRef("b", "t"))
