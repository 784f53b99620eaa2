"""Compiled statement plans: access-path choice, reuse, invalidation."""

import pytest

from repro.db import StorageEngine, standard_functions
from repro.sql import EvaluationError, PlanCache

SETUP = [
    "CREATE TABLE users (id INTEGER PRIMARY KEY AUTO_INCREMENT, "
    "username VARCHAR(32) NOT NULL, karma INTEGER DEFAULT 0)",
    "CREATE TABLE attendees (id INTEGER PRIMARY KEY AUTO_INCREMENT, "
    "event_id INTEGER NOT NULL, user_id INTEGER NOT NULL)",
    "INSERT INTO users (username, karma) VALUES ('a', 5), ('b', 3), "
    "('c', 9), ('d', 3)",
    "INSERT INTO attendees (event_id, user_id) VALUES (10, 3), (10, 1), "
    "(11, 3), (12, 2)",
]


def build(*extra, plan_cache=None):
    engine = StorageEngine(functions=standard_functions(lambda: 0.0),
                           default_database="app", plan_cache=plan_cache)
    for sql in SETUP + list(extra):
        engine.execute(sql)
    return engine


def outcome(engine, sql):
    out = engine.execute(sql)
    return out.result.columns, out.result.rows, out.profile


def template_plan(engine, sql):
    """The compiled plan the engine holds for ``sql``'s template."""
    statement, _params = engine.plan_cache.prepare(sql)
    return engine._plan(statement)


# ------------------------------------------------------------ access path
def test_probe_on_joined_table_column_is_not_a_base_probe():
    # u.id = 3 names the joined table; probing attendees.id = 3 would
    # drop the (1, 'c') row.
    engine = build()
    sql = ("SELECT a.id, u.username FROM attendees a JOIN users u "
           "ON u.id = a.user_id WHERE u.id = 3")
    columns, rows, profile = outcome(engine, sql)
    assert rows == [(1, "c"), (3, "c")]
    assert not profile.used_index          # base table scanned
    assert profile.rows_examined == 4 + 4  # 4 scanned + 4 pk probes


def test_unqualified_base_column_still_probes():
    engine = build()
    _columns, rows, profile = outcome(
        engine, "SELECT a.id FROM attendees a JOIN users u "
                "ON u.id = a.user_id WHERE event_id = 10")
    assert rows == [(1,), (2,)]
    assert not profile.used_index  # event_id is not indexed yet
    engine.execute("CREATE INDEX idx_event ON attendees (event_id)")
    _columns, rows, profile = outcome(
        engine, "SELECT a.id FROM attendees a JOIN users u "
                "ON u.id = a.user_id WHERE event_id = 10")
    assert rows == [(1,), (2,)]
    assert profile.used_index
    assert profile.rows_examined == 2 + 2


def test_ambiguous_join_column_raises():
    engine = build()
    with pytest.raises(EvaluationError, match="ambiguous"):
        engine.execute("SELECT a.id FROM attendees a JOIN users u "
                       "ON u.id = a.user_id WHERE id = 3")


def test_unknown_column_raises_only_when_evaluated():
    engine = build()
    # No candidate row: the bad column is never evaluated.
    assert engine.execute(
        "SELECT missing FROM users WHERE id = 99").result.rows == []
    with pytest.raises(EvaluationError, match="unknown column"):
        engine.execute("SELECT missing FROM users WHERE id = 1")


def test_literal_types_do_not_share_a_plan():
    # Literal(1) == Literal(True) == Literal(1.0) as AST values.
    engine = StorageEngine()
    assert engine.execute("SELECT 1").result.rows == [(1,)]
    assert engine.execute("SELECT TRUE").result.rows == [(True,)]
    assert engine.execute("SELECT TRUE").result.columns == ["true"]
    assert engine.execute("SELECT 1.0").result.rows[0][0] == 1.0
    assert isinstance(engine.execute("SELECT 1.0").result.rows[0][0],
                      float)


def test_empty_implicit_group_reads_null_columns():
    # MySQL (and sqlite) answer one row: the aggregate over nothing,
    # with NULL for the non-aggregate column.
    engine = build()
    assert engine.execute("SELECT username, COUNT(*), MAX(karma) "
                          "FROM users WHERE karma > 100").result.rows \
        == [(None, 0, None)]


def test_aggregate_under_unary_minus_is_grouped():
    engine = build()
    assert engine.execute("SELECT -COUNT(*), -SUM(karma) FROM users"
                          ).result.rows == [(-4, -20)]


# ----------------------------------------------------- reuse/invalidation
QUERY = "SELECT username FROM users WHERE karma = {}"


def test_plan_is_reused_across_literal_variants():
    engine = build(plan_cache=PlanCache())
    first = template_plan(engine, QUERY.format(3))
    for karma in (3, 5, 9, 42):
        fresh = build()
        assert outcome(engine, QUERY.format(karma)) \
            == outcome(fresh, QUERY.format(karma))
    assert template_plan(engine, QUERY.format(7)) is first


def test_plan_is_rebuilt_after_create_index():
    engine = build(plan_cache=PlanCache())
    before = template_plan(engine, QUERY.format(3))
    assert not outcome(engine, QUERY.format(3))[2].used_index
    engine.execute("CREATE INDEX idx_karma ON users (karma)")
    after = template_plan(engine, QUERY.format(3))
    assert after is not before
    fresh = build("CREATE INDEX idx_karma ON users (karma)")
    got = outcome(engine, QUERY.format(3))
    assert got == outcome(fresh, QUERY.format(3))
    assert got[2].used_index and got[2].rows_examined == 2


def test_plan_is_rebuilt_after_drop_and_create_table():
    engine = build(plan_cache=PlanCache())
    outcome(engine, QUERY.format(3))
    before = template_plan(engine, QUERY.format(3))
    recreate = [
        "DROP TABLE users",
        "CREATE TABLE users (id INTEGER PRIMARY KEY AUTO_INCREMENT, "
        "username VARCHAR(32) NOT NULL, karma INTEGER DEFAULT 0)",
        "INSERT INTO users (username, karma) VALUES ('x', 3)",
    ]
    for sql in recreate:
        engine.execute(sql)
    assert template_plan(engine, QUERY.format(3)) is not before
    fresh = build(*recreate)
    assert outcome(engine, QUERY.format(3)) \
        == outcome(fresh, QUERY.format(3))
    assert outcome(engine, QUERY.format(3))[1] == [("x",)]


def test_plan_is_rebuilt_after_restore():
    source = build("CREATE INDEX idx_karma ON users (karma)",
                   "INSERT INTO users (username, karma) VALUES ('e', 3)")
    engine = build(plan_cache=PlanCache())
    outcome(engine, QUERY.format(3))
    before = template_plan(engine, QUERY.format(3))
    engine.restore(source.snapshot())
    assert template_plan(engine, QUERY.format(3)) is not before
    got = outcome(engine, QUERY.format(3))
    assert got == outcome(source, QUERY.format(3))
    assert got[1] == [("b",), ("d",), ("e",)]
    assert got[2].used_index


def test_plan_follows_the_default_database():
    engine = build(plan_cache=PlanCache())
    engine.execute("CREATE DATABASE other")
    engine.execute("CREATE TABLE other.users (id INTEGER PRIMARY KEY, "
                   "username VARCHAR(32), karma INTEGER)")
    engine.execute("INSERT INTO other.users (id, username, karma) "
                   "VALUES (1, 'z', 3)")
    sql = QUERY.format(3)
    plan = template_plan(engine, sql)
    assert engine.execute(sql).result.rows == [("b",), ("d",)]
    assert engine.execute(sql, database="other").result.rows == [("z",)]
    assert engine.execute(sql).result.rows == [("b",), ("d",)]
    assert template_plan(engine, sql) is not plan  # recompiled for "app"


# ------------------------------------------------------ structural snapshot
def test_snapshot_sides_are_independent():
    master = build("CREATE INDEX idx_karma ON users (karma)")
    snapshot = master.snapshot()
    replica = StorageEngine(default_database="app")
    replica.restore(snapshot)
    replica_state = replica.checksum()
    master.execute("UPDATE users SET karma = 100 WHERE karma = 3")
    master.execute("DELETE FROM users WHERE id = 1")
    master.execute("INSERT INTO users (username, karma) VALUES ('m', 7)")
    master_state = master.checksum()
    assert replica.checksum() == replica_state
    replica.execute("UPDATE users SET username = 'r' WHERE id = 3")
    replica.execute("INSERT INTO attendees (event_id, user_id) "
                    "VALUES (99, 99)")
    assert master.checksum() == master_state
    # Indexes were copied, not shared: each side's probes see only
    # its own writes.
    assert replica.execute("SELECT id FROM users WHERE karma = 3"
                           ).result.rows == [(2,), (4,)]
    assert master.execute("SELECT id FROM users WHERE karma = 3"
                          ).result.rows == []
    # The payload itself is untouched by either side's writes.
    again = StorageEngine(default_database="app")
    again.restore(snapshot)
    assert again.checksum() == replica_state
