"""Differential test: the engine against stdlib ``sqlite3``.

Replica consistency compares engine against engine, so a shared engine
bug cannot show there.  This oracle replays the seeded Cloudstone
statement corpus on both the engine and an independent serial
executor and requires the same result rows for every statement and
the same final contents of every table.

Declared dialect deltas (each an explicit translation, never a skipped
comparison):

* ``AUTO_INCREMENT`` is spelled ``AUTOINCREMENT`` in sqlite; both never
  reuse a key.
* ``CREATE DATABASE`` has no sqlite counterpart; the sqlite connection
  is the one database.
* ``%`` on non-integers: MySQL keeps the fraction (``-5.5 % 2`` is
  -1.5), sqlite truncates both operands to integers first, so only
  integer operands are compared.
"""

import sqlite3

import pytest

from repro.db import StorageEngine
from repro.perf.benches import statement_corpus
from repro.sim import RandomStreams
from repro.sql import PlanCache
from repro.workloads.cloudstone import load_initial_data

TABLES = ("users", "events", "tags", "event_tags", "attendees", "comments")


def _sqlite_text(sql: str):
    if sql.startswith("CREATE DATABASE"):
        return None
    return sql.replace("AUTO_INCREMENT", "AUTOINCREMENT")


class _Both:
    """The loader's ``admin`` surface, applied to both executors."""

    def __init__(self, engine, connection):
        self.engine = engine
        self.connection = connection

    def admin(self, sql, database=None):
        self.engine.execute(sql, database=database)
        text = _sqlite_text(sql)
        if text is not None:
            self.connection.execute(text)


@pytest.fixture(scope="module")
def replayed():
    engine = StorageEngine(default_database="cloudstone",
                           plan_cache=PlanCache())
    connection = sqlite3.connect(":memory:")
    load_initial_data(_Both(engine, connection), 200,
                      RandomStreams(0).stream("oracle.load"))
    outcomes = []
    for text in statement_corpus(seed=0, n_operations=400):
        ours = engine.execute(text, database="cloudstone").result
        cursor = connection.execute(text)
        if text.startswith("SELECT"):
            theirs = [tuple(row) for row in cursor.fetchall()]
            outcomes.append((text, ours.rows, theirs))
        else:
            outcomes.append((text, ours.rowcount, cursor.rowcount))
    yield engine, connection, outcomes
    connection.close()


def test_every_statement_matches_sqlite(replayed):
    _engine, _connection, outcomes = replayed
    assert len(outcomes) == 1155
    mismatches = [(text, ours, theirs) for text, ours, theirs in outcomes
                  if ours != theirs]
    assert mismatches == []


def test_corpus_reads_return_rows(replayed):
    # Guard against a vacuous pass: the corpus really reads data.
    _engine, _connection, outcomes = replayed
    returned = sum(len(ours) for text, ours, _ in outcomes
                   if text.startswith("SELECT"))
    assert returned > 1000


@pytest.mark.parametrize("table", TABLES)
def test_final_table_matches_sqlite(replayed, table):
    engine, connection, _outcomes = replayed
    ours = engine.execute(f"SELECT * FROM {table} ORDER BY id",
                          database="cloudstone").result.rows
    theirs = [tuple(row) for row in
              connection.execute(f"SELECT * FROM {table} ORDER BY id")]
    assert ours
    assert ours == theirs


@pytest.mark.parametrize("left", [-7, -1, 0, 1, 7])
@pytest.mark.parametrize("right", [-3, -2, 2, 3])
def test_integer_modulo_matches_sqlite(left, right):
    # Both follow the sign of the dividend (Python's % does not).
    engine = StorageEngine()
    ours = engine.execute(f"SELECT {left} % {right}").result.scalar()
    theirs = sqlite3.connect(":memory:").execute(
        f"SELECT {left} % {right}").fetchone()[0]
    assert ours == theirs
