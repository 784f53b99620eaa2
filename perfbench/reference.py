"""A fixed reference workload that measures how fast the host runs now.

The benchmark's hosts are shared: the same cell of the same program
takes from 4 to over 7 seconds depending on what else the machine is
doing, and slow and fast phases last minutes, longer than one run.
Every timed run therefore runs this workload before each cell and
after the last one, and scales its host times to a host on which this
workload takes :data:`REFERENCE_S` seconds (see ``README.md``, Noise).

The work imitates the program's mix in plain Python.  One half runs
generator processes resumed from a heap of timed events (the
simulation kernel), fingerprints literals with a regular expression
into a dict of plans (the SQL front end) and scans a small table of row
dicts (the storage engine).  The other half allocates and touches
several MB of row dicts at random, as a cluster's tables and replica
copies do.  It is deterministic, imports nothing from the program, and must
never change: a change would rescale every reported time.
"""

from __future__ import annotations

import gc
import heapq
import re
import time

__all__ = ["REFERENCE_S", "reference_work", "time_reference"]

#: Seconds :func:`reference_work` takes on the reference host (a
#: 2-CPU x86_64 KVM guest running CPython 3.11, in a fast phase).
REFERENCE_S = 0.4

_LITERAL = re.compile(r"\b\d+\b|'[^']*'")
_STATEMENTS = (
    "SELECT id, name, price FROM items WHERE category = {a} AND price < {b}",
    "SELECT * FROM users WHERE id = {a}",
    "UPDATE items SET price = {b} WHERE id = {a}",
    "INSERT INTO bids (item, user, amount) VALUES ({a}, {b}, 'x{a}')",
)


def _process(index: int, table: list, plans: dict, steps: int):
    """One emulated client: think, issue a statement, repeat."""
    state = index * 7919 + 1
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        text = _STATEMENTS[state & 3].format(a=state % 97, b=state % 1009)
        template = _LITERAL.sub("?", text)
        plan = plans.get(template)
        if plan is None:
            plan = plans[template] = tuple(template.split())
        if plan[0] == "SELECT":
            wanted = state % 13
            rows = [(row["id"], row["price"]) for row in table
                    if row["category"] == wanted and row["price"] < 800]
            yield 0.5 + len(rows) * 0.01
        else:
            table[state % len(table)] = {
                "id": state % 5000, "category": state % 13,
                "price": state % 1009, "name": text[:12]}
            yield 1.0


def _events(clients: int, steps: int) -> int:
    """Kernel, front end and engine work on a cache-sized working set."""
    table = [{"id": i, "category": i % 13, "price": (i * 37) % 1009,
              "name": f"item{i}"} for i in range(120)]
    plans: dict = {}
    heap = [(0.0, i, _process(i, table, plans, steps))
            for i in range(clients)]
    heapq.heapify(heap)
    sequence = clients
    events = 0
    while heap:
        now, _seq, process = heapq.heappop(heap)
        events += 1
        try:
            delay = next(process)
        except StopIteration:
            continue
        sequence += 1
        heapq.heappush(heap, (now + delay, sequence, process))
    return events


def _rows(count: int, touches: int) -> int:
    """Allocation and scattered reads and writes over many row dicts
    (several MB, more than a core's private caches), as in a
    cluster's tables and replica copies."""
    rows = [{"id": i, "value": i & 255, "name": "row"}
            for i in range(count)]
    state = 1
    total = 0
    for _ in range(touches):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        row = rows[state % count]
        total += row["value"]
        row["value"] = state & 255
    return total


def reference_work() -> tuple[int, int]:
    """Run the reference workload; returns the same pair on every call.

    The two halves take about equal time: timed against cells of both
    workloads, the cache-sized half alone followed the host's phases
    well for ``drill-slo`` but not ``fig3-scaleout``, the row half the
    other way round, and their sum did well for both.
    """
    return _events(clients=40, steps=750), _rows(30_000, 300_000)


def time_reference() -> float:
    """Host seconds one :func:`reference_work` call takes now.

    Garbage is collected first, so the rows reuse the memory a finished
    cell freed instead of raising the process's peak, and the collector
    is off while the clock runs, so the time does not depend on what
    else the process holds."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
