"""The benchmark's own tests, on tiny cells of every workload.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from cells import WORKLOADS  # noqa: E402
from reference import reference_work, time_reference  # noqa: E402
from spans import Recorder  # noqa: E402

SEED = 7


def _attribute_state() -> dict:
    """Identity of every attribute of every loaded ``repro`` module and
    of every class those modules define."""
    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attribute, value in vars(module).items():
            state[(name, attribute)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    state[(name, attribute, member)] = id(inner)
    return state


@pytest.fixture(scope="module")
def traced_cells():
    """Per workload: an untraced and a traced run of the same cell,
    and the attribute state before and after them."""
    cells = {}
    for name, workload in WORKLOADS.items():
        plain = run.run_cell(workload, SEED, tiny=True)
        before = _attribute_state()
        recorder = Recorder()
        traced = run.run_cell(workload, SEED, tiny=True, recorder=recorder)
        cells[name] = (plain, traced, recorder, before, _attribute_state())
    return cells


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_cell_converges_and_reports(name, traced_cells):
    plain, _traced, _recorder, _before, _after = traced_cells[name]
    assert plain.check.ok, plain.check.problems
    assert 0.0 < plain.setup_s < plain.wall_s
    outputs = plain.check.outputs
    assert outputs["ops_completed"] > 0
    assert outputs["ops_attempted"] >= outputs["ops_completed"]
    assert outputs["throughput_ops"] > 0.0
    assert run.describe(WORKLOADS[name], 0, plain).startswith(name)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_no_residue(name, traced_cells):
    plain, traced, _recorder, before, after = traced_cells[name]
    assert traced.check.ok, traced.check.problems
    assert traced.check.digest == plain.check.digest
    assert after == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_telescope(name, traced_cells, tmp_path):
    _plain, traced, recorder, _before, _after = traced_cells[name]
    path = tmp_path / "spans.jsonl.gz"
    recorder.write(path, origin=recorder.spans[0][1])
    with gzip.open(path, "rt") as handle:
        spans = [json.loads(line) for line in handle]
    assert len(spans) == len(recorder) > 0

    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent != -1:
            child[parent] += end - start
            p_start, p_end = spans[parent][1:3]
            assert p_start <= start and end <= p_end
    self_s = Counter()
    for index, (span_name, start, end, _parent) in enumerate(spans):
        own = end - start - child[index]
        assert own >= -1e-6
        self_s[span_name] += own
    for span_name, total in recorder.self_s.items():
        assert self_s[span_name] == pytest.approx(total, abs=1e-4)

    # Root spans lie inside the entry call, so self times plus the
    # untimed rest add up to the traced wall time.
    roots = sum(end - start for _n, start, end, parent in spans
                if parent == -1)
    assert roots <= traced.wall_s + 1e-6
    metrics = run.layer_metrics(recorder, traced, _plain)
    untimed = metrics["trace.untimed_s"]["value"]
    assert untimed >= 0.0
    assert sum(recorder.self_s.values()) + untimed == \
        pytest.approx(traced.wall_s, abs=1e-9)


def test_layer_spans_cover_every_layer(traced_cells):
    drill = traced_cells["drill-slo"][2]
    for span in ("sim.run", "cloud.network_send", "workloads.load",
                 "workloads.pick", "sql.prepare", "sql.parse", "db.read",
                 "db.write", "db.apply", "db.admin", "db.snapshot",
                 "db.restore", "replication.add_slave",
                 "experiments.result", "obs.live_publish", "obs.finalize",
                 "chaos.promote"):
        assert drill.calls[span] > 0, span
    assert drill.counts["replication.slaves_synced"] > \
        drill.calls["replication.add_slave"]  # failover re-syncs


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    predictions = json.loads((BENCH / "predictions.json").read_text())
    for row in predictions["table"]:
        assert row["layer"] in run.LAYER_UNITS
        assert row["moves"] in run.E2E_UNITS
        assert set(row["on"]) <= set(WORKLOADS)


def test_reference_workload_is_fixed():
    # Every call does the same work, so its time measures the host only.
    assert reference_work() == reference_work()
    assert time_reference() > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-scaleout",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
