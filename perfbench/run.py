"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3-scaleout --seed 3 --seconds 60 --trace 0

``--trace 0`` runs cells of the workload back to back, untraced, for
about ``--seconds`` seconds (at least three cells), times the fixed
workload of ``reference.py`` before each cell and after the last, and
reports the end-to-end metrics over the cells with host times scaled
to the reference host's speed (see ``README.md``).  ``--trace 1`` runs one
cell untraced, then the same cell with every layer timed, and reports
the per-layer metrics; the spans go to ``.perfbench/`` in the
checkout.  Either way each cell's simulated outputs are printed with
their digest, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` where ``attempted``
counts cells and ``failed`` the cells that raised, did not converge,
or (traced) did not reproduce the untraced digest.

The exit code is 0 when every cell passed, 1 when one failed, and 2
when the program cannot be imported (no ``src/repro`` next to this
directory), in which case nothing is printed on standard output.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from reference import REFERENCE_S, time_reference
from spans import Patches, Probe, Recorder, clock, install_layers

ROOT = Path(__file__).resolve().parent.parent

#: Fewest cells a timed run measures, however long each one takes.
MIN_CELLS = 3


@dataclass
class Cell:
    seed: int
    wall_s: float
    setup_s: float
    check: object
    probe: object
    result: object
    #: Mean of the reference timings just before (if any) and after
    #: the cell.
    reference_s: float = 0.0


def cell_seed(seed: int, index: int) -> int:
    """The program seed of a run's ``index``-th cell."""
    return seed * 1000 + index


def run_cell(workload, seed: int, tiny: bool = False,
             recorder=None) -> Cell:
    """One entry call: timed, then checked outside the timed part."""
    from cells import check_cell

    entry = workload.build(seed, tiny)
    gc.collect()
    patches = Patches()
    probe = Probe(recorder)
    try:
        probe.install(patches)
        if recorder is not None:
            install_layers(patches, recorder)
        start = clock()
        result = entry()
        end = clock()
    finally:
        patches.restore()
    if recorder is not None:
        recorder.finish(end)
        # Program counters, read before the check drains replication.
        cache = probe.managers[0].plan_cache
        recorder.counts.update({
            "sql.plancache_hit_ratio": cache.hit_rate,
            "sql.plancache_evictions": cache.evictions,
            "replication.events_applied": sum(
                slave.events_applied for slave in recorder.slaves),
        })
    return Cell(seed, end - start, probe.first_run - start,
                check_cell(result, probe), probe, result)


def describe(workload, index: int, cell: Cell) -> str:
    out = cell.check.outputs
    delay = out.get("relative_delay_ms")
    delay_text = (f"relative delay {delay:.1f} ms" if delay is not None
                  else f"max staleness {out.get('max_staleness_s', 0):.3f} s")
    return (f"{workload.name} cell {index} seed {cell.seed}: "
            f"wall {cell.wall_s:.3f} s, setup {cell.setup_s:.3f} s | "
            f"throughput {out['throughput_ops']:.3f} ops/s, "
            f"p50 {out['latency_p50_s'] * 1000:.1f} ms, "
            f"p99 {out['latency_p99_s'] * 1000:.1f} ms, {delay_text}, "
            f"cpu master {out['master_cpu']:.3f} "
            f"slaves max {max(out['slave_cpus'], default=0.0):.3f}, "
            f"ops {out['ops_completed']} ok / {out['ops_failed']} failed"
            f" | digest {cell.check.digest[:16]}"
            + ("" if cell.check.ok
               else " | FAILED: " + "; ".join(cell.check.problems)))


#: End-to-end metric -> unit, in report order.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "sim_ops_per_s": "1/s",
             "peak_rss_mb": "MB", "ops_ok_share": "share"}


def timed_run(workload, seed: int, seconds: float) -> dict:
    """Cells back to back, each followed by a timing of the reference
    workload; host times are reported at the reference host's speed."""
    cells: list[Cell] = []
    attempted = failed = 0
    started = clock()
    references: list[float] = []
    longest = 0.0
    for index in itertools.count():
        if index >= MIN_CELLS and clock() - started + longest > seconds:
            break
        began = clock()
        attempted += 1
        try:
            cell = run_cell(workload, cell_seed(seed, index))
            # Keep the numbers only: a finished cluster is garbage, and
            # holding it would inflate the next cell's peak memory.
            cell.probe = cell.result = None
        except Exception:
            traceback.print_exc()
            cell = None
        references.append(time_reference())
        longest = max(longest, clock() - began)
        if cell is None:
            failed += 1
            continue
        cell.reference_s = statistics.mean(references[-2:])
        print(describe(workload, index, cell), flush=True)
        if cell.check.ok:
            cells.append(cell)
        else:
            failed += 1
    metrics = {}
    if cells:
        ops_failed = sum(c.check.outputs["ops_failed"] for c in cells)
        ops_attempted = sum(c.check.outputs["ops_attempted"]
                            for c in cells)
        # Host seconds per reference-host second over the whole run.
        slowdown = statistics.mean(references) / REFERENCE_S
        walls = sum(c.wall_s for c in cells)
        running = sum(c.wall_s - c.setup_s for c in cells)
        print(f"{workload.name}: {len(cells)} cells, mean wall "
              f"{walls / len(cells):.3f} host s; reference workload "
              f"{statistics.mean(references):.4f} s over "
              f"{len(references)} timings, so the host ran "
              f"{slowdown:.3f}x slower than the reference host",
              flush=True)
        values = {
            "wall_s": walls / len(cells) / slowdown,
            "setup_s": statistics.median(
                c.setup_s * REFERENCE_S / c.reference_s for c in cells),
            "sim_ops_per_s": sum(c.check.outputs["ops_completed"]
                                 for c in cells) / running * slowdown,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_share": 1.0 - ops_failed / ops_attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


#: Per-layer metric -> unit, in report order.
LAYER_UNITS = {
    "sim.run_self_s": "s", "sim.simulated_s": "s",
    "cloud.network_send_s": "s", "cloud.network_sends": "count",
    "workloads.load_s": "s", "workloads.load_statements": "count",
    "workloads.pick_s": "s", "workloads.picks": "count",
    "workloads.ops_completed": "count", "workloads.ops_failed": "count",
    "workloads.retries": "count", "workloads.pool_timeouts": "count",
    "sql.prepare_s": "s", "sql.prepare_calls": "count",
    "sql.plancache_hit_ratio": "ratio",
    "sql.plancache_evictions": "count",
    "sql.parse_s": "s", "sql.parse_calls": "count",
    "db.read_s": "s", "db.read_calls": "count",
    "db.rows_examined_per_returned": "ratio",
    "db.write_s": "s", "db.write_calls": "count",
    "db.apply_s": "s", "db.apply_calls": "count",
    "db.admin_s": "s", "db.admin_calls": "count",
    "db.snapshot_s": "s", "db.restore_s": "s", "db.snapshot_calls": "count",
    "db.binlog_appends": "count", "db.binlog_bytes": "bytes",
    "replication.add_slave_s": "s", "replication.slaves_synced": "count",
    "replication.events_applied": "count",
    "replication.routed_reads": "count",
    "replication.routed_writes": "count",
    "replication.pool_wait_sim_ms": "ms",
    "experiments.result_s": "s",
    "obs.live_publish_s": "s", "obs.live_publishes": "count",
    "obs.finalize_s": "s", "obs.spans_recorded": "count",
    "chaos.faults_applied": "count", "chaos.failover_s": "s",
    "trace.overhead_ratio": "ratio", "trace.untimed_s": "s",
}

#: Per-layer metric -> the span whose self time (``_s``) or count it
#: reports.
SPAN_OF = {
    "sim.run_self_s": "sim.run",
    "cloud.network_send_s": "cloud.network_send",
    "cloud.network_sends": "cloud.network_send",
    "workloads.load_s": "workloads.load",
    "workloads.pick_s": "workloads.pick", "workloads.picks": "workloads.pick",
    "sql.prepare_s": "sql.prepare", "sql.prepare_calls": "sql.prepare",
    "sql.parse_s": "sql.parse", "sql.parse_calls": "sql.parse",
    "db.read_s": "db.read", "db.read_calls": "db.read",
    "db.write_s": "db.write", "db.write_calls": "db.write",
    "db.apply_s": "db.apply", "db.apply_calls": "db.apply",
    "db.admin_s": "db.admin", "db.admin_calls": "db.admin",
    "db.snapshot_s": "db.snapshot", "db.restore_s": "db.restore",
    "db.snapshot_calls": "db.snapshot",
    "replication.add_slave_s": "replication.add_slave",
    "experiments.result_s": "experiments.result",
    "obs.live_publish_s": "obs.live_publish",
    "obs.live_publishes": "obs.live_publish",
    "obs.finalize_s": "obs.finalize",
    "chaos.failover_s": "chaos.promote",
}


def layer_metrics(recorder, traced: Cell, plain: Cell) -> dict:
    """The per-layer report of one traced cell."""
    values = {}
    for metric, span in SPAN_OF.items():
        values[metric] = recorder.self_s[span] if metric.endswith("_s") \
            else recorder.calls[span]
    counts = recorder.counts
    outputs = traced.check.outputs
    generator = traced.probe.generators[0]
    result = traced.result
    drill = hasattr(result, "report")
    values.update({
        "sim.simulated_s": counts["sim.simulated_s"],
        "workloads.load_statements": counts["workloads.load_statements"],
        "workloads.ops_completed": outputs["ops_completed"],
        "workloads.ops_failed": outputs["ops_failed"],
        "workloads.retries": outputs["retries"],
        "workloads.pool_timeouts": outputs["pool_timeouts"],
        "sql.plancache_hit_ratio": counts["sql.plancache_hit_ratio"],
        "sql.plancache_evictions": counts["sql.plancache_evictions"],
        "db.rows_examined_per_returned":
            counts["db.rows_examined"] / max(counts["db.rows_returned"], 1),
        "db.binlog_appends": counts["db.binlog_appends"],
        "db.binlog_bytes": counts["db.binlog_bytes"],
        "replication.slaves_synced": counts["replication.slaves_synced"],
        "replication.events_applied": counts["replication.events_applied"],
        "replication.routed_reads": counts["replication.routed_reads"],
        "replication.routed_writes": counts["replication.routed_writes"],
        "replication.pool_wait_sim_ms":
            generator.pool.mean_wait_time * 1000.0,
        "obs.spans_recorded":
            len(result.observe.tracer.spans) if drill else 0,
        "chaos.faults_applied": sum(
            1 for _when, _fault, action, _note in result.injector.log
            if action == "begin") if drill else 0,
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
        "trace.untimed_s": traced.wall_s - sum(recorder.self_s.values()),
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}


def traced_run(workload, seed: int) -> dict:
    seed = cell_seed(seed, 0)
    cells = []
    recorder = Recorder()
    for label, rec in (("untraced", None), ("traced", recorder)):
        try:
            cell = run_cell(workload, seed, recorder=rec)
        except Exception:
            traceback.print_exc()
            return {"correct": False, "attempted": len(cells) + 1,
                    "failed": 1, "metrics": {}}
        print(f"[{label}] " + describe(workload, 0, cell), flush=True)
        cells.append(cell)
    plain, traced = cells
    if traced.check.digest != plain.check.digest:
        traced.check.problems.append(
            "simulated outputs differ from the untraced cell's")
        print("FAILED: the traced cell's simulated outputs differ from "
              "the untraced cell's", flush=True)
    failed = sum(not cell.check.ok for cell in cells)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{workload.name}-seed{seed}.spans.jsonl.gz"
    recorder.write(spans_path, origin=recorder.spans[0][1])
    print(f"{len(recorder)} spans written to "
          f"{spans_path.relative_to(ROOT)}", flush=True)
    return {"correct": failed == 0, "attempted": 2,
            "failed": failed,
            "metrics": layer_metrics(recorder, traced, plain)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to run: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from cells import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    report = traced_run(workload, args.seed) if args.trace \
        else timed_run(workload, args.seed, args.seconds)
    print(json.dumps(report), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
