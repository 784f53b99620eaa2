"""The benchmark's workloads: one entry call each, plus its checks.

Each workload is a closed loop (every emulated user waits for its
operation to finish, then thinks) built from a seed by this file alone;
the program receives only the finished config.  The workloads
and why each was chosen are listed in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

# Imported here, not inside the entry calls, so the first timed cell
# of a process pays no import cost the later ones skip.
import repro.obs.export  # noqa: F401  (drill report digest)
from repro.chaos.drill import DrillConfig, run_drill
from repro.experiments import PAPER_80_20, LocationConfig, run_experiment
from repro.obs.live import default_slo_spec
from repro.workloads.cloudstone import Phases

__all__ = ["WORKLOADS", "Workload", "CellCheck", "check_cell"]

#: Simulated seconds allowed for replication to drain after a cell.
DRAIN_LIMIT_S = 3600.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(seed, tiny) -> entry call``; ``tiny`` shrinks the cell for
    #: the benchmark's own tests.
    build: Callable[[int, bool], Callable[[], object]]


def _fig3_scaleout(seed: int, tiny: bool):
    config = PAPER_80_20(LocationConfig.DIFFERENT_REGION,
                         n_slaves=2 if tiny else 11,
                         n_users=8 if tiny else 200,
                         phases=Phases().scaled(0.01 if tiny else 0.05),
                         seed=seed, data_size=20 if tiny else 600)
    return lambda: run_experiment(config)


def _drill_slo(seed: int, tiny: bool):
    config = DrillConfig(seed=seed, n_users=6 if tiny else 100,
                         n_slaves=2 if tiny else 4,
                         **({"data_size": 20} if tiny else {}))
    spec = default_slo_spec()
    return lambda: run_drill(config, slo=spec)


WORKLOADS = {w.name: w for w in (
    Workload("fig3-scaleout",
             "Paper 80/20 scale-out: read-heavy, 11 cross-region slaves "
             "each replay every write; stresses slave SELECTs, the "
             "apply path and slave sync at set-up",
             _fig3_scaleout),
    Workload("drill-slo",
             "Default fault drill ending in master crash and failover, "
             "with observability and live SLOs on; the only workload "
             "with obs, chaos, retries and failed operations",
             _drill_slo),
)}


@dataclass
class CellCheck:
    """A cell's simulated outputs, their digest and its verdict."""

    outputs: dict
    digest: str
    problems: list

    @property
    def ok(self) -> bool:
        return not self.problems


def _drain(sim, manager) -> bool:
    """Let replication catch up (no new writes arrive after a cell)."""
    if manager.master is None or not manager.master.online:
        return False
    drain = sim.process(manager.wait_until_caught_up(
        timeout=DRAIN_LIMIT_S))
    while not drain.triggered:
        sim.run(until=sim.now + 5.0)
    return bool(drain.value)


def _utilization(instance, seconds: float) -> float:
    return instance.busy_time / (seconds * instance.itype.cores)


def check_cell(result, probe) -> CellCheck:
    """Simulated outputs of one finished cell, and its correctness.

    Called after the timed part: for an experiment cell this drains
    replication and compares every replica's tables with the master's;
    a drill already did both and reports the verdict.
    """
    generator = probe.generators[0]
    completed = int(sum(generator.op_counts.values()))
    percentiles = generator.steady_latency_percentiles()
    problems = []
    if hasattr(result, "report"):  # a drill
        report = result.report
        manager = result.manager
        instances = [manager.master.instance] \
            + [slave.instance for slave in manager.slaves]
        now = probe.sim.now
        outputs = {
            "throughput_ops": report["driver"]["steady_throughput_ops"],
            "max_staleness_s": report["staleness"]["workload_max_s"],
            "master_cpu": _utilization(instances[0], now),
            "slave_cpus": [_utilization(i, now) for i in instances[1:]],
            "report_digest": report["digest"],
        }
        consistency = report["consistency"]
        drained, consistent = consistency["drained"], \
            consistency["consistent"]
    else:
        manager = probe.managers[0]
        outputs = {
            "throughput_ops": result.throughput,
            "relative_delay_ms": result.relative_delay_ms,
            "master_cpu": result.master_cpu,
            "slave_cpus": list(result.slave_cpus),
        }
        drained = _drain(probe.sim, manager)
        consistent = drained and manager.verify_consistency()
    outputs.update({
        "latency_p50_s": percentiles[50.0],
        "latency_p99_s": percentiles[99.0],
        "ops_completed": completed,
        # ``errors`` counts operations whose every attempt failed, pool
        # timeouts included; ``pool_timeouts`` counts attempts, some of
        # which a retry recovered.
        "ops_failed": generator.errors,
        "ops_attempted": completed + generator.errors,
        "retries": generator.retries,
        "pool_timeouts": generator.pool_timeouts,
    })
    if not drained:
        problems.append("replication did not drain")
    elif not consistent:
        problems.append("replicas differ from the master")
    if completed == 0:
        problems.append("no operation completed")
    canonical = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return CellCheck(outputs, digest, problems)
