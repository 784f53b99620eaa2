"""In-memory spans and the wrappers that record them.

Two kinds of wrapper are installed around the program's public calls,
always from this package and never by editing the program:

* :class:`Probe` marks the run's boundaries: the entry call's first
  and last ``Simulator.run``, and the cluster objects the cell built
  (simulator, replication manager, load generator).  It wraps one
  kernel call and two constructors, so it is installed on timed runs
  too: ``setup_s`` cannot be measured without it.
* :class:`Recorder` plus :func:`install_layers` time the calls into
  each layer for the traced run only.  Every span keeps its name,
  start, end and parent; a layer's self time is its span's duration
  minus the durations of the spans directly inside it, so the self
  times of all spans plus the time outside any span add up to the
  traced wall time exactly.

:class:`Patches` replaces attributes and puts every one of them back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from typing import Callable, Optional

__all__ = ["Patches", "Probe", "Recorder", "install_layers"]

clock = time.perf_counter


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def method(self, cls: type, name: str,
               make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself) by
        ``make(original)``."""
        original = cls.__dict__[name]
        self._set(cls, name, functools.wraps(original)(make(original)))

    def function(self, module, name: str,
                 make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere it was imported
        by name inside the ``repro`` package."""
        original = getattr(module, name)
        wrapper = functools.wraps(original)(make(original))
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attribute, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Recorder:
    """Spans ``[name, start, end, parent]`` plus per-name aggregates.

    Spans nest strictly, so ``close`` ends the innermost open one.
    """

    def __init__(self):
        #: Every span, in the order it opened; ``parent`` is the index
        #: of the enclosing span, or -1.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        #: Layer counts that are not span counts (statements loaded,
        #: binlog bytes, ...).
        self.counts: Counter = Counter()
        #: Depth of open ``sim.run`` spans: statements executed outside
        #: the kernel loop are set-up (admin) work.
        self.in_run = 0
        #: Every slave ``add_slave`` built (its counters outlive a
        #: failover that drops it from the manager).
        self.slaves: list = []
        self._last_run_end: Optional[float] = None
        self._last_run_index = -1
        self._root_since = 0.0

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self._child.append(0.0)
        self.spans.append([name, clock(), 0.0, parent])

    def close(self) -> None:
        end = clock()
        index = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        name = span[0]
        duration = end - span[1]
        self.self_s[name] += duration - self._child.pop()
        self.calls[name] += 1
        if self._child:
            self._child[-1] += duration
        elif name == "sim.run":
            self._last_run_end = end
            self._last_run_index = index
            self._root_since = 0.0
        else:
            self._root_since += duration

    def finish(self, entry_end: float) -> None:
        """Close the run: the time from the last top-level
        ``Simulator.run`` to the entry call's return becomes the
        ``experiments.result`` span, parent of the top-level spans
        inside that interval (observability finalisation, ...)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        if self._last_run_end is None:
            return
        index = len(self.spans)
        for span in self.spans[self._last_run_index + 1:]:
            if span[3] == -1:
                span[3] = index
        self.spans.append(["experiments.result", self._last_run_end,
                           entry_end, -1])
        self.self_s["experiments.result"] += \
            entry_end - self._last_run_end - self._root_since
        self.calls["experiments.result"] += 1

    def __len__(self) -> int:
        return len(self.spans)

    def write(self, path, origin: float) -> None:
        """Write every span as one JSON line ``[name, start_s, end_s,
        parent]`` (times relative to ``origin``), gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for name, start, end, parent in self.spans:
                handle.write(f'["{name}",{start - origin:.7f},'
                             f'{end - origin:.7f},{parent}]\n')


class Probe:
    """Run boundaries and the objects the entry call built."""

    def __init__(self, recorder: Optional[Recorder] = None):
        self.recorder = recorder
        self.sim = None
        self.first_run: Optional[float] = None
        self.managers: list = []
        self.generators: list = []

    def install(self, patches: Patches) -> None:
        from repro.replication.manager import ReplicationManager
        from repro.sim import Simulator
        from repro.workloads.cloudstone import LoadGenerator

        probe = self
        recorder = self.recorder

        def make_run(original):
            def run(sim, until=None):
                if probe.sim is None:
                    probe.sim = sim
                    probe.first_run = clock()
                if recorder is None:
                    return original(sim, until)
                before = sim.now
                recorder.in_run += 1
                recorder.open("sim.run")
                try:
                    return original(sim, until)
                finally:
                    recorder.close()
                    recorder.in_run -= 1
                    recorder.counts["sim.simulated_s"] += sim.now - before
            return run

        def collect(into: list):
            def make(original):
                def __init__(self, *args, **kwargs):
                    original(self, *args, **kwargs)
                    into.append(self)
                return __init__
            return make

        patches.method(Simulator, "run", make_run)
        patches.method(ReplicationManager, "__init__",
                       collect(self.managers))
        patches.method(LoadGenerator, "__init__", collect(self.generators))


def _timed(recorder: Recorder, name: str):
    """Wrapper factory: one span named ``name`` per call."""
    def make(original):
        def wrapper(*args, **kwargs):
            recorder.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close()
        return wrapper
    return make


def _timed_generator(recorder: Recorder, name: str):
    """Wrapper factory for a process generator: one span per resumed
    step, since the generator's host time is spent between yields."""
    def make(original):
        def wrapper(*args, **kwargs):
            generator = original(*args, **kwargs)
            value, error = None, None
            while True:
                recorder.open(name)
                try:
                    if error is not None:
                        yielded = generator.throw(error)
                    else:
                        yielded = generator.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    recorder.close()
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:
                    # The kernel threw into the process (an Interrupt):
                    # forward it, the wrapped generator decides.
                    value, error = None, exc
        return wrapper
    return make


def install_layers(patches: Patches, recorder: Recorder) -> None:
    """Time the calls into every measured layer (traced run only)."""
    import repro.sql.parser as sql_parser
    import repro.workloads.cloudstone.loader as loader
    import repro.replication.manager as manager_module
    import repro.replication.failover as failover
    from repro.cloud.network import Network
    from repro.db.binlog import Binlog
    from repro.db.engine import StorageEngine
    from repro.obs import Observability
    from repro.obs.live.streams import LivePipeline
    from repro.replication.manager import ReplicationManager
    from repro.replication.proxy import ReadWriteSplitProxy
    from repro.sql.ast import SelectStatement
    from repro.sql.plancache import PlanCache
    from repro.workloads.cloudstone.mix import OperationMix

    def _is_select(statement) -> bool:
        if isinstance(statement, str):
            return statement.lstrip()[:6].upper() == "SELECT"
        return isinstance(statement, SelectStatement)

    counts = recorder.counts
    timed = functools.partial(_timed, recorder)

    patches.method(Network, "send", timed("cloud.network_send"))
    patches.method(OperationMix, "pick", timed("workloads.pick"))
    patches.method(PlanCache, "prepare", timed("sql.prepare"))
    patches.function(sql_parser, "parse", timed("sql.parse"))
    patches.method(StorageEngine, "snapshot", timed("db.snapshot"))
    patches.method(StorageEngine, "restore", timed("db.restore"))
    patches.method(Observability, "finalize", timed("obs.finalize"))
    patches.method(LivePipeline, "publish", timed("obs.live_publish"))
    patches.function(failover, "promote",
                     _timed_generator(recorder, "chaos.promote"))

    loading = [0]

    def make_load(original):
        def load_initial_data(*args, **kwargs):
            loading[0] += 1
            recorder.open("workloads.load")
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close()
                loading[0] -= 1
        return load_initial_data

    patches.function(loader, "load_initial_data", make_load)

    executing = [0]

    def make_execute(original):
        def execute(engine, statement, params=None, database=None):
            if executing[0]:  # the engine re-enters itself for `database`
                return original(engine, statement, params, database)
            if _is_select(statement):
                name = "db.read"
            elif not recorder.in_run:
                name = "db.admin"
            elif engine.commit_listener is None:
                name = "db.apply"
            else:
                name = "db.write"
            if loading[0]:
                counts["workloads.load_statements"] += 1
            executing[0] += 1
            recorder.open(name)
            try:
                result = original(engine, statement, params, database)
            finally:
                recorder.close()
                executing[0] -= 1
            if name == "db.read":
                counts["db.rows_examined"] += result.profile.rows_examined
                counts["db.rows_returned"] += result.profile.rows_returned
            return result
        return execute

    patches.method(StorageEngine, "execute", make_execute)

    def make_append(original):
        def append(binlog, *args, **kwargs):
            event = original(binlog, *args, **kwargs)
            counts["db.binlog_appends"] += 1
            counts["db.binlog_bytes"] += event.size_bytes
            return event
        return append

    patches.method(Binlog, "append", make_append)

    def make_proxy_execute(original):
        def execute(proxy, statement, params=None, server=None):
            counts["replication.routed_reads" if _is_select(statement)
                   else "replication.routed_writes"] += 1
            return original(proxy, statement, params, server)
        return execute

    patches.method(ReadWriteSplitProxy, "execute", make_proxy_execute)

    def make_add_slave(original):
        timed_add = timed("replication.add_slave")(original)

        def add_slave(*args, **kwargs):
            slave = timed_add(*args, **kwargs)
            counts["replication.slaves_synced"] += 1
            recorder.slaves.append(slave)
            return slave
        return add_slave

    patches.method(ReplicationManager, "add_slave", make_add_slave)

    def make_resync(original):
        def resync_slave_from(*args, **kwargs):
            counts["replication.slaves_synced"] += 1
            return original(*args, **kwargs)
        return resync_slave_from

    patches.function(manager_module, "resync_slave_from", make_resync)
