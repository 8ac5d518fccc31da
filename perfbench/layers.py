"""Where the traced run puts its spans, and the per-layer metrics from them.

:func:`trace_plan` names every public call the benchmark wraps, with the
layer name its time is charged to; :class:`Probes` adds the few argument
and return-value readings a metric needs (rows per batch call, bytes per
stored node).  :func:`layer_metrics` turns a finished timing window and
counting window into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.tracing import ROOT, WRAPPER, Overhead, Tracer

#: The layers of one serial arrestor tick; per-tick ratios count calls
#: made inside these only (tank sessions also test monitors and read
#: emulated memory, but they tick through none of these layers).
ARRESTOR_LAYERS = (
    "arrestor.run",
    "arrestor.master",
    "arrestor.modules",
    "arrestor.slave",
    "rtos.scheduler",
    "core.monitor",
    "plant",
    "injection",
)


def trace_plan(counted: bool = True):
    """``(owner, attribute, kind, layer)`` for every wrapped call.

    Without *counted* the plan leaves out the counting wrappers (the
    timing window's plan).
    """
    from repro.arrestor.master import MasterNode
    from repro.arrestor.slave import SlaveNode
    from repro.arrestor.system import TargetSystem
    from repro.core.monitor import SignalMonitor
    from repro.experiments.graph import NodeStore
    from repro.injection.injector import TimeTriggeredInjector
    from repro.memory.memmap import Variable
    from repro.memory.stack import ControlWordTable
    from repro.plant.environment import Environment
    from repro.rtos.scheduler import SlotScheduler
    from repro.rtos.task import Task
    from repro.serve.batchserve import BatchGroup
    from repro.serve.fleet import Fleet
    from repro.serve.session import Session
    from repro.targets.arrestor import ArrestorTarget
    from repro.targets.base import Target
    from repro.targets.tanklevel.target import TankLevelTarget

    plan = [
        (ArrestorTarget, "run_batch", "recorded", "targets.batch"),
        (ArrestorTarget, "boot", "recorded", "targets.boot"),
        (TankLevelTarget, "boot", "recorded", "targets.boot"),
        (Target, "restore", "recorded", "targets.restore"),
        (NodeStore, "put", "recorded", "experiments.store.put"),
        (TargetSystem, "run", "recorded", "arrestor.run"),
        (TargetSystem, "run_prefix", "timed", "arrestor.run"),
        (MasterNode, "tick", "timed", "arrestor.master"),
        (SlaveNode, "tick", "timed", "arrestor.slave"),
        (SlotScheduler, "tick", "timed", "rtos.scheduler"),
        (Task, "run", "timed", "arrestor.modules"),
        (SignalMonitor, "test", "timed", "core.monitor"),
        (Environment, "advance", "timed", "plant"),
        (TimeTriggeredInjector, "tick", "timed", "injection"),
        (ControlWordTable, "consult", "counted", "rtos.control_word.consult"),
        (Variable, "get", "counted", "memory.read"),
        (Variable, "set", "counted", "memory.write"),
        (Fleet, "open_session", "recorded", "serve.open"),
        (Fleet, "ingest", "timed", "serve.ingest"),
        (Fleet, "flush", "recorded", "serve.flush"),
        (Fleet, "close_session", "recorded", "serve.close"),
        (Session, "feed", "recorded", "serve.session.feed"),
        (BatchGroup, "advance", "recorded", "serve.batch.advance"),
    ]
    return [entry for entry in plan if counted or entry[2] != "counted"]


class Probes:
    """Readings taken from arguments and results of a few wrapped calls."""

    def __init__(self) -> None:
        self.batch_rows = 0
        self.batch_row_ticks = 0
        self.store_paths: List[Path] = []
        self.advance_rows = 0
        self.advance_active = 0

    def install(self, tracer: Tracer) -> None:
        """Wrap the probed calls (the tracer does so before its plan, so
        the span wrappers sit outside and the probes' cost stays in the
        measured layer)."""
        from repro.experiments.graph import NodeStore
        from repro.serve.batchserve import BatchGroup
        from repro.targets.arrestor import ArrestorTarget

        run_batch = ArrestorTarget.__dict__["run_batch"]
        put = NodeStore.__dict__["put"]
        advance = BatchGroup.__dict__["advance"]

        @functools.wraps(run_batch)
        def probed_run_batch(target, specs):
            results = run_batch(target, specs)
            self.batch_rows += len(specs)
            # The kernel steps every row until the longest one ends.
            self.batch_row_ticks += len(specs) * max(
                (r.duration_ms for r in results), default=0
            )
            return results

        @functools.wraps(put)
        def probed_put(store, node, key, output):
            path = put(store, node, key, output)
            self.store_paths.append(path)
            return path

        @functools.wraps(advance)
        def probed_advance(group, ticks):
            self.advance_rows += len(group.session_ids)
            self.advance_active += sum(group.active)
            return advance(group, ticks)

        tracer.patch(ArrestorTarget, "run_batch", probed_run_batch)
        tracer.patch(NodeStore, "put", probed_put)
        tracer.patch(BatchGroup, "advance", probed_advance)

    def store_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.store_paths)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    overhead: Overhead,
    probes: Probes,
    counter: Tracer,
    jobs: int = 0,
    serve: Optional[Dict[str, float]] = None,
    snapshot_stats=None,
) -> Dict[str, float]:
    """Every per-layer metric; layers this workload does not reach read 0.

    Times come from the timing window *tracer*, call counts per tick
    from the counting window *counter*.
    """
    t = tracer

    def self_ns(name, parents=None):
        return t.self_ns(name, parents, overhead)

    def per_counted_tick(name):
        return _ratio(counter.count_of(name, ARRESTOR_LAYERS), counter.calls_of("arrestor.master"))

    ticks = t.calls_of("arrestor.master")
    tests = t.calls_of("core.monitor", ARRESTOR_LAYERS)
    boots = t.calls_of("targets.boot")
    restores = t.calls_of("targets.restore")
    puts = t.calls_of("experiments.store.put")
    advances = t.calls_of("serve.batch.advance")
    batch_calls = t.calls_of("targets.batch")
    hits = misses = 0
    if snapshot_stats is not None:
        hits = snapshot_stats.boot_hits + snapshot_stats.prefix_hits
        misses = snapshot_stats.boot_misses + snapshot_stats.prefix_misses
    serve = serve or {}
    return {
        "injection.ns_per_tick": _ratio(self_ns("injection"), ticks),
        "arrestor.master.ns_per_tick": _ratio(self_ns("arrestor.master"), ticks),
        "arrestor.slave.ns_per_tick": _ratio(self_ns("arrestor.slave"), ticks),
        "rtos.scheduler.ns_per_tick": _ratio(self_ns("rtos.scheduler"), ticks),
        "arrestor.modules.ns_per_tick": _ratio(self_ns("arrestor.modules"), ticks),
        "rtos.control_word.consults_per_tick": per_counted_tick("rtos.control_word.consult"),
        "core.monitor.tests_per_tick": _ratio(tests, ticks),
        "core.monitor.ns_per_test": _ratio(self_ns("core.monitor", ARRESTOR_LAYERS), tests),
        "memory.reads_per_tick": per_counted_tick("memory.read"),
        "memory.writes_per_tick": per_counted_tick("memory.write"),
        "plant.ns_per_tick": _ratio(self_ns("plant"), ticks),
        "arrestor.run.self_ns_per_tick": _ratio(self_ns("arrestor.run"), ticks),
        "targets.batch.ns_per_row_tick": _ratio(
            self_ns("targets.batch"), probes.batch_row_ticks
        ),
        "targets.batch.rows": _ratio(probes.batch_rows, batch_calls),
        "targets.snapshot.boot_ms": _ratio(self_ns("targets.boot"), boots) / 1e6,
        "targets.snapshot.restore_ms": _ratio(self_ns("targets.restore"), restores) / 1e6,
        "targets.snapshot.hit_ratio": _ratio(hits, hits + misses),
        "experiments.graph.self_s": _ratio(self_ns("experiments.graph"), jobs) / 1e9,
        "experiments.store.put_ms": _ratio(self_ns("experiments.store.put"), puts) / 1e6,
        "experiments.store.bytes_per_node": _ratio(probes.store_bytes(), puts),
        "serve.busy_frac": serve.get("busy_frac", 0.0),
        "serve.gen_lag_ms_p95": serve.get("gen_lag_ms_p95", 0.0),
        "serve.ingest_us": _ratio(self_ns("serve.ingest"), t.calls_of("serve.ingest")) / 1e3,
        "serve.open_ms": _ratio(self_ns("serve.open"), t.calls_of("serve.open")) / 1e6,
        "serve.close_ms": _ratio(self_ns("serve.close"), t.calls_of("serve.close")) / 1e6,
        "serve.session.feed_ms": _ratio(
            self_ns("serve.session.feed"), t.calls_of("serve.session.feed")
        ) / 1e6,
        "serve.batch.advance_ms": _ratio(self_ns("serve.batch.advance"), advances) / 1e6,
        "serve.batch.rows_per_advance": _ratio(probes.advance_rows, advances),
        "serve.batch.active_row_frac": _ratio(probes.advance_active, probes.advance_rows),
        "serve.frame_ms_drift": serve.get("frame_ms_drift", 0.0),
    }


def attribution(tracer: Tracer, overhead: Overhead) -> Dict[str, float]:
    """Seconds per layer (self time), ``unattributed`` and ``wrapper``.

    The values sum to the traced window's wall time.
    """
    return {
        name: ns / 1e9
        for name, ns in sorted(tracer.layer_self_ns(overhead).items())
    }


def trace_summary(
    tracer: Tracer, overhead: Overhead, untraced_per_op: float, traced_per_op: float
) -> Dict[str, float]:
    """The timing window's own cost, as per-layer metrics.

    ``trace.overhead_pct`` is traced over untraced time per operation;
    ``trace.residual_pct`` is what remains of it once the calibrated
    wrapper share is taken out (how far the calibration falls short).
    """
    shares = tracer.layer_self_ns(overhead)
    wall = tracer.wall_ns
    wrapper_frac = _ratio(shares[WRAPPER], wall)
    return {
        "trace.overhead_pct": (traced_per_op / untraced_per_op - 1.0) * 100.0,
        "trace.residual_pct": (
            traced_per_op * (1.0 - wrapper_frac) / untraced_per_op - 1.0
        ) * 100.0,
        "trace.wall_s": wall / 1e9,
        "trace.unattributed_frac": _ratio(shares[ROOT], wall),
        "trace.wrapper_frac": wrapper_frac,
    }
