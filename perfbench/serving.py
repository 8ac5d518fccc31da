"""The ``serve_mixed_realtime`` workload: an open loop of real-time telemetry.

Every ``FRAME_MS`` of wall time is one *round*: each open session gets
one frame that advances it ``FRAME_MS`` of sim-time, then the fleet is
flushed.  A frame is due at its round's scheduled start, whether or not
the previous round has finished, so a slow round makes later frames
late and the lateness counts in their latency.  Finished sessions are
closed and replaced by fresh seeded sessions of the same kind, so
open/close churn runs beside ingestion.

The whole population opens during set-up, so sessions of one kind start
together: the tank sessions' fixed 5-second windows end on the same
round and are replaced in one burst, which keeps each shard's batched
tank sessions in one lockstep group.  Sessions opened on different
rounds would each seed a group of their own, and every group costs a
full numpy step per round whatever its size.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import random
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.injection.errors import ErrorSpec
from repro.injection.injector import TimeTriggeredInjector
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.session import Frame, SessionOutcome, SessionSpec, events_key
from repro.targets import snapshot as snapshots
from repro.targets.registry import get_target

from perfbench.common import GateError, median
from perfbench.workloads import ServeMix, SessionStream

FRAME_MS = 100
MIN_ROUNDS = 200
MIX = ServeMix(tank_batch=40, tank_raw=8, arrestor=4)
#: Completed sessions per kind replayed offline by the gate.
GATE_PER_KIND = 2


@dataclasses.dataclass
class ServeWindow:
    """What one measured stretch of rounds did."""

    rounds: int = 0
    frames: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    frame_ms: List[float] = dataclasses.field(default_factory=list)
    round_ms: List[float] = dataclasses.field(default_factory=list)
    lag_ms: List[float] = dataclasses.field(default_factory=list)
    opened: int = 0
    closed: int = 0
    dropped: int = 0
    stuck: int = 0
    detections: int = 0
    detected_sessions: int = 0
    failed_sessions: int = 0


class ServeDriver:
    """One fleet, one seeded session stream, the open-loop generator."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.stream: Optional[SessionStream] = None
        self.fleet: Optional[Fleet] = None
        self.kind_of: Dict[str, str] = {}
        self.spec_of: Dict[str, SessionSpec] = {}
        self.outcomes: Dict[str, SessionOutcome] = {}
        self._open: Dict[int, str] = {}
        self._rounds_run = 0
        self._t0 = 0.0

    async def setup(self) -> float:
        """Cold start: fresh caches, inputs, warm snapshots, a started fleet.

        The previous fleet and its sessions are released and collected
        before the timing starts.
        """
        await self.close()
        self.kind_of.clear()
        self.spec_of.clear()
        self.outcomes.clear()
        self._open.clear()
        self._rounds_run = 0
        gc.collect()
        start = time.perf_counter()
        snapshots.clear_cache()
        self.stream = SessionStream(self.seed)
        for target, case in self.stream.grid_points():
            snapshots.prewarm(get_target(target), case, "All")
        self.fleet = Fleet(FleetConfig())
        await self.fleet.start()
        opened = ServeWindow()
        for slot, kind in enumerate(MIX.slots):
            await self._open_slot(slot, kind, opened)
        return time.perf_counter() - start

    async def close(self) -> None:
        if self.fleet is not None:
            await self.fleet.stop()
            self.fleet = None

    async def _open_slot(self, slot: int, kind: str, window: ServeWindow) -> None:
        spec = self.stream.next(kind)
        sid = await self.fleet.open_session(spec)
        self.kind_of[sid] = kind
        self.spec_of[sid] = spec
        self._open[slot] = sid
        window.opened += 1

    async def run(self, rounds: int, tracer=None) -> ServeWindow:
        """Run *rounds* real-time rounds, continuing the fleet's schedule.

        A timing *tracer* gets the round as its run id and a
        ``serve.idle`` span around the generator's sleep between rounds.
        """
        fleet = self.fleet
        slots = MIX.slots
        window = ServeWindow()
        clock = time.perf_counter
        if self._rounds_run == 0:
            self._t0 = clock()
        first = self._rounds_run
        window_start = self._t0 + first * FRAME_MS / 1000.0
        for r in range(first, first + rounds):
            due = self._t0 + r * FRAME_MS / 1000.0
            now = clock()
            if tracer is not None:
                tracer.run_id = f"round{r}"
            if now < due:
                idle = tracer.span("serve.idle", record=False) if tracer else nullcontext()
                with idle:
                    await asyncio.sleep(due - now)
            window.lag_ms.append((clock() - due) * 1000.0)
            busy = 0.0
            sent = 0
            for sid in self._open.values():
                t = clock()
                accepted = await fleet.ingest(Frame(session_id=sid, ticks=FRAME_MS))
                busy += clock() - t
                sent += 1
                if not accepted:
                    window.dropped += 1
            t = clock()
            left = await fleet.flush()
            done = clock()
            busy += done - t
            window.stuck += left
            window.frame_ms.extend([(done - due) * 1000.0] * sent)
            window.round_ms.append((done - due) * 1000.0)
            window.frames += sent
            t = clock()
            for slot, sid in list(self._open.items()):
                if fleet.is_finished(sid):
                    outcome = await fleet.close_session(sid, complete=True)
                    self.outcomes[sid] = outcome
                    window.closed += 1
                    window.detections += len(outcome.events)
                    window.detected_sessions += outcome.result.detected
                    window.failed_sessions += outcome.result.failed
                    await self._open_slot(slot, slots[slot], window)
            window.busy_s += busy + clock() - t
            window.rounds += 1
        window.wall_s = clock() - window_start
        self._rounds_run = first + rounds
        return window


def rounds_for(seconds: float) -> int:
    return max(MIN_ROUNDS, int(round(seconds * 1000.0 / FRAME_MS)))


def offline(spec: SessionSpec) -> Tuple[object, List[tuple]]:
    """The campaign path's answer for one session: a cold-booted run."""
    target = get_target(spec.target)
    if spec.signal is not None:
        variable = target.memory().signal_variable(spec.signal)
        address = variable.address + (spec.signal_bit >> 3)
        bit = spec.signal_bit & 7
    else:
        address, bit = spec.address, spec.bit
    error = ErrorSpec(
        name=spec.session_id,
        address=address,
        bit=bit,
        area="ram",
        signal=spec.signal,
        signal_bit=spec.signal_bit,
    )
    system = target.boot(spec.test_case(), spec.version)
    injector = TimeTriggeredInjector(
        error, period_ms=spec.period_ms, start_ms=spec.start_ms
    )
    result = system.run(injector)
    key = [
        (e.time, e.monitor_id, e.signal, e.value, e.previous)
        for e in system.detection_log.events
    ]
    return result, key


RESULT_FIELDS = (
    "detected",
    "first_detection_ms",
    "detection_count",
    "first_injection_ms",
    "injection_count",
    "duration_ms",
    "failed",
)


def check_online_matches_offline(
    sid: str, outcome: SessionOutcome, offline_result, offline_key, batch: bool
) -> None:
    """Gate: one served session equals its offline run, event for event.

    The batch path's detection book keeps ``(time, monitor, signal)``
    only, so batched sessions are compared on that projection.
    """
    served = events_key(outcome.events)
    if batch:
        served = [event[:3] for event in served]
        offline_key = [event[:3] for event in offline_key]
    if served != offline_key:
        index = next(
            (i for i, pair in enumerate(zip(served, offline_key)) if pair[0] != pair[1]),
            min(len(served), len(offline_key)),
        )
        raise GateError(
            f"session {sid}: online events differ from the offline run at event "
            f"{index}: online {served[index:index + 1]} != offline "
            f"{offline_key[index:index + 1]}"
        )
    for field in RESULT_FIELDS:
        online_value = getattr(outcome.result, field)
        offline_value = getattr(offline_result, field)
        if online_value != offline_value:
            raise GateError(
                f"session {sid}: {field} online {online_value!r} "
                f"!= offline {offline_value!r}"
            )


def gate(driver: ServeDriver) -> Dict[str, int]:
    """Replay a seeded sample of completed sessions offline and compare."""
    rng = random.Random(f"serve-gate:{driver.seed}")
    checked = 0
    for kind in ("tank_batch", "tank_raw", "arrestor"):
        done = sorted(
            sid
            for sid, outcome in driver.outcomes.items()
            if driver.kind_of[sid] == kind and outcome.completed
        )
        if not done:
            raise GateError(f"no completed {kind} session to check")
        for sid in rng.sample(done, min(GATE_PER_KIND, len(done))):
            result, key = offline(driver.spec_of[sid])
            check_online_matches_offline(
                sid, driver.outcomes[sid], result, key, batch=kind == "tank_batch"
            )
            checked += 1
    return {"sessions_checked": checked}


def frame_drift(round_ms: List[float]) -> float:
    """Last-third median round latency over the first third's."""
    third = len(round_ms) // 3
    if third == 0:
        return 1.0
    return median(round_ms[-third:]) / median(round_ms[:third])
