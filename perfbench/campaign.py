"""The campaign workloads: E2 on the serial path, E1 on the batch kernel.

A *job* is one ``run_campaign_graph`` call over the workload's whole
seeded spec list, in the production configuration: one process,
``workers=1``, snapshots on, ``batch=True`` and a fresh ``NodeStore``
per job (so nothing replays from an earlier job).  The timed loop runs
jobs back to back until the measuring time is used up.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.experiments.dag import run_campaign_graph
from repro.experiments.graph import NodeStore
from repro.experiments.parallel import RunSpec, execute_specs
from repro.experiments.results import RunRecord, flatten_record
from repro.injection import fic
from repro.injection.fic import ExperimentRecord
from repro.injection.injector import TimeTriggeredInjector
from repro.targets import snapshot as snapshots
from repro.targets.registry import get_target

from perfbench.common import GateError

#: Specs replayed by each workload's gate.
GATE_SAMPLE = 4


@dataclasses.dataclass
class Job:
    """One campaign job's outputs and timings."""

    records: List[RunRecord]
    seconds: float
    #: Time to result: every run of a job is submitted at the job's
    #: start; this is the time from then to each delivery of records.
    #: The serial path delivers one record at a time, the batch path
    #: delivers all of a job's records at once (one sample per job).
    delivery_ms: List[float]
    digest: str


@dataclasses.dataclass
class CampaignWindow:
    jobs: List[Job] = dataclasses.field(default_factory=list)
    #: Runs of jobs that raised (every run of such a job counts).
    failed_runs: int = 0

    @property
    def runs(self) -> int:
        return sum(len(job.records) for job in self.jobs)

    @property
    def seconds(self) -> float:
        return sum(job.seconds for job in self.jobs)

    @property
    def delivery_ms(self) -> List[float]:
        return [ms for job in self.jobs for ms in job.delivery_ms]


def prewarm(specs: Sequence[RunSpec]) -> None:
    """Boot and snapshot every (target, version, test case) the specs use."""
    seen = set()
    for spec in specs:
        point = (spec.target, spec.version, spec.mass_kg, spec.velocity_mps)
        if point not in seen:
            seen.add(point)
            snapshots.prewarm(get_target(spec.target), spec.test_case(), spec.version)


def setup(make_specs: Callable[[int], List[RunSpec]], seed: int):
    """Cold start: empty caches, the seeded inputs, warm snapshots.

    Like each job, a set-up starts on a collected heap, so garbage left
    by the step before is not collected inside its timing.
    """
    gc.collect()
    start = time.perf_counter()
    snapshots.clear_cache()
    fic.clear_reference_memo()
    specs = make_specs(seed)
    prewarm(specs)
    return specs, time.perf_counter() - start


def run_job(specs: Sequence[RunSpec], store_root: Path, tracer=None) -> Job:
    """One campaign over *specs* into a fresh node store.

    With a timing *tracer* the call is an ``experiments.graph`` span.
    """
    store = NodeStore(tempfile.mkdtemp(prefix="store-", dir=store_root))
    clock = time.perf_counter
    marks = []
    span = tracer.span("experiments.graph") if tracer is not None else nullcontext()
    gc.collect()
    start = clock()
    with span:
        result = run_campaign_graph(
            specs, workers=1, store=store, batch=True,
            progress=lambda done, _total: marks.append((clock(), done)),
        )
    seconds = clock() - start
    last_done = marks[-1][1] if marks else 0
    if last_done != len(specs) or len(result.results.records) != len(specs):
        raise GateError(f"job completed {last_done} of {len(specs)} runs")
    digest = hashlib.sha256(result.aggregate_csv.encode("utf-8")).hexdigest()
    delivery_ms = [(t - start) * 1000.0 for t, _done in marks]
    return Job(list(result.results.records), seconds, delivery_ms, digest)


def run_window(specs, seconds: float, store_root: Path, min_jobs: int, tracer=None):
    """Jobs back to back: at least *min_jobs*, until *seconds* have passed.

    A job that raises is reported and its runs count as failed; the
    window goes on with the next job.  A *tracer* gets each job's index
    as its run id.
    """
    window = CampaignWindow()
    start = time.perf_counter()
    attempts = 0
    while attempts < min_jobs or time.perf_counter() - start < seconds:
        attempts += 1
        if tracer is not None:
            tracer.run_id = f"job{attempts}"
        try:
            window.jobs.append(run_job(specs, store_root, tracer))
        except GateError:
            raise
        except Exception:
            traceback.print_exc()
            window.failed_runs += len(specs)
    return window


# -- correctness gates ---------------------------------------------------------


def check_same_records(
    label: str, got: Sequence[RunRecord], want: Sequence[RunRecord]
) -> None:
    """Gate: two execution strategies gave the same records, in order."""
    if len(got) != len(want):
        raise GateError(f"{label}: {len(got)} records vs {len(want)}")
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            raise GateError(f"{label}: record {index} differs: {a} != {b}")


def check_repeats_identical(jobs: Sequence[Job]) -> None:
    """Gate: every repeat of the job produced the same aggregate CSV."""
    digests = {job.digest for job in jobs}
    if len(digests) != 1:
        raise GateError(f"aggregate CSV differs across repeats: {sorted(digests)}")


def cold_record(spec: RunSpec) -> RunRecord:
    """One run on a freshly booted system, no snapshot involved."""
    target = get_target(spec.target)
    system = target.boot(spec.test_case(), spec.version)
    injector = TimeTriggeredInjector(
        spec.error_spec(),
        period_ms=spec.injection_period_ms,
        start_ms=spec.injection_start_ms,
    )
    result = system.run(injector)
    return flatten_record(
        ExperimentRecord(error=spec.error_spec(), version=spec.version, result=result)
    )


def _sample(specs, records, seed: int, label: str):
    picks = sorted(random.Random(f"{label}:{seed}").sample(range(len(specs)), GATE_SAMPLE))
    return [specs[i] for i in picks], [records[i] for i in picks]


def gate_e2(specs, window: CampaignWindow, seed: int) -> None:
    """Snapshot-restored runs equal cold boots; repeats are identical."""
    check_repeats_identical(window.jobs)
    sample, restored = _sample(specs, window.jobs[0].records, seed, "e2-gate")
    check_same_records(
        "snapshot-restored vs cold boot", restored, [cold_record(s) for s in sample]
    )


def gate_e1(specs, window: CampaignWindow, seed: int) -> None:
    """Batch records equal the serial path's; repeats are identical."""
    check_repeats_identical(window.jobs)
    sample, batched = _sample(specs, window.jobs[0].records, seed, "e1-gate")
    serial = execute_specs(sample, workers=1, batch=False).records
    check_same_records("batch vs serial", batched, serial)


def counts(records: Sequence[RunRecord]) -> Dict[str, int]:
    """The deterministic outcome counts of one job (P(d) drift shows here)."""
    return {
        "runs": len(records),
        "detected": sum(r.detected for r in records),
        "failed": sum(r.failed for r in records),
        "wedged": sum(r.wedged for r in records),
        "detected_failed": sum(r.detected and r.failed for r in records),
    }
