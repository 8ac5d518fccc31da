"""Tests of the benchmark itself (not of the program it measures).

Run from the checkout root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import campaign, layers, run, serving, workloads  # noqa: E402
from perfbench.common import GateError  # noqa: E402
from perfbench.tracing import ROOT as UNATTRIBUTED  # noqa: E402
from perfbench.tracing import WRAPPER, Overhead, Tracer, zero_clock  # noqa: E402
from repro.experiments.results import RunRecord  # noqa: E402
from repro.serve.session import ServeEvent, SessionOutcome  # noqa: E402


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- workload generators -------------------------------------------------------


@pytest.mark.parametrize("make", [workloads.e2_specs, workloads.e1_specs])
def test_campaign_inputs_are_deterministic_and_seeded(make):
    assert make(7) == make(7)
    assert make(7) != make(8)
    # The seed changes which runs, not how many; every test case is used
    # as evenly as the run count allows.
    assert len(make(7)) == len(make(8))
    for seed in (7, 8):
        per_case = Counter((s.mass_kg, s.velocity_mps) for s in make(seed))
        assert len(per_case) == 25
        assert max(per_case.values()) - min(per_case.values()) <= 1


def test_session_stream_is_deterministic_and_seeded():
    def draw(seed):
        stream = workloads.SessionStream(seed)
        return [stream.next(kind) for kind in serving.MIX.slots]

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)
    assert len({spec.session_id for spec in draw(3)}) == len(serving.MIX.slots)


# -- metric names --------------------------------------------------------------


def test_end_to_end_metric_names_match_benchmark_json():
    metrics = run.end_to_end_metrics(10, 2.0, [1.0, 2.0, 3.0], [0.5, 0.6, 0.7])
    assert sorted(metrics) == sorted(m["name"] for m in _benchmark()["end_to_end"])
    assert all(value > 0 for value in metrics.values())


def test_per_layer_metric_names_match_benchmark_json():
    tracer = Tracer()
    with tracer:
        pass
    overhead = Overhead(0.0, 0.0)
    metrics = layers.layer_metrics(tracer, overhead, layers.Probes(), Tracer())
    metrics.update(layers.trace_summary(tracer, overhead, 1.0, 1.5))
    assert sorted(metrics) == sorted(m["name"] for m in _benchmark()["per_layer"])


def test_benchmark_json_is_well_formed():
    spec = _benchmark()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


# -- correctness gates fail on corrupted records ---------------------------------


def _record(**changes):
    base = RunRecord(
        error_name="R1", signal=None, signal_bit=None, area="ram", version="All",
        mass_kg=8000.0, velocity_mps=40.0, detected=True, failed=False,
        latency_ms=3.0, wedged=False, duration_ms=12000,
    )
    return dataclasses.replace(base, **changes)


def test_record_gate_passes_equal_and_fails_corrupted():
    good = [_record(), _record(error_name="R2")]
    campaign.check_same_records("t", good, list(good))
    for corrupt in ({"detected": False}, {"duration_ms": 11999}, {"latency_ms": None}):
        bad = [good[0], dataclasses.replace(good[1], **corrupt)]
        with pytest.raises(GateError):
            campaign.check_same_records("t", bad, good)
    with pytest.raises(GateError):
        campaign.check_same_records("t", good[:1], good)


def test_repeat_gate_fails_on_a_differing_digest():
    job = campaign.Job(records=[], seconds=1.0, delivery_ms=[], digest="a")
    campaign.check_repeats_identical([job, job])
    with pytest.raises(GateError):
        campaign.check_repeats_identical([job, dataclasses.replace(job, digest="b")])


def test_cold_boot_gate_on_a_real_run():
    spec = workloads.e2_specs(1)[0]
    cold = campaign.cold_record(spec)
    campaign.check_same_records("real", [cold], [campaign.cold_record(spec)])
    with pytest.raises(GateError):
        campaign.check_same_records(
            "real", [dataclasses.replace(cold, failed=not cold.failed)], [cold]
        )


def _outcome(events):
    result = SimpleNamespace(**{field: 1 for field in serving.RESULT_FIELDS})
    served = tuple(ServeEvent("s", t, m, sig, v, p) for t, m, sig, v, p in events)
    return SessionOutcome(session_id="s", result=result, events=served), result


@pytest.mark.parametrize("batch", [False, True])
def test_online_gate_fails_on_corrupted_events(batch):
    offline = [(5, "EA1", "SetPoint", 3, 2), (9, "EA3", "flow_acc", 7, 1)]
    outcome, result = _outcome(offline)
    serving.check_online_matches_offline("s", outcome, result, offline, batch)
    for index, field, value in ((0, 0, 6), (1, 1, "EA2"), (1, 2, "SetPoint")):
        corrupted = [list(event) for event in offline]
        corrupted[index][field] = value
        bad, _ = _outcome([tuple(event) for event in corrupted])
        with pytest.raises(GateError, match=f"at event {index}:"):
            serving.check_online_matches_offline("s", bad, result, offline, batch)
    fewer, _ = _outcome(offline[:1])
    with pytest.raises(GateError, match="at event 1:"):
        serving.check_online_matches_offline("s", fewer, result, offline, batch)
    wrong = SimpleNamespace(**dict(vars(result), detection_count=2))
    with pytest.raises(GateError):
        serving.check_online_matches_offline("s", outcome, wrong, offline, batch)


# -- self-time arithmetic ------------------------------------------------------


class _Clock:
    """A clock reading a fixed script of timestamps."""

    def __init__(self, stamps):
        self._stamps = iter(stamps)

    def __call__(self):
        return next(self._stamps)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 100]: A [10, 60] holds B [20, 30] and C [40, 50]; D [70, 90].
    tracer = Tracer(clock=_Clock([0, 10, 20, 30, 40, 50, 60, 70, 90, 100]))

    def leaf():
        return None

    b = tracer.timed("B", leaf)
    c = tracer.timed("C", leaf)

    def a_body():
        b()
        c()

    a = tracer.timed("A", a_body, record=True)
    with tracer:
        a()
        with tracer.span("D"):
            pass
    selfs = tracer.layer_self_ns()
    assert selfs == {UNATTRIBUTED: 30, "A": 30, "B": 10, "C": 10, "D": 20}
    assert sum(selfs.values()) == tracer.wall_ns == 100
    assert tracer.calls_of("B", parents=["A"]) == 1
    assert tracer.calls_of("B", parents=["D"]) == 0
    assert [(name, start, end, parent) for name, start, end, parent, _ in tracer.span_records()] == [
        ("A", 10, 60, -1), ("D", 70, 90, -1)
    ]
    # Moving calibrated wrapper cost out keeps the sum intact.
    corrected = tracer.layer_self_ns(Overhead(inside=1.0, outside=2.0))
    assert corrected["A"] == 30 - 1 - 2 * 2
    assert corrected[UNATTRIBUTED] == 30 - 2 * 2
    assert sum(corrected.values()) == pytest.approx(100)
    assert corrected[WRAPPER] == 4 * 1.0 + 4 * 2.0


def test_counting_window_attributes_calls_to_the_enclosing_layer():
    tracer = Tracer(clock=zero_clock)
    read = tracer.counted("read", lambda: None)
    inner = tracer.timed("inner", lambda: (read(), read()))
    with tracer:
        read()
        inner()
        inner()
    assert tracer.count_of("read", within=["inner"]) == 4
    assert tracer.count_of("read", within=[UNATTRIBUTED]) == 1
    assert tracer.count_of("read") == 5


def test_install_restores_the_originals():
    class Thing:
        def work(self, x):
            return x + 1

    original = Thing.__dict__["work"]
    tracer = Tracer(plan=[(Thing, "work", "timed", "thing")])
    with tracer:
        assert Thing.__dict__["work"] is not original
        assert Thing().work(1) == 2
    assert Thing.__dict__["work"] is original
    assert tracer.calls_of("thing") == 1


# -- the contract's bare-directory check ---------------------------------------


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e2_arrestor_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
