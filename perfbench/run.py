"""The repository benchmark: one workload per run, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from
``src/`` of that checkout and nothing else.  With ``--trace 0`` it
measures the end-to-end metrics with no tracing attached; with
``--trace 1`` it measures an untraced window, then a traced one, and
reports the per-layer metrics plus the tracing overhead.  Correctness
gates run outside the timed windows; if one fails the run exits with
code 1 and prints no metrics.  The last line of standard output is the
result object; the line before it records the environment, the
deterministic outcome counts and (traced) the time per layer.  The same
record, with the traced spans, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Set-ups before and again after the measuring window; ``setup_s`` is
#: the median of all of them, so it samples the host at both ends of
#: the run.
SETUP_REPEATS = 5


def pin_environment() -> None:
    """Drop every ``REPRO_*`` variable so none can change what is measured."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def import_program() -> None:
    """Put this checkout's ``src`` (and the benchmark) on the path."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {package} (run from a checkout)")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {package}")


def environment() -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end_metrics(ops: int, busy_s: float, op_ms, setups) -> dict:
    """The ``end_to_end`` metrics of one untraced run."""
    from perfbench.common import median, peak_rss_mb, percentile

    return {
        "ops_per_busy_s": ops / busy_s,
        "op_ms_p50": median(op_ms),
        "op_ms_p95": percentile(op_ms, 0.95),
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_windows():
    """A timing tracer (with probes), its calibration, and a counting tracer."""
    from perfbench.layers import Probes, trace_plan
    from perfbench.tracing import Tracer, calibrate, zero_clock

    probes = Probes()
    timing = Tracer(plan=trace_plan(counted=False), probes=probes)
    counter = Tracer(clock=zero_clock, plan=trace_plan())
    return timing, calibrate(), probes, counter


def traced_info(info: dict, timing, overhead) -> None:
    from perfbench.layers import attribution

    info["layers_s"] = attribution(timing, overhead)
    info["wrapper_ns"] = vars(overhead)
    info["spans"] = timing.span_records()


# -- campaign workloads --------------------------------------------------------


def run_campaign(name: str, seed: int, seconds: float, trace: bool, scratch: Path):
    """Set up, measure, then gate one campaign workload.

    Traced: an untraced window of half the time, then a timing window
    (its set-up included, so boots are timed) and a counting window of
    one job over every fifth spec (call counts per tick need no more).
    """
    from repro.targets import snapshot as snapshots
    from perfbench import campaign, workloads
    from perfbench.layers import layer_metrics, trace_summary

    make_specs, gate = {
        "e2_arrestor_serial": (workloads.e2_specs, campaign.gate_e2),
        "e1_arrestor_batch": (workloads.e1_specs, campaign.gate_e1),
    }[name]
    if not snapshots.snapshots_enabled_default():
        raise SystemExit("perfbench: snapshots must be on (production configuration)")
    info: dict = {}
    setups = []

    def set_up(times):
        for _ in range(times):
            specs, setup_s = campaign.setup(make_specs, seed)
            setups.append(setup_s)
        return specs

    specs = set_up(1 if trace else SETUP_REPEATS)
    window = campaign.run_window(
        specs, seconds / 2 if trace else seconds, scratch, min_jobs=1 if trace else 2
    )
    jobs = list(window.jobs)
    if trace:
        timing, overhead, probes, counter = traced_windows()
        with timing:
            specs, _ = campaign.setup(make_specs, seed)
            traced = campaign.run_window(specs, seconds, scratch, min_jobs=1, tracer=timing)
        stats = snapshots.cache_stats()
        with counter:
            counted = campaign.run_window(specs[::5], 0, scratch, min_jobs=1)
        jobs += traced.jobs
        metrics = layer_metrics(
            timing, overhead, probes, counter, jobs=len(traced.jobs), snapshot_stats=stats
        )
        metrics.update(trace_summary(
            timing, overhead, window.seconds / window.runs, traced.seconds / traced.runs
        ))
        traced_info(info, timing, overhead)
    campaign.check_repeats_identical(jobs)
    gate(specs, window, seed)
    if not trace:
        set_up(SETUP_REPEATS)
        metrics = end_to_end_metrics(window.runs, window.seconds, window.delivery_ms, setups)
        info["samples"] = {
            "runs": window.runs,
            "jobs": len(window.jobs),
            "op_samples": len(window.delivery_ms),
            "setups": setups,
        }
    info["counts"] = campaign.counts(jobs[0].records)
    windows = [window] + ([traced, counted] if trace else [])
    attempted = sum(w.runs + w.failed_runs for w in windows)
    return metrics, attempted, sum(w.failed_runs for w in windows), info


# -- serving workload ----------------------------------------------------------

#: Rounds of the serving counting window.
COUNTING_ROUNDS = 50


def run_serve(seed: int, seconds: float, trace: bool):
    """Set up, measure, then gate the serving workload.

    Traced: a full untraced window (the generator-side metrics — busy
    fraction, lag, drift — come from it), then a timing window of half
    the rounds on a fresh set-up and a short counting window.
    """
    from repro.targets import snapshot as snapshots
    from perfbench import serving
    from perfbench.common import percentile
    from perfbench.layers import layer_metrics, trace_summary

    rounds = serving.rounds_for(seconds)
    info: dict = {}
    windows = []

    async def main():
        driver = serving.ServeDriver(seed)
        traced = None
        try:
            setups = [await driver.setup() for _ in range(SETUP_REPEATS)]
            windows.append(await driver.run(rounds))
            if trace:
                timing, overhead, probes, counter = traced_windows()
                with timing:
                    await driver.setup()
                    windows.append(await driver.run(rounds // 2, tracer=timing))
                stats = snapshots.cache_stats()
                with counter:
                    windows.append(await driver.run(COUNTING_ROUNDS))
                traced = (timing, overhead, probes, counter, stats)
            info["counts"] = serving.gate(driver)
            if not trace:
                setups.extend([await driver.setup() for _ in range(SETUP_REPEATS)])
            return setups, traced
        finally:
            await driver.close()

    setups, traced_state = asyncio.run(main())
    window = windows[0]
    if trace:
        timing, overhead, probes, counter, stats = traced_state
        traced_info(info, timing, overhead)
        traced = windows[1]
        metrics = layer_metrics(
            timing, overhead, probes, counter, snapshot_stats=stats,
            serve={
                "busy_frac": window.busy_s / window.wall_s,
                "gen_lag_ms_p95": percentile(window.lag_ms, 0.95),
                "frame_ms_drift": serving.frame_drift(window.round_ms),
            },
        )
        metrics.update(trace_summary(
            timing, overhead, window.busy_s / window.frames, traced.busy_s / traced.frames
        ))
    else:
        metrics = end_to_end_metrics(window.frames, window.busy_s, window.frame_ms, setups)
        info["samples"] = {
            "rounds": window.rounds,
            "frames": window.frames,
            "op_samples": len(window.round_ms),
            "setups": setups,
            "busy_frac": window.busy_s / window.wall_s,
            "lag_ms_p95": percentile(window.lag_ms, 0.95),
        }
    info["counts"].update(
        sessions_closed=window.closed,
        detected_sessions=window.detected_sessions,
        failed_sessions=window.failed_sessions,
        detections=window.detections,
    )
    attempted = sum(w.frames + w.opened for w in windows)
    failed = sum(w.dropped + w.stuck for w in windows)
    return metrics, attempted, failed, info


WORKLOADS = ("e2_arrestor_serial", "e1_arrestor_batch", "serve_mixed_realtime")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_environment()
    import_program()
    from perfbench.common import GateError

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    started = time.perf_counter()
    try:
        if args.workload == "serve_mixed_realtime":
            metrics, attempted, failed, info = run_serve(args.seed, args.seconds, bool(args.trace))
        else:
            metrics, attempted, failed, info = run_campaign(
                args.workload, args.seed, args.seconds, bool(args.trace), scratch
            )
    except GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    spec = benchmark_spec()
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        print(f"perfbench: metrics {sorted(metrics)} != BENCHMARK.json {sorted(expected)}",
              file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    spans = info.pop("spans", None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": time.perf_counter() - started,
        "env": environment(),
        **info,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(dict(record, metrics=metrics, spans=spans)))
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in expected
        },
    }))
    return 0


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    sys.exit(main())
