"""Def/use pruning: a skipped run must equal the run it stands for.

:meth:`CampaignController.run_injection` answers an injected run from
the memoized fault-free run when the flipped byte is never read by the
fault-free software.  These differential tests pin that shortcut
against the unpruned paths (``snapshots=False`` cold boots, an
attached tracer) on both built-in targets, over E2 samples that mix
pruned and simulated addresses.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.parallel import RunSpec, execute_specs
from repro.injection.fic import CampaignController, clear_reference_memo
from repro.injection.injector import INJECTION_PERIOD_MS, TimeTriggeredInjector
from repro.memory.memmap import MemoryMap
from repro.obs import TraceBus
from repro.obs.metrics import MetricsRegistry
from repro.targets import clear_cache
from repro.targets.registry import get_target

TARGETS = ("arrestor", "tanklevel")

#: Injection starts: from boot, and mid-run (the prefix fast-forward).
STARTS = {"arrestor": (0, 1500), "tanklevel": (0, 700)}


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    clear_reference_memo()
    yield
    clear_cache()
    clear_reference_memo()


def _mixed_sample(target, case, per_kind=3, seed=15):
    """A seeded E2 sample: *per_kind* pruned errors, *per_kind* simulated."""
    controller = CampaignController(target=target)
    errors = target.e2_error_set()
    pruned = [e for e in errors if controller.prunable(e, case)]
    live = [e for e in errors if not controller.prunable(e, case)]
    rng = random.Random(seed)
    sample = rng.sample(pruned, per_kind) + rng.sample(live, per_kind)
    rng.shuffle(sample)
    return sample


@pytest.mark.parametrize("target_name", TARGETS)
def test_pruned_and_live_runs_equal_cold_runs(target_name):
    target = get_target(target_name)
    case = target.test_cases()[7]
    sample = _mixed_sample(target, case)
    for start in STARTS[target_name]:
        warm = CampaignController(target=target, injection_start_ms=start)
        cold = CampaignController(
            target=target, injection_start_ms=start, snapshots=False
        )
        kinds = set()
        for error in sample:
            kinds.add(warm.prunable(error, case))
            assert warm.run_injection(error, case).result == (
                cold.run_injection(error, case).result
            ), (error.name, start)
        assert kinds == {True, False}


@pytest.mark.parametrize("target_name", TARGETS)
def test_engine_records_equal_unpruned_records(target_name):
    target = get_target(target_name)
    case = target.test_cases()[12]
    sample = _mixed_sample(target, case, per_kind=2)
    for start in STARTS[target_name]:
        specs = [
            RunSpec.build(
                "e2", "All", error, case, INJECTION_PERIOD_MS,
                target=target_name, injection_start_ms=start,
            )
            for error in sample
        ]
        pruned = execute_specs(specs, snapshots=True).records
        unpruned = execute_specs(specs, snapshots=False).records
        assert pruned == unpruned


@pytest.mark.parametrize("target_name", TARGETS)
def test_metrics_identical_with_and_without_pruning(target_name):
    target = get_target(target_name)
    case = target.test_cases()[3]
    sample = _mixed_sample(target, case, per_kind=2)
    snapshots = {}
    for enabled in (True, False):
        registry = MetricsRegistry()
        controller = CampaignController(
            target=target, metrics=registry, snapshots=enabled
        )
        for error in sample:
            controller.run_injection(error, case)
        snapshots[enabled] = registry.snapshot()
    assert snapshots[True] == snapshots[False]
    assert snapshots[True]["counters"]  # the sample recorded something


@pytest.mark.parametrize("target_name", TARGETS)
def test_traced_and_untraced_records_identical(target_name):
    target = get_target(target_name)
    case = target.test_cases()[0]
    sample = _mixed_sample(target, case, per_kind=2)
    events = []

    class _Sink:
        def emit(self, event):
            events.append(event)

    traced = CampaignController(target=target, tracer=TraceBus([_Sink()]))
    untraced = CampaignController(target=target)
    for error in sample:
        # A tracer bypasses the shortcut: every traced run simulates.
        assert not traced.prunable(error, case)
        assert traced.run_injection(error, case).result == (
            untraced.run_injection(error, case).result
        )
    assert sum(e.kind == "run-end" for e in events) == len(sample)


@pytest.mark.parametrize("target_name", TARGETS)
def test_memo_filled_by_reference_equals_memo_filled_by_injection(target_name):
    target = get_target(target_name)
    case = target.test_cases()[5]
    probe = CampaignController(target=target)
    error = next(e for e in target.e2_error_set() if probe.prunable(e, case))

    clear_reference_memo()
    controller = CampaignController(target=target)
    reference_first = controller.run_reference(case).result
    injected_after = controller.run_injection(error, case).result

    clear_reference_memo()
    controller = CampaignController(target=target)
    injected_first = controller.run_injection(error, case).result
    reference_after = controller.run_reference(case).result

    assert reference_first == reference_after
    assert injected_after == injected_first
    cold = CampaignController(target=target, snapshots=False)
    assert reference_first == cold.run_reference(case).result


def test_custom_classifier_keeps_the_unpruned_path():
    from repro.plant.failure import FailureClassifier

    target = get_target("arrestor")
    case = target.test_cases()[0]
    controller = CampaignController(target=target, classifier=FailureClassifier())
    assert not any(controller.prunable(e, case) for e in target.e2_error_set()[:5])


_TANK = get_target("tanklevel")
_TANK_ERROR = _TANK.e2_error_set()[0]


@given(
    start=st.integers(min_value=0, max_value=200),
    period=st.integers(min_value=1, max_value=50),
    last=st.integers(min_value=-1, max_value=400),
)
def test_closed_form_injection_count_matches_ticks(start, period, last):
    memory = MemoryMap(list(_TANK.memory().map.regions.values()))
    injector = TimeTriggeredInjector(_TANK_ERROR, period_ms=period, start_ms=start)
    for now in range(last + 1):
        injector.tick(now, memory)
    assert injector.injections_through(last) == injector.injections
    assert injector.first_injection_ms == (start if injector.injections else None)
