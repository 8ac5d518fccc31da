"""Self-check: lint the shipped targets' own instrumentation.

The repository ships a full Section-2.3 outcome for every registered
workload — an instrumentation plan plus its FMECA table, exposed through
:meth:`repro.targets.base.Target.lint_target`.  Linting them is both a
regression guard for the shipped configurations and the reference
example of plans the analyser considers clean; ``python -m
repro.analysis`` runs the arrestor by default, ``--all-targets`` sweeps
the whole registry, and ``make lint`` wires the sweep into CI.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.process import FmecaEntry, InstrumentationPlan

from repro.analysis.diagnostics import AnalysisOptions, AnalysisReport
from repro.analysis.engine import analyze_plan
from repro.analysis.registry import RuleRegistry

__all__ = [
    "build_default_target",
    "self_check",
    "check_all_targets",
    "check_snapshot_determinism",
]


def build_default_target() -> Tuple[InstrumentationPlan, Tuple[FmecaEntry, ...]]:
    """The arrestor's own plan + FMECA table (the CLI's default target)."""
    from repro.arrestor.instrumentation import (
        build_instrumentation_plan,
        default_fmeca_entries,
    )

    return build_instrumentation_plan(), default_fmeca_entries()


def self_check(
    *,
    registry: Optional[RuleRegistry] = None,
    options: Optional[AnalysisOptions] = None,
) -> AnalysisReport:
    """Analyse the arrestor's Table-4 instrumentation; expected clean."""
    plan, fmeca = build_default_target()
    return analyze_plan(plan, fmeca, registry=registry, options=options)


def check_all_targets(
    *,
    registry: Optional[RuleRegistry] = None,
    options: Optional[AnalysisOptions] = None,
    source: bool = False,
) -> Dict[str, AnalysisReport]:
    """Lint every registered target's shipped plan; all expected clean.

    Returns ``{target name: report}`` in registry order, so CI can both
    gate on the aggregate and point at the offending workload.  With
    *source* the EA4xx/EA5xx source-level pass (see
    :func:`~repro.analysis.engine.analyze_target_source`) runs per
    target and its findings are merged into each report.
    """
    from repro.analysis.engine import analyze_target_source
    from repro.targets import get_target, target_names

    reports: Dict[str, AnalysisReport] = {}
    for name in target_names():
        target = get_target(name)
        plan, fmeca = target.lint_target()
        report = analyze_plan(plan, fmeca, registry=registry, options=options)
        if source:
            report = report.merged(
                analyze_target_source(target, registry=registry, options=options)
            )
        reports[name] = report
    return reports


def check_snapshot_determinism(name: str) -> Optional[str]:
    """Verify snapshot-restored and pruned runs match cold runs for one target.

    Executes the same injected experiment three ways — cold boot,
    snapshot-miss (capture then restore), snapshot-hit (pure restore
    through the prefix fast-forward path) — and compares the full
    :class:`~repro.targets.base.RunResult` of each.  Then runs one E2
    error the def/use pruning answers from the reference memo and one
    it simulates, each against its cold run.  Returns ``None`` when
    everything is identical (or the target opts out of snapshots), else
    a one-line description of the divergence.  ``--all-targets`` runs
    this per registered workload, so ``make lint`` also guards the
    dynamic equivalence the snapshot layer promises, not just the static
    plans.
    """
    from repro.injection.fic import CampaignController
    from repro.targets import clear_cache, get_target

    target = get_target(name)
    if not target.supports_snapshots():
        return None  # harness reverts to reboot-per-run; nothing to compare
    case = target.test_cases()[0]
    error = target.e1_error_set()[0]
    start_ms = 1000
    clear_cache()
    cold = CampaignController(
        target=target, snapshots=False, injection_start_ms=start_ms
    )
    warm = CampaignController(
        target=target, snapshots=True, injection_start_ms=start_ms
    )
    runs = [("snapshot-miss", error), ("snapshot-hit", error)]
    e2_errors = target.e2_error_set()
    for label, pruned in (("pruned E2", True), ("live E2", False)):
        e2_error = next(
            (e for e in e2_errors if warm.prunable(e, case) == pruned), None
        )
        if e2_error is not None:
            runs.append((label, e2_error))
    for label, error in runs:
        result = warm.run_injection(error, case).result
        if result != cold.run_injection(error, case).result:
            return (
                f"{label} run diverged from the cold run for error "
                f"{error.name!r} (case m={case.mass_kg}, v={case.velocity_mps})"
            )
    return None
