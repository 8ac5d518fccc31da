"""Seeded inputs for the benchmark's workloads.

Every generator is a pure function of the seed: the same seed gives the
same inputs, and the program receives only what is generated here.  The
seed decides *which* errors, test cases and session schedules a run
uses, never *how much* work it does: each seed covers the same test-case
grid in the same proportions, so the cost of a run barely depends on the
seed and the run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterator, List, Tuple

from repro.experiments.parallel import RunSpec
from repro.serve.session import SessionSpec
from repro.targets.registry import get_target

#: The paper's injection period (Table 9: every 20 ms, from boot).
INJECTION_PERIOD_MS = 20


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


#: E2 errors per test case in one job.
E2_ERRORS_PER_CASE = 2


def e2_specs(seed: int) -> List[RunSpec]:
    """Two seeded E2 errors per arrestor test case (50 runs).

    The errors are drawn from the target's own seeded E2 set of random
    RAM/stack ``(address, bit)`` locations and dealt to the 25 grid test
    cases, so every seed runs every case equally often.
    """
    rng = _rng("e2_arrestor_serial", seed)
    target = get_target("arrestor")
    cases = target.test_cases() * E2_ERRORS_PER_CASE
    errors = rng.sample(target.e2_error_set(seed=rng.randrange(2**31)), len(cases))
    return [
        RunSpec.build("e2", "All", error, case, INJECTION_PERIOD_MS, target="arrestor")
        for error, case in zip(errors, cases)
    ]


def e1_specs(seed: int) -> List[RunSpec]:
    """The arrestor's E1 grid, 8 versions x 112 signal bits (896 runs).

    Each run gets a seeded test case; the 25 cases are dealt out evenly
    (a shuffled deck, repeated), so every seed has the same case mix.
    """
    rng = _rng("e1_arrestor_batch", seed)
    target = get_target("arrestor")
    cases = target.test_cases()
    errors = target.e1_error_set()
    grid = [(version, error) for version in target.versions for error in errors]
    deck: List = []
    while len(deck) < len(grid):
        deal = list(cases)
        rng.shuffle(deal)
        deck.extend(deal)
    return [
        RunSpec.build("e1", version, error, case, INJECTION_PERIOD_MS, target="arrestor")
        for (version, error), case in zip(grid, deck)
    ]


@dataclasses.dataclass(frozen=True)
class ServeMix:
    """The serving population: how many open sessions of each kind.

    ``tank_batch`` sessions flip a monitored tank signal bit and ride the
    vectorized batch path; ``tank_raw`` (raw RAM/stack address flips)
    and ``arrestor`` sessions ride the serial path.
    """

    tank_batch: int
    tank_raw: int
    arrestor: int

    @property
    def slots(self) -> List[str]:
        return (
            ["tank_batch"] * self.tank_batch
            + ["tank_raw"] * self.tank_raw
            + ["arrestor"] * self.arrestor
        )


class SessionStream:
    """An endless seeded stream of session specs, one kind at a time.

    ``next(kind)`` returns a fresh spec of that kind; session ids are
    unique within the stream.
    """

    def __init__(self, seed: int) -> None:
        self._rng = _rng("serve_mixed_realtime", seed)
        self._count = 0
        tank = get_target("tanklevel")
        arrestor = get_target("arrestor")
        self._tank_cases = tank.test_cases()
        self._tank_signals = tank.monitored_signals
        self._arrestor_cases = arrestor.test_cases()
        draw = self._rng.randrange
        self._tank_raw = tank.e2_error_set(seed=draw(2**31))
        self._arrestor_raw = arrestor.e2_error_set(seed=draw(2**31))

    def next(self, kind: str) -> SessionSpec:
        rng = self._rng
        self._count += 1
        sid = f"{kind}-{self._count:06d}"
        if kind == "tank_batch":
            case = rng.choice(self._tank_cases)
            return SessionSpec(
                session_id=sid,
                target="tanklevel",
                mass_kg=case.mass_kg,
                velocity_mps=case.velocity_mps,
                signal=rng.choice(self._tank_signals),
                signal_bit=rng.randrange(16),
                period_ms=INJECTION_PERIOD_MS,
            )
        if kind == "tank_raw":
            case = rng.choice(self._tank_cases)
            error = rng.choice(self._tank_raw)
            target = "tanklevel"
        elif kind == "arrestor":
            case = rng.choice(self._arrestor_cases)
            error = rng.choice(self._arrestor_raw)
            target = "arrestor"
        else:
            raise ValueError(f"unknown session kind {kind!r}")
        return SessionSpec(
            session_id=sid,
            target=target,
            mass_kg=case.mass_kg,
            velocity_mps=case.velocity_mps,
            address=error.address,
            bit=error.bit,
            period_ms=INJECTION_PERIOD_MS,
        )

    def grid_points(self) -> Iterator[Tuple[str, object]]:
        """Every (target, test case) a serial session of the stream can use."""
        for case in self._tank_cases:
            yield "tanklevel", case
        for case in self._arrestor_cases:
            yield "arrestor", case
