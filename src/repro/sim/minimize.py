"""Failure-witness minimisation: the fewest context switches that fail.

A raw failing schedule from random testing is noisy; what a developer
wants is the *smallest* witness — and for concurrency bugs the meaningful
size is the number of **pre-emptive context switches**, not schedule
length (Finding 8: a handful of ordering points decide manifestation;
CHESS showed most real bugs need <=2 preemptions).

``minimize_preemptions`` searches with an increasing preemption bound and
returns the first failing run, whose bound is by construction minimal.
``preemption_count`` scores any schedule by replaying it as the
engine's forced prefix, whose accounting tests whether the thread
switched away from was still enabled, so "was that switch forced or
pre-emptive?" is answered exactly rather than guessed from the schedule
text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import ExplorationError, ReplayError
from repro.sim.engine import Engine, RunResult
from repro.sim.explorer import Explorer
from repro.sim.program import Program
from repro.sim.scheduler import FixedScheduler

__all__ = ["MinimalWitness", "minimize_preemptions", "preemption_count"]


def preemption_count(program: Program, schedule: Sequence[str]) -> int:
    """Exact number of pre-emptive switches in ``schedule``.

    A switch from thread *t* to a different thread at step *i* is
    pre-emptive iff *t* was still enabled at step *i*.  Raises
    :class:`~repro.errors.ReplayError` if the schedule does not fit the
    program: a step forces a thread that is not enabled, or the schedule
    ends while threads are still enabled.
    """
    # Past the prefix the engine asks the scheduler, which an empty
    # strict replay refuses.
    engine = Engine(program, FixedScheduler(()), prefix=schedule)
    try:
        engine.run()
    except ExplorationError as diverged:
        raise ReplayError(f"schedule does not fit {program.name}") from diverged
    return engine.prefix_preemptions


@dataclass(frozen=True)
class MinimalWitness:
    """A failing run at the smallest preemption bound that fails at all."""

    run: RunResult
    preemptions: int
    schedules_searched: int

    def summary(self) -> str:
        """One-line rendering of the minimal witness."""
        return (
            f"{self.run.program}: fails with {self.preemptions} "
            f"preemption(s) after searching {self.schedules_searched} "
            f"schedules — witness: {self.run.schedule}"
        )


def minimize_preemptions(
    program: Program,
    predicate: Callable[[RunResult], bool],
    max_bound: int = 8,
    max_schedules_per_bound: int = 50000,
) -> Optional[MinimalWitness]:
    """The failing run with the fewest pre-emptive switches, or ``None``.

    Searches exhaustively at preemption bound 0, then 1, ... up to
    ``max_bound``.  The first bound that yields a failure is minimal
    because every schedule legal at bound *k* is legal at bound *k+1*.
    """
    searched = 0
    for bound in range(max_bound + 1):
        explorer = Explorer(
            program,
            max_schedules=max_schedules_per_bound,
            preemption_bound=bound,
        )
        result = explorer.explore(predicate=predicate, stop_on_first=True)
        searched += result.schedules_run
        if result.matching:
            run = result.matching[0]
            return MinimalWitness(
                run=run,
                preemptions=preemption_count(program, run.schedule),
                schedules_searched=searched,
            )
    return None
