"""Race search strategies on one program under a UCB1 budget allocator.

``adaptive_first_finding`` answers the estimator question "how many
schedules does it cost to manifest this bug *if you don't know in
advance which strategy is right*?"  It registers one bandit arm per
strategy and lets :class:`repro.alloc.ucb.UCBAllocator` decide where
every slice of schedules goes:

* ``dfs`` / ``sleepset`` — sliced systematic search.  Each arm holds one
  paused :meth:`~repro.sim.explorer.Explorer.attempts` generator, and a
  pull takes up to one slice of attempts from it; the next pull resumes
  exactly where the last one stopped, so no schedule is ever re-run.
  An arm whose search drains its state space without a finding is
  retired.
* ``random`` / ``pct`` — seeded sampling.  Each pull runs the next block
  of seeds (resume-by-seed-offset), so the sequence of runs is identical
  to an uninterrupted loop over ``range(n)``.

Payout per pull is the number of previously unseen terminal outcomes
(shared across arms — rediscovering what another strategy already saw
earns nothing) plus :data:`repro.alloc.ucb.FINDING_BONUS` on the first
failure.  Slices start tiny and double per arm (probe-then-grow), so a
wrong strategy costs a handful of schedules before the bandit walks
away from it.

The whole race is deterministic for a given program, strategy tuple and
seed: the allocator breaks ties by registration order and samplers
consume seeds in sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.alloc.ucb import FINDING_BONUS, UCBAllocator
from repro.obs import runlog as obs_runlog
from repro.sim.engine import RunResult, run_program
from repro.sim.explorer import Explorer, _outcome_key
from repro.sim.program import Program
from repro.sim.reduction import SleepSetExplorer
from repro.sim.scheduler import (
    CooperativeScheduler,
    PCTScheduler,
    RandomScheduler,
)

__all__ = [
    "AdaptiveOutcome",
    "DEFAULT_STRATEGIES",
    "adaptive_first_finding",
    "derive_horizon",
]

#: Registration order doubles as the probe order: systematic search
#: first (it wins outright on small state spaces), samplers after.
DEFAULT_STRATEGIES = ("dfs", "sleepset", "random", "pct")


def derive_horizon(program: Program, max_steps: int = 5000, floor: int = 4) -> int:
    """A PCT horizon grounded in the program's real step count.

    PCT's priority-change points only matter when they land *inside* the
    run, so the horizon should track how many scheduling decisions a run
    of this program actually takes.  We take the longest of a cooperative
    (run-to-block) and a seed-0 random run — two cheap probes that
    bracket short and interleaved executions — and never go below
    ``floor`` so degenerate programs keep a usable change-point range.
    """
    coop = run_program(program, CooperativeScheduler(), max_steps=max_steps)
    rand = run_program(program, RandomScheduler(seed=0), max_steps=max_steps)
    return max(len(coop.schedule), len(rand.schedule), floor)


@dataclass
class AdaptiveOutcome:
    """Result of one adaptive race over a single program."""

    program: str
    found: bool
    winner: Optional[str]
    schedules: int
    pulls: int
    witness_schedule: Optional[List[str]] = None
    arms: List[Dict[str, Any]] = field(default_factory=list)

    def summary(self) -> str:
        """Return a one-line human-readable account of the race outcome."""
        verdict = (
            f"found by {self.winner}" if self.found else "budget exhausted"
        )
        return (
            f"adaptive[{self.program}]: {verdict} after "
            f"{self.schedules} schedules / {self.pulls} pulls"
        )


@dataclass
class _Pull:
    """One slice's yield, normalised across arm kinds."""

    spent: int
    outcomes: List[Tuple]
    witness: Optional[RunResult]
    exhausted: bool
    proven_clean: bool = False


class _SlicedSearchArm:
    """A systematic search advanced up to one slice of attempts per pull.

    The paused :meth:`~repro.sim.explorer.Explorer.attempts` generator is
    the whole checkpoint: each pull resumes it where the last one stopped.
    """

    def __init__(
        self,
        strategy: str,
        program: Program,
        failure: Callable[[RunResult], bool],
        max_total: int,
        max_steps: int,
        memoize: bool,
    ):
        if strategy == "dfs":
            explorer_class: Any = Explorer
        elif strategy == "sleepset":
            explorer_class = SleepSetExplorer
        else:  # pragma: no cover - guarded by the caller
            raise ValueError(f"not a sliced search strategy: {strategy!r}")
        explorer = explorer_class(
            program, max_schedules=max_total, max_steps=max_steps,
            keep_matches=1, memoize=memoize,
        )
        self._search = explorer.attempts(failure, stop_on_first=True)

    def pull(self, budget: int) -> "_Pull":
        """Run up to ``budget`` attempts; stop early if the search ends."""
        ended = False
        for spent in range(1, max(1, budget) + 1):
            try:
                result = next(self._search)
            except StopIteration as end:
                result, ended = end.value, True
                break
        witness = result.matching[0] if result.match_count else None
        # A search that ended without a finding drained its state space or
        # hit the global cap: retire the arm.  A *complete* drain is
        # stronger — the whole bounded interleaving space holds no
        # failure, so the entire race can stop.
        exhausted = ended and witness is None
        proven_clean = exhausted and result.complete
        return _Pull(spent, list(result.outcomes), witness, exhausted, proven_clean)


class _SamplerArm:
    """A seeded sampler advanced one block of seeds per pull."""

    def __init__(
        self,
        strategy: str,
        program: Program,
        failure: Callable[[RunResult], bool],
        max_steps: int,
        seed: int,
        pct_depth: int,
        horizon: int,
    ):
        self.strategy = strategy
        self.program = program
        self.failure = failure
        self.max_steps = max_steps
        self.seed = seed
        self.next_offset = 0
        if strategy == "random":
            self._factory: Callable[[int], Any] = (
                lambda s: RandomScheduler(seed=s)
            )
        elif strategy == "pct":
            self._factory = lambda s: PCTScheduler(
                seed=s, depth=pct_depth, horizon=horizon
            )
        else:  # pragma: no cover - guarded by the caller
            raise ValueError(f"not a sampler strategy: {strategy!r}")

    def pull(self, budget: int) -> _Pull:
        """Run the next ``budget`` seeds; stop early on a finding."""
        spent = 0
        outcomes: List[Tuple] = []
        witness: Optional[RunResult] = None
        for offset in range(self.next_offset, self.next_offset + budget):
            run = run_program(
                self.program,
                self._factory(self.seed + offset),
                max_steps=self.max_steps,
            )
            spent += 1
            outcomes.append(_outcome_key(run))
            if self.failure(run):
                witness = run
                break
        self.next_offset += spent
        return _Pull(spent, outcomes, witness, exhausted=False)


def adaptive_first_finding(
    program: Program,
    failure: Callable[[RunResult], bool],
    *,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    max_total: int = 4000,
    probe_budget: int = 2,
    growth: float = 2.0,
    max_slice: int = 64,
    max_steps: int = 5000,
    memoize: bool = True,
    seed: int = 0,
    pct_depth: int = 3,
    pct_horizon: Optional[int] = None,
    exploration: Optional[float] = None,
) -> AdaptiveOutcome:
    """Hunt ``program``'s first failure, splitting budget across strategies.

    Spends at most ``max_total`` schedules in total (summed over every
    arm), one slice at a time, until ``failure`` manifests or the budget
    runs dry.  Slice sizes per arm follow ``probe_budget * growth**pulls``
    capped at ``max_slice``.  See the module docstring for arm and payout
    semantics; ``docs/allocator.md`` for tuning guidance.
    """
    if max_total < 1:
        raise ValueError("max_total must be >= 1")
    if probe_budget < 1:
        raise ValueError("probe_budget must be >= 1")
    unknown = [s for s in strategies if s not in DEFAULT_STRATEGIES]
    if unknown:
        raise ValueError(
            f"unknown strategies {unknown!r}; choose from {DEFAULT_STRATEGIES}"
        )
    horizon = (
        pct_horizon if pct_horizon is not None
        else derive_horizon(program, max_steps=max_steps)
    )
    allocator = (
        UCBAllocator() if exploration is None
        else UCBAllocator(exploration=exploration)
    )
    arms: Dict[str, Any] = {}
    for strategy in strategies:
        if strategy in ("dfs", "sleepset"):
            arms[strategy] = _SlicedSearchArm(
                strategy, program, failure, max_total, max_steps, memoize
            )
        else:
            arms[strategy] = _SamplerArm(
                strategy, program, failure, max_steps, seed, pct_depth, horizon
            )
        allocator.add_arm(program.name, strategy)

    seen_outcomes: Set[Tuple] = set()
    spent_total = 0
    found = False
    winner: Optional[str] = None
    witness_schedule: Optional[List[str]] = None
    while spent_total < max_total and not found:
        key = allocator.select()
        if key is None:
            break  # every arm retired: the space is exhausted, bug-free
        _, strategy = key
        stats = allocator.arm(key)
        budget = min(
            max_slice,
            int(probe_budget * growth ** stats.pulls),
            max_total - spent_total,
        )
        pull = arms[strategy].pull(budget)
        fresh = [k for k in pull.outcomes if k not in seen_outcomes]
        seen_outcomes.update(fresh)
        payout = float(len(fresh))
        if pull.witness is not None:
            payout += FINDING_BONUS
            found = True
            winner = strategy
            witness_schedule = list(pull.witness.schedule)
        allocator.record(key, pull.spent, payout, finding=pull.witness is not None)
        spent_total += pull.spent
        if pull.exhausted:
            allocator.retire(key)
        if pull.proven_clean:
            # A complete systematic search saw every reachable outcome
            # without a failure — sampling further is pure waste.
            allocator.retire_job(program.name)
    outcome = AdaptiveOutcome(
        program=program.name,
        found=found,
        winner=winner,
        schedules=spent_total,
        pulls=allocator.total_pulls,
        witness_schedule=witness_schedule,
        arms=allocator.stats(),
    )
    obs_runlog.emit(
        "alloc.race",
        program=program.name,
        found=found,
        winner=winner,
        schedules=spent_total,
        pulls=outcome.pulls,
        strategies=list(strategies),
        max_total=max_total,
    )
    return outcome
