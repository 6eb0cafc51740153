"""Race search strategies on one program: the estimator's adaptive row.

``adaptive_first_finding`` answers the estimator question "how many
schedules does it cost to manifest this bug *if you don't know in
advance which strategy is right*?"  It races four arms on the program
and spends every slice of schedules on the arm a UCB1 bandit picks:

* ``dfs`` / ``sleepset`` — systematic search.  Each arm holds one paused
  :meth:`~repro.sim.explorer.Explorer.attempts` generator, and a pull
  takes up to one slice of attempts from it; the next pull resumes
  exactly where the last one stopped, so no schedule is ever re-run.
  An arm whose search ends without a finding is retired.
* ``random`` / ``pct`` — seeded sampling.  Each pull runs the next block
  of seeds, so the sequence of runs is identical to an uninterrupted
  loop over ``range(n)``.

Payout per pull is the number of previously unseen terminal outcomes
(shared across arms — rediscovering what another strategy already saw
earns nothing; a sampler counts each run, so one new outcome hit twice
in a pull pays 2) plus :data:`FINDING_BONUS` on the first failure.  Slices
start tiny and double per arm (probe-then-grow), so a wrong strategy
costs a handful of schedules before the bandit walks away from it.

The whole race is deterministic for a given program: selection breaks
ties by probe order and samplers consume seeds in sequence.  Each pull
increments the ``alloc.*`` counters (labelled with the program's name
as ``job`` and the strategy) and emits an ``alloc.pull`` run-log record;
each race ends with one ``alloc.race`` record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog
from repro.sim.engine import RunResult, run_program
from repro.sim.explorer import MAX_STEPS, Explorer, _outcome_key
from repro.sim.program import Program
from repro.sim.reduction import SleepSetExplorer
from repro.sim.scheduler import (
    CooperativeScheduler,
    PCTScheduler,
    RandomScheduler,
)

__all__ = [
    "AdaptiveOutcome",
    "adaptive_first_finding",
    "derive_horizon",
]

#: An arm's n-th pull (counting from 0) spends ``PROBE * GROWTH**n``
#: schedules, at most ``MAX_SLICE`` and at most what the race has left.
PROBE = 2
GROWTH = 2
MAX_SLICE = 64

#: UCB1's exploration constant ``c``.  The classical value is sqrt(2);
#: it is lower here because payouts are sparse (most slices score 0)
#: and the probe-first rule already gives every arm a first slice.
EXPLORATION = 0.5

#: Reward credited for a first finding, on top of new-outcome credit.
#: Large enough that a finding dominates any plausible outcome count.
FINDING_BONUS = 25.0

#: Bug depth of the PCT arm, shared with the estimator's ``pct`` row.
PCT_DEPTH = 3


def derive_horizon(program: Program) -> int:
    """A PCT horizon grounded in the program's real step count.

    PCT's priority-change points only matter when they land *inside* the
    run, so the horizon should track how many scheduling decisions a run
    of this program actually takes.  We take the longest of a cooperative
    (run-to-block) and a seed-0 random run — two cheap probes that
    bracket short and interleaved executions — and never go below 4, so
    degenerate programs keep a usable change-point range.
    """
    coop = run_program(program, CooperativeScheduler(), max_steps=MAX_STEPS)
    rand = run_program(program, RandomScheduler(seed=0), max_steps=MAX_STEPS)
    return max(len(coop.schedule), len(rand.schedule), 4)


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
    exhausted: bool = False
    proven_clean: bool = False


class _Arm:
    """One strategy in the race, with the bandit's counters for it.

    Subclasses spend a slice in ``pull(budget)``, which returns a
    :class:`_Pull`.
    """

    def __init__(self, strategy: str):
        self.strategy = strategy
        self.pulls = 0
        self.schedules = 0
        self.payout = 0.0
        self.findings = 0
        self.retired = False

    def row(self) -> Dict[str, Any]:
        """The arm's statistics as a JSON-serializable dict."""
        mean = self.payout / self.schedules if self.schedules else 0.0
        return {
            "strategy": self.strategy,
            "pulls": self.pulls,
            "schedules": self.schedules,
            "payout": round(self.payout, 6),
            "mean_payout": round(mean, 6),
            "findings": self.findings,
            "retired": self.retired,
        }


def _select(arms: Sequence[_Arm], total: int) -> Optional[_Arm]:
    """The arm the next slice goes to, or ``None`` once all are retired.

    Unplayed live arms go first, in probe order.  After that the highest
    UCB1 score wins, ``payout/schedules + EXPLORATION *
    sqrt(ln(max(total, 2)) / schedules)`` with ``total`` the schedules
    the race has spent; ``max`` keeps the earliest of equal scores.
    """
    live = [arm for arm in arms if not arm.retired]
    for arm in live:
        if arm.pulls == 0:
            return arm

    def score(arm: _Arm) -> float:
        return arm.payout / arm.schedules + EXPLORATION * math.sqrt(
            math.log(max(total, 2)) / arm.schedules
        )

    return max(live, key=score, default=None)


class _SearchArm(_Arm):
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
    ):
        super().__init__(strategy)
        explorer_class = Explorer if strategy == "dfs" else SleepSetExplorer
        explorer = explorer_class(
            program, max_schedules=max_total, keep_matches=1, memoize=True,
        )
        self._search = explorer.attempts(failure, stop_on_first=True)

    def pull(self, budget: int) -> _Pull:
        """Run up to ``budget`` attempts; stop early if the search ends."""
        ended = False
        for spent in range(1, budget + 1):
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


class _SamplerArm(_Arm):
    """A seeded sampler advanced one block of seeds per pull."""

    def __init__(
        self,
        strategy: str,
        program: Program,
        failure: Callable[[RunResult], bool],
        horizon: int,
    ):
        super().__init__(strategy)
        self.program = program
        self.failure = failure
        self.horizon = horizon
        self.next_seed = 0

    def pull(self, budget: int) -> _Pull:
        """Run the next ``budget`` seeds; stop early on a finding."""
        outcomes: List[Tuple] = []
        witness: Optional[RunResult] = None
        for seed in range(self.next_seed, self.next_seed + budget):
            if self.strategy == "random":
                scheduler: Any = RandomScheduler(seed=seed)
            else:
                scheduler = PCTScheduler(
                    seed=seed, depth=PCT_DEPTH, horizon=self.horizon
                )
            run = run_program(self.program, scheduler, max_steps=MAX_STEPS)
            outcomes.append(_outcome_key(run))
            if self.failure(run):
                witness = run
                break
        self.next_seed += len(outcomes)
        return _Pull(len(outcomes), outcomes, witness)


def _gauge_arms(arms: Sequence[_Arm]) -> None:
    """Publish how many arms are live, and how many there are."""
    obs_metrics.set_gauge(
        "alloc.arms_live", sum(1 for arm in arms if not arm.retired)
    )
    obs_metrics.set_gauge("alloc.arms_total", len(arms))


def adaptive_first_finding(
    program: Program,
    failure: Callable[[RunResult], bool],
    *,
    max_total: int = 4000,
) -> AdaptiveOutcome:
    """Hunt ``program``'s first failure, splitting budget across strategies.

    Spends at most ``max_total`` schedules in total (summed over every
    arm), one slice at a time, until ``failure`` manifests, a complete
    systematic search proves the program clean, or the budget runs dry.
    See the module docstring for arms, slices and payouts.
    """
    if max_total < 1:
        raise ValueError("max_total must be >= 1")
    horizon = derive_horizon(program)
    # Probe order: systematic search first (it wins outright on small
    # state spaces), samplers after.
    arms: List[_Arm] = [
        _SearchArm("dfs", program, failure, max_total),
        _SearchArm("sleepset", program, failure, max_total),
        _SamplerArm("random", program, failure, horizon),
        _SamplerArm("pct", program, failure, horizon),
    ]
    _gauge_arms(arms)
    seen_outcomes: Set[Tuple] = set()
    spent_total = 0
    winner: Optional[_Arm] = None
    witness: Optional[RunResult] = None
    while spent_total < max_total and witness is None:
        arm = _select(arms, spent_total)
        if arm is None:
            break  # every arm retired: the space is exhausted, bug-free
        budget = min(
            MAX_SLICE, PROBE * GROWTH ** arm.pulls, max_total - spent_total
        )
        pull = arm.pull(budget)
        fresh = [key for key in pull.outcomes if key not in seen_outcomes]
        seen_outcomes.update(fresh)
        payout = float(len(fresh))
        finding = pull.witness is not None
        if finding:
            payout += FINDING_BONUS
            winner, witness = arm, pull.witness
        arm.pulls += 1
        arm.schedules += pull.spent
        arm.payout += payout
        arm.findings += int(finding)
        spent_total += pull.spent
        labels = {"job": program.name, "strategy": arm.strategy}
        obs_metrics.inc("alloc.pulls", 1, **labels)
        obs_metrics.inc("alloc.schedules_spent", pull.spent, **labels)
        obs_metrics.inc("alloc.payout", payout, **labels)
        if finding:
            obs_metrics.inc("alloc.findings", 1, **labels)
        obs_runlog.emit(
            "alloc.pull",
            job=program.name,
            strategy=arm.strategy,
            schedules=pull.spent,
            payout=payout,
            finding=finding,
            pulls=arm.pulls,
            arm_schedules=arm.schedules,
            total_schedules=spent_total,
        )
        if pull.exhausted:
            arm.retired = True
            if pull.proven_clean:
                # A complete systematic search saw every reachable outcome
                # without a failure — sampling further is pure waste.
                for other in arms:
                    other.retired = True
            _gauge_arms(arms)
    outcome = AdaptiveOutcome(
        program=program.name,
        found=witness is not None,
        winner=winner.strategy if winner else None,
        schedules=spent_total,
        pulls=sum(arm.pulls for arm in arms),
        witness_schedule=list(witness.schedule) if witness else None,
        arms=[arm.row() for arm in arms],
    )
    obs_runlog.emit(
        "alloc.race",
        program=program.name,
        found=outcome.found,
        winner=outcome.winner,
        schedules=spent_total,
        pulls=outcome.pulls,
        strategies=[arm.strategy for arm in arms],
        max_total=max_total,
    )
    return outcome
