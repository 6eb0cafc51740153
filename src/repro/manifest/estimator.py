"""Manifestation-rate estimation under different testing strategies.

Quantifies the study's testing implications on executable kernels:

* random stress testing (``RandomScheduler``) hits these bugs rarely;
* PCT improves on random by bounding the number of ordering decisions;
* enforcing the kernel's recorded ≤4-access partial order
  (:mod:`repro.manifest.enforce`) manifests the bug *every* time.

All estimates are deterministic given the seed range.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Optional

from repro.kernels.base import BugKernel
from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog
from repro.manifest.enforce import enforce_order
from repro.sim.engine import RunResult, run_program
from repro.sim.program import Program
from repro.sim.scheduler import (
    CooperativeScheduler,
    PCTScheduler,
    RandomScheduler,
    Scheduler,
)

__all__ = [
    "ManifestationEstimate",
    "estimate_manifestation",
    "compare_strategies",
]

SchedulerFactory = Callable[[int], Scheduler]


@dataclass(frozen=True)
class ManifestationEstimate:
    """Outcome of repeated testing runs against one program + oracle."""

    strategy: str
    runs: int
    manifested: int

    @property
    def rate(self) -> float:
        """Fraction of runs that manifested the bug."""
        return self.manifested / self.runs if self.runs else 0.0

    def summary(self) -> str:
        """One-line rendering."""
        return f"{self.strategy}: {self.manifested}/{self.runs} ({self.rate:.1%})"


def estimate_manifestation(
    program: Program,
    failure: Callable[[RunResult], bool],
    scheduler_factory: SchedulerFactory,
    runs: int = 100,
    strategy: str = "custom",
    max_steps: int = 20000,
) -> ManifestationEstimate:
    """Run ``program`` ``runs`` times under seeded schedulers; count failures."""
    start = perf_counter()
    manifested = 0
    for seed in range(runs):
        result = run_program(program, scheduler_factory(seed), max_steps=max_steps)
        if failure(result):
            manifested += 1
    estimate = ManifestationEstimate(
        strategy=strategy, runs=runs, manifested=manifested
    )
    _record_estimate(program.name, estimate, perf_counter() - start)
    return estimate


def _record_estimate(
    program: str,
    estimate: ManifestationEstimate,
    wall_seconds: float,
) -> None:
    """Publish one estimator sweep to metrics and the run log (if active)."""
    registry = obs_metrics.active()
    if registry is not None:
        labels = {"program": program, "strategy": estimate.strategy}
        registry.inc("estimator.runs", estimate.runs, **labels)
        registry.inc("estimator.manifested", estimate.manifested, **labels)
    if obs_runlog.active_runlog() is not None:
        obs_runlog.emit(
            "estimate_manifestation",
            program=program,
            strategy=estimate.strategy,
            args={"runs": estimate.runs},
            result={
                "manifested": estimate.manifested,
                "rate": estimate.rate,
            },
            wall_seconds=wall_seconds,
        )


def compare_strategies(
    kernel: BugKernel,
    runs: int = 100,
    *,
    reduction: Optional[str] = None,
) -> Dict[str, ManifestationEstimate]:
    """Manifestation rates of one kernel under the standard strategies.

    Returns estimates for: ``cooperative`` (non-preemptive — typically
    0%), ``random`` stress, ``pct`` (depth-bounded priority testing),
    ``exhaustive`` (systematic DFS, stopping at the first failing
    schedule; ``reduction`` selects the partial-order reduction it
    searches under, so its ``runs`` is the schedules-to-first-failure
    of that search), and ``enforced`` (the kernel's recorded ≤4-access
    partial order — the Finding 8 guarantee, typically 100%).

    An ``adaptive`` row reports the cost of *not knowing* the right
    strategy up front: :func:`repro.manifest.adaptive.adaptive_first_finding`
    races dfs / sleep-set / random / pct arms under a UCB1 bandit and its
    ``runs`` is the total schedules spent (across every arm) until the
    bug first manifested.

    Note on PCT: its per-run probability is a *guaranteed lower bound*
    (~1/(n·k^(d-1))) that holds however deep or adversarial the bug; on
    these small two-thread kernels plain uniform random often samples the
    tiny interleaving space at a higher raw rate.  The study's point
    survives either way: both are orders of magnitude below the enforced
    order's 100%.
    """
    from repro.manifest.adaptive import (
        PCT_DEPTH,
        adaptive_first_finding,
        derive_horizon,
    )

    # The horizon is the kernel's *measured* step count (longest of a
    # cooperative and a seed-0 random run); PCT's change points only
    # matter when they land inside the run, so a hardcoded constant
    # under- or over-shoots kernels whose runs are shorter or longer.
    horizon = derive_horizon(kernel.buggy)
    estimates = {
        "cooperative": estimate_manifestation(
            kernel.buggy, kernel.failure,
            lambda seed: CooperativeScheduler(),
            runs=1, strategy="cooperative",
        ),
        "random": estimate_manifestation(
            kernel.buggy, kernel.failure,
            lambda seed: RandomScheduler(seed=seed),
            runs=runs, strategy="random",
        ),
        "pct": estimate_manifestation(
            kernel.buggy, kernel.failure,
            lambda seed: PCTScheduler(seed=seed, depth=PCT_DEPTH, horizon=horizon),
            runs=runs, strategy="pct",
        ),
    }
    # Systematic-search row: a bounded exhaustive hunt for the first
    # failing schedule.  Its "rate" is 1 / schedules-to-first-failure —
    # the systematic counterpart of the samplers' hit probability.
    from repro.sim.explorer import make_explorer

    exhaustive_start = perf_counter()
    explorer = make_explorer(kernel.buggy, reduction=reduction)
    exploration = explorer.explore(
        predicate=kernel.failure, stop_on_first=True
    )
    probes = (
        exploration.schedules_to_first_finding
        if exploration.schedules_to_first_finding is not None
        else exploration.schedules_run
    )
    estimates["exhaustive"] = ManifestationEstimate(
        strategy=f"exhaustive[{reduction or 'none'}]",
        runs=probes,
        manifested=1 if exploration.match_count else 0,
    )
    _record_estimate(
        kernel.buggy.name, estimates["exhaustive"],
        perf_counter() - exhaustive_start,
    )
    # Adaptive row: schedules-to-first-finding when a UCB1 bandit must
    # *discover* the right strategy.  ``runs`` is total spend across all
    # arms, so its "rate" is directly comparable to the exhaustive row.
    adaptive_start = perf_counter()
    race = adaptive_first_finding(kernel.buggy, kernel.failure)
    estimates["adaptive"] = ManifestationEstimate(
        strategy=f"adaptive[ucb:{race.winner or 'none'}]",
        runs=race.schedules,
        manifested=1 if race.found else 0,
    )
    _record_estimate(
        kernel.buggy.name, estimates["adaptive"],
        perf_counter() - adaptive_start,
    )
    enforced = 0
    enforced_start = perf_counter()
    for seed in range(runs):
        run = enforce_order(
            kernel.buggy,
            kernel.manifest_order,
            scheduler=RandomScheduler(seed=seed),
        )
        # Same semantics as order_guarantees: the order must hold and the
        # bug must show; labels cut off by the manifesting crash/deadlock
        # do not void the guarantee.
        if run.satisfied and kernel.failure(run.result):
            enforced += 1
    estimates["enforced"] = ManifestationEstimate(
        strategy="enforced(<=4 accesses)", runs=runs, manifested=enforced
    )
    _record_estimate(
        kernel.buggy.name, estimates["enforced"],
        perf_counter() - enforced_start,
    )
    return estimates
