"""UCB1 budget allocator over (job, strategy) arms.

The allocator answers one question, repeatedly: *which arm should the
next slice of schedules go to?*  An arm is any (job, strategy) pair the
caller registers — the adaptive race (:mod:`repro.alloc.adaptive`)
registers one arm per search strategy on a single program.  The
allocator never runs anything itself; callers pull an arm with
:meth:`UCBAllocator.select`, spend a slice, and report back with
:meth:`UCBAllocator.record`.

Payout model
------------

A pull's *reward* is whatever progress the slice produced — by
convention the number of previously unseen terminal outcomes plus a
large bonus for a first finding (see :data:`FINDING_BONUS`).  Rewards
are normalised **per schedule spent**, so a strategy that surfaces one
new interleaving class per 3 schedules outranks one that needs 300.
The UCB1 score of a played arm is

    mean_payout_per_schedule + c * sqrt(ln(total_schedules) / arm_schedules)

with ``c`` the exploration constant (:data:`DEFAULT_EXPLORATION`).
Unplayed arms always win, in registration order, so every arm gets at
least one probe slice before the bandit starts exploiting.

Arms can be *retired* (a deterministic search exhausted its state space;
a job found its bug) — retired arms are never selected again but keep
their statistics for reporting.

Telemetry: every ``record`` increments ``alloc.pulls`` /
``alloc.schedules_spent`` / ``alloc.payout`` and emits an
``alloc.pull`` runlog record; ``alloc.arms_live`` is kept as a gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog

__all__ = [
    "ArmKey",
    "ArmStats",
    "DEFAULT_EXPLORATION",
    "FINDING_BONUS",
    "UCBAllocator",
]

#: Exploration constant ``c`` — how aggressively under-sampled arms are
#: revisited.  UCB1's classical value is sqrt(2); we default lower
#: because payouts are already sparse (most slices score 0) and the
#: probe-first rule guarantees initial coverage.
DEFAULT_EXPLORATION = 0.5

#: Reward credited for a first finding, on top of new-outcome credit.
#: Large enough that a finding dominates any plausible outcome count.
FINDING_BONUS = 25.0

ArmKey = Tuple[str, str]


@dataclass
class ArmStats:
    """Mutable per-arm accounting; ``as_dict`` is the reporting view."""

    job: str
    strategy: str
    pulls: int = 0
    schedules: int = 0
    payout: float = 0.0
    findings: int = 0
    retired: bool = False

    @property
    def key(self) -> ArmKey:
        return (self.job, self.strategy)

    @property
    def mean_payout(self) -> float:
        """Average reward per schedule; 0.0 before the first pull."""
        if self.schedules <= 0:
            return 0.0
        return self.payout / self.schedules

    def as_dict(self) -> Dict[str, Any]:
        """Return the arm's statistics as a JSON-serializable dict."""
        return {
            "job": self.job,
            "strategy": self.strategy,
            "pulls": self.pulls,
            "schedules": self.schedules,
            "payout": round(self.payout, 6),
            "mean_payout": round(self.mean_payout, 6),
            "findings": self.findings,
            "retired": self.retired,
        }


class UCBAllocator:
    """UCB1 bandit over registered (job, strategy) arms.

    Deterministic: selection depends only on the sequence of
    ``add_arm``/``record``/``retire`` calls (ties break on registration
    order), so replays of the same workload pick the same arms.
    """

    def __init__(self, exploration: float = DEFAULT_EXPLORATION):
        if exploration < 0:
            raise ValueError("exploration constant must be >= 0")
        self.exploration = exploration
        self._arms: Dict[ArmKey, ArmStats] = {}
        self._order: List[ArmKey] = []
        self.total_schedules = 0
        self.total_pulls = 0

    # -- registration -------------------------------------------------

    def add_arm(self, job: str, strategy: str) -> ArmKey:
        """Register an arm; re-registering an existing key is an error."""
        key = (job, strategy)
        if key in self._arms:
            raise ValueError(f"arm already registered: {key!r}")
        self._arms[key] = ArmStats(job=job, strategy=strategy)
        self._order.append(key)
        self._gauge_live()
        return key

    def arm(self, key: ArmKey) -> ArmStats:
        """Return the :class:`ArmStats` registered under ``key``."""
        return self._arms[key]

    def arms(self) -> List[ArmStats]:
        """All arms in registration order (retired included)."""
        return [self._arms[key] for key in self._order]

    def live_arms(self) -> List[ArmStats]:
        """Return the arms still eligible for selection, in registration order."""
        return [stats for stats in self.arms() if not stats.retired]

    # -- selection ----------------------------------------------------

    def select(self) -> Optional[ArmKey]:
        """The arm the next slice should go to, or ``None`` if all retired.

        Unplayed live arms win first, in registration order; afterwards
        the highest UCB1 score wins, ties broken by registration order
        (``max`` keeps the earliest of equal scores).
        """
        live = self.live_arms()
        if not live:
            return None
        for stats in live:
            if stats.pulls == 0:
                return stats.key
        return max(live, key=lambda stats: self.score(stats.key)).key

    def score(self, key: ArmKey) -> float:
        """UCB1 upper confidence bound for one arm (inf if unplayed)."""
        stats = self._arms[key]
        if stats.schedules <= 0:
            return math.inf
        bonus = self.exploration * math.sqrt(
            math.log(max(self.total_schedules, 2)) / stats.schedules
        )
        return stats.mean_payout + bonus

    # -- feedback -----------------------------------------------------

    def record(
        self,
        key: ArmKey,
        schedules: int,
        payout: float,
        *,
        finding: bool = False,
    ) -> ArmStats:
        """Report one slice's spend and reward back to the bandit.

        ``schedules`` must be >= 1 — even a slice that made no progress
        consumed budget, and charging it keeps exhausted arms from being
        re-selected forever at score infinity.
        """
        if schedules < 1:
            raise ValueError("a recorded slice must have spent >= 1 schedule")
        stats = self._arms[key]
        stats.pulls += 1
        stats.schedules += schedules
        stats.payout += payout
        if finding:
            stats.findings += 1
        self.total_pulls += 1
        self.total_schedules += schedules
        registry = obs_metrics.active()
        if registry is not None:
            labels = {"job": stats.job, "strategy": stats.strategy}
            registry.inc("alloc.pulls", 1, **labels)
            registry.inc("alloc.schedules_spent", schedules, **labels)
            registry.inc("alloc.payout", payout, **labels)
            if finding:
                registry.inc("alloc.findings", 1, **labels)
        obs_runlog.emit(
            "alloc.pull",
            job=stats.job,
            strategy=stats.strategy,
            schedules=schedules,
            payout=payout,
            finding=finding,
            pulls=stats.pulls,
            arm_schedules=stats.schedules,
            total_schedules=self.total_schedules,
        )
        return stats

    def retire(self, key: ArmKey) -> None:
        """Stop selecting one arm (exhausted / no longer useful)."""
        self._arms[key].retired = True
        self._gauge_live()

    def retire_job(self, job: str) -> int:
        """Retire every arm of one job (e.g. its bug was found)."""
        retired = 0
        for stats in self._arms.values():
            if stats.job == job and not stats.retired:
                stats.retired = True
                retired += 1
        if retired:
            self._gauge_live()
        return retired

    # -- reporting ----------------------------------------------------

    def stats(self) -> List[Dict[str, Any]]:
        """Per-arm dicts in registration order, for race reports."""
        return [stats.as_dict() for stats in self.arms()]

    def _gauge_live(self) -> None:
        registry = obs_metrics.active()
        if registry is not None:
            registry.set_gauge("alloc.arms_live", len(self.live_arms()))
            registry.set_gauge("alloc.arms_total", len(self._arms))
