"""Scheduling policies for the simulation engine.

A scheduler sees the set of *enabled* threads at each step and picks one.
All policies are deterministic given their seed, which is what makes every
experiment in this repository reproducible run-to-run.

Provided policies:

* :class:`RandomScheduler` — uniform random choice; the baseline "stress
  testing" model.  The study's motivation section observes that random
  stress testing manifests these bugs rarely; bench E2 quantifies that.
* :class:`CooperativeScheduler` — run one thread until it blocks (a
  non-preemptive scheduler).  Many of the studied bugs *cannot* manifest
  under it, which demonstrates why context switches at unfortunate points
  are the trigger.
* :class:`RoundRobinScheduler` — strict alternation each step.
* :class:`PCTScheduler` — Probabilistic Concurrency Testing (priority
  scheduling with ``depth`` random priority-change points), the classic
  guided-random policy with a manifestation-probability guarantee.
* :class:`FixedScheduler` — replay an explicit thread-name sequence.
"""

from __future__ import annotations

import abc
import random
from typing import List, Optional, Sequence

from repro.errors import ReplayError, SchedulerError

__all__ = [
    "Scheduler",
    "RandomScheduler",
    "CooperativeScheduler",
    "RoundRobinScheduler",
    "PCTScheduler",
    "FixedScheduler",
]


class Scheduler(abc.ABC):
    """Strategy interface: pick the next thread to execute."""

    @abc.abstractmethod
    def choose(self, enabled: Sequence[str], step: int) -> str:
        """Return one element of ``enabled``; ``step`` is the decision index."""

    def reset(self) -> None:
        """Restore initial state so the same instance can drive a fresh run."""


class RandomScheduler(Scheduler):
    """Uniformly random choice among enabled threads (seeded)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, enabled: Sequence[str], step: int) -> str:
        return self._rng.choice(sorted(enabled))

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


class CooperativeScheduler(Scheduler):
    """Run the current thread until it blocks or finishes, then move on.

    Threads are preferred in the (stable) order they first become enabled.
    This models a non-preemptive runtime: no interleaving happens inside a
    thread's enabled run, so bugs that require a context switch between two
    specific accesses never manifest here.
    """

    def __init__(self) -> None:
        self._current: Optional[str] = None

    def choose(self, enabled: Sequence[str], step: int) -> str:
        if self._current in enabled:
            return self._current
        self._current = sorted(enabled)[0]
        return self._current

    def reset(self) -> None:
        self._current = None


class RoundRobinScheduler(Scheduler):
    """Strictly alternate among enabled threads in sorted order."""

    def __init__(self) -> None:
        self._last: Optional[str] = None

    def choose(self, enabled: Sequence[str], step: int) -> str:
        order = sorted(enabled)
        if self._last is None:
            choice = order[0]
        else:
            after = [t for t in order if t > self._last]
            choice = after[0] if after else order[0]
        self._last = choice
        return choice

    def reset(self) -> None:
        self._last = None


class PCTScheduler(Scheduler):
    """Probabilistic Concurrency Testing (Burckhardt et al.).

    Each thread gets a distinct random priority on first sight; the highest
    priority enabled thread runs.  ``depth - 1`` priority-change points are
    sampled uniformly over the first ``horizon`` steps; when execution
    reaches one, the running thread's priority drops below everything else.
    With depth *d*, PCT finds any bug of depth *d* with probability at least
    ``1 / (n * k^(d-1))`` — the study's observation that real bugs have
    small depth (few ordering constraints, Finding 8) is exactly why PCT
    works well in practice.
    """

    def __init__(self, seed: int = 0, depth: int = 2, horizon: int = 200):
        if depth < 1:
            raise SchedulerError("PCT depth must be >= 1")
        self.seed = seed
        self.depth = depth
        self.horizon = horizon
        self.reset()

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        self._priorities: dict = {}
        self._next_low = -1.0
        self._change_points = set(
            self._rng.sample(range(0, max(self.horizon, self.depth)), self.depth - 1)
        )

    def choose(self, enabled: Sequence[str], step: int) -> str:
        for t in sorted(enabled):
            if t not in self._priorities:
                self._priorities[t] = self._rng.random()
        choice = max(sorted(enabled), key=lambda t: self._priorities[t])
        if step in self._change_points:
            # Demote the thread that just ran below every other priority.
            self._priorities[choice] = self._next_low
            self._next_low -= 1.0
        return choice


class FixedScheduler(Scheduler):
    """Replay an explicit sequence of thread choices.

    With ``strict=True`` (default) a choice that is not enabled raises
    :class:`~repro.errors.ReplayError`; with ``strict=False`` the scheduler
    falls back to the first enabled thread in sorted order, and likewise
    when the schedule runs out.
    """

    def __init__(self, schedule: Sequence[str], strict: bool = True):
        self.schedule: List[str] = list(schedule)
        self.strict = strict
        self._index = 0

    def choose(self, enabled: Sequence[str], step: int) -> str:
        if self._index < len(self.schedule):
            wanted = self.schedule[self._index]
            self._index += 1
            if wanted in enabled:
                return wanted
            if self.strict:
                raise ReplayError(
                    f"replay step {self._index - 1}: thread {wanted!r} is not "
                    f"enabled (enabled: {sorted(enabled)})"
                )
            return sorted(enabled)[0]
        if self.strict:
            raise ReplayError(
                f"replay schedule exhausted after {step} steps "
                f"but the program still has enabled threads"
            )
        return sorted(enabled)[0]

    def reset(self) -> None:
        self._index = 0
