"""In-process exploration checkpoints: pause a search, resume it later.

A depth-first search over schedules is fully described by its **pending
stack** — the prefixes (plus per-entry bookkeeping) not yet expanded —
together with the cumulative result already collected and, under
``memoize=True``, the set of state fingerprints already expanded.
:class:`ExplorationFrontier` captures exactly that, so an exploration
can stop after a *slice* of its schedule budget and a later call in the
same process resumes at the precise node the slice stopped on.  The
one consumer is the adaptive strategy race
(:mod:`repro.alloc.adaptive`), which interleaves slices of its
systematic arms with its samplers; a frontier never leaves the process.

The cumulative result travels as the provisional
:class:`~repro.sim.explorer.ExplorationResult` itself (``result``).  A
resume copies its containers before counting on, so neither a frontier
nor the provisional result that returned it changes when the search goes
on: one frontier may be resumed any number of times.

The invariant the property tests pin (``tests/sim/test_frontier.py``):
for any slice sizes, the final slice's :class:`~repro.sim.explorer.
ExplorationResult` is identical to one unsliced ``explore()`` — same
outcome multiset, same match count, same ``schedules_to_first_finding``,
same cache counters — because the LIFO stack preserves the exact DFS
visit order and every tally is carried cumulatively.

Which explorers can checkpoint:

* plain DFS (:class:`~repro.sim.explorer.Explorer`) — composes with
  ``memoize`` (the fingerprint set travels in the frontier),
  ``preemption_bound`` (the paid-preemption count is part of each stack
  entry already), and ``targets`` (directed ordering is baked into the
  pushed sibling order, so no extra state is needed);
* sleep sets (:class:`~repro.sim.reduction.SleepSetExplorer`) — each
  pending entry carries its sleep set; composes with ``memoize`` and
  ``targets``.

What is *refused*, each with a :class:`ValueError` the tests assert:

* a streaming detector pipeline (snapshots hold live analysis state
  that must not cross a checkpoint boundary);
* DPOR (:mod:`repro.sim.dpor`) — its backtrack sets are discovered
  *behind* the DFS position, so a truncated pending stack
  under-approximates the remaining work; a DPOR search that runs out
  of budget is re-run with a larger one instead (``docs/allocator.md``
  documents the trade).

Randomized strategies (random / PCT sampling in the estimator and the
allocator) do not need a frontier at all: they resume by **seed
offset** — run seeds ``[k, k+n)`` now, ``[k+n, ...)`` later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.sim.statecache import StateCache

if TYPE_CHECKING:  # pragma: no cover - the explorer module imports this one
    from repro.sim.explorer import ExplorationResult

__all__ = ["ExplorationFrontier", "SLICEABLE_EXPLORERS"]

#: Explorer kinds that support frontier checkpointing (the ``explorer``
#: tag stored in every frontier; everything else refuses with ValueError).
SLICEABLE_EXPLORERS = ("dfs", "sleepset")


@dataclass
class ExplorationFrontier:
    """One paused exploration: pending work + the cumulative result.

    Produced by ``Explorer.explore(slice_budget=...)`` /
    ``SleepSetExplorer.explore(slice_budget=...)`` on the result's
    ``frontier`` field; consumed by the next ``explore(frontier=...)``
    call on an identically-configured explorer over the same program.
    """

    #: Which search produced this frontier ("dfs" or "sleepset").
    explorer: str
    #: Program name, cross-checked on resume (a frontier must never be
    #: replayed against a different program).
    program: str
    #: Whether the paused search was memoizing (must match on resume —
    #: the carried fingerprint set is meaningless otherwise).
    memoize: bool
    #: The provisional result of the slices so far (without a frontier
    #: of its own): cumulative tallies, cache counters and wall-clock.
    result: ExplorationResult
    #: The pending LIFO stack, top last.  DFS entries are
    #: ``(prefix, paid_preemptions)``; sleep-set entries are
    #: ``(prefix, sorted_sleep_tuple)``.  Pipeline snapshots are never
    #: present (slicing refuses pipelines).
    pending: List[Tuple] = field(default_factory=list)
    #: Schedule attempts consumed so far (completed runs + memoized
    #: aborts + sleep-pruned branches) — the cumulative charge against
    #: ``max_schedules``.
    attempts: int = 0
    #: Sleep-set-pruned branches so far (sleepset frontiers only).
    pruned_runs: int = 0
    #: Exported :class:`~repro.sim.statecache.StateCache` state
    #: ``(seen fingerprints, hits, lookups)``; ``None`` when unmemoized.
    cache_state: Optional[Tuple[Any, int, int]] = None

    # -- resume-side helpers ------------------------------------------------

    def check(self, explorer: str, program: str, memoize: bool) -> None:
        """Validate that this frontier may resume on the given explorer."""
        if self.explorer != explorer:
            raise ValueError(
                f"frontier was produced by a {self.explorer!r} search and "
                f"cannot resume a {explorer!r} one"
            )
        if self.program != program:
            raise ValueError(
                f"frontier belongs to program {self.program!r}, not "
                f"{program!r}"
            )
        if self.memoize != memoize:
            raise ValueError(
                f"frontier was checkpointed with memoize={self.memoize} and "
                f"cannot resume with memoize={memoize}: the carried "
                f"fingerprint set would be "
                + ("discarded" if self.memoize else "fabricated")
            )

    def restore_cache(self) -> Optional[StateCache]:
        """Rebuild the carried state cache (``None`` when unmemoized)."""
        if self.cache_state is None:
            return None
        seen, hits, lookups = self.cache_state
        cache = StateCache()
        cache._seen = set(seen)
        cache.hits = hits
        cache.lookups = lookups
        return cache
