"""Systematic interleaving exploration (stateless model checking).

:class:`Explorer` enumerates the schedules of a program by depth-first
search over scheduler decisions, re-executing the program from scratch for
each branch (the CHESS approach).  Each node of the decision tree is
visited exactly once: a run explores the "leftmost" path below its prefix,
and every non-taken sibling along that path is pushed as a new prefix.

Two bounds keep exploration tractable and *meaningful*:

* ``max_schedules`` — hard budget on executions; the result records
  whether the search completed, so callers can demand exhaustiveness.
* ``preemption_bound`` — only explore schedules with at most *k*
  pre-emptive context switches.  The study's manifestation findings (a
  handful of ordering points suffice — Finding 8) are why small bounds
  find essentially all of these bugs; bench E2 demonstrates it.

A third, optional pruning layer is **state-space memoization**
(``memoize=True``): every decision point's canonical state fingerprint
(:mod:`repro.sim.statecache`) is recorded, and a run that reaches an
already-expanded state is aborted — the subtree below it can only
reproduce outcomes the earlier expansion already enumerates.  This
preserves the terminal outcome *set* (and any verdict over terminal
states) but not schedule counts or match rates; predicates that inspect
``run.schedule`` or ``run.trace`` are unsound under memoization.
Cache-hit aborts count against ``max_schedules`` like full runs (each
still replays its prefix before the hit is detected), so a memoized
search may report "budget exhausted" after fewer completed schedules
than an unmemoized one with the same budget — ``cache_hits`` on the
result records how many attempts were cut short.

The default extension policy is *non-preemptive* (keep running the current
thread while it stays enabled), so the very first schedule explored is the
one a cooperative scheduler would produce.

For multi-core machines, :class:`repro.sim.parallel.ParallelExplorer`
shards this same search by prefix across a process pool; the
``workers=`` argument of :func:`find_schedule` and
:func:`enumerate_outcomes` selects it.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExplorationError
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import runlog as obs_runlog
from repro.sim.engine import Engine, EnabledFilter, RunResult, RunStatus
from repro.sim.program import Program
from repro.sim.scheduler import Scheduler
from repro.sim.statecache import MemoHit, StateCache, state_fingerprint
from repro.sim.trace import Trace

__all__ = [
    "Explorer",
    "ExplorationResult",
    "REDUCTIONS",
    "find_schedule",
    "enumerate_outcomes",
    "make_explorer",
]

Predicate = Callable[[RunResult], bool]


class _DirectedPolicy:
    """Rank pending operations against an ordered list of target pairs.

    ``targets`` is a best-first sequence of pair objects with ``first``
    and ``second`` sites exposing ``matches(thread, op) -> bool`` (the
    shape of :class:`repro.static.pairs.TargetPair`; duck-typed because
    the sim layer never imports static-analysis code).  The rank of a
    pending op is the index of the best pair it advances — first sites
    rank ahead of every second site so "run the first access of the best
    pair, then its second" falls out of a plain min() — and non-matching
    ops rank last.  Ranking depends only on the pending ops, so replayed
    prefixes and sibling subtrees see identical orderings and the
    exploration *tree* is unchanged, only the order in which DFS visits
    it.  Ranks are memoized by ``(thread, op)`` — ops are frozen
    dataclasses, so the cache is content-keyed and bounded by the
    program's static operation sites, and a thread's pending op is
    re-ranked in O(1) at every node it stays pending instead of
    re-scanning the target list.
    """

    __slots__ = ("targets", "_worst", "_rank_cache")

    def __init__(self, targets: Sequence[Any]):
        self.targets = list(targets)
        self._worst = 2 * len(self.targets)
        self._rank_cache: Dict[Any, int] = {}

    def rank(self, thread: str, op: Any) -> int:
        try:
            cached = self._rank_cache.get((thread, op))
        except TypeError:  # unhashable op payload: rank uncached
            return self._rank(thread, op)
        if cached is None:
            cached = self._rank_cache[(thread, op)] = self._rank(thread, op)
        return cached

    def _rank(self, thread: str, op: Any) -> int:
        best = self._worst
        for index, pair in enumerate(self.targets):
            if index >= best:
                break  # later pairs can only rank worse
            if pair.first.matches(thread, op):
                best = index
            elif pair.second.matches(thread, op) and len(self.targets) + index < best:
                best = len(self.targets) + index
        return best

    def key_enabled(
        self, engine: Engine, enabled: Sequence[str], previous: Optional[str]
    ) -> Dict[str, Tuple[int, int, str]]:
        """Final directed sort keys for every enabled thread at one node.

        Computed once per node and reused for both the extension choice
        and the sibling-push ordering (``previous`` is the same thread in
        both places), instead of rebuilding a key tuple per comparison —
        the fix for directed exploration costing more wall-clock than it
        saved in schedules (key: best rank, then stay non-preemptive,
        then thread name for determinism).
        """
        return {
            name: (
                self.rank(name, engine.pending_op(name)),
                0 if name == previous else 1,
                name,
            )
            for name in enabled
        }

#: A DFS stack entry: (schedule prefix, preemptions already paid inside
#: it, detector-pipeline snapshot taken at the branch point — or ``None``
#: when no pipeline is attached, trace of the run that pushed it — or
#: ``None``).  The snapshot lets a sibling run resume analysis from the
#: shared prefix instead of re-analysing it; the trace lets the engine
#: adopt the prefix's events instead of rebuilding them.  Traces never
#: leave the process: checkpoints keep only ``(prefix, paid)`` and
#: worker items go through :func:`_detach`, so those seeds replay with
#: emission.
Seed = Tuple[List[str], int, Optional[Any], Optional[Trace]]

#: Sentinel for ``_search``'s ``cache=`` parameter: "build a fresh cache
#: from ``self.memoize``" (the parallel workers' behaviour), as opposed
#: to an explicit cache (slice resume) or an explicit ``None``.
_FRESH_CACHE = object()


def _detach(seeds: Sequence[Seed]) -> List[Seed]:
    """Seeds fit to cross a process boundary: without their traces."""
    return [(prefix, paid, snapshot, None) for prefix, paid, snapshot, _ in seeds]


def _start_pass(
    pipeline: Optional[Any], snapshot: Optional[Any], parent: Optional[Trace]
) -> Tuple[Optional[Callable[[Any], None]], Optional[Trace]]:
    """Begin one run's pipeline pass; returns ``(event hook, parent trace)``.

    Resumes analysis from the branch-point snapshot when one was taken,
    so the replayed prefix is not analysed again; without a snapshot the
    hook must see every event, so the parent trace is not adopted.
    """
    if pipeline is None:
        return None, parent
    if snapshot is None:
        pipeline.begin_pass()
        return pipeline.feed, None
    pipeline.restore(snapshot)
    return pipeline.feed, parent


def _previous(engine: Engine) -> Optional[str]:
    """The thread that ran the step before the current decision."""
    schedule = engine.schedule
    return schedule[-1] if schedule else None


def _result_from_frontier(frontier: Any, program: str) -> ExplorationResult:
    """Rebuild the cumulative result a paused search had accumulated."""
    return ExplorationResult(
        program=program,
        schedules_run=frontier.schedules_run,
        complete=True,
        statuses=Counter(frontier.statuses),
        outcomes=dict(frontier.outcomes),
        matching=list(frontier.matching),
        match_count=frontier.match_count,
        first_match_schedule=(
            list(frontier.first_match_schedule)
            if frontier.first_match_schedule is not None else None
        ),
        schedules_to_first_finding=frontier.schedules_to_first_finding,
        cache_hits=frontier.cache_hits,
        states_expanded=frontier.states_expanded,
        preemptions_spent=frontier.preemptions_spent,
    )


def _dfs_frontier(explorer, result, leftover, cache) -> Any:
    """Checkpoint a paused plain-DFS search (see :mod:`repro.sim.frontier`)."""
    from repro.sim.frontier import ExplorationFrontier

    frontier = ExplorationFrontier(
        explorer="dfs",
        program=explorer.program.name,
        memoize=explorer.memoize,
        pending=[(list(prefix), paid) for prefix, paid, _, _ in leftover],
        attempts=result.schedules_run + result.cache_hits,
        schedules_run=result.schedules_run,
        statuses=Counter(result.statuses),
        outcomes=dict(result.outcomes),
        matching=list(result.matching),
        match_count=result.match_count,
        first_match_schedule=(
            list(result.first_match_schedule)
            if result.first_match_schedule is not None else None
        ),
        schedules_to_first_finding=result.schedules_to_first_finding,
        cache_hits=result.cache_hits,
        states_expanded=result.states_expanded,
        preemptions_spent=result.preemptions_spent,
        wall_seconds=result.wall_seconds,
        cache_state=cache.export_state() if cache is not None else None,
    )
    return frontier


class _RecordingScheduler(Scheduler):
    """Extend a run non-preemptively past its prefix; record enabled sets.

    The engine replays the forced prefix itself, so every ``choose`` call
    is a fresh decision.  When a :class:`StateCache` is attached, each is
    fingerprinted first; reaching an already-expanded state raises
    :class:`MemoHit` to abort the (redundant) run.
    """

    def __init__(
        self,
        cache: Optional[StateCache] = None,
        preemption_bound: Optional[int] = None,
        pipeline: Optional[Any] = None,
        directed: Optional[_DirectedPolicy] = None,
    ):
        self.cache = cache
        self.preemption_bound = preemption_bound
        self.pipeline = pipeline
        self.directed = directed
        self.engine: Optional[Engine] = None
        # Per fresh decision: the sorted enabled set and the choice made.
        self.enabled_sets: List[List[str]] = []
        self.choices: List[str] = []
        # Per-decision directed sort keys (one dict per node, computed
        # once and reused at sibling-push time), aligned with
        # enabled_sets.  Stays empty when undirected.
        self.directed_keys: List[Dict[str, Tuple[int, int, str]]] = []
        # Pipeline snapshots per decision (None entries for decisions
        # with a single enabled thread — no siblings there).
        self.node_snapshots: List[Optional[Any]] = []
        self._fresh_preemptions = 0
        # Hoisted once per run: fingerprinting is the per-decision hot
        # path, so the disabled-profiler cost must stay one None check.
        self._profiler = obs_profile.active()

    def attach(self, engine: Engine) -> None:
        self.engine = engine

    @property
    def preemptions(self) -> int:
        """Preemption cost paid by this run so far (prefix included)."""
        return self.engine.prefix_preemptions + self._fresh_preemptions

    def _fingerprint(self):
        profiler = self._profiler
        if profiler is None:
            return state_fingerprint(self.engine)
        start = perf_counter()
        fingerprint = state_fingerprint(self.engine)
        profiler.add("explorer.fingerprint", perf_counter() - start)
        return fingerprint

    def choose(self, enabled: Sequence[str], step: int) -> str:
        ordered = sorted(enabled)
        last = _previous(self.engine)
        if self.cache is not None:
            fingerprint = self._fingerprint()
            if self.preemption_bound is not None:
                # Under a bound the subtree also depends on the budget
                # already spent AND on which thread ran last — switching
                # away from a still-enabled previous thread is what costs
                # a preemption, so two paths reaching the same state with
                # equal spend but different last threads have different
                # budget-feasible subtrees.  Only identical
                # (state, paid, last) nodes merge.
                fingerprint = (
                    fingerprint,
                    ("preemptions", self.preemptions),
                    ("last", last),
                )
            if self.cache.seen(fingerprint):
                raise MemoHit()
        self.enabled_sets.append(ordered)
        if self.directed is not None:
            keys = self.directed.key_enabled(self.engine, ordered, last)
            self.directed_keys.append(keys)
        if self.pipeline is not None:
            # Snapshot only at real branch points: a single-choice
            # decision spawns no siblings, so nothing ever restores there.
            self.node_snapshots.append(
                self.pipeline.snapshot() if len(ordered) > 1 else None
            )
        if self.directed is not None:
            choice = min(ordered, key=keys.__getitem__)
        elif last is not None and last in enabled:
            choice = last
        else:
            choice = ordered[0]
        self._fresh_preemptions += _preemption_cost(last, choice, ordered)
        self.choices.append(choice)
        return choice

    def reset(self) -> None:
        self.enabled_sets = []
        self.choices = []
        self.directed_keys = []
        self.node_snapshots = []
        self._fresh_preemptions = 0


@dataclass
class ExplorationResult:
    """Aggregate outcome of one exploration."""

    program: str
    schedules_run: int
    complete: bool
    statuses: Counter = field(default_factory=Counter)
    outcomes: Dict[Tuple, int] = field(default_factory=dict)
    matching: List[RunResult] = field(default_factory=list)
    match_count: int = 0
    first_match_schedule: Optional[List[str]] = None
    #: Completed schedules up to and including the first predicate match
    #: (``None`` when nothing matched).  Counts in *serial DFS order*
    #: even for merged parallel searches, so it is comparable across
    #: worker counts; memoized aborts and pruned runs are excluded.
    schedules_to_first_finding: Optional[int] = None
    #: Runs aborted because they reached an already-expanded state.
    cache_hits: int = 0
    #: Subtree shards merged into this result (0 for a serial search).
    shards: int = 0
    #: Decision-tree nodes newly expanded (choices made beyond each
    #: run's replayed prefix); identical for serial and complete
    #: parallel searches because both visit every node exactly once.
    states_expanded: int = 0
    #: Total preemption cost paid across all executed schedule steps
    #: (replayed prefixes included).
    preemptions_spent: int = 0
    #: State-cache lookups/stored fingerprints, summed across shards
    #: (0 unless ``memoize=True``).
    cache_lookups: int = 0
    cache_states: int = 0
    #: Wall-clock of the exploration (for a shard: that shard's search).
    wall_seconds: float = 0.0
    #: Work-stealing telemetry (all zero for serial searches and for the
    #: legacy prefix-sharding strategy): donation batches made by busy
    #: workers, total prefixes donated, and the summed wall-clock the
    #: workers spent idle waiting for work.
    steal_donations: int = 0
    stolen_prefixes: int = 0
    idle_seconds: float = 0.0
    #: Summed wall-clock the workers spent inside donation events
    #: (slicing the stack, bumping the shared counter, queueing
    #: batches) — the serialization cost the steal strategy pays for
    #: its load balance.
    donate_seconds: float = 0.0
    #: Detector reports accumulated by an attached streaming pipeline,
    #: keyed by detector name (``None`` when exploring without one).
    #: Typed loosely because the sim layer never imports detector types.
    detector_reports: Optional[Dict[str, Any]] = None
    #: Counter dict from the attached pipeline's
    #: ``PipelineStats.as_dict()`` (``None`` without a pipeline).
    pipeline_stats: Optional[Dict[str, Any]] = None
    #: Checkpoint of the paused search when a ``slice_budget`` ran out
    #: with work left (:class:`repro.sim.frontier.ExplorationFrontier`);
    #: ``None`` for every *terminal* result — search complete, budget
    #: exhausted, or stopped on a first match.  A result carrying a
    #: frontier is provisional: its tallies are cumulative over the
    #: slices so far, and only the terminal slice's result is comparable
    #: to an unsliced run.
    frontier: Optional[Any] = None

    @property
    def found(self) -> bool:
        """Whether any run satisfied the search predicate."""
        return self.match_count > 0

    def match_rate(self) -> float:
        """Fraction of explored schedules that satisfied the predicate."""
        if not self.schedules_run:
            return 0.0
        return self.match_count / self.schedules_run

    def failure_rate(self) -> float:
        """Fraction of explored schedules that crashed, deadlocked, or hung."""
        if not self.schedules_run:
            return 0.0
        failures = sum(
            count
            for status, count in self.statuses.items()
            if status in (RunStatus.CRASH, RunStatus.DEADLOCK, RunStatus.HANG)
        )
        return failures / self.schedules_run

    def summary(self) -> str:
        """One-line rendering for reports."""
        status_text = ", ".join(
            f"{status.value}={count}" for status, count in sorted(
                self.statuses.items(), key=lambda item: item[0].value
            )
        )
        tail = "complete" if self.complete else "budget exhausted"
        return (
            f"{self.program}: {self.schedules_run} schedules ({tail}); "
            f"{status_text}"
        )


class Explorer:
    """Depth-first enumeration of a program's schedules."""

    def __init__(
        self,
        program: Program,
        max_schedules: int = 20000,
        max_steps: int = 5000,
        preemption_bound: Optional[int] = None,
        enabled_filter: Optional[EnabledFilter] = None,
        keep_matches: int = 16,
        memoize: bool = False,
        pipeline: Optional[Any] = None,
        targets: Optional[Sequence[Any]] = None,
    ):
        if memoize and enabled_filter is not None:
            raise ExplorationError(
                "memoize=True cannot be combined with an enabled_filter: "
                "filters may depend on the execution path (e.g. "
                "executed_labels), which state fingerprints do not capture"
            )
        self.program = program
        self.max_schedules = max_schedules
        self.max_steps = max_steps
        self.preemption_bound = preemption_bound
        self.enabled_filter = enabled_filter
        self.keep_matches = keep_matches
        self.memoize = memoize
        #: Race-directed exploration: an ordered sequence of target pairs
        #: (e.g. :class:`repro.static.pairs.TargetPair`) biasing both the
        #: default extension policy and the sibling visit order toward
        #: schedules that realise the pairs.  Every node is still visited
        #: at most once — the search tree is identical to the undirected
        #: one, only its traversal order changes, so completeness and
        #: outcome sets are unaffected.
        self.directed = (
            _DirectedPolicy(targets) if targets else None
        )
        #: Streaming detector pipeline observing every executed event
        #: (duck-typed — e.g. :class:`repro.detectors.pipeline.DetectorPipeline`;
        #: the sim layer never imports detector code).  Shared DFS
        #: prefixes are analysed once via snapshot/restore.  Combined
        #: with ``memoize=True``, pruned subtrees are never observed, so
        #: path-dependent findings below a cache hit can be missed.
        self.pipeline = pipeline
        #: The state cache of the most recent exploration (None unless
        #: ``memoize=True``); exposes hit/size statistics.
        self.cache: Optional[StateCache] = None

    def explore(
        self,
        predicate: Optional[Predicate] = None,
        stop_on_first: bool = False,
        *,
        slice_budget: Optional[int] = None,
        frontier: Optional[Any] = None,
    ) -> ExplorationResult:
        """Run the search.

        :param predicate: runs for which it returns ``True`` are collected
            in ``matching`` (up to ``keep_matches``); by default failed runs
            (crash / deadlock / hang) match.
        :param stop_on_first: end the search at the first match.
        :param slice_budget: run at most this many schedule attempts in
            *this call*; if work remains (and the global ``max_schedules``
            is not exhausted) the result carries a resumable
            :class:`~repro.sim.frontier.ExplorationFrontier` on its
            ``frontier`` field.  Concatenated slices reproduce the
            unsliced result exactly (``docs/simulator.md``).
        :param frontier: resume a previously paused search from its
            checkpoint instead of starting at the root.  The explorer
            must be configured identically (same program, ``memoize``)
            or ``ValueError`` is raised.  Incompatible with an attached
            pipeline (also ``ValueError``).
        """
        sliced = slice_budget is not None or frontier is not None
        if sliced:
            self._check_sliceable(slice_budget)
        start = perf_counter()
        if frontier is not None:
            frontier.check("dfs", self.program.name, self.memoize)
            stack: List[Seed] = [
                (list(prefix), paid, None, None)
                for prefix, paid in frontier.pending
            ]
            result = _result_from_frontier(frontier, self.program.name)
            cache = frontier.restore_cache()
            attempts = frontier.attempts
        else:
            stack = [([], 0, None, None)]
            result = None
            cache = StateCache() if self.memoize else None
            attempts = 0
        limit = (
            min(self.max_schedules, attempts + slice_budget)
            if slice_budget is not None
            else None
        )
        result, leftover = self._search(
            stack, predicate, stop_on_first, None,
            result=result, cache=cache, attempts=attempts, attempt_limit=limit,
        )
        result.wall_seconds = (
            (frontier.wall_seconds if frontier is not None else 0.0)
            + perf_counter() - start
        )
        if sliced and leftover and result.complete:
            # Slice exhausted with pending work: checkpoint instead of
            # finishing.  Metrics are recorded once, on the terminal slice.
            result.frontier = _dfs_frontier(self, result, leftover, cache)
            return result
        if self.cache is not None:
            self.cache.record_metrics(program=self.program.name)
        if result.pipeline_stats is not None:
            _record_pipeline_stats(result.pipeline_stats, self.program.name)
        _record_exploration(result, "dfs")
        return result

    def _check_sliceable(self, slice_budget: Optional[int]) -> None:
        if self.pipeline is not None:
            raise ValueError(
                "sliced exploration cannot be combined with a streaming "
                "detector pipeline: branch-point snapshots hold live "
                "analysis state that must not cross a checkpoint boundary"
            )
        if slice_budget is not None and slice_budget < 1:
            raise ValueError(
                f"slice_budget must be a positive schedule count, got "
                f"{slice_budget}"
            )

    # -- internals -----------------------------------------------------------

    def _search(
        self,
        stack: List[Seed],
        predicate: Optional[Predicate],
        stop_on_first: bool,
        frontier_target: Optional[int],
        steal_hook: Optional[Callable[[List[Seed]], None]] = None,
        *,
        result: Optional[ExplorationResult] = None,
        cache: Any = _FRESH_CACHE,
        attempts: int = 0,
        attempt_limit: Optional[int] = None,
    ) -> Tuple[ExplorationResult, List[Seed]]:
        """The DFS loop over a seeded stack; returns (result, leftover stack).

        ``frontier_target`` is the sharding hook used by the parallel
        explorer: when set, the loop stops as soon as the stack holds at
        least that many pending prefixes — or, on narrow trees where the
        LIFO stack never grows that deep, after that many attempts with a
        non-empty stack — leaving the remaining prefixes for the caller to
        distribute.  The stack is LIFO, so the serial exploration order is
        exactly: the runs executed here, then the popped entries' subtrees
        from the top of the leftover stack downward.

        ``steal_hook`` is the work-stealing hook: called once per loop
        iteration with the live stack, it may remove entries from the
        *bottom* (the serially-last subtrees) to donate them to idle
        workers.  Everything this search still runs precedes any donated
        entry in serial order, which is what keeps the parallel merge
        deterministic.
        """
        match = predicate if predicate is not None else _default_predicate
        if cache is _FRESH_CACHE:
            cache = StateCache() if self.memoize else None
        self.cache = cache
        if result is None:
            result = ExplorationResult(
                program=self.program.name, schedules_run=0, complete=True
            )
        while stack:
            if steal_hook is not None:
                steal_hook(stack)
            if not stack:
                break
            if frontier_target is not None and (
                len(stack) >= frontier_target or attempts >= frontier_target
            ):
                break
            if attempts >= self.max_schedules:
                result.complete = False
                break
            if attempt_limit is not None and attempts >= attempt_limit:
                break  # slice exhausted; the caller checkpoints the stack
            prefix, paid, snapshot, parent = stack.pop()
            attempts += 1
            run, recorder = self._run_once(prefix, cache, snapshot, parent)
            result.states_expanded += len(recorder.choices)
            result.preemptions_spent += recorder.preemptions
            if run is None:
                result.cache_hits += 1
            else:
                result.schedules_run += 1
                result.statuses[run.status] += 1
                outcome = _outcome_key(run)
                result.outcomes[outcome] = result.outcomes.get(outcome, 0) + 1
                if match(run):
                    result.match_count += 1
                    if len(result.matching) < self.keep_matches:
                        result.matching.append(run)
                    if result.first_match_schedule is None:
                        result.first_match_schedule = list(run.schedule)
                        result.schedules_to_first_finding = result.schedules_run
                    if stop_on_first:
                        result.complete = False
                        _fill_cache_stats(result, cache)
                        _fill_pipeline(result, self.pipeline)
                        return result, stack
            self._push_siblings(stack, recorder, prefix, paid)
        _fill_cache_stats(result, cache)
        _fill_pipeline(result, self.pipeline)
        return result, stack

    def _run_once(
        self,
        prefix: List[str],
        cache: Optional[StateCache],
        snapshot: Optional[Any] = None,
        parent: Optional[Trace] = None,
    ) -> Tuple[Optional[RunResult], _RecordingScheduler]:
        pipeline = self.pipeline
        hook, parent = _start_pass(pipeline, snapshot, parent)
        recorder = _RecordingScheduler(
            cache=cache,
            preemption_bound=self.preemption_bound,
            pipeline=pipeline,
            directed=self.directed,
        )
        engine = Engine(
            self.program,
            recorder,
            max_steps=self.max_steps,
            enabled_filter=self.enabled_filter,
            event_hook=hook,
            prefix=prefix,
            prefix_events=parent,
        )
        recorder.attach(engine)
        try:
            run = engine.run()
        except MemoHit:
            # Events fed before the hit did execute, so the pipeline state
            # is sound; end-of-trace analyses are skipped for aborted runs.
            return None, recorder
        if pipeline is not None:
            pipeline.finish_pass()
        return run, recorder

    def _push_siblings(
        self,
        stack: List[Seed],
        recorder: _RecordingScheduler,
        prefix: List[str],
        paid: int,
    ) -> None:
        engine = recorder.engine
        schedule = engine.schedule
        directed_keys = recorder.directed_keys
        snapshots = recorder.node_snapshots
        # Preemption cost of each executed step beyond the prefix.
        preemptions = paid
        for node, (chosen, enabled) in enumerate(
            zip(recorder.choices, recorder.enabled_sets)
        ):
            i = len(prefix) + node
            previous = schedule[i - 1] if i > 0 else None
            cost_chosen = _preemption_cost(previous, chosen, enabled)
            snapshot = snapshots[node] if snapshots else None
            alternatives = enabled
            if directed_keys:
                # Push worst-ranked first so the LIFO stack pops the
                # best-directed sibling before any other (keys were
                # computed once when the node was visited).
                alternatives = sorted(
                    enabled, key=directed_keys[node].__getitem__, reverse=True
                )
            for alt in alternatives:
                if alt == chosen:
                    continue
                cost_alt = _preemption_cost(previous, alt, enabled)
                if (
                    self.preemption_bound is not None
                    and preemptions + cost_alt > self.preemption_bound
                ):
                    continue
                stack.append(
                    (schedule[:i] + [alt], preemptions + cost_alt, snapshot,
                     engine.trace)
                )
            preemptions += cost_chosen


def _fill_cache_stats(result: ExplorationResult, cache: Optional[StateCache]) -> None:
    """Copy a search's cache totals into its result (travels across forks)."""
    if cache is not None:
        result.cache_lookups = cache.lookups
        result.cache_states = len(cache)


def _fill_pipeline(result: ExplorationResult, pipeline: Optional[Any]) -> None:
    """Copy an attached pipeline's reports and counters into the result.

    Reports travel on the result (picklable) so parallel shards can send
    them back to the parent for merging.
    """
    if pipeline is not None:
        result.detector_reports = dict(pipeline.reports)
        result.pipeline_stats = pipeline.stats.as_dict()


def _merge_pipeline_stats(
    into: Optional[Dict[str, Any]], add: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Fold one shard's pipeline counter dict into an accumulated one."""
    if add is None:
        return into
    if into is None:
        return dict(add)
    merged = dict(into)
    for key in (
        "events_dispatched", "events_reused", "snapshots", "restores", "passes",
    ):
        merged[key] = merged.get(key, 0) + add.get(key, 0)
    firsts = [
        stats.get("first_finding_step")
        for stats in (into, add)
        if stats.get("first_finding_step") is not None
    ]
    merged["first_finding_step"] = min(firsts) if firsts else None
    analysed = merged["events_dispatched"] + merged["events_reused"]
    merged["reuse_ratio"] = (
        merged["events_reused"] / analysed if analysed else 0.0
    )
    return merged


def _record_pipeline_stats(stats: Dict[str, Any], program: str) -> None:
    """Publish one exploration's pipeline counters to the metrics registry.

    Mirrors :func:`repro.detectors.pipeline.record_pipeline_metrics` for
    counter dicts — the sim layer cannot import detector code, and merged
    parallel results only carry the dict anyway.  No-op while metrics are
    disabled.
    """
    registry = obs_metrics.active()
    if registry is None:
        return
    for key in (
        "events_dispatched", "events_reused", "snapshots", "restores", "passes",
    ):
        registry.inc(f"pipeline.{key}", stats.get(key, 0), program=program)
    registry.set_gauge(
        "pipeline.reuse_ratio", stats.get("reuse_ratio", 0.0), program=program
    )


def _record_exploration(result: ExplorationResult, explorer: str) -> None:
    """Publish one exploration's counters to the metrics registry.

    Called once per top-level ``explore()`` (the parallel explorer
    records only its merged result, so counters never double-count).
    No-op while metrics are disabled.
    """
    registry = obs_metrics.active()
    if registry is None:
        return
    labels = {"program": result.program, "explorer": explorer}
    registry.inc(
        "explorer.explorations", 1,
        complete=str(result.complete).lower(), **labels,
    )
    registry.inc("explorer.schedules_run", result.schedules_run, **labels)
    registry.inc("explorer.cache_hits", result.cache_hits, **labels)
    registry.inc("explorer.states_expanded", result.states_expanded, **labels)
    registry.inc("explorer.preemptions_spent", result.preemptions_spent, **labels)
    registry.inc("explorer.matches", result.match_count, **labels)
    for status, count in result.statuses.items():
        registry.inc(
            "explorer.runs_by_status", count, status=status.value, **labels
        )
    registry.set_gauge(
        "explorer.distinct_outcomes", len(result.outcomes), **labels
    )
    registry.observe("explorer.wall_seconds", result.wall_seconds, **labels)


def _emit_exploration_runlog(
    event: str,
    result: ExplorationResult,
    max_schedules: int,
    max_steps: int,
    preemption_bound: Optional[int],
    workers: Optional[int],
    memoize: bool,
    wall_seconds: float,
    directed: bool = False,
    reduction: Optional[str] = None,
) -> None:
    """Append one run record for an exploration entry point (if active)."""
    if obs_runlog.active_runlog() is None:
        return
    args = {
        "max_schedules": max_schedules,
        "max_steps": max_steps,
        "preemption_bound": preemption_bound,
        "workers": workers,
        "memoize": memoize,
        "directed": directed,
        "reduction": reduction or "none",
    }
    obs_runlog.emit(
        event, **obs_runlog.exploration_record(result, args, wall_seconds)
    )


def _preemption_cost(previous: Optional[str], choice: str, enabled: List[str]) -> int:
    """Switching away from a still-enabled thread costs one preemption."""
    if previous is None or previous == choice:
        return 0
    return 1 if previous in enabled else 0


def _default_predicate(run: RunResult) -> bool:
    return run.failed


def _outcome_key(run: RunResult) -> Tuple:
    """Canonical terminal state: status + final memory, hashable."""
    items = []
    for key in sorted(run.memory):
        value = run.memory[key]
        try:
            hash(value)
        except TypeError:
            value = repr(value)
        items.append((key, value))
    return (run.status.value, tuple(items))


#: Valid values of the ``reduction=`` selector shared by
#: :func:`make_explorer` and the CLI ``--reduction`` flag.
REDUCTIONS = ("none", "sleepset", "dpor")


def make_explorer(
    program: Program,
    max_schedules: int = 20000,
    max_steps: int = 5000,
    preemption_bound: Optional[int] = None,
    workers: Optional[int] = None,
    memoize: bool = False,
    keep_matches: int = 16,
    pipeline_factory: Optional[Callable[[], Any]] = None,
    targets: Optional[Sequence[Any]] = None,
    reduction: Optional[str] = None,
):
    """Serial or parallel explorer, selected by ``workers`` (shared factory).

    This is the one place that knows how to turn "how many workers?" into
    the right explorer class; the detector suite, kernels, and fix
    verification all build explorers through it.

    :param pipeline_factory: zero-argument callable returning a fresh
        streaming detector pipeline (e.g.
        ``lambda: DetectorPipeline(detectors)``).  A factory rather than an
        instance because the parallel explorer needs an independent
        pipeline per shard process.
    :param targets: ordered target pairs for race-directed exploration
        (see :class:`Explorer`); typically the ``pairs`` of a
        :class:`repro.static.report.StaticReport`.
    :param reduction: partial-order reduction to apply: ``None``/"none"
        (plain DFS), ``"sleepset"``
        (:class:`~repro.sim.reduction.SleepSetExplorer`), or ``"dpor"``
        (:class:`~repro.sim.dpor.DPORExplorer`).  ``dpor`` composes with
        every accelerator: ``memoize`` prunes revisited states as
        truncated runs, ``preemption_bound`` switches to bounded DPOR
        with conservative boundary backtrack points, and ``workers > 1``
        selects :class:`~repro.sim.dpor_parallel.ParallelDPORExplorer`
        (speculative parallel DPOR, bit-identical to the serial search).
        ``sleepset`` stays serial and unbounded: combining it with
        ``workers > 1`` or ``preemption_bound`` raises
        :class:`ValueError` (sleep sets assume every sibling branch is
        explorable and every reversal serially visible).
    """
    kind = reduction if reduction is not None else "none"
    if kind not in REDUCTIONS:
        raise ValueError(
            f"reduction must be one of {', '.join(REDUCTIONS)}; got {reduction!r}"
        )
    if kind == "dpor" and workers is not None and workers > 1:
        from repro.sim.dpor_parallel import ParallelDPORExplorer

        return ParallelDPORExplorer(
            program,
            workers=workers,
            max_schedules=max_schedules,
            max_steps=max_steps,
            keep_matches=keep_matches,
            memoize=memoize,
            preemption_bound=preemption_bound,
            pipeline_factory=pipeline_factory,
            targets=targets,
        )
    if kind != "none":
        if workers is not None and workers > 1:
            raise ValueError(
                f"reduction={kind!r} cannot be combined with workers={workers}: "
                "sleep sets prune against the full sibling set, which a "
                "prefix-sharded or work-stealing search cannot see across "
                "workers; use reduction='dpor' for a parallel reduced search"
            )
        pipeline = pipeline_factory() if pipeline_factory is not None else None
        if kind == "sleepset":
            if preemption_bound is not None:
                raise ValueError(
                    "reduction='sleepset' cannot be combined with a "
                    "preemption bound: sleep sets assume every sibling "
                    "branch is explorable, which the bound violates"
                )
            from repro.sim.reduction import SleepSetExplorer

            return SleepSetExplorer(
                program,
                max_schedules=max_schedules,
                max_steps=max_steps,
                keep_matches=keep_matches,
                memoize=memoize,
                pipeline=pipeline,
                targets=targets,
            )
        from repro.sim.dpor import DPORExplorer

        return DPORExplorer(
            program,
            max_schedules=max_schedules,
            max_steps=max_steps,
            keep_matches=keep_matches,
            memoize=memoize,
            preemption_bound=preemption_bound,
            pipeline=pipeline,
            targets=targets,
        )
    if workers is not None and workers > 1:
        from repro.sim.parallel import ParallelExplorer

        return ParallelExplorer(
            program,
            workers=workers,
            max_schedules=max_schedules,
            max_steps=max_steps,
            preemption_bound=preemption_bound,
            keep_matches=keep_matches,
            memoize=memoize,
            pipeline_factory=pipeline_factory,
            targets=targets,
        )
    return Explorer(
        program,
        max_schedules=max_schedules,
        max_steps=max_steps,
        preemption_bound=preemption_bound,
        keep_matches=keep_matches,
        memoize=memoize,
        pipeline=pipeline_factory() if pipeline_factory is not None else None,
        targets=targets,
    )


def _make_explorer(*args, **kwargs):
    """Deprecated alias of :func:`make_explorer` (was private API)."""
    warnings.warn(
        "_make_explorer is deprecated; use repro.sim.explorer.make_explorer",
        DeprecationWarning,
        stacklevel=2,
    )
    return make_explorer(*args, **kwargs)


def find_schedule(
    program: Program,
    predicate: Optional[Predicate] = None,
    max_schedules: int = 20000,
    max_steps: int = 5000,
    preemption_bound: Optional[int] = None,
    workers: Optional[int] = None,
    memoize: bool = False,
    targets: Optional[Sequence[Any]] = None,
    reduction: Optional[str] = None,
) -> Optional[RunResult]:
    """First run satisfying ``predicate`` (default: any failure), or ``None``.

    ``workers > 1`` shards the search across a process pool;
    ``memoize=True`` prunes revisited states (sound for predicates over
    terminal state only — see :mod:`repro.sim.statecache`);
    ``targets`` biases the visit order toward predicted access pairs
    (race-directed exploration) without changing the searched tree;
    ``reduction`` selects a partial-order reduction (sound for
    predicates over terminal state — reduced searches skip schedules
    equivalent up to swapping independent operations).
    """
    explorer = make_explorer(
        program, max_schedules, max_steps, preemption_bound, workers, memoize,
        keep_matches=1, targets=targets, reduction=reduction,
    )
    start = perf_counter()
    result = explorer.explore(predicate=predicate, stop_on_first=True)
    _emit_exploration_runlog(
        "find_schedule", result, max_schedules, max_steps, preemption_bound,
        workers, memoize, perf_counter() - start, directed=bool(targets),
        reduction=reduction,
    )
    return result.matching[0] if result.matching else None


def enumerate_outcomes(
    program: Program,
    max_schedules: int = 20000,
    max_steps: int = 5000,
    preemption_bound: Optional[int] = None,
    require_complete: bool = False,
    workers: Optional[int] = None,
    memoize: bool = False,
    reduction: Optional[str] = None,
) -> ExplorationResult:
    """Explore every schedule (within bounds) and tally terminal outcomes.

    With ``memoize=True`` the outcome *set* is preserved but per-outcome
    counts are not (pruned subtrees are never run), and cache-hit aborts
    consume ``max_schedules`` budget alongside completed runs; with
    ``workers > 1`` and a complete search, counts match the serial
    search exactly.  ``reduction`` preserves the outcome set while
    skipping interleavings that only permute independent operations
    (per-outcome counts shrink accordingly).
    """
    explorer = make_explorer(
        program, max_schedules, max_steps, preemption_bound, workers, memoize,
        reduction=reduction,
    )
    start = perf_counter()
    result = explorer.explore(predicate=lambda run: False)
    _emit_exploration_runlog(
        "enumerate_outcomes", result, max_schedules, max_steps,
        preemption_bound, workers, memoize, perf_counter() - start,
        reduction=reduction,
    )
    if require_complete and not result.complete:
        raise ExplorationError(
            f"exploration of {program.name!r} exceeded the budget of "
            f"{max_schedules} schedules; raise max_schedules or shrink the "
            f"program"
        )
    return result
