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

The reduced explorers (:mod:`repro.sim.reduction`, :mod:`repro.sim.dpor`)
share this module's search core: one way to execute a schedule
attempt, one search loop (:meth:`_Search.attempts`, a generator that
runs one attempt per ``next()``), one tally of a finished run
(:meth:`ExplorationResult.tally`) and one close-out.  Each explorer
adds only its node policy: its scheduler and how it branches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.errors import ExplorationError, ReproError
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import runlog as obs_runlog
from repro.sim.engine import Engine, RunResult, RunStatus
from repro.sim.program import Program
from repro.sim.scheduler import Scheduler
from repro.sim.statecache import MemoHit, StateCache, state_fingerprint
from repro.sim.trace import Trace

__all__ = [
    "Explorer",
    "ExplorationResult",
    "MAX_STEPS",
    "REDUCTIONS",
    "check_reduction",
    "find_schedule",
    "enumerate_outcomes",
    "make_explorer",
]

Predicate = Callable[[RunResult], bool]

#: The step bound of every schedule attempt: a run still going after
#: this many engine steps ends ``aborted``.  Read when each run is built.
MAX_STEPS = 5000


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

#: A stack entry of the depth-first searches: (schedule prefix, the
#: explorer's mark for the branch — the preemptions already paid inside
#: the prefix for plain DFS, the sleep set at the branch for sleep sets —,
#: detector-pipeline snapshot taken at the branch point or ``None`` when
#: no pipeline is attached, trace of the run that pushed it or ``None``).
#: The snapshot lets a sibling run resume analysis from the shared prefix
#: instead of re-analysing it; the trace lets the engine adopt the
#: prefix's events instead of rebuilding them.
Seed = Tuple[List[str], Any, Optional[Any], Optional[Trace]]


class _AllAsleep(ReproError):
    """Raised by a reducing scheduler when every enabled thread is asleep."""


def _previous(engine: Engine) -> Optional[str]:
    """The thread that ran the step before the current decision."""
    schedule = engine.schedule
    return schedule[-1] if schedule else None


class _SearchScheduler(Scheduler):
    """Per-run plumbing shared by the explorers' schedulers.

    Each instance drives exactly one run.  The engine replays the forced
    prefix itself, so every ``choose`` call is a fresh decision; a
    subclass records, per decision, the choice made and what its node
    policy needs: the stack policy keeps the sorted enabled set, plus the
    directed sort keys and the pipeline snapshot where they apply, in
    the lists below, and DPOR appends a path node instead.
    :meth:`_Search._run` sets ``engine`` right after building the engine.
    """

    #: Set when the run was cut because every enabled thread was asleep.
    pruned = False

    def __init__(self, search: "_Search"):
        self.cache = search.cache
        self.pipeline = search.pipeline
        self.directed = search.directed
        self.preemption_bound = search.preemption_bound
        self.engine: Optional[Engine] = None
        # Per fresh decision: the sorted enabled set and the choice made.
        self.enabled_sets: List[List[str]] = []
        self.choices: List[str] = []
        # Per-decision directed sort keys (one dict per node, computed
        # once and reused at sibling-push time), aligned with
        # enabled_sets.  Stays empty when undirected.
        self.directed_keys: List[Dict[str, Tuple[int, int, str]]] = []
        # Pipeline snapshots per decision (None entries for decisions
        # that cannot branch).  Stays empty without a pipeline.
        self.node_snapshots: List[Optional[Any]] = []
        self._fresh_preemptions = 0
        # Hoisted once per run: fingerprinting is the per-decision hot
        # path, so the disabled-profiler cost must stay one None check.
        self._profiler = obs_profile.active()

    @property
    def preemptions(self) -> int:
        """Preemption cost paid by this run so far (prefix included)."""
        return self.engine.prefix_preemptions + self._fresh_preemptions

    def _fingerprint(self) -> Any:
        """The current state's fingerprint, timed as ``explorer.fingerprint``."""
        profiler = self._profiler
        if profiler is None:
            return state_fingerprint(self.engine)
        start = perf_counter()
        fingerprint = state_fingerprint(self.engine)
        profiler.add("explorer.fingerprint", perf_counter() - start)
        return fingerprint


class _RecordingScheduler(_SearchScheduler):
    """Extend a run non-preemptively past its prefix; record enabled sets.

    When a :class:`StateCache` is attached, each decision is fingerprinted
    first; reaching an already-expanded state raises :class:`MemoHit` to
    abort the (redundant) run.
    """

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
    #: (``None`` when nothing matched); memoized aborts and pruned runs
    #: are excluded.
    schedules_to_first_finding: Optional[int] = None
    #: Runs aborted because they reached an already-expanded state.
    cache_hits: int = 0
    #: Decision-tree nodes newly expanded (choices made beyond each
    #: run's replayed prefix).
    states_expanded: int = 0
    #: Total preemption cost paid across all executed schedule steps
    #: (replayed prefixes included).
    preemptions_spent: int = 0
    #: State-cache lookups/stored fingerprints (0 unless ``memoize=True``).
    cache_lookups: int = 0
    cache_states: int = 0
    #: Wall-clock spent inside the search (pauses between
    #: :meth:`_Search.attempts` pulls excluded).
    wall_seconds: float = 0.0
    #: Detector reports accumulated by an attached streaming pipeline,
    #: keyed by detector name (``None`` when exploring without one).
    #: Typed loosely because the sim layer never imports detector types.
    detector_reports: Optional[Dict[str, Any]] = None
    #: Counter dict from the attached pipeline's
    #: ``PipelineStats.as_dict()`` (``None`` without a pipeline).
    pipeline_stats: Optional[Dict[str, Any]] = None

    @property
    def found(self) -> bool:
        """Whether any run satisfied the search predicate."""
        return self.match_count > 0

    def tally(self, run: RunResult, predicate: Predicate, keep_matches: int) -> bool:
        """Count one completed run; returns whether it matched ``predicate``.

        A match is kept in ``matching`` while fewer than ``keep_matches``
        are, and the first one fixes ``first_match_schedule`` and
        ``schedules_to_first_finding``.
        """
        self.schedules_run += 1
        self.statuses[run.status] += 1
        outcome = _outcome_key(run)
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if not predicate(run):
            return False
        self.match_count += 1
        if len(self.matching) < keep_matches:
            self.matching.append(run)
        if self.first_match_schedule is None:
            self.first_match_schedule = list(run.schedule)
            self.schedules_to_first_finding = self.schedules_run
        return True

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


class _Search:
    """The search machinery the three explorers share.

    It holds the common configuration, executes one schedule attempt
    (:meth:`_run`) and drives every search through one generator,
    :meth:`attempts`: it tallies each attempt, charges the budget, closes
    the search out (:meth:`_close` fills the result, :meth:`_publish`
    publishes its metrics and run-log record) and pauses between
    attempts.  An explorer supplies only its node policy, as three
    hooks: :meth:`_first_seed` sets a search up, :meth:`_attempt` runs
    one seed and records what the run taught the policy, and
    :meth:`_next_seed` picks the next seed or ends the search.  The
    hooks here are the stack-driven policy of plain DFS and sleep sets,
    which each supply a per-run scheduler (``_scheduler``), a
    sibling-push rule (``_push_siblings``) and the root stack mark;
    :class:`~repro.sim.dpor.DPORExplorer` overrides them with its
    path-and-backtrack policy.
    """

    #: Which search this is: the ``explorer`` label of its metrics and
    #: the ``explorer`` field of its run-log record.
    kind = ""
    #: The mark of the root stack entry (see :data:`Seed`).
    _root_mark: Any = None

    def __init__(
        self,
        program: Program,
        max_schedules: int = 20000,
        *,
        preemption_bound: Optional[int] = None,
        keep_matches: int = 16,
        memoize: bool = False,
        pipeline: Optional[Any] = None,
        targets: Optional[Sequence[Any]] = None,
    ):
        self.program = program
        self.max_schedules = max_schedules
        self.preemption_bound = preemption_bound
        self.keep_matches = keep_matches
        self.memoize = memoize
        #: Race-directed exploration: an ordered sequence of target pairs
        #: (e.g. :class:`repro.static.pairs.TargetPair`) biasing both the
        #: extension policy and the visit order toward schedules that
        #: realise the pairs.  Every node is still visited at most once —
        #: the search tree is identical to the undirected one, only its
        #: traversal order changes, so completeness and outcome sets are
        #: unaffected.
        self.directed = _DirectedPolicy(targets) if targets else None
        #: Streaming detector pipeline observing every executed event
        #: (duck-typed — e.g. :class:`repro.detectors.pipeline.DetectorPipeline`;
        #: the sim layer never imports detector code).  Shared prefixes
        #: are analysed once via snapshot/restore.  Combined with
        #: ``memoize=True`` or a reduction, pruned subtrees are never
        #: observed, so path-dependent findings below them can be missed.
        self.pipeline = pipeline
        #: The state cache of the most recent exploration (None unless
        #: ``memoize=True``); exposes hit/size statistics.
        self.cache: Optional[StateCache] = None
        #: Runs of the most recent exploration cut because every enabled
        #: thread was asleep (always 0 for plain DFS).
        self.pruned_runs = 0

    def explore(
        self,
        predicate: Optional[Predicate] = None,
        stop_on_first: bool = False,
    ) -> ExplorationResult:
        """Run the search to its end; see :meth:`attempts`.

        :param predicate: runs for which it returns ``True`` are collected
            in ``matching`` (up to ``keep_matches``); by default failed runs
            (crash / deadlock / hang) match.
        :param stop_on_first: end the search at the first match.
        """
        search = self.attempts(predicate, stop_on_first)
        try:
            while True:
                next(search)
        except StopIteration as end:
            return end.value

    def attempts(
        self,
        predicate: Optional[Predicate] = None,
        stop_on_first: bool = False,
    ) -> Generator[ExplorationResult, None, ExplorationResult]:
        """The search as a generator: one schedule attempt per ``next()``.

        Each pull runs exactly one attempt (a completed run, a memoized
        abort or a sleep-pruned run) and, while work and budget remain,
        yields the live result: its tallies are current, and the
        close-out fields (cache counters, detector reports,
        ``wall_seconds``) are filled when the search ends.  The pull whose
        attempt ends the search — it drains the work, spends the last of
        ``max_schedules``, or matches under ``stop_on_first`` — raises
        ``StopIteration`` carrying the final result instead, and the
        search's metrics and its ``explorer.search`` run-log record are
        published then, once.  ``wall_seconds`` counts only time spent
        inside the search, and a search abandoned before its end
        publishes nothing.  Arguments as in :meth:`explore`; one search
        per explorer at a time.
        """
        elapsed = 0.0
        start = perf_counter()
        match = predicate if predicate is not None else _default_predicate
        result = ExplorationResult(
            program=self.program.name, schedules_run=0, complete=True
        )
        self.cache = StateCache() if self.memoize else None
        self.pruned_runs = 0
        seed = self._first_seed()
        attempts = 0
        while seed is not None:
            if attempts >= self.max_schedules:
                result.complete = False
                break
            if attempts:
                elapsed += perf_counter() - start
                yield result
                start = perf_counter()
            attempts += 1
            run, scheduler = self._attempt(seed)
            result.states_expanded += len(scheduler.choices)
            result.preemptions_spent += scheduler.preemptions
            if run is not None:
                if result.tally(run, match, self.keep_matches) and stop_on_first:
                    result.complete = False
                    break
            elif scheduler.pruned:
                self.pruned_runs += 1
            else:
                result.cache_hits += 1
            seed = self._next_seed()
        self._close(result, elapsed + perf_counter() - start)
        self._publish(result)
        return result

    # -- the stack-driven node policy (plain DFS, sleep sets) -----------------

    def _first_seed(self) -> Any:
        """Set a search up; return its first seed."""
        self._stack: List[Seed] = []
        return ([], self._root_mark, None, None)

    def _attempt(
        self, seed: Any
    ) -> Tuple[Optional[RunResult], _SearchScheduler]:
        """Run one seed; return the run (``None`` if cut short) and its
        scheduler."""
        prefix, mark, snapshot, parent = seed
        scheduler = self._scheduler(mark)
        run, _ = self._run(scheduler, prefix, snapshot, parent)
        self._push_siblings(self._stack, scheduler, prefix, mark, run)
        return run, scheduler

    def _next_seed(self) -> Any:
        """The next seed, or ``None`` when the search is done."""
        # LIFO: the serially-next subtree is always on top.
        return self._stack.pop() if self._stack else None

    # -- one run and the close-out -------------------------------------------

    def _run(
        self,
        scheduler: _SearchScheduler,
        prefix: List[str],
        snapshot: Optional[Any],
        parent: Optional[Trace],
    ) -> Tuple[Optional[RunResult], Engine]:
        """Execute one schedule attempt: replay ``prefix``, then extend it.

        Returns ``(run, engine)``; ``run`` is ``None`` when the scheduler
        cut the attempt short at an already-expanded state or a node
        whose enabled threads are all asleep.  An attached pipeline
        resumes analysis from the branch-point ``snapshot``, so the
        replayed prefix is not analysed again; without a snapshot its
        fresh pass must see every event, so the ``parent`` trace is not
        adopted.
        """
        pipeline = self.pipeline
        hook = None
        if pipeline is not None:
            hook = pipeline.feed
            if snapshot is None:
                pipeline.begin_pass()
                parent = None
            else:
                pipeline.restore(snapshot)
        engine = Engine(
            self.program,
            scheduler,
            max_steps=MAX_STEPS,
            event_hook=hook,
            prefix=prefix,
            prefix_events=parent,
        )
        scheduler.engine = engine
        try:
            run = engine.run()
        except (MemoHit, _AllAsleep):
            # Events fed before the stop did execute, so the pipeline
            # state is sound; end-of-trace analyses are skipped for
            # aborted runs.
            return None, engine
        if pipeline is not None:
            pipeline.finish_pass()
        return run, engine

    def _close(self, result: ExplorationResult, wall_seconds: float) -> None:
        """Fill a result's cache, pipeline and wall-clock fields."""
        cache = self.cache
        if cache is not None:
            result.cache_lookups = cache.lookups
            result.cache_states = len(cache)
        pipeline = self.pipeline
        if pipeline is not None:
            result.detector_reports = dict(pipeline.reports)
            result.pipeline_stats = pipeline.stats.as_dict()
        result.wall_seconds = wall_seconds

    def _publish(self, result: ExplorationResult) -> None:
        """Publish a terminal result's metrics and its run-log record,
        once per search.

        No-op while metrics and the run log are disabled.
        """
        program = self.program.name
        if self.cache is not None:
            self.cache.record_metrics(program=program)
        if self.pipeline is not None:
            self.pipeline.record_metrics(program=program)
        self._publish_search_counters()
        _record_exploration(result, self.kind)
        if obs_runlog.active_runlog() is None:
            return
        args = {
            "max_schedules": self.max_schedules,
            "preemption_bound": self.preemption_bound,
            "memoize": self.memoize,
            "directed": self.directed is not None,
        }
        fields = obs_runlog.exploration_record(result, args, result.wall_seconds)
        stats = result.pipeline_stats
        if stats is not None:
            fields["pipeline"] = stats
            fields["findings"] = {
                name: len(report)
                for name, report in (result.detector_reports or {}).items()
            }
            fields["first_finding_step"] = stats.get("first_finding_step")
        obs_runlog.emit("explorer.search", explorer=self.kind, **fields)

    def _publish_search_counters(self) -> None:
        """Publish the counters only this kind of search keeps."""


class Explorer(_Search):
    """Depth-first enumeration of a program's schedules."""

    kind = "dfs"
    _root_mark = 0

    def _scheduler(self, paid: int) -> _RecordingScheduler:
        return _RecordingScheduler(self)

    def _push_siblings(
        self,
        stack: List[Seed],
        recorder: _RecordingScheduler,
        prefix: List[str],
        paid: int,
        run: Optional[RunResult],
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


def _record_exploration(result: ExplorationResult, explorer: str) -> None:
    """Publish one exploration's counters to the metrics registry.

    Called once per search, when it ends.  No-op while metrics are
    disabled.
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


def _preemption_cost(previous: Optional[str], choice: str, enabled: List[str]) -> int:
    """Switching away from a still-enabled thread costs one preemption."""
    if previous is None or previous == choice:
        return 0
    return 1 if previous in enabled else 0


def _default_predicate(run: RunResult) -> bool:
    return run.failed


def _never(run: RunResult) -> bool:
    """The predicate of an enumeration: nothing matches."""
    return False


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


def check_reduction(
    reduction: Optional[str], preemption_bound: Optional[int]
) -> str:
    """The name of ``reduction`` (``None`` is ``"none"``), if it can run.

    Raises :class:`ValueError` for an unknown name, and for sleep sets
    under a preemption bound, which no explorer supports.
    """
    kind = reduction if reduction is not None else "none"
    if kind not in REDUCTIONS:
        raise ValueError(
            f"reduction must be one of {', '.join(REDUCTIONS)}; got {reduction!r}"
        )
    if kind == "sleepset" and preemption_bound is not None:
        raise ValueError(
            "reduction='sleepset' cannot be combined with a "
            "preemption bound: sleep sets assume every sibling "
            "branch is explorable, which the bound violates"
        )
    return kind


def make_explorer(
    program: Program,
    max_schedules: int = 20000,
    *,
    preemption_bound: Optional[int] = None,
    memoize: bool = False,
    keep_matches: int = 16,
    pipeline: Optional[Any] = None,
    targets: Optional[Sequence[Any]] = None,
    reduction: Optional[str] = None,
):
    """The explorer for one ``reduction`` (shared factory).

    This is the one place that knows how to turn a reduction name into
    the right explorer class; the detector suite, kernels, and fix
    verification all build explorers through it.

    :param pipeline: streaming detector pipeline to attach (e.g. a
        fresh ``DetectorPipeline(detectors)``); see :class:`Explorer`.
    :param targets: ordered target pairs for race-directed exploration
        (see :class:`Explorer`); typically the ``pairs`` of a
        :class:`repro.static.report.StaticReport`.
    :param reduction: partial-order reduction to apply: ``None``/"none"
        (plain DFS), ``"sleepset"``
        (:class:`~repro.sim.reduction.SleepSetExplorer`), or ``"dpor"``
        (:class:`~repro.sim.dpor.DPORExplorer`).  ``dpor`` composes with
        every accelerator: ``memoize`` prunes revisited states as
        truncated runs, and ``preemption_bound`` switches to bounded DPOR
        with conservative boundary backtrack points.  ``sleepset`` stays
        unbounded: combining it with ``preemption_bound`` raises
        :class:`ValueError` (sleep sets assume every sibling branch is
        explorable).
    """
    kind = check_reduction(reduction, preemption_bound)
    options: Dict[str, Any] = {
        "keep_matches": keep_matches,
        "memoize": memoize,
        "pipeline": pipeline,
        "targets": targets,
    }
    if kind == "sleepset":
        from repro.sim.reduction import SleepSetExplorer as explorer_class
    else:
        options["preemption_bound"] = preemption_bound
        if kind == "dpor":
            from repro.sim.dpor import DPORExplorer as explorer_class
        else:
            explorer_class = Explorer
    return explorer_class(program, max_schedules, **options)


def find_schedule(
    program: Program,
    predicate: Optional[Predicate] = None,
    max_schedules: int = 20000,
    *,
    preemption_bound: Optional[int] = None,
    memoize: bool = False,
    targets: Optional[Sequence[Any]] = None,
    reduction: Optional[str] = None,
) -> Optional[RunResult]:
    """First run satisfying ``predicate`` (default: any failure), or ``None``.

    ``memoize=True`` prunes revisited states (sound for predicates over
    terminal state only — see :mod:`repro.sim.statecache`);
    ``targets`` biases the visit order toward predicted access pairs
    (race-directed exploration) without changing the searched tree;
    ``reduction`` selects a partial-order reduction (sound for
    predicates over terminal state — reduced searches skip schedules
    equivalent up to swapping independent operations).
    """
    result = make_explorer(
        program, max_schedules, preemption_bound=preemption_bound,
        memoize=memoize, keep_matches=1, targets=targets, reduction=reduction,
    ).explore(predicate=predicate, stop_on_first=True)
    return result.matching[0] if result.matching else None


def enumerate_outcomes(
    program: Program,
    max_schedules: int = 20000,
    *,
    preemption_bound: Optional[int] = None,
    require_complete: bool = False,
    memoize: bool = False,
    reduction: Optional[str] = None,
) -> ExplorationResult:
    """Explore every schedule (within bounds) and tally terminal outcomes.

    With ``memoize=True`` the outcome *set* is preserved but per-outcome
    counts are not (pruned subtrees are never run), and cache-hit aborts
    consume ``max_schedules`` budget alongside completed runs.
    ``reduction`` preserves the outcome set while skipping interleavings
    that only permute independent operations (per-outcome counts shrink
    accordingly).
    """
    result = make_explorer(
        program, max_schedules, preemption_bound=preemption_bound,
        memoize=memoize, reduction=reduction,
    ).explore(predicate=_never)
    if require_complete and not result.complete:
        raise ExplorationError(
            f"exploration of {program.name!r} exceeded the budget of "
            f"{max_schedules} schedules; raise max_schedules or shrink the "
            f"program"
        )
    return result
