"""Dynamic partial-order reduction (Flanagan–Godefroid) for exploration.

Sleep sets (:mod:`repro.sim.reduction`) prune branches the DFS has
already committed to visiting: every awake sibling at every node is
pushed, and only later filtered.  DPOR inverts the commitment: a node
starts with a *single* branch (the one the run actually took), and other
branches are added **only where a race is observed** — two dependent
operations of different threads, unordered by happens-before, that could
have executed in the opposite order.  One representative schedule per
Mazurkiewicz trace survives; interleavings that merely permute
independent operations are never run at all.

The algorithm is the classic stateless one (Flanagan & Godefroid,
POPL'05), combined with sleep sets as in the paper's section 5:

* every executed run is swept once to compute the **happens-before
  relation** over its steps (program order + dependence, transitively
  closed), using the same conservative footprints as sleep sets
  (:func:`~repro.sim.reduction.op_footprint` /
  :func:`~repro.sim.reduction.ops_dependent`);
* at every fresh node, each enabled thread's pending operation is
  checked against the **last** dependent, possibly-co-enabled, earlier
  step not already ordered before it; a race adds the thread (or, via
  the paper's ``E``-set refinement, the threads that causally lead to
  it) to the *backtrack set* of the node before that step;
* the next run branches at the **deepest** node whose backtrack set
  holds an unexplored, awake thread, with the sleep-set discipline of
  :class:`~repro.sim.reduction.SleepSetExplorer` deciding who is awake.

Two honest conservatisms, mirroring the sleep-set explorer:

* **co-enabledness** is approximated: pairs that provably cannot be
  simultaneously enabled (a blocking acquire and a release of the same
  mutex, two releases, spawn/join against the target thread's own
  steps) are excluded from race detection; every other dependent pair
  counts as a race.  Extra backtrack points cost schedules, never
  outcomes.
* a run truncated by a **simulated crash** (process death) or the step
  budget breaks the maximal-execution assumption: operations that were
  pending when the run died never executed, so commuting arguments do
  not apply.  Every fresh node of a truncated run gets its full awake
  set as backtrack points and re-branches with an empty sleep set —
  exactly the credit the sleep-set explorer refuses for such runs.

The accelerators that used to be construction-time ``ValueError``\\ s
now compose:

* ``memoize=True`` — a run aborts when it reaches an already-expanded
  ``(state, sleep set)`` pair (plus ``(preemptions paid, last thread)``
  under a bound, exactly as the plain explorer refines its
  fingerprints).  A memo-aborted run is handled like a crash-truncated
  one: its unexecuted tail could hide races, so its fresh nodes
  re-branch over their full awake sets with no sleep credit, and the
  aborted node's pending operations still join race detection against
  the prefix.  Outcome sets are preserved; per-outcome counts are not.
* ``preemption_bound`` — bounded partial-order reduction in the style
  of Coons, Musuvathi & McKinley (OOPSLA'13).  Extension stays
  non-preemptive (free), so runs remain maximal and only *branching*
  spends budget.  Three changes keep the bounded search exact w.r.t.
  the bounded plain DFS: sleep sets are disabled (commuting a witness
  past an independent step can change its preemption cost, so sleep
  credit is unsound under a bound); backtrack additions and branch
  selection are filtered by budget feasibility (an infeasible waiter
  must not "cover" a reversal); and every race additionally plants
  **conservative backtrack points** at the context-switch boundaries at
  or below its earlier step — at a boundary, every enabled thread costs
  at most what the explored path itself paid there, so the conservative
  points are always feasible.  The differential harness asserts
  outcome-set equality against plain DFS at the same bound.
* ``workers > 1`` — :class:`repro.sim.dpor_parallel.ParallelDPORExplorer`
  runs backtrack branches as speculative work items over the shared
  queue, with per-worker race detection; races targeting frozen
  ancestor nodes travel back as data and are re-applied by the
  coordinator in serial order, so the key-sorted merge reproduces the
  serial search bit-for-bit.  The frozen-ancestor hooks live here
  (``_explore_item`` and the ``ancestor_races`` record list).

``targets=`` race-directed bias composes: it only reorders which awake
thread extends a run and which backtrack candidate is taken first, and
DPOR's correctness is independent of visit order.

The differential tests in ``tests/sim/test_dpor.py`` check outcome-set
equality against plain DFS and the sleep-set explorer over randomly
generated programs (crashing ones included) and every bug kernel,
across the full ``memoize x preemption_bound x workers`` matrix;
``benchmarks/bench_dpor.py`` records the schedule counts next to the
sleep-set explorer's.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.sim import ops
from repro.sim.frontier import reject_slicing
from repro.sim.engine import Engine, RunResult, RunStatus
from repro.sim.memory import FLUSH_PREFIX
from repro.sim.explorer import (
    ExplorationResult,
    Predicate,
    _default_predicate,
    _DirectedPolicy,
    _fill_cache_stats,
    _fill_pipeline,
    _outcome_key,
    _preemption_cost,
    _previous,
    _record_exploration,
    _record_pipeline_stats,
    _start_pass,
)
from repro.sim.program import Program
from repro.sim.reduction import Token, op_footprint, ops_dependent
from repro.sim.scheduler import Scheduler
from repro.sim.statecache import MemoHit, StateCache, state_fingerprint
from repro.sim.thread import ThreadState
from repro.sim.trace import Trace

__all__ = ["DPORExplorer"]

#: Acquire-shaped operations that block while the mutex is held.
_BLOCKING_ACQUIRE = (ops.Acquire, ops._ReacquireAfterWait)


def _may_be_coenabled(
    thread_a: str, op_a: ops.Op, thread_b: str, op_b: ops.Op
) -> bool:
    """Whether two pending operations could be enabled simultaneously.

    Conservative: ``True`` unless provably impossible.  A race between
    never-co-enabled operations is not a race — and filtering these
    pairs matters beyond schedule counts: a blocked acquire's real race
    partner is the *earlier acquire* of the same mutex (reversing whole
    critical sections), which only becomes the most recent candidate
    once the release in between is excluded.
    """
    for x, y in ((op_a, op_b), (op_b, op_a)):
        if (
            isinstance(x, _BLOCKING_ACQUIRE)
            and isinstance(y, ops.Release)
            and x.lock == y.lock
        ):
            # The acquire is enabled only while the lock is free; a
            # pending release means it is held.
            return False
    if (
        isinstance(op_a, ops.Release)
        and isinstance(op_b, ops.Release)
        and op_a.lock == op_b.lock
    ):
        return False  # one holder, one pending release
    for op, other in ((op_a, thread_b), (op_b, thread_a)):
        if isinstance(op, (ops.Spawn, ops.Join)) and op.thread == other:
            # Spawn pends while the target has no steps yet; join is
            # enabled only once the target has none left.
            return False
    return True


def _live_pending(engine: Engine) -> Dict[str, ops.Op]:
    """Pending operation of every started, unfinished thread.

    Includes threads blocked on a lock or semaphore (``RUNNABLE`` but not
    enabled); excludes unstarted threads (their first operation cannot
    run before the spawn executes, and any race it participates in is
    still pending — and detected — at every later node) and parked
    threads (a condition/barrier wait has already executed as a step;
    the engine-driven wakeup is not a schedulable transition).

    Under TSO, each non-empty store buffer contributes a flush
    pseudo-thread whose pending operation is the (synthesized)
    head-of-buffer store — flush steps are schedulable transitions, so
    their reorderings against other threads' reads are races like any
    other.
    """
    pending = {
        name: thread.pending
        for name, thread in engine.threads.items()
        if thread.state is ThreadState.RUNNABLE and thread.pending is not None
    }
    for owner in engine.memory.flushable():
        name = FLUSH_PREFIX + owner
        pending[name] = engine.pending_op(name)
    return pending


def _causal_pasts(
    steps: Sequence[Tuple[str, FrozenSet[Token]]]
) -> List[Set[int]]:
    """``pasts[i]``: indices of steps that happen-before step ``i``.

    Happens-before is program order plus dependence between executed
    steps, transitively closed.  Quadratic in the run length, which is
    bounded by the tiny kernel programs this simulator targets; the
    sweep runs once per executed schedule.
    """
    pasts: List[Set[int]] = []
    last: Dict[str, int] = {}
    for i, (thread, footprint) in enumerate(steps):
        past: Set[int] = set()
        previous = last.get(thread)
        if previous is not None:
            past |= pasts[previous]
            past.add(previous)
        for j in range(i):
            if j in past:
                continue
            if ops_dependent(steps[j][1], footprint):
                past |= pasts[j]
                past.add(j)
        pasts.append(past)
        last[thread] = i
    return pasts


class _DPORPruned(ReproError):
    """Raised by the scheduler when every enabled thread is asleep."""


class _Node:
    """One decision point along the current execution path.

    Nodes persist across re-executions: when the search backtracks to a
    node, everything above it (and the node's own enabled set, pending
    footprints, and sleep context) is unchanged — only the branches
    below vary.
    """

    __slots__ = (
        "enabled", "footprints", "pending", "sleep", "backtrack", "done",
        "chosen", "truncated", "snapshot", "paid",
    )

    def __init__(
        self,
        enabled: List[str],
        footprints: Dict[str, FrozenSet[Token]],
        pending: Dict[str, ops.Op],
        sleep: FrozenSet[str],
        snapshot: Optional[Any],
        paid: int = 0,
    ):
        self.enabled = enabled
        self.footprints = footprints
        self.pending = pending
        #: Sleep set in effect when the node was first reached on the
        #: current branch of its ancestors (fixed for the node's
        #: lifetime: changing any ancestor's branch discards the node).
        self.sleep = sleep
        self.backtrack: Set[str] = set()
        self.done: Set[str] = set()
        self.chosen: Optional[str] = None
        #: A run through this node crashed or hit the step budget; later
        #: branches here start with an empty sleep set (no reduction
        #: credit from truncated runs).
        self.truncated = False
        self.snapshot = snapshot
        #: Preemption cost of the steps above this node (used only under
        #: a bound — branch feasibility is ``paid + branch cost <= bound``).
        self.paid = paid


class _DPORScheduler(Scheduler):
    """Extend a run past its prefix while recording fresh decisions.

    The engine replays the forced prefix, so every ``choose`` call is a
    fresh decision.  Identical extension discipline to the sleep-set
    scheduler: threads asleep at a node are never chosen, sleepers wake
    when a dependent operation executes, and a node whose enabled
    threads are all asleep prunes the run.  It records, per decision,
    the enabled set, every enabled thread's pending op and footprint,
    the running sleep set, the preemption cost paid so far, and (with a
    pipeline) a branch-point snapshot.

    ``track_sleep=False`` (bounded mode) keeps the sleep set empty for
    the whole run; ``cache`` aborts the run with :class:`MemoHit` at an
    already-expanded fingerprint — *after* recording the node, so the
    aborted node's pending operations still join race detection.
    """

    def __init__(
        self,
        initial_sleep: FrozenSet[str],
        pipeline: Optional[Any] = None,
        directed: Optional[_DirectedPolicy] = None,
        track_sleep: bool = True,
        preemption_bound: Optional[int] = None,
        cache: Optional[StateCache] = None,
    ):
        self.initial_sleep = initial_sleep if track_sleep else frozenset()
        self.pipeline = pipeline
        self.directed = directed
        self.track_sleep = track_sleep
        self.preemption_bound = preemption_bound
        self.cache = cache
        self.engine: Optional[Engine] = None
        self.cond_locks: Dict[str, str] = {}
        self.choices: List[str] = []
        self.enabled_sets: List[List[str]] = []
        self.sleep_sets: List[FrozenSet[str]] = []
        self.footprints: List[Dict[str, FrozenSet[Token]]] = []
        self.pending_ops: List[Dict[str, ops.Op]] = []
        self.node_snapshots: List[Optional[Any]] = []
        self.paid_values: List[int] = []
        self._sleep: FrozenSet[str] = self.initial_sleep
        self._fresh_paid = 0
        self.pruned = False
        self.memo_hit = False

    def attach(self, engine: Engine) -> None:
        self.engine = engine
        self.cond_locks = dict(engine.program.conditions)

    @property
    def paid(self) -> int:
        """Preemption cost paid by this run so far (prefix included)."""
        return self.engine.prefix_preemptions + self._fresh_paid

    def choose(self, enabled: Sequence[str], step: int) -> str:
        ordered = sorted(enabled)
        engine = self.engine
        last = _previous(engine)
        paid = self.paid
        # Footprints and pending ops of every *live* thread, not just the
        # enabled ones: race detection must see the next transition of a
        # thread blocked on a lock (its acquire races with the earlier
        # acquire that blocked it — the deadlock-producing reversal).
        pending = _live_pending(engine)
        footprints = {
            name: op_footprint(op, name, self.cond_locks)
            for name, op in pending.items()
        }
        self.enabled_sets.append(ordered)
        self.sleep_sets.append(self._sleep)
        self.footprints.append(footprints)
        self.pending_ops.append(pending)
        self.paid_values.append(paid)
        awake = (
            [name for name in ordered if name not in self._sleep]
            if self.track_sleep
            else ordered
        )
        if self.pipeline is not None:
            # Aligned with enabled_sets even for the pruned node; only
            # nodes with two awake threads can ever branch.
            self.node_snapshots.append(
                self.pipeline.snapshot() if len(awake) > 1 else None
            )
        if not awake:
            self.pruned = True
            raise _DPORPruned("all enabled threads are asleep")
        if self.cache is not None:
            fingerprint: Any = (
                state_fingerprint(engine),
                ("sleep", tuple(sorted(self._sleep))),
            )
            if self.preemption_bound is not None:
                # Under a bound the subtree also depends on the budget
                # spent and on which thread ran last (see the plain
                # explorer's fingerprint refinement).
                fingerprint = (
                    fingerprint,
                    ("preemptions", paid),
                    ("last", last),
                )
            if self.cache.seen(fingerprint):
                self.memo_hit = True
                raise MemoHit()
        if self.directed is not None:
            keys = self.directed.key_enabled(engine, awake, last)
            choice = min(awake, key=keys.__getitem__)
            if (
                self.preemption_bound is not None
                and paid + _preemption_cost(last, choice, ordered)
                > self.preemption_bound
                and last in awake
            ):
                # Directed extension would overdraw the budget: fall
                # back to the free non-preemptive continuation.
                choice = last
        elif last in awake:
            choice = last
        else:
            choice = awake[0]
        if self.track_sleep:
            chosen_footprint = footprints[choice]
            self._sleep = frozenset(
                name
                for name in self._sleep
                if name in footprints
                and not ops_dependent(footprints[name], chosen_footprint)
            )
        self._fresh_paid += _preemption_cost(last, choice, ordered)
        self.choices.append(choice)
        return choice

    def reset(self) -> None:
        self.choices = []
        self.enabled_sets = []
        self.sleep_sets = []
        self.footprints = []
        self.pending_ops = []
        self.node_snapshots = []
        self.paid_values = []
        self._sleep = self.initial_sleep
        self._fresh_paid = 0
        self.pruned = False
        self.memo_hit = False


class DPORExplorer:
    """Stateless exploration with dynamic partial-order reduction.

    Composes with the accelerators of the plain explorer:
    ``memoize=True`` (memo-aborted runs are handled as truncated runs),
    ``preemption_bound`` (bounded POR with conservative backtrack points
    at context-switch boundaries), and — through
    :func:`~repro.sim.explorer.make_explorer` with ``workers > 1`` —
    :class:`repro.sim.dpor_parallel.ParallelDPORExplorer`.  See the
    module docstring for the composed semantics.
    """

    def __init__(
        self,
        program: Program,
        max_schedules: int = 20000,
        max_steps: int = 5000,
        keep_matches: int = 16,
        memoize: bool = False,
        preemption_bound: Optional[int] = None,
        pipeline: Optional[Any] = None,
        targets: Optional[Sequence[Any]] = None,
    ):
        self.program = program
        self.max_schedules = max_schedules
        self.max_steps = max_steps
        self.keep_matches = keep_matches
        self.memoize = memoize
        self.preemption_bound = preemption_bound
        #: Race-directed visit ordering (see
        #: :class:`~repro.sim.explorer.Explorer`): biases which awake
        #: thread extends a run and which backtrack candidate is taken
        #: first.  DPOR's coverage is independent of visit order, so the
        #: bias composes freely.
        self.directed = _DirectedPolicy(targets) if targets else None
        #: Streaming detector pipeline (duck-typed); findings cover only
        #: the representative schedules DPOR actually runs.
        self.pipeline = pipeline
        #: The state cache of the most recent exploration (``None``
        #: unless ``memoize=True``).
        self.cache: Optional[StateCache] = None
        #: Telemetry of the most recent exploration.
        self.pruned_runs = 0
        self.races_detected = 0
        self.backtrack_points = 0
        #: Races targeting frozen ancestor nodes (parallel items only):
        #: ``("race" | "boundary", depth, initials, thread)`` records in
        #: detection order, re-applied live by the coordinator.
        self.ancestor_races: List[Tuple[str, int, FrozenSet[str], str]] = []
        # Search state (valid between _begin and _finish).
        self._path: List[_Node] = []
        # Trace of the latest run: every node of the current path was
        # executed by it, so the next branch's prefix events are its own.
        self._latest: Optional[Trace] = None
        self._frozen = 0
        self._seed: Optional[
            Tuple[List[str], FrozenSet[str], Optional[Any]]
        ] = None
        self._attempts = 0
        self._match: Predicate = _default_predicate
        self._stop_on_first = False

    def explore(
        self,
        predicate: Optional[Predicate] = None,
        stop_on_first: bool = False,
        *,
        slice_budget: Optional[int] = None,
        frontier: Optional[Any] = None,
    ) -> ExplorationResult:
        """Explore with reduction; result fields as in :class:`Explorer`.

        DPOR refuses ``slice_budget``/``frontier`` (``ValueError``): its
        backtrack sets are discovered *behind* the DFS position, so a
        pending-stack checkpoint under-approximates the remaining work.
        Callers that need incremental DPOR budgets restart with a larger
        ``max_schedules`` instead — the search is deterministic, so a
        restart that reaches the verdict reproduces it bit-for-bit
        (``docs/allocator.md``).
        """
        reject_slicing(
            "reduction='dpor'",
            "backtrack sets are discovered behind the DFS position, so a "
            "pending-stack checkpoint under-approximates the remaining "
            "work; restart with a larger max_schedules instead",
            slice_budget, frontier,
        )
        start = perf_counter()
        result = self._begin(predicate, stop_on_first)
        while self._step(result):
            pass
        self._finish(result, start)
        return result

    def _explore_item(
        self,
        base: Sequence[_Node],
        seed: Tuple[List[str], FrozenSet[str], Optional[Any]],
        predicate: Optional[Predicate] = None,
        stop_on_first: bool = False,
    ) -> ExplorationResult:
        """Explore one parallel work item: a branch below frozen ancestors.

        ``base`` holds the reconstructed ancestor nodes (chosen thread,
        executed op/footprint, preemptions paid); ``seed`` is the item's
        committed first schedule.  Races that target an ancestor are
        recorded on :attr:`ancestor_races` instead of planted — the
        coordinator replants them against live node state.  Used by
        :class:`repro.sim.dpor_parallel.ParallelDPORExplorer`.
        """
        start = perf_counter()
        result = self._begin(predicate, stop_on_first, base=base, seed=seed)
        while self._step(result):
            pass
        self._finish(result, start)
        return result

    # -- search loop ---------------------------------------------------------

    def _begin(
        self,
        predicate: Optional[Predicate],
        stop_on_first: bool,
        base: Optional[Sequence[_Node]] = None,
        seed: Optional[
            Tuple[List[str], FrozenSet[str], Optional[Any]]
        ] = None,
    ) -> ExplorationResult:
        """Reset search state.  ``base`` installs frozen ancestor nodes
        (a parallel item's context); ``seed`` its first branch."""
        self._match = predicate if predicate is not None else _default_predicate
        self._stop_on_first = stop_on_first
        self.pruned_runs = 0
        self.races_detected = 0
        self.backtrack_points = 0
        self.ancestor_races = []
        self.cache = StateCache() if self.memoize else None
        self._path = list(base) if base else []
        self._latest = None
        self._frozen = len(self._path)
        self._seed = seed if seed is not None else ([], frozenset(), None)
        self._attempts = 0
        return ExplorationResult(
            program=self.program.name, schedules_run=0, complete=True
        )

    def _step(self, result: ExplorationResult) -> bool:
        """One run + race sweep + next-branch selection; ``False`` ends."""
        if self._seed is None:
            return False
        if self._attempts >= self.max_schedules:
            result.complete = False
            return False
        self._attempts += 1
        prefix, sleep, snapshot = self._seed
        run, scheduler, final_tail = self._run_once(prefix, sleep, snapshot)
        matched = self._absorb(result, run, scheduler, final_tail, len(prefix))
        if matched and self._stop_on_first:
            result.complete = False
            return False
        self._seed = self._select_next(self._path)
        return self._seed is not None

    def _absorb(
        self,
        result: ExplorationResult,
        run: Optional[RunResult],
        scheduler: _DPORScheduler,
        final_tail: Optional[_Node],
        base: int,
    ) -> bool:
        """Fold one engine run into the path and the result tallies."""
        path = self._path
        pruned_tail = self._extend_path(path, scheduler)
        result.states_expanded += len(scheduler.choices)
        result.preemptions_spent += scheduler.paid
        self._detect_races(
            path, base, pruned_tail if pruned_tail is not None else final_tail
        )
        matched = False
        if run is None:
            if scheduler.memo_hit:
                result.cache_hits += 1
                # A memo-aborted run is truncated: the subtree below the
                # revisited state was explored from its first visit, but
                # this prefix's own unexecuted tail could hide races —
                # withdraw reduction credit exactly as for a crash.
                self._handle_truncated(path, scheduler, base)
                self._truncation_races(path)
            else:
                self.pruned_runs += 1
        else:
            result.schedules_run += 1
            result.statuses[run.status] += 1
            key = _outcome_key(run)
            result.outcomes[key] = result.outcomes.get(key, 0) + 1
            if self._match(run):
                matched = True
                result.match_count += 1
                if len(result.matching) < self.keep_matches:
                    result.matching.append(run)
                if result.first_match_schedule is None:
                    result.first_match_schedule = list(run.schedule)
                    result.schedules_to_first_finding = result.schedules_run
            if run.status in (RunStatus.CRASH, RunStatus.ABORTED):
                self._handle_truncated(path, scheduler, base)
                self._truncation_races(path)
        return matched

    # -- internals ----------------------------------------------------------

    def _run_once(
        self,
        prefix: List[str],
        sleep: FrozenSet[str],
        snapshot: Optional[Any],
    ) -> Tuple[Optional[RunResult], _DPORScheduler, Optional["_Node"]]:
        pipeline = self.pipeline
        hook, parent = _start_pass(pipeline, snapshot, self._latest)
        scheduler = _DPORScheduler(
            sleep,
            pipeline=pipeline,
            directed=self.directed,
            track_sleep=self.preemption_bound is None,
            preemption_bound=self.preemption_bound,
            cache=self.cache,
        )
        engine = Engine(
            self.program, scheduler, max_steps=self.max_steps, event_hook=hook,
            prefix=prefix, prefix_events=parent,
        )
        scheduler.attach(engine)
        try:
            run = engine.run()
        except (_DPORPruned, MemoHit):
            # A MemoHit node was recorded before the abort, so
            # _extend_path surfaces it as the tail and its pending ops
            # join race detection; end-of-trace analyses are skipped (as
            # in the plain explorer).
            return None, scheduler, None
        finally:
            self._latest = engine.trace
        if pipeline is not None:
            pipeline.finish_pass()
        # A run can end with transitions still pending — deadlocked
        # threads, or survivors of a crash.  The engine never asks the
        # scheduler at such a state, so synthesize a terminal node for
        # race detection: a blocked acquire still races with the earlier
        # step that blocked it.  The node never branches (no enabled
        # threads), so backtrack points land at ancestors only.
        tail: Optional[_Node] = None
        final_pending = _live_pending(engine)
        if final_pending:
            footprints = {
                name: op_footprint(op, name, scheduler.cond_locks)
                for name, op in final_pending.items()
            }
            tail = _Node([], footprints, final_pending, frozenset(), None)
        return run, scheduler, tail

    def _extend_path(
        self, path: List[_Node], scheduler: _DPORScheduler
    ) -> Optional[_Node]:
        """Append this run's fresh decisions as nodes; return the
        recorded-but-unexecuted tail node (a sleep-pruned or memo-aborted
        stop), if any."""
        tail: Optional[_Node] = None
        snapshots = scheduler.node_snapshots
        for k in range(len(scheduler.enabled_sets)):
            node = _Node(
                enabled=scheduler.enabled_sets[k],
                footprints=scheduler.footprints[k],
                pending=scheduler.pending_ops[k],
                sleep=scheduler.sleep_sets[k],
                snapshot=snapshots[k] if k < len(snapshots) else None,
                paid=scheduler.paid_values[k],
            )
            if k < len(scheduler.choices):
                node.chosen = scheduler.choices[k]
                node.done.add(node.chosen)
                node.backtrack.add(node.chosen)
                path.append(node)
            else:
                # The node a pruned or memo-aborted run stopped at: it
                # can never branch here, but its pending operations
                # still participate in race detection against the prefix.
                tail = node
        return tail

    def _detect_races(
        self, path: List[_Node], base: int, tail: Optional[_Node]
    ) -> None:
        """One FG race sweep over the current execution.

        For every *fresh* node (depth ≥ ``base``) and every thread
        enabled there, find the most recent earlier step that is
        dependent with the thread's pending operation, possibly
        co-enabled with it, and not already ordered before it by
        happens-before — and add backtrack points at the node that step
        executed from.  Older nodes were swept when they were fresh;
        re-sweeping them could only repeat the same additions.
        """
        steps = [
            (node.chosen, node.footprints[node.chosen]) for node in path
        ]
        step_ops = [node.pending[node.chosen] for node in path]
        pasts = _causal_pasts(steps)
        last: Dict[str, int] = {}
        total = len(path) + (1 if tail is not None else 0)
        for depth in range(total):
            node = path[depth] if depth < len(path) else tail
            if depth >= base:
                for thread in sorted(node.pending):
                    previous = last.get(thread)
                    if previous is None:
                        thread_past: Set[int] = set()
                    else:
                        thread_past = pasts[previous] | {previous}
                    footprint = node.footprints[thread]
                    pending = node.pending[thread]
                    for i in range(depth - 1, -1, -1):
                        if i in thread_past:
                            continue  # ordered before the pending op
                        if not ops_dependent(steps[i][1], footprint):
                            continue
                        if not _may_be_coenabled(
                            steps[i][0], step_ops[i], thread, pending
                        ):
                            continue
                        self.races_detected += 1
                        self._add_backtrack(
                            path, thread, i, depth, steps, pasts, footprint
                        )
                        break  # only the most recent such step (FG)
            if depth < len(path):
                last[steps[depth][0]] = depth

    def _add_backtrack(
        self,
        path: List[_Node],
        thread: str,
        i: int,
        depth: int,
        steps: List[Tuple[str, FrozenSet[Token]]],
        pasts: List[Set[int]],
        pending_fp: Optional[FrozenSet[Token]],
    ) -> None:
        """Schedule the reversal of a race at the node before step ``i``.

        The source-set rule (Abdulla et al., POPL'14).  Build the
        reversal witness ``v``: the steps after ``i`` that are *not*
        happens-after it, followed by the racing pending operation.  Its
        *initials* are the threads whose first event in ``v`` has no
        dependent predecessor within ``v`` — the threads that can lead
        the reversed execution from the node.  If any initial is already
        scheduled there (explored, or awaiting selection outside the
        sleep set) the reversal is covered and nothing is added;
        otherwise one initial suffices.

        This subsumes Flanagan–Godefroid's "add the racing thread"
        rule, which loses reversals when that thread is sleep-blocked at
        the node and the commutation path into the covering sibling
        crosses a dependent step — an initial of ``v`` other than the
        racing thread is awake exactly there.  ``pending_fp`` is
        ``None`` for truncation races, whose final step is dependent
        with everything and hence an initial only when ``v`` has no
        other element.
        """
        witness: List[Tuple[str, Optional[FrozenSet[Token]]]] = [
            steps[j] for j in range(i + 1, depth) if i not in pasts[j]
        ]
        witness.append((thread, pending_fp))
        initials: Set[str] = set()
        seen: Set[str] = set()
        for k, (name, footprint) in enumerate(witness):
            if name in seen:
                continue
            seen.add(name)
            if footprint is None:
                if k == 0:
                    initials.add(name)
                continue
            if all(
                witness[m][1] is not None
                and not ops_dependent(witness[m][1], footprint)
                for m in range(k)
            ):
                initials.add(name)
        self._plant(path, i, initials, thread, steps)

    def _plant(
        self,
        path: List[_Node],
        i: int,
        initials: Set[str],
        thread: str,
        steps: List[Tuple[str, FrozenSet[Token]]],
    ) -> None:
        """Apply the addition decision for a race at node ``i``.

        Frozen ancestor nodes (parallel items) are never mutated: the
        race travels back as a record and the coordinator replants it
        with live node state, preserving the serial covered-check.
        """
        if i < self._frozen:
            self.ancestor_races.append(("race", i, frozenset(initials), thread))
            return
        pre = path[i]
        bound = self.preemption_bound
        if bound is None:
            covered = pre.done | (pre.backtrack - set(pre.sleep))
            if covered & initials:
                return
            enabled = set(pre.enabled)
            candidates = initials & enabled
            awake = candidates - set(pre.sleep)
            if awake:
                additions = {min(awake)}
            elif candidates:
                additions = {min(candidates)}
            else:
                # No initial is enabled here (a lock held across the
                # witness window, or similar): branch over everything.
                additions = enabled
            before = len(pre.backtrack)
            pre.backtrack |= additions
            self.backtrack_points += len(pre.backtrack) - before
            return
        # Bounded mode: an infeasible waiter must not cover a reversal,
        # and additions that can never be selected are pointless — both
        # checks use the static branch cost at this node.
        previous = steps[i - 1][0] if i > 0 else None
        feasible = {
            name
            for name in pre.enabled
            if pre.paid + _preemption_cost(previous, name, pre.enabled)
            <= bound
        }
        covered = pre.done | (pre.backtrack & feasible)
        if not covered & initials:
            candidates = initials & feasible
            additions = {min(candidates)} if candidates else feasible
            before = len(pre.backtrack)
            pre.backtrack |= additions
            self.backtrack_points += len(pre.backtrack) - before
        # Conservative points: the budget may forbid the reversal from
        # this node even when it allows an equivalent one scheduled at a
        # context-switch boundary, where every enabled thread costs at
        # most what the explored path paid (Coons et al., OOPSLA'13).
        self._plant_boundaries(path, i, initials, thread, steps)

    def _plant_boundaries(
        self,
        path: List[_Node],
        i: int,
        initials: Set[str],
        thread: str,
        steps: List[Tuple[str, FrozenSet[Token]]],
    ) -> None:
        """Plant conservative bounded-mode points at boundaries ≤ ``i``.

        A boundary is a node where the executed thread changed (plus the
        root).  Candidates are the racing thread and the witness
        initials; feasibility-filtered like every bounded addition.
        """
        for j in range(i, -1, -1):
            if j != 0 and steps[j - 1][0] == steps[j][0]:
                continue
            if j < self._frozen:
                self.ancestor_races.append(
                    ("boundary", j, frozenset(initials), thread)
                )
                continue
            self._plant_boundary(
                path[j],
                steps[j - 1][0] if j > 0 else None,
                initials,
                thread,
            )

    def _plant_boundary(
        self,
        node: _Node,
        previous: Optional[str],
        initials: Set[str],
        thread: str,
    ) -> None:
        bound = self.preemption_bound
        assert bound is not None
        additions = {
            name
            for name in ({thread} | initials)
            if name in node.enabled
            and node.paid + _preemption_cost(previous, name, node.enabled)
            <= bound
        }
        if not additions:
            return
        before = len(node.backtrack)
        node.backtrack |= additions
        self.backtrack_points += len(node.backtrack) - before

    def _handle_truncated(
        self, path: List[_Node], scheduler: _DPORScheduler, base: int
    ) -> None:
        """Withdraw reduction credit below a truncated run.

        A crash, the step budget, or a memo abort leaves the run's tail
        unexecuted, so independence-based commuting arguments do not
        apply: every fresh node re-branches over its full awake set and
        subsequent branches there start with an empty sleep set —
        mirroring the sleep-set explorer, which pushes the siblings of
        truncated runs with empty sleep sets.
        """
        for k in range(len(scheduler.enabled_sets)):
            depth = base + k
            if depth >= len(path):
                break
            node = path[depth]
            node.truncated = True
            asleep = scheduler.sleep_sets[k]
            node.backtrack.update(
                name for name in node.enabled if name not in asleep
            )

    def _truncation_races(self, path: List[_Node]) -> None:
        """Reverse a truncated run's final step with earlier steps.

        The step that kills a run (a simulated crash, or the step-budget
        boundary) is dependent with *everything*: it decides which of
        the other threads' operations ever execute, which footprint
        dependence cannot see.  Example: in ``U1 U1 U2 U2 U2 C C†`` the
        crashed checker read must also be reversed with U2's
        footprint-independent ``read version`` at step 4 — the
        truncated trace where U2 dies before that read is distinct, and
        no footprint race ever requests it.  Walk the final step up past
        the most recent earlier step of another thread not ordered
        before it; if the reversed run is also truncated, its own sweep
        walks one step further.
        """
        if not path:
            return
        last = len(path) - 1
        steps = [
            (node.chosen, node.footprints[node.chosen]) for node in path
        ]
        pasts = _causal_pasts(steps)
        thread = steps[last][0]
        thread_past = pasts[last] | {last}
        for i in range(last - 1, -1, -1):
            if i in thread_past or steps[i][0] == thread:
                continue
            self.races_detected += 1
            self._add_backtrack(path, thread, i, last, steps, pasts, None)
            break

    def _peek_selection(
        self,
        path: List[_Node],
        done_map: Optional[Dict[int, Set[str]]] = None,
        length: Optional[int] = None,
    ) -> Optional[Tuple[int, str, FrozenSet[str]]]:
        """Next branch — deepest node with an unexplored feasible thread.

        Non-mutating except that bounded-infeasible candidates are
        dropped from backtrack sets (they can never be selected, and
        leaving them would let them falsely cover later reversals; the
        drop is identical wherever the peek happens, so speculative
        peeks stay exact).  ``done_map``/``length`` overlay speculative
        done-sets and a speculative path truncation — the parallel
        coordinator's what-if view.
        """
        bound = self.preemption_bound
        limit = len(path) if length is None else length
        for depth in range(limit - 1, self._frozen - 1, -1):
            node = path[depth]
            if done_map is None:
                done = node.done
            else:
                done = done_map.setdefault(depth, set(node.done))
            candidates = node.backtrack - done - set(node.sleep)
            if candidates and bound is not None:
                previous = path[depth - 1].chosen if depth > 0 else None
                infeasible = {
                    name
                    for name in candidates
                    if node.paid
                    + _preemption_cost(previous, name, node.enabled)
                    > bound
                }
                node.backtrack -= infeasible
                candidates -= infeasible
            if not candidates:
                continue
            if self.directed is not None:
                choice = min(
                    candidates,
                    key=lambda name: (
                        self.directed.rank(name, node.pending[name]), name
                    ),
                )
            else:
                choice = min(candidates)
            if node.truncated or bound is not None:
                new_sleep: FrozenSet[str] = frozenset()
            else:
                chosen_footprint = node.footprints[choice]
                new_sleep = frozenset(
                    name
                    for name in (node.sleep | done)
                    if name != choice
                    and name in node.footprints
                    and not ops_dependent(
                        node.footprints[name], chosen_footprint
                    )
                )
            return depth, choice, new_sleep
        return None

    def _commit_selection(
        self,
        path: List[_Node],
        depth: int,
        choice: str,
        new_sleep: FrozenSet[str],
    ) -> Tuple[List[str], FrozenSet[str], Optional[Any]]:
        """Take the branch: mark it done, truncate the path, build seed."""
        node = path[depth]
        node.done.add(choice)
        node.chosen = choice
        del path[depth + 1:]
        prefix = [n.chosen for n in path]
        return prefix, new_sleep, node.snapshot

    def _select_next(
        self, path: List[_Node]
    ) -> Optional[Tuple[List[str], FrozenSet[str], Optional[Any]]]:
        """Deepest node with an unexplored awake backtrack thread.

        Truncates the path there, marks the branch done, and returns the
        (prefix, initial sleep, pipeline snapshot) of the next run.
        ``None`` means the whole reduced tree is explored.
        """
        selection = self._peek_selection(path)
        if selection is None:
            return None
        return self._commit_selection(path, *selection)

    def _finish(self, result: ExplorationResult, start: float) -> None:
        """Close out one exploration: pipeline copy, wall-clock, metrics."""
        _fill_pipeline(result, self.pipeline)
        _fill_cache_stats(result, self.cache)
        if self.cache is not None:
            self.cache.record_metrics(program=self.program.name)
        if result.pipeline_stats is not None:
            _record_pipeline_stats(result.pipeline_stats, self.program.name)
        result.wall_seconds = perf_counter() - start
        labels = {"program": self.program.name}
        obs_metrics.inc(
            "explorer.pruned_runs", self.pruned_runs,
            explorer="dpor", **labels,
        )
        obs_metrics.inc("dpor.races_detected", self.races_detected, **labels)
        obs_metrics.inc(
            "dpor.backtrack_points", self.backtrack_points, **labels
        )
        obs_metrics.inc("dpor.pruned_runs", self.pruned_runs, **labels)
        _record_exploration(result, "dpor")
