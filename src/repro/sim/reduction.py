"""Sleep-set partial-order reduction for interleaving exploration.

Plain DFS explores every interleaving; most differ only by swapping
*independent* operations (different variables, different locks) and reach
identical terminal states.  Sleep sets (Godefroid) prune those: after
exploring thread ``t`` from a node, ``t`` is put to sleep in the node's
other branches and stays asleep while the ops executed there are
independent of ``t``'s pending op; a branch whose enabled threads are all
asleep is redundant and pruned.

Independence is computed from pending-operation *footprints*: two ops are
dependent iff their footprints conflict — same variable with a write,
same mutex/rwlock/semaphore/condvar/barrier, or one is a spawn/join of
the other's thread.  Footprints are conservative, so reduction can only
be smaller than optimal, never unsound with respect to the footprint
relation.

One honest caveat, handled conservatively: a simulated **crash truncates
the run** (modelling process death), which breaks the classical
assumption that runs are maximal.  Reduction credit is therefore only
taken from runs that ended OK / deadlocked / hung; siblings of crashed
or budget-aborted runs are pushed with empty sleep sets.  The property
tests in ``tests/sim/test_reduction.py`` check outcome-set equivalence
against plain DFS on randomly generated programs, including crashing
ones.

Sleep sets remain the one reducer that does **not** compose with a
preemption bound (pruning here presumes every sibling branch is
explorable); :mod:`repro.sim.dpor` composes with it and supersedes this
explorer wherever the bound matters — this module stays as the simplest
correct reducer and the differential baseline DPOR is tested against.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.sim import ops
from repro.sim.engine import Engine, RunResult, RunStatus
from repro.sim.explorer import (
    ExplorationResult,
    Predicate,
    _default_predicate,
    _DirectedPolicy,
    _fill_pipeline,
    _outcome_key,
    _previous,
    _record_exploration,
    _record_pipeline_stats,
    _result_from_frontier,
    _start_pass,
)
from repro.sim.program import Program
from repro.sim.scheduler import Scheduler
from repro.sim.statecache import MemoHit, StateCache, state_fingerprint
from repro.sim.trace import Trace

__all__ = ["SleepSetExplorer", "op_footprint", "ops_dependent"]

Token = Tuple[str, str]

#: A sleep-set stack entry: (schedule prefix, sleep set at its branch,
#: pipeline snapshot or ``None``, trace of the run that pushed it or
#: ``None``) — the sleep-set analogue of :data:`repro.sim.explorer.Seed`.
SleepSeed = Tuple[List[str], FrozenSet[str], Optional[Any], Optional[Trace]]


def op_footprint(op: ops.Op, thread: str, cond_locks: Dict[str, str]) -> FrozenSet[Token]:
    """The set of resource tokens an operation touches.

    ``cond_locks`` maps condition names to their mutexes (a ``Wait``
    touches both).  Every footprint carries a ``("self", thread)`` token
    so spawn/join of a thread conflict with that thread's own steps.
    """
    tokens: Set[Token] = {("self", thread)}
    if isinstance(op, ops.Read):
        tokens.add(("read", op.var))
    elif isinstance(op, (ops.Write, ops.AtomicUpdate)):
        tokens.add(("write", op.var))
    elif isinstance(op, (ops.Acquire, ops.Release, ops.TryAcquire)):
        tokens.add(("lock", op.lock))
    elif isinstance(op, ops._ReacquireAfterWait):
        tokens.add(("lock", op.lock))
        tokens.add(("cond", op.cond))
    elif isinstance(op, ops.Wait):
        tokens.add(("cond", op.cond))
        tokens.add(("lock", cond_locks.get(op.cond, f"?{op.cond}")))
    elif isinstance(op, (ops.Notify, ops.NotifyAll)):
        tokens.add(("cond", op.cond))
    elif isinstance(op, (ops.SemAcquire, ops.SemRelease)):
        tokens.add(("sem", op.sem))
    elif isinstance(op, ops.BarrierWait):
        tokens.add(("barrier", op.barrier))
    elif isinstance(op, (ops.AcquireRead, ops.AcquireWrite, ops.ReleaseRead, ops.ReleaseWrite)):
        tokens.add(("lock", f"rw:{op.rwlock}"))
    elif isinstance(op, (ops.Spawn, ops.Join)):
        tokens.add(("thread", op.thread))
    elif isinstance(op, (ops.Send, ops.Recv)):
        tokens.add(("chan", op.chan))
    elif isinstance(op, ops.Select):
        for chan in op.chans:
            tokens.add(("chan", chan))
    elif isinstance(op, ops._FlushStore):
        # A flush pseudo-step: a write to ``var`` on behalf of ``thread``
        # (the self token above carries the pseudo-thread's own name; the
        # thread token orders every flush with its owner's real steps,
        # conservatively preserving FIFO order and store forwarding).
        tokens.add(("write", op.var))
        tokens.add(("thread", op.thread))
    # Yield / Sleep / Fence: only the self token (a fence orders the
    # thread against its *own* flushes, which the thread token on
    # _FlushStore already captures).
    return frozenset(tokens)


def ops_dependent(a: FrozenSet[Token], b: FrozenSet[Token]) -> bool:
    """Whether two footprints conflict (may not commute)."""
    for kind_a, name_a in a:
        for kind_b, name_b in b:
            if name_a != name_b and not (
                (kind_a == "thread" and kind_b == "self")
                or (kind_a == "self" and kind_b == "thread")
            ):
                continue
            if kind_a == "read" and kind_b == "read":
                continue
            if {kind_a, kind_b} == {"read", "write"} and name_a == name_b:
                return True
            if kind_a == "write" and kind_b == "write" and name_a == name_b:
                return True
            if kind_a == kind_b and kind_a in (
                "lock", "cond", "sem", "barrier", "chan"
            ) and name_a == name_b:
                return True
            if (kind_a, kind_b) in (("thread", "self"), ("self", "thread")) and name_a == name_b:
                return True
    return False


class _SleepPruned(ReproError):
    """Raised by the scheduler when every enabled thread is asleep."""


class _SleepScheduler(Scheduler):
    """Extend a run past its prefix while tracking sleep sets.

    The engine replays the forced prefix, so every ``choose`` call is a
    fresh decision; the sleep set starts as the seed's.  Needs engine
    access (attached by the explorer after construction) to read pending
    operations for footprints.

    With a :class:`StateCache` attached, each decision point is
    fingerprinted as ``(engine state, sleep set)`` — the pair that fully
    determines the reduced subtree below the node — and a revisited pair
    raises :class:`MemoHit` to abort the redundant run.
    """

    def __init__(
        self,
        initial_sleep: FrozenSet[str],
        cache: Optional[StateCache] = None,
        pipeline: Optional[Any] = None,
        directed: Optional[_DirectedPolicy] = None,
    ):
        self.initial_sleep = initial_sleep
        self.cache = cache
        self.pipeline = pipeline
        self.directed = directed
        self.engine: Optional[Engine] = None
        self.cond_locks: Dict[str, str] = {}
        self.choices: List[str] = []
        self.enabled_sets: List[List[str]] = []
        self.sleep_sets: List[FrozenSet[str]] = []
        self.footprints: List[Dict[str, FrozenSet[Token]]] = []
        # Per-node directed sort keys (computed once per node, reused at
        # sibling-push time; aligned with enabled_sets, empty when
        # undirected).
        self.directed_keys: List[Dict[str, Tuple[int, int, str]]] = []
        # Pipeline snapshots per recorded decision (None where at most
        # one awake thread means no sibling branches).
        self.node_snapshots: List[Optional[Any]] = []
        self._sleep: FrozenSet[str] = initial_sleep
        self.pruned = False
        # Hoisted once per run; fingerprinting is the per-decision hot path.
        self._profiler = obs_profile.active()

    def attach(self, engine: Engine) -> None:
        self.engine = engine
        self.cond_locks = dict(engine.program.conditions)

    def _fingerprint(self):
        profiler = self._profiler
        if profiler is None:
            return state_fingerprint(self.engine)
        start = perf_counter()
        fingerprint = state_fingerprint(self.engine)
        profiler.add("explorer.fingerprint", perf_counter() - start)
        return fingerprint

    def _pending_footprints(self, enabled: Sequence[str]) -> Dict[str, FrozenSet[Token]]:
        assert self.engine is not None
        return {
            name: op_footprint(
                self.engine.pending_op(name), name, self.cond_locks
            )
            for name in enabled
        }

    def choose(self, enabled: Sequence[str], step: int) -> str:
        ordered = sorted(enabled)
        last = _previous(self.engine)
        if self.cache is not None:
            # The reduced subtree depends on the state *and* the sleep set
            # (a sleeping thread's branches are skipped), so only nodes
            # identical in both may merge.
            fingerprint = (
                self._fingerprint(),
                ("sleep", tuple(sorted(self._sleep))),
            )
            if self.cache.seen(fingerprint):
                raise MemoHit()
        footprints = self._pending_footprints(ordered)
        self.enabled_sets.append(ordered)
        self.sleep_sets.append(self._sleep)
        self.footprints.append(footprints)
        if self.directed is not None:
            self.directed_keys.append(
                self.directed.key_enabled(self.engine, ordered, last)
            )
        awake = [name for name in ordered if name not in self._sleep]
        if self.pipeline is not None:
            # Appended before the pruned-node raise so the snapshot list
            # stays aligned with enabled_sets; siblings only branch where
            # more than one thread is awake.
            self.node_snapshots.append(
                self.pipeline.snapshot() if len(awake) > 1 else None
            )
        if not awake:
            self.pruned = True
            raise _SleepPruned("all enabled threads are asleep")
        if self.directed is not None:
            choice = min(awake, key=self.directed_keys[-1].__getitem__)
        elif last in awake:
            choice = last
        else:
            choice = awake[0]
        # Threads stay asleep only while independent of the executed op.
        chosen_footprint = footprints[choice]
        self._sleep = frozenset(
            name
            for name in self._sleep
            if name in footprints
            and not ops_dependent(footprints[name], chosen_footprint)
        )
        self.choices.append(choice)
        return choice

    def reset(self) -> None:
        self.choices = []
        self.enabled_sets = []
        self.sleep_sets = []
        self.footprints = []
        self.directed_keys = []
        self.node_snapshots = []
        self._sleep = self.initial_sleep
        self.pruned = False


class SleepSetExplorer:
    """DFS exploration with sleep-set partial-order reduction."""

    def __init__(
        self,
        program: Program,
        max_schedules: int = 20000,
        max_steps: int = 5000,
        keep_matches: int = 16,
        memoize: bool = False,
        pipeline: Optional[Any] = None,
        targets: Optional[Sequence[Any]] = None,
    ):
        self.program = program
        self.max_schedules = max_schedules
        self.max_steps = max_steps
        self.keep_matches = keep_matches
        self.memoize = memoize
        #: Race-directed visit ordering (see
        #: :class:`~repro.sim.explorer.Explorer`).  Reordering sibling
        #: pushes is sound for sleep sets: a sibling's sleep set only
        #: needs each sleeping thread to own another branch at the same
        #: node, which holds for any enumeration order.
        self.directed = _DirectedPolicy(targets) if targets else None
        #: Streaming detector pipeline (duck-typed, as in
        #: :class:`~repro.sim.explorer.Explorer`); note that reduction
        #: already skips interleavings, so pipeline findings cover only
        #: the non-pruned representative schedules.
        self.pipeline = pipeline
        #: Redundant branches pruned in the last exploration.
        self.pruned_runs = 0
        #: The state cache of the most recent exploration (None unless
        #: ``memoize=True``).
        self.cache: Optional[StateCache] = None

    def explore(
        self,
        predicate: Optional[Predicate] = None,
        stop_on_first: bool = False,
        *,
        slice_budget: Optional[int] = None,
        frontier: Optional[Any] = None,
    ) -> ExplorationResult:
        """Explore with reduction; result fields as in :class:`Explorer`.

        ``slice_budget`` / ``frontier`` give the same sliced-resumable
        contract as :meth:`Explorer.explore`: a paused search returns a
        checkpoint on ``result.frontier`` whose pending entries carry
        their sleep sets, and concatenated slices reproduce the unsliced
        result exactly.  Incompatible with an attached pipeline
        (``ValueError``).
        """
        sliced = slice_budget is not None or frontier is not None
        if sliced:
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
        start = perf_counter()
        base_wall = frontier.wall_seconds if frontier is not None else 0.0
        match = predicate if predicate is not None else _default_predicate
        if frontier is not None:
            frontier.check("sleepset", self.program.name, self.memoize)
            result = _result_from_frontier(frontier, self.program.name)
            self.pruned_runs = frontier.pruned_runs
            cache = frontier.restore_cache()
            stack: List[SleepSeed] = [
                (list(prefix), frozenset(sleep), None, None)
                for prefix, sleep in frontier.pending
            ]
            attempts = frontier.attempts
        else:
            result = ExplorationResult(
                program=self.program.name, schedules_run=0, complete=True
            )
            self.pruned_runs = 0
            cache = StateCache() if self.memoize else None
            stack = [([], frozenset(), None, None)]
            attempts = 0
        self.cache = cache
        limit = (
            min(self.max_schedules, attempts + slice_budget)
            if slice_budget is not None
            else None
        )
        while stack:
            if attempts >= self.max_schedules:
                result.complete = False
                break
            if limit is not None and attempts >= limit:
                break  # slice exhausted; checkpoint the stack below
            prefix, sleep, snapshot, parent = stack.pop()
            attempts += 1
            run, scheduler = self._run_once(
                prefix, sleep, cache, snapshot, parent
            )
            result.states_expanded += len(scheduler.choices)
            if run is not None:
                result.schedules_run += 1
                result.statuses[run.status] += 1
                key = _outcome_key(run)
                result.outcomes[key] = result.outcomes.get(key, 0) + 1
                if match(run):
                    result.match_count += 1
                    if len(result.matching) < self.keep_matches:
                        result.matching.append(run)
                    if result.first_match_schedule is None:
                        result.first_match_schedule = list(run.schedule)
                        result.schedules_to_first_finding = result.schedules_run
                    if stop_on_first:
                        result.complete = False
                        self._finish(result, cache, start, base_wall)
                        return result
            elif scheduler.pruned:
                self.pruned_runs += 1
            else:
                result.cache_hits += 1
            self._push_siblings(stack, scheduler, prefix, run)
        if sliced and stack and result.complete:
            # Slice exhausted with pending work: checkpoint and return a
            # provisional result; metrics wait for the terminal slice.
            if cache is not None:
                result.cache_lookups = cache.lookups
                result.cache_states = len(cache)
            result.wall_seconds = base_wall + perf_counter() - start
            result.frontier = self._make_frontier(result, stack, cache)
            return result
        self._finish(result, cache, start, base_wall)
        return result

    def _make_frontier(
        self,
        result: ExplorationResult,
        stack: List[SleepSeed],
        cache: Optional[StateCache],
    ):
        """Checkpoint a paused sleep-set search (see :mod:`repro.sim.frontier`)."""
        from repro.sim.frontier import ExplorationFrontier

        return ExplorationFrontier(
            explorer="sleepset",
            program=self.program.name,
            memoize=self.memoize,
            pending=[
                (list(prefix), tuple(sorted(sleep)))
                for prefix, sleep, _, _ in stack
            ],
            attempts=(
                result.schedules_run + result.cache_hits + self.pruned_runs
            ),
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
            pruned_runs=self.pruned_runs,
            wall_seconds=result.wall_seconds,
            cache_state=cache.export_state() if cache is not None else None,
        )

    def _finish(
        self,
        result: ExplorationResult,
        cache: Optional[StateCache],
        start: float,
        base_wall: float = 0.0,
    ) -> None:
        """Close out one exploration: cache stats, wall-clock, metrics."""
        if cache is not None:
            result.cache_lookups = cache.lookups
            result.cache_states = len(cache)
            cache.record_metrics(program=self.program.name)
        _fill_pipeline(result, self.pipeline)
        if result.pipeline_stats is not None:
            _record_pipeline_stats(result.pipeline_stats, self.program.name)
        result.wall_seconds = base_wall + perf_counter() - start
        obs_metrics.inc(
            "explorer.pruned_runs", self.pruned_runs,
            program=self.program.name, explorer="sleepset",
        )
        _record_exploration(result, "sleepset")

    # -- internals ----------------------------------------------------------

    def _run_once(
        self,
        prefix: List[str],
        sleep: FrozenSet[str],
        cache: Optional[StateCache],
        snapshot: Optional[Any] = None,
        parent: Optional[Trace] = None,
    ) -> Tuple[Optional[RunResult], _SleepScheduler]:
        pipeline = self.pipeline
        hook, parent = _start_pass(pipeline, snapshot, parent)
        scheduler = _SleepScheduler(
            sleep, cache=cache, pipeline=pipeline, directed=self.directed,
        )
        engine = Engine(
            self.program, scheduler, max_steps=self.max_steps, event_hook=hook,
            prefix=prefix, prefix_events=parent,
        )
        scheduler.attach(engine)
        try:
            run = engine.run()
        except (_SleepPruned, MemoHit):
            # Already-fed events did execute; end-of-trace analyses are
            # skipped for aborted runs.
            return None, scheduler
        if pipeline is not None:
            pipeline.finish_pass()
        return run, scheduler

    def _push_siblings(
        self,
        stack: List[SleepSeed],
        scheduler: _SleepScheduler,
        prefix: List[str],
        run: Optional[RunResult],
    ) -> None:
        # No reduction credit from truncated runs (crash / budget abort):
        # their tails never executed, so commuting arguments do not apply.
        truncated = run is not None and run.status in (
            RunStatus.CRASH, RunStatus.ABORTED
        )
        engine = scheduler.engine
        schedule = engine.schedule
        choices = scheduler.choices
        for node in range(len(scheduler.enabled_sets)):
            if node >= len(choices):
                break  # the pruned node itself has no explored choice
            step = len(prefix) + node
            enabled = scheduler.enabled_sets[node]
            node_sleep = scheduler.sleep_sets[node]
            footprints = scheduler.footprints[node]
            chosen = choices[node]
            snapshot = (
                scheduler.node_snapshots[node]
                if scheduler.node_snapshots
                else None
            )
            alternatives = enabled
            if scheduler.directed_keys:
                # Worst-ranked pushed first: the LIFO stack then pops the
                # best-directed sibling first.  Sleep-set soundness only
                # needs the triangular explored-set structure, which any
                # enumeration order provides.
                alternatives = sorted(
                    enabled,
                    key=scheduler.directed_keys[node].__getitem__,
                    reverse=True,
                )
            explored: List[str] = [chosen]
            for alt in alternatives:
                if alt == chosen or alt in node_sleep:
                    continue
                if truncated:
                    alt_sleep: FrozenSet[str] = frozenset()
                else:
                    alt_sleep = frozenset(
                        name
                        for name in (node_sleep | set(explored))
                        if not ops_dependent(footprints[name], footprints[alt])
                    )
                stack.append(
                    (schedule[:step] + [alt], alt_sleep, snapshot, engine.trace)
                )
                explored.append(alt)
