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

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.obs import metrics as obs_metrics
from repro.sim import ops
from repro.sim.engine import RunResult, RunStatus
from repro.sim.explorer import (
    Seed,
    _AllAsleep,
    _previous,
    _Search,
    _SearchScheduler,
)
from repro.sim.program import Program
from repro.sim.statecache import MemoHit
# Importable here as the very object the explorer fingerprints with:
# profilers (perfbench/tracer.py) patch it in each importing module.
from repro.sim.statecache import state_fingerprint  # noqa: F401

__all__ = ["SleepSetExplorer", "op_footprint", "ops_dependent"]

Token = Tuple[str, str]


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


class _SleepScheduler(_SearchScheduler):
    """Extend a run past its prefix while tracking sleep sets.

    The sleep set starts as the seed's.  With a :class:`StateCache`
    attached, each decision point is fingerprinted as ``(engine state,
    sleep set)`` — the pair that fully determines the reduced subtree
    below the node — and a revisited pair raises :class:`MemoHit` to
    abort the redundant run.
    """

    #: The sleep-set search keeps no preemption account (it refuses a
    #: preemption bound), so its results report ``preemptions_spent == 0``.
    preemptions = 0

    def __init__(self, search: "SleepSetExplorer", sleep: FrozenSet[str]):
        super().__init__(search)
        self.sleep_sets: List[FrozenSet[str]] = []
        self.footprints: List[Dict[str, FrozenSet[Token]]] = []
        self._sleep = sleep

    def _pending_footprints(self, enabled: Sequence[str]) -> Dict[str, FrozenSet[Token]]:
        engine = self.engine
        cond_locks = engine.program.conditions
        return {
            name: op_footprint(engine.pending_op(name), name, cond_locks)
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
            raise _AllAsleep("all enabled threads are asleep")
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


class SleepSetExplorer(_Search):
    """DFS exploration with sleep-set partial-order reduction.

    Shares the stack-driven search of :class:`~repro.sim.explorer.Explorer`;
    only the scheduler and the sibling-push rule differ, and each stack
    entry's mark is its sleep set.  Race-directed ``targets`` reorder
    sibling pushes, which is sound for sleep sets: a sibling's sleep set
    only needs each sleeping thread to own another branch at the same
    node, which holds for any enumeration order.  An attached pipeline
    sees only the non-pruned representative schedules.
    """

    kind = "sleepset"
    _root_mark: FrozenSet[str] = frozenset()

    def __init__(
        self,
        program: Program,
        max_schedules: int = 20000,
        *,
        keep_matches: int = 16,
        memoize: bool = False,
        pipeline: Optional[Any] = None,
        targets: Optional[Sequence[Any]] = None,
    ):
        super().__init__(
            program, max_schedules, keep_matches=keep_matches,
            memoize=memoize, pipeline=pipeline, targets=targets,
        )

    def _scheduler(self, sleep: FrozenSet[str]) -> _SleepScheduler:
        return _SleepScheduler(self, sleep)

    def _publish_search_counters(self) -> None:
        obs_metrics.inc(
            "explorer.pruned_runs", self.pruned_runs,
            program=self.program.name, explorer=self.kind,
        )

    def _push_siblings(
        self,
        stack: List[Seed],
        scheduler: _SleepScheduler,
        prefix: List[str],
        sleep: FrozenSet[str],
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
