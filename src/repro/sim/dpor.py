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

* the search keeps its current execution path as one node per decision,
  and each node records its step's **causal past** — the depths of the
  steps that happen-before it (program order + dependence, transitively
  closed), using the same conservative footprints as sleep sets
  (:func:`~repro.sim.reduction.op_footprint` /
  :func:`~repro.sim.reduction.ops_dependent`).  A past is computed
  once, when the node's step is set: nodes persist across
  re-executions, so a run computes only the pasts of the node it
  branched at and of the nodes it appended;
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

``targets=`` race-directed bias composes: it only reorders which awake
thread extends a run and which backtrack candidate is taken first, and
DPOR's correctness is independent of visit order.

The differential tests in ``tests/sim/test_dpor.py`` check outcome-set
equality against plain DFS and the sleep-set explorer over randomly
generated programs (crashing ones included) and every bug kernel,
across the full ``memoize x preemption_bound`` matrix;
``benchmarks/bench_dpor.py`` records the schedule counts next to the
sleep-set explorer's.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.obs import metrics as obs_metrics
from repro.sim import ops
from repro.sim.engine import Engine, RunResult, RunStatus
from repro.sim.memory import FLUSH_PREFIX
from repro.sim.explorer import (
    _AllAsleep,
    _preemption_cost,
    _previous,
    _Search,
    _SearchScheduler,
)
from repro.sim.reduction import Token, op_footprint, ops_dependent
from repro.sim.statecache import MemoHit
# Importable here as the very object the explorer fingerprints with:
# profilers (perfbench/tracer.py) patch it in each importing module.
from repro.sim.statecache import state_fingerprint  # noqa: F401
from repro.sim.thread import ThreadState
from repro.sim.trace import Trace

__all__ = ["DPORExplorer"]

#: A DPOR seed: the next run's (prefix, initial sleep set, pipeline
#: snapshot at the branch point).
_Seed = Tuple[List[str], FrozenSet[str], Optional[Any]]

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


def _terminal_node(engine: Engine) -> Optional["_Node"]:
    """A node for the transitions still pending when a run ended.

    A run can end with transitions still pending — deadlocked threads,
    or survivors of a crash.  The engine never asks the scheduler at
    such a state, so this node stands in for race detection: a blocked
    acquire still races with the earlier step that blocked it.  It
    never branches (no enabled threads), so backtrack points land at
    ancestors only.  ``None`` when nothing is pending.
    """
    pending = _live_pending(engine)
    if not pending:
        return None
    cond_locks = engine.program.conditions
    footprints = {
        name: op_footprint(op, name, cond_locks)
        for name, op in pending.items()
    }
    return _Node([], footprints, pending, frozenset(), None)


def _causal_past(path: List["_Node"], depth: int) -> Set[int]:
    """Depths of the steps on ``path`` that happen-before step ``depth``.

    Happens-before is program order plus dependence between executed
    steps, transitively closed.  Every step above ``depth`` already
    holds its own past, so one pass over them closes this one.
    """
    node = path[depth]
    thread = node.chosen
    footprint = node.footprints[thread]
    past: Set[int] = set()
    for j in range(depth - 1, -1, -1):
        if path[j].chosen == thread:
            past |= path[j].past
            past.add(j)
            break
    for j in range(depth):
        if j in past:
            continue
        earlier = path[j]
        if ops_dependent(earlier.footprints[earlier.chosen], footprint):
            past |= earlier.past
            past.add(j)
    return past


class _Node:
    """One decision point along the current execution path.

    Nodes persist across re-executions: when the search backtracks to a
    node, everything above it (and the node's own enabled set, pending
    footprints, and sleep context) is unchanged — only the node's choice
    and the branches below vary.  Its step (``chosen``) and that step's
    causal past are set together.
    """

    __slots__ = (
        "enabled", "footprints", "pending", "sleep", "backtrack", "done",
        "chosen", "past", "truncated", "snapshot", "paid",
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
        #: Depths of the path steps that happen-before this node's step
        #: (see :func:`_causal_past`).
        self.past: Set[int] = set()
        #: A run through this node crashed or hit the step budget; later
        #: branches here start with an empty sleep set (no reduction
        #: credit from truncated runs).
        self.truncated = False
        self.snapshot = snapshot
        #: Preemption cost of the steps above this node (used only under
        #: a bound — branch feasibility is ``paid + branch cost <= bound``).
        self.paid = paid


class _DPORScheduler(_SearchScheduler):
    """Extend a run past its prefix, appending one path node per fresh
    decision.

    Identical extension discipline to the sleep-set scheduler: threads
    asleep at a node are never chosen, sleepers wake when a dependent
    operation executes, and a node whose enabled threads are all asleep
    prunes the run.  Each node holds the enabled set, every live
    thread's pending op and footprint, the running sleep set, the
    preemption cost paid so far, and (with a pipeline) a branch-point
    snapshot; it takes its choice once the scheduler picks.

    Under a preemption bound the sleep set stays empty for the whole
    run; a cache aborts the run with :class:`MemoHit` at an
    already-expanded fingerprint — *after* appending the node, so the
    aborted node's pending operations still join race detection.
    """

    def __init__(self, search: "DPORExplorer", sleep: FrozenSet[str]):
        super().__init__(search)
        self.path = search._path
        self.track_sleep = self.preemption_bound is None
        self._sleep = sleep if self.track_sleep else frozenset()

    def choose(self, enabled: Sequence[str], step: int) -> str:
        ordered = sorted(enabled)
        engine = self.engine
        last = _previous(engine)
        paid = self.preemptions
        # Footprints and pending ops of every *live* thread, not just the
        # enabled ones: race detection must see the next transition of a
        # thread blocked on a lock (its acquire races with the earlier
        # acquire that blocked it — the deadlock-producing reversal).
        pending = _live_pending(engine)
        cond_locks = engine.program.conditions
        footprints = {
            name: op_footprint(op, name, cond_locks)
            for name, op in pending.items()
        }
        awake = (
            [name for name in ordered if name not in self._sleep]
            if self.track_sleep
            else ordered
        )
        snapshot = None
        if self.pipeline is not None and len(awake) > 1:
            # Only nodes with two awake threads can ever branch.
            snapshot = self.pipeline.snapshot()
        node = _Node(ordered, footprints, pending, self._sleep, snapshot, paid)
        self.path.append(node)
        if not awake:
            self.pruned = True
            raise _AllAsleep("all enabled threads are asleep")
        if self.cache is not None:
            fingerprint: Any = (
                self._fingerprint(),
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
        self._fresh_preemptions += _preemption_cost(last, choice, ordered)
        node.chosen = choice
        node.done.add(choice)
        node.backtrack.add(choice)
        self.choices.append(choice)
        return choice


class DPORExplorer(_Search):
    """Stateless exploration with dynamic partial-order reduction.

    Composes with the accelerators of the plain explorer:
    ``memoize=True`` (memo-aborted runs are handled as truncated runs)
    and ``preemption_bound`` (bounded POR with conservative backtrack
    points at context-switch boundaries).  See the module docstring for
    the composed semantics.  It shares the plain explorer's search loop
    (:meth:`attempts`), run, tally and close-out, and keeps only its
    node policy: the path and its backtrack sets.  Race-directed
    ``targets`` also bias which backtrack candidate is taken first, and
    DPOR's coverage is independent of visit order.  An attached pipeline
    sees only the representative schedules DPOR actually runs.
    """

    kind = "dpor"
    #: Race telemetry of the most recent exploration.
    races_detected = 0
    backtrack_points = 0

    # -- the node policy ------------------------------------------------------

    def _first_seed(self) -> _Seed:
        """Reset the race telemetry and the path; seed the root run."""
        self.races_detected = 0
        self.backtrack_points = 0
        # Search state of the running exploration: the current execution
        # path, and the trace of the latest run — every node of the path
        # was executed by it, so the next branch's prefix events are its
        # own.
        self._path: List[_Node] = []
        self._latest: Optional[Trace] = None
        return [], frozenset(), None

    def _attempt(
        self, seed: _Seed
    ) -> Tuple[Optional[RunResult], _DPORScheduler]:
        """Run one seed and fold it into the path: give the nodes the run
        appended their causal pasts, sweep them for races, and withdraw
        reduction credit below a truncated run."""
        prefix, sleep, snapshot = seed
        base = len(prefix)
        path = self._path
        scheduler = _DPORScheduler(self, sleep)
        run, engine = self._run(scheduler, prefix, snapshot, self._latest)
        self._latest = engine.trace
        if run is None:
            # A memo-aborted or pruned run stops at the node it appended
            # last, without a step there: that node can never branch, but
            # its pending operations still join race detection.
            tail = path.pop()
        else:
            # A finished run may still have transitions pending.
            tail = _terminal_node(engine)
        for depth in range(base, len(path)):
            path[depth].past = _causal_past(path, depth)
        self._detect_races(path, base, tail)
        if run is None:
            # A memo-aborted run is truncated: the subtree below the
            # revisited state was explored from its first visit, but this
            # prefix's own unexecuted tail could hide races — withdraw
            # reduction credit exactly as for a crash.
            truncated = not scheduler.pruned
        else:
            truncated = run.status in (RunStatus.CRASH, RunStatus.ABORTED)
        if truncated:
            self._handle_truncated(path, base)
            self._truncation_races(path)
        return run, scheduler

    # -- internals ----------------------------------------------------------

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
                        thread_past = path[previous].past | {previous}
                    footprint = node.footprints[thread]
                    pending = node.pending[thread]
                    for i in range(depth - 1, -1, -1):
                        if i in thread_past:
                            continue  # ordered before the pending op
                        if not ops_dependent(steps[i][1], footprint):
                            continue
                        earlier = steps[i][0]
                        if not _may_be_coenabled(
                            earlier, path[i].pending[earlier], thread, pending
                        ):
                            continue
                        self.races_detected += 1
                        self._add_backtrack(path, thread, i, depth, footprint)
                        break  # only the most recent such step (FG)
            if depth < len(path):
                last[steps[depth][0]] = depth

    def _add_backtrack(
        self,
        path: List[_Node],
        thread: str,
        i: int,
        depth: int,
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
            (node.chosen, node.footprints[node.chosen])
            for node in path[i + 1:depth]
            if i not in node.past
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
        self._plant(path, i, initials, thread)

    def _plant(
        self,
        path: List[_Node],
        i: int,
        initials: Set[str],
        thread: str,
    ) -> None:
        """Apply the addition decision for a race at node ``i``."""
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
        previous = path[i - 1].chosen if i > 0 else None
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
        self._plant_boundaries(path, i, initials, thread)

    def _plant_boundaries(
        self,
        path: List[_Node],
        i: int,
        initials: Set[str],
        thread: str,
    ) -> None:
        """Plant conservative bounded-mode points at boundaries ≤ ``i``.

        A boundary is a node where the executed thread changed (plus the
        root).  Candidates are the racing thread and the witness
        initials; feasibility-filtered like every bounded addition.
        """
        for j in range(i, -1, -1):
            previous = path[j - 1].chosen if j > 0 else None
            if previous == path[j].chosen:
                continue
            self._plant_boundary(path[j], previous, initials, thread)

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

    def _handle_truncated(self, path: List[_Node], base: int) -> None:
        """Withdraw reduction credit below a truncated run.

        A crash, the step budget, or a memo abort leaves the run's tail
        unexecuted, so independence-based commuting arguments do not
        apply: every fresh node re-branches over its full awake set and
        subsequent branches there start with an empty sleep set —
        mirroring the sleep-set explorer, which pushes the siblings of
        truncated runs with empty sleep sets.
        """
        for node in path[base:]:
            node.truncated = True
            node.backtrack.update(
                name for name in node.enabled if name not in node.sleep
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
        thread = path[last].chosen
        past = path[last].past
        for i in range(last - 1, -1, -1):
            if i in past or path[i].chosen == thread:
                continue
            self.races_detected += 1
            self._add_backtrack(path, thread, i, last, None)
            break

    def _next_seed(self) -> Optional[_Seed]:
        """Deepest node with an unexplored awake (and feasible) thread.

        Truncates the path there, marks the branch done, and returns the
        (prefix, initial sleep, pipeline snapshot) of the next run.
        ``None`` means the whole reduced tree is explored.  Under a bound,
        infeasible candidates are dropped from the backtrack sets on the
        way: they can never be selected, and leaving them would let them
        falsely cover later reversals.
        """
        path = self._path
        bound = self.preemption_bound
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            candidates = node.backtrack - node.done - set(node.sleep)
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
                    for name in (node.sleep | node.done)
                    if name != choice
                    and name in node.footprints
                    and not ops_dependent(
                        node.footprints[name], chosen_footprint
                    )
                )
            node.done.add(choice)
            node.chosen = choice
            del path[depth + 1:]
            # The branch takes a new step here, so its past changes;
            # every node above keeps its own.
            node.past = _causal_past(path, depth)
            prefix = [n.chosen for n in path]
            return prefix, new_sleep, node.snapshot
        return None

    def _publish_search_counters(self) -> None:
        labels = {"program": self.program.name}
        obs_metrics.inc(
            "explorer.pruned_runs", self.pruned_runs,
            explorer=self.kind, **labels,
        )
        obs_metrics.inc("dpor.races_detected", self.races_detected, **labels)
        obs_metrics.inc(
            "dpor.backtrack_points", self.backtrack_points, **labels
        )
        obs_metrics.inc("dpor.pruned_runs", self.pruned_runs, **labels)
