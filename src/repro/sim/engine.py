"""The simulation engine: executes a program under a scheduling policy.

The engine owns one run's mutable state (memory, sync objects, virtual
threads) and drives the step loop:

1. compute the set of *enabled* threads (those whose pending operation can
   execute right now);
2. let the scheduler pick one (optionally pre-filtered by an
   ``enabled_filter`` hook — this is how access-order enforcement is
   layered on without touching the engine);
3. execute the chosen thread's pending operation, emit trace events, and
   advance its generator.

The run ends when every thread has finished (``OK``), a thread crashes
(``CRASH`` — modelling process death), no thread is enabled while some are
alive (``DEADLOCK`` if the wait-for graph has a cycle, ``HANG`` otherwise),
or the step budget is exhausted (``ABORTED``).

Exploration runs start with a *forced prefix*: the schedule of the
branch being re-executed.  The engine owns it (``prefix=``) and replays
it before the first scheduler decision, checking only that each forced
thread is enabled — that check is the divergence check.  Replayed steps
make no scheduler call and no enabled-set scan.  When the caller also
passes the trace of the run the prefix was cut from (``prefix_events=``),
replayed steps build no events and call no hook either: the trace starts
as that run's first events, which are immutable and identical because
execution is deterministic given the schedule.  The last forced step —
the new branch — always emits normally.

A key property: *one scheduler decision per shared-state operation*.  This
is the granularity at which the ASPLOS'08 study reasons about bugs, and it
is what CPython's real threads cannot give you — the GIL plus opaque OS
scheduling makes the interleavings of interest effectively unreachable,
which is why this substrate exists at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExplorationError, ProgramError, SchedulerError
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.sim import events as ev
from repro.sim import ops
from repro.sim.memory import FLUSH_PREFIX, flush_label
from repro.sim.program import Program
from repro.sim.scheduler import Scheduler
from repro.sim.thread import ThreadState, VirtualThread
from repro.sim.trace import Trace

__all__ = ["RunStatus", "RunResult", "Engine", "run_program"]

#: Operations that may execute while the issuing thread has unflushed
#: buffered stores.  Everything else carries an *implicit fence* under
#: TSO: synchronisation, atomics, spawn/join, and channel operations are
#: disabled until the thread's store buffer drains — which forces the
#: explicit flush pseudo-steps into the schedule first, keeping every
#: visibility transition a first-class scheduling decision.
_UNFENCED_OPS = frozenset((ops.Read, ops.Write, ops.Yield, ops.Sleep))

EnabledFilter = Callable[["Engine", List[str]], List[str]]


class RunStatus(enum.Enum):
    """Terminal status of one simulated run."""

    OK = "ok"
    CRASH = "crash"
    DEADLOCK = "deadlock"
    HANG = "hang"
    ABORTED = "aborted"


@dataclass
class RunResult:
    """Everything observable about one finished run."""

    program: str
    status: RunStatus
    trace: Trace
    memory: Dict[str, Any]
    schedule: List[str]
    steps: int
    crash_reasons: List[str] = field(default_factory=list)
    blocked: Tuple[Tuple[str, str], ...] = ()
    stop_reason: str = ""

    @property
    def ok(self) -> bool:
        """Whether the run completed without any modelled failure."""
        return self.status is RunStatus.OK

    @property
    def failed(self) -> bool:
        """Whether the run crashed, deadlocked, or hung."""
        return self.status in (RunStatus.CRASH, RunStatus.DEADLOCK, RunStatus.HANG)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        extra = ""
        if self.crash_reasons:
            extra = f" ({'; '.join(self.crash_reasons)})"
        elif self.blocked:
            extra = " (" + ", ".join(f"{t} on {w}" for t, w in self.blocked) + ")"
        return f"{self.program}: {self.status.value}{extra} after {self.steps} steps"


class Engine:
    """Executes one run of ``program`` under ``scheduler``.

    ``prefix`` forces the first steps (see the module docstring).  With
    ``prefix_events`` — the trace of the run the prefix was cut from —
    ``event_hook`` sees no event before the last forced step, so the
    caller must only pass it when the hook needs none (a streaming
    pipeline restored from the branch point's snapshot).
    """

    def __init__(
        self,
        program: Program,
        scheduler: Scheduler,
        max_steps: int = 20000,
        enabled_filter: Optional[EnabledFilter] = None,
        event_hook: Optional[Callable[[ev.Event], None]] = None,
        prefix: Sequence[str] = (),
        prefix_events: Optional[Sequence[ev.Event]] = None,
    ):
        self.program = program
        self.scheduler = scheduler
        self.max_steps = max_steps
        self.enabled_filter = enabled_filter
        # Called with each event right after it is appended to the trace;
        # this is how streaming detector pipelines observe a run live.
        self._event_hook = event_hook
        self._prefix = prefix
        # The parent trace while replay counts events instead of
        # building them; None once the run builds its own.
        self._reuse = prefix_events if prefix else None
        self.memory = program.make_memory()
        self.sync = program.make_sync()
        self.threads: Dict[str, VirtualThread] = program.make_threads()
        self.trace = Trace()
        self.schedule: List[str] = []
        self.steps = 0
        #: Preemptions the forced prefix paid: forced switches away from
        #: a thread that was still enabled.  Exploration schedulers
        #: continue their accounting from here.
        self.prefix_preemptions = 0
        self._seq = 0
        self._crashes: List[str] = []
        # Started threads that have not finished or crashed.
        self._live = 0
        # Labels already executed, visible to enabled_filter implementations.
        self.executed_labels: List[str] = []

    # -- public API -------------------------------------------------------

    def run(self) -> RunResult:
        """Drive the program to a terminal state and return the result."""
        self.scheduler.reset()
        # Observability is hoisted out of the step loops: the disabled
        # path pays one None check per run, the enabled path two
        # perf_counter calls around the replay and around each fresh
        # step's op execution.
        profiler = obs_profile.active()
        for name in self.program.start:
            self._start_thread(name)
        if self._prefix:
            if profiler is None:
                self._replay()
            else:
                started = perf_counter()
                self._replay()
                profiler.add(
                    "engine.replay", perf_counter() - started, count=self.steps
                )
        replayed = self.steps
        status = RunStatus.OK
        blocked: Tuple[Tuple[str, str], ...] = ()
        stop_reason = "all threads finished"
        execute_seconds = 0.0
        while True:
            if self._crashes:
                status = RunStatus.CRASH
                stop_reason = "simulated crash terminated the process"
                break
            if not self._live and not self.memory.has_buffered():
                break
            enabled = self._enabled_threads()
            if not enabled:
                blocked = self._blocked_summary()
                status = self._classify_stall()
                stop_reason = "no enabled threads"
                self._emit(ev.DeadlockEvent, thread="<engine>", blocked=blocked)
                break
            if self.steps >= self.max_steps:
                status = RunStatus.ABORTED
                stop_reason = f"step budget of {self.max_steps} exhausted"
                break
            allowed = enabled
            if self.enabled_filter is not None:
                filtered = self.enabled_filter(self, list(enabled))
                if filtered:
                    allowed = filtered
            chosen = self.scheduler.choose(allowed, self.steps)
            if chosen not in allowed:
                raise SchedulerError(
                    f"scheduler chose {chosen!r}, not in enabled set "
                    f"{sorted(allowed)}"
                )
            self.schedule.append(chosen)
            self.steps += 1
            if profiler is None:
                self._execute_choice(chosen)
            else:
                started = perf_counter()
                self._execute_choice(chosen)
                execute_seconds += perf_counter() - started
        if profiler is not None and self.steps > replayed:
            profiler.add(
                "engine.execute", execute_seconds, count=self.steps - replayed
            )
        registry = obs_metrics.active()
        if registry is not None:
            registry.inc(
                "engine.runs", 1,
                program=self.program.name, status=status.value,
            )
            registry.inc("engine.steps", self.steps, program=self.program.name)
            registry.inc(
                "engine.replay_steps", replayed, program=self.program.name
            )
        return RunResult(
            program=self.program.name,
            status=status,
            trace=self.trace,
            memory=self.memory.snapshot(),
            schedule=self.schedule,
            steps=self.steps,
            crash_reasons=list(self._crashes),
            blocked=blocked,
            stop_reason=stop_reason,
        )

    # -- forced prefix ----------------------------------------------------

    def _replay(self) -> None:
        """Execute the forced prefix without consulting the scheduler.

        Before each forced step the crash, termination and budget checks
        run exactly as in the decision loop (which then ends the run).
        The one enabledness test per step is the divergence check on the
        forced thread, plus — only when the thread changes — the same
        test on the thread that ran before it, which is what a
        preemption costs.  An ``enabled_filter`` still sees every step:
        filters may keep state or depend on the path.
        """
        enabled_filter = self.enabled_filter
        last = len(self._prefix) - 1
        previous: Optional[str] = None
        for index, chosen in enumerate(self._prefix):
            if (
                self._crashes
                or (not self._live and not self.memory.has_buffered())
                or self.steps >= self.max_steps
            ):
                break
            if index == last:
                self._end_reuse()  # the new branch emits normally
            if enabled_filter is None:
                if not self._can_run(chosen):
                    raise _divergence(index, chosen, self._enabled_threads())
                preempted = (
                    previous is not None
                    and previous != chosen
                    and self._can_run(previous)
                )
            else:
                allowed = enabled = self._enabled_threads()
                filtered = enabled_filter(self, list(enabled))
                if filtered:
                    allowed = filtered
                if chosen not in allowed:
                    raise _divergence(index, chosen, allowed)
                preempted = (
                    previous is not None
                    and previous != chosen
                    and previous in allowed
                )
            if preempted:
                self.prefix_preemptions += 1
            self.schedule.append(chosen)
            self.steps += 1
            self._execute_choice(chosen)
            previous = chosen
        self._end_reuse()

    def _end_reuse(self) -> None:
        """Adopt the parent trace's first events; emit from here on."""
        if self._reuse is not None:
            self.trace = Trace(self._reuse[: self._seq])
            self._reuse = None

    def _can_run(self, name: str) -> bool:
        """Whether scheduling ``name`` (a thread or flush) is legal now."""
        vt = self.threads.get(name)
        if vt is not None:
            return vt.state is ThreadState.RUNNABLE and self._op_enabled(vt)
        return name.startswith(FLUSH_PREFIX) and self.memory.has_buffered(
            name[len(FLUSH_PREFIX):]
        )

    # -- enabledness ------------------------------------------------------

    def _enabled_threads(self) -> List[str]:
        enabled = [
            vt.name
            for vt in self.threads.values()
            if vt.state is ThreadState.RUNNABLE and self._op_enabled(vt)
        ]
        # One flush pseudo-thread per non-empty store buffer: scheduling
        # it makes the owner's oldest buffered store globally visible.
        for owner in self.memory.flushable():
            enabled.append(FLUSH_PREFIX + owner)
        return enabled

    def _op_enabled(self, vt: VirtualThread) -> bool:
        op = vt.pending
        if op is None:
            raise ProgramError(f"runnable thread {vt.name!r} has no pending op")
        kind = type(op)
        if kind not in _UNFENCED_OPS and self.memory.has_buffered(vt.name):
            # Implicit fence: the op waits for the thread's own buffered
            # stores to flush.  Never a deadlock — a non-empty buffer
            # always has its flush step enabled.
            return False
        guard = self._GUARDS.get(kind)
        return guard is None or guard(self, vt.name, op)

    # Guards of the ops that can block, keyed by exact op type; every
    # other op is enabled whenever its thread is runnable and unfenced.

    def _mutex_free(self, thread: str, op) -> bool:
        return self.sync.mutex(op.lock).can_acquire(thread)

    def _rwlock_readable(self, thread: str, op: ops.AcquireRead) -> bool:
        return self.sync.rwlock(op.rwlock).can_acquire_read(thread)

    def _rwlock_writable(self, thread: str, op: ops.AcquireWrite) -> bool:
        return self.sync.rwlock(op.rwlock).can_acquire_write(thread)

    def _sem_positive(self, thread: str, op: ops.SemAcquire) -> bool:
        return self.sync.semaphore(op.sem).can_acquire(thread)

    def _join_target_done(self, thread: str, op: ops.Join) -> bool:
        return self._target(op.thread).done

    def _chan_has_room(self, thread: str, op: ops.Send) -> bool:
        return self.sync.channel(op.chan).can_send(thread)

    def _chan_has_message(self, thread: str, op: ops.Recv) -> bool:
        return self.sync.channel(op.chan).can_recv(thread)

    def _select_ready(self, thread: str, op: ops.Select) -> bool:
        return any(self.sync.channel(c).can_recv(thread) for c in op.chans)

    _GUARDS = {
        ops.Acquire: _mutex_free,
        ops._ReacquireAfterWait: _mutex_free,
        ops.AcquireRead: _rwlock_readable,
        ops.AcquireWrite: _rwlock_writable,
        ops.SemAcquire: _sem_positive,
        ops.Join: _join_target_done,
        ops.Send: _chan_has_room,
        ops.Recv: _chan_has_message,
        ops.Select: _select_ready,
    }

    def pending_op(self, name: str) -> Optional[ops.Op]:
        """The operation that scheduling ``name`` would execute.

        For a real thread this is its pending op; for a flush
        pseudo-thread (``FLUSH_PREFIX + owner``) a synthesised
        :class:`~repro.sim.ops._FlushStore` naming the owner and the
        variable at the head of its buffer.  This is the one accessor
        reduction/DPOR/directed policies should use — indexing
        ``engine.threads`` directly breaks on flush names.
        """
        if name in self.threads:
            return self.threads[name].pending
        owner = name[len(FLUSH_PREFIX):]
        var, _value, label = self.memory.peek(owner)
        return ops._FlushStore(thread=owner, var=var, label=flush_label(label))

    # -- execution --------------------------------------------------------

    def _execute_choice(self, chosen: str) -> None:
        vt = self.threads.get(chosen)
        if vt is not None:
            self._execute(vt)
        else:
            self._execute_flush(chosen)

    def _execute_flush(self, chosen: str) -> None:
        owner = chosen[len(FLUSH_PREFIX):]
        var, value, old, label = self.memory.flush_one(owner)
        derived = flush_label(label)
        if derived is not None:
            self.executed_labels.append(derived)
        self._emit(
            ev.FlushEvent, thread=owner, label=derived, var=var, value=value,
            old=old,
        )

    def _execute(self, vt: VirtualThread) -> None:
        op = vt.pending
        assert op is not None
        label = op.label
        if label is not None:
            self.executed_labels.append(label)
        self._HANDLERS[type(op)](self, vt, op)

    def _exec_read(self, vt: VirtualThread, op: ops.Read) -> None:
        value = self.memory.read(op.var, vt.name)
        self._emit(ev.ReadEvent, thread=vt.name, label=op.label, var=op.var, value=value)
        self._advance(vt, value)

    def _exec_write(self, vt: VirtualThread, op: ops.Write) -> None:
        old = self.memory.write(op.var, op.value, vt.name, label=op.label)
        self._emit(
            ev.WriteEvent, thread=vt.name, label=op.label, var=op.var,
            value=op.value, old=old,
        )
        self._advance(vt, None)

    def _exec_atomic(self, vt: VirtualThread, op: ops.AtomicUpdate) -> None:
        # Enabledness guarantees the thread's buffer is empty here, so
        # the RMW acts directly on the globally visible value.
        old, new = self.memory.update(op.var, op.fn, vt.name)
        self._emit(
            ev.AtomicUpdateEvent, thread=vt.name, label=op.label, var=op.var,
            value=new, old=old,
        )
        self._advance(vt, new)

    def _exec_acquire(self, vt: VirtualThread, op: ops.Acquire) -> None:
        self.sync.mutex(op.lock).acquire(vt.name)
        self._emit(ev.AcquireEvent, thread=vt.name, label=op.label, lock=op.lock)
        self._advance(vt, None)

    def _exec_release(self, vt: VirtualThread, op: ops.Release) -> None:
        self.sync.mutex(op.lock).release(vt.name)
        self._emit(ev.ReleaseEvent, thread=vt.name, label=op.label, lock=op.lock)
        self._advance(vt, None)

    def _exec_try_acquire(self, vt: VirtualThread, op: ops.TryAcquire) -> None:
        success = self.sync.mutex(op.lock).try_acquire(vt.name)
        self._emit(
            ev.TryAcquireEvent, thread=vt.name, label=op.label, lock=op.lock,
            success=success,
        )
        self._advance(vt, success)

    def _exec_acquire_read(self, vt: VirtualThread, op: ops.AcquireRead) -> None:
        self.sync.rwlock(op.rwlock).acquire_read(vt.name)
        self._emit(ev.RWAcquireEvent, thread=vt.name, label=op.label, rwlock=op.rwlock, mode="r")
        self._advance(vt, None)

    def _exec_acquire_write(self, vt: VirtualThread, op: ops.AcquireWrite) -> None:
        self.sync.rwlock(op.rwlock).acquire_write(vt.name)
        self._emit(ev.RWAcquireEvent, thread=vt.name, label=op.label, rwlock=op.rwlock, mode="w")
        self._advance(vt, None)

    def _exec_release_read(self, vt: VirtualThread, op: ops.ReleaseRead) -> None:
        self.sync.rwlock(op.rwlock).release_read(vt.name)
        self._emit(ev.RWReleaseEvent, thread=vt.name, label=op.label, rwlock=op.rwlock, mode="r")
        self._advance(vt, None)

    def _exec_release_write(self, vt: VirtualThread, op: ops.ReleaseWrite) -> None:
        self.sync.rwlock(op.rwlock).release_write(vt.name)
        self._emit(ev.RWReleaseEvent, thread=vt.name, label=op.label, rwlock=op.rwlock, mode="w")
        self._advance(vt, None)

    def _exec_wait(self, vt: VirtualThread, op: ops.Wait) -> None:
        cond = self.sync.condition(op.cond)
        mutex = self.sync.mutex(cond.lock)
        if mutex.owner != vt.name:
            raise ProgramError(
                f"thread {vt.name!r} waits on {op.cond!r} without holding "
                f"its lock {cond.lock!r}"
            )
        mutex.release(vt.name)
        cond.park(vt.name)
        self._emit(
            ev.WaitParkEvent, thread=vt.name, label=op.label, cond=op.cond,
            lock=cond.lock,
        )
        vt.park(f"cond:{op.cond}")

    def _exec_notify(self, vt: VirtualThread, op: ops.Notify) -> None:
        self._do_notify(vt, op.cond, op.label, all_waiters=False)

    def _exec_notify_all(self, vt: VirtualThread, op: ops.NotifyAll) -> None:
        self._do_notify(vt, op.cond, op.label, all_waiters=True)

    def _do_notify(self, vt: VirtualThread, cond_name: str, label, all_waiters: bool) -> None:
        cond = self.sync.condition(cond_name)
        woken = cond.notify_all() if all_waiters else cond.notify_one()
        for name in woken:
            self.threads[name].unpark(
                ops._ReacquireAfterWait(cond=cond_name, lock=cond.lock)
            )
        self._emit(
            ev.NotifyEvent, thread=vt.name, label=label, cond=cond_name,
            woken=tuple(woken), all=all_waiters,
        )
        self._advance(vt, None)

    def _exec_reacquire(self, vt: VirtualThread, op: ops._ReacquireAfterWait) -> None:
        self.sync.mutex(op.lock).acquire(vt.name)
        self._emit(
            ev.WaitResumeEvent, thread=vt.name, label=op.label, cond=op.cond,
            lock=op.lock,
        )
        self._advance(vt, None)

    def _exec_sem_acquire(self, vt: VirtualThread, op: ops.SemAcquire) -> None:
        value = self.sync.semaphore(op.sem).acquire(vt.name)
        self._emit(ev.SemAcquireEvent, thread=vt.name, label=op.label, sem=op.sem, value=value)
        self._advance(vt, None)

    def _exec_sem_release(self, vt: VirtualThread, op: ops.SemRelease) -> None:
        value = self.sync.semaphore(op.sem).release(vt.name)
        self._emit(ev.SemReleaseEvent, thread=vt.name, label=op.label, sem=op.sem, value=value)
        self._advance(vt, None)

    def _exec_barrier(self, vt: VirtualThread, op: ops.BarrierWait) -> None:
        barrier = self.sync.barrier(op.barrier)
        if barrier.can_pass(vt.name):
            released = barrier.trip()
            party = tuple(released) + (vt.name,)
            self._emit(
                ev.BarrierEvent, thread=vt.name, label=op.label,
                barrier=op.barrier, released=party,
            )
            for name in released:
                waiter = self.threads[name]
                waiter.state = ThreadState.RUNNABLE
                waiter.park_reason = None
                self._advance(waiter, None)
            self._advance(vt, None)
        else:
            barrier.arrive(vt.name)
            self._emit(
                ev.BarrierEvent, thread=vt.name, label=op.label,
                barrier=op.barrier, released=(),
            )
            vt.park(f"barrier:{op.barrier}")

    def _exec_spawn(self, vt: VirtualThread, op: ops.Spawn) -> None:
        target = self._target(op.thread)
        if target.state is not ThreadState.NEW:
            raise ProgramError(
                f"thread {vt.name!r} spawned {op.thread!r} which is already "
                f"{target.state.value}"
            )
        self._emit(ev.SpawnEvent, thread=vt.name, label=op.label, target=op.thread)
        self._start_thread(op.thread)
        self._advance(vt, None)

    def _exec_join(self, vt: VirtualThread, op: ops.Join) -> None:
        self._emit(ev.JoinEvent, thread=vt.name, label=op.label, target=op.thread)
        self._advance(vt, None)

    def _exec_yield(self, vt: VirtualThread, op: ops.Yield) -> None:
        self._emit(ev.YieldEvent, thread=vt.name, label=op.label)
        self._advance(vt, None)

    def _exec_sleep(self, vt: VirtualThread, op: ops.Sleep) -> None:
        if vt.sleep_remaining == 0:
            vt.sleep_remaining = max(1, op.ticks)
        vt.sleep_remaining -= 1
        self._emit(ev.YieldEvent, thread=vt.name, label=op.label)
        if vt.sleep_remaining == 0:
            self._advance(vt, None)

    def _exec_send(self, vt: VirtualThread, op: ops.Send) -> None:
        depth = self.sync.channel(op.chan).send(vt.name, op.value)
        self._emit(
            ev.SendEvent, thread=vt.name, label=op.label, chan=op.chan,
            value=op.value, depth=depth,
        )
        self._advance(vt, None)

    def _exec_recv(self, vt: VirtualThread, op: ops.Recv) -> None:
        value = self.sync.channel(op.chan).recv(vt.name)
        self._emit(
            ev.RecvEvent, thread=vt.name, label=op.label, chan=op.chan,
            value=value,
        )
        self._advance(vt, value)

    def _exec_select(self, vt: VirtualThread, op: ops.Select) -> None:
        for chan in op.chans:
            channel = self.sync.channel(chan)
            if channel.can_recv(vt.name):
                value = channel.recv(vt.name)
                self._emit(
                    ev.SelectEvent, thread=vt.name, label=op.label, chan=chan,
                    value=value, chans=tuple(op.chans),
                )
                self._advance(vt, (chan, value))
                return
        raise ProgramError(
            f"engine bug: select on all-empty channels {op.chans!r} was "
            f"scheduled"
        )

    def _exec_fence(self, vt: VirtualThread, op: ops.Fence) -> None:
        # Enabledness guarantees the buffer already drained.
        self._emit(ev.FenceEvent, thread=vt.name, label=op.label)
        self._advance(vt, None)

    _HANDLERS = {
        ops.Read: _exec_read,
        ops.Write: _exec_write,
        ops.AtomicUpdate: _exec_atomic,
        ops.Acquire: _exec_acquire,
        ops.Release: _exec_release,
        ops.TryAcquire: _exec_try_acquire,
        ops.AcquireRead: _exec_acquire_read,
        ops.AcquireWrite: _exec_acquire_write,
        ops.ReleaseRead: _exec_release_read,
        ops.ReleaseWrite: _exec_release_write,
        ops.Wait: _exec_wait,
        ops.Notify: _exec_notify,
        ops.NotifyAll: _exec_notify_all,
        ops._ReacquireAfterWait: _exec_reacquire,
        ops.SemAcquire: _exec_sem_acquire,
        ops.SemRelease: _exec_sem_release,
        ops.BarrierWait: _exec_barrier,
        ops.Spawn: _exec_spawn,
        ops.Join: _exec_join,
        ops.Yield: _exec_yield,
        ops.Sleep: _exec_sleep,
        ops.Send: _exec_send,
        ops.Recv: _exec_recv,
        ops.Select: _exec_select,
        ops.Fence: _exec_fence,
    }

    # -- thread lifecycle ---------------------------------------------------

    def _start_thread(self, name: str) -> None:
        vt = self._target(name)
        vt.start()
        self._live += 1
        self._emit(ev.ThreadStartEvent, thread=name)
        self._note_termination(vt)

    def _advance(self, vt: VirtualThread, result: Any) -> None:
        vt.advance(result)
        if vt.state is not ThreadState.RUNNABLE:
            self._note_termination(vt)

    def _note_termination(self, vt: VirtualThread) -> None:
        if vt.state is ThreadState.FINISHED:
            self._live -= 1
            self._emit(ev.ThreadFinishEvent, thread=vt.name)
        elif vt.state is ThreadState.CRASHED:
            self._live -= 1
            reason = vt.crash_reason or "crash"
            self._emit(ev.ThreadCrashEvent, thread=vt.name, reason=reason)
            self._crashes.append(f"{vt.name}: {reason}")

    def _target(self, name: str) -> VirtualThread:
        if name not in self.threads:
            raise ProgramError(
                f"reference to undeclared thread {name!r}; declared: "
                f"{sorted(self.threads)}"
            )
        return self.threads[name]

    # -- stall analysis -------------------------------------------------------

    def _blocked_summary(self) -> Tuple[Tuple[str, str], ...]:
        out = []
        for vt in self.threads.values():
            if vt.state is ThreadState.PARKED:
                out.append((vt.name, vt.park_reason or "parked"))
            elif vt.state is ThreadState.RUNNABLE:
                out.append((vt.name, self._wait_description(vt)))
        return tuple(out)

    def _wait_description(self, vt: VirtualThread) -> str:
        op = vt.pending
        if isinstance(op, (ops.Acquire, ops._ReacquireAfterWait)):
            lock = op.lock
            owner = self.sync.mutex(lock).owner
            return f"lock:{lock}(held by {owner})"
        if isinstance(op, (ops.AcquireRead, ops.AcquireWrite)):
            return f"rwlock:{op.rwlock}"
        if isinstance(op, ops.SemAcquire):
            return f"sem:{op.sem}"
        if isinstance(op, ops.Join):
            return f"join:{op.thread}"
        if isinstance(op, ops.Send):
            return f"chan:{op.chan}(full)"
        if isinstance(op, ops.Recv):
            return f"chan:{op.chan}(empty)"
        if isinstance(op, ops.Select):
            return f"chan:{'|'.join(op.chans)}(all empty)"
        return f"op:{op.describe() if op else '?'}"

    def _classify_stall(self) -> RunStatus:
        """DEADLOCK when the thread wait-for graph has a cycle, else HANG."""
        edges: Dict[str, List[str]] = {}
        for vt in self.threads.values():
            if vt.state is not ThreadState.RUNNABLE:
                continue
            op = vt.pending
            holders: List[str] = []
            if isinstance(op, (ops.Acquire, ops._ReacquireAfterWait)):
                owner = self.sync.mutex(op.lock).owner
                if owner is not None:
                    holders = [owner]
            elif isinstance(op, ops.AcquireRead):
                rw = self.sync.rwlock(op.rwlock)
                holders = [rw.writer] if rw.writer else []
            elif isinstance(op, ops.AcquireWrite):
                rw = self.sync.rwlock(op.rwlock)
                # An upgrader's own read hold does not block it; only the
                # *other* readers are wait-for edges.
                holders = ([rw.writer] if rw.writer else []) + sorted(
                    r for r in rw.readers if r != vt.name
                )
            elif isinstance(op, ops.Join):
                target = self._target(op.thread)
                if target.alive:
                    holders = [op.thread]
            if holders:
                edges[vt.name] = holders
        return RunStatus.DEADLOCK if _has_cycle(edges) else RunStatus.HANG

    # -- event emission ---------------------------------------------------------

    def _emit(self, klass, thread: str, label: Optional[str] = None, **payload) -> None:
        if self._reuse is not None:
            # Replaying with the parent trace: its event at this position
            # is the one this step would build; adopted by _end_reuse.
            self._seq += 1
            return
        event = klass(seq=self._seq, thread=thread, label=label, **payload)
        self._seq += 1
        self.trace.append(event)
        if self._event_hook is not None:
            self._event_hook(event)


def _divergence(step: int, chosen: str, enabled: Sequence[str]) -> ExplorationError:
    """The error for a forced thread that is not enabled at its step."""
    return ExplorationError(
        f"exploration prefix diverged at step {step}: {chosen!r} not enabled "
        f"in {sorted(enabled)} — the program is non-deterministic beyond "
        f"scheduling"
    )


def _has_cycle(edges: Dict[str, List[str]]) -> bool:
    """Cycle detection over a small adjacency map (self-loops count)."""
    visiting: set = set()
    done: set = set()

    def visit(node: str) -> bool:
        if node in done:
            return False
        if node in visiting:
            return True
        visiting.add(node)
        for nxt in edges.get(node, ()):
            if visit(nxt):
                return True
        visiting.discard(node)
        done.add(node)
        return False

    return any(visit(n) for n in list(edges))


def run_program(
    program: Program,
    scheduler: Scheduler,
    max_steps: int = 20000,
    enabled_filter: Optional[EnabledFilter] = None,
) -> RunResult:
    """Convenience wrapper: build an :class:`Engine` and run it once."""
    return Engine(
        program, scheduler, max_steps=max_steps, enabled_filter=enabled_filter
    ).run()
