"""Simulated synchronisation primitives.

These are *engine-side* state machines, not real OS primitives: blocking is
modelled by reporting an operation as not-enabled, and the engine simply
never schedules a thread whose pending operation is disabled.  Each class
answers two questions — "can thread T perform this op right now?" and
"apply the op for T" — which keeps the scheduling policy entirely outside
the primitive.

Mutexes track their owner so the engine can detect self-deadlock (the
single-resource deadlocks of the study — roughly a quarter of the 31
deadlock bugs involve only one resource, i.e. re-acquiring a held,
non-recursive lock) and report meaningful wait-for edges.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ProgramError

__all__ = [
    "Mutex", "RWLock", "Semaphore", "Condition", "Barrier", "Channel",
    "SyncObjects",
]


class Mutex:
    """A non-recursive mutual-exclusion lock with owner tracking."""

    def __init__(self, name: str):
        self.name = name
        self.owner: Optional[str] = None

    def can_acquire(self, thread: str) -> bool:
        """A free mutex can be taken by anyone; a held one by nobody.

        Note a thread attempting to re-acquire a mutex it already owns is
        *not* enabled — it waits on itself, which the engine reports as a
        single-resource deadlock.
        """
        return self.owner is None

    def acquire(self, thread: str) -> None:
        """Take the mutex (engine guarantees it is free)."""
        if self.owner is not None:
            raise ProgramError(
                f"engine bug: acquire of held mutex {self.name!r} was scheduled"
            )
        self.owner = thread

    def try_acquire(self, thread: str) -> bool:
        """Non-blocking acquire; returns success."""
        if self.owner is None:
            self.owner = thread
            return True
        return False

    def release(self, thread: str) -> None:
        """Release the mutex (must be held by ``thread``)."""
        if self.owner != thread:
            raise ProgramError(
                f"thread {thread!r} released mutex {self.name!r} owned by "
                f"{self.owner!r}"
            )
        self.owner = None


class RWLock:
    """A reader-writer lock: many readers or one writer.

    Supports *in-place upgrade*: a thread that is the **sole** reader may
    take the write mode while keeping its read hold (it then holds both
    and may release them in either order).  Two readers requesting the
    upgrade simultaneously each wait for the other's read hold to drain —
    the classic upgrade deadlock, modelled by
    :func:`repro.kernels.rwlock.deadlock_rwlock_upgrade`.
    """

    def __init__(self, name: str):
        self.name = name
        self.readers: Set[str] = set()
        self.writer: Optional[str] = None

    def can_acquire_read(self, thread: str) -> bool:
        """Readers are admitted whenever no writer holds the lock."""
        return self.writer is None

    def can_acquire_write(self, thread: str) -> bool:
        """Writers need no writer and no readers besides (possibly) themselves."""
        return self.writer is None and self.readers <= {thread}

    def acquire_read(self, thread: str) -> None:
        """Add ``thread`` to the reader set (must be admissible)."""
        if self.writer is not None:
            raise ProgramError(
                f"engine bug: read-acquire of write-held rwlock {self.name!r}"
            )
        self.readers.add(thread)

    def acquire_write(self, thread: str) -> None:
        """Take the exclusive mode (possibly an in-place upgrade)."""
        if self.writer is not None or not self.readers <= {thread}:
            raise ProgramError(
                f"engine bug: write-acquire of busy rwlock {self.name!r}"
            )
        self.writer = thread

    def release_read(self, thread: str) -> None:
        """Drop ``thread``'s shared hold."""
        if thread not in self.readers:
            raise ProgramError(
                f"thread {thread!r} read-released rwlock {self.name!r} it "
                f"does not hold"
            )
        self.readers.discard(thread)

    def release_write(self, thread: str) -> None:
        """Drop the exclusive hold (must be the writer)."""
        if self.writer != thread:
            raise ProgramError(
                f"thread {thread!r} write-released rwlock {self.name!r} held "
                f"by {self.writer!r}"
            )
        self.writer = None


class Semaphore:
    """A counting semaphore."""

    def __init__(self, name: str, value: int):
        if value < 0:
            raise ProgramError(f"semaphore {name!r} initialised below zero")
        self.name = name
        self.value = value

    def can_acquire(self, thread: str) -> bool:
        """A semaphore admits acquirers while its value is positive."""
        return self.value > 0

    def acquire(self, thread: str) -> int:
        """Decrement; returns the new value."""
        if self.value <= 0:
            raise ProgramError(
                f"engine bug: acquire of drained semaphore {self.name!r}"
            )
        self.value -= 1
        return self.value

    def release(self, thread: str) -> int:
        """Increment; returns the new value."""
        self.value += 1
        return self.value


class Condition:
    """A condition variable bound to a mutex.

    ``waiters`` holds parked threads in FIFO order.  Notification moves a
    waiter into the engine's re-acquire set; a notify with no waiters is
    lost, exactly like pthread_cond_signal.
    """

    def __init__(self, name: str, lock: str):
        self.name = name
        self.lock = lock
        self.waiters: List[str] = []

    def park(self, thread: str) -> None:
        """Queue ``thread`` as a waiter (FIFO)."""
        self.waiters.append(thread)

    def notify_one(self) -> List[str]:
        """Release the oldest waiter; returns the (0- or 1-element) list."""
        if not self.waiters:
            return []
        return [self.waiters.pop(0)]

    def notify_all(self) -> List[str]:
        """Release every waiter."""
        woken, self.waiters = self.waiters, []
        return woken


class Barrier:
    """A cyclic barrier for a fixed party size."""

    def __init__(self, name: str, parties: int):
        if parties < 1:
            raise ProgramError(f"barrier {name!r} needs parties >= 1")
        self.name = name
        self.parties = parties
        self.arrived: List[str] = []

    def can_pass(self, thread: str) -> bool:
        """The arrival that completes the party may pass (releasing all)."""
        return len(self.arrived) + 1 >= self.parties

    def arrive(self, thread: str) -> None:
        """Record a (non-final) arrival at the barrier."""
        self.arrived.append(thread)

    def trip(self) -> List[str]:
        """Reset for reuse and return the full released party."""
        released, self.arrived = self.arrived, []
        return released


class Channel:
    """A FIFO message channel (a mailbox, in actor terms).

    ``capacity=None`` means unbounded: sends never block.  A bounded
    channel disables senders while full.  Receives are disabled while the
    channel is empty; a message once received is gone, so two receivers
    racing on one channel model exactly the lost-message bugs of the
    actor studies.
    """

    def __init__(self, name: str, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ProgramError(f"channel {name!r} needs capacity >= 1 (or None)")
        self.name = name
        self.capacity = capacity
        self.queue: List[Any] = []

    def can_send(self, thread: str) -> bool:
        """Senders are admitted while the channel is below capacity."""
        return self.capacity is None or len(self.queue) < self.capacity

    def send(self, thread: str, value: Any) -> int:
        """Append ``value``; returns the new queue depth."""
        if not self.can_send(thread):
            raise ProgramError(
                f"engine bug: send to full channel {self.name!r} was scheduled"
            )
        self.queue.append(value)
        return len(self.queue)

    def can_recv(self, thread: str) -> bool:
        """Receivers are admitted while the channel holds a message."""
        return bool(self.queue)

    def recv(self, thread: str) -> Any:
        """Pop and return the oldest message."""
        if not self.queue:
            raise ProgramError(
                f"engine bug: recv from empty channel {self.name!r} was scheduled"
            )
        return self.queue.pop(0)

    def snapshot(self) -> Tuple[Any, ...]:
        """The queued messages, oldest first (for fingerprints)."""
        return tuple(self.queue)


class SyncObjects:
    """The declared synchronisation objects of one program run."""

    def __init__(
        self,
        locks: List[str],
        rwlocks: List[str],
        semaphores: Dict[str, int],
        conditions: Dict[str, str],
        barriers: Dict[str, int],
        channels: Optional[Dict[str, Optional[int]]] = None,
    ):
        self._build(locks, rwlocks, semaphores, conditions, barriers, channels)
        for name, lock in conditions.items():
            if lock not in self.mutexes:
                raise ProgramError(
                    f"condition {name!r} bound to undeclared lock {lock!r}"
                )
        self._check_disjoint()

    @classmethod
    def prevalidated(
        cls,
        locks: List[str],
        rwlocks: List[str],
        semaphores: Dict[str, int],
        conditions: Dict[str, str],
        barriers: Dict[str, int],
        channels: Optional[Dict[str, Optional[int]]] = None,
    ) -> "SyncObjects":
        """Fresh objects for declarations that already passed the checks.

        :class:`~repro.sim.program.Program` validates its declarations
        once, at construction; each run then builds its objects here
        without repeating the cross-declaration checks.
        """
        sync = cls.__new__(cls)
        sync._build(locks, rwlocks, semaphores, conditions, barriers, channels)
        return sync

    def _build(self, locks, rwlocks, semaphores, conditions, barriers, channels) -> None:
        self.mutexes: Dict[str, Mutex] = {n: Mutex(n) for n in locks}
        self.rwlocks: Dict[str, RWLock] = {n: RWLock(n) for n in rwlocks}
        self.semaphores: Dict[str, Semaphore] = {
            n: Semaphore(n, v) for n, v in semaphores.items()
        }
        self.conditions: Dict[str, Condition] = {
            name: Condition(name, lock) for name, lock in conditions.items()
        }
        self.barriers: Dict[str, Barrier] = {
            n: Barrier(n, p) for n, p in barriers.items()
        }
        self.channels: Dict[str, Channel] = {
            n: Channel(n, c) for n, c in (channels or {}).items()
        }

    def mutex(self, name: str) -> Mutex:
        """The declared mutex called ``name``."""
        return self._get(self.mutexes, name, "lock")

    def rwlock(self, name: str) -> RWLock:
        """The declared reader-writer lock called ``name``."""
        return self._get(self.rwlocks, name, "rwlock")

    def semaphore(self, name: str) -> Semaphore:
        """The declared semaphore called ``name``."""
        return self._get(self.semaphores, name, "semaphore")

    def condition(self, name: str) -> Condition:
        """The declared condition variable called ``name``."""
        return self._get(self.conditions, name, "condition")

    def barrier(self, name: str) -> Barrier:
        """The declared barrier called ``name``."""
        return self._get(self.barriers, name, "barrier")

    def channel(self, name: str) -> Channel:
        """The declared channel called ``name``."""
        return self._get(self.channels, name, "channel")

    def held_by(self, thread: str) -> List[str]:
        """Names of all mutexes and rwlocks currently held by ``thread``."""
        held = [m.name for m in self.mutexes.values() if m.owner == thread]
        held += [
            rw.name
            for rw in self.rwlocks.values()
            if rw.writer == thread or thread in rw.readers
        ]
        return held

    @staticmethod
    def _get(table, name, kind):
        if name not in table:
            raise ProgramError(
                f"reference to undeclared {kind} {name!r}; declared: "
                f"{sorted(table)}"
            )
        return table[name]

    def _check_disjoint(self) -> None:
        groups = [
            self.mutexes, self.rwlocks, self.semaphores, self.conditions,
            self.barriers, self.channels,
        ]
        seen: Set[str] = set()
        for group in groups:
            for name in group:
                if name in seen:
                    raise ProgramError(
                        f"sync object name {name!r} declared more than once"
                    )
                seen.add(name)
