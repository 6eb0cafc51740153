"""Program definition: shared state, sync objects, and thread bodies.

A :class:`Program` is a *static* description — it owns no mutable run
state, so the same program can be executed under thousands of schedules
(random testing, exhaustive exploration) without interference.  Each run
instantiates fresh memory, sync objects, and thread generators.

Example::

    from repro.sim import Program, Read, Write, Acquire, Release

    def increment():
        yield Acquire("L")
        v = yield Read("counter")
        yield Write("counter", v + 1)
        yield Release("L")

    prog = Program(
        name="two-increments",
        initial={"counter": 0},
        locks=["L"],
        threads={"T1": increment, "T2": increment},
    )
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.errors import ProgramError
from repro.sim.memory import (
    FLUSH_PREFIX,
    MEMORY_MODELS,
    MemoryModel,
    make_memory_model,
)
from repro.sim.sync import SyncObjects
from repro.sim.thread import Body, VirtualThread

__all__ = ["Program"]


class Program:
    """A complete, immutable description of a concurrent test program.

    :param name: identifier used in reports.
    :param initial: declared shared variables and their initial values.
    :param threads: thread name -> body (zero-argument generator function).
    :param locks: declared mutex names.
    :param rwlocks: declared reader-writer lock names.
    :param semaphores: semaphore name -> initial value.
    :param conditions: condition name -> associated mutex name.
    :param barriers: barrier name -> party size.
    :param channels: channel name -> capacity (``None`` = unbounded).
    :param start: names of the threads started at time zero; the rest must
        be started via ``Spawn``.  Defaults to all threads.
    :param memory: memory model the program runs under: ``"sc"``
        (sequential consistency, the default) or ``"tso"`` (per-thread
        store buffers with explicit flush steps; see
        :mod:`repro.sim.memory`).
    """

    def __init__(
        self,
        name: str,
        threads: Mapping[str, Body],
        initial: Optional[Mapping[str, Any]] = None,
        locks: Iterable[str] = (),
        rwlocks: Iterable[str] = (),
        semaphores: Optional[Mapping[str, int]] = None,
        conditions: Optional[Mapping[str, str]] = None,
        barriers: Optional[Mapping[str, int]] = None,
        channels: Optional[Mapping[str, Optional[int]]] = None,
        start: Optional[Iterable[str]] = None,
        memory: str = "sc",
    ):
        if not threads:
            raise ProgramError(f"program {name!r} declares no threads")
        self.name = name
        self.initial: Dict[str, Any] = dict(initial or {})
        self.threads: Dict[str, Body] = dict(threads)
        self.locks: List[str] = list(locks)
        self.rwlocks: List[str] = list(rwlocks)
        self.semaphores: Dict[str, int] = dict(semaphores or {})
        self.conditions: Dict[str, str] = dict(conditions or {})
        self.barriers: Dict[str, int] = dict(barriers or {})
        self.channels: Dict[str, Optional[int]] = dict(channels or {})
        self.start: List[str] = list(start) if start is not None else list(self.threads)
        self.memory = memory
        self._validate()

    # -- run-state factories -------------------------------------------------

    def make_memory(self) -> MemoryModel:
        """Fresh shared memory for one run, under the declared model."""
        return make_memory_model(self.memory, self.initial)

    def make_sync(self) -> SyncObjects:
        """Fresh synchronisation objects for one run.

        The declarations were validated at construction, so the per-run
        build skips the checks.
        """
        return SyncObjects.prevalidated(
            self.locks, self.rwlocks, self.semaphores, self.conditions,
            self.barriers, self.channels,
        )

    def make_threads(self) -> Dict[str, VirtualThread]:
        """Fresh virtual threads for one run (not yet started)."""
        return {name: VirtualThread(name, body) for name, body in self.threads.items()}

    # -- convenience -----------------------------------------------------------

    def thread_names(self) -> List[str]:
        """All declared thread names, in declaration order."""
        return list(self.threads)

    def with_threads(self, threads: Mapping[str, Body], name: Optional[str] = None) -> "Program":
        """A copy of this program with a different thread set.

        Used by fix machinery to swap a buggy body for a patched one while
        keeping declarations identical.
        """
        return Program(
            name=name or self.name,
            threads=threads,
            initial=self.initial,
            locks=self.locks,
            rwlocks=self.rwlocks,
            semaphores=self.semaphores,
            conditions=self.conditions,
            barriers=self.barriers,
            channels=self.channels,
            start=[t for t in self.start if t in threads],
            memory=self.memory,
        )

    def with_memory(self, model: str, name: Optional[str] = None) -> "Program":
        """A copy of this program under a different memory model.

        The CLI ``--memory`` flag and the service's ``memory`` job option
        use this to re-run a kernel under SC or TSO without touching its
        declarations or bodies.
        """
        if model == self.memory and name is None:
            return self
        return Program(
            name=name or self.name,
            threads=self.threads,
            initial=self.initial,
            locks=self.locks,
            rwlocks=self.rwlocks,
            semaphores=self.semaphores,
            conditions=self.conditions,
            barriers=self.barriers,
            channels=self.channels,
            start=self.start,
            memory=model,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Program {self.name!r} threads={list(self.threads)}>"

    # -- validation --------------------------------------------------------------

    def _validate(self) -> None:
        if self.memory not in MEMORY_MODELS:
            raise ProgramError(
                f"program {self.name!r}: unknown memory model {self.memory!r}; "
                f"one of {', '.join(MEMORY_MODELS)}"
            )
        for t in self.threads:
            if t.startswith(FLUSH_PREFIX):
                raise ProgramError(
                    f"program {self.name!r}: thread name {t!r} collides with "
                    f"the {FLUSH_PREFIX!r} store-buffer flush prefix"
                )
        for t in self.start:
            if t not in self.threads:
                raise ProgramError(
                    f"program {self.name!r}: start thread {t!r} is not declared"
                )
        for body_name, body in self.threads.items():
            if not callable(body):
                raise ProgramError(
                    f"program {self.name!r}: body of thread {body_name!r} is "
                    f"not callable"
                )
        # Sync-object name validation happens in SyncObjects; run it once now
        # so malformed programs fail at construction, not first run.
        SyncObjects(
            self.locks, self.rwlocks, self.semaphores, self.conditions,
            self.barriers, self.channels,
        )
