"""Execution traces: the complete record of one interleaving.

A :class:`Trace` is an append-only sequence of
:class:`~repro.sim.events.Event` objects plus query helpers that detectors
and analyses use constantly (per-variable access streams, per-thread
streams, critical-section extents, the schedule itself for replay).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sim import events as ev

__all__ = ["Trace"]


class Trace:
    """An ordered list of events from a single simulated run."""

    def __init__(self, events: Sequence[ev.Event] = ()) -> None:
        """Start empty, or as a copy of the leading events of a trace.

        A prefix of a well-sequenced trace is well-sequenced, so only its
        last ``seq`` is checked; :meth:`append` checks every later event.
        """
        self._events: List[ev.Event] = list(events)
        if self._events and self._events[-1].seq != len(self._events) - 1:
            raise ValueError(
                f"initial events end at seq {self._events[-1].seq}, not "
                f"{len(self._events) - 1}"
            )

    # -- construction -----------------------------------------------------

    def append(self, event: ev.Event) -> None:
        """Append ``event``; its ``seq`` must equal the current length."""
        if event.seq != len(self._events):
            raise ValueError(
                f"event seq {event.seq} does not match trace length "
                f"{len(self._events)}"
            )
        self._events.append(event)

    # -- basic container protocol -----------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ev.Event]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    # -- queries ------------------------------------------------------------

    def events(self) -> Sequence[ev.Event]:
        """The full event sequence as an immutable snapshot.

        Returns a tuple so callers cannot mutate the trace through the
        view (appends after the call are likewise not reflected).
        """
        return tuple(self._events)

    def memory_accesses(self, var: Optional[str] = None) -> List[ev.Event]:
        """All read/write/atomic events, optionally restricted to ``var``."""
        out = []
        for e in self._events:
            if not e.is_memory_access:
                continue
            if var is not None and getattr(e, "var", None) != var:
                continue
            out.append(e)
        return out

    def variables_touched(self) -> List[str]:
        """Distinct shared variables accessed, in first-touch order."""
        seen: Dict[str, None] = {}
        for e in self.memory_accesses():
            seen.setdefault(e.var, None)  # type: ignore[attr-defined]
        return list(seen)

    def threads(self) -> List[str]:
        """Distinct thread names appearing in the trace, in first-event order."""
        seen: Dict[str, None] = {}
        for e in self._events:
            seen.setdefault(e.thread, None)
        return list(seen)

    def by_thread(self, thread: str) -> List[ev.Event]:
        """Events executed by ``thread``, in order."""
        return [e for e in self._events if e.thread == thread]

    def schedule(self) -> List[str]:
        """The sequence of thread choices — enough to replay this run."""
        return [e.thread for e in self._events if self._is_step(e)]

    def labelled(self, label: str) -> List[ev.Event]:
        """Events carrying the static label ``label``."""
        return [e for e in self._events if e.label == label]

    def crashes(self) -> List[ev.ThreadCrashEvent]:
        """All modelled thread crashes."""
        return [e for e in self._events if isinstance(e, ev.ThreadCrashEvent)]

    def deadlock(self) -> Optional[ev.DeadlockEvent]:
        """The terminal deadlock/hang event, if the run stalled."""
        for e in reversed(self._events):
            if isinstance(e, ev.DeadlockEvent):
                return e
        return None

    def lock_events(self, lock: Optional[str] = None) -> List[ev.Event]:
        """Acquire/release events, optionally for one mutex."""
        out = []
        for e in self._events:
            if isinstance(e, (ev.AcquireEvent, ev.ReleaseEvent)):
                if lock is None or e.lock == lock:
                    out.append(e)
        return out

    def critical_sections(self) -> List[Tuple[str, str, int, int]]:
        """Extents of completed critical sections.

        Returns ``(thread, lock, acquire_seq, release_seq)`` tuples; sections
        still open at trace end are omitted.
        """
        open_sections: Dict[Tuple[str, str], int] = {}
        out: List[Tuple[str, str, int, int]] = []
        for e in self._events:
            if isinstance(e, ev.AcquireEvent):
                open_sections[(e.thread, e.lock)] = e.seq
            elif isinstance(e, ev.TryAcquireEvent) and e.success:
                open_sections[(e.thread, e.lock)] = e.seq
            elif isinstance(e, ev.WaitResumeEvent):
                open_sections[(e.thread, e.lock)] = e.seq
            elif isinstance(e, ev.ReleaseEvent):
                start = open_sections.pop((e.thread, e.lock), None)
                if start is not None:
                    out.append((e.thread, e.lock, start, e.seq))
            elif isinstance(e, ev.WaitParkEvent):
                start = open_sections.pop((e.thread, e.lock), None)
                if start is not None:
                    out.append((e.thread, e.lock, start, e.seq))
        return out

    # -- rendering / serialisation ------------------------------------------

    def format(self, limit: Optional[int] = None) -> str:
        """Multi-line human-readable rendering (for reports and debugging)."""
        lines = []
        shown = self._events if limit is None else self._events[:limit]
        for e in shown:
            lines.append(f"{e.seq:5d}  {e.thread:<12s} {e.describe()}")
        if limit is not None and len(self._events) > limit:
            lines.append(f"... ({len(self._events) - limit} more events)")
        return "\n".join(lines)

    def format_columns(self, width: int = 28) -> str:
        """Swimlane rendering: one column per thread, time flowing down.

        The classic way concurrency bug reports draw interleavings; used
        by :mod:`repro.reporting` for small witnesses.
        """
        threads = self.threads()
        if not threads:
            return "(empty trace)"
        header = "  ".join(t.ljust(width)[:width] for t in threads)
        rule = "  ".join("-" * width for _ in threads)
        lines = [header, rule]
        for event in self._events:
            if event.thread not in threads:
                continue
            column = threads.index(event.thread)
            text = event.describe()[:width]
            cells = ["".ljust(width)] * len(threads)
            cells[column] = text.ljust(width)[:width]
            lines.append("  ".join(cells).rstrip())
        return "\n".join(lines)

    def to_dicts(self) -> List[dict]:
        """Serialise to plain dicts (JSON-friendly for primitive payloads)."""
        out = []
        for e in self._events:
            d = {"type": type(e).__name__}
            d.update(
                {
                    k: v
                    for k, v in vars(e).items()
                    if not k.startswith("_")
                }
            )
            out.append(d)
        return out

    @classmethod
    def from_dicts(cls, dicts: Sequence[dict]) -> "Trace":
        """Inverse of :meth:`to_dicts`."""
        trace = cls()
        table = {
            name: getattr(ev, name)
            for name in ev.__all__
            if isinstance(getattr(ev, name), type)
        }
        for d in dicts:
            payload = dict(d)
            type_name = payload.pop("type")
            if type_name not in table:
                raise ValueError(f"unknown event type {type_name!r}")
            # Tuples become lists through JSON; restore the declared types.
            klass = table[type_name]
            for key in ("woken", "released", "blocked"):
                if key in payload and isinstance(payload[key], list):
                    value = payload[key]
                    if key == "blocked":
                        payload[key] = tuple(tuple(item) for item in value)
                    else:
                        payload[key] = tuple(value)
            trace.append(klass(**payload))
        return trace

    @staticmethod
    def _is_step(e: ev.Event) -> bool:
        """Whether this event corresponds to one scheduler decision."""
        return not isinstance(
            e, (ev.ThreadStartEvent, ev.ThreadFinishEvent, ev.ThreadCrashEvent, ev.DeadlockEvent)
        )
