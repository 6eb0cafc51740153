"""Canonical state fingerprinting and outcome memoization for exploration.

Stateless exploration re-executes the program for every schedule, so the
same *simulator state* — memory contents, sync-object state, and every
thread's continuation — is reached again and again along different
interleavings of independent operations.  The subtree of schedules below
a state depends only on that state, so once one node with a given state
has been expanded, every later node with an identical state explores a
subtree whose terminal outcomes are already guaranteed to be enumerated.
:class:`StateCache` records fingerprints of expanded states; the
explorers abort a run the moment it reaches a cached state
(:class:`MemoHit`), skipping the redundant subtree.

What a fingerprint must capture is exactly "everything that determines
future behaviour":

* shared memory values (canonicalised, value-based — identity is useless
  because every run rebuilds all objects from scratch);
* mutex owners, rwlock reader sets and writers, semaphore counts,
  condition-variable wait queues **in FIFO order** (``notify_one`` wakes
  the head), and barrier arrival lists;
* per-thread lifecycle state, the pending operation **including its
  payload** (an ``AtomicUpdate`` is fingerprinted down to its closure
  cells, so two in-flight atomic blocks with different captured values
  never collide), sleep ticks, park reasons, and the generator
  continuation (bytecode offset + canonicalised locals);
* the step count, so ``max_steps`` truncation behaves identically.

Soundness contract: memoized exploration preserves the *reachable
terminal outcome set* (status + final memory) and therefore any verdict
derived from terminal states — but not schedule counts, match counts, or
rates, because pruned paths are simply never run.  Predicates that
inspect the *path* (``run.schedule``, ``run.trace``) are unsound under
memoization; see ``docs/simulator.md``.

Canonicalisation is value-based and best-effort: primitives and
containers recurse structurally, functions canonicalise to code location
plus closure/default values, anything else falls back to ``pickle`` and
finally ``repr``.  A ``repr`` containing an object address degrades to a
cache *miss* (safe, just ineffective); a custom ``repr`` that hides
behavioural state could in principle cause a false hit — the same
caveat every value-equality cache carries.

Two layers of stability, two entry points:

* :func:`state_fingerprint` keys the **in-process** memoization cache.
  Its fingerprints are deterministic within one interpreter (no ``id()``
  or hash-seed dependence — containers are sorted by value, never
  iterated in hash order), but an address-bearing ``repr`` fallback is
  deliberately kept distinct per object so unknown values degrade to
  misses, never false hits.
* :func:`program_fingerprint` keys the **persistent, cross-process**
  service result cache (:mod:`repro.service.resultcache`).  It is
  content-addressed — thread bodies canonicalise to their bytecode,
  constants, names, closure values and defaults, never to a code
  *location* — so the same program text produces the same digest in
  every interpreter run regardless of ``PYTHONHASHSEED``, and editing a
  thread body (not merely re-running or moving it) changes the digest.
  ``stable=True`` canonicalisation additionally scrubs memory addresses
  out of ``repr`` fallbacks so exotic leaf values cannot leak per-run
  identity into a persisted key.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import pickle
import re
import types
from typing import Any, Optional, Tuple

from repro.obs import metrics as obs_metrics

__all__ = [
    "MemoHit",
    "StateCache",
    "canonical_value",
    "fingerprint_digest",
    "program_fingerprint",
    "state_fingerprint",
]

_ATOMS = (int, float, complex, bool, str, bytes, type(None))

#: CPython's default ``object.__repr__`` embeds the instance address;
#: ``stable=True`` canonicalisation masks it so cross-run keys never
#: depend on where the allocator happened to place an object.
_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]+")


class MemoHit(Exception):
    """Internal control flow: the run reached an already-expanded state."""


def canonical_value(
    value: Any, _seen: Optional[set] = None, stable: bool = False
) -> Any:
    """A hashable, identity-free representation of ``value``.

    Equal values canonicalise equally across independent re-executions;
    unequal values are kept distinct wherever the structure allows.

    ``stable=True`` trades the safe-miss property of address-bearing
    ``repr`` fallbacks for cross-interpreter reproducibility (addresses
    are scrubbed, so two state-free instances of a class canonicalise
    equally).  In-process memoization uses the default; only persisted
    keys (:func:`program_fingerprint`) opt in.
    """
    if isinstance(value, _ATOMS):
        return value
    if isinstance(value, enum.Enum):
        return ("enum", type(value).__qualname__, value.name)
    if _seen is None:
        _seen = set()
    oid = id(value)
    if oid in _seen:
        return ("<cycle>",)
    _seen.add(oid)
    try:
        if isinstance(value, (list, tuple)):
            return (
                type(value).__name__,
                tuple(canonical_value(v, _seen, stable) for v in value),
            )
        if isinstance(value, (set, frozenset)):
            items = sorted(
                (canonical_value(v, _seen, stable) for v in value), key=repr
            )
            return ("set", tuple(items))
        if isinstance(value, dict):
            items = sorted(
                (
                    (canonical_value(k, _seen, stable),
                     canonical_value(v, _seen, stable))
                    for k, v in value.items()
                ),
                key=repr,
            )
            return ("dict", tuple(items))
        if isinstance(value, types.FunctionType):
            if stable:
                return _canonical_body(value, _seen)
            return _canonical_function(value, _seen)
        if isinstance(value, types.GeneratorType):
            frame = value.gi_frame
            if frame is None:
                return ("gen", value.__qualname__, "done")
            return (
                "gen",
                value.__qualname__,
                frame.f_lasti,
                canonical_value(dict(frame.f_locals), _seen, stable),
            )
        try:
            return ("pickle", pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            text = repr(value)
            if stable:
                text = _ADDRESS_RE.sub("0x", text)
            return ("repr", type(value).__qualname__, text)
    finally:
        _seen.discard(oid)


def _canonical_function(fn: types.FunctionType, _seen: set) -> Tuple:
    """Code location + captured values: distinguishes closures, merges runs."""
    code = fn.__code__
    cells = []
    for cell in fn.__closure__ or ():
        try:
            cells.append(canonical_value(cell.cell_contents, _seen))
        except ValueError:  # empty cell
            cells.append(("<empty-cell>",))
    defaults = (
        canonical_value(fn.__defaults__, _seen) if fn.__defaults__ else None
    )
    return (
        "fn",
        fn.__qualname__,
        code.co_filename,
        code.co_firstlineno,
        defaults,
        tuple(cells),
    )


def _canonical_code(code: types.CodeType, _seen: set) -> Tuple:
    """Content of a code object: bytecode, consts, names — no locations.

    File paths and line numbers are exactly what must *not* key a
    persistent cache (a checkout at a different path, or an unrelated
    edit above the function, would spuriously invalidate everything;
    an in-place edit of the body would spuriously *hit*).  Nested code
    objects (inner ``def``/``lambda``) recurse.
    """
    consts = tuple(
        _canonical_code(const, _seen)
        if isinstance(const, types.CodeType)
        else canonical_value(const, _seen, stable=True)
        for const in code.co_consts
    )
    return (
        "code",
        code.co_name,
        code.co_argcount,
        code.co_kwonlyargcount,
        code.co_flags,
        code.co_code,
        consts,
        code.co_names,
        code.co_varnames,
        code.co_freevars,
        code.co_cellvars,
    )


def _canonical_body(fn: types.FunctionType, _seen: set) -> Tuple:
    """Content-addressed function canonicalisation for persisted keys."""
    cells = []
    for cell in fn.__closure__ or ():
        try:
            cells.append(canonical_value(cell.cell_contents, _seen, stable=True))
        except ValueError:  # empty cell
            cells.append(("<empty-cell>",))
    defaults = (
        canonical_value(fn.__defaults__, _seen, stable=True)
        if fn.__defaults__ else None
    )
    return (
        "body",
        fn.__qualname__,
        _canonical_code(fn.__code__, _seen),
        defaults,
        tuple(cells),
    )


def fingerprint_digest(fingerprint: Any) -> str:
    """SHA-256 hex digest of a canonical fingerprint.

    Canonical fingerprints are nested tuples of atoms whose ``repr`` is
    deterministic, so the digest is a stable, storage-friendly key.
    """
    return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()


#: Version tag baked into every program digest: bump it when the
#: canonicalisation scheme changes so persisted caches invalidate
#: wholesale instead of serving keys computed under the old scheme.
_PROGRAM_FINGERPRINT_SCHEMA = "repro.program-fingerprint/v2"


def program_fingerprint(program: Any) -> str:
    """Stable, content-addressed digest of a :class:`~repro.sim.program.Program`.

    Equal across interpreter runs and ``PYTHONHASHSEED`` values for the
    same program *content* (declarations + thread-body bytecode and
    captured values); different whenever anything that could change an
    exploration verdict changes — a thread body edit, an initial value,
    a sync-object declaration, the start set.  This is the key the
    persistent service result cache dedupes on
    (``docs/service.md`` documents the invalidation semantics).
    """
    seen: set = set()
    canonical = (
        _PROGRAM_FINGERPRINT_SCHEMA,
        program.name,
        tuple(sorted(
            (name, canonical_value(value, seen, stable=True))
            for name, value in program.initial.items()
        )),
        tuple(sorted(program.locks)),
        tuple(sorted(program.rwlocks)),
        tuple(sorted(program.semaphores.items())),
        tuple(sorted(program.conditions.items())),
        tuple(sorted(program.barriers.items())),
        tuple(sorted(getattr(program, "channels", {}).items())),
        getattr(program, "memory", "sc"),
        tuple(program.start),
        tuple(sorted(
            (name, _canonical_body(body, seen))
            for name, body in program.threads.items()
        )),
    )
    return fingerprint_digest(canonical)


def _canonical_op(op: Any) -> Any:
    """Pending-operation fingerprint including payloads (fn, value, ...)."""
    if op is None:
        return None
    return (type(op).__name__,) + tuple(
        (f.name, canonical_value(getattr(op, f.name)))
        for f in dataclasses.fields(op)
    )


def _continuation(vt: Any) -> Any:
    """Where a thread's generator is suspended: bytecode offset + locals."""
    frame = vt.frame
    if frame is None:
        return None
    locs = tuple(
        sorted(
            ((name, canonical_value(value)) for name, value in frame.f_locals.items()),
            key=lambda item: item[0],
        )
    )
    return (frame.f_lasti, locs)


def state_fingerprint(engine: Any) -> Tuple:
    """Canonical fingerprint of an engine's full pre-decision state.

    Two engines with equal fingerprints behave identically under every
    future schedule (up to the canonicalisation caveats above).
    """
    memory = engine.memory
    sync = engine.sync
    # Globally visible values only (``thread=None``); a TSO thread's
    # forwarded view is implied by the buffers component below.
    mem = tuple(
        (var, canonical_value(memory.read(var)))
        for var in sorted(memory.variables())
    )
    buffers = tuple(
        (
            owner,
            tuple(
                (var, canonical_value(value)) for var, value, _label in entries
            ),
        )
        for owner, entries in sorted(memory.buffers().items())
    )
    mutexes = tuple(
        (name, mutex.owner) for name, mutex in sorted(sync.mutexes.items())
    )
    rwlocks = tuple(
        (name, rw.writer, tuple(sorted(rw.readers)))
        for name, rw in sorted(sync.rwlocks.items())
    )
    semaphores = tuple(
        (name, sem.value) for name, sem in sorted(sync.semaphores.items())
    )
    conditions = tuple(
        (name, tuple(cond.waiters))
        for name, cond in sorted(sync.conditions.items())
    )
    barriers = tuple(
        (name, tuple(barrier.arrived))
        for name, barrier in sorted(sync.barriers.items())
    )
    channels = tuple(
        (name, tuple(canonical_value(value) for value in chan.queue))
        for name, chan in sorted(sync.channels.items())
    )
    threads = tuple(
        (
            name,
            vt.state.value,
            _canonical_op(vt.pending),
            vt.sleep_remaining,
            vt.park_reason,
            _continuation(vt),
        )
        for name, vt in sorted(engine.threads.items())
    )
    return (
        mem,
        buffers,
        mutexes,
        rwlocks,
        semaphores,
        conditions,
        barriers,
        channels,
        threads,
        engine.steps,
    )


class StateCache:
    """The set of already-expanded state fingerprints, with hit counters."""

    __slots__ = ("_seen", "hits", "lookups")

    def __init__(self) -> None:
        self._seen: set = set()
        self.hits = 0
        self.lookups = 0

    def seen(self, fingerprint: Any) -> bool:
        """Check-and-mark: ``True`` iff the fingerprint was already cached."""
        self.lookups += 1
        if fingerprint in self._seen:
            self.hits += 1
            return True
        self._seen.add(fingerprint)
        return False

    def __len__(self) -> int:
        return len(self._seen)

    def export_state(self) -> Tuple[set, int, int]:
        """Snapshot for a frontier checkpoint: ``(seen, hits, lookups)``.

        :meth:`repro.sim.frontier.ExplorationFrontier.restore_cache`
        rebuilds an equivalent cache from it.
        """
        return (set(self._seen), self.hits, self.lookups)

    def hit_rate(self) -> float:
        """Fraction of lookups that hit the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line rendering for benchmarks and reports."""
        return (
            f"{len(self._seen)} states cached, {self.hits}/{self.lookups} "
            f"lookups hit ({self.hit_rate():.1%})"
        )

    def record_metrics(self, **labels: object) -> None:
        """Publish this cache's totals to :mod:`repro.obs.metrics`.

        Called once per exploration (not per lookup — ``seen`` is the
        hot path); a no-op while metrics are disabled.  Worker-process
        caches never reach the parent registry: their *effects* travel
        back inside ``ExplorationResult.cache_lookups``/``cache_states``
        instead (see ``docs/observability.md``).
        """
        registry = obs_metrics.active()
        if registry is None:
            return
        registry.inc("statecache.lookups", self.lookups, **labels)
        registry.inc("statecache.hits", self.hits, **labels)
        registry.set_gauge("statecache.size", len(self._seen), **labels)
