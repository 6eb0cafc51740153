"""Pluggable memory models for simulated programs.

All shared state lives in a single :class:`MemoryModel` keyed by variable
name.  Variables must be declared up front (with their initial values) in
the :class:`~repro.sim.program.Program`; touching an undeclared variable is
a :class:`~repro.errors.ProgramError`.  Declaring variables explicitly keeps
kernels honest about *which* shared locations participate in a bug — the
study's "how many variables are involved" dimension (Findings 4-6) is
measured against exactly this set.

Two models are provided:

* :class:`SCMemory` — sequential consistency, the default everywhere.  A
  write becomes globally visible the moment it executes; this is exactly
  the historical ``SharedMemory`` behaviour (which remains as an alias).
* :class:`TSOMemory` — total store order, the x86 memory model.  Each
  thread's writes enter a private FIFO *store buffer*; the writing thread
  forwards its own newest buffered value on read, but other threads keep
  seeing the old global value until the entry *flushes*.  Flushes are
  explicit scheduler transitions: the engine exposes one pseudo-thread
  per non-empty buffer (named :data:`FLUSH_PREFIX` + owner) whose single
  step drains the oldest entry.  That makes store-visibility reorderings
  first-class schedule choices — explorable, replayable, and reducible
  like any other interleaving — instead of hidden hardware behaviour.

A ``Fence`` (and every operation with an implicit fence: all sync
operations, atomic updates, spawn/join, and channel sends/receives) is
simply *disabled* while the issuing thread's buffer is non-empty, so the
only way forward is to schedule the flush steps first.  Draining is
therefore always visible in the schedule and in DPOR's dependence
relation.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ProgramError

__all__ = [
    "FLUSH_PREFIX",
    "MemoryModel",
    "SCMemory",
    "SharedMemory",
    "TSOMemory",
    "flush_label",
    "make_memory_model",
    "MEMORY_MODELS",
]

#: Prefix of the engine's flush pseudo-thread names: scheduling
#: ``FLUSH_PREFIX + owner`` drains the oldest entry of ``owner``'s store
#: buffer.  Real thread names may not start with this character
#: (:class:`~repro.sim.program.Program` rejects them).
FLUSH_PREFIX = "~"

#: The registered model names, as spelled by ``Program(memory=...)`` and
#: the CLI ``--memory`` flag.
MEMORY_MODELS = ("sc", "tso")

#: Exact value types whose deep copy is the value itself.
_ATOMS = frozenset((int, float, bool, str, bytes, type(None)))


def _deepcopy_map(values: Mapping[str, Any]) -> Dict[str, Any]:
    """``copy.deepcopy(dict(values))`` without copying atomic values.

    Most programs hold only ints and strings, and deep-copying those is
    pure overhead on every run.  One memo spans all values, so aliasing
    between variables comes out exactly as from a whole-map deep copy.
    """
    memo: Dict[int, Any] = {}
    return {
        name: value if type(value) in _ATOMS else copy.deepcopy(value, memo)
        for name, value in values.items()
    }


def flush_label(label: Optional[str]) -> Optional[str]:
    """The derived site label of the flush step of a labelled write.

    A buffered store's eventual flush executes as its own scheduler
    transition; naming it ``FLUSH_PREFIX + label`` lets manifestation
    orders (:mod:`repro.manifest.enforce`) and directed exploration pin
    store-*visibility* points the way plain labels pin operation sites.
    Unlabelled writes flush unlabelled.
    """
    return FLUSH_PREFIX + label if label is not None else None


class MemoryModel:
    """A declared set of named shared variables under one consistency model.

    Values may be any Python object; they are deep-copied at construction
    so a program's ``initial`` mapping is never aliased by a run.  The
    ``thread`` argument on the access methods identifies the issuing
    thread; models with per-thread state (store buffers) use it, SC
    ignores it.  ``thread=None`` always means "the globally visible
    value" — that is what fingerprints and terminal-state oracles read.
    """

    #: The registry spelling of this model (``"sc"`` / ``"tso"``).
    model = "sc"

    def __init__(self, initial: Mapping[str, Any]):
        self._values: Dict[str, Any] = {
            name: value if type(value) in _ATOMS else copy.deepcopy(value)
            for name, value in initial.items()
        }

    # -- accesses ----------------------------------------------------------

    def read(self, var: str, thread: Optional[str] = None) -> Any:
        """Return the value of ``var`` as seen by ``thread``."""
        self._check(var)
        return self._values[var]

    def write(
        self,
        var: str,
        value: Any,
        thread: Optional[str] = None,
        label: Optional[str] = None,
    ) -> Any:
        """Set ``var`` to ``value``; returns the overwritten value.

        ``label`` is the originating operation's site label; models that
        buffer stores keep it so the eventual flush step can be addressed
        by label (as :data:`FLUSH_PREFIX` + label) in manifestation
        orders and directed exploration.  SC applies writes immediately,
        so it ignores it.
        """
        self._check(var)
        old = self._values[var]
        self._values[var] = value
        return old

    def update(self, var: str, fn, thread: Optional[str] = None) -> tuple:
        """Atomically replace ``var`` with ``fn(current)``.

        Returns ``(old, new)``.  Used by the ``AtomicUpdate`` operation;
        atomics act on the *global* value, which is why the engine fences
        them (their issuing thread's buffer must be empty first).
        """
        self._check(var)
        old = self._values[var]
        new = fn(old)
        self._values[var] = new
        return old, new

    # -- global views ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A deep copy of the full variable map (for run results/oracles).

        Models with buffered stores apply them first (deterministically:
        owners in sorted order, each buffer FIFO), so a crash-terminated
        run still yields one well-defined terminal state.
        """
        return _deepcopy_map(self._values)

    def variables(self) -> Iterable[str]:
        """The declared variable names."""
        return self._values.keys()

    def __contains__(self, var: str) -> bool:
        return var in self._values

    # -- store-buffer protocol ---------------------------------------------
    #
    # SC has no buffers; these defaults let every caller (engine
    # enabledness, fingerprints, DPOR) treat both models uniformly.

    def buffers(self) -> Dict[str, Tuple[Tuple[str, Any, Optional[str]], ...]]:
        """Owner -> FIFO tuple of buffered ``(var, value, label)`` entries."""
        return {}

    def has_buffered(self, thread: Optional[str] = None) -> bool:
        """Whether any (or ``thread``'s) store buffer is non-empty."""
        return False

    def flushable(self) -> Tuple[str, ...]:
        """Owners with non-empty buffers, sorted (each is one flush step)."""
        return ()

    def peek(self, owner: str) -> Tuple[str, Any, Optional[str]]:
        """The oldest buffered ``(var, value, label)`` entry of ``owner``."""
        raise ProgramError(f"no buffered store to peek for thread {owner!r}")

    def flush_one(self, owner: str) -> Tuple[str, Any, Any, Optional[str]]:
        """Apply ``owner``'s oldest buffered store to the global state.

        Returns ``(var, value, old_global, label)``.
        """
        raise ProgramError(f"no buffered store to flush for thread {owner!r}")

    # -- helpers -----------------------------------------------------------

    def _check(self, var: str) -> None:
        if var not in self._values:
            raise ProgramError(
                f"access to undeclared shared variable {var!r}; declare it in "
                f"Program(initial={{...}}) — declared: {sorted(self._values)}"
            )


class SCMemory(MemoryModel):
    """Sequential consistency: writes are globally visible immediately.

    This is the base :class:`MemoryModel` behaviour unchanged; the class
    exists so ``Program(memory="sc")`` names it explicitly.
    """

    model = "sc"


#: Backwards-compatible alias: ``SharedMemory`` was the memory layer's
#: only class before the model became pluggable.
SharedMemory = SCMemory


class TSOMemory(MemoryModel):
    """Total store order: per-thread FIFO store buffers with forwarding.

    * ``write`` appends to the issuing thread's buffer — nothing is
      globally visible yet;
    * ``read`` forwards the thread's own *newest* buffered value for the
      variable (x86 store-to-load forwarding), falling back to the
      global value;
    * ``flush_one`` pops the *oldest* buffered entry into the global
      state — the engine schedules these as explicit pseudo-thread steps.

    ``thread=None`` accesses (fingerprints, oracles) bypass buffers and
    see only the global state; buffer contents are separately part of the
    state fingerprint via :meth:`buffers`.
    """

    model = "tso"

    def __init__(self, initial: Mapping[str, Any]):
        super().__init__(initial)
        self._buffers: Dict[str, List[Tuple[str, Any, Optional[str]]]] = {}

    def read(self, var: str, thread: Optional[str] = None) -> Any:
        self._check(var)
        if thread is not None:
            for entry_var, entry_value, _label in reversed(
                self._buffers.get(thread, [])
            ):
                if entry_var == var:
                    return entry_value
        return self._values[var]

    def write(
        self,
        var: str,
        value: Any,
        thread: Optional[str] = None,
        label: Optional[str] = None,
    ) -> Any:
        self._check(var)
        if thread is None:
            return super().write(var, value)
        old = self.read(var, thread)
        self._buffers.setdefault(thread, []).append((var, value, label))
        return old

    def snapshot(self) -> Dict[str, Any]:
        merged = dict(self._values)
        for owner in sorted(self._buffers):
            for var, value, _label in self._buffers[owner]:
                merged[var] = value
        return _deepcopy_map(merged)

    def buffers(self) -> Dict[str, Tuple[Tuple[str, Any, Optional[str]], ...]]:
        return {
            owner: tuple(entries)
            for owner, entries in self._buffers.items()
            if entries
        }

    def has_buffered(self, thread: Optional[str] = None) -> bool:
        if thread is not None:
            return bool(self._buffers.get(thread))
        return any(self._buffers.values())

    def flushable(self) -> Tuple[str, ...]:
        return tuple(sorted(o for o, entries in self._buffers.items() if entries))

    def peek(self, owner: str) -> Tuple[str, Any, Optional[str]]:
        entries = self._buffers.get(owner)
        if not entries:
            return super().peek(owner)
        return entries[0]

    def flush_one(self, owner: str) -> Tuple[str, Any, Any, Optional[str]]:
        entries = self._buffers.get(owner)
        if not entries:
            return super().flush_one(owner)
        var, value, label = entries.pop(0)
        old = self._values[var]
        self._values[var] = value
        return var, value, old, label


#: Model-name -> class, the registry ``Program(memory=...)`` dispatches on.
_MODEL_CLASSES = {"sc": SCMemory, "tso": TSOMemory}


def make_memory_model(model: str, initial: Mapping[str, Any]) -> MemoryModel:
    """Instantiate the memory model registered under ``model``."""
    if model not in _MODEL_CLASSES:
        raise ProgramError(
            f"unknown memory model {model!r}; one of {', '.join(MEMORY_MODELS)}"
        )
    return _MODEL_CLASSES[model](initial)
