"""Deterministic concurrency simulator.

This package is the substrate that stands in for the real multithreaded
C/C++ executions of the ASPLOS'08 study.  It provides:

* an operation DSL for writing small concurrent programs
  (:mod:`repro.sim.ops`),
* virtual threads and a step-by-step engine with full schedule control
  (:mod:`repro.sim.engine`),
* pluggable schedulers, from random stress to PCT
  (:mod:`repro.sim.scheduler`),
* exhaustive bounded interleaving exploration
  (:mod:`repro.sim.explorer`), cut down by the partial-order reductions of :mod:`repro.sim.reduction` (sleep sets)
  and :mod:`repro.sim.dpor` (dynamic POR with source sets) and the
  state-fingerprint memoization of :mod:`repro.sim.statecache`, and
* record/replay of interleavings (:mod:`repro.sim.replay`).
"""

from repro.sim.dpor import DPORExplorer
from repro.sim.engine import Engine, RunResult, RunStatus, run_program
from repro.sim.explorer import (
    REDUCTIONS,
    ExplorationResult,
    Explorer,
    enumerate_outcomes,
    find_schedule,
)
from repro.sim.generate import (
    FuzzReport,
    GeneratorConfig,
    fuzz_explorers,
    generate_program,
)
from repro.sim.memory import (
    MEMORY_MODELS,
    MemoryModel,
    SCMemory,
    TSOMemory,
    make_memory_model,
)
from repro.sim.minimize import MinimalWitness, minimize_preemptions, preemption_count
from repro.sim.reduction import SleepSetExplorer, op_footprint, ops_dependent
from repro.sim.statecache import StateCache, canonical_value, state_fingerprint
from repro.sim.ops import (
    Acquire,
    AcquireRead,
    AcquireWrite,
    AtomicUpdate,
    BarrierWait,
    Fence,
    Join,
    Notify,
    NotifyAll,
    Op,
    Read,
    Recv,
    Release,
    ReleaseRead,
    ReleaseWrite,
    Select,
    SemAcquire,
    SemRelease,
    Send,
    Sleep,
    Spawn,
    TryAcquire,
    Wait,
    Write,
    Yield,
)
from repro.sim.program import Program
from repro.sim.replay import replay, replay_prefix, schedule_from_json, schedule_to_json
from repro.sim.scheduler import (
    CooperativeScheduler,
    FixedScheduler,
    PCTScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.sim.trace import Trace

__all__ = [
    "Engine",
    "RunResult",
    "RunStatus",
    "run_program",
    "Explorer",
    "ExplorationResult",
    "enumerate_outcomes",
    "find_schedule",
    "Program",
    "Trace",
    "replay",
    "replay_prefix",
    "MinimalWitness",
    "minimize_preemptions",
    "preemption_count",
    "SleepSetExplorer",
    "DPORExplorer",
    "REDUCTIONS",
    "StateCache",
    "state_fingerprint",
    "canonical_value",
    "op_footprint",
    "ops_dependent",
    "GeneratorConfig",
    "generate_program",
    "fuzz_explorers",
    "FuzzReport",
    "schedule_to_json",
    "schedule_from_json",
    "Scheduler",
    "RandomScheduler",
    "CooperativeScheduler",
    "RoundRobinScheduler",
    "PCTScheduler",
    "FixedScheduler",
    "Op",
    "Read",
    "Write",
    "AtomicUpdate",
    "Acquire",
    "Release",
    "TryAcquire",
    "AcquireRead",
    "AcquireWrite",
    "ReleaseRead",
    "ReleaseWrite",
    "Wait",
    "Notify",
    "NotifyAll",
    "SemAcquire",
    "SemRelease",
    "BarrierWait",
    "Spawn",
    "Join",
    "Yield",
    "Sleep",
    "Send",
    "Recv",
    "Select",
    "Fence",
    "MEMORY_MODELS",
    "MemoryModel",
    "SCMemory",
    "TSOMemory",
    "make_memory_model",
]
