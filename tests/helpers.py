"""Shared program builders used across the test suite.

Each helper returns a fresh :class:`~repro.sim.Program`; they are the
canonical micro-programs the simulator/detector tests exercise.

The module also hosts the *generated-program corpus*: a restricted
grammar of straight-line threads (reads / read-increment-writes over a
two-variable alphabet, optionally lock-wrapped, optionally crashing)
plus hypothesis strategies over it.  Every corpus program terminates and
is exhaustively explorable, which is what the differential tests
(plain DFS vs sleep sets vs DPOR vs memoization) need.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.errors import SimCrash
from repro.sim import (
    Acquire,
    AcquireRead,
    AcquireWrite,
    BarrierWait,
    Join,
    Notify,
    Program,
    Read,
    Release,
    ReleaseRead,
    ReleaseWrite,
    SemAcquire,
    SemRelease,
    Spawn,
    Wait,
    Write,
    Yield,
)


def racy_counter(threads: int = 2) -> Program:
    """N unlocked read-increment-write threads on one counter."""

    def increment():
        value = yield Read("counter")
        yield Write("counter", value + 1)

    return Program(
        "racy-counter",
        threads={f"T{i}": increment for i in range(1, threads + 1)},
        initial={"counter": 0},
    )


def locked_counter(threads: int = 2) -> Program:
    """N properly locked increment threads on one counter."""

    def increment():
        yield Acquire("L")
        value = yield Read("counter")
        yield Write("counter", value + 1)
        yield Release("L")

    return Program(
        "locked-counter",
        threads={f"T{i}": increment for i in range(1, threads + 1)},
        initial={"counter": 0},
        locks=["L"],
    )


def abba_deadlock() -> Program:
    """The classic two-lock circular-wait deadlock."""

    def forward():
        yield Acquire("A")
        yield Acquire("B")
        yield Release("B")
        yield Release("A")

    def backward():
        yield Acquire("B")
        yield Acquire("A")
        yield Release("A")
        yield Release("B")

    return Program(
        "abba-deadlock",
        threads={"T1": forward, "T2": backward},
        locks=["A", "B"],
    )


def self_deadlock() -> Program:
    """Re-acquiring a held non-recursive mutex: the 1-resource deadlock."""

    def body():
        yield Acquire("L")
        yield Acquire("L")
        yield Release("L")

    return Program("self-deadlock", threads={"T1": body}, locks=["L"])


def null_deref_race() -> Program:
    """Use-before-init order violation: crash if reader runs first."""

    def reader():
        pointer = yield Read("ptr")
        if pointer is None:
            raise SimCrash("null pointer dereference")
        yield Write("out", pointer)

    def initialiser():
        yield Write("ptr", "object")

    return Program(
        "null-deref",
        threads={"Reader": reader, "Init": initialiser},
        initial={"ptr": None, "out": None},
    )


def lost_wakeup() -> Program:
    """Check-then-wait without holding the lock across the check: hangable."""

    def waiter():
        done = yield Read("done")
        if not done:
            yield Acquire("L")
            yield Wait("cv")
            yield Release("L")

    def signaller():
        yield Write("done", True)
        yield Acquire("L")
        yield Notify("cv")
        yield Release("L")

    return Program(
        "lost-wakeup",
        threads={"Waiter": waiter, "Signaller": signaller},
        initial={"done": False},
        locks=["L"],
        conditions={"cv": "L"},
    )


def semaphore_pingpong() -> Program:
    """Two threads strictly alternating via two semaphores."""

    def ping():
        for _ in range(2):
            yield SemAcquire("sa")
            count = yield Read("turns")
            yield Write("turns", count + 1)
            yield SemRelease("sb")

    def pong():
        for _ in range(2):
            yield SemAcquire("sb")
            count = yield Read("turns")
            yield Write("turns", count + 1)
            yield SemRelease("sa")

    return Program(
        "sem-pingpong",
        threads={"Ping": ping, "Pong": pong},
        initial={"turns": 0},
        semaphores={"sa": 1, "sb": 0},
    )


def spawn_join_chain() -> Program:
    """Main spawns a worker, joins it, then reads its result."""

    def main():
        yield Spawn("Worker")
        yield Join("Worker")
        result = yield Read("result")
        yield Write("observed", result)

    def worker():
        yield Write("result", 42)

    return Program(
        "spawn-join",
        threads={"Main": main, "Worker": worker},
        initial={"result": None, "observed": None},
        start=["Main"],
    )


def barrier_pair() -> Program:
    """Two threads meeting at a barrier, then racing on a counter."""

    def body():
        yield BarrierWait("bar")
        value = yield Read("n")
        yield Write("n", value + 1)

    return Program(
        "barrier-pair",
        threads={"X": body, "Y": body},
        initial={"n": 0},
        barriers={"bar": 2},
    )


def rwlock_readers_writer() -> Program:
    """Two readers and one writer on an rwlock-protected variable."""

    def reader():
        yield AcquireRead("RW")
        value = yield Read("data")
        yield ReleaseRead("RW")
        yield Write("sink", value)

    def writer():
        yield AcquireWrite("RW")
        yield Write("data", 1)
        yield ReleaseWrite("RW")

    return Program(
        "rw-readers-writer",
        threads={"R1": reader, "R2": reader, "W": writer},
        initial={"data": 0, "sink": None},
        rwlocks=["RW"],
    )


def ordered_handoff() -> Program:
    """Correct order enforcement via a semaphore: init always before use."""

    def initialiser():
        yield Write("ptr", "object")
        yield SemRelease("ready")

    def user():
        yield SemAcquire("ready")
        pointer = yield Read("ptr")
        if pointer is None:
            raise SimCrash("null pointer dereference")

    return Program(
        "ordered-handoff",
        threads={"Init": initialiser, "User": user},
        initial={"ptr": None},
        semaphores={"ready": 0},
    )


# -- generated-program corpus -------------------------------------------------
#
# A thread spec is ``(locked, op_list, crashes)``: whether the ops run
# under lock "L", a tuple of ("read" | "write", var) pairs, and whether a
# read of a value >= 3 crashes the thread.  A "write" is a
# read-increment-write (two scheduling points), so unlocked writers race.

CORPUS_VARS = ["x", "y"]
CORPUS_LOCK = "L"


def corpus_body(spec):
    """One thread body from a ``(locked, op_list, crashes)`` spec."""
    locked, op_list, crashes = spec

    def body():
        if locked:
            yield Acquire(CORPUS_LOCK)
        for kind, var in op_list:
            if kind == "read":
                value = yield Read(var)
                if crashes and value and value >= 3:
                    raise SimCrash("generated crash")
            else:
                current = yield Read(var)
                yield Write(var, (current or 0) + 1)
        if locked:
            yield Release(CORPUS_LOCK)

    return body


def corpus_program(specs, name: str = "generated") -> Program:
    """A corpus program with one thread per spec (named T0, T1, ...)."""
    return Program(
        name,
        threads={f"T{i}": corpus_body(spec) for i, spec in enumerate(specs)},
        initial={var: 0 for var in CORPUS_VARS},
        locks=[CORPUS_LOCK],
    )


def corpus_spec_lengths(specs):
    """Scheduling points per thread: reads are 1, writes 2, lock ops 2."""
    return [
        sum(2 if kind == "write" else 1 for kind, _ in op_list)
        + (2 if locked else 0)
        for locked, op_list, _crashes in specs
    ]


@st.composite
def corpus_specs(draw, max_ops: int = 2, crashes: bool = True):
    """Strategy for one thread spec."""
    locked = draw(st.booleans())
    count = draw(st.integers(min_value=1, max_value=max_ops))
    op_list = tuple(
        (
            draw(st.sampled_from(["read", "write"])),
            draw(st.sampled_from(CORPUS_VARS)),
        )
        for _ in range(count)
    )
    crash = draw(st.booleans()) if crashes else False
    return (locked, op_list, crash)


@st.composite
def corpus_programs(
    draw,
    min_threads: int = 2,
    max_threads: int = 3,
    max_ops: int = 2,
    crashes: bool = True,
    with_specs: bool = False,
):
    """Strategy for a whole corpus program (optionally with its specs)."""
    thread_count = draw(st.integers(min_value=min_threads, max_value=max_threads))
    specs = [
        draw(corpus_specs(max_ops=max_ops, crashes=crashes))
        for _ in range(thread_count)
    ]
    program = corpus_program(specs)
    return (program, specs) if with_specs else program


def yield_only(steps: int = 3, threads: int = 2) -> Program:
    """Pure scheduling-point threads; no shared effects at all."""

    def body():
        for _ in range(steps):
            yield Yield()

    return Program(
        "yield-only",
        threads={f"T{i}": body for i in range(1, threads + 1)},
    )


def per_detector_reports(detectors, traces):
    """Reference analysis: one single-detector pipeline per detector.

    Each detector reads every trace in a pipeline of its own, so nothing
    is shared between detectors; the suite's one shared pass must merge
    findings into exactly these per-detector reports.
    """
    from repro.detectors.pipeline import DetectorPipeline

    traces = list(traces)
    reports = {}
    for detector in detectors:
        pipeline = DetectorPipeline([detector])
        for trace in traces:
            pipeline.run_trace(trace)
        reports[detector.name] = pipeline.reports[detector.name]
    return reports
