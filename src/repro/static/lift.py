"""Lift a frontend :class:`ProgramSummary` into a runnable ``Program``.

The real-Python frontend (:mod:`repro.static.pysource`) turns ordinary
``threading`` source into the static summary vocabulary; this module
closes the loop by *compiling the summary back down* into a simulator
:class:`~repro.sim.program.Program` — generator threads yielding the
mapped :mod:`repro.sim.ops` operations — so every static candidate can
be dynamically confirmed by the existing explorers and detectors.

The generated code is designed to round-trip: each thread function is
registered in :mod:`linecache` under a synthetic filename, so
``inspect.getsource`` works and the DSL extractor
(:func:`repro.static.summary.summarize_program`) recovers the *same*
summary site-for-site (kinds, resources, labels, branch/loop structure)
from the lifted program.  Liftable structure maps as:

* :class:`SiteGuard` branches/loops become real ``if``/``while`` tests
  of the guarded site's value (``_v<i>``), with the while-loop's re-test
  site emitted as the body's last operation and copied back into the
  guard local — invisible to re-extraction, faithful at runtime.
* :class:`SummaryDeref` markers become ``_deref(_v<i>, 'var')`` calls
  that raise :class:`~repro.errors.SimCrash` on ``None``/``False`` —
  use-before-init candidates manifest as ``CRASH`` runs.
* Opaque branches (no guard) take their first arm via the ``_arm()``
  stub; the summary was already marked approximate there.
* Statically-resolved write/send payloads are emitted literally;
  unknown payloads became opaque (truthy) token strings in the frontend.

Declarations the summary cannot carry — semaphore permits and barrier
parties — default to 1 and 2 respectively; the study's bug shapes do
not depend on them.

:func:`confirm` packages the whole static→dynamic pipeline for one
module: analyse the summary once, lift it, search the lifted program
once, and decide per candidate whether it *manifested* (matching dynamic
finding, or a crash / deadlock / hang status its shape predicts).
"""

from __future__ import annotations

import itertools
import linecache
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, SimCrash
from repro.sim import ops as _ops
from repro.sim.engine import RunStatus
from repro.sim.program import Program
from repro.static.summary import (
    OpSite,
    ProgramSummary,
    SiteGuard,
    SummaryBranch,
    SummaryDeref,
    SummaryLoop,
    SummaryNode,
    SummaryOp,
    SummaryReturn,
)

__all__ = [
    "LiftError",
    "lift",
    "lifted_source",
    "structure",
    "confirm",
    "CandidateOutcome",
    "LiftOutcome",
]


class LiftError(ReproError):
    """The summary contains structure the lifter cannot compile."""


#: kind -> (Op constructor name, takes-resource, binds-result)
_KIND_CTORS: Dict[str, Tuple[str, bool, bool]] = {
    "read": ("Read", True, True),
    "write": ("Write", True, False),
    "acquire": ("Acquire", True, False),
    "release": ("Release", True, False),
    "wait": ("Wait", True, False),
    "notify": ("Notify", True, False),
    "notify_all": ("NotifyAll", True, False),
    "sem_acquire": ("SemAcquire", True, False),
    "sem_release": ("SemRelease", True, False),
    "barrier_wait": ("BarrierWait", True, False),
    "spawn": ("Spawn", True, False),
    "join": ("Join", True, False),
    "send": ("Send", True, False),
    "recv": ("Recv", True, True),
    "sleep": ("Sleep", False, False),
    "yield": ("Yield", False, False),
    "fence": ("Fence", False, False),
}

_GUARD_TESTS = {
    "truthy": "{v}",
    "falsy": "not {v}",
    "is-none": "{v} is None",
    "not-none": "{v} is not None",
}

_LIFT_COUNTER = itertools.count()


def _deref(value: Any, var: str) -> Any:
    """Runtime null-check compiled from a :class:`SummaryDeref` marker."""
    if value is None or value is False:
        raise SimCrash(f"dereference of uninitialised {var!r}")
    return value


def _arm() -> bool:
    """Stand-in test for an opaque branch: always the first arm."""
    return True


def _fn_name(thread: str) -> str:
    return "_lifted_" + re.sub(r"\W", "_", thread)


class _CodeGen:
    """Emit one thread's generator function from its summary nodes."""

    def __init__(self, thread: str):
        self.thread = thread
        self.lines: List[str] = [f"def {_fn_name(thread)}():"]
        self.emitted_ops = 0

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * (depth + 1) + text)

    def op(self, depth: int, node: SummaryOp) -> None:
        site = node.site
        spec = _KIND_CTORS.get(site.kind)
        if spec is None:
            raise LiftError(
                f"thread {self.thread!r}: site kind {site.kind!r} has no "
                f"lifting (summary not produced by the frontend?)"
            )
        ctor, takes_resource, binds = spec
        args: List[str] = []
        if takes_resource:
            if site.obj is None:
                raise LiftError(
                    f"thread {self.thread!r}: {site.kind} site with no "
                    f"resolved resource cannot be lifted"
                )
            args.append(repr(site.obj))
        if site.kind == "write" or site.kind == "send":
            args.append(repr(node.value))
        if site.kind == "sleep":
            args.append("1")
        if site.label is not None:
            args.append(f"label={site.label!r}")
        call = f"yield {ctor}({', '.join(args)})"
        if binds:
            call = f"_v{site.index} = {call}"
        self.line(depth, call)
        self.emitted_ops += 1

    def block(self, depth: int, nodes: Sequence[SummaryNode]) -> None:
        wrote = False
        for node in nodes:
            if isinstance(node, SummaryOp):
                self.op(depth, node)
            elif isinstance(node, SummaryDeref):
                self.line(depth, f"_deref(_v{node.site}, {node.obj!r})")
            elif isinstance(node, SummaryReturn):
                self.line(depth, "return")
            elif isinstance(node, SummaryBranch):
                self.branch(depth, node)
            elif isinstance(node, SummaryLoop):
                self.loop(depth, node)
            else:
                raise LiftError(
                    f"thread {self.thread!r}: unliftable node {node!r}"
                )
            wrote = True
        if not wrote:
            self.line(depth, "pass")

    def branch(self, depth: int, node: SummaryBranch) -> None:
        test = (
            _GUARD_TESTS[node.guard.mode].format(v=f"_v{node.guard.site}")
            if node.guard is not None
            else "_arm()"
        )
        arms = node.arms or ((),)
        self.line(depth, f"if {test}:")
        self.block(depth + 1, arms[0])
        rest = arms[1:]
        if len(rest) == 1:
            if rest[0]:
                self.line(depth, "else:")
                self.block(depth + 1, rest[0])
        elif rest:
            # Multi-arm branches (try/except lowering) nest binary
            # opaque choices; those summaries are approximate already.
            self.line(depth, "else:")
            self.branch(depth + 1, SummaryBranch(arms=rest))

    def loop(self, depth: int, node: SummaryLoop) -> None:
        if node.guard is not None:
            guard = node.guard
            body = node.body
            if not (body and isinstance(body[-1], SummaryOp)):
                raise LiftError(
                    f"thread {self.thread!r}: guarded loop without a "
                    f"re-test site as its last body node"
                )
            retest = body[-1].site
            test = _GUARD_TESTS[guard.mode].format(v=f"_v{guard.site}")
            self.line(depth, f"while {test}:")
            self.block(depth + 1, body)
            # The re-test site's value drives the next evaluation.
            self.line(depth + 1, f"_v{guard.site} = _v{retest.index}")
            return
        if node.count is not None:
            self.line(depth, f"for _iter in range({node.count}):")
            self.block(depth + 1, node.body)
            return
        self.line(depth, "while True:")
        self.block(depth + 1, node.body)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def lifted_source(summary: ProgramSummary) -> str:
    """The generated module source for ``summary`` (debugging/docs aid)."""
    pieces = []
    for name, thread in summary.threads.items():
        gen = _CodeGen(name)
        gen.block(0, thread.nodes)
        pieces.append(gen.source())
    return "\n\n".join(pieces)


def lift(summary: ProgramSummary, name: Optional[str] = None) -> Program:
    """Compile a frontend summary into a runnable simulator program.

    The generated thread bodies are registered in :mod:`linecache`, so
    the DSL extractor re-derives the same summary from the result —
    :func:`structure` states the exact invariant.  Raises
    :class:`LiftError` on summaries with unresolved resources (a site
    whose ``obj`` could not be determined statically cannot be replayed).
    """
    program_name = name or f"lifted:{summary.program}"
    namespace: Dict[str, Any] = {
        "_deref": _deref,
        "_arm": _arm,
    }
    for ctor, _, _ in _KIND_CTORS.values():
        namespace[ctor] = getattr(_ops, ctor)
    threads: Dict[str, Any] = {}
    for thread_name, thread in summary.threads.items():
        gen = _CodeGen(thread_name)
        gen.block(0, thread.nodes)
        source = gen.source()
        filename = (
            f"<repro-lift-{next(_LIFT_COUNTER)}-"
            f"{re.sub(r'[^A-Za-z0-9_.-]', '_', summary.program)}-"
            f"{re.sub(r'[^A-Za-z0-9_.-]', '_', thread_name)}>.py"
        )
        code = compile(source, filename, "exec")
        # ``inspect.getsource`` consults linecache; an entry with
        # ``mtime=None`` survives ``checkcache`` for synthetic files.
        linecache.cache[filename] = (
            len(source),
            None,
            source.splitlines(keepends=True),
            filename,
        )
        exec(code, namespace)
        threads[thread_name] = namespace[_fn_name(thread_name)]
    return Program(
        name=program_name,
        threads=threads,
        initial=dict(summary.initial),
        locks=tuple(summary.locks),
        rwlocks=tuple(summary.rwlocks),
        semaphores={s: 1 for s in summary.semaphores},
        conditions=dict(summary.conditions),
        barriers={b: 2 for b in summary.barriers},
        channels=dict(summary.channels),
        start=tuple(summary.start) or None,
        memory=summary.memory,
    )


# -- round-trip canonicalisation ---------------------------------------------


def structure(summary: ProgramSummary) -> Dict[str, Any]:
    """Canonical shape of a summary for round-trip comparison.

    Two summaries with equal :func:`structure` agree site-for-site on
    kinds, resources, labels, and branch/loop nesting.  Frontend-only
    decoration that re-extraction cannot recover is normalised away:
    guards, payload values, :class:`SummaryDeref` markers, and linenos
    (the lifted file has its own numbering).  A binary branch whose
    whole else-arm is another branch is flattened to a multi-arm one,
    matching the lifter's nested lowering of try/except arms.
    """

    def nodes_of(nodes: Sequence[SummaryNode]) -> Tuple[Any, ...]:
        out: List[Any] = []
        for node in nodes:
            if isinstance(node, SummaryOp):
                site = node.site
                out.append(("op", site.kind, site.obj, site.label,
                            site.conditional))
            elif isinstance(node, SummaryBranch):
                arms = [nodes_of(arm) for arm in node.arms]
                while (
                    len(arms) == 2
                    and len(arms[1]) == 1
                    and isinstance(arms[1][0], tuple)
                    and arms[1][0] and arms[1][0][0] == "branch"
                ):
                    arms = [arms[0]] + list(arms[1][0][1])
                out.append(("branch", tuple(arms)))
            elif isinstance(node, SummaryLoop):
                out.append(("loop", nodes_of(node.body)))
            elif isinstance(node, SummaryReturn):
                out.append(("return",))
            # SummaryDeref: frontend-only, skipped.
        return tuple(out)

    return {
        "threads": {
            name: nodes_of(thread.nodes)
            for name, thread in summary.threads.items()
        },
        "initial": dict(summary.initial),
        "locks": tuple(summary.locks),
        "semaphores": tuple(summary.semaphores),
        "conditions": dict(summary.conditions),
        "barriers": tuple(summary.barriers),
        "channels": dict(summary.channels),
        "start": tuple(summary.start),
        "memory": summary.memory,
    }


# -- static -> dynamic confirmation ------------------------------------------


@dataclass
class CandidateOutcome:
    """One static candidate and how (whether) exploration manifested it."""

    kind: str
    description: str
    variables: Tuple[str, ...]
    resources: Tuple[str, ...]
    confirmed: bool
    how: str  # "finding" | "crash" | "deadlock" | "hang" | ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "description": self.description,
            "variables": list(self.variables),
            "resources": list(self.resources),
            "confirmed": self.confirmed,
            "how": self.how,
        }


@dataclass
class LiftOutcome:
    """The full static→dynamic verdict for one lifted module."""

    program: str
    outcomes: List[CandidateOutcome] = field(default_factory=list)
    #: Terminal statuses the exploration of the lifted program reached.
    statuses: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        """No failing terminal status: the module verifies clean.

        Residual *candidates* may remain (tolerated races); cleanliness
        is about dynamic manifestation, matching the study's fix
        strategies that tolerate rather than remove a race.
        """
        return not any(
            self.statuses.get(status, 0)
            for status in ("crash", "deadlock", "hang")
        )

    @property
    def confirmed(self) -> List[CandidateOutcome]:
        return [o for o in self.outcomes if o.confirmed]

    def to_json(self) -> Dict[str, Any]:
        """JSON-native rendering (CLI ``--json``, service verdicts)."""
        return {
            "program": self.program,
            "clean": self.clean,
            "statuses": dict(self.statuses),
            "candidates": [o.to_json() for o in self.outcomes],
            "wall_seconds": round(self.wall_seconds, 6),
        }


def _summary_derefs(summary: ProgramSummary) -> Dict[str, bool]:
    """Variables whose read value is dereferenced somewhere."""
    derefed: Dict[str, bool] = {}

    def walk(nodes: Sequence[SummaryNode]) -> None:
        for node in nodes:
            if isinstance(node, SummaryDeref):
                derefed[node.obj] = True
            elif isinstance(node, SummaryBranch):
                for arm in node.arms:
                    walk(arm)
            elif isinstance(node, SummaryLoop):
                walk(node.body)

    for thread in summary.threads.values():
        walk(thread.nodes)
    return derefed


def _status_confirms(
    candidate: Any, statuses: Dict[str, int], derefed: Dict[str, bool]
) -> str:
    """Which failing terminal status manifests this candidate's shape."""
    if candidate.kind == "deadlock":
        if statuses.get(RunStatus.DEADLOCK.value, 0):
            return "deadlock"
        return ""
    if statuses.get(RunStatus.CRASH.value, 0) and any(
        derefed.get(var) for var in candidate.variables
    ):
        return "crash"
    if candidate.kind == "order-violation" and statuses.get(
        RunStatus.HANG.value, 0
    ):
        # Lost messages / lost wakeups starve a blocking recv or wait.
        return "hang"
    return ""


def confirm(summary: ProgramSummary, max_schedules: int = 2000) -> LiftOutcome:
    """Lift ``summary`` and dynamically confirm its static candidates.

    One static pass — the battery over ``summary`` itself, which the
    lifted program round-trips to — and one DPOR search of the lifted
    program (:meth:`~repro.detectors.suite.DetectorSuite.analyse_program`:
    up to ``max_schedules`` schedules of at most 5,000 steps each).  Two
    confirmation routes per candidate, either suffices:

    1. **finding** — :func:`~repro.detectors.suite.compare_static`
       matches the candidate to a dynamic finding the detector battery
       reports on a failing schedule (the same matcher the DSL kernels
       are scored with);
    2. **status** — the search reaches a terminal status the candidate's
       shape predicts (deadlock cycles → ``DEADLOCK``, dereferenced
       use-before-init variables → ``CRASH``, lost messages/wakeups →
       ``HANG``).

    Exploration is serial on purpose: lifted thread bodies are built by
    ``exec`` and cannot cross a process boundary.
    """
    from time import perf_counter

    from repro.detectors.suite import DetectorSuite, compare_static
    from repro.static.report import analyse_summary

    start = perf_counter()
    report = analyse_summary(summary)
    program = lift(summary)
    dynamic = DetectorSuite.for_program(program).analyse_program(
        program, max_schedules=max_schedules, reduction="dpor",
    )
    confirmed = set(compare_static(report, dynamic).confirmed_candidates)
    statuses = {
        status.value: count
        for status, count in dynamic.exploration.statuses.items()
    }
    derefed = _summary_derefs(summary)
    outcomes: List[CandidateOutcome] = []
    for candidate in report.active():
        if candidate in confirmed:
            how = "finding"
        else:
            how = _status_confirms(candidate, statuses, derefed)
        outcomes.append(
            CandidateOutcome(
                kind=candidate.kind,
                description=candidate.description,
                variables=candidate.variables,
                resources=candidate.resources,
                confirmed=bool(how),
                how=how,
            )
        )
    return LiftOutcome(
        program=summary.program,
        outcomes=outcomes,
        statuses=statuses,
        wall_seconds=perf_counter() - start,
    )
