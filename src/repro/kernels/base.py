"""Bug kernels: executable reproductions of the studied bug classes.

A :class:`BugKernel` packages everything needed to *demonstrate* one bug
class from the study rather than merely tabulate it:

* ``buggy`` — a small simulator program with the bug;
* ``fixed`` — the same program patched with the class's canonical fix
  strategy from the paper's taxonomy;
* ``failure`` — the oracle: does a given run manifest the bug?
* the recorded manifestation characteristics (threads / variables or
  resources / ordering-relevant accesses), which integration tests check
  against exhaustive exploration;
* ``manifest_order`` — the partial order over labelled operations whose
  enforcement *guarantees* manifestation.  This is Finding 8 made
  executable: each pair ``(earlier_label, later_label)`` constrains two
  operation sites, and :mod:`repro.manifest.enforce` turns the pairs into
  a scheduling filter.

Labels are plain strings attached via ``label=`` to operations; every
kernel keeps its labels unique program-wide (e.g. ``"t1.check"``), so a
label names exactly one operation site of one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.bugdb.schema import BugCategory, FixStrategy
from repro.sim.engine import RunResult
from repro.sim.explorer import make_explorer
from repro.sim.program import Program

__all__ = ["BugKernel", "Oracle"]

Oracle = Callable[[RunResult], bool]


@dataclass(frozen=True)
class BugKernel:
    """One executable bug class with its paired fix."""

    name: str
    title: str
    description: str
    category: BugCategory
    buggy: Program
    fixed: Program
    fix_strategy: FixStrategy
    failure: Oracle
    threads_involved: int
    accesses_to_manifest: int
    manifest_order: Tuple[Tuple[str, str], ...]
    variables_involved: Optional[int] = None
    resources_involved: Optional[int] = None
    alternative_fixes: Tuple[Tuple[FixStrategy, Program], ...] = ()
    #: Workload family: ``"sc"`` (classic shared-memory kernels, the
    #: default), ``"weakmem"`` (bugs that manifest only under a relaxed
    #: memory model — their buggy/fixed programs declare ``memory="tso"``),
    #: or ``"actor"`` (message-passing kernels built on channels).  The
    #: registry filters on this tag for family sweeps.
    family: str = "sc"

    # -- exploration helpers -------------------------------------------------

    def find_manifestation(
        self,
        max_schedules: int = 20000,
        *,
        memoize: bool = False,
        directed: bool = False,
        reduction: Optional[str] = None,
    ) -> Optional[RunResult]:
        """A failing run of the buggy program, or ``None`` if unreachable.

        ``memoize=True`` is sound here only if the kernel's failure oracle
        inspects terminal state, not the schedule/trace — the bundled
        kernels' oracles do, but it stays opt-in.
        ``directed=True`` runs the static analyzer first and biases the
        visit order toward its predicted access pairs (race-directed
        exploration); the searched tree is unchanged, so a manifestation
        reachable undirected is reachable directed — usually sooner.
        ``reduction`` skips schedules equivalent to one already run —
        sound for the same oracles ``memoize`` is sound for (every
        terminal state keeps a representative), and composable with
        ``directed`` and ``memoize``.
        """
        targets = self.static_targets() if directed else None
        result = make_explorer(
            self.buggy, max_schedules,
            memoize=memoize, targets=targets, reduction=reduction,
        ).explore(predicate=self.failure, stop_on_first=True)
        return result.matching[0] if result.matching else None

    def static_targets(self):
        """Ranked target pairs predicted by the static analyzer.

        Imported lazily: the static package layers *above* the kernels'
        sim dependencies, and most kernel uses never need it.
        """
        from repro.static import analyse

        return analyse(self.buggy).pairs

    def manifestation_rate(self, max_schedules: int = 20000) -> float:
        """Fraction of all schedules of the buggy program that manifest.

        No ``memoize`` or ``reduction`` option: the rate is a ratio
        over *all* interleavings, and anything that prunes or collapses
        schedules skews it.
        """
        outcome = make_explorer(self.buggy, max_schedules).explore(
            predicate=self.failure
        )
        return outcome.match_rate()

    def verify_fixed(
        self,
        max_schedules: int = 50000,
        *,
        memoize: bool = False,
        reduction: Optional[str] = None,
    ) -> bool:
        """Exhaustively check that no schedule of the fixed program fails.

        ``reduction`` keeps the verdict exact — a failure outcome, were
        one reachable, would keep a representative schedule — while
        checking far fewer interleavings.
        """
        outcome = make_explorer(
            self.fixed, max_schedules,
            memoize=memoize, keep_matches=1, reduction=reduction,
        ).explore(predicate=self.failure, stop_on_first=True)
        return outcome.complete and not outcome.found

    def summary(self) -> str:
        """One-line rendering for reports."""
        dims = []
        dims.append(f"threads={self.threads_involved}")
        if self.variables_involved is not None:
            dims.append(f"vars={self.variables_involved}")
        if self.resources_involved is not None:
            dims.append(f"resources={self.resources_involved}")
        dims.append(f"accesses={self.accesses_to_manifest}")
        return f"{self.name} [{self.category.value}] ({', '.join(dims)}): {self.title}"
