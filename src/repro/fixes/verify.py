"""Fix verification by exhaustive schedule exploration.

The study's patch-quality observation (17 of 105 first fixes were wrong)
is an argument for *verifying* concurrency patches rather than stress-
testing them.  ``verify_fix`` explores every schedule of a patched program
against the kernel's failure oracle and returns either a clean bill or a
replayable counterexample schedule — the workflow a maintainer would
actually want.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bugdb.schema import FixStrategy
from repro.fixes.strategies import bad_patches, fixes_for
from repro.kernels.base import BugKernel
from repro.sim import Program
from repro.sim.explorer import make_explorer

__all__ = ["FixVerification", "verify_fix", "verify_all_fixes", "audit_bad_patches"]


@dataclass(frozen=True)
class FixVerification:
    """Outcome of exhaustively checking one patched program."""

    program: str
    clean: bool
    complete: bool
    schedules_explored: int
    counterexample: Optional[List[str]] = None

    def summary(self) -> str:
        """One-line rendering."""
        if self.clean:
            extent = "exhaustive" if self.complete else "bounded"
            return (
                f"{self.program}: clean over {self.schedules_explored} "
                f"schedules ({extent})"
            )
        return (
            f"{self.program}: STILL BUGGY — counterexample of "
            f"{len(self.counterexample or [])} steps found after "
            f"{self.schedules_explored} schedules"
        )


def verify_fix(
    kernel: BugKernel,
    patched: Program,
    max_schedules: int = 50000,
) -> FixVerification:
    """Explore every schedule of ``patched`` against the kernel's oracle."""
    result = make_explorer(patched, max_schedules, keep_matches=1).explore(
        predicate=kernel.failure, stop_on_first=True
    )
    if result.found:
        return FixVerification(
            program=patched.name,
            clean=False,
            complete=False,
            schedules_explored=result.schedules_run,
            counterexample=result.first_match_schedule,
        )
    return FixVerification(
        program=patched.name,
        clean=True,
        complete=result.complete,
        schedules_explored=result.schedules_run,
    )


def verify_all_fixes(
    kernel: BugKernel,
    max_schedules: int = 50000,
) -> Dict[FixStrategy, FixVerification]:
    """Verify every patched variant the kernel ships."""
    return {
        strategy: verify_fix(kernel, program, max_schedules=max_schedules)
        for strategy, program in fixes_for(kernel)
    }


def audit_bad_patches(max_schedules: int = 50000) -> List[FixVerification]:
    """Run the modelled incorrect first patches through verification.

    Every returned verification must be non-clean — the point of the
    exercise is that exploration finds the surviving bug along with a
    replayable counterexample, where stress testing usually reports
    success.
    """
    return [
        verify_fix(kernel, patched, max_schedules=max_schedules)
        for kernel, patched, _why in bad_patches()
    ]
