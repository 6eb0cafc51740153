"""repro — reproduction of "Learning from Mistakes: A Comprehensive Study
on Real World Concurrency Bug Characteristics" (ASPLOS 2008).

The package has five layers, importable independently:

* :mod:`repro.sim` — deterministic concurrency simulator (virtual
  threads, schedulers, exhaustive interleaving exploration, replay);
* :mod:`repro.detectors` — happens-before, lockset, AVIO-style
  atomicity, order-violation, and deadlock detection;
* :mod:`repro.bugdb` — the 105 studied bug records and their
  characteristic dimensions;
* :mod:`repro.kernels` — executable (buggy, fixed) reproductions of the
  paper's figure examples, plus :mod:`repro.fixes` for strategy-based
  patching and exhaustive fix verification;
* :mod:`repro.study` — tables T1-T8 and findings F1-F10, regenerated
  from the database, with :mod:`repro.manifest` providing the testing-
  implication machinery (order enforcement, coverage, estimators).

Quick taste::

    from repro import BugDatabase, generate_report
    print(generate_report(quick=True).format())
"""

from repro.bugdb import (
    Application,
    BugCategory,
    BugDatabase,
    BugPattern,
    BugRecord,
    FixStrategy,
    Impact,
)
from repro.detectors import DetectorSuite, Finding, FindingKind, Report
from repro.errors import ReproError, SimCrash
from repro.kernels import BugKernel, all_kernels, get_kernel, kernel_names
from repro.sim import (
    Engine,
    Explorer,
    Program,
    RunResult,
    RunStatus,
    StateCache,
    Trace,
    enumerate_outcomes,
    find_schedule,
    replay,
    run_program,
)
from repro.reporting import BugReport, build_bug_report
from repro.study import FINDINGS, StudyReport, all_tables, check_all, generate_report

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SimCrash",
    # simulator
    "Program",
    "Engine",
    "RunResult",
    "RunStatus",
    "Trace",
    "run_program",
    "Explorer",
    "StateCache",
    "enumerate_outcomes",
    "find_schedule",
    "replay",
    # detectors
    "DetectorSuite",
    "Finding",
    "FindingKind",
    "Report",
    # bug database
    "BugDatabase",
    "BugRecord",
    "Application",
    "BugCategory",
    "BugPattern",
    "Impact",
    "FixStrategy",
    # kernels
    "BugKernel",
    "all_kernels",
    "get_kernel",
    "kernel_names",
    # study
    "generate_report",
    "StudyReport",
    "all_tables",
    "check_all",
    "FINDINGS",
    # failure reporting
    "BugReport",
    "build_bug_report",
]
