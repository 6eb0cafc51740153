"""repro.obs — the observability layer: metrics, run telemetry, profiling.

Three zero-dependency submodules, all **off by default and free when
off** (a single ``None`` check on the instrumented paths):

* :mod:`repro.obs.metrics` — a labelled counter/gauge/histogram
  registry incremented by the explorers, the state cache, the engine,
  the detector suite, and the manifestation estimator;
* :mod:`repro.obs.runlog` — structured JSONL run records (one per
  ``find_schedule`` / ``enumerate_outcomes`` / estimator / CLI
  invocation) so every reported number is traceable to the searches
  that produced it;
* :mod:`repro.obs.profile` — named span timers around the hot phases
  (engine op execution, prefix replay, state fingerprinting) with a
  sorted hot-path table.

``obs`` sits *below* every other layer: it imports nothing from
``repro`` outside :mod:`repro.errors`-free stdlib code, so any module
may instrument itself without creating cycles.  The CLI exposes the
whole layer as ``--metrics-out PATH`` (JSONL export) and ``--profile``
(hot-path table) on every subcommand; see ``docs/observability.md``.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.runlog import RunLog, read_records

__all__ = [
    "MetricsRegistry",
    "Profiler",
    "RunLog",
    "read_records",
]
