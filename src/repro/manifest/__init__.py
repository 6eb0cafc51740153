"""Bug-manifestation machinery: the study's testing implications.

* :mod:`repro.manifest.enforce` — impose a partial order over labelled
  accesses and check it guarantees manifestation (Finding 8).
* :mod:`repro.manifest.coverage` — pairwise interleaving coverage.
* :mod:`repro.manifest.estimator` — manifestation rates under random /
  PCT / cooperative / order-enforced testing.
* :mod:`repro.manifest.adaptive` — the estimator's adaptive row: a UCB1
  race of search strategies on one program (imported on first use).
"""

from repro.manifest.coverage import PairwiseCoverage, access_sites, ordered_pairs
from repro.manifest.enforce import (
    EnforcedRun,
    OrderEnforcer,
    enforce_order,
    order_guarantees,
)
from repro.manifest.estimator import (
    ManifestationEstimate,
    compare_strategies,
    estimate_manifestation,
)

__all__ = [
    "OrderEnforcer",
    "EnforcedRun",
    "enforce_order",
    "order_guarantees",
    "PairwiseCoverage",
    "access_sites",
    "ordered_pairs",
    "ManifestationEstimate",
    "estimate_manifestation",
    "compare_strategies",
]
