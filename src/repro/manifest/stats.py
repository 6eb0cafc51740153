"""Statistical treatment of manifestation-rate estimates.

Manifestation rates from finite run samples deserve error bars: a bug
that showed up in 0/100 random runs is not proven absent (the study's
core warning about stress testing).  This module provides:

* :func:`wilson_interval` — the Wilson score interval for a binomial
  proportion, well-behaved at the extremes (0/n, n/n) where the naive
  normal interval collapses;
* :func:`runs_needed` — how many independent runs are required to
  observe a bug of per-run probability *p* at least once with
  confidence *c*: the study's "how long must you stress-test" question,
  inverted;
* :func:`compare_rates` — a two-proportion z-test for "did strategy A
  really manifest more often than strategy B", used when comparing
  schedulers on the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Tuple

__all__ = ["wilson_interval", "runs_needed", "compare_rates", "RateComparison"]

#: The standard normal distribution (quantiles for intervals, tails for
#: z-tests).
_NORMAL = NormalDist()


def wilson_interval(
    successes: int, runs: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns ``(low, high)``; both in [0, 1].  ``runs == 0`` yields the
    vacuous interval (0, 1).
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if successes < 0 or successes > runs:
        raise ValueError("successes must be between 0 and runs")
    if runs == 0:
        return (0.0, 1.0)
    z = _NORMAL.inv_cdf(1 - (1 - confidence) / 2)
    phat = successes / runs
    denom = 1 + z * z / runs
    centre = (phat + z * z / (2 * runs)) / denom
    margin = (
        z
        * math.sqrt(phat * (1 - phat) / runs + z * z / (4 * runs * runs))
        / denom
    )
    # The extremes are exact by construction; clear the FP residue there.
    low = 0.0 if successes == 0 else max(0.0, centre - margin)
    high = 1.0 if successes == runs else min(1.0, centre + margin)
    return (float(low), float(high))


def runs_needed(per_run_probability: float, confidence: float = 0.95) -> int:
    """Independent runs needed to hit a bug at least once with confidence.

    Solves ``1 - (1-p)^n >= c``.  For the study's point: a bug with a 1%
    per-run manifestation probability needs ~300 random runs for 95%
    confidence, while enforcing its ≤4-access order needs exactly one.
    """
    p = per_run_probability
    if not 0 < p <= 1:
        raise ValueError("per-run probability must be in (0, 1]")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if p == 1.0:
        return 1
    return math.ceil(math.log(1 - confidence) / math.log(1 - p))


@dataclass(frozen=True)
class RateComparison:
    """Result of a two-proportion comparison."""

    rate_a: float
    rate_b: float
    z_score: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the difference is significant at level ``alpha``."""
        return self.p_value < alpha


def compare_rates(
    successes_a: int, runs_a: int, successes_b: int, runs_b: int
) -> RateComparison:
    """Two-proportion z-test (pooled); two-sided p-value."""
    if runs_a <= 0 or runs_b <= 0:
        raise ValueError("both samples need at least one run")
    pa = successes_a / runs_a
    pb = successes_b / runs_b
    pooled = (successes_a + successes_b) / (runs_a + runs_b)
    se = math.sqrt(pooled * (1 - pooled) * (1 / runs_a + 1 / runs_b))
    if se == 0:
        z = 0.0
    else:
        z = (pa - pb) / se
    p_value = 2 * (1 - _NORMAL.cdf(abs(z)))
    return RateComparison(rate_a=pa, rate_b=pb, z_score=z, p_value=float(p_value))
