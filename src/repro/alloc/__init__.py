"""Adaptive exploration-budget allocation (UCB1 bandit over search arms).

The cost of a first finding varies by orders of magnitude across
programs and across strategies on the same program (the estimator's
``compare_strategies`` rows show systematic search beating random by
100x on some kernels and losing on others).  This package treats
**search strategies as bandit arms**, pays an arm out on the *new
outcomes and findings per schedule* its slices produce, and spends the
next slice on the arm with the best upper confidence bound:

* :mod:`repro.alloc.ucb` — the UCB1 allocator, with ``alloc.*``
  metrics and runlog records;
* :mod:`repro.alloc.adaptive` — the racing harness: one program, four
  arms (sliced DFS / sliced sleep-set via in-process
  :mod:`repro.sim.frontier` checkpoints; random / PCT sampling by seed
  offset), spending until the first finding or a total budget.

Consumers: the estimator's ``adaptive`` row and
``benchmarks/bench_alloc.py``, both of which race strategies *within a
program*.  ``docs/allocator.md`` is the handbook.
"""

from repro.alloc.adaptive import (
    AdaptiveOutcome,
    adaptive_first_finding,
    derive_horizon,
)
from repro.alloc.ucb import ArmStats, UCBAllocator

__all__ = [
    "AdaptiveOutcome",
    "ArmStats",
    "UCBAllocator",
    "adaptive_first_finding",
    "derive_horizon",
]
