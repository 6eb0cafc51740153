"""Figures — the paper's executable bug examples, regenerated.

The paper's figures are code excerpts of representative bugs (Mozilla
js-engine atomicity, MySQL binlog, Mozilla property cache multi-variable,
Mozilla thread-init order, lost wakeup, and the deadlock shapes).  Each
bench drives the corresponding kernel end to end: exploration finds a
manifesting interleaving with the recorded characteristics, the schedule
replays deterministically, and the paired fix verifies clean.
"""

import pytest

from repro.kernels import all_kernels, get_kernel
from repro.sim import replay
from repro.sim.memory import FLUSH_PREFIX

KERNEL_NAMES = [k.name for k in all_kernels()]


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_figure_kernel_manifests(benchmark, name):
    kernel = get_kernel(name)

    def explore():
        return kernel.find_manifestation()

    failing = benchmark.pedantic(explore, rounds=1, iterations=1)
    assert failing is not None, f"{name} never manifested"
    # Replay determinism: the found schedule reproduces the failure.
    rerun = replay(kernel.buggy, failing.schedule)
    assert kernel.failure(rerun)
    # Recorded characteristics hold on the actual failing execution.  A
    # TSO store-buffer flush (``~T0``) is a step of its owner thread (T0).
    threads = {label.removeprefix(FLUSH_PREFIX) for label in failing.schedule}
    assert len(threads) <= kernel.threads_involved
    print()
    print(f"  {kernel.summary()}")
    print(f"  manifesting schedule ({len(failing.schedule)} steps): "
          f"{failing.schedule}")
    print(f"  outcome: {failing.summary()}")


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_figure_kernel_fix_verifies(benchmark, name):
    kernel = get_kernel(name)

    def verify():
        return kernel.verify_fixed()

    clean = benchmark.pedantic(verify, rounds=1, iterations=1)
    assert clean, f"{name} fix failed exhaustive verification"
    print()
    print(f"  {kernel.name}: fix strategy '{kernel.fix_strategy.value}' "
          f"verified over every schedule")
