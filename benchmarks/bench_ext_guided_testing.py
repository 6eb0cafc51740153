"""E2 (extension) — manifestation rate: random / PCT / enforced order.

Quantifies the testing implication on every kernel.  Expected shape:

* cooperative (non-preemptive) scheduling: 0% on every kernel that
  needs a preemption; the four that need none (a self re-acquisition, a
  parent that finishes before its child starts, a select-driven server
  and a TSO store buffer) manifest at bound 0 too;
* random and PCT: low, kernel-dependent rates;
* enforcing the recorded ≤4-access order: 100% on every kernel.

Also measures interleaving-space coverage: a small preemption bound
already reaches every kernel's bug (the 'few context switches suffice'
observation behind CHESS-style tools).
"""

from repro.kernels import all_kernels
from repro.manifest import compare_strategies
from repro.sim import Explorer


def collect_rates(runs=60):
    rates = {}
    for kernel in all_kernels():
        estimates = compare_strategies(kernel, runs=runs)
        rates[kernel.name] = {
            name: est.rate for name, est in estimates.items()
        }
    return rates


def test_strategy_comparison(benchmark):
    rates = benchmark.pedantic(collect_rates, rounds=1, iterations=1)
    print()
    print(f"  {'kernel':26s} {'coop':>6s} {'random':>8s} {'pct':>8s} {'enforced':>9s}")
    for name, r in rates.items():
        print(
            f"  {name:26s} {r['cooperative']:>6.0%} {r['random']:>8.1%} "
            f"{r['pct']:>8.1%} {r['enforced']:>9.0%}"
        )
    # Kernels that need zero preemptions manifest even cooperatively, each
    # for its own reason; a bound-0 search must manifest every one.
    zero_preemption = {
        "deadlock_self": "a single thread re-acquires its own lock",
        "order_teardown_use": (
            "the parent runs to completion before its child ever starts"
        ),
        "actor_mailbox_order": (
            "the server blocks in Select, and whichever sender runs next "
            "decides, with no preemption"
        ),
        "weakmem_store_buffer": "store buffers reorder without a preemption",
    }
    kernels = {kernel.name: kernel for kernel in all_kernels()}
    for name, r in rates.items():
        assert r["enforced"] == 1.0, name
        if name in zero_preemption:
            kernel = kernels[name]
            bounded = Explorer(kernel.buggy, preemption_bound=0).explore(
                predicate=kernel.failure, stop_on_first=True
            )
            assert bounded.found, (name, zero_preemption[name])
        else:
            assert r["cooperative"] == 0.0, name
        if name != "deadlock_self":  # fails on every schedule
            assert r["random"] < 1.0, name


def test_preemption_bound_two_reaches_every_bug(benchmark):
    """CHESS-style observation: two preemptions expose every kernel."""

    def check():
        reached = {}
        for kernel in all_kernels():
            explorer = Explorer(kernel.buggy, preemption_bound=2)
            result = explorer.explore(predicate=kernel.failure, stop_on_first=True)
            reached[kernel.name] = result.found
        return reached

    reached = benchmark.pedantic(check, rounds=1, iterations=1)
    assert all(reached.values()), reached
    print()
    for name in reached:
        print(f"  {name}: found within preemption bound 2")
