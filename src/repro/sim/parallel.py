"""Parallel interleaving exploration: work-stealing over schedule prefixes.

:class:`ParallelExplorer` splits the schedule tree of
:class:`~repro.sim.explorer.Explorer` by *prefix*: a short serial phase
expands the DFS stack until it holds enough pending prefixes
(``workers * shard_factor``), then the leftover prefixes become work
items explored in worker processes.  Two strategies distribute them:

* ``strategy="steal"`` (the default) — items sit in a shared queue;
  workers pull the next item when free, and a busy worker *donates* the
  serially-last half of its DFS stack back to the queue whenever
  another worker is hungry.  Subtree sizes in this codebase vary by
  orders of magnitude (``multivar_torn_invariant`` shards span 1 to
  hundreds of schedules), so static assignment strands all but one
  worker; stealing keeps them busy to the end.  The ``donation``
  policy tunes the donor side: ``"auto"`` (default) donates only when
  workers actually run concurrently, one donation event feeds every
  hungry worker with its own chunk, and the shared hunger/queue state
  is consulted only every ``_DONATE_TICK`` schedules so the per-run
  hook stays a counter decrement.
* ``strategy="shard"`` — the legacy static split: each leftover prefix
  is one shard, mapped over a process pool.  Kept for comparison
  benchmarks and as the semantics baseline.

Workers share nothing but the queues, so the pure-python engine escapes
the GIL via ``multiprocessing`` with the ``fork`` start method — the
program's thread bodies are generator closures, which ``fork`` inherits
for free where pickling would fail.  Only schedule prefixes travel to
the workers and only :class:`ExplorationResult`\\ s travel back.

**Merge semantics.**  The DFS stack is LIFO, so the serial exploration
order is exactly: the root-phase runs, then the subtree of the topmost
leftover prefix, then the next one down, and so on.  Donations preserve
this order: a worker donates from the *bottom* of its stack — subtrees
that serially follow everything it will still run itself — and each
donated item's sort key extends its donor's, so sorting items by key
reconstructs serial DFS order no matter which worker ran what, or when.
A *complete* parallel exploration therefore reproduces the serial
result exactly — same outcome tallies, same match count, same
``matching`` list, same first match, same
``schedules_to_first_finding``.  With ``stop_on_first`` the merge
discards every item after (in serial order) the first matching one,
again reproducing the serial result; the later items' work is wasted,
not wrong.  The one intentional deviation: the ``max_schedules`` budget
is enforced *per item* (each gets the budget left after the root
phase), so a budget-exhausted parallel search may run more total
schedules than a serial one — deterministically so for a fixed worker
count under ``strategy="shard"``, but timing-dependently under
``strategy="steal"``, where the item boundaries themselves depend on
when workers went hungry.  Complete searches are deterministic under
both.

``memoize=True`` composes: each item prunes revisited states with its
own :class:`~repro.sim.statecache.StateCache`.  Caches are per-process,
so states revisited *across* items are re-explored (lost hits, never
false ones); the outcome-set guarantee is unaffected.

Falls back to in-process sequential execution when ``fork`` is
unavailable (non-POSIX platforms), ``workers=1``, or the machine has a
single CPU (forking CPU-bound work onto one core is pure overhead) —
same items, same results, same merge path, no pool and no stealing
(there is never a hungry worker to steal for).  ``pool="fork"`` forces
worker processes regardless (raising :class:`ValueError` at
construction if the ``fork`` start method is unavailable, rather than
silently degrading) and ``pool="none"`` forbids them.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.sim.engine import EnabledFilter
from repro.sim.frontier import reject_slicing
from repro.sim.explorer import (
    ExplorationResult,
    Explorer,
    Predicate,
    Seed,
    _detach,
    _merge_pipeline_stats,
    _record_exploration,
    _record_pipeline_stats,
)
from repro.sim.program import Program

__all__ = ["ParallelExplorer"]

#: Serial-order sort key of a work item: root items are ``(i,)`` in
#: stack order; an item donated by the item with key ``K`` gets
#: ``K + (-event,)`` where ``event`` counts the donor's donation
#: batches.  Keys sort lexicographically into serial DFS order: a donor
#: precedes all its donations (prefix sorts first) and later batches
#: precede earlier ones — donations always come off the serially-last
#: bottom of the stack, so what is donated later lies earlier in serial
#: order.  Within a batch the prefixes keep their stack order and stay
#: one item, so the batch is a contiguous serial range with one result.
ItemKey = Tuple[int, ...]

#: Worker-process state installed by the pool initializer (inherited via
#: fork, so unpicklable programs/predicates survive the crossing).
_WORKER: Dict[str, Any] = {}

#: How long (seconds) the parent waits on the result queue before
#: checking for dead workers instead of blocking forever.
_RESULT_POLL_SECONDS = 5.0

#: Donation damping: never shrink the local stack below this many
#: prefixes, and run this many schedules between donations so the
#: previous batch can be consumed before granularity drops further.
_DONATE_MIN_STACK = 4
_DONATE_COOLDOWN = 16

#: How many schedules a busy worker runs between *looks* at the shared
#: hunger/queue state.  The steal hook fires after every schedule, so
#: without this gate every iteration pays two cross-process reads
#: (``hungry`` and ``work.empty()``) that almost never lead to a
#: donation — profiling the spans shows the checks, not the donations,
#: are where steal mode loses wall time to shard mode.  Worst case the
#: gate delays a donation by ``_DONATE_TICK - 1`` schedules.
_DONATE_TICK = 8


def _init_worker(program: Program, predicate: Optional[Predicate], options: Dict[str, Any]) -> None:
    _WORKER["program"] = program
    _WORKER["predicate"] = predicate
    _WORKER["options"] = options


def _build_explorer() -> Explorer:
    options = _WORKER["options"]
    factory = options["pipeline_factory"]
    return Explorer(
        _WORKER["program"],
        max_schedules=options["max_schedules"],
        max_steps=options["max_steps"],
        preemption_bound=options["preemption_bound"],
        enabled_filter=options["enabled_filter"],
        keep_matches=options["keep_matches"],
        memoize=options["memoize"],
        # Fresh pipeline per item: the seed's snapshot re-seeds its
        # analysis state, and its reports travel back on the result.
        pipeline=factory() if factory is not None else None,
        targets=options["targets"],
    )


def _explore_shard(seed: Seed) -> ExplorationResult:
    """Explore one prefix subtree to completion; legacy static shard."""
    explorer = _build_explorer()
    prefix, paid, snapshot, _ = seed
    start = perf_counter()
    result, _ = explorer._search(
        [(list(prefix), paid, snapshot, None)],
        _WORKER["predicate"],
        _WORKER["options"]["stop_on_first"],
        None,
    )
    result.wall_seconds = perf_counter() - start
    return result


def _explore_item(
    key: ItemKey,
    seeds: List[Seed],
    work: Any,
    hungry: Any,
    created: Any,
) -> ExplorationResult:
    """Explore one item, donating stack bottoms to hungry workers."""
    explorer = _build_explorer()
    donations = 0
    donated = 0
    donate_seconds = 0.0
    # The hook runs after *every* schedule; keep its common path to a
    # local counter decrement.  Shared state is only consulted every
    # ``_DONATE_TICK`` schedules, and the hunger count is read through
    # the raw shared object — skipping the Value lock is safe because
    # the read is already heuristic (see below).
    countdown = _DONATE_TICK
    hungry_raw = hungry.get_obj()

    def steal_hook(stack: List[Seed]) -> None:
        nonlocal donations, donated, donate_seconds, countdown
        countdown -= 1
        if countdown > 0:
            return
        countdown = _DONATE_TICK
        # Damping: a donation must be worth its queue crossing, so keep
        # at least ``_DONATE_MIN_STACK`` prefixes and let the last
        # donation be consumed before making another.  Without this an
        # oversubscribed machine (more workers than cores) shreds the
        # stack into single prefixes — the hungry workers hold stolen
        # items but never get CPU to clear their hunger.
        # ``hungry`` and ``empty`` are heuristic reads (racy by
        # design): a false positive donates a batch that queues
        # briefly, a false negative delays donation one tick.
        # Correctness never depends on them — only load balance does.
        # Gating on an empty queue keeps the granularity adaptive: no
        # donation while undistributed work already exists.
        if len(stack) < _DONATE_MIN_STACK:
            return
        eaters = hungry_raw.value
        if eaters <= 0 or not work.empty():
            return
        begin = perf_counter()
        # The stack bottom is the serially-last subtree.  One donation
        # event cuts the bottom half into up to ``eaters`` chunks — one
        # per hungry worker — so a single look at the shared state can
        # feed the whole idle pool instead of one worker per cooldown.
        # Each chunk travels as *one* item keeping its stack order, so
        # the receiving worker explores it top-first — the same
        # contiguous serial range the donor would have — and may
        # re-split it.
        take = len(stack) // 2
        chunks = max(1, min(eaters, take // 2))
        size = take // chunks
        batches = []
        # Chunks are emitted bottom-first (serially last first); later
        # emissions get more-negative keys, matching the invariant that
        # later-donated work sorts serially earlier.
        for cut in range(chunks):
            low = cut * size
            high = take if cut == chunks - 1 else low + size
            batches.append(_detach(stack[low:high]))
        del stack[:take]
        # Count the items *before* they are queued so the parent's "all
        # created items have reported" termination check can never
        # observe a result for an uncounted item.
        with created.get_lock():
            created.value += len(batches)
        for batch in batches:
            donations += 1
            work.put((key + (-donations,), batch))
            donated += len(batch)
        countdown = _DONATE_COOLDOWN
        donate_seconds += perf_counter() - begin

    options = _WORKER["options"]
    stack = [
        (list(prefix), paid, snapshot, None)
        for prefix, paid, snapshot, _ in seeds
    ]
    start = perf_counter()
    result, _ = explorer._search(
        stack,
        _WORKER["predicate"],
        options["stop_on_first"],
        None,
        steal_hook=steal_hook if options.get("donate", True) else None,
    )
    result.wall_seconds = perf_counter() - start
    result.steal_donations = donations
    result.stolen_prefixes = donated
    result.donate_seconds = donate_seconds
    return result


def _steal_worker(
    work: Any,
    results: Any,
    hungry: Any,
    created: Any,
    program: Program,
    predicate: Optional[Predicate],
    options: Dict[str, Any],
) -> None:
    """Worker loop: pull items until the ``None`` sentinel arrives."""
    _init_worker(program, predicate, options)
    while True:
        waited_from = perf_counter()
        try:
            # Fast path: if work is already queued, take it without
            # advertising hunger — this skips two lock round-trips per
            # item and keeps busy donors from seeing phantom eaters.
            item = work.get_nowait()
        except queue_mod.Empty:
            with hungry.get_lock():
                hungry.value += 1
            try:
                item = work.get()
            finally:
                with hungry.get_lock():
                    hungry.value -= 1
        if item is None:
            break
        key, seeds = item
        result = _explore_item(key, seeds, work, hungry, created)
        # Idle time spent waiting for *this* item; the final wait for
        # the sentinel is shutdown, not load imbalance, and is excluded.
        result.idle_seconds = perf_counter() - waited_from - result.wall_seconds
        results.put((key, result))


class ParallelExplorer:
    """Work-stealing exploration across a process pool.

    Drop-in for :class:`Explorer`: same constructor bounds, same
    ``explore`` signature, same :class:`ExplorationResult`.  ``workers``
    defaults to the CPU count; ``shard_factor`` controls how many
    initial items are cut per worker; ``strategy`` selects work-stealing
    (``"steal"``, default) or the legacy static prefix sharding
    (``"shard"``).
    """

    def __init__(
        self,
        program: Program,
        workers: Optional[int] = None,
        max_schedules: int = 20000,
        max_steps: int = 5000,
        preemption_bound: Optional[int] = None,
        enabled_filter: Optional[EnabledFilter] = None,
        keep_matches: int = 16,
        memoize: bool = False,
        shard_factor: int = 4,
        pool: str = "auto",
        strategy: str = "steal",
        donation: str = "auto",
        pipeline_factory: Optional[Any] = None,
        targets: Optional[List[Any]] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if pool not in ("auto", "fork", "none"):
            raise ValueError(f"pool must be 'auto', 'fork', or 'none', got {pool!r}")
        if strategy not in ("steal", "shard"):
            raise ValueError(
                f"strategy must be 'steal' or 'shard', got {strategy!r}"
            )
        if donation not in ("auto", "always", "never"):
            raise ValueError(
                f"donation must be 'auto', 'always', or 'never', "
                f"got {donation!r}"
            )
        if pool == "fork" and "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "pool='fork' requested but the 'fork' start method is not "
                "available on this platform; use pool='auto' to fall back "
                "to in-process execution"
            )
        self.program = program
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.max_schedules = max_schedules
        self.max_steps = max_steps
        self.preemption_bound = preemption_bound
        self.enabled_filter = enabled_filter
        self.keep_matches = keep_matches
        self.memoize = memoize
        self.shard_factor = shard_factor
        self.pool = pool
        self.strategy = strategy
        #: Stack-donation policy under ``strategy="steal"``: ``"auto"``
        #: donates only when the machine actually runs workers
        #: concurrently (more than one CPU — on a single core the donor
        #: and the eater time-share, so splitting work buys nothing and
        #: the queue crossings are pure overhead), ``"always"`` forces
        #: donation regardless (benchmarks use this to exercise the
        #: path), ``"never"`` disables it (items stay indivisible).
        self.donation = donation
        #: Zero-argument callable building a fresh streaming detector
        #: pipeline; called once for the root phase and once per item
        #: (pipelines are stateful, so items cannot share an instance).
        self.pipeline_factory = pipeline_factory
        #: Target pairs for race-directed exploration, shared by the
        #: root phase and every item (pairs are immutable value objects,
        #: so one list crosses the fork safely).  Directed ordering only
        #: permutes each node's sibling pushes, so item *contents* are
        #: unchanged — item order on the stack is what shifts.
        self.targets = list(targets) if targets else None

    def explore(
        self,
        predicate: Optional[Predicate] = None,
        stop_on_first: bool = False,
        *,
        slice_budget: Optional[int] = None,
        frontier: Optional[Any] = None,
    ) -> ExplorationResult:
        """Run the parallel search; result fields as in :class:`Explorer`.

        Refuses ``slice_budget``/``frontier`` (``ValueError``): the
        in-flight worker stacks are not serially meaningful mid-round.
        Slice a serial search instead, or run the parallel one to
        completion.
        """
        reject_slicing(
            "workers > 1",
            "the in-flight worker stacks of a sharded/work-stealing search "
            "are not serially meaningful mid-round; slice the serial "
            "explorer or run the parallel search to completion",
            slice_budget, frontier,
        )
        start = perf_counter()
        factory = self.pipeline_factory
        serial = Explorer(
            self.program,
            max_schedules=self.max_schedules,
            max_steps=self.max_steps,
            preemption_bound=self.preemption_bound,
            enabled_filter=self.enabled_filter,
            keep_matches=self.keep_matches,
            memoize=self.memoize,
            pipeline=factory() if factory is not None else None,
            targets=self.targets,
        )
        target = max(2, self.workers * self.shard_factor)
        root, frontier = serial._search(
            [([], 0, None, None)], predicate, stop_on_first, target
        )
        # Root phase finished the whole tree, exhausted the budget, or
        # matched with stop_on_first: nothing left to distribute.
        if not frontier or not root.complete or (stop_on_first and root.found):
            root.wall_seconds = perf_counter() - start
            self._record(root, [])
            return root
        # Top of the LIFO stack first = serial DFS subtree order.  Items
        # run in other processes, so they replay with emission.
        shards: List[Seed] = _detach(list(reversed(frontier)))
        attempts_root = root.schedules_run + root.cache_hits
        shard_budget = max(1, self.max_schedules - attempts_root)
        with obs_profile.span("parallel.dispatch"):
            shard_results = self._run_items(
                shards, predicate, stop_on_first, shard_budget
            )
        with obs_profile.span("parallel.merge"):
            merged = _merge(
                root, shard_results, self.keep_matches, stop_on_first,
                len(shard_results),
            )
        merged.wall_seconds = perf_counter() - start
        self._record(merged, shard_results)
        return merged

    # -- internals -----------------------------------------------------------

    def _record(
        self,
        merged: ExplorationResult,
        shard_results: List[ExplorationResult],
    ) -> None:
        """Publish the merged search plus per-item balance metrics.

        Worker processes cannot reach the parent registry, so every
        per-item number is taken from the ``ExplorationResult`` the
        item sent back — including its state-cache totals, which is
        why the parallel path publishes ``statecache.*`` itself instead
        of via :meth:`StateCache.record_metrics`.
        """
        registry = obs_metrics.active()
        if registry is not None:
            program = self.program.name
            registry.inc("parallel.explorations", 1, program=program)
            registry.inc(
                "parallel.shards_run", len(shard_results), program=program
            )
            for index, shard in enumerate(shard_results):
                registry.set_gauge(
                    "parallel.shard_schedules", shard.schedules_run,
                    program=program, shard=index,
                )
                registry.set_gauge(
                    "parallel.shard_wall_seconds", shard.wall_seconds,
                    program=program, shard=index,
                )
                registry.observe(
                    "parallel.shard_schedules_balance", shard.schedules_run,
                    program=program,
                )
                registry.observe(
                    "parallel.shard_wall_seconds_balance", shard.wall_seconds,
                    program=program,
                )
            if self.strategy == "steal" and shard_results:
                registry.inc(
                    "parallel.steal_donations", merged.steal_donations,
                    program=program,
                )
                registry.inc(
                    "parallel.steal_prefixes", merged.stolen_prefixes,
                    program=program,
                )
                registry.observe(
                    "parallel.steal_idle_seconds", merged.idle_seconds,
                    program=program,
                )
                registry.observe(
                    "parallel.steal_donate_seconds", merged.donate_seconds,
                    program=program,
                )
            if self.memoize:
                registry.inc(
                    "statecache.lookups", merged.cache_lookups, program=program
                )
                registry.inc(
                    "statecache.hits", merged.cache_hits, program=program
                )
                registry.set_gauge(
                    "statecache.size", merged.cache_states, program=program
                )
        if merged.pipeline_stats is not None:
            _record_pipeline_stats(merged.pipeline_stats, self.program.name)
        _record_exploration(merged, "parallel")

    def _run_items(
        self,
        shards: List[Seed],
        predicate: Optional[Predicate],
        stop_on_first: bool,
        shard_budget: int,
    ) -> List[ExplorationResult]:
        """Explore the frontier items; results in serial DFS order."""
        options = {
            "max_schedules": shard_budget,
            "max_steps": self.max_steps,
            "preemption_bound": self.preemption_bound,
            "enabled_filter": self.enabled_filter,
            "keep_matches": self.keep_matches,
            "memoize": self.memoize,
            "stop_on_first": stop_on_first,
            "pipeline_factory": self.pipeline_factory,
            "targets": self.targets,
            "donate": self._donate_enabled(),
        }
        if not self._use_pool():
            # In-process fallback: identical results, no pool.  Stealing
            # is moot with one sequential worker — nothing is ever
            # hungry — so both strategies take the static path.
            _init_worker(self.program, predicate, options)
            try:
                return [_explore_shard(seed) for seed in shards]
            finally:
                _WORKER.clear()
        if self.strategy == "shard":
            context = multiprocessing.get_context("fork")
            with context.Pool(
                processes=min(self.workers, len(shards)),
                initializer=_init_worker,
                initargs=(self.program, predicate, options),
            ) as pool:
                return pool.map(_explore_shard, shards)
        return self._run_steal(shards, predicate, options)

    def _run_steal(
        self,
        shards: List[Seed],
        predicate: Optional[Predicate],
        options: Dict[str, Any],
    ) -> List[ExplorationResult]:
        context = multiprocessing.get_context("fork")
        work = context.Queue()
        results = context.Queue()
        hungry = context.Value("i", 0)
        created = context.Value("i", len(shards))
        for index, seed in enumerate(shards):
            work.put(((index,), [seed]))
        procs = [
            context.Process(
                target=_steal_worker,
                args=(
                    work, results, hungry, created,
                    self.program, predicate, options,
                ),
                daemon=True,
            )
            for _ in range(self.workers)
        ]
        for proc in procs:
            proc.start()
        collected: List[Tuple[ItemKey, ExplorationResult]] = []
        try:
            while True:
                # Donors bump ``created`` before queueing, and a donor's
                # own result always lands after its donations are
                # counted — so "every created item has reported" is a
                # race-free termination condition.
                with created.get_lock():
                    total = created.value
                if len(collected) >= total:
                    break
                try:
                    collected.append(
                        results.get(timeout=_RESULT_POLL_SECONDS)
                    )
                except queue_mod.Empty:
                    if any(not proc.is_alive() for proc in procs):
                        raise RuntimeError(
                            "a parallel exploration worker died before "
                            "reporting its items"
                        )
        finally:
            for _ in procs:
                work.put(None)
            for proc in procs:
                proc.join()
        collected.sort(key=lambda item: item[0])
        return [result for _, result in collected]

    def _donate_enabled(self) -> bool:
        if self.donation == "always":
            return True
        if self.donation == "never":
            return False
        # auto: donation only helps when another worker can actually
        # run the stolen batch concurrently.
        return self.workers > 1 and (os.cpu_count() or 1) > 1

    def _use_pool(self) -> bool:
        # pool="fork" availability is validated in __init__, so forcing
        # here cannot silently degrade.
        if self.pool == "fork":
            return True
        if self.pool == "none" or self.workers <= 1:
            return False
        if "fork" not in multiprocessing.get_all_start_methods():
            return False
        # auto: a pool only pays off with more than one core to run on.
        return (os.cpu_count() or 1) > 1


def _merge(
    merged: ExplorationResult,
    shard_results: List[ExplorationResult],
    keep_matches: int,
    stop_on_first: bool,
    shards: int,
) -> ExplorationResult:
    """Fold item results into the root result, in serial DFS order."""
    merged.shards = shards
    for shard in shard_results:
        if merged.first_match_schedule is None and shard.first_match_schedule:
            merged.first_match_schedule = list(shard.first_match_schedule)
            if shard.schedules_to_first_finding is not None:
                # Serial-order position: every completed run merged so
                # far precedes this item, which found its match after
                # its own first ``schedules_to_first_finding`` runs.
                merged.schedules_to_first_finding = (
                    merged.schedules_run + shard.schedules_to_first_finding
                )
        merged.schedules_run += shard.schedules_run
        merged.cache_hits += shard.cache_hits
        merged.states_expanded += shard.states_expanded
        merged.preemptions_spent += shard.preemptions_spent
        merged.cache_lookups += shard.cache_lookups
        merged.cache_states += shard.cache_states
        merged.steal_donations += shard.steal_donations
        merged.stolen_prefixes += shard.stolen_prefixes
        merged.idle_seconds += shard.idle_seconds
        merged.donate_seconds += shard.donate_seconds
        merged.statuses.update(shard.statuses)
        for outcome, count in shard.outcomes.items():
            merged.outcomes[outcome] = merged.outcomes.get(outcome, 0) + count
        merged.match_count += shard.match_count
        for run in shard.matching:
            if len(merged.matching) >= keep_matches:
                break
            merged.matching.append(run)
        merged.complete = merged.complete and shard.complete
        if shard.detector_reports:
            # Prefix findings already live in the root result's reports
            # (reports are append-only along the serial root phase); the
            # shard contributes the findings of its subtree.  ``add``
            # de-duplicates, so overlap is harmless.
            if merged.detector_reports is None:
                merged.detector_reports = dict(shard.detector_reports)
            else:
                for name, report in shard.detector_reports.items():
                    target = merged.detector_reports.get(name)
                    if target is None:
                        merged.detector_reports[name] = report
                    else:
                        for finding in report:
                            target.add(finding)
        merged.pipeline_stats = _merge_pipeline_stats(
            merged.pipeline_stats, shard.pipeline_stats
        )
        if stop_on_first and shard.match_count:
            # Serial search would have stopped inside this item; the
            # remaining items' results are redundant work, not part of
            # the answer.
            merged.complete = False
            break
    return merged
