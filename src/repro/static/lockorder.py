"""Static lock-order graph: acquisition cycles as deadlock candidates.

The dynamic Goodlock pass (:mod:`repro.detectors.deadlock`) builds its
graph from one observed trace; this module builds the same graph from the
must-hold contexts of :func:`repro.static.lockset.site_contexts` — every
*blocking* acquisition site contributes an edge ``held -> acquired`` for
each resource provably held at the site.  A cycle means some schedule can
deadlock, before any schedule has run.

Three deliberate deviations from a naive textbook construction, each tied
to a kernel in the registry:

* **TryAcquire adds no edges.**  A try-lock never blocks, so it cannot
  participate in a circular wait — the "give up the resource" deadlock
  fix (``deadlock_abba``'s alternative fix) is built on exactly this, and
  edging try-acquisitions would re-flag the fixed program.
* **Mutex self-edges need one thread, rwlock self-edges need two.**
  Re-acquiring a held non-recursive mutex deadlocks the thread on itself
  (``deadlock_self``).  Requesting write mode while holding read mode
  only deadlocks when *another* reader is also upgrading — a sole reader
  upgrades in place (``deadlock_rwlock_upgrade``) — so the upgrade
  self-edge becomes a candidate only with two distinct upgrading threads.
* **Multi-resource cycles need two distinct witness threads.**  One
  thread acquiring ``A -> B`` and later ``B -> A`` in sequence cannot
  deadlock alone; the cycle is real only when distinct threads drive at
  least two of its edges.

``Wait`` sites also contribute edges: parking releases the condition's
mutex but the *re-acquisition* after wake-up happens while still holding
every other lock, exactly like the dynamic tracker's handling of
``WaitResumeEvent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.sim.sync import lock_cycles
from repro.static.lockset import SiteContext, StaticCandidate
from repro.static.summary import OpSite, ProgramSummary

__all__ = [
    "StaticLockEdge",
    "build_static_lock_order",
    "deadlock_candidates",
]


@dataclass(frozen=True)
class StaticLockEdge:
    """One ``held -> acquired`` witness.

    ``src_site`` is where the witness thread took the held resource
    (``None`` when the acquisition site could not be pinned down);
    ``dst_site`` is the blocking acquisition contributing the edge.  The
    target-pair extractor turns these directly into scheduling goals.
    """

    src: str
    dst: str
    thread: str
    src_site: Optional[OpSite]
    dst_site: OpSite
    upgrade: bool = False  # rwlock read-hold -> write-request self-edge


def build_static_lock_order(
    summary: ProgramSummary, contexts: Dict[str, List[SiteContext]]
) -> "nx.DiGraph":
    """Directed graph over lock/rwlock names; edges carry witness lists."""
    graph = nx.DiGraph()
    for name in list(summary.locks) + list(summary.rwlocks):
        graph.add_node(name)
    for thread, ctxs in contexts.items():
        # Pre-order scan remembering where each held resource was taken,
        # so edge witnesses can name both sites of the inversion.
        acquired_at: Dict[str, OpSite] = {}
        for ctx in ctxs:
            kind, obj = ctx.site.kind, ctx.site.obj
            if obj is None:
                continue
            if kind == "acquire":
                _add_edges(graph, ctx, obj, acquired_at, include_self=True)
                acquired_at[obj] = ctx.site
            elif kind == "tryacquire":
                # Never blocks: no edges, but it does hold on success.
                acquired_at[obj] = ctx.site
            elif kind in ("acquire_read", "acquire_write"):
                upgrading = kind == "acquire_write" and obj in ctx.rw_names
                _add_edges(
                    graph, ctx, obj, acquired_at,
                    include_self=upgrading, upgrade=upgrading,
                )
                if not upgrading:
                    acquired_at[obj] = ctx.site
            elif kind == "wait":
                mutex = summary.conditions.get(obj)
                if mutex is not None and mutex in ctx.mutex_names:
                    # The post-notification re-acquisition of the mutex
                    # happens while every *other* held lock stays held.
                    reacquire = SiteContext(
                        site=ctx.site,
                        mutexes=frozenset(
                            (lock, gen)
                            for lock, gen in ctx.mutexes
                            if lock != mutex
                        ),
                        rw_modes=ctx.rw_modes,
                    )
                    _add_edges(graph, reacquire, mutex, acquired_at, include_self=False)
    return graph


def _add_edges(
    graph: "nx.DiGraph",
    ctx: SiteContext,
    acquired: str,
    acquired_at: Dict[str, OpSite],
    include_self: bool,
    upgrade: bool = False,
) -> None:
    held = set(ctx.mutex_names) | set(ctx.rw_names)
    for src in sorted(held):
        if src == acquired and not include_self:
            continue
        witness = StaticLockEdge(
            src=src,
            dst=acquired,
            thread=ctx.site.thread,
            src_site=acquired_at.get(src),
            dst_site=ctx.site,
            upgrade=upgrade and src == acquired,
        )
        if graph.has_edge(src, acquired):
            graph.edges[src, acquired]["witnesses"].append(witness)
        else:
            graph.add_edge(src, acquired, witnesses=[witness])


def deadlock_candidates(
    summary: ProgramSummary, contexts: Dict[str, List[SiteContext]]
) -> List[StaticCandidate]:
    """Acquisition cycles that at least one schedule can turn into deadlock."""
    graph = build_static_lock_order(summary, contexts)
    out: List[StaticCandidate] = []
    seen: Set[frozenset] = set()
    for cycle in lock_cycles(graph):
        key = frozenset(cycle)
        if key in seen:
            continue
        seen.add(key)
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        witnesses: List[StaticLockEdge] = []
        for src, dst in edges:
            witnesses.extend(graph.edges[src, dst]["witnesses"])
        threads = sorted({w.thread for w in witnesses})
        sites = tuple(sorted({w.dst_site.describe() for w in witnesses}))
        if len(cycle) == 1:
            candidate = _self_cycle(cycle[0], summary, witnesses, threads, sites)
            if candidate is not None:
                out.append(candidate)
            continue
        if len(threads) < 2:
            out.append(
                StaticCandidate(
                    kind="deadlock",
                    description=(
                        f"acquisition cycle {' -> '.join(cycle + [cycle[0]])} "
                        f"is driven by a single thread and cannot close"
                    ),
                    threads=tuple(threads),
                    resources=tuple(sorted(key)),
                    sites=sites,
                    suppressed=True,
                    reason="all cycle edges belong to one thread",
                )
            )
            continue
        out.append(
            StaticCandidate(
                kind="deadlock",
                description=(
                    f"lock-order cycle {' -> '.join(cycle + [cycle[0]])}: "
                    f"{len(threads)} threads acquire these resources in "
                    f"conflicting orders"
                ),
                threads=tuple(threads),
                resources=tuple(sorted(key)),
                sites=sites,
            )
        )
    return out


def _self_cycle(
    resource: str,
    summary: ProgramSummary,
    witnesses: Sequence[StaticLockEdge],
    threads: Sequence[str],
    sites: Tuple[str, ...],
) -> StaticCandidate:
    """A self-edge: mutex re-acquisition or rwlock in-place upgrade."""
    if resource in summary.rwlocks:
        upgraders = sorted({w.thread for w in witnesses if w.upgrade})
        if len(upgraders) < 2:
            return StaticCandidate(
                kind="deadlock",
                description=(
                    f"in-place upgrade of rwlock {resource!r} by a sole "
                    f"reader succeeds"
                ),
                threads=tuple(upgraders),
                resources=(resource,),
                sites=sites,
                suppressed=True,
                reason="a single upgrading reader drains itself",
            )
        return StaticCandidate(
            kind="deadlock",
            description=(
                f"rwlock upgrade deadlock on {resource!r}: "
                f"{', '.join(upgraders)} all request write mode while "
                f"holding read mode; each waits for the others to drain"
            ),
            threads=tuple(upgraders),
            resources=(resource,),
            sites=sites,
        )
    return StaticCandidate(
        kind="deadlock",
        description=(
            f"self-deadlock: {resource!r} is re-acquired while already "
            f"held (non-recursive mutex waits on itself)"
        ),
        threads=tuple(threads),
        resources=(resource,),
        sites=sites,
    )
