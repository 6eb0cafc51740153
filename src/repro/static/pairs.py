"""Ranked target pairs: turning static candidates into scheduling goals.

The study's Finding 8 says enforcing an order among at most four memory
accesses makes almost every bug manifest.  This module derives those
orders *statically*: each candidate from the lockset and lock-order
passes is compiled into one or more :class:`TargetPair` objects — "try to
run ``first`` before ``second``" — which directed exploration
(``Explorer(targets=...)``) uses to sort branch choices.  The pair
shapes, by descending score:

* **deadlock cycles** (score 90) — for each edge of an acquisition
  cycle, the thread's first acquisition must land before the previous
  thread's second; for rwlock upgrades, every read hold must land before
  any upgrade request.
* **atomicity wedges** (score 85) — the remote conflicting access is
  wedged between a thread's local pair: ``(local1, remote)`` and
  ``(remote, local2)``.
* **order pairs** (score 80/60) — for a sentinel-initialised variable the
  read must win the race against the initialising write; for a
  truthy-initialised variable the teardown-style write is pushed before
  the read instead.
* **generic race pairs** (score 50) — both orders of an unprotected
  conflicting pair, when no sharper shape applies.

A :class:`TargetSite` matches a pending operation by thread, kind, and
resource (via :func:`repro.sim.ops.op_kind`), plus label when the static
site carries one — unlabeled sites match any same-kind access so the
dynamic fallback's labelless summaries still direct usefully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.sim.ops import Op, op_kind
from repro.sim.sync import lock_cycles
from repro.static.lockorder import StaticLockEdge, build_static_lock_order
from repro.static.lockset import SiteContext, StaticCandidate
from repro.static.summary import OpSite, ProgramSummary, exclusive

__all__ = ["TargetSite", "TargetPair", "target_pairs"]


@dataclass(frozen=True)
class TargetSite:
    """A static access point a pending operation can be matched against."""

    thread: str
    kind: str
    obj: Optional[str]
    label: Optional[str] = None

    @classmethod
    def of(cls, site: OpSite) -> "TargetSite":
        return cls(thread=site.thread, kind=site.kind, obj=site.obj, label=site.label)

    def matches(self, thread: str, op: Op) -> bool:
        """Does ``thread``'s pending ``op`` execute this site?"""
        if thread != self.thread:
            return False
        kind, obj = op_kind(op)
        if kind != self.kind or obj != self.obj:
            return False
        if self.label is not None and getattr(op, "label", None) != self.label:
            return False
        return True

    def describe(self) -> str:
        """Compact rendering used in pair listings and the run log."""
        where = self.label or self.thread
        return f"{where}:{self.kind}({self.obj!r})"


@dataclass(frozen=True)
class TargetPair:
    """Scheduling goal: make ``first`` execute before ``second``."""

    first: TargetSite
    second: TargetSite
    score: int
    reason: str

    def describe(self) -> str:
        """One-line rendering: score, both sites, and the why."""
        return (
            f"[{self.score}] {self.first.describe()} -> "
            f"{self.second.describe()} ({self.reason})"
        )


def target_pairs(
    summary: ProgramSummary,
    contexts: Dict[str, List[SiteContext]],
    candidates: Sequence[StaticCandidate],
) -> List[TargetPair]:
    """All pairs for the active candidates, best score first, deduplicated."""
    active = [c for c in candidates if not c.suppressed]
    collected: List[TargetPair] = []
    collected.extend(_deadlock_pairs(summary, contexts))
    collected.extend(_atomicity_pairs(summary, active, contexts))
    collected.extend(_order_pairs(summary, active, contexts))
    collected.extend(_generic_race_pairs(active, contexts))
    best: Dict[Tuple[TargetSite, TargetSite], TargetPair] = {}
    for pair in collected:
        if pair.first.obj is None or pair.second.obj is None:
            continue
        if pair.first.thread == pair.second.thread:
            continue  # same-thread order is program order already
        key = (pair.first, pair.second)
        kept = best.get(key)
        if kept is None or pair.score > kept.score:
            best[key] = pair
    return sorted(
        best.values(),
        key=lambda p: (-p.score, p.first.thread, p.first.kind, str(p.first.obj)),
    )


# -- deadlock cycles ---------------------------------------------------------


def _deadlock_pairs(
    summary: ProgramSummary, contexts: Dict[str, List[SiteContext]]
) -> List[TargetPair]:
    graph = build_static_lock_order(summary, contexts)
    out: List[TargetPair] = []
    seen: Set[frozenset] = set()
    for cycle in lock_cycles(graph):
        key = frozenset(cycle)
        if key in seen:
            continue
        seen.add(key)
        if len(cycle) == 1:
            out.extend(_upgrade_cycle_pairs(cycle[0], graph, summary))
            continue
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        witnesses: List[StaticLockEdge] = [
            graph.edges[src, dst]["witnesses"][0] for src, dst in edges
        ]
        if len({w.thread for w in witnesses}) < 2:
            continue
        order = " -> ".join(cycle + [cycle[0]])
        # Each thread's first acquisition (of src_i) must precede the
        # previous thread's second acquisition (of dst_{i-1} == src_i):
        # then every cycle participant holds its first resource before
        # anyone grabs a second one, and the wait closes.
        for i, witness in enumerate(witnesses):
            prev = witnesses[i - 1]
            if witness.src_site is None or witness.thread == prev.thread:
                continue
            out.append(
                TargetPair(
                    first=TargetSite.of(witness.src_site),
                    second=TargetSite.of(prev.dst_site),
                    score=90,
                    reason=f"close lock-order cycle {order}",
                )
            )
    return out


def _upgrade_cycle_pairs(
    resource: str, graph: "nx.DiGraph", summary: ProgramSummary
) -> List[TargetPair]:
    """Both read holds before either upgrade request (rwlock self-edge)."""
    if resource not in summary.rwlocks:
        return []  # mutex self-deadlock manifests in every schedule
    upgrades = [
        w
        for w in graph.edges[resource, resource]["witnesses"]
        if w.upgrade and w.src_site is not None
    ]
    out: List[TargetPair] = []
    for a in upgrades:
        for b in upgrades:
            if a.thread == b.thread:
                continue
            out.append(
                TargetPair(
                    first=TargetSite.of(a.src_site),
                    second=TargetSite.of(b.dst_site),
                    score=90,
                    reason=f"overlap read holds of {resource!r} before upgrades",
                )
            )
    return out


# -- atomicity wedges --------------------------------------------------------


def _local_pair(
    summary: ProgramSummary, local: Sequence[SiteContext]
) -> Optional[Tuple[SiteContext, SiteContext]]:
    """The local access pair a remote op should be wedged between.

    Prefer two accesses in *different* critical sections of the same lock
    (the split-section shape — a remote can only slip in between the
    sections); otherwise the thread's first and last access.
    """
    ordered = sorted(local, key=lambda c: c.site.index)
    fallback: Optional[Tuple[SiteContext, SiteContext]] = None
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if exclusive(summary, a.site, b.site):
                continue
            if fallback is None:
                fallback = (a, b)
            for lock, gen_a in a.mutexes:
                for other, gen_b in b.mutexes:
                    if lock == other and gen_a != gen_b:
                        return a, b
    return fallback


def _atomicity_pairs(
    summary: ProgramSummary,
    candidates: Sequence[StaticCandidate],
    contexts: Dict[str, List[SiteContext]],
) -> List[TargetPair]:
    by_var = _memory_by_var(contexts)
    out: List[TargetPair] = []
    for cand in candidates:
        if cand.kind != "atomicity-violation":
            continue
        var = cand.variables[0]
        by_thread: Dict[str, List[SiteContext]] = {}
        for ctx in by_var.get(var, ()):
            by_thread.setdefault(ctx.site.thread, []).append(ctx)
        for thread in sorted(by_thread):
            local = by_thread[thread]
            pair = _local_pair(summary, local)
            if pair is None:
                continue
            first, second = pair
            remote = _remote_conflict(first, second, by_thread, thread)
            if remote is None:
                continue
            reason = f"wedge remote access between {thread}'s pair on {var!r}"
            out.append(
                TargetPair(
                    first=TargetSite.of(first.site),
                    second=TargetSite.of(remote.site),
                    score=85,
                    reason=reason,
                )
            )
            out.append(
                TargetPair(
                    first=TargetSite.of(remote.site),
                    second=TargetSite.of(second.site),
                    score=85,
                    reason=reason,
                )
            )
            break  # one wedge per variable directs enough
    return out


def _remote_conflict(
    first: SiteContext,
    second: SiteContext,
    by_thread: Dict[str, List[SiteContext]],
    local_thread: str,
) -> Optional[SiteContext]:
    local_writes = "write" in (first.site.kind, second.site.kind)
    candidates = [
        ctx
        for thread, ctxs in sorted(by_thread.items())
        if thread != local_thread
        for ctx in ctxs
        if ctx.site.kind == "write" or local_writes
    ]
    if not candidates:
        return None
    # A remote write breaks any local pair; fall back to a read, which
    # only conflicts when the local pair writes.
    writes = [c for c in candidates if c.site.kind == "write"]
    return (writes or candidates)[0]


# -- order and generic race pairs -------------------------------------------


def _order_pairs(
    summary: ProgramSummary,
    candidates: Sequence[StaticCandidate],
    contexts: Dict[str, List[SiteContext]],
) -> List[TargetPair]:
    by_var = _memory_by_var(contexts)
    out: List[TargetPair] = []
    for cand in candidates:
        if cand.kind == "order-violation":
            if not cand.variables:
                continue  # channel-level shapes carry no memory variable
            # Sentinel start: the read must beat the initialising write.
            var = cand.variables[0]
            for read, write in _cross_pairs(by_var.get(var, ()), "read", "write"):
                out.append(
                    TargetPair(
                        first=TargetSite.of(read.site),
                        second=TargetSite.of(write.site),
                        score=80,
                        reason=f"consume {var!r} before its initialising write",
                    )
                )
        elif cand.kind == "data-race":
            var = cand.variables[0]
            if var in summary.initial and summary.initial[var] not in (None, False):
                # Truthy start: push the teardown-style write before the
                # read so the consumer observes the destroyed state.
                for read, write in _cross_pairs(by_var.get(var, ()), "read", "write"):
                    out.append(
                        TargetPair(
                            first=TargetSite.of(write.site),
                            second=TargetSite.of(read.site),
                            score=60,
                            reason=f"expose overwritten {var!r} to the reader",
                        )
                    )
    return out


def _generic_race_pairs(
    candidates: Sequence[StaticCandidate],
    contexts: Dict[str, List[SiteContext]],
) -> List[TargetPair]:
    by_var = _memory_by_var(contexts)
    out: List[TargetPair] = []
    for cand in candidates:
        if cand.kind != "data-race":
            continue
        var = cand.variables[0]
        ctxs = by_var.get(var, ())
        conflicting = [
            (a, b)
            for i, a in enumerate(ctxs)
            for b in ctxs[i + 1 :]
            if a.site.thread != b.site.thread
            and "write" in (a.site.kind, b.site.kind)
            and _unprotected(a, b)
        ]
        if not conflicting:
            continue
        a, b = conflicting[0]
        reason = f"exercise both orders of the race on {var!r}"
        out.append(
            TargetPair(
                first=TargetSite.of(a.site), second=TargetSite.of(b.site),
                score=50, reason=reason,
            )
        )
        out.append(
            TargetPair(
                first=TargetSite.of(b.site), second=TargetSite.of(a.site),
                score=50, reason=reason,
            )
        )
    return out


def _unprotected(a: SiteContext, b: SiteContext) -> bool:
    return not (a.mutex_names & b.mutex_names) and not (a.rw_names & b.rw_names)


def _memory_by_var(
    contexts: Dict[str, List[SiteContext]],
) -> Dict[str, List[SiteContext]]:
    by_var: Dict[str, List[SiteContext]] = {}
    for ctxs in contexts.values():
        for ctx in ctxs:
            if ctx.site.kind in ("read", "write") and ctx.site.obj is not None:
                by_var.setdefault(ctx.site.obj, []).append(ctx)
    return by_var


def _cross_pairs(
    ctxs: Sequence[SiteContext], first_kind: str, second_kind: str
) -> List[Tuple[SiteContext, SiteContext]]:
    return [
        (a, b)
        for a in ctxs
        if a.site.kind == first_kind
        for b in ctxs
        if b.site.kind == second_kind and b.site.thread != a.site.thread
    ]
