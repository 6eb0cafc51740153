"""Per-thread operation summaries extracted *without running a schedule*.

A thread body is a generator function whose every shared-state
interaction is a ``yield``-ed :class:`~repro.sim.ops.Op`.  That makes the
body statically legible: parsing its source with :mod:`ast` recovers the
sequence of operation *sites* — kind, resource name, label, and control
structure — exactly the information the ASPLOS'08 study's pattern
taxonomy is phrased in (which accesses, under which locks, in which
order).  Extraction costs microseconds; no engine, no schedule.

Two extraction strategies, tried in order:

1. **AST** (:func:`_extract_ast`) — ``inspect.getsource`` + ``ast.parse``
   over the generator function.  Closure variables of factory-made bodies
   (``label=f"{tid}.read"``) are resolved through
   ``inspect.getclosurevars``, so kernels built by parameterised factories
   summarize with their concrete labels.  ``if``/``else`` arms become
   :class:`SummaryBranch` nodes and loops :class:`SummaryLoop` nodes, so
   downstream passes can distinguish must-execute from may-execute sites.
2. **Dynamic fallback** (:func:`_extract_dynamic`) — when source is
   unavailable (callables built by ``exec``, C-level callables, lambdas
   wrapping generators), the generator is *symbolically driven*: it is
   instantiated and advanced with abstract responses (declared initial
   values, then truth-flipped stand-ins, never touching engine or shared
   state), and the yielded operation instances are recorded.  The result
   is marked ``approximate`` — it covers the paths the abstract values
   steer into, not all of them.

The summary deliberately ignores *values* (what a ``Write`` stores, what
a local computes): the study's findings are about access patterns and
synchronisation shape, which survive value abstraction.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
from dataclasses import dataclass, field, fields
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.sim.ops import OP_KINDS, Op, op_kind
from repro.sim.program import Program

__all__ = [
    "OpSite",
    "SiteGuard",
    "exclusive",
    "SummaryOp",
    "SummaryBranch",
    "SummaryLoop",
    "SummaryDeref",
    "SummaryReturn",
    "ThreadSummary",
    "ProgramSummary",
    "StaticExtractionError",
    "summarize_program",
    "summarize_thread",
]

#: Kinds that read or write a shared variable.
MEMORY_KINDS = frozenset({"read", "write", "atomic"})

#: Kinds that block until a resource is free (edges in the lock-order graph).
BLOCKING_ACQUIRE_KINDS = frozenset({"acquire", "acquire_read", "acquire_write"})


class StaticExtractionError(ReproError):
    """AST extraction failed for a thread body (fallback handles it)."""


@dataclass(frozen=True)
class OpSite:
    """One static operation site in a thread body.

    :param thread: owning thread name.
    :param index: pre-order position within the thread summary.  Pre-order
        respects program order along any single execution path, which is
        what the ordering refinements in the analysis passes rely on.
    :param kind: canonical kind string from :data:`repro.sim.ops.OP_KINDS`.
    :param obj: resource name (variable / lock / rwlock / cond / sem /
        barrier / thread) or ``None`` when unresolvable statically.
    :param label: the site's declared ``label=`` (``None`` if unlabeled).
    :param conditional: the site sits inside an ``if`` arm, loop body, or
        other may-not-execute region.
    :param lineno: source line (AST extraction only).
    """

    thread: str
    index: int
    kind: str
    obj: Optional[str]
    label: Optional[str]
    conditional: bool = False
    lineno: Optional[int] = None

    def describe(self) -> str:
        """Compact rendering used in findings and target-pair reasons."""
        where = self.label or f"{self.thread}#{self.index}"
        target = f"({self.obj!r})" if self.obj is not None else "()"
        return f"{where}:{self.kind}{target}"


#: Guard modes a :class:`SiteGuard` can express — the value tests the
#: real-Python frontend can lift to runnable simulator code and recover
#: losslessly on re-extraction.
GUARD_MODES = ("truthy", "falsy", "is-none", "not-none")


@dataclass(frozen=True)
class SiteGuard:
    """A branch/loop condition phrased as a test of one site's value.

    ``site`` is the :attr:`OpSite.index` of the read/recv whose result is
    tested; ``mode`` is one of :data:`GUARD_MODES`.  The yield-Op DSL
    never produces guards (branch conditions are opaque locals there);
    the real-Python frontend (:mod:`repro.static.pysource`) attaches them
    so the lifter (:mod:`repro.static.lift`) can regenerate an executable
    condition instead of an arbitrary arm choice.
    """

    site: int
    mode: str


@dataclass(frozen=True)
class SummaryOp:
    """Leaf node: one operation site.

    ``value`` carries a statically-resolved write/send payload when the
    real-Python frontend knows it (the DSL extractor abstracts values
    away and leaves it ``None``); analyses ignore it, the lifter uses it.
    """

    site: OpSite
    value: Any = None


@dataclass(frozen=True)
class SummaryBranch:
    """An ``if``/``elif``/``else`` statement: one arm list per branch.

    ``guard`` (frontend summaries only) names the tested site and mode;
    ``None`` means the condition is opaque and either arm may run.
    """

    arms: Tuple[Tuple["SummaryNode", ...], ...]
    guard: Optional[SiteGuard] = None


@dataclass(frozen=True)
class SummaryLoop:
    """A ``for``/``while`` body (may execute zero or more times).

    ``guard`` (frontend summaries only) marks a ``while <test>:`` loop
    desugared to a pre-test site plus a re-test site as the body's last
    node; ``count`` a statically-known iteration count (``range(N)``).
    Both default to the DSL extractor's "unknown trip count" reading.
    """

    body: Tuple["SummaryNode", ...]
    guard: Optional[SiteGuard] = None
    count: Optional[int] = None


@dataclass(frozen=True)
class SummaryDeref:
    """The value read at ``site`` is dereferenced (attribute call/index).

    Frontend summaries only: marks where real code would raise if the
    read produced an uninitialised sentinel (``None``/``False``).  The
    lifter compiles it to a runtime null-check that crashes the simulated
    thread, giving use-before-init candidates a dynamic manifestation.
    Analyses and path enumeration skip it — it is not an operation site.
    """

    site: int
    obj: str


@dataclass(frozen=True)
class SummaryReturn:
    """An explicit ``return``: the path ends here."""


SummaryNode = Union[SummaryOp, SummaryBranch, SummaryLoop, SummaryDeref, SummaryReturn]


@dataclass
class ThreadSummary:
    """Everything statically known about one thread body."""

    thread: str
    nodes: Tuple[SummaryNode, ...]
    #: All sites in pre-order (the flattening of ``nodes``).
    sites: Tuple[OpSite, ...]
    #: True when the dynamic fallback ran or some construct / argument
    #: could not be resolved; analyses must treat the summary as a
    #: may-underapproximate view of the body.
    approximate: bool = False
    #: Human-readable extraction caveats.
    notes: Tuple[str, ...] = ()
    #: ``(min-index, max-index)`` pairs of sites no single execution of
    #: this thread runs both of — divergent branch arms, or regions cut
    #: off by a ``return`` (see :func:`exclusive`).  Empty when unknown
    #: (dynamic fallback), which conservatively means "may co-occur".
    exclusive_pairs: FrozenSet[Tuple[int, int]] = frozenset()

    def sites_of_kind(self, *kinds: str) -> List[OpSite]:
        """Sites whose kind is one of ``kinds``, in program order."""
        wanted = frozenset(kinds)
        return [s for s in self.sites if s.kind in wanted]


@dataclass
class ProgramSummary:
    """Static summaries of every thread of one program, plus declarations."""

    program: str
    threads: Dict[str, ThreadSummary]
    initial: Dict[str, Any] = field(default_factory=dict)
    locks: Tuple[str, ...] = ()
    rwlocks: Tuple[str, ...] = ()
    semaphores: Tuple[str, ...] = ()
    conditions: Dict[str, str] = field(default_factory=dict)
    barriers: Tuple[str, ...] = ()
    channels: Dict[str, Optional[int]] = field(default_factory=dict)
    start: Tuple[str, ...] = ()
    #: Declared memory model (``"sc"`` / ``"tso"``); the weak-memory
    #: candidate pass only runs when stores can be buffered.
    memory: str = "sc"

    @property
    def approximate(self) -> bool:
        """True when any thread summary is approximate."""
        return any(t.approximate for t in self.threads.values())

    def all_sites(self) -> List[OpSite]:
        """Every site of every thread, grouped by thread declaration order."""
        out: List[OpSite] = []
        for summary in self.threads.values():
            out.extend(summary.sites)
        return out

    def used_objects(self, *kinds: str) -> FrozenSet[str]:
        """Resolved resource names across all threads for the given kinds."""
        wanted = frozenset(kinds)
        return frozenset(
            s.obj for s in self.all_sites() if s.kind in wanted and s.obj is not None
        )


def exclusive(summary: ProgramSummary, a: OpSite, b: OpSite) -> bool:
    """True when no single execution runs both sites.

    Holds for same-thread sites in divergent branch arms (an ``if`` body
    vs its ``else``, a ``try`` body vs a handler) and for sites separated
    by a ``return`` — e.g. an early-exit arm vs the code after the
    branch.  Sites of different threads trivially co-occur; so does any
    pair the enumeration could not decide (dynamic-fallback summaries,
    path blow-ups), keeping the conservative direction: treating fewer
    pairs as exclusive can only *add* candidates downstream.
    """
    if a.thread != b.thread or a.index == b.index:
        return False
    thread = summary.threads.get(a.thread)
    if thread is None:
        return False
    key = (min(a.index, b.index), max(a.index, b.index))
    return key in thread.exclusive_pairs


# -- public entry points -----------------------------------------------------


def summarize_program(program: Program) -> ProgramSummary:
    """Static summary of every declared thread of ``program``."""
    threads = {
        name: summarize_thread(name, body, program)
        for name, body in program.threads.items()
    }
    return ProgramSummary(
        program=program.name,
        threads=threads,
        initial=dict(program.initial),
        locks=tuple(program.locks),
        rwlocks=tuple(program.rwlocks),
        semaphores=tuple(program.semaphores),
        conditions=dict(program.conditions),
        barriers=tuple(program.barriers),
        channels=dict(program.channels),
        start=tuple(program.start),
        memory=program.memory,
    )


def summarize_thread(
    name: str, body: Any, program: Optional[Program] = None
) -> ThreadSummary:
    """Summarize one thread body, AST-first with the dynamic fallback."""
    try:
        return _extract_ast(name, body)
    except StaticExtractionError as exc:
        summary = _extract_dynamic(name, body, program)
        return ThreadSummary(
            thread=name,
            nodes=summary.nodes,
            sites=summary.sites,
            approximate=True,
            notes=(f"ast extraction failed: {exc}",) + summary.notes,
        )


# -- AST extraction ----------------------------------------------------------

#: Op class name -> (kind, resource field, dataclass field order), for
#: every class in :data:`~repro.sim.ops.OP_KINDS`.  The field order maps
#: positional arguments; only the resource field and ``label`` are
#: resolved, and value/fn/ticks arguments are abstracted away.
_OPS_BY_NAME: Dict[str, Tuple[str, Optional[str], Tuple[str, ...]]] = {
    cls.__name__: (kind, resource, tuple(f.name for f in fields(cls)))
    for cls, (kind, resource) in OP_KINDS.items()
}


class _Extractor:
    """Stateful AST walk over one thread body's statement list."""

    def __init__(self, thread: str, env: Mapping[str, Any]):
        self.thread = thread
        self.env = env
        self.index = 0
        self.sites: List[OpSite] = []
        self.notes: List[str] = []
        self.approximate = False
        #: >0 while walking the body of an inlined sub-generator; one
        #: level only, and ``return`` means "end of helper", not "end of
        #: thread" there.
        self.inline_depth = 0

    # -- expression resolution ------------------------------------------

    def _resolve(self, node: Optional[ast.expr]) -> Tuple[Any, bool]:
        """Evaluate a constant-ish expression against the closure env."""
        if node is None:
            return None, True
        if isinstance(node, ast.Constant):
            return node.value, True
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id], True
            return None, False
        if isinstance(node, ast.JoinedStr):
            parts: List[str] = []
            for piece in node.values:
                if isinstance(piece, ast.Constant):
                    parts.append(str(piece.value))
                elif isinstance(piece, ast.FormattedValue):
                    value, ok = self._resolve(piece.value)
                    if not ok:
                        return None, False
                    parts.append(format(value, "") if piece.format_spec is None else "")
                else:
                    return None, False
            return "".join(parts), True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left, ok_l = self._resolve(node.left)
            right, ok_r = self._resolve(node.right)
            if ok_l and ok_r and isinstance(left, str) and isinstance(right, str):
                return left + right, True
        if isinstance(node, (ast.Tuple, ast.List)):
            items = []
            for element in node.elts:
                value, ok = self._resolve(element)
                if not ok:
                    return None, False
                items.append(value)
            return tuple(items), True
        return None, False

    # -- op construction -------------------------------------------------

    def _op_from_call(self, call: ast.expr, conditional: bool) -> List[SummaryOp]:
        if not isinstance(call, ast.Call):
            self.approximate = True
            self.notes.append(
                f"line {getattr(call, 'lineno', '?')}: yield of a non-call "
                f"expression; site skipped"
            )
            return []
        func = call.func
        if isinstance(func, ast.Name):
            op_name = func.id
        elif isinstance(func, ast.Attribute):
            op_name = func.attr
        else:
            op_name = None
        if op_name not in _OPS_BY_NAME:
            self.approximate = True
            self.notes.append(
                f"line {call.lineno}: unknown operation constructor "
                f"{ast.dump(func)[:40]}; site skipped"
            )
            return []
        kind, resource_field, positional = _OPS_BY_NAME[op_name]
        bound: Dict[str, ast.expr] = {}
        for position, arg in enumerate(call.args):
            if position < len(positional):
                bound[positional[position]] = arg
        for keyword in call.keywords:
            if keyword.arg is not None:
                bound[keyword.arg] = keyword.value
        label, label_ok = self._resolve(bound.get("label"))
        if not label_ok:
            label = None
            self.approximate = True
            self.notes.append(f"line {call.lineno}: unresolved label= of {op_name}")
        if not isinstance(label, str) and label is not None:
            label = str(label)
        if op_name == "Select":
            # A select touches every listed channel: one site per channel,
            # sharing the select's label and line, so channel-level passes
            # (mailbox-order candidates, the lint namespace check) see each
            # mailbox the statement can commit to.
            chans, ok = self._resolve(bound.get("chans"))
            if not ok or not isinstance(chans, tuple):
                self.approximate = True
                self.notes.append(
                    f"line {call.lineno}: unresolved chans= argument of Select"
                )
                chans = (None,)
            return [
                self._emit_site("select", chan, label, conditional, call.lineno)
                for chan in chans
            ]
        obj: Optional[str] = None
        if resource_field is not None:
            obj, ok = self._resolve(bound.get(resource_field))
            if not ok:
                obj = None
                self.approximate = True
                self.notes.append(
                    f"line {call.lineno}: unresolved {resource_field}= argument "
                    f"of {op_name}"
                )
            elif obj is not None and not isinstance(obj, str):
                obj = str(obj)
        return [self._emit_site(kind, obj, label, conditional, call.lineno)]

    def _emit_site(
        self,
        kind: str,
        obj: Optional[Any],
        label: Optional[str],
        conditional: bool,
        lineno: Optional[int],
    ) -> SummaryOp:
        site = OpSite(
            thread=self.thread,
            index=self.index,
            kind=kind,
            obj=obj if isinstance(obj, str) or obj is None else str(obj),
            label=label,
            conditional=conditional,
            lineno=lineno,
        )
        self.index += 1
        self.sites.append(site)
        return SummaryOp(site)

    # -- statement walk ---------------------------------------------------

    def walk(self, stmts: List[ast.stmt], conditional: bool) -> Tuple[SummaryNode, ...]:
        nodes: List[SummaryNode] = []
        for stmt in stmts:
            yielded = _yield_expression(stmt)
            if yielded is not None:
                nodes.extend(self._op_from_call(yielded, conditional))
                continue
            delegated = _yield_from_expression(stmt)
            if delegated is not None:
                nodes.extend(self._inline_yield_from(delegated, conditional))
                continue
            if isinstance(stmt, ast.If):
                arms = (
                    self.walk(stmt.body, True),
                    self.walk(stmt.orelse, True),
                )
                nodes.append(SummaryBranch(arms=arms))
                continue
            if isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
                body = self.walk(stmt.body, True)
                nodes.append(SummaryLoop(body=body))
                if stmt.orelse:
                    nodes.extend(self.walk(stmt.orelse, conditional))
                continue
            if isinstance(stmt, ast.Return):
                if self.inline_depth:
                    # A return inside an inlined sub-generator ends the
                    # *helper*, not the thread.  Mid-helper returns would
                    # need helper-local path truncation; dropping the node
                    # only loses exclusivity (conservative direction).
                    self.approximate = True
                    self.notes.append(
                        f"line {stmt.lineno}: return inside an inlined "
                        f"sub-generator; helper-local truncation dropped"
                    )
                else:
                    nodes.append(SummaryReturn())
                continue
            if isinstance(stmt, ast.Try):
                arms = [self.walk(stmt.body, True)]
                for handler in stmt.handlers:
                    arms.append(self.walk(handler.body, True))
                nodes.append(SummaryBranch(arms=tuple(arms)))
                nodes.extend(self.walk(stmt.finalbody, conditional))
                self.approximate = True
                self.notes.append(
                    f"line {stmt.lineno}: try/except modelled as a branch"
                )
                continue
            if isinstance(stmt, ast.With):
                nodes.extend(self.walk(stmt.body, conditional))
                continue
            # Anything else (assignments of locals, raise, pass, ...) has
            # no shared-state effect of its own — but if a yield hides
            # inside, extract it flat and flag the approximation.
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.Yield) and inner.value is not None:
                    self.approximate = True
                    self.notes.append(
                        f"line {stmt.lineno}: yield inside an unmodelled "
                        f"statement; extracted without structure"
                    )
                    nodes.extend(self._op_from_call(inner.value, True))
        return tuple(nodes)

    # -- sub-generator inlining -------------------------------------------

    def _inline_yield_from(
        self, call: ast.expr, conditional: bool
    ) -> Tuple[SummaryNode, ...]:
        """Inline one level of ``yield from helper(...)`` exactly.

        The helper is resolved through the closure environment, its
        source is parsed, constant call arguments are bound to parameter
        names, and its body is walked with the *helper's* own closure
        environment — so a factory-built sub-generator summarizes with
        its concrete labels, just like a top-level body.  Nested
        ``yield from`` (depth two) falls back to an approximate note.
        """

        def give_up(why: str) -> Tuple[SummaryNode, ...]:
            self.approximate = True
            self.notes.append(
                f"line {getattr(call, 'lineno', '?')}: yield from {why}; "
                f"sites dropped"
            )
            return ()

        if self.inline_depth >= 1:
            return give_up("nested beyond one level")
        if not isinstance(call, ast.Call):
            return give_up("a non-call expression")
        func = call.func
        if not isinstance(func, ast.Name) or func.id not in self.env:
            return give_up("an unresolvable callee")
        helper = self.env[func.id]
        try:
            source = inspect.getsource(helper)
            tree = ast.parse(textwrap.dedent(source))
        except (OSError, TypeError, SyntaxError, IndentationError) as exc:
            return give_up(f"a sourceless helper ({exc})")
        helper_def = next(
            (
                node
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ),
            None,
        )
        if helper_def is None:
            return give_up("a helper with no function definition")
        sub_env = _closure_env(helper)
        params = [arg.arg for arg in helper_def.args.args]
        defaults = helper_def.args.defaults
        for param, default in zip(params[len(params) - len(defaults):], defaults):
            value, ok = self._resolve_in_env(default, sub_env)
            if ok:
                sub_env[param] = value
        for position, arg in enumerate(call.args):
            if position < len(params):
                value, ok = self._resolve(arg)
                if ok:
                    sub_env[params[position]] = value
        for keyword in call.keywords:
            if keyword.arg in params:
                value, ok = self._resolve(keyword.value)
                if ok:
                    sub_env[keyword.arg] = value
        outer_env = self.env
        self.env = sub_env
        self.inline_depth += 1
        try:
            return self.walk(helper_def.body, conditional)
        finally:
            self.env = outer_env
            self.inline_depth -= 1

    def _resolve_in_env(
        self, node: Optional[ast.expr], env: Mapping[str, Any]
    ) -> Tuple[Any, bool]:
        """:meth:`_resolve` against a temporary environment."""
        outer = self.env
        self.env = env
        try:
            return self._resolve(node)
        finally:
            self.env = outer


def _yield_expression(stmt: ast.stmt) -> Optional[ast.expr]:
    """The yielded expression of ``yield Op(...)`` statement shapes."""
    value: Optional[ast.expr] = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
        value = stmt.value
    elif isinstance(stmt, ast.AnnAssign):
        value = stmt.value
    if isinstance(value, ast.Yield):
        return value.value
    return None


def _yield_from_expression(stmt: ast.stmt) -> Optional[ast.expr]:
    """The delegated expression of ``yield from helper(...)`` statements."""
    value: Optional[ast.expr] = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        value = stmt.value
    if isinstance(value, ast.YieldFrom):
        return value.value
    return None


def _closure_env(body: Any) -> Dict[str, Any]:
    """Name environment for resolving op arguments: closure + globals."""
    env: Dict[str, Any] = dict(vars(builtins))
    try:
        closure = inspect.getclosurevars(body)
    except TypeError:
        return env
    env.update(closure.globals)
    env.update(closure.nonlocals)
    return env


def _extract_ast(name: str, body: Any) -> ThreadSummary:
    try:
        source = inspect.getsource(body)
    except (OSError, TypeError) as exc:
        raise StaticExtractionError(f"no source for {name!r}: {exc}") from exc
    try:
        tree = ast.parse(textwrap.dedent(source))
    except (SyntaxError, IndentationError) as exc:
        raise StaticExtractionError(f"unparsable source for {name!r}: {exc}") from exc
    func = next(
        (
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ),
        None,
    )
    if func is None:
        raise StaticExtractionError(f"no function definition in source of {name!r}")
    extractor = _Extractor(name, _closure_env(body))
    nodes = extractor.walk(func.body, conditional=False)
    return ThreadSummary(
        thread=name,
        nodes=nodes,
        sites=tuple(extractor.sites),
        approximate=extractor.approximate,
        notes=tuple(extractor.notes),
        exclusive_pairs=_exclusive_pairs(nodes, len(extractor.sites)),
    )


# -- mutual exclusivity ------------------------------------------------------

#: Abstract-path count above which exclusivity computation gives up
#: (conservatively: every pair may co-occur).
_PATH_LIMIT = 512


class _PathOverflow(Exception):
    pass


def _exclusive_pairs(
    nodes: Tuple[SummaryNode, ...], site_count: int
) -> FrozenSet[Tuple[int, int]]:
    """Site-index pairs that can never execute together in one run.

    Abstract executions of the tree are enumerated — each branch picks
    one arm, each loop runs zero, one, or two iterations, ``return``
    truncates the rest — and a pair is exclusive iff no enumerated path
    contains both indexes.  Two loop iterations suffice for *pairwise*
    co-occurrence: any pair realised across many iterations is realised
    by the two relevant ones, since arms are re-chosen freely each time.
    """
    if site_count < 2:
        return frozenset()
    try:
        paths = _enumerate_paths(nodes)
    except _PathOverflow:
        return frozenset()  # undecided: treat every pair as co-occurring
    co_occur = set()
    for indexes, _ in paths:
        present = sorted(set(indexes))
        for i, a in enumerate(present):
            for b in present[i + 1 :]:
                co_occur.add((a, b))
    return frozenset(
        (a, b)
        for a in range(site_count)
        for b in range(a + 1, site_count)
        if (a, b) not in co_occur
    )


def _enumerate_paths(
    nodes: Sequence[SummaryNode],
) -> List[Tuple[Tuple[int, ...], bool]]:
    """All abstract executions of ``nodes`` as ``(site indexes, returned)``."""
    paths: List[Tuple[Tuple[int, ...], bool]] = [((), False)]
    for node in nodes:
        if isinstance(node, SummaryOp):
            paths = [
                (p + (node.site.index,), r) if not r else (p, r) for p, r in paths
            ]
        elif isinstance(node, SummaryBranch):
            arm_paths: List[Tuple[Tuple[int, ...], bool]] = []
            for arm in node.arms:
                arm_paths.extend(_enumerate_paths(arm))
            paths = _compose(paths, arm_paths)
        elif isinstance(node, SummaryLoop):
            once = _enumerate_paths(node.body)
            iterations = [((), False)] + once + _compose(once, once)
            paths = _compose(paths, iterations)
        elif isinstance(node, SummaryReturn):
            paths = [(p, True) for p, _ in paths]
        if len(paths) > _PATH_LIMIT:
            raise _PathOverflow()
    return paths


def _compose(
    prefixes: List[Tuple[Tuple[int, ...], bool]],
    suffixes: List[Tuple[Tuple[int, ...], bool]],
) -> List[Tuple[Tuple[int, ...], bool]]:
    out: List[Tuple[Tuple[int, ...], bool]] = []
    for p, returned in prefixes:
        if returned:
            out.append((p, returned))
            continue
        for q, q_returned in suffixes:
            out.append((p + q, q_returned))
            if len(out) > _PATH_LIMIT:
                raise _PathOverflow()
    return out


# -- dynamic fallback --------------------------------------------------------

#: Abstract stand-in sent into generators for values we cannot know.
_ABSTRACT = object()

_DRIVE_LIMIT = 256


def _drive_policy_initial(op: Op, initial: Mapping[str, Any]) -> Any:
    """Respond with declared initial values (the no-interference view)."""
    kind, obj = op_kind(op)
    if kind == "read":
        return initial.get(obj)
    if kind == "atomic":
        fn = getattr(op, "fn", None)
        if callable(fn):
            try:
                return fn(initial.get(obj))
            except Exception:
                return _ABSTRACT
    if kind == "tryacquire":
        return True
    if kind == "recv":
        return _ABSTRACT
    if kind == "select":
        # A select evaluates to (channel, value); answer with the first
        # declared channel so tuple unpacking in the body keeps working.
        chans = getattr(op, "chans", ())
        return (chans[0] if chans else None, _ABSTRACT)
    return None


def _drive_policy_flipped(op: Op, initial: Mapping[str, Any]) -> Any:
    """Respond with truth-flipped values to steer into the other arms."""
    kind, obj = op_kind(op)
    if kind == "read":
        value = initial.get(obj)
        return _ABSTRACT if not value else None
    if kind == "tryacquire":
        return False
    return _drive_policy_initial(op, initial)


def _extract_dynamic(
    name: str, body: Any, program: Optional[Program]
) -> ThreadSummary:
    """Symbolically drive the generator; record the yielded op instances.

    The generator runs *outside* any engine: responses are abstract
    values, no shared memory or sync object is touched, and exceptions
    (including simulated crashes on abstract values) simply end that
    drive.  Two drives with different response policies cover both arms
    of simple value-dependent branches; anything deeper stays uncovered,
    which is why the result is always ``approximate``.
    """
    initial = dict(program.initial) if program is not None else {}
    seen: Dict[Tuple[str, Optional[str], Optional[str]], OpSite] = {}
    notes: List[str] = ["summarized by symbolic generator drive (approximate)"]
    index = 0
    for policy in (_drive_policy_initial, _drive_policy_flipped):
        try:
            generator = body()
        except Exception as exc:  # body() itself failed — nothing to drive
            notes.append(f"generator construction failed: {exc!r}")
            break
        response: Any = None
        try:
            for _ in range(_DRIVE_LIMIT):
                op = generator.send(response)
                if not isinstance(op, Op):
                    notes.append(f"non-Op yield {op!r}; drive stopped")
                    break
                kind, obj = op_kind(op)
                label = getattr(op, "label", None)
                key = (kind, obj, label)
                if key not in seen:
                    site = OpSite(
                        thread=name,
                        index=index,
                        kind=kind,
                        obj=obj,
                        label=label,
                        conditional=True,
                    )
                    seen[key] = site
                    index += 1
                response = policy(op, initial)
        except StopIteration:
            pass
        except Exception as exc:
            notes.append(f"drive ended early: {exc!r}")
        finally:
            generator.close()
    sites = tuple(seen.values())
    return ThreadSummary(
        thread=name,
        nodes=tuple(SummaryOp(site) for site in sites),
        sites=sites,
        approximate=True,
        notes=tuple(notes),
    )
