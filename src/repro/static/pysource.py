"""Real-Python frontend: summarize ordinary ``threading`` modules.

The rest of :mod:`repro.static` reads the yield-Op DSL; this module
reads the code people actually write.  :func:`frontend` parses a plain
Python module that uses :mod:`threading` / :mod:`queue` —

* ``with lock:`` blocks and explicit ``acquire()``/``release()`` calls,
* ``threading.Thread(target=...)`` construction plus ``start``/``join``,
* ``Condition.wait`` / ``notify`` / ``notify_all`` (a bare
  ``Condition()`` gets a synthesized ``<name>.mutex``),
* ``Semaphore`` / ``BoundedSemaphore`` and ``Barrier`` declarations,
* ``queue.Queue`` mapped to a declared channel (``put``/``get`` become
  ``send``/``recv`` sites),
* shared state through module globals (``global x``; reads need no
  declaration) and ``self.`` / instance attributes of module-level
  objects (``state.flag`` summarizes as the variable ``"state.flag"``),

— and produces the same :class:`~repro.static.summary.ProgramSummary`
vocabulary every candidate pass already consumes, so lockset, lock
order, order, message, and weak-memory analyses run on real source
unchanged.  Interprocedural support inlines module helper functions and
instance methods through the call graph with a depth/recursion cutoff;
anything unresolvable is summarized conservatively (an ``approximate``
note, never a silently dropped effect).

Beyond the DSL extractor, frontend summaries carry *liftable* structure:
:class:`~repro.static.summary.SiteGuard` on branches/loops (which site's
value the condition tests), resolved write/send values, and
:class:`~repro.static.summary.SummaryDeref` markers where a read value
is dereferenced — exactly what :mod:`repro.static.lift` needs to compile
the summary back into a runnable simulator :class:`Program` for dynamic
confirmation.

Ground truth: corpus modules under ``examples/realworld/`` annotate
their planted bugs in a module-level ``REPRO_EXPECT`` dict
(:func:`parse_expectations`); :func:`load_corpus` pairs buggy/fixed
variants for the recall gate and the bench funnel.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import ReproError
from repro.static.summary import (
    OpSite,
    ProgramSummary,
    SiteGuard,
    SummaryBranch,
    SummaryDeref,
    SummaryLoop,
    SummaryNode,
    SummaryOp,
    SummaryReturn,
    ThreadSummary,
    _exclusive_pairs,
)

__all__ = [
    "PYSOURCE_VERSION",
    "GroundTruthBug",
    "SourceModule",
    "SourceError",
    "frontend",
    "parse_expectations",
    "annotation_matches",
    "load_source",
    "load_corpus",
]

#: Folded into service cache keys: bump on any change to extraction or
#: confirmation semantics so persisted verdicts for source jobs are
#: invalidated (v2: statuses come from confirm's one 5,000-step search).
PYSOURCE_VERSION = "repro.static.pysource/v2"

#: Candidate kinds annotations may expect (mirrors the passes' output).
_CANDIDATE_KINDS = frozenset(
    {"data-race", "atomicity-violation", "order-violation", "deadlock"}
)

#: How an annotated bug manifests when the lifted program is explored.
_MANIFESTATIONS = frozenset({"finding", "crash", "deadlock", "hang"})

#: Builtins with no shared-state effect of their own; their arguments
#: are still scanned for shared reads.
_PURE_CALLS = frozenset(
    {
        "print", "len", "str", "int", "float", "bool", "repr", "format",
        "abs", "min", "max", "sorted", "list", "dict", "set", "tuple",
        "range", "isinstance", "enumerate", "sum", "object",
    }
)

#: Maximum helper-inlining depth through the call graph.
_INLINE_DEPTH = 5


class SourceError(ReproError):
    """The module cannot be analyzed at all (parse error, no entry)."""


@dataclass(frozen=True)
class GroundTruthBug:
    """One annotated bug in a corpus module's ``REPRO_EXPECT``."""

    kind: str
    variables: Tuple[str, ...] = ()
    resources: Tuple[str, ...] = ()
    manifestation: str = "finding"
    confirmable: bool = True
    note: str = ""

    def describe(self) -> str:
        """One-line human rendering, e.g. ``[data-race] on conn (crash)``."""
        what = ", ".join(self.variables + self.resources) or "?"
        return f"[{self.kind}] on {what} ({self.manifestation})"


@dataclass
class SourceModule:
    """One analyzed real-Python module plus its ground-truth annotations."""

    name: str
    summary: ProgramSummary
    bugs: Tuple[GroundTruthBug, ...] = ()
    #: Stem of the buggy variant this module fixes (fixed variants only).
    fixed_of: Optional[str] = None
    path: Optional[Path] = None

    @property
    def is_fixed(self) -> bool:
        return self.fixed_of is not None


def annotation_matches(bug: GroundTruthBug, candidate: Any) -> bool:
    """Whether an active static candidate covers one annotation.

    Same matching discipline as the dynamic cross-check
    (:meth:`DetectorSuite.analyse_static`): kind equality, variable
    intersection, resource-set inclusion either way.
    """
    if candidate.kind != bug.kind:
        return False
    if bug.variables and not (set(bug.variables) & set(candidate.variables)):
        return False
    if bug.resources:
        found = frozenset(candidate.resources)
        expected = frozenset(bug.resources)
        if not (expected <= found or (found and found <= expected)):
            return False
    return True


# -- resource model ----------------------------------------------------------


@dataclass
class _Resource:
    """One declared shared object (module global or instance attribute)."""

    kind: str  # "lock" | "cond" | "sem" | "barrier" | "chan" | "var" | "instance"
    name: str
    mutex: Optional[str] = None  # conditions: the associated lock
    capacity: Optional[int] = None  # channels
    cls: Optional[str] = None  # instances: class name


@dataclass(frozen=True)
class _SiteRef:
    """Local bound to the value a read/recv site produced."""

    index: int
    kind: str
    obj: str


@dataclass(frozen=True)
class _Const:
    value: Any


@dataclass(frozen=True)
class _Opaque:
    token: str


@dataclass(frozen=True)
class _ThreadRef:
    name: str


_Binding = Union[_Resource, _SiteRef, _Const, _Opaque, _ThreadRef]


@dataclass
class _ThreadSpec:
    """A discovered ``threading.Thread`` target awaiting extraction."""

    name: str
    func: ast.FunctionDef
    args: Dict[str, Any] = field(default_factory=dict)
    instance: Optional[str] = None  # bound-method targets: the instance


# -- module scan -------------------------------------------------------------


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute chains as a dotted string (else ``None``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


class _ModuleScanner:
    """Collect declarations, functions, classes, and annotations."""

    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.tree = tree
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        self.resources: Dict[str, _Resource] = {}
        self.initial: Dict[str, Any] = {}
        self.locks: List[str] = []
        self.conditions: Dict[str, str] = {}
        self.semaphores: Dict[str, int] = {}
        self.barriers: Dict[str, int] = {}
        self.channels: Dict[str, Optional[int]] = {}
        self.imports: Dict[str, str] = {}  # local alias -> dotted origin
        self.expect_raw: Optional[Dict[str, Any]] = None
        self.main_guard: List[ast.stmt] = []
        self.notes: List[str] = []

    def scan(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    self.imports[alias.asname or alias.name] = alias.name
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    self.imports[alias.asname or alias.name] = (
                        f"{stmt.module}.{alias.name}"
                    )
            elif isinstance(stmt, ast.FunctionDef):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self._declare(target.id, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    self._declare(stmt.target.id, stmt.value)
            elif (
                isinstance(stmt, ast.If)
                and isinstance(stmt.test, ast.Compare)
                and _dotted(stmt.test.left) == "__name__"
            ):
                self.main_guard = stmt.body
            elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # module docstring
            else:
                self.notes.append(
                    f"line {stmt.lineno}: unmodelled module-level statement "
                    f"({type(stmt).__name__})"
                )

    # -- declaration classification --------------------------------------

    def callee_of(self, call: ast.Call) -> Optional[str]:
        """Canonical dotted name of a call's target (import-aware)."""
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.imports.get(head)
        if origin:
            return f"{origin}.{rest}" if rest else origin
        return dotted

    def _declare(self, name: str, value: ast.expr) -> None:
        if name == "REPRO_EXPECT":
            try:
                self.expect_raw = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                self.notes.append("REPRO_EXPECT is not a literal dict")
            return
        if isinstance(value, ast.Constant):
            self.resources[name] = _Resource("var", name)
            self.initial[name] = value.value
            return
        if isinstance(value, ast.Call):
            self._declare_call(name, value)
            return
        self.resources[name] = _Resource("var", name)
        self.initial[name] = f"<{name}>"
        self.notes.append(
            f"line {value.lineno}: initial value of {name!r} is opaque "
            f"(kept as a non-sentinel token)"
        )

    def _declare_call(self, name: str, call: ast.Call) -> None:
        callee = self.callee_of(call)
        tail = callee.rsplit(".", 1)[-1] if callee else None
        if tail in ("Lock", "RLock"):
            self.resources[name] = _Resource("lock", name)
            self.locks.append(name)
        elif tail == "Condition":
            mutex = None
            if call.args:
                arg = _dotted(call.args[0])
                if arg in self.resources and self.resources[arg].kind == "lock":
                    mutex = arg
            if mutex is None:
                mutex = f"{name}.mutex"
                self.locks.append(mutex)
            self.resources[name] = _Resource("cond", name, mutex=mutex)
            self.conditions[name] = mutex
        elif tail in ("Semaphore", "BoundedSemaphore"):
            permits = 1
            if call.args and isinstance(call.args[0], ast.Constant):
                permits = int(call.args[0].value)
            self.resources[name] = _Resource("sem", name)
            self.semaphores[name] = permits
        elif tail == "Barrier":
            parties = 2
            if call.args and isinstance(call.args[0], ast.Constant):
                parties = int(call.args[0].value)
            self.resources[name] = _Resource("barrier", name)
            self.barriers[name] = parties
        elif tail in ("Queue", "LifoQueue", "SimpleQueue"):
            capacity: Optional[int] = None
            size = None
            if call.args and isinstance(call.args[0], ast.Constant):
                size = call.args[0].value
            for kw in call.keywords:
                if kw.arg == "maxsize" and isinstance(kw.value, ast.Constant):
                    size = kw.value.value
            if isinstance(size, int) and size > 0:
                capacity = size
            self.resources[name] = _Resource("chan", name, capacity=capacity)
            self.channels[name] = capacity
        elif tail in self.classes:
            self.resources[name] = _Resource("instance", name, cls=tail)
            self._declare_instance(name, self.classes[tail])
        else:
            self.resources[name] = _Resource("var", name)
            self.initial[name] = f"<{name}>"
            self.notes.append(
                f"line {call.lineno}: {name!r} built by unknown call "
                f"{callee or '?'}; kept as an opaque non-sentinel value"
            )

    def _declare_instance(self, instance: str, cls: ast.ClassDef) -> None:
        """``self.X = ...`` in ``__init__`` declares ``<instance>.X``."""
        init = next(
            (
                stmt
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
            ),
            None,
        )
        if init is None:
            return
        for stmt in init.body:
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            self._declare(f"{instance}.{target.attr}", stmt.value)

    def method_of(self, cls_name: str, method: str) -> Optional[ast.FunctionDef]:
        cls = self.classes.get(cls_name)
        if cls is None:
            return None
        return next(
            (
                stmt
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == method
            ),
            None,
        )


# -- expectation parsing -----------------------------------------------------


def parse_expectations(
    raw: Optional[Dict[str, Any]]
) -> Tuple[Tuple[GroundTruthBug, ...], Optional[str]]:
    """Validate a ``REPRO_EXPECT`` literal into ground-truth annotations."""
    if raw is None:
        return (), None
    if not isinstance(raw, dict):
        raise SourceError("REPRO_EXPECT must be a dict literal")
    fixed_of = raw.get("fixed_of")
    if fixed_of is not None and not isinstance(fixed_of, str):
        raise SourceError("REPRO_EXPECT['fixed_of'] must be a string")
    bugs: List[GroundTruthBug] = []
    for entry in raw.get("bugs", ()):
        if not isinstance(entry, dict):
            raise SourceError("REPRO_EXPECT['bugs'] entries must be dicts")
        kind = entry.get("kind")
        if kind not in _CANDIDATE_KINDS:
            raise SourceError(
                f"unknown expected kind {kind!r}; one of "
                f"{', '.join(sorted(_CANDIDATE_KINDS))}"
            )
        manifestation = entry.get("manifestation", "finding")
        if manifestation not in _MANIFESTATIONS:
            raise SourceError(
                f"unknown manifestation {manifestation!r}; one of "
                f"{', '.join(sorted(_MANIFESTATIONS))}"
            )
        bugs.append(
            GroundTruthBug(
                kind=kind,
                variables=tuple(entry.get("variables", ())),
                resources=tuple(entry.get("resources", ())),
                manifestation=manifestation,
                confirmable=bool(entry.get("confirmable", True)),
                note=str(entry.get("note", "")),
            )
        )
    return tuple(bugs), fixed_of


# -- body extraction ---------------------------------------------------------


@dataclass
class _Frame:
    """One lexical frame of the (possibly inlined) walk."""

    locals: Dict[str, _Binding] = field(default_factory=dict)
    global_names: Set[str] = field(default_factory=set)
    instance: Optional[str] = None


class _BodyExtractor:
    """Walk one thread's statements into summary nodes and sites."""

    def __init__(self, scanner: _ModuleScanner, thread: str, registry: "_ThreadRegistry"):
        self.scanner = scanner
        self.thread = thread
        self.registry = registry
        self.index = 0
        self.sites: List[OpSite] = []
        self.notes: List[str] = []
        self.approximate = False
        self.frames: List[_Frame] = []
        self.call_stack: List[str] = []
        #: Last top-level statement of each helper being inlined, so a
        #: trailing ``return`` can be recognised and dropped silently.
        self.inline_last: List[Optional[ast.stmt]] = []

    # -- bookkeeping ------------------------------------------------------

    @property
    def frame(self) -> _Frame:
        return self.frames[-1]

    def note(self, lineno: Optional[int], text: str, approximate: bool = True) -> None:
        where = f"line {lineno}: " if lineno else ""
        self.notes.append(f"{where}{text}")
        if approximate:
            self.approximate = True

    def emit(
        self,
        kind: str,
        obj: Optional[str],
        conditional: bool,
        lineno: Optional[int],
        value: Any = None,
    ) -> SummaryOp:
        site = OpSite(
            thread=self.thread,
            index=self.index,
            kind=kind,
            obj=obj,
            label=f"{self.thread}.{self.index}@L{lineno}",
            conditional=conditional,
            lineno=lineno,
        )
        self.index += 1
        self.sites.append(site)
        return SummaryOp(site, value=value)

    # -- name resolution --------------------------------------------------

    def binding_of(self, name: str) -> Optional[_Binding]:
        if name in self.frame.locals and name not in self.frame.global_names:
            return self.frame.locals[name]
        return self.scanner.resources.get(name)

    def resource_of(self, expr: ast.expr) -> Optional[_Resource]:
        """The declared sync/channel resource an expression denotes."""
        binding = self._binding_of_expr(expr)
        if isinstance(binding, _Resource) and binding.kind != "var":
            return binding
        return None

    def _binding_of_expr(self, expr: ast.expr) -> Optional[_Binding]:
        if isinstance(expr, ast.Name):
            return self.binding_of(expr.id)
        if isinstance(expr, ast.Attribute):
            base: Optional[str] = None
            if isinstance(expr.value, ast.Name):
                if expr.value.id == "self" and self.frame.instance:
                    base = self.frame.instance
                else:
                    inner = self.binding_of(expr.value.id)
                    if isinstance(inner, _Resource) and inner.kind == "instance":
                        base = inner.name
            if base is not None:
                return self.scanner.resources.get(f"{base}.{expr.attr}")
        return None

    def shared_var_of(self, expr: ast.expr) -> Optional[str]:
        """The shared-variable name an expression reads, if any."""
        binding = self._binding_of_expr(expr)
        if isinstance(binding, _Resource) and binding.kind == "var":
            return binding.name
        if isinstance(expr, ast.Name):
            # Reads of names declared ``global`` but never initialised at
            # module level: register them as sentinel-initialised vars.
            if expr.id in self.frame.global_names and expr.id not in self.scanner.resources:
                self.scanner.resources[expr.id] = _Resource("var", expr.id)
                self.scanner.initial[expr.id] = None
                self.note(
                    expr.lineno,
                    f"global {expr.id!r} has no module-level initialiser; "
                    f"assumed None",
                    approximate=False,
                )
                return expr.id
        return None

    # -- expression scanning ----------------------------------------------

    def scan_expr(
        self,
        expr: Optional[ast.expr],
        conditional: bool,
        nodes: List[SummaryNode],
        deref: bool = False,
    ) -> Optional[_Binding]:
        """Emit Read/Deref sites for shared state an expression touches.

        Returns a binding for the expression's value when statically
        known (constants, locals, a single shared read).
        """
        if expr is None:
            return _Const(None)
        if isinstance(expr, ast.Constant):
            return _Const(expr.value)
        var = self.shared_var_of(expr)
        if var is not None:
            op = self.emit("read", var, conditional, expr.lineno)
            nodes.append(op)
            if deref:
                nodes.append(SummaryDeref(op.site.index, var))
            return _SiteRef(op.site.index, "read", var)
        if isinstance(expr, ast.Name):
            binding = self.binding_of(expr.id)
            if binding is not None:
                if deref and isinstance(binding, _SiteRef):
                    nodes.append(SummaryDeref(binding.index, binding.obj))
                return binding
            return None
        if isinstance(expr, ast.Call):
            return self.scan_call(expr, conditional, nodes)
        if isinstance(expr, ast.Attribute):
            # Not a shared var or resource: a dereference of whatever the
            # base is (``handle.write`` on a local, ``obj.attr`` chains).
            self.scan_expr(expr.value, conditional, nodes, deref=True)
            return None
        if isinstance(expr, ast.UnaryOp):
            self.scan_expr(expr.operand, conditional, nodes)
            return None
        if isinstance(expr, ast.BinOp):
            self.scan_expr(expr.left, conditional, nodes)
            self.scan_expr(expr.right, conditional, nodes)
            return None
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                self.scan_expr(value, conditional, nodes)
            return None
        if isinstance(expr, ast.Compare):
            self.scan_expr(expr.left, conditional, nodes)
            for comparator in expr.comparators:
                self.scan_expr(comparator, conditional, nodes)
            return None
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                self.scan_expr(element, conditional, nodes)
            return None
        if isinstance(expr, ast.Dict):
            for key in expr.keys:
                self.scan_expr(key, conditional, nodes)
            for value in expr.values:
                self.scan_expr(value, conditional, nodes)
            return None
        if isinstance(expr, ast.Subscript):
            self.scan_expr(expr.value, conditional, nodes, deref=True)
            self.scan_expr(expr.slice, conditional, nodes)
            return None
        if isinstance(expr, ast.JoinedStr):
            for piece in expr.values:
                if isinstance(piece, ast.FormattedValue):
                    self.scan_expr(piece.value, conditional, nodes)
            return None
        if isinstance(expr, ast.IfExp):
            self.scan_expr(expr.test, conditional, nodes)
            self.scan_expr(expr.body, conditional, nodes)
            self.scan_expr(expr.orelse, conditional, nodes)
            return None
        self.note(
            getattr(expr, "lineno", None),
            f"unmodelled expression ({type(expr).__name__})",
        )
        return None

    def value_of(self, binding: Optional[_Binding], lineno: Optional[int]) -> Any:
        """A liftable value for a write/send payload."""
        if isinstance(binding, _Const):
            value = binding.value
            if value is None or isinstance(value, (bool, int, float, str)):
                return value
        return f"<{self.thread}@L{lineno}>"

    # -- calls -------------------------------------------------------------

    def scan_call(
        self, call: ast.Call, conditional: bool, nodes: List[SummaryNode]
    ) -> Optional[_Binding]:
        """Classify one call: sync op, thread op, helper inline, unknown."""
        func = call.func
        # Method-style calls on declared resources / thread handles.
        if isinstance(func, ast.Attribute):
            handled = self._resource_call(func, call, conditional, nodes)
            if handled is not _UNHANDLED:
                return handled
        callee = self.scanner.callee_of(call)
        if callee == "time.sleep":
            nodes.append(self.emit("sleep", None, conditional, call.lineno))
            return None
        if callee == "threading.Thread":
            return self._thread_ctor(call)
        if callee in ("time.time", "time.monotonic", "time.perf_counter"):
            return None
        tail = callee.rsplit(".", 1)[-1] if callee else None
        if callee in self.scanner.functions:
            return self._inline(
                self.scanner.functions[callee], call, conditional, nodes, None
            )
        bound = self._bound_method(func)
        if bound is not None:
            method_def, instance = bound
            return self._inline(method_def, call, conditional, nodes, instance)
        # A method call on a shared value (``conn.send(...)``): the base
        # read *is* a dereference — emit it before scanning arguments.
        deref_base = isinstance(func, ast.Attribute) and (
            self.shared_var_of(func.value) is not None
            or isinstance(self._value_binding(func.value), _SiteRef)
        )
        if deref_base:
            self.scan_expr(func, conditional, nodes)
        for arg in call.args:
            self.scan_expr(arg, conditional, nodes)
        for kw in call.keywords:
            self.scan_expr(kw.value, conditional, nodes)
        if deref_base:
            self.note(
                call.lineno,
                f"method call {_dotted(func) or '?'}(); modelled as a "
                f"dereference of the base value",
                approximate=False,
            )
        elif tail not in _PURE_CALLS:
            self.note(
                call.lineno,
                f"unknown call {callee or ast.dump(func)[:30]!r} summarized "
                f"conservatively (arguments scanned, effects unknown)",
            )
        return None

    def _value_binding(self, expr: ast.expr) -> Optional[_Binding]:
        """The binding of a plain local name, if that's what ``expr`` is."""
        if isinstance(expr, ast.Name):
            return self.binding_of(expr.id)
        return None

    def _bound_method(
        self, func: ast.expr
    ) -> Optional[Tuple[ast.FunctionDef, str]]:
        """``instance.method(...)`` / ``self.method(...)`` resolution."""
        if not isinstance(func, ast.Attribute):
            return None
        instance: Optional[str] = None
        if isinstance(func.value, ast.Name):
            if func.value.id == "self" and self.frame.instance:
                instance = self.frame.instance
            else:
                binding = self.binding_of(func.value.id)
                if isinstance(binding, _Resource) and binding.kind == "instance":
                    instance = binding.name
        if instance is None:
            return None
        resource = self.scanner.resources.get(instance)
        if resource is None or resource.cls is None:
            return None
        method = self.scanner.method_of(resource.cls, func.attr)
        if method is None:
            return None
        return method, instance

    _CHANNEL_METHODS = {"put": "send", "put_nowait": "send", "get": "recv", "get_nowait": "recv"}

    def _resource_call(
        self,
        func: ast.Attribute,
        call: ast.Call,
        conditional: bool,
        nodes: List[SummaryNode],
    ) -> Any:
        resource = self.resource_of(func.value)
        method = func.attr
        lineno = call.lineno
        if resource is None:
            binding = self._binding_of_expr(func.value) or (
                self.binding_of(func.value.id)
                if isinstance(func.value, ast.Name)
                else None
            )
            if isinstance(binding, _ThreadRef):
                if method == "start":
                    nodes.append(self.emit("spawn", binding.name, conditional, lineno))
                    return None
                if method == "join":
                    nodes.append(self.emit("join", binding.name, conditional, lineno))
                    return None
            return _UNHANDLED
        kind = resource.kind
        if kind == "lock":
            if method == "acquire":
                nodes.append(self.emit("acquire", resource.name, conditional, lineno))
                return None
            if method == "release":
                nodes.append(self.emit("release", resource.name, conditional, lineno))
                return None
        elif kind == "cond":
            if method in ("acquire", "release"):
                nodes.append(self.emit(method, resource.mutex, conditional, lineno))
                return None
            if method == "wait":
                nodes.append(self.emit("wait", resource.name, conditional, lineno))
                return None
            if method == "notify":
                nodes.append(self.emit("notify", resource.name, conditional, lineno))
                return None
            if method == "notify_all":
                nodes.append(self.emit("notify_all", resource.name, conditional, lineno))
                return None
            if method == "wait_for":
                self.note(lineno, "Condition.wait_for modelled as a bare wait")
                nodes.append(self.emit("wait", resource.name, conditional, lineno))
                return None
        elif kind == "sem":
            if method == "acquire":
                nodes.append(self.emit("sem_acquire", resource.name, conditional, lineno))
                return None
            if method == "release":
                nodes.append(self.emit("sem_release", resource.name, conditional, lineno))
                return None
        elif kind == "barrier":
            if method == "wait":
                nodes.append(self.emit("barrier_wait", resource.name, conditional, lineno))
                return None
        elif kind == "chan":
            op = self._CHANNEL_METHODS.get(method)
            if op == "send":
                value_binding = (
                    self.scan_expr(call.args[0], conditional, nodes)
                    if call.args
                    else _Const(None)
                )
                if method == "put_nowait":
                    self.note(
                        lineno, "put_nowait modelled as a blocking send",
                        approximate=False,
                    )
                nodes.append(
                    self.emit(
                        "send", resource.name, conditional, lineno,
                        value=self.value_of(value_binding, lineno),
                    )
                )
                return None
            if op == "recv":
                if method == "get_nowait":
                    self.note(
                        lineno, "get_nowait modelled as a blocking recv",
                        approximate=False,
                    )
                site = self.emit("recv", resource.name, conditional, lineno)
                nodes.append(site)
                return _SiteRef(site.site.index, "recv", resource.name)
            if method == "task_done":
                return None
            if method in ("qsize", "empty", "full"):
                self.note(lineno, f"Queue.{method} result treated as opaque")
                return None
            if method == "join":
                self.note(lineno, "Queue.join has no channel mapping; skipped")
                return None
        self.note(
            lineno,
            f"unmodelled method {method!r} on {kind} {resource.name!r}",
        )
        return None

    def _thread_ctor(self, call: ast.Call) -> Optional[_Binding]:
        """``threading.Thread(target=..., args=..., name=...)``."""
        target_expr: Optional[ast.expr] = None
        args_expr: Optional[ast.expr] = None
        declared: Optional[str] = None
        for kw in call.keywords:
            if kw.arg == "target":
                target_expr = kw.value
            elif kw.arg == "args":
                args_expr = kw.value
            elif kw.arg == "name" and isinstance(kw.value, ast.Constant):
                declared = str(kw.value.value)
        if target_expr is None:
            self.note(call.lineno, "Thread() without a resolvable target=")
            return None
        func_def: Optional[ast.FunctionDef] = None
        instance: Optional[str] = None
        dotted = _dotted(target_expr)
        if dotted in self.scanner.functions:
            func_def = self.scanner.functions[dotted]
        else:
            bound = (
                self._bound_method(target_expr)
                if isinstance(target_expr, ast.Attribute)
                else None
            )
            if bound is not None:
                func_def, instance = bound
        if func_def is None:
            self.note(
                call.lineno,
                f"Thread target {dotted or '?'} is not a module function",
            )
            return None
        bound_args: Dict[str, Any] = {}
        params = [a.arg for a in func_def.args.args if a.arg != "self"]
        if isinstance(args_expr, (ast.Tuple, ast.List)):
            for param, arg in zip(params, args_expr.elts):
                if isinstance(arg, ast.Constant):
                    bound_args[param] = arg.value
        name = self.registry.register(
            declared or func_def.name, func_def, bound_args, instance
        )
        return _ThreadRef(name)

    # -- helper inlining ---------------------------------------------------

    def _inline(
        self,
        func_def: ast.FunctionDef,
        call: ast.Call,
        conditional: bool,
        nodes: List[SummaryNode],
        instance: Optional[str],
    ) -> Optional[_Binding]:
        if len(self.call_stack) >= _INLINE_DEPTH:
            self.note(call.lineno, f"inline depth limit at {func_def.name}()")
            return None
        if func_def.name in self.call_stack:
            self.note(
                call.lineno,
                f"recursive call to {func_def.name}() cut off",
            )
            return None
        frame = _Frame(instance=instance)
        params = [a.arg for a in func_def.args.args if a.arg != "self"]
        defaults = func_def.args.defaults
        for param, default in zip(params[len(params) - len(defaults):], defaults):
            if isinstance(default, ast.Constant):
                frame.locals[param] = _Const(default.value)
        for param, arg in zip(params, call.args):
            binding = self.scan_expr(arg, conditional, nodes)
            if binding is not None:
                frame.locals[param] = binding
        for kw in call.keywords:
            if kw.arg in params:
                binding = self.scan_expr(kw.value, conditional, nodes)
                if binding is not None:
                    frame.locals[kw.arg] = binding
        self.call_stack.append(func_def.name)
        self.frames.append(frame)
        self.inline_last.append(func_def.body[-1] if func_def.body else None)
        try:
            inner = self.walk(func_def.body, conditional)
        finally:
            self.inline_last.pop()
            self.frames.pop()
            self.call_stack.pop()
        nodes.extend(inner)
        return _Opaque(f"<{func_def.name}()>")

    # -- guards ------------------------------------------------------------

    def guard_of(
        self, test: ast.expr, conditional: bool, nodes: List[SummaryNode]
    ) -> Optional[SiteGuard]:
        """A liftable guard for a branch/loop test, emitting pre-reads."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            guard = self.guard_of(test.operand, conditional, nodes)
            return _invert(guard) if guard is not None else None
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            comparator = test.comparators[0]
            if isinstance(comparator, ast.Constant) and comparator.value is None:
                guard = self.guard_of(test.left, conditional, nodes)
                if guard is None or guard.mode != "truthy":
                    return None
                if isinstance(test.ops[0], (ast.Is, ast.Eq)):
                    return SiteGuard(guard.site, "is-none")
                if isinstance(test.ops[0], (ast.IsNot, ast.NotEq)):
                    return SiteGuard(guard.site, "not-none")
            return None
        var = self.shared_var_of(test)
        if var is not None:
            op = self.emit("read", var, conditional, test.lineno)
            nodes.append(op)
            return SiteGuard(op.site.index, "truthy")
        if isinstance(test, ast.Name):
            binding = self.binding_of(test.id)
            if isinstance(binding, _SiteRef):
                return SiteGuard(binding.index, "truthy")
        return None

    # -- statements --------------------------------------------------------

    def walk(
        self, stmts: Sequence[ast.stmt], conditional: bool
    ) -> Tuple[SummaryNode, ...]:
        nodes: List[SummaryNode] = []
        for stmt in stmts:
            self._statement(stmt, conditional, nodes)
        return tuple(nodes)

    def _statement(
        self, stmt: ast.stmt, conditional: bool, nodes: List[SummaryNode]
    ) -> None:
        if isinstance(stmt, ast.Global):
            self.frame.global_names.update(stmt.names)
            return
        if isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Constant):
                return  # docstring / bare literal
            self.scan_expr(stmt.value, conditional, nodes)
            return
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            self._assign(stmt.targets[0], stmt.value, conditional, nodes)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, stmt.value, conditional, nodes)
            return
        if isinstance(stmt, ast.AugAssign):
            self._augassign(stmt, conditional, nodes)
            return
        if isinstance(stmt, ast.If):
            self._if(stmt, conditional, nodes)
            return
        if isinstance(stmt, ast.While):
            self._while(stmt, conditional, nodes)
            return
        if isinstance(stmt, ast.For):
            self._for(stmt, conditional, nodes)
            return
        if isinstance(stmt, ast.With):
            self._with(stmt, conditional, nodes)
            return
        if isinstance(stmt, ast.Return):
            self.scan_expr(stmt.value, conditional, nodes)
            if self.call_stack:
                # Ends the *helper*, not the thread.  A trailing return is
                # dropped exactly; a mid-helper return loses only path
                # truncation (exclusivity), the conservative direction.
                if not (self.inline_last and stmt is self.inline_last[-1]):
                    self.note(
                        stmt.lineno,
                        f"return inside inlined {self.call_stack[-1]}(); "
                        f"helper-local truncation dropped",
                    )
                return
            nodes.append(SummaryReturn())
            return
        if isinstance(stmt, ast.Raise):
            self.scan_expr(stmt.exc, conditional, nodes)
            self.note(
                stmt.lineno, "raise modelled as thread end", approximate=False
            )
            nodes.append(SummaryReturn())
            return
        if isinstance(stmt, ast.Try):
            arms = [self.walk(stmt.body, True)]
            for handler in stmt.handlers:
                arms.append(self.walk(handler.body, True))
            nodes.append(SummaryBranch(arms=tuple(arms)))
            nodes.extend(self.walk(stmt.finalbody, conditional))
            self.note(stmt.lineno, "try/except modelled as a branch")
            return
        if isinstance(stmt, ast.Assert):
            self.scan_expr(stmt.test, conditional, nodes)
            return
        if isinstance(stmt, (ast.Pass, ast.Import, ast.ImportFrom, ast.Nonlocal)):
            return
        if isinstance(stmt, ast.Break):
            self.note(
                stmt.lineno,
                "break modelled as thread end (sound only when the loop is "
                "the final statement)",
            )
            nodes.append(SummaryReturn())
            return
        if isinstance(stmt, ast.Continue):
            self.note(stmt.lineno, "continue dropped (iteration structure kept)")
            return
        self.note(
            stmt.lineno, f"unmodelled statement ({type(stmt).__name__})"
        )

    def _assign(
        self,
        target: ast.expr,
        value: ast.expr,
        conditional: bool,
        nodes: List[SummaryNode],
    ) -> None:
        binding = self.scan_expr(value, conditional, nodes)
        var = self._write_target(target)
        if var is not None:
            nodes.append(
                self.emit(
                    "write", var, conditional, target.lineno,
                    value=self.value_of(binding, target.lineno),
                )
            )
            return
        if isinstance(target, ast.Name):
            self.frame.locals[target.id] = (
                binding
                if binding is not None
                else _Opaque(f"<{target.id}@L{target.lineno}>")
            )
            return
        self.note(
            target.lineno,
            f"unmodelled assignment target ({type(target).__name__})",
        )

    def _write_target(self, target: ast.expr) -> Optional[str]:
        """The shared variable a store writes, if it is one."""
        if isinstance(target, ast.Name):
            if target.id in self.frame.global_names:
                if target.id not in self.scanner.resources:
                    self.scanner.resources[target.id] = _Resource("var", target.id)
                    self.scanner.initial[target.id] = None
                res = self.scanner.resources[target.id]
                return res.name if res.kind == "var" else None
            return None
        binding = self._binding_of_expr(target)
        if isinstance(binding, _Resource) and binding.kind == "var":
            return binding.name
        if isinstance(target, ast.Attribute):
            base: Optional[str] = None
            if isinstance(target.value, ast.Name):
                if target.value.id == "self" and self.frame.instance:
                    base = self.frame.instance
                else:
                    inner = self.binding_of(target.value.id)
                    if isinstance(inner, _Resource) and inner.kind == "instance":
                        base = inner.name
            if base is not None:
                # First store to an undeclared instance attribute.
                name = f"{base}.{target.attr}"
                self.scanner.resources[name] = _Resource("var", name)
                self.scanner.initial.setdefault(name, None)
                return name
        return None

    def _augassign(
        self, stmt: ast.AugAssign, conditional: bool, nodes: List[SummaryNode]
    ) -> None:
        var = self._write_target(stmt.target)
        if var is not None:
            nodes.append(self.emit("read", var, conditional, stmt.lineno))
        self.scan_expr(stmt.value, conditional, nodes)
        if var is not None:
            nodes.append(
                self.emit(
                    "write", var, conditional, stmt.lineno,
                    value=f"<{self.thread}@L{stmt.lineno}>",
                )
            )

    def _if(
        self, stmt: ast.If, conditional: bool, nodes: List[SummaryNode]
    ) -> None:
        guard = self.guard_of(stmt.test, conditional, nodes)
        if guard is None:
            self.scan_expr(stmt.test, conditional, nodes)
            self.note(
                stmt.lineno,
                "branch condition is not liftable; either arm may run",
            )
        arms = (self.walk(stmt.body, True), self.walk(stmt.orelse, True))
        nodes.append(SummaryBranch(arms=arms, guard=guard))

    def _while(
        self, stmt: ast.While, conditional: bool, nodes: List[SummaryNode]
    ) -> None:
        if isinstance(stmt.test, ast.Constant) and stmt.test.value:
            nodes.append(SummaryLoop(body=self.walk(stmt.body, True)))
            return
        guard = self.guard_of(stmt.test, conditional, nodes)
        body = list(self.walk(stmt.body, True))
        if guard is not None:
            pre = self._site_by_index(guard.site)
            retest: Optional[OpSite] = None
            if pre is not None and body and isinstance(body[-1], SummaryOp):
                last = body[-1].site
                if last.kind == pre.kind and last.obj == pre.obj:
                    retest = last
            if retest is None and pre is not None and pre.kind == "read":
                op = self.emit("read", pre.obj, True, stmt.lineno)
                body.append(op)
                retest = op.site
            if retest is None:
                self.note(
                    stmt.lineno,
                    "while condition is not re-established by the loop body; "
                    "modelled as an opaque loop",
                )
                guard = None
        else:
            self.note(
                stmt.lineno,
                "while condition is not liftable; modelled as an opaque loop",
            )
        nodes.append(SummaryLoop(body=tuple(body), guard=guard))

    def _site_by_index(self, index: int) -> Optional[OpSite]:
        if 0 <= index < len(self.sites):
            return self.sites[index]
        return None

    def _for(
        self, stmt: ast.For, conditional: bool, nodes: List[SummaryNode]
    ) -> None:
        count: Optional[int] = None
        if isinstance(stmt.iter, ast.Call):
            callee = self.scanner.callee_of(stmt.iter)
            if (
                callee == "range"
                and len(stmt.iter.args) == 1
                and isinstance(stmt.iter.args[0], ast.Constant)
            ):
                count = int(stmt.iter.args[0].value)
        if count is None:
            self.scan_expr(stmt.iter, conditional, nodes)
            self.note(
                stmt.lineno,
                "for-loop iterable is not a constant range; trip count unknown",
            )
        if isinstance(stmt.target, ast.Name):
            self.frame.locals[stmt.target.id] = _Opaque(
                f"<{stmt.target.id}@L{stmt.lineno}>"
            )
        nodes.append(
            SummaryLoop(body=self.walk(stmt.body, True), count=count)
        )
        if stmt.orelse:
            nodes.extend(self.walk(stmt.orelse, conditional))

    def _with(
        self, stmt: ast.With, conditional: bool, nodes: List[SummaryNode]
    ) -> None:
        entered: List[Tuple[str, str]] = []  # (release kind, resource name)
        for item in stmt.items:
            resource = self.resource_of(item.context_expr)
            if resource is None:
                self.note(
                    stmt.lineno,
                    "with-item is not a declared lock/condition/semaphore",
                )
                continue
            if resource.kind == "lock":
                nodes.append(
                    self.emit("acquire", resource.name, conditional, stmt.lineno)
                )
                entered.append(("release", resource.name))
            elif resource.kind == "cond":
                nodes.append(
                    self.emit("acquire", resource.mutex, conditional, stmt.lineno)
                )
                entered.append(("release", resource.mutex))
            elif resource.kind == "sem":
                nodes.append(
                    self.emit("sem_acquire", resource.name, conditional, stmt.lineno)
                )
                entered.append(("sem_release", resource.name))
            else:
                self.note(
                    stmt.lineno,
                    f"with-item on {resource.kind} {resource.name!r} unmodelled",
                )
        nodes.extend(self.walk(stmt.body, conditional))
        for kind, name in reversed(entered):
            nodes.append(self.emit(kind, name, conditional, stmt.lineno))


_UNHANDLED = object()


def _invert(guard: SiteGuard) -> SiteGuard:
    flip = {
        "truthy": "falsy",
        "falsy": "truthy",
        "is-none": "not-none",
        "not-none": "is-none",
    }
    return SiteGuard(guard.site, flip[guard.mode])


# -- thread registry and assembly --------------------------------------------


class _ThreadRegistry:
    """Discovered threads, in spawn order, with name dedup."""

    def __init__(self) -> None:
        self.specs: Dict[str, _ThreadSpec] = {}

    def register(
        self,
        name: str,
        func: ast.FunctionDef,
        args: Dict[str, Any],
        instance: Optional[str],
    ) -> str:
        base, candidate, n = name, name, 1
        while candidate in self.specs:
            n += 1
            candidate = f"{base}-{n}"
        self.specs[candidate] = _ThreadSpec(candidate, func, args, instance)
        return candidate


def frontend(source: str, name: str = "module") -> ProgramSummary:
    """Summarize one real-Python ``threading`` module.

    The entry thread is the module's ``main()`` function (falling back to
    the ``if __name__ == "__main__":`` block); every
    ``threading.Thread(target=...)`` it (transitively) constructs becomes
    a declared thread reachable via its ``spawn`` site, exactly as DSL
    programs declare workers started by ``Spawn``.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise SourceError(f"cannot parse {name!r}: {exc}") from exc
    scanner = _ModuleScanner(name, tree)
    scanner.scan()

    registry = _ThreadRegistry()
    main_def = scanner.functions.get("main")
    if main_def is not None:
        body_stmts: Sequence[ast.stmt] = main_def.body
    elif scanner.main_guard:
        # A guard that only calls main() would have been caught above;
        # analyze the guard statements as the entry body.
        body_stmts = scanner.main_guard
    else:
        raise SourceError(
            f"{name!r} has no main() function and no __main__ guard; "
            f"cannot locate the entry thread"
        )

    threads: Dict[str, ThreadSummary] = {}

    def extract(thread_name: str, stmts: Sequence[ast.stmt],
                frame: _Frame) -> ThreadSummary:
        extractor = _BodyExtractor(scanner, thread_name, registry)
        extractor.frames.append(frame)
        nodes = extractor.walk(stmts, conditional=False)
        return ThreadSummary(
            thread=thread_name,
            nodes=nodes,
            sites=tuple(extractor.sites),
            approximate=extractor.approximate,
            notes=tuple(extractor.notes),
            exclusive_pairs=_exclusive_pairs(nodes, len(extractor.sites)),
        )

    threads["main"] = extract("main", body_stmts, _Frame())
    # Fixpoint over discovered threads (spawned threads can spawn more).
    done: Set[str] = set()
    while True:
        pending = [n for n in registry.specs if n not in done]
        if not pending:
            break
        for thread_name in pending:
            spec = registry.specs[thread_name]
            frame = _Frame(instance=spec.instance)
            for param, value in spec.args.items():
                frame.locals[param] = _Const(value)
            threads[thread_name] = extract(thread_name, spec.func.body, frame)
            done.add(thread_name)

    initial = {
        res.name: scanner.initial.get(res.name)
        for res in scanner.resources.values()
        if res.kind == "var"
    }
    summary = ProgramSummary(
        program=name,
        threads=threads,
        initial=initial,
        locks=tuple(scanner.locks),
        rwlocks=(),
        semaphores=tuple(scanner.semaphores),
        conditions=dict(scanner.conditions),
        barriers=tuple(scanner.barriers),
        channels=dict(scanner.channels),
        start=("main",),
        memory="sc",
    )
    if scanner.notes:
        main_summary = summary.threads["main"]
        main_summary.notes = main_summary.notes + tuple(scanner.notes)
    return summary


# -- corpus loading ----------------------------------------------------------


def load_source(path: Union[str, Path]) -> SourceModule:
    """Analyze one real-Python module file."""
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SourceError(f"cannot read {path}: {exc}") from exc
    name = path.stem
    tree = ast.parse(source)  # reparse for expectations only
    raw: Optional[Dict[str, Any]] = None
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "REPRO_EXPECT"
        ):
            raw = ast.literal_eval(stmt.value)
    bugs, fixed_of = parse_expectations(raw)
    return SourceModule(
        name=name,
        summary=frontend(source, name=name),
        bugs=bugs,
        fixed_of=fixed_of,
        path=path,
    )


def load_corpus(root: Union[str, Path]) -> List[SourceModule]:
    """Every ``*.py`` module under ``root``, sorted by name."""
    root = Path(root)
    if root.is_file():
        return [load_source(root)]
    modules = [
        load_source(path)
        for path in sorted(root.glob("*.py"))
        if not path.name.startswith("_")
    ]
    if not modules:
        raise SourceError(f"no corpus modules under {root}")
    return modules
