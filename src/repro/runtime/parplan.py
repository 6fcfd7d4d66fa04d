"""Static eligibility analysis for offloading ``parallel for`` to processes.

The proc backend (:mod:`repro.runtime.proc`) can only ship a loop body to a
worker process when it can *merge the results back* under Tetra's variable
rules (paper §IV: the induction variable is worker-private, everything else
is shared).  Shipping is a snapshot — workers see a frozen copy of the
enclosing frame — so the body must not depend on cross-worker visibility of
shared scalars.  This module decides, per ``parallel for`` node, whether
that holds, and records *what* has to merge back:

* **Reductions** — the one blessed use of shared scalars: a ``lock`` body
  that is exactly ``x += expr`` / ``x -= expr`` (merged by summing each
  worker's delta) or the guarded monotone assignment idiom
  ``if cand < x:`` / ``lock x:`` / ``if cand < x: x = cand`` (merged with
  ``min``; ``>`` merges with ``max``).  These cover the paper's primes
  count, TSP best-tour bound, and Figure 3 maximum.
* **Container edits** — element/field stores (``a[i] = v``, ``obj.f = v``)
  outside locks are allowed; the parent deep-diffs each worker's final
  containers against the originals and applies disjoint changes, raising a
  clear diagnostic when two workers changed the same slot differently.
* Everything else that mutates shared state — bare scalar assignment,
  sequential ``for`` loop variables (which live in the shared frame),
  ``lock`` bodies that don't match a reduction, nested parallel constructs,
  and console *input* — makes the loop ineligible, and the proc backend
  falls back to in-process threads rather than silently racing.

The analysis is purely syntactic over the checked AST (plus the checker's
type annotations for method receivers) and is cached on the ``ParallelFor``
node, so it runs once per program regardless of how often the loop runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..tetra_ast import (
    Assign,
    AugAssign,
    Attribute,
    BackgroundBlock,
    BinaryOp,
    BinOp,
    Block,
    Break,
    Call,
    Continue,
    Declare,
    Expr,
    ExprStmt,
    For,
    If,
    Index,
    LockStmt,
    MethodCall,
    Name,
    ParallelBlock,
    ParallelFor,
    Pass,
    Program,
    Return,
    Stmt,
    TryStmt,
    Unpack,
    While,
    node_equal,
    walk,
)
from ..types import BoolType, IntType, RealType, StringType

#: Builtins that consume console input: the parent's input queue cannot be
#: split across processes without changing which read sees which line.
READ_BUILTINS = frozenset({"read_int", "read_real", "read_string", "read_bool"})

#: Statements that mean "this region manages its own concurrency" — the
#: thread fallback keeps their semantics exactly.
_PARALLEL_STMTS = (ParallelFor, ParallelBlock, BackgroundBlock)


@dataclass
class ParforPlan:
    """What the proc backend learned about one ``parallel for`` loop."""

    ok: bool
    #: Human-readable fallback reason when ``ok`` is False (surfaced in
    #: ``ProcBackend.fallbacks`` and in ``--trace`` output).
    reason: str = ""
    #: Shared scalars merged as reductions: name → "sum" | "min" | "max".
    reductions: dict[str, str] = field(default_factory=dict)
    #: Every variable name the body references (reads *or* writes, minus
    #: the loop's own induction variable): the frozen read-set to ship.
    names: tuple[str, ...] = ()
    #: Names the body assigns outside any lock.  Statically these are only
    #: legal when they resolve to a *private* binding (an enclosing
    #: ``parallel for``'s induction variable); the backend checks that
    #: against the live environment at dispatch time.
    scalar_writes: tuple[str, ...] = ()


def plan_parallel_for(node: ParallelFor, program: Program) -> ParforPlan:
    """Analyze (and cache) the offload plan for one ``parallel for``."""
    plan = getattr(node, "_proc_plan", None)
    if plan is None:
        plan = _analyze(node, program)
        node._proc_plan = plan  # type: ignore[attr-defined]
    return plan


# ----------------------------------------------------------------------
# Reduction pattern matching
# ----------------------------------------------------------------------
def _names_in(expr: Expr) -> set[str]:
    return {n.id for n in walk(expr) if isinstance(n, Name)}


def _match_guarded_minmax(stmt: If) -> tuple[str, str] | None:
    """``if cand < x: x = cand`` → ("x", "min"); ``>`` → "max".

    Accepts either operand order and the non-strict comparators.  The
    write is monotone — it only ever moves ``x`` toward the extreme — so
    each worker's final value is its local extreme and the merge is
    ``min``/``max`` over the initial value and all finals, which is the
    same answer a sequential run computes.
    """
    if stmt.elifs or stmt.orelse or len(stmt.then.statements) != 1:
        return None
    inner = stmt.then.statements[0]
    if not isinstance(inner, Assign) or not isinstance(inner.target, Name):
        return None
    var = inner.target.id
    cond = stmt.cond
    if not isinstance(cond, BinOp):
        return None
    lt = cond.op in (BinaryOp.LT, BinaryOp.LE)
    gt = cond.op in (BinaryOp.GT, BinaryOp.GE)
    if not (lt or gt):
        return None
    if isinstance(cond.right, Name) and cond.right.id == var:
        candidate = cond.left          # cand < var  /  cand > var
        kind = "min" if lt else "max"
    elif isinstance(cond.left, Name) and cond.left.id == var:
        candidate = cond.right         # var > cand  →  var moves down
        kind = "min" if gt else "max"
    else:
        return None
    # The assigned value must be the compared candidate, and must not
    # itself read the reduction variable.
    if not node_equal(inner.value, candidate):
        return None
    if var in _names_in(candidate):
        return None
    return var, kind


def _match_reduction(lock_stmt: LockStmt) -> tuple[str, str] | None:
    """A lock body the merge understands, or None."""
    stmts = lock_stmt.body.statements
    if len(stmts) != 1:
        return None
    s = stmts[0]
    if isinstance(s, AugAssign) and isinstance(s.target, Name):
        if s.op in (BinaryOp.ADD, BinaryOp.SUB):
            # x += expr merges as x0 + Σ(worker deltas) — valid only when
            # expr does not read x (each increment must be independent of
            # the running total).
            if s.target.id not in _names_in(s.value):
                return s.target.id, "sum"
        return None
    if isinstance(s, Assign) and isinstance(s.target, Name) \
            and isinstance(s.value, BinOp):
        # The spelled-out forms: x = x + expr / x = expr + x / x = x - expr.
        name = s.target.id
        op, left, right = s.value.op, s.value.left, s.value.right
        if op == BinaryOp.ADD:
            for this, other in ((left, right), (right, left)):
                if isinstance(this, Name) and this.id == name \
                        and name not in _names_in(other):
                    return name, "sum"
        elif op == BinaryOp.SUB:
            if isinstance(left, Name) and left.id == name \
                    and name not in _names_in(right):
                return name, "sum"
        return None
    if isinstance(s, If):
        return _match_guarded_minmax(s)
    return None


# ----------------------------------------------------------------------
# Body scan
# ----------------------------------------------------------------------
class _Ineligible(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _Scan:
    def __init__(self, node: ParallelFor, program: Program):
        self.node = node
        self.program = program
        self.names: set[str] = set()
        self.scalar_writes: set[str] = set()
        self.reductions: dict[str, str] = {}
        self.calls: set[str] = set()
        self.methods: set[tuple[str, str]] = set()

    # -- helpers -------------------------------------------------------
    def fail(self, stmt: Stmt, why: str) -> None:
        raise _Ineligible(f"line {stmt.span.line}: {why}")

    def expr(self, e: Expr | None) -> None:
        if e is None:
            return
        for sub in walk(e):
            if isinstance(sub, Name):
                self.names.add(sub.id)
            elif isinstance(sub, Call):
                self.calls.add(sub.func)
                if sub.func in READ_BUILTINS:
                    raise _Ineligible(
                        f"line {sub.span.line}: {sub.func}() reads console "
                        "input, which cannot be split across processes"
                    )
            elif isinstance(sub, MethodCall):
                self.methods.add(self._resolve_method(sub))

    def _resolve_method(self, call: MethodCall) -> tuple[str, str]:
        ty = getattr(call.base, "ty", None)
        cls = getattr(ty, "name", None)
        if not cls or self.program.class_def(cls) is None:
            raise _Ineligible(
                f"line {call.span.line}: cannot statically resolve method "
                f"'{call.method}' for process offload"
            )
        return cls, call.method

    def target(self, t: Expr, stmt: Stmt, in_lock: bool) -> None:
        """Classify one assignment target."""
        if isinstance(t, Name):
            self.names.add(t.id)
            if in_lock:
                # Scalar writes under a lock are only legal as part of a
                # recognized reduction, which _stmt handles wholesale.
                self.fail(stmt, "internal: scalar write reached target()")
            if t.id != self.node.var:
                self.scalar_writes.add(t.id)
            return
        if isinstance(t, (Index, Attribute)):
            if in_lock:
                self.fail(
                    stmt,
                    "lock body stores into a container — not a reduction "
                    "the process backend can merge",
                )
            # Element/field store: record the root container and any
            # expressions on the path.
            base = t
            while isinstance(base, (Index, Attribute)):
                if isinstance(base, Index):
                    self.expr(base.index)
                base = base.base
            self.expr(base)
            return
        self.fail(stmt, f"unsupported assignment target {type(t).__name__}")

    # -- statements ----------------------------------------------------
    def block(self, body: Block, in_lock: bool) -> None:
        for s in body.statements:
            self.stmt(s, in_lock)

    def stmt(self, s: Stmt, in_lock: bool) -> None:
        if isinstance(s, _PARALLEL_STMTS):
            self.fail(s, "nested parallel construct (keeps thread semantics)")
        if isinstance(s, ExprStmt):
            self.expr(s.expr)
        elif isinstance(s, Assign):
            self.target(s.target, s, in_lock)
            self.expr(s.value)
        elif isinstance(s, AugAssign):
            self.target(s.target, s, in_lock)
            self.expr(s.value)
        elif isinstance(s, Unpack):
            for t in s.targets:
                self.target(t, s, in_lock)
            self.expr(s.value)
        elif isinstance(s, Declare):
            if in_lock:
                self.fail(s, "declaration inside a lock body")
            self.names.add(s.name)
            self.scalar_writes.add(s.name)
            self.expr(s.value)
        elif isinstance(s, If):
            self.expr(s.cond)
            self.block(s.then, in_lock)
            for clause in s.elifs:
                self.expr(clause.cond)
                self.block(clause.body, in_lock)
            if s.orelse is not None:
                self.block(s.orelse, in_lock)
        elif isinstance(s, While):
            self.expr(s.cond)
            self.block(s.body, in_lock)
        elif isinstance(s, For):
            # A sequential for's loop variable lives in the *shared* frame
            # (only parallel-for induction variables are private), so the
            # body mutates shared state every iteration.
            self.fail(
                s,
                f"sequential for variable '{s.var}' is shared across "
                "workers (wrap the work in a function to keep it local)",
            )
        elif isinstance(s, LockStmt):
            if in_lock:
                self.fail(s, "nested lock inside a lock body")
            match = _match_reduction(s)
            if match is None:
                self.fail(
                    s,
                    f"'lock {s.name}:' body is not a reduction the process "
                    "backend can merge (supported: 'x += expr' and guarded "
                    "min/max assignment)",
                )
            var, kind = match
            prior = self.reductions.get(var)
            if prior is not None and prior != kind:
                self.fail(
                    s,
                    f"variable '{var}' is used in conflicting reductions "
                    f"({prior} vs {kind})",
                )
            self.reductions[var] = kind
            self.names.add(var)
            # Record reads inside the lock body (e.g. the summed term).
            for inner in s.body.statements:
                if isinstance(inner, AugAssign):
                    self.expr(inner.value)
                elif isinstance(inner, If):
                    self.expr(inner.cond)
                    for leaf in inner.then.statements:
                        if isinstance(leaf, Assign):
                            self.expr(leaf.value)
        elif isinstance(s, TryStmt):
            # 'catch name:' binds the message into the shared frame.
            self.fail(
                s,
                f"try/catch binds '{s.error_name}' in the shared frame",
            )
        elif isinstance(s, Return):
            self.fail(s, "return inside a parallel for body")
        elif isinstance(s, (Break, Continue, Pass)):
            pass
        else:  # pragma: no cover - parser emits no other kinds
            self.fail(s, f"unsupported statement {type(s).__name__}")

    # -- transitive callees --------------------------------------------
    def check_callees(self) -> None:
        """Reject loops whose (transitively) called functions use locks,
        parallel constructs, or console input: those need the shared
        in-process runtime, so the loop keeps thread semantics."""
        seen_fns: set[str] = set()
        seen_methods: set[tuple[str, str]] = set()
        fn_stack = list(self.calls)
        method_stack = list(self.methods)
        while fn_stack or method_stack:
            if fn_stack:
                name = fn_stack.pop()
                if name in seen_fns:
                    continue
                seen_fns.add(name)
                fn = self.program.function(name)
                if fn is None:
                    # A builtin: pure with respect to Tetra frames, except
                    # the console readers (already rejected at the call
                    # site, but calls can hide inside callees).
                    if name in READ_BUILTINS:
                        raise _Ineligible(
                            f"called builtin {name}() reads console input"
                        )
                    continue
                where = f"function '{name}'"
                body = fn.body
            else:
                cls, mname = method_stack.pop()
                if (cls, mname) in seen_methods:
                    continue
                seen_methods.add((cls, mname))
                cdef = self.program.class_def(cls)
                method = None
                if cdef is not None:
                    for m in cdef.methods:
                        if m.name == mname:
                            method = m
                            break
                if method is None:
                    raise _Ineligible(
                        f"cannot resolve method '{cls}.{mname}' for "
                        "process offload"
                    )
                where = f"method '{cls}.{mname}'"
                body = method.body
            for sub in walk(body):
                if isinstance(sub, LockStmt):
                    raise _Ineligible(
                        f"{where} uses 'lock {sub.name}:' (locks only "
                        "synchronize within one process)"
                    )
                if isinstance(sub, _PARALLEL_STMTS):
                    raise _Ineligible(
                        f"{where} contains a nested parallel construct"
                    )
                if isinstance(sub, Call):
                    if sub.func in READ_BUILTINS:
                        raise _Ineligible(
                            f"{where} calls {sub.func}(), which reads "
                            "console input"
                        )
                    if sub.func not in seen_fns:
                        fn_stack.append(sub.func)
                if isinstance(sub, MethodCall):
                    resolved = self._resolve_method(sub)
                    if resolved not in seen_methods:
                        method_stack.append(resolved)


def _analyze(node: ParallelFor, program: Program) -> ParforPlan:
    scan = _Scan(node, program)
    try:
        scan.block(node.body, in_lock=False)
        scan.check_callees()
    except _Ineligible as why:
        return ParforPlan(ok=False, reason=why.reason)
    # A scalar that is both a reduction and a bare write can't merge.
    tainted = scan.reductions.keys() & scan.scalar_writes
    if tainted:
        name = sorted(tainted)[0]
        return ParforPlan(
            ok=False,
            reason=f"variable '{name}' is written both under a lock and "
                   "outside one",
        )
    scan.names.discard(node.var)
    return ParforPlan(
        ok=True,
        reductions=dict(scan.reductions),
        names=tuple(sorted(scan.names)),
        scalar_writes=tuple(sorted(scan.scalar_writes)),
    )


# ----------------------------------------------------------------------
# Deep diff / merge of container values
# ----------------------------------------------------------------------
def diff_value(old, new, path: tuple, out: list) -> None:
    """Record (path, new_value) for every leaf where ``new`` differs.

    Containers recurse so two workers editing *different* slots of the same
    array merge cleanly; anything else (scalars, shape changes, type
    changes) records the whole subtree at ``path``.  A leaf differs when
    ``old != new`` unless both are NaN (see :func:`same_value`).
    """
    from .values import TetraArray, TetraDict, TetraObject, TetraTuple

    if type(old) is not type(new):
        if not same_value(old, new):
            out.append((path, new))
        return
    if isinstance(old, TetraArray):
        olds, news = old.items, new.items
        if len(olds) != len(news):
            out.append((path, new))
            return
        if olds == news:
            return
        if isinstance(old.element_type, _SCALAR_TYPES):
            for i, o in enumerate(olds):
                n = news[i]
                # ``o == o or n == n`` is false only when both are NaN.
                if o != n and (o == o or n == n):
                    out.append((path + (("i", i),), n))
            return
        for i, (o, n) in enumerate(zip(olds, news)):
            diff_value(o, n, path + (("i", i),), out)
        return
    if isinstance(old, TetraTuple):
        # Tuples are immutable but may hold mutable containers.
        if len(old.items) != len(new.items):
            out.append((path, new))
            return
        for i, (o, n) in enumerate(zip(old.items, new.items)):
            diff_value(o, n, path + (("i", i),), out)
        return
    if isinstance(old, TetraDict):
        for key in set(old.items) | set(new.items):
            if key not in new.items:
                out.append((path + (("del", key),), None))
            elif key not in old.items:
                out.append((path + (("k", key),), new.items[key]))
            else:
                diff_value(old.items[key], new.items[key],
                           path + (("k", key),), out)
        return
    if isinstance(old, TetraObject):
        for fname in old.fields:
            diff_value(old.fields[fname], new.fields.get(fname),
                       path + (("f", fname),), out)
        return
    if not same_value(old, new):
        out.append((path, new))


def same_value(a, b) -> bool:
    """``a == b``, with NaN equal to NaN.

    A worker returns an unpickled copy of every value, so an untouched NaN
    comes back as a new float that ``==`` calls different, and two workers
    that both wrote NaN would seem to disagree.
    """
    return a == b or (a != a and b != b)


#: Element types of a flat array, whose elements diff as leaves.
_SCALAR_TYPES = (IntType, RealType, BoolType, StringType)


def apply_change(root, path: tuple, value) -> None:
    """Write ``value`` at ``path`` inside ``root`` (paths from diff_value)."""
    from .values import TetraArray, TetraDict, TetraObject, TetraTuple

    obj = root
    for step in path[:-1]:
        kind, key = step
        if kind == "i":
            obj = obj.items[key]
        elif kind == "k":
            obj = obj.items[key]
        else:  # "f"
            obj = obj.fields[key]
    kind, key = path[-1]
    if kind == "del":
        obj.items.pop(key, None)
    elif kind == "i":
        if isinstance(obj, TetraTuple):
            # Tuple items are a Python tuple; rebuild around the change.
            items = list(obj.items)
            items[key] = value
            obj.items = tuple(items)
        else:
            obj.items[key] = value
    elif kind == "k":
        obj.items[key] = value
    else:  # "f"
        obj.fields[key] = value


def describe_path(name: str, path: tuple) -> str:
    """Human-readable spelling of a merge path, for diagnostics."""
    text = name
    for kind, key in path:
        if kind == "i":
            text += f"[{key}]"
        elif kind in ("k", "del"):
            text += f"[{key!r}]"
        else:
            text += f".{key}"
    return text
