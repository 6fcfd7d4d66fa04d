"""AST compilation: how the interpreter runs a program.

The paper's interpreter runs a program by traversing its AST recursively.
This module does that traversal **once** per program: every function body
becomes a generated Python function written by
:mod:`repro.interp.generate`, the one statement compiler, with everything
that is knowable at compile time bound in:

* **Operator specialization.**  ``a / b`` on two ``int`` operands becomes
  the truncating rule of :func:`int_div`; on reals it calls
  :func:`real_div`.  The checker's ``ty`` annotations drive the choice, so
  execution never re-discovers operand types.
* **Callee resolution.**  A call site binds the target function's
  *invoker* (or the builtin's ``invoke`` method, or the class constructor)
  at compile time instead of probing three dictionaries per call.
* **Local variable slots.**  The only thread-private bindings a Tetra
  environment can ever hold are ``parallel for`` induction variables
  (see :mod:`repro.runtime.env`).  Every other function-local name is
  proven to live in the shared frame, so its reads and writes go straight
  to ``frame.vars`` and skip the private-table probe.
* **Backend specialization.**  On *lean* backends — those that neither
  schedule per statement (``checkpoint``) nor account costs (``charge``)
  — a statement compiles to its bare core: nothing there reads a
  statement span, and the stop flag is polled at loop back-edges and on
  function entry instead (under a step budget those polls count the
  steps, on every backend).  The coop scheduler and the virtual-time
  simulator get the full prologue — stop flag, guardrail, span,
  checkpoint, profile hit, statement charge — written before every
  statement, so stepping and simulated makespans follow every statement.
* **Completion values.**  A statement returns ``None``, ``BREAK``,
  ``CONTINUE`` or a returned value instead of raising (see
  :mod:`repro.interp.control`), so ``return`` costs no exception.
* **Race detection, compiled in.**  With ``detect_races`` on, every shared
  access site — a name load or store, an array/dict element load or store,
  a field load or store — carries a note that feeds the
  :class:`~repro.analysis.races.RaceDetector` (and the simulator's trace)
  after the access's charge and type check and before the access itself,
  and ``lock`` bodies report acquire/release inside the held lock.  With
  detection off no code carries a note or a test for one.

This module keeps the invokers (the calling convention) and closures for
what the writer leaves out: builtins, constructors, method calls, fields,
dict and string elements, collection literals, ``lock``, ``try``, the
parallel constructs, ``Unpack``, ``Declare`` and an ``op=`` whose field or
element target holds a call.  Their operands are generated again.

Spans ride along in all code that can raise, so diagnostics render the
same caret on every backend; per-statement checkpoints and span stores
keep the debugger's independent stepping and backtraces working.
``tests/test_exec_golden.py`` pins what every bundled program does on the
deterministic backends, with detection off and on.
"""

from __future__ import annotations

from typing import Callable

from ..errors import (
    TetraInternalError,
    TetraLimitError,
    TetraRuntimeError,
    is_catchable,
)
from ..tetra_ast import (
    ArrayLiteral,
    Attribute,
    AugAssign,
    BackgroundBlock,
    BinaryOp,
    Block,
    Call,
    Declare,
    DictLiteral,
    Expr,
    Index,
    LockStmt,
    MethodCall,
    Name,
    ParallelBlock,
    ParallelFor,
    RangeLiteral,
    Stmt,
    TryStmt,
    TupleLiteral,
    Unpack,
    unparse,
    walk_statements,
)
from ..types import (
    INT,
    VOID,
    ArrayType,
    ClassType,
    DictType,
    IntType,
    StringType,
    TupleType,
    from_type_expr,
)
from ..runtime import (
    Environment,
    Frame,
    coerce_to,
    make_array,
    real_div,
    real_mod,
    tetra_pow,
)
from ..runtime.values import TetraArray, TetraDict, TetraObject, TetraTuple
from ..stdlib.registry import BUILTINS
from .generate import (
    checked_applier,
    generate_block,
    generate_store,
    generate_value,
    missing,
    widening,
)

#: A compiled statement: runs for effect and returns its completion (see
#: :mod:`repro.interp.control`).  A compiled expression takes the same
#: shape but returns the value.
StmtRun = Callable[[object], object]
ExprRun = Callable[[object], object]

#: Invoker signature: (evaluated args, caller ctx, call-site span) -> value.
Invoker = Callable[[list, object, object], object]


class CompiledProgram:
    """The compiled functions of one program, bound to one interpreter.

    ``functions`` maps a function name to its invoker; ``methods`` maps
    ``(class_name, method_name)``.  Invokers own the whole calling
    convention — recursion limit, frame/environment setup, parameter and
    return coercion — so call sites just evaluate arguments and jump.
    """

    __slots__ = ("interp", "functions", "methods", "lean")

    def __init__(self, interp, functions: dict[str, Invoker],
                 methods: dict[tuple[str, str], Invoker], lean: bool):
        self.interp = interp
        self.functions = functions
        self.methods = methods
        #: True when statements run without the per-statement prologue, so
        #: the run's guard must be folded into the stop flag.
        self.lean = lean

    def compile(self, node: Block | Stmt | Expr, private=()):
        """Compile a fragment that lives outside the program's functions —
        REPL input, a debugger console expression, a proc worker's loop
        body — against this program's invokers.

        ``private`` names the bindings that may be thread-private where
        the fragment runs; the fragment's own ``parallel for`` variables
        are added.  Returns a block or statement function (run for
        effect) or an expression function (returns the value), each taking
        a :class:`ThreadContext`.
        """
        comp = _Compiler(self.interp)
        comp._invokers = self.functions
        comp._method_invokers = self.methods
        comp._induction = frozenset(private) | parallel_for_vars(node)
        if isinstance(node, Block):
            return comp.block(node)
        if isinstance(node, Stmt):
            return comp.stmt(node)
        return comp.expr(node)


def compile_program(interp) -> CompiledProgram:
    """Precompile every function and method of ``interp.program``."""
    return _Compiler(interp).compile()


def parallel_for_vars(node) -> frozenset[str]:
    """The induction variables of every ``parallel for`` in ``node``: the
    only names that can be thread-private inside it."""
    return frozenset(n.var for n in (node, *walk_statements(node))
                     if isinstance(n, ParallelFor))


def _no_note(ctx, key, display, span, pin) -> None:
    """The race note of a run without a race detector."""


class _Compiler:
    """Compiles one program for one :class:`Interpreter` instance.

    The compiled code binds the interpreter's backend, io channel, and
    cost model, which is what makes it fast — and what ties a compiled
    program to its interpreter.  Compilation itself is a single O(nodes)
    walk, so rebinding per run is cheap; the expensive lex/parse/check
    work is what the :mod:`repro.api` program cache memoizes.
    """

    def __init__(self, interp):
        self.interp = interp
        self.backend = interp.backend
        self.acc = interp._acc
        self.cost = interp.cost_model
        self.io = interp.io
        self.source = interp.source
        self.symbols = interp.symbols
        #: The run's step counter under a step budget, else None: the
        #: sites that poll the stop flag count a step each (see
        #: :meth:`Interpreter._stop_error`).
        self.steps = interp._steps if interp.config.step_limit else None
        #: The backend's cost charge, bound once (called only under cost
        #: accounting, which only the simulator does).
        self.charge = self.backend.charge
        # Backends that don't observe checkpoint() never see it skipped;
        # dropping the call saves a method call per statement on the thread
        # and sequential backends.  Asked of the *instance* (not the class)
        # because those backends only observe checkpoints while a schedule
        # recorder is attached.
        self._checkpoint = (self.backend.checkpoint
                            if self.backend.wants_checkpoints() else None)
        obs = interp._obs
        self._obs = obs
        #: Per-line profile hook, bound once; None unless profiling.
        self._line_hit = (obs.line_hit
                          if obs is not None and obs.profile else None)
        #: Guardrail check (cancel token / time limit / chaos preemption)
        #: for the full statement prologue, bound once; None in the common
        #: unguarded case.  Only chaos preemption and a virtual-clock
        #: deadline need it per statement: on a lean compile the guard
        #: folds the token and the host-clock deadline into the stop flag
        #: (``ExecutionGuard.watch``).  The heap meter is checked at
        #: allocation sites, so it does not force the prologue either.
        guard = interp._guard
        self._guard_check = guard.check if guard is not None else None
        self._heap = interp._heap
        #: The race detector, or None; only a detector makes shared-access
        #: sites compile with hooks.
        self.race = interp._race
        #: The read and write notes (indexed by ``is_write``) under race
        #: detection, built once.
        self.race_notes = ((self._race_note(False), self._race_note(True))
                           if self.race is not None else None)
        #: True when statements run bare, without the per-statement
        #: prologue: no cost accounting, checkpoints or profile hits, and a
        #: guard the stop flag can carry.
        self.lean = not (self.acc or self._checkpoint is not None
                         or self._line_hit is not None
                         or (guard is not None and guard.per_statement))
        self._invokers: dict[str, Invoker] = {}
        self._method_invokers: dict[tuple[str, str], Invoker] = {}
        #: Names that *can* be thread-private in the function currently
        #: being compiled: the induction variables of its parallel fors.
        self._induction: frozenset[str] = frozenset()

    # ------------------------------------------------------------------
    # Program / function level
    # ------------------------------------------------------------------
    def compile(self) -> CompiledProgram:
        program = self.interp.program
        pending = []
        # Phase 1: create every invoker (bodies still empty) so call sites
        # can bind their callee directly, recursion included.
        for fn in program.functions:
            sig = self.symbols.functions[fn.name]
            cell: list = [None]
            self._invokers[fn.name] = self._make_invoker(sig, cell)
            pending.append((fn, cell))
        for cls in program.classes:
            info = self.symbols.classes[cls.name]
            for method in cls.methods:
                sig = info.methods[method.name]
                cell = [None]
                self._method_invokers[(cls.name, method.name)] = \
                    self._make_invoker(sig, cell)
                pending.append((method, cell))
        # Between the phases: substitute native (C) invokers for lowered
        # functions.  Call sites bind their callee from `_invokers` while
        # bodies compile in phase 2, so the swap must happen first; the
        # phase-1 Python invoker survives as the fallback each native
        # invoker delegates to when arguments exceed the C ABI (ints
        # beyond 64 bits).
        native = getattr(self.interp, "_native", None)
        if native is not None:
            for fn in program.functions:
                replacement = native.function_invoker(
                    fn.name, self._invokers[fn.name]
                )
                if replacement is not None:
                    self._invokers[fn.name] = replacement
        # Phase 2: compile the bodies.
        for fn, cell in pending:
            self._induction = parallel_for_vars(fn.body)
            cell[0] = self.block(fn.body)
        return CompiledProgram(self.interp, self._invokers,
                               self._method_invokers, self.lean)

    def _make_invoker(self, sig, cell: list) -> Invoker:
        interp = self.interp
        name = sig.name
        recursion_limit = interp.config.recursion_limit
        param_names = sig.param_names
        # coerce_to only acts on real and tuple targets; every other
        # parameter binds without the call.
        param_coerce = tuple(widening(ty) for ty in sig.param_types)
        simple_params = not any(param_coerce)
        return_type = sig.return_type
        is_void = return_type is VOID
        ret_coerce = not is_void and widening(return_type) is not None
        acc = self.acc
        charge = self.charge
        call_units = self.cost.call_overhead
        steps = self.steps

        def invoke(args, ctx, span):
            # Statements do not poll the stop flag; function entry and loop
            # back-edges do (and count a step under a budget), so a stop or
            # a budget ends loop-free recursion too.
            if (interp._stopped if steps is None
                    else next(steps) > interp._budget):
                raise interp._stop_error(span)
            call_stack = ctx.call_stack
            if len(call_stack) >= recursion_limit:
                exc = TetraLimitError(
                    f"recursion depth exceeded {recursion_limit} "
                    f"calls (last call: '{name}') — raise it with "
                    "RuntimeConfig(recursion_limit=...) if the recursion "
                    "is intentional",
                    span,
                    limit="recursion",
                )
                if interp.source is not None:
                    exc.attach_source(interp.source)
                raise exc
            # The frame is also the call-stack entry: two objects per call.
            frame = Frame(name)
            fvars = frame.vars
            if simple_params:
                for pname, value in zip(param_names, args):
                    fvars[pname] = value
            else:
                for pname, want, value in zip(param_names, param_coerce, args):
                    fvars[pname] = (coerce_to(value, want)
                                    if want is not None else value)
            saved_env = ctx.env
            ctx.env = Environment(frame)
            call_stack.append(frame)
            if acc:
                charge(ctx, call_units)
            try:
                result = cell[0](ctx)
            finally:
                call_stack.pop()
                ctx.env = saved_env
            # The body's completion: a returned value, RETURN for a bare
            # return, or None when control fell off the end.
            if is_void or result is None:
                return None
            if ret_coerce:
                return coerce_to(result, return_type)
            return result

        obs = self._obs
        if obs is not None and obs.trace:
            clock = obs.clock
            call_span = obs.call_span

            def invoke_traced(args, ctx, span):
                t0 = clock()
                try:
                    return invoke(args, ctx, span)
                finally:
                    call_span(ctx.id, name, t0, clock())

            return invoke_traced
        return invoke

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def block(self, body: Block) -> StmtRun:
        return generate_block(self, body.statements)

    def stmt(self, s: Stmt) -> StmtRun:
        return generate_block(self, (s,))

    def fallback_stmt(self, s: Stmt) -> StmtRun:
        """The closure for a statement outside the writer's vocabulary,
        without its prologue (the generated code around it has that)."""
        try:
            builder = _STMT_BUILDERS[type(s)]
        except KeyError:  # pragma: no cover - parser emits no other kinds
            raise TetraInternalError(
                f"fast path has no compiler for {type(s).__name__}", s.span
            ) from None
        return builder(self, s)

    # -- simple statements -------------------------------------------------
    def _aug_assign_once(self, s: AugAssign) -> StmtRun:
        """``t[k] op= v`` or ``o.f op= v`` whose target contains a call (the
        writer runs every other ``op=``): the target's base and index are
        evaluated once, and the element's load and store share them, each
        with its charge and race note."""
        target = s.target
        base_fn = self.expr(target.base)
        if isinstance(target, Attribute):
            attr = target.attr
            key_fn = lambda ctx: attr  # noqa: E731
        else:
            key_fn = self.expr(target.index)
        value_fn = self.expr(s.value)
        apply = self._binop_apply(s.op, target.ty, s.value.ty, s.span, s)
        span = target.span
        is_field = isinstance(target, Attribute)
        prefix = unparse(target.base)
        err = self.interp._err
        acc = self.acc
        charge = self.charge
        load_units = self.cost.index_load
        store_units = self.cost.index_store
        read = write = _no_note
        if self.race is not None:
            read, write = self.race_notes

        def run(ctx):
            base = base_fn(ctx)
            key = key_fn(ctx)
            if acc:
                charge(ctx, load_units)
            if is_field:
                if not isinstance(base, TetraObject):
                    raise err(TetraRuntimeError,
                              "only class instances have fields", span)
                display = f"{base.class_name}.{key}"
            else:
                display = f"{prefix}[{key!r}]"
            read(ctx, (id(base), key), display, span, base)
            value = apply(base.get(key, span), value_fn(ctx))
            if acc:
                charge(ctx, store_units)
            write(ctx, (id(base), key), display, span, base)
            if isinstance(base, TetraDict):
                base.set(key, coerce_to(value, base.value_type))
            elif is_field:
                base.set(key, value, span)
            else:
                base.set(key, coerce_to(value, base.element_type), span)

        return run

    def _stmt_unpack(self, s: Unpack) -> StmtRun:
        value_fn = self.expr(s.value)
        stores = tuple(self._store(t) for t in s.targets)

        def run(ctx):
            value = value_fn(ctx)
            if not isinstance(value, TetraTuple):
                raise TetraInternalError("unpacking a non-tuple at runtime")
            for store, item in zip(stores, value.items):
                store(ctx, item)

        return run

    def _stmt_declare(self, s: Declare) -> StmtRun:
        value_fn = self.expr(s.value)
        var_type = from_type_expr(s.declared_type)  # resolved once, not per run
        name = s.name
        if name in self._induction:
            def run(ctx):
                ctx.env.set(name, coerce_to(value_fn(ctx), var_type))
        else:
            def run(ctx):
                ctx.env.frame.vars[name] = coerce_to(value_fn(ctx), var_type)

        return run

    def _stmt_try(self, s: TryStmt) -> StmtRun:
        body = self.block(s.body)
        handler = self.block(s.handler)
        error_name = s.error_name

        def run(ctx):
            try:
                return body(ctx)
            except TetraRuntimeError as exc:
                if not is_catchable(exc):
                    raise
                ctx.env.set(error_name, exc.message)
                return handler(ctx)

        return run

    # -- parallel constructs -----------------------------------------------
    # A spawned thread's statements cannot return, break or continue out
    # of it (the checker forbids it), so their completions are dropped.
    def _spawn_block(self, s, join: bool, kind: str) -> StmtRun:
        children = tuple(
            (self.stmt(child), child.span.line)
            for child in s.body.statements
        )
        spawn = self.interp._spawn_with_race_edges
        unique_label = self.interp._unique_label
        span = s.span

        def run(ctx):
            jobs = []
            env = ctx.env
            for i, (child_run, line) in enumerate(children):
                label = unique_label(f"{kind} thread {i + 1} (line {line})")
                child_ctx = ctx.spawn_child(label, env)

                def thunk(run_child=child_run, c=child_ctx):
                    run_child(c)

                jobs.append((child_ctx, thunk))
            spawn(ctx, jobs, join, span, kind)

        return run

    def _stmt_parallel_block(self, s: ParallelBlock) -> StmtRun:
        return self._spawn_block(s, join=True, kind="parallel")

    def _stmt_background_block(self, s: BackgroundBlock) -> StmtRun:
        return self._spawn_block(s, join=False, kind="background")

    def _stmt_parallel_for(self, s: ParallelFor) -> StmtRun:
        interp = self.interp
        iterable_fn = self.expr(s.iterable)
        body = self.block(s.body)
        var = s.var
        span = s.span
        line = span.line
        backend = self.backend
        acc = self.acc
        charge = backend.charge
        units = self.cost.loop_iteration
        spawn = interp._spawn_with_race_edges
        obs = self._obs
        try_offload = backend.try_parallel_for
        sched_rec = interp.config.schedule_recorder
        native = getattr(interp, "_native", None)
        steps = self.steps

        def run(ctx):
            items = interp._iterate(iterable_fn(ctx), span)
            if not items:
                return
            if native is not None and native.try_parallel_for(interp, s,
                                                              items, ctx):
                return
            if try_offload is not None and try_offload(interp, s, items,
                                                       ctx):
                return
            workers = backend.parallel_for_workers(len(items))
            if sched_rec is not None:
                sched_rec.pfor(line, len(items), workers)
            chunks = interp._partition(items, workers)
            jobs = []
            for w, chunk in enumerate(chunks):
                if not chunk:
                    continue
                label = interp._unique_label(
                    f"worker {w + 1} (parallel for, line {line})"
                )
                worker_env = ctx.env.child_with_private({var: chunk[0]})
                child_ctx = ctx.spawn_child(label, worker_env)

                def thunk(chunk=chunk, env=worker_env, c=child_ctx):
                    private = env.private
                    for item in chunk:
                        if acc:
                            charge(c, units)
                        if (interp._stopped if steps is None
                                else next(steps) > interp._budget):
                            raise interp._stop_error(span)
                        private[var] = item
                        body(c)

                jobs.append((child_ctx, thunk))
                if obs is not None:
                    obs.register_chunk(child_ctx.id, line, len(chunk))
            spawn(ctx, jobs, True, span, "parallel for")

        return run

    def _stmt_lock(self, s: LockStmt) -> StmtRun:
        body = self.block(s.body)
        lock = self.backend.lock
        name = s.name
        span = s.span
        if self.race is not None:
            return self._race_lock(name, body, span)

        def run(ctx):
            completion = None

            def held():
                nonlocal completion
                completion = body(ctx)

            lock(ctx, name, held, span)
            return completion

        return run

    # ------------------------------------------------------------------
    # Assignment targets
    # ------------------------------------------------------------------
    def _store(self, target: Expr) -> Callable[[object, object], None]:
        """``store(ctx, value)`` for an assignment target: generated for a
        name or an array element, a closure for a field or a dict
        element."""
        interp = self.interp
        acc = self.acc
        charge = self.charge
        span = target.span
        units = self.cost.index_store
        if isinstance(target, Name) or (isinstance(target, Index) and
                                        isinstance(target.base.ty,
                                                   ArrayType)):
            return generate_store(self, target)

        note = self.race_notes[True] if self.race is not None else None
        if isinstance(target, Attribute):
            base_fn = self.expr(target.base)
            attr = target.attr

            def store_attr(ctx, value):
                base = base_fn(ctx)
                if acc:
                    charge(ctx, units)
                if not isinstance(base, TetraObject):
                    raise interp._err(
                        TetraRuntimeError,
                        "only class instances have fields", span,
                    )
                if note is not None:
                    note(ctx, (id(base), attr), f"{base.class_name}.{attr}",
                         span, base)
                base.set(attr, value, span)

            return store_attr

        if isinstance(target, Index):
            base_fn = self.expr(target.base)
            index_fn = self.expr(target.index)
            prefix = unparse(target.base)

            def store_index(ctx, value):
                base = base_fn(ctx)
                index = index_fn(ctx)
                if acc:
                    charge(ctx, units)
                if not isinstance(base, TetraDict):
                    raise interp._err(
                        TetraRuntimeError,
                        "only array and dict elements can be assigned "
                        "through an index (strings are immutable)",
                        span,
                    )
                if note is not None:
                    note(ctx, (id(base), index), f"{prefix}[{index!r}]",
                         span, base)
                base.set(index, coerce_to(value, base.value_type))

            return store_index

        raise TetraInternalError(
            f"bad assignment target {type(target).__name__}"
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expr(self, e: Expr) -> ExprRun:
        return generate_value(self, e)

    def fallback_expr(self, e: Expr) -> ExprRun:
        """The closure for an expression outside the writer's
        vocabulary."""
        try:
            builder = _EXPR_BUILDERS[type(e)]
        except KeyError:  # pragma: no cover - parser emits no other kinds
            raise TetraInternalError(
                f"fast path has no compiler for {type(e).__name__}", e.span
            ) from None
        return builder(self, e)

    def _with_heap(self, run: ExprRun, span) -> ExprRun:
        """Wrap an allocation site with the memory-limit meter (no-op —
        the closure is returned untouched — unless memory_limit is set)."""
        heap = self._heap
        if heap is None:
            return run
        track_value = heap.track_value

        def run_tracked(ctx):
            result = run(ctx)
            track_value(result, span)
            return result

        return run_tracked

    def _expr_array_literal(self, e: ArrayLiteral) -> ExprRun:
        ty = e.ty
        if not isinstance(ty, ArrayType):
            raise missing(e, "an array literal")
        element_ty = ty.element
        elem_fns = tuple(self.expr(x) for x in e.elements)
        acc = self.acc
        charge = self.charge
        units = self.cost.array_element * max(1, len(elem_fns))

        def run(ctx):
            values = [f(ctx) for f in elem_fns]
            if acc:
                charge(ctx, units)
            return make_array(values, element_ty)

        return self._with_heap(run, e.span)

    def _expr_tuple_literal(self, e: TupleLiteral) -> ExprRun:
        ty = e.ty
        if not isinstance(ty, TupleType):
            raise missing(e, "a tuple literal")
        elem_fns = tuple(self.expr(x) for x in e.elements)
        widen = tuple(widening(t) for t in ty.elements)
        simple = not any(widen)
        acc = self.acc
        charge = self.charge
        units = self.cost.array_element * len(elem_fns)

        def run(ctx):
            if simple:
                values = [f(ctx) for f in elem_fns]
            else:
                values = [
                    coerce_to(f(ctx), w) if w is not None else f(ctx)
                    for f, w in zip(elem_fns, widen)
                ]
            if acc:
                charge(ctx, units)
            return TetraTuple(values)

        return self._with_heap(run, e.span)

    def _expr_dict_literal(self, e: DictLiteral) -> ExprRun:
        ty = e.ty
        if not isinstance(ty, DictType):
            raise missing(e, "a dict literal")
        entry_fns = tuple(
            (self.expr(k), self.expr(v)) for k, v in e.entries
        )
        key_ty, value_ty = ty.key, ty.value
        acc = self.acc
        charge = self.charge
        per_element = self.cost.array_element

        def run(ctx):
            items = {}
            for key_fn, value_fn in entry_fns:
                key = key_fn(ctx)
                items[key] = coerce_to(value_fn(ctx), value_ty)
            if acc:
                charge(ctx, per_element * max(1, len(items)))
            return TetraDict(items, key_ty, value_ty)

        return self._with_heap(run, e.span)

    def _expr_range_literal(self, e: RangeLiteral) -> ExprRun:
        start_fn = self.expr(e.start)
        stop_fn = self.expr(e.stop)
        acc = self.acc
        charge = self.charge
        per_element = self.cost.array_element

        def run(ctx):
            items = list(range(start_fn(ctx), stop_fn(ctx) + 1))
            if acc:
                charge(ctx, per_element * max(1, len(items)))
            return TetraArray(items, INT)

        return self._with_heap(run, e.span)

    def _expr_index(self, e: Index) -> ExprRun:
        # Array elements are generated; dicts, tuples and strings are here.
        base_ty = e.base.ty
        acc = self.acc
        interp = self.interp
        base_fn = self.expr(e.base)
        index_fn = self.expr(e.index)
        span = e.span
        charge = self.charge
        units = self.cost.index_load

        if isinstance(base_ty, (DictType, TupleType)):
            # Dicts and tuples share the get(index, span) protocol; the
            # static type tells us no other value can appear here.
            note = (self.race_notes[False]
                    if self.race is not None and isinstance(base_ty, DictType)
                    else None)
            prefix = unparse(e.base)

            def run(ctx):
                base = base_fn(ctx)
                index = index_fn(ctx)
                if acc:
                    charge(ctx, units)
                if note is not None:
                    note(ctx, (id(base), index), f"{prefix}[{index!r}]",
                         span, base)
                return base.get(index, span)

            return run

        if isinstance(base_ty, StringType):
            def run_str(ctx):
                base = base_fn(ctx)
                index = index_fn(ctx)
                if acc:
                    charge(ctx, units)
                if not 0 <= index < len(base):
                    raise interp._err(
                        TetraRuntimeError,
                        f"index {index} is out of range for a string of "
                        f"length {len(base)}",
                        span,
                    )
                return base[index]

            return run_str

        raise missing(e.base, "an indexed expression")

    def _expr_attribute(self, e: Attribute) -> ExprRun:
        interp = self.interp
        base_fn = self.expr(e.base)
        attr = e.attr
        span = e.span
        acc = self.acc
        charge = self.charge
        units = self.cost.index_load
        note = self.race_notes[False] if self.race is not None else None

        def run(ctx):
            base = base_fn(ctx)
            if acc:
                charge(ctx, units)
            if not isinstance(base, TetraObject):
                raise interp._err(
                    TetraRuntimeError, "only class instances have fields",
                    span,
                )
            if note is not None:
                note(ctx, (id(base), attr), f"{base.class_name}.{attr}",
                     span, base)
            return base.get(attr, span)

        return run

    def _expr_method_call(self, e: MethodCall) -> ExprRun:
        interp = self.interp
        base_ty = e.base.ty
        if not isinstance(base_ty, ClassType):
            raise missing(e.base, "a method-call receiver")
        invoke = self._method_invokers.get((base_ty.name, e.method))
        if invoke is None:
            raise TetraInternalError(
                f"call to unknown method '{base_ty.name}.{e.method}'"
            )
        base_fn = self.expr(e.base)
        arg_fns = tuple(self.expr(a) for a in e.args)
        span = e.span

        def run(ctx):
            base = base_fn(ctx)
            args = [f(ctx) for f in arg_fns]
            if not isinstance(base, TetraObject):
                raise interp._err(
                    TetraRuntimeError, "only class instances have methods",
                    span,
                )
            return invoke([base, *args], ctx, span)

        return run

    def _expr_call(self, e: Call) -> ExprRun:
        # Calls to Tetra functions are generated; constructors and
        # builtins are here.
        arg_fns = tuple(self.expr(a) for a in e.args)
        span = e.span

        info = self.symbols.classes.get(e.func)
        if info is not None:
            return self._constructor(e, info, arg_fns)

        builtin = BUILTINS.get(e.func)
        if builtin is None:
            raise TetraInternalError(
                f"unknown function '{e.func}' at runtime", e.span
            )
        invoke_builtin = builtin.invoke
        io = self.io
        source = self.source
        acc = self.acc
        charge = self.charge
        units = self.cost.builtin_overhead

        if e.func == "clock":
            # clock() reports the backend's clock (virtual under sim/coop);
            # the builtin table cannot see the backend, so bind it here.
            now = self.backend.now

            def run_clock(ctx):
                if acc:
                    charge(ctx, units)
                return now()

            return run_clock

        def run_builtin(ctx):
            args = [f(ctx) for f in arg_fns]
            if acc:
                charge(ctx, units)
            try:
                return invoke_builtin(args, io, span)
            except TetraRuntimeError as exc:
                if exc.source is None and source is not None:
                    exc.attach_source(source)
                raise

        return self._with_heap(run_builtin, span)

    def _constructor(self, e: Call, info, arg_fns) -> ExprRun:
        class_name = info.name
        field_names = info.field_names
        # The type/order tables are immutable; every instance shares them.
        field_types = dict(zip(info.field_names, info.field_types))
        field_order = list(info.field_names)
        widen = tuple(widening(ty) for ty in info.field_types)
        acc = self.acc
        charge = self.charge
        units = (self.cost.call_overhead
                 + self.cost.array_element * max(1, len(arg_fns)))

        def run(ctx):
            args = [f(ctx) for f in arg_fns]
            if acc:
                charge(ctx, units)
            fields = {
                name: coerce_to(value, w) if w is not None else value
                for name, w, value in zip(field_names, widen, args)
            }
            return TetraObject(class_name, fields, field_types, field_order)

        return self._with_heap(run, e.span)

    def _binop_apply(self, op: BinaryOp, left_ty, right_ty, span, node):
        """A two-argument applier with the operator (and, for division and
        modulo, the int/real variant) chosen from the static types."""
        if op is BinaryOp.ADD:
            return lambda a, b: a + b
        if op is BinaryOp.SUB:
            return lambda a, b: a - b
        if op is BinaryOp.MUL:
            return lambda a, b: a * b
        if op is BinaryOp.EQ:
            return lambda a, b: a == b
        if op is BinaryOp.NE:
            return lambda a, b: a != b
        if op is BinaryOp.LT:
            return lambda a, b: a < b
        if op is BinaryOp.LE:
            return lambda a, b: a <= b
        if op is BinaryOp.GT:
            return lambda a, b: a > b
        if op is BinaryOp.GE:
            return lambda a, b: a >= b
        if op is BinaryOp.POW:
            return lambda a, b: tetra_pow(a, b, span)
        if op in (BinaryOp.DIV, BinaryOp.MOD):
            if left_ty is None or right_ty is None:
                raise missing(node, f"an operand of '{op.value}'")
            both_int = (isinstance(left_ty, IntType)
                        and isinstance(right_ty, IntType))
            if both_int:
                # Truncating toward zero; the rule generated code inlines.
                return checked_applier(op, span)
            if op is BinaryOp.DIV:
                return lambda a, b: real_div(float(a), float(b), span)
            return lambda a, b: real_mod(float(a), float(b), span)
        raise TetraInternalError(
            f"unhandled operator {op}"
        )  # pragma: no cover

    # ------------------------------------------------------------------
    # Race detection (compiled only when detect_races is on)
    # ------------------------------------------------------------------
    # Each hook runs where the access happens: after the site's charge and
    # type check, before the read or write itself.  Tuple and string
    # elements are immutable, so their index loads compile as usual.  The
    # generated code notes names and array elements the same way
    # (:func:`repro.interp.generate.note_name` and ``note_element``).

    def _race_note(self, is_write: bool):
        """``note(ctx, key, display, span, pin)``: feed one shared access to
        the detector, and to the backend's trace (the simulator keeps it
        so a saved trace can be replayed through the detector)."""
        record = self.race.write if is_write else self.race.read
        trace = self.backend.record_access

        def note(ctx, key, display, span, pin):
            record(ctx.id, key, display, span, pin)
            trace(ctx, display, is_write, span)

        return note

    def _race_lock(self, name: str, body: StmtRun, span) -> StmtRun:
        lock = self.backend.lock
        acquire = self.race.acquire
        release = self.race.release

        def run(ctx):
            completion = None

            def held():
                nonlocal completion
                # The detector's lockset tracks the dynamic extent of the
                # body, which the backend runs strictly inside the lock.
                acquire(ctx.id, name)
                try:
                    completion = body(ctx)
                finally:
                    release(ctx.id, name)

            lock(ctx, name, held, span)
            return completion

        return run



_STMT_BUILDERS = {
    AugAssign: _Compiler._aug_assign_once,
    Unpack: _Compiler._stmt_unpack,
    Declare: _Compiler._stmt_declare,
    ParallelFor: _Compiler._stmt_parallel_for,
    ParallelBlock: _Compiler._stmt_parallel_block,
    BackgroundBlock: _Compiler._stmt_background_block,
    LockStmt: _Compiler._stmt_lock,
    TryStmt: _Compiler._stmt_try,
}

_EXPR_BUILDERS = {
    ArrayLiteral: _Compiler._expr_array_literal,
    TupleLiteral: _Compiler._expr_tuple_literal,
    DictLiteral: _Compiler._expr_dict_literal,
    RangeLiteral: _Compiler._expr_range_literal,
    Index: _Compiler._expr_index,
    Attribute: _Compiler._expr_attribute,
    MethodCall: _Compiler._expr_method_call,
    Call: _Compiler._expr_call,
}
