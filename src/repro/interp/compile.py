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
  after the access's charge and type check and before the access itself.
  With detection off no code carries a note or a test for one.

This module keeps the invokers (the calling convention) and the closures
for ``parallel``, ``background`` and ``parallel for``, which hand a
generated body to the backend; every other statement and every
expression is generated code, ``lock`` included: its body runs between
the interpreter's enter and exit, which own every lock rule
(:meth:`~repro.interp.interpreter.Interpreter._lock_enter`).

Spans ride along in all code that can raise, so diagnostics render the
same caret on every backend; per-statement checkpoints and span stores
keep the debugger's independent stepping and backtraces working.
``tests/test_exec_golden.py`` pins what every bundled program does on the
deterministic backends, with detection off and on.
"""

from __future__ import annotations

from typing import Callable

from ..errors import TetraLimitError
from ..tetra_ast import (
    BackgroundBlock,
    Block,
    Expr,
    LockStmt,
    ParallelBlock,
    ParallelFor,
    Stmt,
    walk_statements,
)
from ..types import VOID
from ..runtime import Environment, Frame, coerce_to
from .generate import generate_block, generate_value, widening

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


class _Compiler:
    """Compiles one program for one :class:`Interpreter` instance.

    The compiled code binds the interpreter, its backend and its cost
    model, which is what makes it fast — and what ties a compiled program
    to its interpreter.  Compilation itself is a single O(nodes)
    walk, so rebinding per run is cheap; the expensive lex/parse/check
    work is what the :mod:`repro.api` program cache memoizes.
    """

    def __init__(self, interp):
        self.interp = interp
        self.backend = interp.backend
        self.acc = interp._acc
        self.cost = interp.cost_model
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
        self.lock_enter = interp._lock_enter
        self.lock_exit = interp._lock_exit
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

    def expr(self, e: Expr) -> ExprRun:
        return generate_value(self, e)

    def backend_stmt(self, s: Stmt) -> StmtRun:
        """The closure for a parallel construct, which hands its generated
        body to the backend, without its prologue (the generated code
        around it has that)."""
        return _STMT_BUILDERS[type(s)](self, s)

    # -- parallel constructs ----------------------------------------------
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
                child_ctx = ctx.spawn_child(label, env, join)

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
        # The offloads fold the body's locks into reductions, so a loop
        # whose workers would be refused a lock their joiner holds runs
        # in-process, where the refusal is reported.
        locks = {n.name for n in walk_statements(s.body)
                 if isinstance(n, LockStmt)}

        def run(ctx):
            items = interp._iterate(iterable_fn(ctx), span)
            if not items:
                return
            offload = not any(ctx.joined_holder(name) for name in locks)
            if offload and native is not None and native.try_parallel_for(
                    interp, s, items, ctx):
                return
            if offload and try_offload is not None and try_offload(
                    interp, s, items, ctx):
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

    # ------------------------------------------------------------------
    # Race detection (compiled only when detect_races is on)
    # ------------------------------------------------------------------
    # The generated code feeds every shared name, element and field access
    # to one of the two notes (:func:`repro.interp.generate.note_name`,
    # ``note_element`` and ``note_field``), after the access's charge and
    # type check and before the read or write itself.

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


_STMT_BUILDERS = {
    ParallelFor: _Compiler._stmt_parallel_for,
    ParallelBlock: _Compiler._stmt_parallel_block,
    BackgroundBlock: _Compiler._stmt_background_block,
}
