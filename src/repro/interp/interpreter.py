"""The Tetra interpreter: one type-checked program, run on one backend.

Faithful to the paper's §IV: the program is parsed to an AST, type-checked,
then interpreted by traversing the AST — once, up front, by the compiler
(:mod:`repro.interp.compile`), which turns every function body into a
generated Python function (:mod:`repro.interp.generate`).  At a
``parallel`` block the interpreter "launches one thread for each child
node ... and executes them in parallel", background blocks skip the
join, ``parallel for`` workers get "a copy of the induction variable
inserted into their private symbol table", and lock statements map onto
mutexes.

Every lock statement enters and exits through :meth:`Interpreter._lock_enter`
and :meth:`Interpreter._lock_exit`, which own every lock rule: the
refusal of a lock that would wait forever, the race detector's lockset and
the observer's lock span.  A backend only acquires and releases.

The one generalization over the paper is the pluggable
:class:`~repro.runtime.backend.Backend`: the same interpreter runs on real
threads, under the deterministic cooperative scheduler, or inside the
virtual-time recorder — which is what lets a Python reproduction both keep
the real-threads semantics and regenerate the speedup evaluation
(DESIGN.md §2).  This module owns what all compiled code shares: the
run's guardrails and observers, thread labels, spawn groups with their
race-detector edges, and the ``parallel for`` partitioning.
"""

from __future__ import annotations

import itertools
import threading

from ..errors import (
    TetraDeadlockError,
    TetraError,
    TetraInternalError,
    TetraLimitError,
    TetraRuntimeError,
    TetraThreadError,
)
from ..source import NO_SPAN, SourceFile, Span
from ..tetra_ast import Program
from ..types import check_program
from ..runtime import Backend, RuntimeConfig, TetraArray, ThreadBackend, Value
from ..runtime.values import TetraDict
from ..runtime.cost import DEFAULT_COST_MODEL, CostModel
from ..stdlib.io import IOChannel, StandardIO
from .context import ThreadContext


class Interpreter:
    """Executes one type-checked :class:`Program`.

    One interpreter instance runs one program (it owns the program's lock
    table via its backend and the program's console via ``io``); it is safe
    for the program's *threads* to share, not for unrelated programs.
    """

    def __init__(self, program: Program, source: SourceFile | None = None,
                 backend: Backend | None = None, io: IOChannel | None = None,
                 config: RuntimeConfig | None = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL):
        self.program = program
        self.source = source
        self.backend = backend or ThreadBackend(config)
        if config is not None and backend is not None:
            self.backend.config = config
        self.config = self.backend.config
        self.io = io or StandardIO()
        self.cost_model = cost_model
        self._acc = self.backend.accounting
        if not hasattr(program, "symbols"):
            check_program(program, source)
        self.symbols = program.symbols  # type: ignore[attr-defined]
        self._functions = {fn.name: fn for fn in program.functions}
        #: Steps taken so far, counted under a step budget only: a step is
        #: a loop iteration, a ``parallel for`` item or a call, the sites
        #: that poll the stop flag.
        self._steps = itertools.count(1)
        #: A counting poll takes its slow path once its step number
        #: exceeds this: the step budget, or 0 once the run is stopped.
        self._budget = self.config.step_limit
        #: The stop flag polled at loop back-edges and function entries.
        self._stopped = False
        #: Set with ``_stopped`` when the guard's watch tripped it, so the
        #: polling thread raises the guard's error, not the stop error.
        self._tripped = False
        # Thread labels are the identity a schedule artifact (and the race
        # detector's reports) refers to; the counter disambiguates re-spawns
        # from the same source site (a loop around a parallel block) with a
        # " #N" suffix, and the issued set turns any remaining collision
        # into a loud internal error instead of a silently wrong replay.
        self._labels_mu = threading.Lock()
        self._label_counts: dict[str, int] = {}
        self._labels_issued: set[str] = set()
        # Race detection: None (the common case) compiles no hooks at all;
        # a detector records happens-before and lockset evidence for every
        # shared access, through notes the compiler binds in.
        self._race = None
        if self.config.detect_races:
            from ..analysis.races import RaceDetector

            self._race = RaceDetector()
        # Observability follows the same None-check contract: one attribute
        # test at each emission site when disabled, an Observer collecting
        # span events and counters when tracing/metrics/profiling is on.
        self._obs = None
        if self.config.trace or self.config.metrics or self.config.profile:
            from ..obs import Observer

            self._obs = Observer(trace=self.config.trace,
                                 metrics=self.config.metrics,
                                 profile=self.config.profile)
            self._obs.bind(self.backend)
            self.backend.obs = self._obs
        # Guardrails keep the contract too: `_guard` is bound only when the
        # statement-boundary check would do something (cancel token, time
        # limit, or thread-backend chaos), `_heap` only under memory_limit.
        self._guard = None
        if (self.config.time_limit or self.config.cancel is not None
                or self.config.fault_plan is not None):
            from ..resilience.guard import ExecutionGuard

            guard = ExecutionGuard(self.backend, self.config)
            if guard.active:
                self._guard = guard
        self._heap = None
        if self.config.memory_limit:
            from ..resilience.guard import HeapMeter

            self._heap = HeapMeter(self.config.memory_limit)
        # Captured output is invisible to the HeapMeter (it counts value
        # cells, not console chunks), so the memory guardrail alone used to
        # leave `while: print(...)` unbounded.  The cap lives in the IO
        # channel itself — every write is metered — armed here from the
        # explicit output_limit or derived from memory_limit.
        out_cap = self.config.output_limit
        if not out_cap and self.config.memory_limit:
            from ..resilience.guard import OUTPUT_CHARS_PER_CELL

            out_cap = self.config.memory_limit * OUTPUT_CHARS_PER_CELL
        if out_cap:
            self.io.set_output_limit(out_cap)
        # The native compiled tier (repro.compiler.native): set up before
        # the closure compile so lowered functions can substitute their
        # C invokers while call sites are being bound.  `_native` is a
        # NativeRun (possibly disabled, carrying the reason) or None when
        # native="off"; its state is exported on the backend for
        # --metrics, mirroring the proc backend's fallback reporting.
        self._native = None
        if self.config.native != "off":
            from ..compiler.native import setup_native

            self._native = setup_native(self)
            if self._native is not None:
                self.backend.native_state = self._native.state
        from .compile import compile_program

        #: The program's compiled functions (:class:`CompiledProgram`); its
        #: ``compile`` method also serves REPL, debugger and proc fragments.
        self.compiled = compile_program(self)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, entry: str = "main") -> None:
        """Run the program from its entry function (``main`` by default)."""
        fn = self._functions.get(entry)
        if fn is None:
            raise TetraRuntimeError(
                f"the program has no '{entry}' function to start from"
            )
        if fn.params:
            raise TetraRuntimeError(f"'{entry}' must not take parameters")
        # Each Tetra call consumes a dozen-odd Python frames; make sure the
        # Tetra recursion limit fires before CPython's.
        import sys

        needed = self.config.recursion_limit * 40 + 1000
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        ctx = ThreadContext(self._unique_label("main thread"))
        if self._race is not None:
            self._race.register(ctx.id, ctx.label)
        disarm = None
        if self._guard is not None:
            self._guard.start()
            if not self._guard.virtual:
                # A host clock or a token trips the stop flag, and wakes
                # the threads parked on a lock, which poll no flag.
                disarm = self._guard.watch(self._trip)
        self.backend.start_program(ctx)
        if self._obs is not None:
            self._obs.program_begin(ctx)
        try:
            self.call_function(fn.name, [], ctx, NO_SPAN)
        except TetraRuntimeError as exc:
            if exc.source is None and self.source is not None:
                exc.attach_source(self.source)
            raise
        finally:
            try:
                # Background threads are joined here and still poll the
                # stop flag, so the watch stays armed until they are done.
                self.backend.finish_program(ctx)
            finally:
                if disarm is not None:
                    disarm()
                if self._obs is not None:
                    self._obs.program_end_mark(ctx)

    def call_function(self, name: str, args: list[Value], ctx: ThreadContext,
                      span: Span) -> Value | None:
        """Call a user-defined function with already-evaluated arguments."""
        invoke = self.compiled.functions.get(name)
        if invoke is None:
            raise TetraInternalError(f"call to unknown function '{name}'")
        return invoke(args, ctx, span)

    def stop(self) -> None:
        """Ask every thread to abandon the program at its next loop
        iteration or call."""
        self._stopped = True
        self._budget = 0
        self.backend.stop_waiting(self._stop_error)
        token = self.config.cancel
        if token is not None:
            # Route through the CancelToken too, so a proc offload waiting
            # on its worker processes gives up as well.
            token.cancel("the program was stopped")

    def _trip(self) -> None:
        """The guard's watch fired: stop every thread with its error."""
        if not self._stopped:
            self._tripped = True
            self._stopped = True
            self._budget = 0
            self.backend.stop_waiting(self._stop_error)

    def _stop_error(self, span: Span) -> TetraError:
        """What a thread raises when its poll at ``span`` finds the stop
        flag set or, under a step budget, the budget spent."""
        if self._tripped:
            return self._guard.error(span)
        if self._stopped:
            return TetraThreadError("the program was stopped")
        return self._err(
            TetraLimitError,
            f"the program exceeded its budget of {self.config.step_limit} "
            "steps (loop iterations, parallel for items and calls) — "
            "raise it with --step-limit or RuntimeConfig(step_limit=...)",
            span, limit="steps",
        )

    @property
    def races(self):
        """Race reports gathered so far (empty unless ``detect_races``)."""
        return self._race.reports if self._race is not None else []

    # ------------------------------------------------------------------
    # Shared by the compiled code
    # ------------------------------------------------------------------
    def _iterate(self, iterable_value: Value, span: Span) -> list[Value]:
        """Materialize the items a for-loop visits."""
        if isinstance(iterable_value, TetraArray):
            return list(iterable_value.items)
        if isinstance(iterable_value, str):
            return list(iterable_value)
        if isinstance(iterable_value, TetraDict):
            return iterable_value.sorted_keys()
        raise self._err(
            TetraRuntimeError,
            "for loops need an array, a string, or a dict", span
        )

    def _lock_enter(self, ctx: ThreadContext, name: str, span: Span):
        """Enter ``lock name:``; returns what :meth:`_lock_exit` takes.

        A lock that ``ctx`` holds, or that a thread waiting to join it
        holds, would wait forever, so it is refused here, with one
        diagnostic on every backend, before the backend is asked.  The
        race detector's lockset and the observer's lock span follow the
        backend's acquire."""
        holder = ctx.joined_holder(name)
        if holder is ctx:
            raise self._err(TetraDeadlockError, (
                f"{ctx.label} re-entered 'lock {name}:' while already inside "
                "it — Tetra locks are not re-entrant, so this would wait "
                "forever"), span)
        if holder is not None:
            raise self._err(TetraDeadlockError, (
                f"{ctx.label} asked for 'lock {name}:', which {holder.label} "
                f"holds while it waits to join {ctx.label}, so this would "
                "wait forever"), span)
        obs = self._obs
        stamp = None
        if obs is None:
            self.backend.acquire(ctx, name, span)
        else:
            requested = obs.clock()
            contended = self.backend.acquire(ctx, name, span)
            stamp = (requested, obs.clock(), contended)
        ctx.held.append(name)
        if self._race is not None:
            self._race.acquire(ctx.id, name)
        return stamp

    def _lock_exit(self, ctx: ThreadContext, name: str, stamp) -> None:
        """Leave ``lock name:``, entered with ``stamp``."""
        if self._race is not None:
            self._race.release(ctx.id, name)
        ctx.held.pop()
        self.backend.release(ctx, name)
        if stamp is not None:
            requested, acquired, contended = stamp
            self._obs.lock_span(ctx.id, name, requested, acquired,
                                self._obs.clock(), contended)

    def _unique_label(self, base: str) -> str:
        """Issue a run-unique thread label: the first use of a base keeps
        it verbatim, re-spawns from the same site get a " #N" suffix."""
        with self._labels_mu:
            n = self._label_counts.get(base, 0)
            self._label_counts[base] = n + 1
            label = base if n == 0 else f"{base} #{n + 1}"
            if label in self._labels_issued:
                raise TetraInternalError(
                    f"duplicate thread label {label!r} — labels must be "
                    "unique for schedule recording to be replayable"
                )
            self._labels_issued.add(label)
        return label

    def _spawn_with_race_edges(self, ctx: ThreadContext, jobs, join: bool,
                               span: Span, kind: str = "parallel") -> None:
        """Run a spawn group, bracketing it with fork/join happens-before
        edges when race detection is on and with observability spans when
        tracing/metrics is on.  Every spawning closure goes through here,
        so instrumentation lives in exactly one place."""
        plan = self.config.fault_plan
        if plan is not None and jobs:
            # Chaos: optionally replace child thunks with injected crashes
            # (drawn in the spawner, so deterministic on virtual backends).
            jobs = plan.wrap_jobs(jobs)
        det = self._race
        if det is not None and jobs:
            det.mark_shared(ctx.env.frame)
            for child_ctx, _thunk in jobs:
                det.fork(ctx.id, child_ctx.id, child_ctx.label)
        obs = self._obs
        group_start = 0.0
        if obs is not None and jobs:
            # Register (and take thread-span starts) in the spawner, which
            # on the coop backend holds the scheduler turn — that keeps the
            # exported thread ids and timestamps deterministic.
            for child_ctx, _thunk in jobs:
                obs.register_thread(child_ctx)
            jobs = [(c, obs.wrap_job(c, t)) for c, t in jobs]
            group_start = obs.clock()
        try:
            self.backend.spawn_group(ctx, jobs, join=join, span=span)
        finally:
            if det is not None and join:
                for child_ctx, _thunk in jobs:
                    det.join(ctx.id, child_ctx.id)
            if obs is not None and jobs:
                obs.group_span(ctx.id, kind, group_start, obs.clock(),
                               [c.id for c, _t in jobs], span.line, join)

    def _partition(self, items: list[Value], workers: int) -> list[list[Value]]:
        """Split the iteration space per the configured chunking policy."""
        if self.config.chunking == "cyclic":
            return [items[w::workers] for w in range(workers)]
        if self.config.chunking == "dynamic":
            # In-process backends have no shared work queue, so "dynamic"
            # becomes a deterministic dealt-guided partition: guided
            # (decreasing) slice sizes dealt round-robin, so each worker
            # holds a mix of large and small slices — the static analogue
            # of guided self-scheduling, good for skewed iteration costs.
            from ..runtime.backend import guided_chunk_sizes

            sizes = guided_chunk_sizes(len(items), workers)
            chunks = [[] for _ in range(workers)]
            start = 0
            for i, size in enumerate(sizes):
                chunks[i % workers].extend(items[start:start + size])
                start += size
            return chunks
        # Block chunking: contiguous ranges, sizes differing by at most one.
        n = len(items)
        base, extra = divmod(n, workers)
        chunks: list[list[Value]] = []
        start = 0
        for w in range(workers):
            size = base + (1 if w < extra else 0)
            chunks.append(items[start:start + size])
            start += size
        return chunks

    def _err(self, cls, message: str, span: Span, **kwargs):
        exc = cls(message, span, **kwargs)
        if self.source is not None:
            exc.attach_source(self.source)
        return exc
