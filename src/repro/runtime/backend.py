"""Execution backends: how Tetra's parallel constructs actually run.

The interpreter is backend-agnostic; a :class:`Backend` decides what
``parallel`` / ``background`` / ``parallel for`` / ``lock`` mean
operationally.  Three implementations ship (DESIGN.md §2):

* :class:`ThreadBackend` (here) — one real OS thread per parallel statement,
  the paper's own execution model.
* :class:`~repro.runtime.coop.CoopBackend` — deterministic cooperative
  scheduling, the substrate for the debugger and race/deadlock education.
* :class:`~repro.runtime.sim.SimBackend` — sequential recording plus a
  virtual-time multicore model, used for the speedup evaluation.

A *job* is ``(context, thunk)``: the interpreter prepares a fresh
:class:`ThreadContext` per child (its id keys the lock wait-for graph) and a
zero-argument callable that runs the child statement in the right
environment.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..errors import (
    TetraCancelledError,
    TetraDeadlockError,
    TetraError,
    TetraLimitError,
    TetraThreadError,
)
from ..source import NO_SPAN, Span
from ..stdlib.builtin_time import monotonic_clock
from .cost import DEFAULT_COST_MODEL, CostModel
from .locks import LockTable

Job = tuple[object, Callable[[], None]]  # (child ThreadContext, thunk)


def raise_thread_failures(failures: Sequence[tuple[str, BaseException]],
                          span: Span, kind: str) -> None:
    """Propagate worker failures without silently dropping any of them.

    A single Tetra diagnostic is re-raised as itself (its span and phase are
    already the best report).  Several failures are aggregated into one
    :class:`TetraThreadError` naming every failed thread — except when all
    of them describe the same run-wide abort (the same deadlock cycle, the
    same tripped limit, the same cancellation), where repeating the report
    once per thread would only bury it.
    """
    if not failures:
        return
    if len(failures) == 1:
        label, exc = failures[0]
        if isinstance(exc, TetraError):
            raise exc
        raise TetraThreadError(
            f"{label} failed with {type(exc).__name__}: {exc}", span
        ) from exc
    for run_wide in (TetraDeadlockError, TetraLimitError,
                     TetraCancelledError):
        if all(isinstance(exc, run_wide) for _, exc in failures):
            raise failures[0][1]
    details = "; ".join(
        f"{label} failed with {type(exc).__name__}: {exc}"
        for label, exc in failures
    )
    raise TetraThreadError(
        f"{len(failures)} {kind} threads failed — {details}", span
    ) from failures[0][1]


@dataclass
class RuntimeConfig:
    """Knobs shared by all backends."""

    #: Worker threads for ``parallel for``.  None → backend default
    #: (machine cores for threads, model cores for the simulator).
    num_workers: int | None = None
    #: 'block' assigns contiguous iteration ranges; 'cyclic' deals them out
    #: round-robin (the chunking ablation in DESIGN.md §3); 'dynamic' uses
    #: guided decreasing chunk sizes — a work queue on the proc backend, a
    #: deterministic dealt-guided partition in-process.
    chunking: str = "block"
    #: Wait for ``background`` threads when the program finishes, so program
    #: output is deterministic.  Set False to truly detach them.
    wait_for_background: bool = True
    #: Abort after this many steps (0 = unlimited).  A step is a loop
    #: iteration, a ``parallel for`` item or a call of a Tetra function,
    #: counted where the stop flag is polled, the same on every backend.
    #: Guards tests, the debugger and served runs against runaway programs.
    step_limit: int = 0
    #: Tetra-level recursion depth limit.
    recursion_limit: int = 200
    #: Record shared read/write events and report data races
    #: (happens-before + lockset; see :mod:`repro.analysis.races`).
    detect_races: bool = False
    #: Collect span events (threads, fork/join, locks, calls) exportable as
    #: Chrome trace JSON (see :mod:`repro.obs`).
    trace: bool = False
    #: Aggregate run metrics (busy time, lock contention, load balance)
    #: onto :attr:`repro.api.RunResult.metrics`.
    metrics: bool = False
    #: Count statement executions (and, on sim, charged cost units) per
    #: source line — ``tetra run --profile``.
    profile: bool = False
    #: Abort the run after this much time (0 = unlimited).  Measured on the
    #: backend's own clock: monotonic host seconds on thread/sequential,
    #: deterministic virtual units on sim/coop (the PR-3 clock contract).
    time_limit: float = 0.0
    #: Abort when the live value heap exceeds this many container cells
    #: (array/dict elements, tuple items, object fields; 0 = unlimited).
    memory_limit: int = 0
    #: Abort after the program has printed this many characters (0 =
    #: unlimited).  When unset but ``memory_limit`` is, the interpreter
    #: derives ``memory_limit * OUTPUT_CHARS_PER_CELL`` so captured output
    #: — which the :class:`~repro.resilience.guard.HeapMeter` cannot see —
    #: is still bounded (an unbounded print loop is an OOM vector for any
    #: hosted run).
    output_limit: int = 0
    #: Cooperative cancellation token (SIGINT, IDE stop button, watchdogs).
    #: Checked at every statement boundary when set.
    cancel: object = None
    #: A seeded :class:`repro.resilience.FaultPlan` for chaos testing, or
    #: None.  Usually built from :attr:`chaos_seed`.
    fault_plan: object = None
    #: Convenience: a bare seed builds a default FaultPlan (the CLI's
    #: ``--chaos SEED``).
    chaos_seed: int | None = None
    #: A :class:`~repro.runtime.schedule.ScheduleRecorder` capturing this
    #: run's scheduling decisions (turns, lock grants, parallel-for
    #: shapes) for a replayable artifact, or None.
    schedule_recorder: object = None
    #: A parsed :class:`~repro.runtime.schedule.Schedule` to replay; only
    #: the coop backend honors it (it drives the policy, the lock grant
    #: order, and parallel-for worker counts).
    schedule_replay: object = None
    #: The native compiled tier (:mod:`repro.compiler.native`): "off"
    #: never lowers to C, "auto" lowers what it can and silently falls
    #: back (a notice lands in ``--metrics``), "require" raises a
    #: :class:`~repro.errors.TetraNativeError` when the tier cannot be
    #: set up (no C toolchain, failed build, incompatible run config).
    native: str = "off"

    def __post_init__(self) -> None:
        if self.chunking not in ("block", "cyclic", "dynamic"):
            raise ValueError(
                "chunking must be 'block', 'cyclic', or 'dynamic'"
            )
        if self.native not in ("auto", "off", "require"):
            raise ValueError("native must be 'auto', 'off', or 'require'")
        if self.chaos_seed is not None and self.fault_plan is None:
            from ..resilience.faults import FaultPlan

            self.fault_plan = FaultPlan(self.chaos_seed)


def run_config(base: RuntimeConfig | None = None, replay=None,
               **knobs) -> RuntimeConfig:
    """The one place a run's :class:`RuntimeConfig` is built.

    ``base`` (or the defaults) with ``knobs`` — RuntimeConfig field names,
    so a misspelt knob is a TypeError — laid over it; a keyword knob wins
    over the same field of ``base``.  A replay
    :class:`~repro.runtime.schedule.Schedule` then imposes the recorded
    run's shape: its chunking, worker count, chaos seed and knobs, and
    race detection (on if either side asked for it).

    The result is always a fresh copy with its own fault plan: the plan
    counts what it injects and draws from seeded streams, so two runs
    sharing one would see different faults.  ``base`` and any plan
    passed in are never touched.
    """
    cfg = replace(base, **knobs) if base is not None \
        else RuntimeConfig(**knobs)
    if replay is not None:
        cfg.schedule_replay = replay
        cfg.chunking = replay.chunking
        if replay.num_workers is not None:
            cfg.num_workers = replay.num_workers
        cfg.detect_races = cfg.detect_races or replay.detect_races
        cfg.chaos_seed = replay.chaos_seed
        cfg.fault_plan = replay.make_fault_plan()
    elif "chaos_seed" in knobs and "fault_plan" not in knobs:
        from ..resilience.faults import FaultPlan

        cfg.fault_plan = None if cfg.chaos_seed is None \
            else FaultPlan(cfg.chaos_seed)
    elif cfg.fault_plan is not None:
        cfg.fault_plan = cfg.fault_plan.fresh()
    return cfg


def guided_chunk_sizes(n: int, workers: int, min_chunk: int = 1) -> list[int]:
    """Guided self-scheduling chunk sizes: each next chunk takes
    ``remaining / (2 * workers)`` iterations, so early chunks are large
    (low dispatch overhead) and late chunks small (tail load balance)."""
    sizes: list[int] = []
    remaining = n
    while remaining > 0:
        size = max(min_chunk, remaining // (2 * workers))
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


class Backend:
    """Interface the interpreter programs against."""

    #: True if charge() should be called for every operation (sim only);
    #: the interpreter skips cost computation entirely when False.
    accounting = False
    #: True when :meth:`now` returns deterministic virtual time (sim, coop)
    #: rather than host seconds.
    virtual_clock = False
    #: The run's :class:`~repro.obs.observer.Observer`, installed by the
    #: interpreter when tracing/metrics/profiling is on.  Every emission
    #: site guards with one ``None``-check, so disabled runs pay nothing —
    #: the same contract as the race detector.
    obs = None
    #: Optional hook: ``try_parallel_for(interp, stmt, items, ctx) -> bool``.
    #: A backend that can execute an entire ``parallel for`` itself (the
    #: proc backend's multiprocess offload) sets this; the compiled
    #: ``parallel for`` consults it before spawning threads.  A
    #: False return means "run the loop the normal in-process way".
    try_parallel_for = None
    #: The run's :class:`~repro.compiler.native.NativeState`, installed by
    #: the interpreter when the native tier is requested; ``--metrics``
    #: reads it off the backend like the proc pool's fallback list.
    native_state = None
    name = "abstract"

    def __init__(self, config: RuntimeConfig | None = None):
        self.config = config or RuntimeConfig()

    # -- hooks ------------------------------------------------------------
    def now(self) -> float:
        """This backend's clock — also what the Tetra ``clock()`` builtin
        reports.  Host monotonic seconds by default; the sim backend
        returns accumulated virtual cost units for the current task and the
        coop backend returns executed scheduler turns, so timing a program
        under those backends measures *modelled* time, deterministically.
        """
        return monotonic_clock()

    def charge(self, ctx, units: int) -> None:
        """Account virtual work (sim backend only)."""

    def checkpoint(self, ctx, node) -> None:
        """Called before each statement: scheduling / cancellation point."""

    def wants_checkpoints(self) -> bool:
        """True when :meth:`checkpoint` must be called for every statement.

        The compiled fast path skips the call entirely when this is False
        (the lean path, whose statements run bare).  Backends whose checkpoint only matters in
        some configurations — the thread backend records turns only under
        a schedule recorder — override this instead of relying on the
        method-override test, so plain runs stay lean."""
        return type(self).checkpoint is not Backend.checkpoint

    def record_access(self, ctx, name: str, write: bool,
                      span: Span = NO_SPAN) -> None:
        """Trace hook for shared reads/writes, only called while race
        detection is on.  The simulator records these into its task graph
        so saved traces can be replayed through the race detector."""

    # -- parallel constructs ----------------------------------------------
    def spawn_group(self, ctx, jobs: Sequence[Job], join: bool,
                    span: Span = NO_SPAN) -> None:
        raise NotImplementedError

    def parallel_for_workers(self, n_items: int) -> int:
        raise NotImplementedError

    def lock(self, ctx, name: str, body: Callable[[], None],
             span: Span = NO_SPAN) -> None:
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------
    def start_program(self, root_ctx) -> None:
        """Called once before main() runs."""

    def finish_program(self, root_ctx) -> None:
        """Called once after main() returns (joins background work)."""


class ThreadBackend(Backend):
    """Real OS threads — the paper's Pthreads model, verbatim.

    Honest about CPython: threads give *concurrency* (and real data races,
    which the teaching examples rely on) but the GIL prevents speedup; the
    GIL-honesty benchmark documents that, and the simulator provides the
    scalability evaluation.
    """

    name = "thread"

    def __init__(self, config: RuntimeConfig | None = None):
        super().__init__(config)
        self.locks = LockTable()
        self._background: list[threading.Thread] = []
        self._background_errors: list[tuple[str, BaseException]] = []
        self._bg_monitor = threading.Lock()
        #: Statement-granular serialization while a schedule recorder is
        #: attached (see repro.runtime.schedule); None on plain runs, so
        #: they stay lean and genuinely concurrent.
        self._turnstile = None
        rec = self.config.schedule_recorder
        if rec is not None:
            from .schedule import Turnstile

            self._turnstile = Turnstile(rec, self.config.fault_plan)
            self.locks.grant_hook = (
                lambda name, key: rec.grant(name, self.locks.label_for(key))
            )

    # ------------------------------------------------------------------
    def checkpoint(self, ctx, node) -> None:
        ts = self._turnstile
        if ts is not None:
            ts.step(ctx)

    def wants_checkpoints(self) -> bool:
        return self._turnstile is not None

    def spawn_group(self, ctx, jobs: Sequence[Job], join: bool,
                    span: Span = NO_SPAN) -> None:
        threads: list[threading.Thread] = []
        errors: list[tuple[str, BaseException]] = []
        err_lock = threading.Lock()
        ts = self._turnstile

        def runner(child_ctx, thunk) -> None:
            self.locks.register_thread(child_ctx.id, child_ctx.label)
            try:
                thunk()
            except BaseException as exc:  # noqa: BLE001 - propagated below
                with err_lock:
                    errors.append((child_ctx.label, exc))
                if not join:
                    with self._bg_monitor:
                        self._background_errors.append((child_ctx.label, exc))
            finally:
                if ts is not None:
                    ts.finish(child_ctx)

        for child_ctx, thunk in jobs:
            thread = threading.Thread(
                target=runner,
                args=(child_ctx, thunk),
                name=child_ctx.label,
                daemon=False,
            )
            threads.append(thread)
            thread.start()

        if join:
            if ts is not None and threads:
                # The joining parent must not sit on the turnstile token
                # while its children need it; resuming records one turn,
                # mirroring the coop scheduler's join-resume rule.
                ts.pause(ctx)
                for thread in threads:
                    thread.join()
                ts.resume(ctx)
            else:
                for thread in threads:
                    thread.join()
            raise_thread_failures(errors, span, "parallel")
        else:
            with self._bg_monitor:
                self._background.extend(threads)

    def parallel_for_workers(self, n_items: int) -> int:
        workers = self.config.num_workers or os.cpu_count() or 1
        if self.config.detect_races and self.config.num_workers is None:
            # On a 1-core host a single worker would hide the logical
            # concurrency the detector exists to report.
            workers = max(2, workers)
        return max(1, min(workers, n_items))

    def lock(self, ctx, name: str, body: Callable[[], None],
             span: Span = NO_SPAN) -> None:
        plan = self.config.fault_plan
        ts = self._turnstile
        if plan is not None and ts is None:
            # Chaos: widen the race window in front of the critical
            # section.  While recording, the turnstile's own token-free
            # jitter plays this role (a sleep here would hold the token).
            plan.lock_delay(ctx, name)
        on_block = None
        blocked: list = []
        if ts is not None:
            def on_block() -> None:
                # Fires only when the acquire actually waits — an
                # uncontended acquire costs no turn, on any backend.
                blocked.append(True)
                ts.pause(ctx)
        obs = self.obs
        if obs is None:
            self.locks.acquire(name, ctx.id, span, on_block=on_block)
            if blocked:
                ts.resume(ctx)
            try:
                body()
            finally:
                self.locks.release(name, ctx.id)
            return
        contended = self.locks.holder_of(name) is not None
        t_req = obs.clock()
        self.locks.acquire(name, ctx.id, span, on_block=on_block)
        if blocked:
            ts.resume(ctx)
        t_acq = obs.clock()
        try:
            body()
        finally:
            self.locks.release(name, ctx.id)
            obs.lock_span(ctx.id, name, t_req, t_acq, obs.clock(), contended)

    def start_program(self, root_ctx) -> None:
        self.locks.register_thread(root_ctx.id, root_ctx.label)
        # Blocked acquires poll the token so cancellation reaches threads
        # that are waiting on a lock, not just ones executing statements.
        self.locks.cancel = self.config.cancel

    def finish_program(self, root_ctx) -> None:
        ts = self._turnstile
        try:
            if not self.config.wait_for_background:
                return
            if ts is not None:
                # Background threads still need the token to run; the
                # root's trailing join must not starve them.
                ts.pause(root_ctx)
            while True:
                with self._bg_monitor:
                    if not self._background:
                        break
                    thread = self._background.pop()
                thread.join()
            with self._bg_monitor:
                failures = list(self._background_errors)
                self._background_errors.clear()
            raise_thread_failures(failures, NO_SPAN, "background")
        finally:
            if ts is not None:
                # Teardown gate: stop serializing so no thread (on any
                # error path) can hang waiting for a token that will
                # never be released again.
                ts.close(root_ctx)


class SequentialBackend(Backend):
    """Runs parallel constructs sequentially in program order.

    The semantic baseline: any data-race-free Tetra program must produce the
    same answer here as on the thread backend (a property the differential
    tests exercise), and it is also the fastest way to run a program when
    you only care about its output.
    """

    name = "sequential"

    def __init__(self, config: RuntimeConfig | None = None):
        super().__init__(config)
        self._held: list[tuple[object, str]] = []
        self._recorder = self.config.schedule_recorder

    def checkpoint(self, ctx, node) -> None:
        rec = self._recorder
        if rec is not None:
            rec.turn(ctx.label)

    def wants_checkpoints(self) -> bool:
        return self._recorder is not None

    def spawn_group(self, ctx, jobs: Sequence[Job], join: bool,
                    span: Span = NO_SPAN) -> None:
        # Run every child even after one fails, then aggregate — the same
        # report a real parallel group produces on the thread backend (a
        # raw child exception used to escape here with no span or label).
        plan = self.config.fault_plan
        if plan is not None:
            jobs = plan.perturb_jobs(list(jobs))
        failures: list[tuple[str, BaseException]] = []
        for child_ctx, thunk in jobs:
            try:
                thunk()
            except BaseException as exc:  # noqa: BLE001 - aggregated below
                failures.append((child_ctx.label, exc))
        rec = self._recorder
        if rec is not None and join and jobs:
            # On the coop scheduler, resuming from a join costs the parent
            # one turn; synthesize it so sequential recordings line up
            # turn-for-turn with their replay.
            rec.turn(ctx.label)
        raise_thread_failures(failures, span,
                              "parallel" if join else "background")

    def parallel_for_workers(self, n_items: int) -> int:
        workers = self.config.num_workers or 1
        if self.config.detect_races and self.config.num_workers is None:
            workers = 2  # surface logical concurrency to the detector
        return max(1, min(workers, n_items))

    def lock(self, ctx, name: str, body: Callable[[], None],
             span: Span = NO_SPAN) -> None:
        if (ctx.id, name) in self._held:
            raise TetraDeadlockError(
                f"{ctx.label} re-entered 'lock {name}:' it already holds", span
            )
        rec = self._recorder
        if rec is not None:
            rec.grant(name, ctx.label)
        obs = self.obs
        t_acq = obs.clock() if obs is not None else 0.0
        self._held.append((ctx.id, name))
        try:
            body()
        finally:
            self._held.remove((ctx.id, name))
            if obs is not None:
                # Sequential execution never waits: request == acquire.
                obs.lock_span(ctx.id, name, t_acq, t_acq, obs.clock(), False)
