"""The parallel debugger — the paper's flagship IDE feature, implemented.

Paper §III: "Unlike most debuggers, the Tetra IDE will have multiple code
views in debug mode: one for each thread of the currently running program.
This will allow students to step through the different threads
independently.  This ability will help students discover race conditions
and deadlock scenarios by stepping through the code in different orders."

:class:`DebugSession` provides exactly that, headlessly: the program runs
under the cooperative backend with a manual policy, so every Tetra thread
pauses before each statement until the debugger grants it steps.  The
session exposes per-thread views (current line, call stack, variables),
line breakpoints, independent stepping, and expression evaluation in a
paused thread's scope.  The TUI (:mod:`repro.ide.tui`) and tests drive this
API; a graphical IDE would sit on it the same way the paper's Qt IDE sits
on its interpreter library.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from ..errors import TetraError, TetraThreadError
from ..parser import parse_expression
from ..source import SourceFile, Span
from ..interp import Interpreter, ThreadContext
from ..runtime import run_config
from ..runtime.coop import (
    BLOCKED_JOIN,
    BLOCKED_LOCK,
    FINISHED,
    READY,
    CoopBackend,
    ManualPolicy,
)
from ..runtime.values import Value, display, type_of_value
from ..stdlib.io import CapturingIO
from ..api import cached_program
from ..types import VOID, FunctionSignature, LocalScope, VariableInfo
from ..types.check import TypeChecker


@dataclass
class FrameView:
    """One entry of a thread's Tetra-level backtrace."""

    function: str
    line: int


@dataclass
class ThreadView:
    """A read-only snapshot of one Tetra thread, shown as a 'code view'."""

    id: int
    label: str
    state: str
    line: int
    function: str
    backtrace: list[FrameView] = field(default_factory=list)
    variables: dict[str, str] = field(default_factory=dict)
    waiting_lock: str | None = None
    statements_run: int = 0

    @property
    def is_paused(self) -> bool:
        return self.state == READY

    @property
    def is_finished(self) -> bool:
        return self.state == FINISHED


class DebugSession:
    """One debugging run of one Tetra program.

    Lifecycle: construct → :meth:`start` → drive with :meth:`step` /
    :meth:`continue_all` / breakpoints → inspect :attr:`output`,
    :attr:`error`.  The program runs on a daemon worker thread; the session
    object is the controller and must be used from a single thread.
    """

    #: Safety valve for continue_all on runaway programs.
    MAX_CONTINUE_STEPS = 200_000

    def __init__(self, text: str | None = None,
                 inputs: list[str] | None = None,
                 name: str = "<debug>", num_workers: int = 4,
                 detect_races: bool = False, replay: object = None):
        #: The schedule being replayed (``tetra run --record-schedule`` /
        #: ``tetra stress --artifacts`` output), or None for a live session.
        self.schedule = None
        self._replay_turns: deque[str] | None = None
        if replay is not None:
            from ..runtime.schedule import load_schedule, parse_schedule

            schedule = load_schedule(replay) if isinstance(replay, str) \
                else parse_schedule(replay)
            self.schedule = schedule
            # The artifact embeds everything the recorded run saw; explicit
            # arguments still win so tests can tweak a session.
            if text is None:
                text = schedule.source
            if name == "<debug>":
                name = schedule.name
            if inputs is None:
                inputs = list(schedule.inputs)
            self._replay_turns = deque(schedule.turns)
        if text is None:
            raise TetraThreadError(
                "DebugSession needs source text or a replay schedule"
            )
        self.program, self.source = cached_program(text, name)
        self.io = CapturingIO(inputs or [])
        from ..resilience import CancelToken

        #: The IDE stop button routes through this token (via
        #: Interpreter.stop), so even threads parked on locks unwind.
        self.cancel = CancelToken()
        # A replay installed on the config makes CoopBackend arm the
        # lock-grant gate and parallel-for shapes; stepping stays manual,
        # but every lock handoff and worker count follows the recording.
        config = run_config(replay=self.schedule, num_workers=num_workers,
                            detect_races=detect_races, cancel=self.cancel)
        self.backend = CoopBackend(ManualPolicy(), config=config)
        self.interpreter = Interpreter(
            self.program, self.source, backend=self.backend, io=self.io,
            config=config,
        )
        self.breakpoints: set[int] = set()
        self.error: TetraError | None = None
        self._runner: threading.Thread | None = None
        self._done = threading.Event()
        # Thread ids shown to the user are compact per-session numbers
        # (1, 2, 3...) in spawn order; internally the runtime uses
        # process-global context ids.
        self._display_ids: dict[int, int] = {}
        self._real_ids: dict[int, int] = {}

    def _display_id(self, real_id: int) -> int:
        if real_id not in self._display_ids:
            display = len(self._display_ids) + 1
            self._display_ids[real_id] = display
            self._real_ids[display] = real_id
        return self._display_ids[real_id]

    def _real_id(self, display_id: int) -> int:
        # Refresh the mapping first so newly spawned threads are addressable.
        for record in self.backend.scheduler.snapshot():
            self._display_id(record.id)
        real = self._real_ids.get(display_id)
        if real is None:
            raise TetraThreadError(f"no thread with id {display_id}")
        return real

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the program; it pauses before its first statement."""
        if self._runner is not None:
            raise TetraThreadError("this debug session has already started")

        def run() -> None:
            try:
                self.interpreter.run()
            except TetraError as exc:
                self.error = exc.attach_source(self.source)
            except BaseException as exc:  # noqa: BLE001 - surfaced to the user
                self.error = TetraThreadError(
                    f"internal failure: {type(exc).__name__}: {exc}"
                )
            finally:
                self._done.set()

        self._runner = threading.Thread(target=run, name="tetra-debuggee",
                                        daemon=True)
        self._runner.start()
        self._settle()

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    @property
    def output(self) -> str:
        return self.io.output

    @property
    def races(self) -> list:
        """Races the detector has observed so far (needs ``detect_races``)."""
        return self.interpreter.races

    def _settle(self) -> None:
        """Wait until every Tetra thread is paused, blocked, or finished."""
        if self._done.is_set():
            return
        self.backend.scheduler.wait_until_paused()

    # ------------------------------------------------------------------
    # Inspection (the per-thread code views)
    # ------------------------------------------------------------------
    def threads(self) -> list[ThreadView]:
        views: list[ThreadView] = []
        scheduler = self.backend.scheduler
        for record in scheduler.snapshot():
            ctx = self.backend.contexts.get(record.id)
            backtrace: list[FrameView] = []
            variables: dict[str, str] = {}
            function = "<program>"
            if isinstance(ctx, ThreadContext) and ctx.call_stack:
                backtrace = [
                    FrameView(fr.function_name, fr.current_span.line)
                    for fr in ctx.call_stack
                ]
                function = ctx.call_stack[-1].function_name
                if ctx.env is not None:
                    variables = {
                        name: display(value)
                        for name, value in sorted(ctx.env.snapshot().items())
                    }
            views.append(ThreadView(
                id=self._display_id(record.id),
                label=record.label,
                state=record.state,
                line=record.current_span.line,
                function=function,
                backtrace=backtrace,
                variables=variables,
                waiting_lock=record.waiting_lock,
                statements_run=scheduler.statements_run.get(record.id, 0),
            ))
        return views

    def thread(self, thread_id: int) -> ThreadView:
        for view in self.threads():
            if view.id == thread_id:
                return view
        raise TetraThreadError(f"no thread with id {thread_id}")

    def source_line(self, line: int) -> str:
        return self.source.line_text(line)

    def evaluate(self, thread_id: int, expression: str) -> str:
        """Evaluate an expression in a paused thread's current scope.

        The expression is parsed with the real parser, type-checked against
        a scope synthesized from the thread's live variables, and evaluated
        by the real interpreter against the thread's environment — so it
        sees exactly what the thread sees, private induction variables
        included, and type errors read like the compiler's.
        """
        ctx = self.backend.contexts.get(self._real_id(thread_id))
        if not isinstance(ctx, ThreadContext) or ctx.env is None:
            raise TetraThreadError(
                f"thread {thread_id} has no scope to evaluate in"
            )
        expr = parse_expression(expression)
        # The interpreter requires checker annotations (element types of
        # literals, coercion targets); console input never went through
        # check_program, so check it here against the runtime scope.
        scope = LocalScope()
        for var_name, value in ctx.env.snapshot().items():
            scope.define(VariableInfo(var_name, type_of_value(value)))
        checker = TypeChecker(self.program, self.source)
        checker.symbols = self.program.symbols  # type: ignore[attr-defined]
        checker._scope = scope
        checker._signature = FunctionSignature("<debug>", (), (), VOID)
        checker.check_expr(expr)
        if checker.errors:
            raise checker.errors[0]
        value = self.interpreter.compiled.compile(expr, ctx.env.private)(ctx)
        return display(value)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def step(self, thread_id: int, steps: int = 1) -> ThreadView:
        """Run ``thread_id`` forward ``steps`` statements while every other
        thread stays parked (the paper's independent stepping)."""
        real = self._real_id(thread_id)
        for _ in range(steps):
            if self.finished:
                break
            try:
                self.backend.scheduler.grant(real, 1)
            except TetraThreadError:
                self._raise_if_failed()  # surface a deadlock/crash first
                raise
            self._settle()
            record = self.backend.scheduler.threads.get(real)
            if record is None or record.state != READY:
                break  # blocked or finished mid-step
        self._raise_if_failed()
        return self.thread(thread_id)

    def run_thread(self, thread_id: int) -> ThreadView:
        """Step one thread until it finishes, blocks, or hits a breakpoint —
        'step though the code in one thread all the way to the end (or a
        lock)' in the paper's words."""
        real = self._real_id(thread_id)
        for _ in range(self.MAX_CONTINUE_STEPS):
            if self.finished:
                break
            record = self.backend.scheduler.threads.get(real)
            if record is None or record.state != READY:
                break
            self.backend.scheduler.grant(real, 1)
            self._settle()
            record = self.backend.scheduler.threads.get(real)
            if record is None or record.state != READY:
                break
            if record.current_span.line in self.breakpoints:
                break
        self._raise_if_failed()
        return self.thread(thread_id)

    def continue_all(self) -> None:
        """Round-robin every runnable thread until the program finishes or
        any thread reaches a breakpoint."""
        for _ in range(self.MAX_CONTINUE_STEPS):
            if self.finished:
                break
            runnable = [
                t for t in self.backend.scheduler.snapshot()
                if t.state == READY
            ]
            if not runnable:
                break
            hit = [t for t in runnable
                   if t.current_span.line in self.breakpoints]
            if hit:
                break
            for record in runnable:
                if self.finished or self.backend.scheduler.abort_exc:
                    break
                current = self.backend.scheduler.threads.get(record.id)
                if current is None or current.state != READY:
                    continue
                try:
                    self.backend.scheduler.grant(record.id, 1)
                except TetraThreadError:
                    # The thread finished or blocked between our snapshot
                    # and the grant (e.g. a deadlock abort cascaded through
                    # the program); the loop re-snapshots next round.
                    continue
                self._settle()
            if self.backend.scheduler.abort_exc:
                break
        self._raise_if_failed()

    @property
    def replay_pending(self) -> int:
        """Recorded turns not yet replayed (0 for live sessions)."""
        return len(self._replay_turns or ())

    def replay_step(self, steps: int = 1) -> list[ThreadView]:
        """Advance a replay session by ``steps`` recorded turns.

        Each step grants exactly the thread the recording ran next, so
        single-stepping walks the *recorded* interleaving — the student
        watches the exact schedule that raced or deadlocked, one statement
        at a time, with full variable inspection between turns.  Recorded
        turns whose thread no longer exists or is not runnable (e.g. a
        proc recording's worker-pool threads) are skipped; breakpoints are
        honored between turns by the caller checking :meth:`threads`.
        """
        if self._replay_turns is None:
            raise TetraThreadError(
                "this session is not replaying a schedule — construct "
                "DebugSession(replay=...) to step a recording"
            )
        for _ in range(steps):
            if self.finished:
                break
            granted = False
            while self._replay_turns and not granted:
                label = self._replay_turns.popleft()
                target = None
                for record in self.backend.scheduler.snapshot():
                    if record.label == label and record.state == READY:
                        target = record
                        break
                if target is None:
                    continue  # finished/absent thread: drop its turn
                try:
                    self.backend.scheduler.grant(target.id, 1)
                except TetraThreadError:
                    continue
                granted = True
                self._settle()
            if not granted:
                break  # recording exhausted
        self._raise_if_failed()
        return self.threads()

    def replay_continue(self) -> None:
        """Play the rest of the recording (or until a breakpoint line)."""
        if self._replay_turns is None:
            raise TetraThreadError(
                "this session is not replaying a schedule"
            )
        while self._replay_turns and not self.finished:
            hit = [t for t in self.backend.scheduler.snapshot()
                   if t.state == READY
                   and t.current_span.line in self.breakpoints]
            if hit:
                break
            before = len(self._replay_turns)
            self.replay_step()
            if len(self._replay_turns) == before:
                break

    def add_breakpoint(self, line: int) -> None:
        self.breakpoints.add(line)

    def remove_breakpoint(self, line: int) -> None:
        self.breakpoints.discard(line)

    def _raise_if_failed(self) -> None:
        # After a scheduler abort (deadlock) the runner thread needs a
        # moment to unwind and record the error; wait for it so callers see
        # the real diagnostic rather than a stale state.
        if self.backend.scheduler.abort_exc is not None:
            self._done.wait(timeout=10.0)
        if self._done.is_set() and self.error is not None:
            raise self.error

    def stop(self) -> None:
        """Abandon the program (e.g. the user closes the debugger)."""
        self.interpreter.stop()
        # Wake every parked thread so it can observe the stop flag.
        scheduler = self.backend.scheduler
        with scheduler.cv:
            for record in scheduler.threads.values():
                if record.state == READY:
                    record.budget = float("inf")
            scheduler._schedule_turn()
