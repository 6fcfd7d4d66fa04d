"""Execution guardrails: time limits, cancellation, chaos, memory.

The interpreter's full statement prologue owns a per-statement hook chain
(stop flag, backend checkpoint, profiler).
:class:`ExecutionGuard` slots into it with the run-wide limits that need a
*clock* or a *token*: wall-clock ``time_limit`` (the backend's own clock,
so sim/coop budgets are virtual units and fully deterministic), the
cooperative :class:`CancelToken`, and thread-backend preemption jitter
from a :class:`FaultPlan`.  A lean run has no prologue; there the guard
folds the token and a host-clock deadline into the stop flag that loop
back-edges and function entries poll (:meth:`ExecutionGuard.watch`).  One
daemon thread per process trips every lean run's deadline
(:class:`_Deadlines`), so a time-limited run starts no thread of its own.

The value-heap ``memory_limit`` lives in :class:`HeapMeter`, checked at
container *allocation* sites instead of per statement — live cells are
tracked with weakref finalizers, so CPython's prompt refcounting keeps the
meter honest when a program drops a large array.

Both follow the zero-cost-when-disabled contract (the same one the race
detector and Observer use): when no guard is configured the interpreter
binds ``None`` and the fast path compiles the check out entirely.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref

from ..errors import TetraCancelledError, TetraLimitError
from ..source import NO_SPAN, Span
from ..stdlib.builtin_time import monotonic_clock

#: Output charged per heap cell when ``memory_limit`` is set without an
#: explicit ``output_limit``: the interpreter then caps captured output at
#: ``memory_limit * OUTPUT_CHARS_PER_CELL`` characters, so a print loop
#: cannot grow the console buffer past (roughly) the value-heap budget.
OUTPUT_CHARS_PER_CELL = 64


class HeapMeter:
    """Counts live Tetra value-heap cells against ``memory_limit``.

    A *cell* is one element of a container the program allocates: an array
    or dict element, a tuple item, an object field.  Primitives ride inside
    cells and are not counted separately.  Each tracked container carries a
    weakref finalizer that returns its cells when the container dies, so
    the meter follows the live heap, not cumulative allocation.
    """

    __slots__ = ("limit", "live", "peak", "_mu")

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.live = 0
        self.peak = 0
        self._mu = threading.Lock()

    def track(self, container, cells: int, span: Span = NO_SPAN) -> None:
        """Charge ``cells`` for a freshly allocated container (min 1)."""
        cells = max(1, int(cells))
        with self._mu:
            self.live += cells
            if self.live > self.peak:
                self.peak = self.live
            over = self.live > self.limit
        weakref.finalize(container, self._free, cells)
        if over:
            raise TetraLimitError(
                f"the program exceeded its memory budget of {self.limit} "
                f"value cells (live: {self.live}) — raise it with "
                "--memory-limit or RuntimeConfig(memory_limit=...)",
                span,
                limit="memory",
            )

    def _free(self, cells: int) -> None:
        with self._mu:
            self.live -= cells

    def track_value(self, value, span: Span = NO_SPAN) -> None:
        """Charge for a container a *builtin* returned (the literal and
        constructor sites know their cell counts; builtins like
        ``array_of`` or ``concat`` are charged here by inspection)."""
        from ..runtime.values import (
            TetraArray,
            TetraDict,
            TetraObject,
            TetraTuple,
        )

        if isinstance(value, (TetraArray, TetraTuple, TetraDict)):
            self.track(value, len(value.items), span)
        elif isinstance(value, TetraObject):
            self.track(value, len(value.fields), span)


class _Deadlines:
    """The process's one deadline thread: calls each registered ``trip``
    once its host-clock deadline passes, unless it was removed first.

    The thread starts with the first registration and sleeps until the
    earliest pending deadline.  A forked child starts over with no thread
    and no entries (:func:`os.register_at_fork`), since threads do not
    survive ``fork`` and an inherited lock may be held.
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        #: id -> (deadline, trip), one entry per armed run.
        self._due: dict[int, tuple] = {}
        self._ids = itertools.count()
        self._thread: threading.Thread | None = None
        #: When the thread wakes next; an earlier deadline must wake it.
        self._wake = float("inf")

    def add(self, delay: float, trip) -> int:
        """Call ``trip()`` from the deadline thread in ``delay`` seconds;
        returns the id that :meth:`remove` takes."""
        key = next(self._ids)
        at = monotonic_clock() + delay
        with self._cond:
            self._due[key] = (at, trip)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="tetra-deadlines", daemon=True)
                self._thread.start()
            elif at < self._wake:
                self._cond.notify()
        return key

    def remove(self, key: int) -> None:
        with self._cond:
            self._due.pop(key, None)

    def _loop(self) -> None:
        due = self._due
        with self._cond:
            while True:
                now = monotonic_clock()
                for key in [k for k, (at, _) in due.items() if at <= now]:
                    due.pop(key)[1]()
                self._wake = min((at for at, _ in due.values()),
                                 default=float("inf"))
                self._cond.wait(None if not due else self._wake - now)


_deadlines = _Deadlines()


def _forked() -> None:
    global _deadlines
    _deadlines = _Deadlines()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forked)


class ExecutionGuard:
    """Per-run guard, armed when any of ``time_limit`` / ``cancel`` /
    thread-backend chaos is configured.

    The full statement prologue calls :meth:`check`.  A lean run has no
    prologue: :meth:`watch` folds the token and a host-clock deadline into
    the interpreter's stop flag, which loop back-edges and function
    entries poll, and the polling thread raises :meth:`error`.  Only chaos
    preemption and a virtual-clock deadline need the per-statement check
    (:attr:`per_statement`)."""

    __slots__ = ("token", "time_limit", "virtual", "_now", "_deadline",
                 "_preempt")

    def __init__(self, backend, config):
        self.token = config.cancel
        self.time_limit = config.time_limit
        self.virtual = backend.virtual_clock
        self._now = backend.now
        self._deadline: float | None = None
        plan = config.fault_plan
        # Preemption jitter only makes sense where a real OS scheduler can
        # exploit it; the deterministic backends get their chaos from the
        # schedule seed and spawn shuffling instead.  While a schedule is
        # being recorded the turnstile injects the jitter itself, token-free
        # (sleeping here would stall every thread and double-draw the
        # per-thread fault RNG).
        self._preempt = plan if (plan is not None
                                 and config.schedule_recorder is None
                                 and backend.name in ("thread", "proc")) \
            else None

    @property
    def active(self) -> bool:
        """True when the statement-boundary check does anything at all."""
        return (self.token is not None or bool(self.time_limit)
                or self._preempt is not None)

    @property
    def per_statement(self) -> bool:
        """True when the guard must be checked at every statement."""
        return self._preempt is not None or (self.virtual
                                             and bool(self.time_limit))

    def start(self) -> None:
        """Arm the deadline at program start (backend clocks may not start
        at zero, so the guard reads its own origin)."""
        if self.time_limit:
            self._deadline = self._now() + self.time_limit

    def watch(self, trip):
        """Call ``trip()`` when the token is cancelled (from the cancelling
        thread) or the deadline passes (from the process's deadline
        thread); returns the function that disarms both.  For host clocks,
        after :meth:`start`."""
        token = self.token
        deadlines = key = None
        if self._deadline is not None:
            deadlines = _deadlines
            key = deadlines.add(self._deadline - self._now(), trip)
        if token is not None:
            token.add_listener(trip)

        def disarm() -> None:
            if deadlines is not None:
                deadlines.remove(key)
            if token is not None:
                token.remove_listener(trip)

        return disarm

    def error(self, span: Span):
        """The error of a tripped :meth:`watch`: the cancellation if the
        token fired, else the time limit."""
        token = self.token
        if token is not None and token.cancelled:
            return TetraCancelledError(
                f"the run was cancelled — {token.reason}", span
            )
        units = "virtual time units" if self.virtual else "seconds"
        return TetraLimitError(
            f"the program exceeded its time limit of {self.time_limit:g} "
            f"{units} — raise it with --time-limit or "
            "RuntimeConfig(time_limit=...)",
            span,
            limit="time",
        )

    def check(self, ctx, span: Span) -> None:
        """The statement-boundary check: cancel, deadline, chaos preempt."""
        token = self.token
        deadline = self._deadline
        if ((token is not None and token.cancelled)
                or (deadline is not None and self._now() > deadline)):
            raise self.error(span)
        preempt = self._preempt
        if preempt is not None:
            preempt.maybe_preempt(ctx)
