"""Cooperative cancellation for Tetra runs.

A :class:`CancelToken` is shared between whoever wants to stop a run (a
SIGINT handler, an IDE stop button, a watchdog thread, a test) and the
interpreter, which observes it through the
:class:`~repro.resilience.guard.ExecutionGuard`: at every statement
boundary of a full-prologue run, or, on a lean run, through a listener
that sets the stop flag its loop back-edges poll.  Cancellation is therefore
*clean*: every Tetra thread unwinds through the normal error path, parallel
blocks join their children, backends run their ``finish_program`` hooks,
and partial output/traces/metrics survive the abort.
"""

from __future__ import annotations

import contextlib
import signal
import threading


class CancelToken:
    """A one-shot, thread-safe "please stop" flag with a reason.

    The first :meth:`cancel` wins; later calls keep the original reason so
    diagnostics stay stable when several sources race to stop the program.
    """

    __slots__ = ("_event", "_mu", "reason", "_listeners")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._mu = threading.Lock()
        self.reason: str | None = None
        self._listeners: list = []

    def cancel(self, reason: str = "cancelled") -> None:
        """Ask every thread of the run to stop at its next statement."""
        with self._mu:
            if self.reason is None:
                self.reason = reason
        self._event.set()
        for listener in tuple(self._listeners):
            listener()

    def add_listener(self, listener) -> None:
        """Call ``listener()`` on cancellation (at once if already
        cancelled; it may be called twice, so it must be idempotent)."""
        self._listeners.append(listener)
        if self._event.is_set():
            listener()

    def remove_listener(self, listener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancelled (watchdog threads use this)."""
        return self._event.wait(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"cancelled: {self.reason!r}" if self.cancelled else "armed"
        return f"<CancelToken {state}>"


@contextlib.contextmanager
def install_sigint(token: CancelToken, reason: str = "interrupted (Ctrl-C)"):
    """Route SIGINT into ``token`` for the duration of a run.

    The first Ctrl-C cancels the token — the program unwinds cleanly and
    partial reports are still printed.  A second Ctrl-C falls through to
    the previous handler (normally ``KeyboardInterrupt``), so a run whose
    cleanup itself wedges can still be killed.  Installing a handler is
    only legal in the main thread; anywhere else this is a no-op and the
    caller must cancel the token itself.
    """
    if threading.current_thread() is not threading.main_thread():
        yield token
        return
    previous = signal.getsignal(signal.SIGINT)

    def handler(signum, frame):
        if token.cancelled:
            # Second Ctrl-C: the user really means it.
            signal.signal(signal.SIGINT, previous)
            if callable(previous):
                previous(signum, frame)
            return
        token.cancel(reason)

    signal.signal(signal.SIGINT, handler)
    try:
        yield token
    finally:
        signal.signal(signal.SIGINT, previous)
