"""Non-local control flow signals used inside the interpreter.

``return`` / ``break`` / ``continue`` are implemented as exceptions that
unwind the nested statement closures — the standard technique for
tree-walking interpreters (and what the paper's C++ interpreter does with
its recursive ``interpret`` calls).  They are internal: the type checker guarantees they
can never escape a function body or loop, and they deliberately do *not*
derive from :class:`~repro.errors.TetraError` so error handling cannot
swallow them by accident.
"""

from __future__ import annotations

from ..runtime.values import Value


class ControlSignal(Exception):
    """Base class for interpreter control flow (never user-visible)."""


class ReturnSignal(ControlSignal):
    def __init__(self, value: Value | None):
        super().__init__()
        self.value = value


class BreakSignal(ControlSignal):
    pass


class ContinueSignal(ControlSignal):
    pass
