"""Per-thread interpreter state.

Each Tetra thread — the main thread, every ``parallel`` child, every
``parallel for`` worker — owns one :class:`ThreadContext`: its identity (the
key in lock wait-for graphs), its current environment, its Tetra-level
call stack, one :class:`~repro.runtime.env.Frame` per active call (what the
debugger shows as a backtrace), and the two facts the lock rule reads: the
locks it holds and the thread that waits to join it.

Context ids are process-global and monotonically increasing, so the
deterministic coop scheduler's "pick the lowest ready id" tie-break follows
spawn order.
"""

from __future__ import annotations

import itertools

from ..runtime.env import Environment, Frame

_ids = itertools.count(1)


class ThreadContext:
    """Everything the interpreter knows about one Tetra thread."""

    __slots__ = ("id", "label", "env", "call_stack", "held", "joiner")

    def __init__(self, label: str, env: Environment | None = None,
                 call_stack: list[Frame] | None = None,
                 joiner: "ThreadContext | None" = None):
        self.id = next(_ids)
        self.label = label
        self.env = env
        self.call_stack: list[Frame] = call_stack if call_stack is not None else []
        #: Names of the locks this thread holds, innermost last.
        self.held: list[str] = []
        #: The spawner of a ``parallel:`` child or a ``parallel for``
        #: worker; None for ``main`` and ``background:`` threads.
        self.joiner = joiner

    def spawn_child(self, label: str, env: Environment,
                    join: bool = True) -> "ThreadContext":
        """Context for a thread spawned by a parallel construct (``join``
        is False for a ``background:`` one).

        The child starts with a *copy* of the spawner's call stack — its
        backtrace reads "inside sum(), thread 2 of the parallel block" — but
        the copy is private so the threads' subsequent calls do not fight
        over one list.
        """
        return ThreadContext(label, env, list(self.call_stack),
                             self if join else None)

    def joined_holder(self, name: str) -> "ThreadContext | None":
        """This thread, or one that waits to join it (directly or through
        further joins), if it holds lock ``name``: a holder that would
        wait for this thread forever."""
        thread = self
        while thread is not None and name not in thread.held:
            thread = thread.joiner
        return thread

    @property
    def depth(self) -> int:
        return len(self.call_stack)

    @property
    def current_function(self) -> str:
        if self.call_stack:
            return self.call_stack[-1].function_name
        return "<toplevel>"

    def __repr__(self) -> str:
        return f"ThreadContext(#{self.id} {self.label!r} in {self.current_function})"
