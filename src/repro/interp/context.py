"""Per-thread interpreter state.

Each Tetra thread — the main thread, every ``parallel`` child, every
``parallel for`` worker — owns one :class:`ThreadContext`: its identity (the
key in lock wait-for graphs), its current environment, and its Tetra-level
call stack, one :class:`~repro.runtime.env.Frame` per active call (what the
debugger shows as a backtrace).

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

    __slots__ = ("id", "label", "env", "call_stack", "os_thread_ident")

    def __init__(self, label: str, env: Environment | None = None,
                 call_stack: list[Frame] | None = None):
        self.id = next(_ids)
        self.label = label
        self.env = env
        self.call_stack: list[Frame] = call_stack if call_stack is not None else []
        self.os_thread_ident: int | None = None

    def spawn_child(self, label: str, env: Environment) -> "ThreadContext":
        """Context for a thread spawned by a parallel construct.

        The child starts with a *copy* of the spawner's call stack — its
        backtrace reads "inside sum(), thread 2 of the parallel block" — but
        the copy is private so the threads' subsequent calls do not fight
        over one list.
        """
        child = ThreadContext(label, env, list(self.call_stack))
        return child

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
