"""Environments: the interpreter's shared and private symbol tables.

The paper (§IV): "Because of the way threads are created dynamically, they
have private and shared symbol tables."  Concretely:

* Each function activation owns a :class:`Frame` — a flat name→value table,
  which is also the activation's entry on its thread's call stack.
* Threads spawned by ``parallel`` / ``background`` blocks *share* the
  spawning activation's frame, which is how Figure II's two parallel
  assignments to ``a`` and ``b`` are visible after the join.
* Each ``parallel for`` worker gets an :class:`Environment` layering a small
  *private* table (holding the induction variable) over the shared frame.

Mutation of a shared frame from several threads is exactly the data-race
surface the language is designed to teach about; the frame itself is a dict,
whose individual get/set operations are atomic under CPython, so races stay
at the Tetra-program level instead of corrupting the interpreter.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import TetraInternalError
from ..source import NO_SPAN
from .values import Value


class Frame:
    """One function activation: its variables (the shared symbol table)
    and, as an entry of a thread's call stack, the statement it is at."""

    __slots__ = ("function_name", "vars", "shared", "current_span")

    def __init__(self, function_name: str):
        self.function_name = function_name
        self.vars: dict[str, Value] = {}
        #: Set (by the race detector) once a parallel construct hands this
        #: frame to child threads; accesses to a never-shared frame cannot
        #: race and are not worth recording.
        self.shared = False
        #: The statement being run, kept by the full statement prologue
        #: (coop and sim) for the debugger's backtraces.
        self.current_span = NO_SPAN

    def __repr__(self) -> str:
        return f"Frame({self.function_name}, {sorted(self.vars)})"


class Environment:
    """A view of a frame, optionally with thread-private bindings on top.

    Reads check the private table first; writes go to the private table only
    for names already private (the induction variable), otherwise to the
    shared frame — so a worker's loop variable never leaks, while ordinary
    assignments behave like the paper's shared-memory model.
    """

    __slots__ = ("frame", "private")

    def __init__(self, frame: Frame, private: dict[str, Value] | None = None):
        self.frame = frame
        self.private = private if private is not None else {}

    def child_with_private(self, bindings: dict[str, Value]) -> "Environment":
        """A new view over the same frame with extra private bindings
        (layered: nested ``parallel for`` loops stack their variables)."""
        merged = dict(self.private)
        merged.update(bindings)
        return Environment(self.frame, merged)

    def get(self, name: str) -> Value:
        # Most environments have an empty private table (only parallel-for
        # workers carry one); test truthiness before probing so the common
        # case costs a single dict lookup.  The compiler
        # (repro.interp.generate) relies on the same invariant to bypass
        # this method entirely for names it proves can never be private.
        private = self.private
        if private and name in private:
            return private[name]
        try:
            return self.frame.vars[name]
        except KeyError:
            # The checker guarantees definition-before-use; if control flow
            # reaches a read first anyway (e.g. a branch skipped the
            # assignment), that is a checker/interpreter disagreement.
            raise TetraInternalError(
                f"variable '{name}' read before any assignment in "
                f"{self.frame.function_name}"
            ) from None

    def set(self, name: str, value: Value) -> None:
        private = self.private
        if private and name in private:
            private[name] = value
        else:
            self.frame.vars[name] = value

    def is_shared(self, name: str) -> bool:
        """True when ``name`` resolves to a frame several threads can see —
        the only bindings whose accesses the race detector records."""
        return self.frame.shared and name not in self.private

    def has(self, name: str) -> bool:
        return name in self.private or name in self.frame.vars

    def names(self) -> Iterator[str]:
        seen = set(self.private)
        yield from self.private
        for name in self.frame.vars:
            if name not in seen:
                yield name

    def snapshot(self) -> dict[str, Value]:
        """Current visible bindings (debugger variable pane)."""
        merged = dict(self.frame.vars)
        merged.update(self.private)
        return merged
