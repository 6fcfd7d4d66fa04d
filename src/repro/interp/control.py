"""Completion values: how ``return``, ``break`` and ``continue`` leave the
nested statement closures.

A compiled statement returns its completion instead of raising: ``None``
to fall through to the next statement, :data:`BREAK` or :data:`CONTINUE`
for the innermost loop, and anything else for a ``return`` — the returned
value itself, or :data:`RETURN` for a bare ``return``.  No Tetra value is
``None`` (only a void call yields it, and the checker rejects returning
one), so a returned value is never taken for a fall-through.  Blocks pass
a completion up, loops consume ``BREAK`` and ``CONTINUE``, and a
function's invoker turns the rest into its result.  The checker
guarantees that none escapes a function body or a loop: ``return`` is
rejected inside a spawned thread, and ``break``/``continue`` cannot cross
into a ``parallel for``.
"""

from __future__ import annotations


class Completion:
    """A completion sentinel (never a Tetra value)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


BREAK = Completion("BREAK")
CONTINUE = Completion("CONTINUE")
RETURN = Completion("RETURN")
