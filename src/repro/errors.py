"""Diagnostics for every phase of the Tetra system.

All user-facing failures derive from :class:`TetraError` and know how to
render themselves with the source line and a caret.  The hierarchy mirrors
the pipeline: lex → parse → typecheck → run, plus the runtime conditions an
educational parallel language must explain well (deadlock in particular).
"""

from __future__ import annotations

from .source import NO_SPAN, SourceFile, Span


class TetraError(Exception):
    """Base class for all diagnostics raised by the Tetra system."""

    #: Human-readable phase name used in rendered messages.
    phase = "error"

    def __init__(self, message: str, span: Span = NO_SPAN, source: SourceFile | None = None):
        super().__init__(message)
        self.message = message
        self.span = span
        self.source = source

    def attach_source(self, source: SourceFile) -> "TetraError":
        """Late-bind the source file (phases that only see spans use this)."""
        if self.source is None:
            self.source = source
        return self

    def render(self) -> str:
        """Full compiler-style diagnostic with file, location and caret."""
        where = ""
        if self.source is not None:
            where = f"{self.source.name}:"
        if self.span is not NO_SPAN and self.span.line > 0:
            where += f"{self.span.line}:{self.span.column}: "
        elif where:
            where += " "
        lines = [f"{where}{self.phase}: {self.message}"]
        if self.source is not None and self.span.line > 0:
            lines.append(self.source.caret_snippet(self.span))
        return "\n".join(lines)

    def __str__(self) -> str:
        if self.span is not NO_SPAN and self.span.line > 0:
            return f"{self.message} (at {self.span})"
        return self.message


class TetraSyntaxError(TetraError):
    """Raised by the lexer and parser for malformed source text."""

    phase = "syntax error"


class TetraIndentationError(TetraSyntaxError):
    """Inconsistent or unexpected indentation (Tetra is whitespace-delimited)."""

    phase = "indentation error"


class TetraTypeError(TetraError):
    """Raised by the static type checker."""

    phase = "type error"


class TetraNameError(TetraTypeError):
    """Use of an undefined variable, function, or type name."""

    phase = "name error"


class TetraRuntimeError(TetraError):
    """Raised while interpreting a program (index errors, bad reads, ...)."""

    phase = "runtime error"


class TetraIndexError(TetraRuntimeError):
    phase = "index error"


class TetraZeroDivisionError(TetraRuntimeError):
    phase = "division by zero"


class TetraIOError(TetraRuntimeError):
    phase = "i/o error"


class TetraNativeError(TetraRuntimeError):
    """``--native=require`` asked for the native compiled tier, but it
    cannot be set up on this run (no C toolchain, a failed build, or a
    configuration the tier cannot honor)."""

    phase = "native tier unavailable"


class TetraAssertionError(TetraRuntimeError):
    """Failure of the ``assert`` builtin (part of the extended stdlib)."""

    phase = "assertion failure"


class TetraDeadlockError(TetraRuntimeError):
    """A detected deadlock: self re-entry of a non-reentrant named lock, a
    request for a lock that a thread waiting to join the asker holds, or a
    cycle in the lock wait-for graph.

    The message names the threads and locks involved — the whole point of
    Tetra is teaching students *why* their program froze.  ``blocked_spans``
    carries the source location of *every* blocked ``lock`` statement in the
    cycle (the primary ``span`` is one of them), so the diagnostic can point
    a caret at each of the statements that are waiting on each other.
    """

    phase = "deadlock"

    def __init__(self, message: str, span: Span = NO_SPAN,
                 source: SourceFile | None = None,
                 cycle: tuple[str, ...] = (),
                 blocked_spans: tuple[Span, ...] = ()):
        super().__init__(message, span, source)
        self.cycle = cycle
        self.blocked_spans = blocked_spans

    def render(self) -> str:
        text = super().render()
        if self.source is None:
            return text
        extra = [
            s for s in self.blocked_spans
            if s is not NO_SPAN and s.line > 0
            and (s.line, s.column) != (self.span.line, self.span.column)
        ]
        for s in extra:
            text += (
                f"\nalso blocked at {self.source.name}:{s.line}:{s.column}:\n"
                f"{self.source.caret_snippet(s)}"
            )
        return text


class TetraThreadError(TetraRuntimeError):
    """An error propagated out of a Tetra thread into the statement that
    spawned it (``parallel`` blocks re-raise the first child failure)."""

    phase = "thread error"


class TetraInternalError(TetraError):
    """A bug in the Tetra implementation itself, never the user's program."""

    phase = "internal error"


class TetraLimitError(TetraRuntimeError):
    """A configured resource limit was exceeded (recursion depth, step
    budget, wall/virtual time, or the value-heap memory budget).

    Limits let tests, the debugger, and ``tetra run`` bound runaway
    programs.  ``limit`` names which guardrail tripped (``"steps"``,
    ``"recursion"``, ``"time"``, ``"memory"``) so callers — the CLI exit
    codes, :attr:`repro.api.RunResult.aborted_by`, the stress harness —
    can react without parsing the message.
    """

    phase = "limit exceeded"

    def __init__(self, message: str, span: Span = NO_SPAN,
                 source: SourceFile | None = None, limit: str = ""):
        super().__init__(message, span, source)
        self.limit = limit


class TetraCancelledError(TetraRuntimeError):
    """The run was cancelled from outside the program: Ctrl-C, an IDE stop
    button, or a :class:`repro.resilience.CancelToken` being cancelled.

    Cancellation is cooperative — every thread observes the token at its
    next statement boundary, unwinds through the normal error path (so
    ``parallel`` joins its children and partial traces/metrics survive),
    and the program exits with a uniform diagnostic instead of a traceback.
    """

    phase = "cancelled"


class TetraUserError(TetraRuntimeError):
    """An error raised by the Tetra program itself via the ``error`` builtin."""

    phase = "error"


def is_catchable(exc: BaseException) -> bool:
    """Can a Tetra ``try``/``catch`` handle this error?

    Ordinary runtime failures (bad index, division by zero, I/O problems,
    assertion/``error()`` calls) are catchable.  Deadlocks, thread failures,
    resource-limit aborts, and cancellation are not — they describe a broken
    (or externally stopped) *program run*, not a recoverable condition, and
    letting a student swallow a deadlock would defeat the diagnostic.
    """
    if not isinstance(exc, TetraRuntimeError):
        return False
    return not isinstance(
        exc, (TetraDeadlockError, TetraThreadError, TetraLimitError,
              TetraCancelledError)
    )


# ----------------------------------------------------------------------
# Uniform CLI exit codes (documented in README "Guardrails & chaos testing")
# ----------------------------------------------------------------------
EXIT_OK = 0          #: clean run
EXIT_ERROR = 1       #: any other Tetra diagnostic (syntax, type, runtime)
EXIT_USAGE = 2       #: bad command-line usage (argparse's convention)
EXIT_RACES = 3       #: --detect-races found data races (run itself clean)
EXIT_LIMIT = 4       #: a guardrail tripped (step/time/memory/recursion)
EXIT_DEADLOCK = 5    #: a deadlock was detected and aborted
EXIT_CANCELLED = 130  #: cancelled (SIGINT / stop button), 128 + SIGINT


def exit_code_for(exc: BaseException) -> int:
    """The uniform exit code ``tetra run`` (and ``tetra stress`` workers)
    report for a failed run."""
    if isinstance(exc, TetraCancelledError):
        return EXIT_CANCELLED
    if isinstance(exc, TetraDeadlockError):
        return EXIT_DEADLOCK
    if isinstance(exc, TetraLimitError):
        return EXIT_LIMIT
    return EXIT_ERROR
