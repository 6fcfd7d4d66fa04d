"""The headless IDE: everything Figure IV's window does, as a library.

The paper's IDE offers: editing (loading/saving), syntax highlighting of
Tetra keywords, running programs with I/O redirected to a console pane, and
(in progress there, complete here) the parallel debugger.  ``IDESession``
bundles those capabilities around one buffer so a front end — the bundled
TUI, or a GUI — only has to render state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import check_source
from ..errors import TetraError
from ..stdlib.io import CapturingIO
from .debugger import DebugSession
from .highlight import StyledSpan, highlight, render_ansi


@dataclass
class Diagnostic:
    """An editor-friendly rendering of one compile error."""

    line: int
    column: int
    message: str
    phase: str


class IDESession:
    """One open file in the IDE."""

    def __init__(self, text: str = "", path: str | None = None,
                 cache: bool = True):
        self.path = path
        self.text = text
        self.console = CapturingIO()
        self.debugger: DebugSession | None = None
        #: Races the last :meth:`run`'s detector observed (the race panel).
        self.races: list = []
        self._last_source = None
        #: Whether check/run go through the program cache (the edit-run
        #: loop's common case: an unchanged buffer re-runs without
        #: re-compiling).  ``cache=False`` recompiles every time.
        self.cache = cache

    # -- editing --------------------------------------------------------
    @staticmethod
    def open(path: str) -> "IDESession":
        with open(path, "r", encoding="utf-8") as handle:
            return IDESession(handle.read(), path)

    def save(self, path: str | None = None) -> str:
        target = path or self.path
        if target is None:
            raise ValueError("no path to save to")
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(self.text)
        self.path = target
        return target

    def set_text(self, text: str) -> None:
        self.text = text

    # -- highlighting -----------------------------------------------------
    def highlight_spans(self) -> list[StyledSpan]:
        return highlight(self.text, self.path or "<editor>")

    def highlighted_ansi(self) -> str:
        return render_ansi(self.text, self.path or "<editor>")

    # -- checking -----------------------------------------------------------
    def diagnostics(self) -> list[Diagnostic]:
        """All static errors, editor-shaped (empty = the program compiles)."""
        from ..api import cached_program

        try:
            # A clean buffer is the common case in the edit-check loop; a
            # cache hit answers it without re-running the pipeline, and the
            # warmed entry is the one :meth:`run` will use.
            cached_program(self.text, self.path or "<editor>",
                           cache=self.cache)
            return []
        except TetraError:
            # Something is wrong — fall back to the full collecting pass so
            # the editor shows *every* diagnostic, not just the first.
            pass
        result = []
        for exc in check_source(self.text, self.path or "<editor>"):
            result.append(Diagnostic(
                line=exc.span.line,
                column=exc.span.column,
                message=exc.message,
                phase=exc.phase,
            ))
        return result

    # -- running --------------------------------------------------------------
    def run(self, inputs: list[str] | None = None,
            backend: str = "thread", detect_races: bool = False) -> str:
        """Run the buffer; console output (and any runtime error, rendered
        the way the paper's console pane would show it) is returned and
        kept in :attr:`console`.  With ``detect_races`` the dynamic race
        detector watches the run; findings land in :attr:`races` and
        :meth:`race_panel` renders them console-style."""
        from ..api import run_source
        from ..source import SourceFile

        name = self.path or "<editor>"
        self.console = CapturingIO(inputs or [])
        self.races = []
        self._last_source = None
        try:
            # Re-running an unchanged buffer (the common edit-run loop) hits
            # the program cache and skips the lex/parse/check pipeline.
            result = run_source(self.text, backend=backend, name=name,
                                cache=self.cache, io=self.console,
                                on_error="return", detect_races=detect_races)
        except TetraError as exc:  # compile errors always raise
            self.console.write(exc.render() + "\n")
            return self.console.output
        self._last_source = SourceFile.from_string(self.text, name)
        self.races = result.races
        if result.error is not None:
            self.console.write(result.error.render() + "\n")
        return self.console.output

    def race_panel(self) -> str:
        """The race-detector pane for the last :meth:`run` (headless
        stand-in for an IDE panel listing each race with both sites)."""
        from ..analysis import render_race_panel

        return render_race_panel(self.races, self._last_source)

    # -- debugging ---------------------------------------------------------------
    def debug(self, inputs: list[str] | None = None,
              detect_races: bool = False) -> DebugSession:
        """Start a debug session on the buffer (paused at first statement)."""
        self.debugger = DebugSession(self.text, inputs,
                                     name=self.path or "<editor>",
                                     detect_races=detect_races)
        self.debugger.start()
        return self.debugger
