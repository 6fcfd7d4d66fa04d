"""An interactive Tetra REPL (``tetra repl``).

Classroom workflow the paper's IDE aims at, in a terminal: type statements
and see them run immediately, define functions incrementally, inspect
variables, and experiment with the parallel constructs — all with the real
checker in the loop, so type errors appear as you go, not at some later
"compile" step.

Mechanics: the session owns one persistent frame (variables survive across
inputs) and a growing set of function definitions.  Each input is either

* a REPL command (``:help``, ``:vars``, ``:funcs``, ``:type e``,
  ``:load file``, ``:quit``),
* a function definition (``def ...`` — collected until the indented block
  ends, checked together with the other session functions),
* an expression (evaluated; its value is echoed), or
* one or more statements (checked against the session scope, executed).
"""

from __future__ import annotations

import textwrap
from typing import TextIO

from ..api import cached_parse
from ..errors import TetraError
from ..parser import Parser
from ..source import SourceFile
from ..tetra_ast import Program
from ..types import VOID, FunctionSignature, LocalScope, ProgramSymbols
from ..types.check import TypeChecker
from ..interp import Interpreter, ReturnSignal, ThreadContext
from ..interp.control import BreakSignal, ContinueSignal
from ..runtime import Frame, RuntimeConfig, ThreadBackend
from ..runtime.env import Environment
from ..runtime.values import display
from ..stdlib.io import IOChannel, StandardIO
from ..lexer import TokenType, tokenize

PROMPT = "tetra> "
CONTINUATION = "  ...> "

_HELP = """\
Tetra REPL — statements run immediately, expressions echo their value.
  def f(...) ...:     define or redefine a function (finish with an
                      empty line)
  :vars               list session variables and their values
  :funcs              list session functions
  :type <expr>        show an expression's static type
  :load <file.ttr>    bring a file's functions into the session
  :help               this text
  :quit               leave (Ctrl-D works too)
"""


class ReplSession:
    """The persistent state and evaluation engine behind the REPL."""

    def __init__(self, io: IOChannel | None = None, cache: bool = True):
        self.io = io or StandardIO()
        self.functions: dict[str, object] = {}  # name -> FunctionDef
        self.classes: dict[str, object] = {}    # name -> ClassDef
        self.scope = LocalScope()
        self.frame = Frame("<repl>")
        self.ctx = ThreadContext("repl thread", Environment(self.frame))
        #: Re-entering the same definition or statement block (a classroom
        #: staple: up-arrow, edit, retry) skips re-parsing via the program
        #: cache.  The tag scopes entries to this session — the checker
        #: annotates AST nodes in place, and only this session re-checks
        #: (and therefore re-annotates) the trees it gets back.
        self.cache = cache
        self._cache_tag = object()
        self._rebuild()

    def _parse(self, text: str):
        """Parse a fragment through the session-scoped parse cache."""
        return cached_parse(text, "<repl>", tag=self._cache_tag,
                            cache=self.cache)

    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Recreate the program/checker/interpreter after a definition."""
        self.program = Program(functions=list(self.functions.values()),
                               classes=list(self.classes.values()))
        source = SourceFile.from_string("", "<repl>")
        checker = TypeChecker(self.program, source)
        symbols = checker.run()
        if checker.errors:
            raise checker.errors[0]
        self.symbols: ProgramSymbols = symbols
        self.interpreter = Interpreter(
            self.program, source,
            backend=ThreadBackend(RuntimeConfig()),
            io=self.io,
        )
        # The session scope persists; wire it into a fresh checker used for
        # statement/expression checking between definitions.
        self._stmt_checker = TypeChecker(self.program, source)
        self._stmt_checker.symbols = symbols
        self._stmt_checker._scope = self.scope
        self._stmt_checker._signature = FunctionSignature(
            "<repl>", (), (), VOID
        )

    def _check(self, check, source: SourceFile | None = None):
        """Run a checker callback; raise the first collected diagnostic."""
        self._stmt_checker.errors.clear()
        saved = self._stmt_checker.source
        if source is not None:
            self._stmt_checker.source = source
        try:
            result = check()
        finally:
            self._stmt_checker.source = saved
        if self._stmt_checker.errors:
            raise self._stmt_checker.errors[0]
        return result

    # ------------------------------------------------------------------
    # Input classification
    # ------------------------------------------------------------------
    @staticmethod
    def needs_continuation(text: str) -> bool:
        """Does this input open a block (ends with ':' outside strings)?"""
        try:
            tokens = tokenize(text)
        except TetraError:
            return False
        meaningful = [
            t for t in tokens
            if t.type not in (TokenType.NEWLINE, TokenType.INDENT,
                              TokenType.DEDENT, TokenType.EOF)
        ]
        return bool(meaningful) and meaningful[-1].type is TokenType.COLON

    def define_functions(self, text: str) -> list[str]:
        """Handle a ``def``/``class`` input; returns the (re)defined names."""
        program, _ = self._parse(text)
        previous_fns = dict(self.functions)
        previous_classes = dict(self.classes)
        names = []
        for fn in program.functions:
            self.functions[fn.name] = fn
            names.append(fn.name)
        for cls in program.classes:
            self.classes[cls.name] = cls
            names.append(cls.name)
        try:
            self._rebuild()
        except TetraError:
            self.functions = previous_fns  # roll back a bad definition
            self.classes = previous_classes
            self._rebuild()
            raise
        return names

    def try_parse_expression(self, text: str):
        """Parse as a single expression; None if it is not one (syntax)."""
        source = SourceFile.from_string(text, "<repl>")
        parser = Parser(source)
        try:
            expr = parser.parse_expression()
            parser.accept(TokenType.NEWLINE)
            if not parser.at(TokenType.EOF):
                return None
        except TetraError:
            return None
        return expr

    def eval_expression(self, expr) -> str | None:
        """Check and evaluate a parsed expression; display form or None."""
        ty = self._check(lambda: self._stmt_checker.check_expr(expr))
        value = self.interpreter.compiled.compile(expr)(self.ctx)
        if ty == VOID:
            return None
        return display(value)

    def static_type_of(self, text: str) -> str:
        """The ``:type`` command: check without evaluating."""
        source = SourceFile.from_string(text, "<repl>")
        parser = Parser(source)
        expr = parser.parse_expression()
        ty = self._check(lambda: self._stmt_checker.check_expr(expr))
        return str(ty)

    def run_statements(self, text: str) -> None:
        """Check and execute one or more statements in the session scope."""
        wrapped = "def __repl_input__():\n" + textwrap.indent(text, "    ")
        program, source = self._parse(wrapped)
        statements = program.functions[0].body.statements

        def check_all():
            for stmt in statements:
                self._stmt_checker.check_stmt(stmt)

        self._check(check_all, source)
        compiled = self.interpreter.compiled
        for stmt in statements:
            try:
                compiled.compile(stmt)(self.ctx)
            except ReturnSignal:
                raise TetraError("'return' outside a function") from None
            except (BreakSignal, ContinueSignal):
                raise TetraError(
                    "'break'/'continue' outside a loop"
                ) from None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def variables(self) -> list[tuple[str, str, str]]:
        """(name, type, value) for every session variable."""
        rows = []
        for name in sorted(self.frame.vars):
            info = self.scope.lookup(name)
            type_text = str(info.type) if info else "?"
            rows.append((name, type_text, display(self.frame.vars[name])))
        return rows

    def function_signatures(self) -> list[str]:
        rows = [
            str(self.symbols.classes[name])
            for name in sorted(self.classes)
        ]
        rows += [
            str(self.symbols.functions[name])
            for name in sorted(self.functions)
        ]
        return rows

    def load_file(self, path: str) -> list[str]:
        with open(path, "r", encoding="utf-8") as handle:
            return self.define_functions(handle.read())


class Repl:
    """The interactive loop over a :class:`ReplSession`."""

    def __init__(self, stdin: TextIO | None = None,
                 stdout: TextIO | None = None,
                 io: IOChannel | None = None):
        import sys

        self.stdin = stdin or sys.stdin
        self.stdout = stdout or sys.stdout
        self.session = ReplSession(io)

    def _say(self, text: str = "") -> None:
        self.stdout.write(text + "\n")

    @staticmethod
    def _block_complete(text: str) -> bool:
        """Does the accumulated block parse (as definitions or statements)?"""
        from repro.parser import parse_source as _parse

        for candidate in (text, "def __probe__():\n"
                          + "\n".join(f"    {l}" for l in text.split("\n"))):
            try:
                _parse(candidate)
                return True
            except TetraError:
                continue
        return False

    def _read_block(self, first: str) -> str:
        """Collect continuation lines.

        A blank line ends the block once the text parses — so class bodies
        and functions may contain internal blank lines; two consecutive
        blank lines always end it (the escape hatch for broken input).
        """
        lines = [first]
        blank_run = 0
        while True:
            self.stdout.write(CONTINUATION)
            self.stdout.flush()
            line = self.stdin.readline()
            if not line:
                break
            if line.strip() == "":
                blank_run += 1
                text = "\n".join(lines) + "\n"
                if blank_run >= 2 or self._block_complete(text):
                    break
                lines.append("")
                continue
            blank_run = 0
            lines.append(line.rstrip("\n"))
        return "\n".join(lines) + "\n"

    def handle(self, text: str) -> bool:
        """Process one complete input.  Returns False to exit."""
        stripped = text.strip()
        if not stripped:
            return True
        if stripped in (":quit", ":q", ":exit"):
            return False
        if stripped in (":help", ":h"):
            self._say(_HELP)
            return True
        if stripped == ":vars":
            rows = self.session.variables()
            if not rows:
                self._say("(no variables yet)")
            for name, type_text, value in rows:
                self._say(f"  {name} {type_text} = {value}")
            return True
        if stripped == ":funcs":
            signatures = self.session.function_signatures()
            if not signatures:
                self._say("(no functions yet)")
            for signature in signatures:
                self._say(f"  {signature}")
            return True
        if stripped.startswith(":type "):
            self._say(self.session.static_type_of(stripped[len(":type "):]))
            return True
        if stripped.startswith(":load "):
            names = self.session.load_file(stripped[len(":load "):].strip())
            self._say(f"loaded: {', '.join(names) if names else '(nothing)'}")
            return True
        if stripped.startswith(":"):
            self._say(f"unknown command {stripped.split()[0]!r}; try :help")
            return True

        if (stripped.startswith("def ") or stripped.startswith("def\t")
                or stripped.startswith("class ")):
            names = self.session.define_functions(text)
            self._say(f"defined {', '.join(names)}")
            return True

        # Syntactically an expression? Evaluate and echo.  Otherwise run as
        # statements.  The classification is purely syntactic so a failing
        # expression is never re-executed as a statement.
        expr = self.session.try_parse_expression(text)
        if expr is not None:
            result = self.session.eval_expression(expr)
            if result is not None:
                self._say(result)
            return True
        self.session.run_statements(text)
        return True

    def loop(self) -> None:
        self._say("Tetra REPL — :help for commands, :quit to leave")
        while True:
            self.stdout.write(PROMPT)
            self.stdout.flush()
            line = self.stdin.readline()
            if not line:
                self._say()
                break
            text = line.rstrip("\n")
            if (text.strip().startswith("def ")
                    or text.strip().startswith("class ")
                    or ReplSession.needs_continuation(text)):
                text = self._read_block(text)
            try:
                if not self.handle(text):
                    break
            except TetraError as exc:
                self._say(f"! {exc.render()}")
            except OSError as exc:
                self._say(f"! {exc}")


def repl_main() -> None:
    """Entry point for ``tetra repl``."""
    Repl().loop()
