"""The Tetra scanner: one master regular expression plus the hand-written
indentation tracker.

Produces a flat token stream with explicit NEWLINE / INDENT / DEDENT layout
tokens, exactly the interface the recursive-descent parser consumes.  The
master pattern matches one token (or one run of skippable text) at a time
and the loop dispatches on the name of the group that matched; significant
whitespace is still handled by hand, by :class:`IndentTracker`.

Notable behaviours (all mirrored from the paper's description of Tetra or
standard Python-family lexing where the paper is silent):

* ``#`` starts a comment running to end of line.
* Blank and comment-only lines produce no tokens at all.
* Newlines inside parentheses or brackets are ignored (implicit joining),
  so long array literals and call argument lists can wrap.
* ``[1 ... 100]`` range literals: ``...`` is a single ELLIPSIS token, and a
  ``.`` directly following an integer is only consumed as a decimal point if
  a digit follows it (so ``[1...100]`` also lexes).
* String literals use double quotes with ``\\n \\t \\\\ \\"`` escapes.
* Identifiers and numbers are ASCII (LANGUAGE.md §1).  Any other character
  outside a string or comment is an ``unexpected character`` error.
"""

from __future__ import annotations

import re

from ..errors import TetraSyntaxError
from ..source import SourceFile, Span
from .indentation import IndentTracker
from .tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenType,
)

_STRING_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    '"': '"',
    "'": "'",
}

#: Blank and comment-only lines.  A comment is consumed here only together
#: with its newline, so a comment on the file's last line is left to the
#: main loop and never counts as a line of code.
_BLANK_LINES = r"(?:[ \t]*(?:#[^\n]*\n|[\r\n])[\r\n]*)*"

#: Skipped blank lines, then the indentation prefix of the next line.
_LINE_START = re.compile(_BLANK_LINES + r"(?P<PREFIX>[ \t]*)")

_OPERATORS = dict(MULTI_CHAR_OPERATORS, **SINGLE_CHAR_OPERATORS)

#: One token, after any spaces before it.  Folding the spaces into the
#: token's own match halves the number of matches per line.
_TOKEN = re.compile(r"[ \t\r]*(?:" + "|".join(
    f"(?P<{name}>{pattern})" for name, pattern in (
        ("NAME", r"[A-Za-z_][A-Za-z0-9_]*"),
        # Longest first: MULTI_CHAR_OPERATORS is ordered for greedy matching.
        ("OP", "|".join(re.escape(text) for text, _ in MULTI_CHAR_OPERATORS)
         + "|[" + re.escape("".join(SINGLE_CHAR_OPERATORS)) + "]"),
        ("NEWLINE", r"\n" + _LINE_START.pattern),
        ("REAL", r"[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"),
        ("INT", r"[0-9]+"),
        ("STRING", r'"[^"\\\n]*(?:\\[' + re.escape("".join(_STRING_ESCAPES))
         + r'][^"\\\n]*)*"'),
        # A comment, or the end of the file after trailing spaces.
        ("SKIP", r"#[^\n]*|\Z"),
        # An unexpected character, or the quote of a malformed string.
        ("BAD", r"[\s\S]"),
    )) + ")")

_ESCAPE = re.compile(r"\\(.)")

_OPENERS = frozenset({TokenType.LPAREN, TokenType.LBRACKET, TokenType.LBRACE})
_CLOSERS = frozenset({TokenType.RPAREN, TokenType.RBRACKET, TokenType.RBRACE})
_LAYOUT = frozenset({TokenType.NEWLINE, TokenType.INDENT, TokenType.DEDENT})


class Scanner:
    """Single-pass scanner over one :class:`SourceFile`."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.text = source.text
        self.indent = IndentTracker()
        self.tokens: list[Token] = []

    def scan(self) -> list[Token]:
        """Tokenize the whole file, returning the token list ending in EOF."""
        text = self.text
        n = len(text)
        tokens = self.tokens
        append = tokens.append
        match = _TOKEN.match
        ident, int_, real, string = (TokenType.IDENT, TokenType.INT,
                                     TokenType.REAL, TokenType.STRING)
        # ``line`` is the 1-based line of ``pos``; ``bol`` the offset that
        # line begins at, so a token at ``pos`` starts in column
        # ``pos - bol + 1``.
        first = _LINE_START.match(text)
        line, bol = self._line_start(first, 1, 0)
        pos = first.end()
        depth = 0
        while pos < n:
            m = match(text, pos)
            kind = m.lastgroup
            start, pos = m.span(kind)
            if kind == "NAME":
                word = text[start:pos]
                span = Span(start, pos, line, start - bol + 1)
                kw = KEYWORDS.get(word)
                if kw is None:
                    append(Token(ident, word, span, word))
                else:
                    append(Token(kw, word, span))
            elif kind == "OP":
                op = text[start:pos]
                type_ = _OPERATORS[op]
                if type_ in _OPENERS:
                    depth += 1
                elif type_ in _CLOSERS and depth:
                    depth -= 1
                append(Token(type_, op, Span(start, pos, line, start - bol + 1)))
            elif kind == "NEWLINE":
                if depth:
                    # Implicit line joining: only the position moves.
                    line += text.count("\n", start, pos)
                    bol = text.rfind("\n", start, pos) + 1
                else:
                    # Runs of newlines collapse into one NEWLINE token.
                    if tokens and tokens[-1].type not in _LAYOUT:
                        append(Token(TokenType.NEWLINE, "\n", Span(
                            start, start + 1, line, start - bol + 1)))
                    line, bol = self._line_start(m, line + 1, start + 1)
            elif kind == "INT":
                digits = text[start:pos]
                append(Token(int_, digits,
                             Span(start, pos, line, start - bol + 1),
                             int(digits)))
            elif kind == "REAL":
                digits = text[start:pos]
                append(Token(real, digits,
                             Span(start, pos, line, start - bol + 1),
                             float(digits)))
            elif kind == "STRING":
                literal = text[start:pos]
                body = literal[1:-1]
                if "\\" in body:
                    body = _ESCAPE.sub(lambda e: _STRING_ESCAPES[e.group(1)],
                                       body)
                append(Token(string, literal,
                             Span(start, pos, line, start - bol + 1), body))
            elif kind == "BAD":
                raise self._bad(start, line, bol)
        self._finish(Span(n, n, line, n - bol + 1))
        return tokens

    # ------------------------------------------------------------------
    # Line structure
    # ------------------------------------------------------------------
    def _line_start(self, m: re.Match, line: int, bol: int) -> tuple[int, int]:
        """Skip the blank lines ``m`` matched and emit the INDENT / DEDENT
        tokens for the logical line after them.  ``line`` and ``bol``
        describe the position where the blank lines begin; returns them
        for the position where ``m`` ends."""
        text = self.text
        start, end = m.start("PREFIX"), m.end()
        count = text.count("\n", bol, start)
        if count:
            line += count
            bol = text.rfind("\n", bol, start) + 1
        # The whole file is blank from here, or only a final comment is
        # left: no logical line starts, so indentation means nothing.
        if end < len(text) and text[end] != "#":
            span = Span(start, end, line, start - bol + 1)
            indents, dedents = self.indent.transition(text[start:end], span)
            for _ in range(indents):
                self._emit(TokenType.INDENT, span)
            for _ in range(dedents):
                self._emit(TokenType.DEDENT, span)
        return line, bol

    def _emit(self, type_: TokenType, span: Span) -> None:
        self.tokens.append(Token(type_, self.text[span.start : span.end], span))

    def _finish(self, end_span: Span) -> None:
        if self.tokens and self.tokens[-1].type not in _LAYOUT:
            self._emit(TokenType.NEWLINE, end_span)
        for _ in range(self.indent.close()):
            self._emit(TokenType.DEDENT, end_span)
        self._emit(TokenType.EOF, end_span)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def _bad(self, pos: int, line: int, bol: int) -> TetraSyntaxError:
        """The diagnostic for the character at ``pos``, which no token
        matched: a malformed string literal or an unexpected character."""
        text = self.text
        if text[pos] != '"':
            span = Span(pos, pos + 1, line, pos - bol + 1)
            return self._error(f"unexpected character {text[pos]!r}", span)
        column = pos - bol + 1
        i = pos + 1
        while True:
            ch = text[i : i + 1]
            if ch == "":
                return self._error("unterminated string literal",
                                   Span(pos, i, line, column))
            if ch == "\n":
                return self._error(
                    "newline inside string literal (close the quote)",
                    Span(pos, i, line, column))
            if ch == "\\":
                esc = text[i + 1 : i + 2]
                if esc not in _STRING_ESCAPES:
                    return self._error(
                        f"unknown escape sequence '\\{esc}'",
                        Span(i + 1, i + 2, line, i + 1 - bol + 1))
                i += 1
            i += 1

    def _error(self, message: str, span: Span) -> TetraSyntaxError:
        return TetraSyntaxError(message, span).attach_source(self.source)


def tokenize(source: SourceFile | str, name: str = "<string>") -> list[Token]:
    """Tokenize Tetra source text (convenience wrapper around Scanner)."""
    if isinstance(source, str):
        source = SourceFile.from_string(source, name)
    return Scanner(source).scan()
