"""Token definitions for the Tetra language.

The token set covers everything the paper's grammar uses (Python-like
keywords, ``#`` comments, colon-and-indent blocks, the ``parallel`` /
``background`` / ``lock`` keywords) plus the extended standard-library
surface this reproduction implements from the paper's future-work list.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ..source import Span


class TokenType(enum.Enum):
    # Layout
    NEWLINE = "NEWLINE"
    INDENT = "INDENT"
    DEDENT = "DEDENT"
    EOF = "EOF"

    # Literals and names
    IDENT = "IDENT"
    INT = "INT"
    REAL = "REAL"
    STRING = "STRING"

    # Keywords
    KW_DEF = "def"
    KW_IF = "if"
    KW_ELIF = "elif"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_IN = "in"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_PASS = "pass"
    KW_AND = "and"
    KW_OR = "or"
    KW_NOT = "not"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_PARALLEL = "parallel"
    KW_BACKGROUND = "background"
    KW_LOCK = "lock"
    KW_TRY = "try"
    KW_CATCH = "catch"
    KW_CLASS = "class"
    KW_INT = "int"
    KW_REAL = "real"
    KW_STRING = "string"
    KW_BOOL = "bool"

    # Punctuation / operators
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    COLON = ":"
    DOT = "."
    ELLIPSIS = "..."
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    STARSTAR = "**"
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


#: Reserved words, mapped to their token type.  Type names are keywords so
#: that parameter declarations like ``x int`` parse unambiguously.
KEYWORDS: dict[str, TokenType] = {
    "def": TokenType.KW_DEF,
    "if": TokenType.KW_IF,
    "elif": TokenType.KW_ELIF,
    "else": TokenType.KW_ELSE,
    "while": TokenType.KW_WHILE,
    "for": TokenType.KW_FOR,
    "in": TokenType.KW_IN,
    "return": TokenType.KW_RETURN,
    "break": TokenType.KW_BREAK,
    "continue": TokenType.KW_CONTINUE,
    "pass": TokenType.KW_PASS,
    "and": TokenType.KW_AND,
    "or": TokenType.KW_OR,
    "not": TokenType.KW_NOT,
    "true": TokenType.KW_TRUE,
    "false": TokenType.KW_FALSE,
    "parallel": TokenType.KW_PARALLEL,
    "background": TokenType.KW_BACKGROUND,
    "lock": TokenType.KW_LOCK,
    "try": TokenType.KW_TRY,
    "catch": TokenType.KW_CATCH,
    "class": TokenType.KW_CLASS,
    "int": TokenType.KW_INT,
    "real": TokenType.KW_REAL,
    "string": TokenType.KW_STRING,
    "bool": TokenType.KW_BOOL,
}

#: Multi-character operators, longest first so the scanner can match greedily.
MULTI_CHAR_OPERATORS: list[tuple[str, TokenType]] = [
    ("...", TokenType.ELLIPSIS),
    ("**", TokenType.STARSTAR),
    ("==", TokenType.EQ),
    ("!=", TokenType.NE),
    ("<=", TokenType.LE),
    (">=", TokenType.GE),
    ("+=", TokenType.PLUS_ASSIGN),
    ("-=", TokenType.MINUS_ASSIGN),
    ("*=", TokenType.STAR_ASSIGN),
    ("/=", TokenType.SLASH_ASSIGN),
    ("%=", TokenType.PERCENT_ASSIGN),
]

SINGLE_CHAR_OPERATORS: dict[str, TokenType] = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    ",": TokenType.COMMA,
    ":": TokenType.COLON,
    ".": TokenType.DOT,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "=": TokenType.ASSIGN,
    "<": TokenType.LT,
    ">": TokenType.GT,
}

#: Token types that carry a semantic payload in ``Token.value``.
VALUE_TOKENS = frozenset({TokenType.IDENT, TokenType.INT, TokenType.REAL, TokenType.STRING})

#: Type-name keywords (useful to the parser and the syntax highlighter).
TYPE_KEYWORDS = frozenset({TokenType.KW_INT, TokenType.KW_REAL, TokenType.KW_STRING, TokenType.KW_BOOL})

#: Keywords that introduce parallel constructs (highlighted specially in the IDE).
PARALLEL_KEYWORDS = frozenset({TokenType.KW_PARALLEL, TokenType.KW_BACKGROUND, TokenType.KW_LOCK})


class Token(NamedTuple):
    """A single lexical token.

    ``text`` is the exact source slice; ``value`` is the decoded payload for
    literal tokens (``int`` for INT, ``float`` for REAL, the unescaped
    ``str`` for STRING, the name for IDENT) and ``None`` otherwise.  A
    named tuple rather than a dataclass: the scanner builds one per token,
    and a tuple costs about a third as much to build.
    """

    type: TokenType
    text: str
    span: Span
    value: object = None

    def is_keyword(self) -> bool:
        return self.type.name.startswith("KW_")

    def __repr__(self) -> str:  # compact, used heavily in test failures
        if self.value is not None:
            return f"Token({self.type.name}, {self.value!r}@{self.span})"
        return f"Token({self.type.name}@{self.span})"
