"""Lexical analysis for Tetra: a master regex and a hand-written indent tracker.

Public surface:

* :func:`tokenize` — source text → token list.
* :class:`Scanner` — the stateful scanner, for callers that need spans
  relative to an existing :class:`~repro.source.SourceFile`.
* :class:`Token` / :class:`TokenType` — the token vocabulary.
"""

from .indentation import IndentTracker, indent_width
from .scanner import Scanner, tokenize
from .tokens import (
    KEYWORDS,
    PARALLEL_KEYWORDS,
    TYPE_KEYWORDS,
    Token,
    TokenType,
)

__all__ = [
    "IndentTracker",
    "indent_width",
    "Scanner",
    "tokenize",
    "KEYWORDS",
    "PARALLEL_KEYWORDS",
    "TYPE_KEYWORDS",
    "Token",
    "TokenType",
]
