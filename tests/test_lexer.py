"""Unit tests for the hand-written, indentation-aware scanner."""

import pytest

from repro.errors import TetraIndentationError, TetraSyntaxError
from repro.lexer import TokenType, tokenize
from repro.lexer.indentation import IndentTracker, indent_width
from repro.source import Span

TT = TokenType


def types(text):
    return [t.type for t in tokenize(text)]


def non_layout(text):
    layout = {TT.NEWLINE, TT.INDENT, TT.DEDENT, TT.EOF}
    return [t for t in tokenize(text) if t.type not in layout]


class TestBasicTokens:
    def test_empty_input(self):
        assert types("") == [TT.EOF]

    def test_single_identifier(self):
        toks = tokenize("hello\n")
        assert toks[0].type is TT.IDENT
        assert toks[0].value == "hello"

    def test_identifier_with_underscore_and_digits(self):
        toks = non_layout("read_int2")
        assert toks[0].value == "read_int2"

    def test_keywords_are_not_identifiers(self):
        toks = non_layout("while parallel lock def")
        assert [t.type for t in toks] == [
            TT.KW_WHILE, TT.KW_PARALLEL, TT.KW_LOCK, TT.KW_DEF
        ]

    def test_keyword_prefix_is_identifier(self):
        # 'iffy' starts with 'if' but is a plain identifier.
        toks = non_layout("iffy")
        assert toks[0].type is TT.IDENT

    def test_true_false_are_keywords(self):
        toks = non_layout("true false")
        assert [t.type for t in toks] == [TT.KW_TRUE, TT.KW_FALSE]

    def test_all_operators(self):
        text = "+ - * / % ** == != < <= > >= = += -= *= /= %="
        expected = [
            TT.PLUS, TT.MINUS, TT.STAR, TT.SLASH, TT.PERCENT, TT.STARSTAR,
            TT.EQ, TT.NE, TT.LT, TT.LE, TT.GT, TT.GE, TT.ASSIGN,
            TT.PLUS_ASSIGN, TT.MINUS_ASSIGN, TT.STAR_ASSIGN,
            TT.SLASH_ASSIGN, TT.PERCENT_ASSIGN,
        ]
        assert [t.type for t in non_layout(text)] == expected

    def test_unexpected_character(self):
        with pytest.raises(TetraSyntaxError, match="unexpected character"):
            tokenize("x = 1 @ 2")

    @pytest.mark.parametrize("text, column", [
        ("x = 2²\n", 6),  # '²'.isdigit() is true; int('2²') raised ValueError
        ("x = ٣\n", 5),   # an Arabic-Indic digit
        ("é = 1\n", 1),
        ("x² = 1\n", 2),
    ])
    def test_non_ascii_outside_strings_is_unexpected_character(self, text,
                                                               column):
        # LANGUAGE.md §1: identifiers and numbers are ASCII.
        with pytest.raises(TetraSyntaxError,
                           match="unexpected character") as info:
            tokenize(text)
        span = info.value.span
        assert (span.line, span.column, span.end - span.start) == (1, column, 1)

    def test_non_ascii_in_strings_and_comments_is_text(self):
        toks = non_layout('s = "2² é"  # ² é\n')
        assert toks[-1].value == "2² é"


class TestNumbers:
    def test_integer(self):
        tok = non_layout("42")[0]
        assert tok.type is TT.INT
        assert tok.value == 42

    def test_real_with_decimal_point(self):
        tok = non_layout("3.25")[0]
        assert tok.type is TT.REAL
        assert tok.value == 3.25

    def test_real_with_exponent(self):
        tok = non_layout("1e3")[0]
        assert tok.type is TT.REAL
        assert tok.value == 1000.0

    def test_real_with_signed_exponent(self):
        tok = non_layout("2.5e-2")[0]
        assert tok.value == 0.025

    def test_int_then_ellipsis_is_not_a_real(self):
        # [1...100]: the dots belong to the range, not the number.
        toks = non_layout("[1...100]")
        assert [t.type for t in toks] == [
            TT.LBRACKET, TT.INT, TT.ELLIPSIS, TT.INT, TT.RBRACKET
        ]

    def test_spaced_ellipsis(self):
        toks = non_layout("[1 ... 100]")
        assert TT.ELLIPSIS in [t.type for t in toks]

    def test_member_dot_tokenizes(self):
        # '.' is the member-access operator (class extension); it must not
        # be confused with a decimal point or the '...' range ellipsis.
        toks = non_layout("a.b")
        assert [t.type for t in toks] == [TT.IDENT, TT.DOT, TT.IDENT]


class TestStrings:
    def test_simple_string(self):
        tok = non_layout('"hello"')[0]
        assert tok.type is TT.STRING
        assert tok.value == "hello"

    def test_escapes(self):
        tok = non_layout(r'"a\nb\tc\\d\"e"')[0]
        assert tok.value == 'a\nb\tc\\d"e'

    def test_unknown_escape_is_error(self):
        with pytest.raises(TetraSyntaxError, match="unknown escape"):
            tokenize(r'"\q"')

    def test_unterminated_string(self):
        with pytest.raises(TetraSyntaxError, match="unterminated"):
            tokenize('"never ends')

    def test_newline_in_string(self):
        with pytest.raises(TetraSyntaxError, match="newline inside string"):
            tokenize('"broken\n"')

    def test_empty_string(self):
        assert non_layout('""')[0].value == ""

    def test_hash_inside_string_is_not_comment(self):
        tok = non_layout('"a # b"')[0]
        assert tok.value == "a # b"


class TestCommentsAndLayout:
    def test_comment_to_end_of_line(self):
        toks = non_layout("x = 1  # the answer\n")
        assert [t.type for t in toks] == [TT.IDENT, TT.ASSIGN, TT.INT]

    def test_comment_only_line_produces_nothing(self):
        assert types("# nothing here\n") == [TT.EOF]

    def test_blank_lines_are_skipped(self):
        text = "a = 1\n\n\nb = 2\n"
        newlines = [t for t in tokenize(text) if t.type is TT.NEWLINE]
        assert len(newlines) == 2

    def test_indent_dedent_pairing(self):
        text = "def f():\n    x = 1\n"
        ts = types(text)
        assert ts.count(TT.INDENT) == ts.count(TT.DEDENT) == 1

    def test_nested_blocks(self):
        text = (
            "def f():\n"
            "    if x:\n"
            "        y = 1\n"
            "    z = 2\n"
        )
        ts = types(text)
        assert ts.count(TT.INDENT) == 2
        assert ts.count(TT.DEDENT) == 2

    def test_dedent_to_unknown_level(self):
        text = "def f():\n        x = 1\n    y = 2\n"
        with pytest.raises(TetraIndentationError, match="unindent"):
            tokenize(text)

    def test_mixed_tabs_and_spaces_rejected(self):
        text = "def f():\n    x = 1\n\ty = 2\n"
        with pytest.raises(TetraIndentationError, match="mixes tabs"):
            tokenize(text)

    def test_all_tabs_is_fine(self):
        text = "def f():\n\tx = 1\n"
        assert TT.INDENT in types(text)

    def test_newlines_inside_brackets_are_joined(self):
        text = "x = [1,\n     2,\n     3]\n"
        newlines = [t for t in tokenize(text) if t.type is TT.NEWLINE]
        assert len(newlines) == 1

    def test_newlines_inside_parens_are_joined(self):
        text = "y = f(1,\n      2)\n"
        newlines = [t for t in tokenize(text) if t.type is TT.NEWLINE]
        assert len(newlines) == 1

    def test_eof_closes_open_blocks(self):
        text = "def f():\n    x = 1"  # no trailing newline
        ts = types(text)
        assert ts[-1] is TT.EOF
        assert ts.count(TT.DEDENT) == 1
        # A NEWLINE is synthesized before the dedents.
        assert TT.NEWLINE in ts

    def test_crlf_line_endings(self):
        text = "x = 1\r\ny = 2\r\n"
        toks = non_layout(text)
        assert len(toks) == 6


class TestSpans:
    def test_token_spans_point_into_source(self):
        text = "alpha = 42\n"
        toks = non_layout(text)
        for tok in toks:
            assert text[tok.span.start:tok.span.end] == tok.text

    def test_line_and_column_one_based(self):
        toks = non_layout("a\nbb\n")
        assert (toks[0].span.line, toks[0].span.column) == (1, 1)
        assert (toks[1].span.line, toks[1].span.column) == (2, 1)


class TestIndentTracker:
    def test_indent_width_spaces(self):
        assert indent_width("    ") == 4

    def test_indent_width_tab_stops(self):
        assert indent_width("\t") == 8
        assert indent_width("  \t") == 8  # tab advances to the next stop
        assert indent_width("\t ") == 9

    def test_transition_counts(self):
        tracker = IndentTracker()
        span = Span(0, 0, 1, 1)
        assert tracker.transition("    ", span) == (1, 0)
        assert tracker.transition("        ", span) == (1, 0)
        assert tracker.transition("", span) == (0, 2)

    def test_close_returns_open_depth(self):
        tracker = IndentTracker()
        span = Span(0, 0, 1, 1)
        tracker.transition("  ", span)
        tracker.transition("    ", span)
        assert tracker.close() == 2
