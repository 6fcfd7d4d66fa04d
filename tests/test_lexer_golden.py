"""Golden token streams: the scanner's exact output, pinned.

``tests/data/lexer_golden.json`` holds one row per token — type, text,
span (start, end, line, column) and value — for every bundled
``examples/tetra/*.ttr`` file, every :data:`repro.programs.ALL_PROGRAMS`
listing and the targeted sources in :data:`CASES` below.  Cases that must
fail record the diagnostic instead: error class, message and span.  Any
change to a token or a diagnostic, however small, fails here.

The fixture was recorded from the character-at-a-time scanner that the
regex scanner replaced.  Regenerate it only for a deliberate change to the
token stream::

    PYTHONPATH=src python tests/test_lexer_golden.py --write
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

from repro.errors import TetraError
from repro.lexer import tokenize
from repro.programs import ALL_PROGRAMS

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "data" / "lexer_golden.json"

#: Targeted sources for behaviour the bundled programs never exercise.
CASES: dict[str, str] = {
    "crlf": "def main():\r\n    x = 1\r\n\r\n    print(x)\r\n",
    "lone_cr": "x = 1\r  y = 2\n  \rz = 3\n",
    "tabs": "def main():\n\tif true:\n\t\tprint(1)\n\n\tprint(2)\n",
    "tab_after_spaces": "def main():\n  \tx = 1\n",
    "comment_and_blank_lines_at_depths": (
        "# header\n"
        "\n"
        "def main():\n"
        "    x = 1\n"
        "\n"
        "        # deeper comment\n"
        "  # shallower comment\n"
        "    \n"
        "    if x > 0:\n"
        "        \n"
        "        print(x)  # trailing comment\n"
        "            \n"
        "# column-one comment\n"
        "    print(2)\n"
        "\n"
        "\n"
        "# last comment"
    ),
    "eof_inside_blocks": "def main():\n    if true:\n        print(1)",
    "eof_after_blank_indent": "x = 1\n    ",
    "eof_after_indented_comment": "x = 1\n    # done",
    "brackets_span_lines": (
        "def main():\n"
        "    xs = [1,\n"
        "  2,   # a note\n"
        "\n"
        "        3]\n"
        "    print(f(xs,\n"
        "            (1 +\n"
        "2)), {\"a\":\n"
        "   1})\n"
    ),
    "unbalanced_close": "x = 1)\ny = (2\n",
    "ranges_and_reals": (
        "a = [1...5]\n"
        "b = [1 ... 5]\n"
        "c = 1.5e-3 + 2.5E+2 + 1e3 + 7e + 8e+ + 3. + .5\n"
        "d = a.b..c\n"
        "e = 12abc + 0009 + 1.2.3\n"
    ),
    "operators": "+ - * / % ** == != < <= > >= = += -= *= /= %= ... . , : ( ) [ ] { }\n",
    "keywords_and_names": "if iffy _x x_1 true falsey int real string bool lock locked\n",
    "escapes": (
        'x = "\\n\\t\\r\\0\\\\\\"\\\'" + "" + "a # b" + "tab\there"\n'
    ),
    "non_ascii_in_strings_and_comments": 'x = "héllo ²"  # ünïcode ²\n',
    "bad_escape": 'x = "ab\\q"\n',
    "bad_escape_at_eof": 'x = "ab\\',
    "bad_escape_newline": 'x = "ab\\\ncd"\n',
    "unterminated_string": 'def main():\n    x = "never ends',
    "newline_in_string": 'x = 1\ny = "broken\n"\n',
    "string_across_crlf": 'x = "broken\r\n"\n',
    "unexpected_character": "x = 1 @ 2\n",
    "unexpected_backslash": "x = 1 + \\\n 2\n",
    "unexpected_form_feed": "x = 1\n\fy = 2\n",
    "unindent_mismatch": "def f():\n        x = 1\n    y = 2\n",
    "mixed_tabs_and_spaces": "def f():\n    x = 1\n\ty = 2\n",
}


def _rows(text: str) -> dict:
    """The scanner's output for ``text`` in fixture form."""
    try:
        tokens = tokenize(text)
    except TetraError as exc:
        span = exc.span
        return {"error": [type(exc).__name__, exc.message,
                          span.start, span.end, span.line, span.column]}
    return {"tokens": [
        [tok.type.name, tok.text, tok.span.start, tok.span.end,
         tok.span.line, tok.span.column, tok.value]
        for tok in tokens
    ]}


@functools.cache
def sources() -> dict[str, str]:
    """Every source the fixture covers, by a stable name."""
    out = {}
    for path in sorted((ROOT / "examples" / "tetra").glob("*.ttr")):
        out[f"examples/tetra/{path.name}"] = path.read_text(encoding="utf-8")
    for name, text in ALL_PROGRAMS.items():
        out[f"programs/{name}"] = text
    for name, text in CASES.items():
        out[f"cases/{name}"] = text
    return out


@functools.cache
def _load() -> dict:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(sources()))
def test_token_stream_matches_golden(name):
    assert _rows(sources()[name]) == _load()[name]


def test_fixture_covers_every_source():
    assert sorted(_load()) == sorted(sources())


def _write() -> None:
    golden = {name: _rows(text) for name, text in sorted(sources().items())}
    FIXTURE.parent.mkdir(exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        # One token per line keeps diffs of the fixture reviewable.
        handle.write("{\n")
        for i, (name, rows) in enumerate(golden.items()):
            ((key, items),) = rows.items()
            handle.write(f"{json.dumps(name)}: {{{json.dumps(key)}: ")
            if key == "error":
                handle.write(json.dumps(items, ensure_ascii=False))
            else:
                handle.write("[\n")
                handle.write(",\n".join(
                    "  " + json.dumps(row, ensure_ascii=False) for row in items))
                handle.write("\n]")
            handle.write("}" + (",\n" if i < len(golden) - 1 else "\n"))
        handle.write("}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_lexer_golden.py --write")
    _write()
