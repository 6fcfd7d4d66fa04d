"""IDE substrate tests: highlighting, sessions, and the TUI debugger."""

import io
import textwrap

import pytest

from repro.ide.highlight import Style, highlight, render_ansi
from repro.ide.session import IDESession
from repro.ide.tui import DebuggerTUI
from repro.programs import FIGURE_1_FACTORIAL, FIGURE_3_PARALLEL_MAX


def styles_of(text, style):
    return [s.text for s in highlight(text) if s.style is style]


class TestHighlight:
    def test_keywords(self):
        spans = styles_of("def f():\n    return 1\n", Style.KEYWORD)
        assert "def" in spans and "return" in spans

    def test_parallel_keywords_special_style(self):
        text = FIGURE_3_PARALLEL_MAX
        special = styles_of(text, Style.PARALLEL_KEYWORD)
        assert "parallel" in special
        assert "lock" in special

    def test_type_keywords(self):
        spans = styles_of("def f(x int) real:\n    return 1.0\n", Style.TYPE)
        assert spans == ["int", "real"]

    def test_numbers_and_strings(self):
        text = 'def main():\n    print("hi", 42, 1.5)\n'
        assert '"hi"' in styles_of(text, Style.STRING)
        numbers = styles_of(text, Style.NUMBER)
        assert "42" in numbers and "1.5" in numbers

    def test_comments_recovered(self):
        text = "# leading comment\ndef main():\n    x = 1  # trailing\n"
        comments = styles_of(text, Style.COMMENT)
        assert "# leading comment" in comments
        assert "# trailing" in comments

    def test_hash_in_string_not_comment(self):
        text = 'def main():\n    s = "a # b"\n'
        assert styles_of(text, Style.COMMENT) == []
        assert '"a # b"' in styles_of(text, Style.STRING)

    def test_function_names_styled(self):
        text = "def main():\n    helper(1)\n"
        assert "helper" in styles_of(text, Style.FUNCTION)

    def test_spans_sorted_non_overlapping(self):
        spans = highlight(FIGURE_1_FACTORIAL)
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start

    def test_broken_source_still_highlights_comments(self):
        text = "# fine\ndef broken(((\n"
        assert "# fine" in styles_of(text, Style.COMMENT)

    def test_non_ascii_digit_still_highlights_comments(self):
        # '²'.isdigit() is true; the scanner once passed it to int(), and
        # the ValueError escaped the highlighter's TetraError handler.
        text = "# fine\nx = 2²\n"
        assert "# fine" in styles_of(text, Style.COMMENT)

    def test_render_ansi_roundtrip_text(self):
        text = FIGURE_1_FACTORIAL
        rendered = render_ansi(text)
        # Stripping escape codes must give back the original text.
        import re

        stripped = re.sub(r"\x1b\[[0-9;]*m", "", rendered)
        assert stripped == text

    def test_render_contains_color_codes(self):
        assert "\x1b[" in render_ansi("def main():\n    pass\n")


class TestIDESession:
    def test_run_captures_console(self):
        session = IDESession('def main():\n    print("out")\n')
        output = session.run()
        assert output == "out\n"
        assert session.console.output == "out\n"

    def test_run_with_inputs(self):
        session = IDESession(FIGURE_1_FACTORIAL)
        output = session.run(inputs=["5"])
        assert "120" in output

    def test_runtime_error_rendered_to_console(self):
        session = IDESession("def main():\n    print([1][9])\n")
        output = session.run()
        assert "index error" in output
        assert "out of range" in output

    def test_compile_error_rendered_to_console(self):
        session = IDESession("def main():\n    x = nope\n")
        output = session.run()
        assert "name error" in output

    def test_diagnostics_list(self):
        session = IDESession("def main():\n    a = one\n    b = two\n")
        diags = session.diagnostics()
        assert len(diags) == 2
        assert diags[0].line == 2
        assert diags[1].line == 3

    def test_clean_program_no_diagnostics(self):
        assert IDESession(FIGURE_1_FACTORIAL).diagnostics() == []

    def test_save_and_open(self, tmp_path):
        path = str(tmp_path / "prog.ttr")
        session = IDESession("def main():\n    pass\n")
        session.save(path)
        again = IDESession.open(path)
        assert again.text == session.text
        assert again.path == path

    def test_save_without_path_rejected(self):
        with pytest.raises(ValueError):
            IDESession("x").save()

    def test_set_text(self):
        session = IDESession("old")
        session.set_text("new")
        assert session.text == "new"

    def test_debug_returns_started_session(self):
        session = IDESession("def main():\n    x = 1\n")
        dbg = session.debug()
        assert not dbg.finished
        dbg.continue_all()
        assert dbg.finished


class TestDebuggerTUI:
    def drive(self, program, commands):
        stdin = io.StringIO("\n".join(commands) + "\n")
        stdout = io.StringIO()
        tui = DebuggerTUI(textwrap.dedent(program), stdin=stdin, stdout=stdout)
        tui.repl()
        return stdout.getvalue()

    SIMPLE = """
    def main():
        x = 1
        y = 2
        print(x + y)
    """

    def test_threads_and_quit(self):
        out = self.drive(self.SIMPLE, ["threads", "quit"])
        assert "main thread" in out
        assert "paused" in out

    def test_step_and_vars(self):
        out = self.drive(self.SIMPLE, ["step 1", "vars 1", "quit"])
        assert "x = 1" in out

    def test_view_shows_arrow(self):
        out = self.drive(self.SIMPLE, ["view 1", "quit"])
        assert "->" in out
        assert "x = 1" in out

    def test_print_expression(self):
        out = self.drive(self.SIMPLE, ["step 1", "step 1", "print 1 x + y",
                                       "quit"])
        assert "x + y = 3" in out

    def test_continue_runs_to_end(self):
        out = self.drive(self.SIMPLE, ["continue"])
        assert "program finished" in out
        assert "| 3" in out

    def test_breakpoint_flow(self):
        out = self.drive(self.SIMPLE, ["break 5", "continue", "threads",
                                       "delete 5", "continue"])
        assert "breakpoint at line 5" in out
        assert "stopped at a breakpoint" in out
        assert "program finished" in out

    def test_bt_command(self):
        program = """
        def work() int:
            return 1

        def main():
            print(work())
        """
        out = self.drive(program, ["step 1", "bt 1", "quit"])
        assert "#0 work" in out or "#0 main" in out

    def test_unknown_command(self):
        out = self.drive(self.SIMPLE, ["frobnicate", "quit"])
        assert "unknown command" in out

    def test_help(self):
        out = self.drive(self.SIMPLE, ["help", "quit"])
        assert "step <t>" in out

    def test_locks_command(self):
        program = """
        def main():
            lock gate:
                x = 1
        """
        out = self.drive(program, ["step 1", "locks", "quit"])
        assert "lock 'gate' held by" in out

    def test_output_command_empty(self):
        out = self.drive(self.SIMPLE, ["output", "quit"])
        assert "(no output yet)" in out

    def test_run_thread_command(self):
        out = self.drive(self.SIMPLE, ["run 1"])
        assert "program finished" in out
