"""CLI tests: every ``tetra`` subcommand end to end."""

import pytest

from repro.tools.cli import main
from repro.programs import (
    FIGURE_1_FACTORIAL,
    FIGURE_2_PARALLEL_SUM,
    FIGURE_3_PARALLEL_MAX,
)


def example(name: str) -> str:
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    return str(root / "examples" / "tetra" / name)


@pytest.fixture
def prog(tmp_path):
    def write(text, name="prog.ttr"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestRun:
    def test_run_program(self, prog, capsys):
        assert main(["run", prog(FIGURE_2_PARALLEL_SUM)]) == 0
        assert capsys.readouterr().out == "5050\n"

    def test_run_backend_choice(self, prog, capsys):
        for backend in ("thread", "sequential", "coop", "sim"):
            assert main(["run", prog(FIGURE_3_PARALLEL_MAX),
                         "--backend", backend]) == 0
            assert capsys.readouterr().out == "96\n"

    def test_run_with_workers_and_chunking(self, prog, capsys):
        path = prog(
            "def main():\n"
            "    t = 0\n"
            "    parallel for i in [1 ... 10]:\n"
            "        lock t:\n"
            "            t += i\n"
            "    print(t)\n"
        )
        assert main(["run", path, "--workers", "3",
                     "--chunking", "cyclic"]) == 0
        assert capsys.readouterr().out == "55\n"

    def test_run_reports_type_error(self, prog, capsys):
        assert main(["run", prog("def main():\n    x = missing\n")]) == 1
        err = capsys.readouterr().err
        assert "name error" in err
        assert "missing" in err

    def test_run_reports_runtime_error_with_caret(self, prog, capsys):
        assert main(["run", prog("def main():\n    print([1][7])\n")]) == 1
        err = capsys.readouterr().err
        assert "index error" in err
        assert "^" in err

    def test_detect_races_reports_race(self, capsys):
        code = main(["run", example("race_demo.ttr"),
                     "--detect-races", "--workers", "4"])
        captured = capsys.readouterr()
        assert code == 3
        assert "data race on 'largest'" in captured.err
        assert "race_demo.ttr:" in captured.err  # file:line anchors
        assert "write by" in captured.err and "read by" in captured.err

    def test_detect_races_quiet_on_locked_program(self, capsys):
        code = main(["run", example("bank_account.ttr"),
                     "--detect-races", "--workers", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "no data races" in captured.err

    def test_detect_races_deterministic_on_coop(self, capsys):
        reports = set()
        for _ in range(10):
            main(["run", example("race_demo.ttr"), "--detect-races",
                  "--backend", "coop", "--workers", "4"])
            err = capsys.readouterr().err
            reports.add("\n".join(
                line for line in err.splitlines() if "data race" in line
            ))
        assert len(reports) == 1

    def test_no_flag_no_panel(self, prog, capsys):
        assert main(["run", prog(FIGURE_2_PARALLEL_SUM)]) == 0
        assert "race detector" not in capsys.readouterr().err

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "/nonexistent/prog.ttr"])


class TestCheck:
    def test_clean_program(self, prog, capsys):
        assert main(["check", prog(FIGURE_1_FACTORIAL)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_reports_all_errors(self, prog, capsys):
        path = prog("def main():\n    a = one\n    b = two\n")
        assert main(["check", path]) == 1
        err = capsys.readouterr().err
        assert "2 errors" in err

    def test_syntax_error(self, prog, capsys):
        assert main(["check", prog("def broken(:\n")]) == 1
        assert "syntax error" in capsys.readouterr().err


class TestToolCommands:
    def test_tokens(self, prog, capsys):
        assert main(["tokens", prog("def main():\n    x = 42\n")]) == 0
        out = capsys.readouterr().out
        assert "KW_DEF" in out
        assert "INT 42" in out

    def test_tokens_lex_error(self, prog, capsys):
        assert main(["tokens", prog("def main():\n    x = @\n")]) == 1

    def test_ast(self, prog, capsys):
        assert main(["ast", prog(FIGURE_1_FACTORIAL)]) == 0
        out = capsys.readouterr().out
        assert "FunctionDef" in out
        assert "name='fact'" in out

    def test_ast_with_spans(self, prog, capsys):
        assert main(["ast", prog("def f():\n    pass\n"), "--spans"]) == 0
        assert "@1:" in capsys.readouterr().out

    def test_ast_parse_error(self, prog, capsys):
        assert main(["ast", prog("def broken(:\n")]) == 1

    def test_compile_to_stdout(self, prog, capsys):
        assert main(["compile", prog(FIGURE_1_FACTORIAL)]) == 0
        out = capsys.readouterr().out
        assert "int64_t tt_fn_fact(" in out
        assert ("/* line 9: stays on the fast path: 'main': calls 'print', "
                "which is not lowered */") in out

    def test_compile_names_a_lowered_parallel_for(self, capsys):
        # count_primes stays on the fast path, but its loop is a kernel.
        assert main(["compile", example("primes_2000.ttr")]) == 0
        out = capsys.readouterr().out
        assert ("/* line 15: stays on the fast path: 'count_primes': its "
                "parallel for at line 17 is lowered on its own (tt_pf0) */"
                ) in out
        assert "tt_pf0_run" in out
        assert "ParallelFor" not in out

    def test_compile_names_a_parallel_for_left_unlowered(self, prog, capsys):
        text = ("def show(n int):\n"
                "    parallel for i in [1 ... n]:\n"
                "        print(i)\n\n"
                "def main():\n    show(3)\n")
        assert main(["compile", prog(text)]) == 0
        out = capsys.readouterr().out
        assert ("/* line 1: stays on the fast path: 'show': its parallel "
                "for at line 2 is not lowered */") in out
        assert "tt_pf0" not in out

    def test_compile_to_file_runs(self, prog, tmp_path, capsys):
        from repro.compiler.native import find_compiler

        out_path = str(tmp_path / "fact.c")
        assert main(["compile", prog(FIGURE_1_FACTORIAL),
                     "-o", out_path]) == 0
        assert capsys.readouterr().out == f"wrote {out_path}\n"
        cc = find_compiler()
        if cc is None:
            pytest.skip("no C compiler on this machine")
        import subprocess

        result = subprocess.run(
            [cc, "-shared", "-fPIC", "-o", str(tmp_path / "fact.so"),
             out_path, "-lpthread", "-lm"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr

    def test_highlight(self, prog, capsys):
        assert main(["highlight", prog(FIGURE_3_PARALLEL_MAX)]) == 0
        out = capsys.readouterr().out
        assert "\x1b[" in out
        assert "parallel" in out

    def test_builtins_listing(self, capsys):
        assert main(["builtins"]) == 0
        out = capsys.readouterr().out
        assert "[math]" in out
        assert "sqrt" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "tetra" in capsys.readouterr().out
