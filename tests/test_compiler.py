"""Compiler tests: the C that ``tetra compile`` prints, and the native tier
against the fast path.

``TestGeneratedCode`` reads :func:`repro.compiler.native.lower_program`'s
C source, which needs no toolchain.  The differentials run each program on
the fast path and with ``native="auto"``, which runs the C tier where a
compiler and cffi are present; both must print the pinned output.
"""

import textwrap

import pytest

from repro.api import compile_source, run_source
from repro.compiler.native import lower_program
from repro.errors import TetraDeadlockError, TetraIndexError, exit_code_for
from repro.programs import ALL_PROGRAMS
from repro.runtime import RuntimeConfig


@pytest.fixture(autouse=True, scope="module")
def native_cache(tmp_path_factory):
    """Build this module's shared objects in a private artifact cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TETRA_NATIVE_CACHE",
                     str(tmp_path_factory.mktemp("native-cache")))
        yield


def c_source(text: str) -> str:
    program, _ = compile_source(textwrap.dedent(text))
    return lower_program(program, program.symbols).c_source


def outcome(text, inputs, native, **kwargs):
    """Output, exit code and rendered diagnostic of one run."""
    result = run_source(text, list(inputs), native=native,
                        on_error="return", **kwargs)
    err = result.error
    return (result.output, exit_code_for(err) if err else 0,
            err.render() if err else None)


def differential(text: str, expected: str, inputs=()):
    text = textwrap.dedent(text)
    for native in ("off", "auto"):
        assert outcome(text, inputs, native) == (expected, 0, None), native


class TestGeneratedCode:
    def test_functions_are_mangled(self):
        code = c_source("def fact(x int) int:\n    return x\n"
                        "\ndef main():\n    print(fact(3))\n")
        assert "int64_t tt_fn_fact(tt_ctx *ctx, int64_t depth, " \
               "int64_t v_x) {" in code

    def test_int_division_lowered_to_helper(self):
        code = c_source("def half(x int) int:\n    return x / 2\n"
                        "\ndef main():\n    print(half(7))\n")
        assert "return tt_idiv(ctx, v_x, INT64_C(2), 2);" in code

    def test_real_division_lowered_to_checked_helper(self):
        code = c_source("def half(x real) real:\n    return x / 2.0\n"
                        "\ndef main():\n    print(half(7.0))\n")
        assert ("return tt_rdiv(ctx, (double)(v_x), (double)(2.0), 2);"
                in code)

    def test_parallel_for_worker_function(self):
        code = c_source("""
            def main():
                total = 0
                parallel for i in [1 ... 4]:
                    lock total:
                        total += i
                print(total)
        """)
        assert "static void *tt_pf0_run(void *arg) {" in code
        assert "pthread_create(&tids[w], 0, tt_pf0_run, &envs[w])" in code

    def test_run_twice_fresh_state(self):
        # Both runs share one loaded module; each gets its own array.
        text = textwrap.dedent("""
            def bump(xs [int]) int:
                xs[0] += 1
                return xs[0]

            def main():
                xs = [0]
                print(bump(xs), " ", bump(xs))
        """)
        first = run_source(text, native="auto").output
        second = run_source(text, native="auto").output
        assert first == second == "1 2\n"


class TestDifferentials:
    @pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
    def test_canonical_programs(self, name):
        text = ALL_PROGRAMS[name]
        fast = outcome(text, ["6"], "off", backend="sequential")
        assert outcome(text, ["6"], "auto", backend="sequential") == fast

    def test_numeric_torture(self):
        differential("""
            def main():
                print(7 / 2, " ", -7 / 2, " ", 7 % 3, " ", -7 % 3)
                print(2 ** 10, " ", 2 ** -1, " ", 2.5 ** 2)
                print(1 / 3, " ", 1.0 / 3.0)
                print(10 % 4, " ", 10.5 % 4.0)
        """, "3 -3 1 -1\n1024 0.5 6.25\n0 0.3333333333333333\n2 2.5\n")

    def test_string_handling(self):
        differential("""
            def main():
                s = "hello" + " " + "world"
                print(upper(s), " ", len(s))
                print(substring(s, 0, 5))
                print(split(s, " ")[1])
                print(s[4])
        """, "HELLO WORLD 11\nhello\nworld\no\n")

    def test_control_flow(self):
        differential("""
            def classify(n int) string:
                if n < 0:
                    return "neg"
                elif n == 0:
                    return "zero"
                else:
                    return "pos"

            def main():
                for n in [-2, 0, 7]:
                    print(classify(n))
                i = 0
                while true:
                    i += 1
                    if i > 3:
                        break
                print(i)
        """, "neg\nzero\npos\n4\n")

    def test_arrays_and_builtins(self):
        differential("""
            def main():
                xs = array(5, 1)
                fill(xs, 3)
                xs[2] = 10
                print(xs, " ", sum(xs), " ", largest(xs))
                print(sort([3, 1, 2]), " ", reversed([1, 2, 3]))
                print(index_of([5, 6], 6), " ", concat([1], [2]))
        """, "[3, 3, 10, 3, 3] 22 10\n[1, 2, 3] [3, 2, 1]\n1 [1, 2]\n")

    def test_widening_consistency(self):
        differential("""
            def f(x real) real:
                return x / 2

            def main():
                r = 1.5
                r = 4
                print(r, " ", f(3))
                xs = [1.0]
                xs[0] = 7
                print(xs)
        """, "4.0 1.5\n[7.0]\n")

    def test_recursion(self):
        differential("""
            def ack(m int, n int) int:
                if m == 0:
                    return n + 1
                if n == 0:
                    return ack(m - 1, 1)
                return ack(m - 1, ack(m, n - 1))

            def main():
                print(ack(2, 3))
        """, "9\n")

    def test_io_differential(self):
        differential("""
            def main():
                a = read_int()
                b = read_real()
                s = read_string()
                print(a, " ", b, " ", s)
        """, "3 2.5 words here\n", inputs=["3", "2.5", "words here"])

    def test_parallel_reduction(self):
        differential("""
            def main():
                total = 0
                parallel for i in [1 ... 100]:
                    lock total:
                        total += i
                print(total)
        """, "5050\n")


class TestCompiledRuntimeBehaviour:
    def test_runtime_errors_preserved(self):
        text = "def at(xs [int], i int) int:\n    return xs[i]\n" \
               "\ndef main():\n    print(at([1], 5))\n"
        for native in ("off", "auto"):
            with pytest.raises(TetraIndexError, match="index 5"):
                run_source(text, native=native)

    def test_worker_and_chunking_options(self):
        text = textwrap.dedent("""
            def main():
                total = 0
                parallel for i in [1 ... 20]:
                    lock t:
                        total += i
                print(total)
        """)
        config = RuntimeConfig(num_workers=3, chunking="cyclic")
        out = run_source(text, config=config, native="auto")
        assert out.output == "210\n"

    def test_deadlock_detection_works_compiled(self):
        # Self re-entry is deterministic even with real threads.
        text = textwrap.dedent("""
            def inc(x int) int:
                return x + 1

            def main():
                lock a:
                    lock a:
                        print(inc(1))
        """)
        with pytest.raises(TetraDeadlockError, match="not re-entrant"):
            run_source(text, native="auto")

    def test_background_joined_at_exit(self):
        text = textwrap.dedent("""
            def square(x int) int:
                return x * x

            def main():
                background:
                    print(square(9))
                print("early")
        """)
        out = run_source(text, native="auto")
        assert sorted(out.output_lines()) == ["81", "early"]
