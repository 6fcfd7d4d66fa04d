"""The lean fast path: bare statements, completion values, fused shapes.

On the thread and sequential backends a statement compiles to its bare
core (no per-statement stop poll or span store), ``return`` / ``break`` /
``continue`` are completion values, and the kernels' hot shapes — ``x op=
v`` on a local, element loads and stores on a local array, int ``/`` and
``%``, and a comparison or sum with one inner binop — compile to single
closures.  These tests pin what that must not change: a stop still ends
every kind of run promptly, int division keeps C's truncation rule and
its zero-divisor diagnostic, and an out-of-range element access renders
the same diagnostic and caret as on the full (simulator) path.  They also
pin the fixes that ride along: an aug-assign evaluates its target once,
and a real ``**`` reports a Tetra error instead of leaking a Python
result or exception.
"""

import textwrap
import threading
import time

import pytest

from repro.api import compile_source, run_source
from repro.compiler import run_compiled
from repro.errors import TetraError, TetraRuntimeError, TetraZeroDivisionError
from repro.interp import Interpreter
from repro.runtime import RuntimeConfig, SequentialBackend, ThreadBackend
from repro.stdlib.io import CapturingIO
from repro.tetra_ast import BinaryOp, BinOp, walk
from repro.tools.repl import ReplSession


def _src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def _rendered(text: str, backend: str) -> str:
    result = run_source(text, backend=backend, on_error="return")
    assert result.error is not None, result.output
    return result.error.render()


# ----------------------------------------------------------------------
# Interpreter.stop() on the lean backends
# ----------------------------------------------------------------------
STOPPABLE = {
    "while": """
        def main():
            n = 0
            while true:
                n += 1
        """,
    "for": """
        def main():
            n = 0
            for i in [1 ... 100000]:
                for j in [1 ... 100000]:
                    n += j
        """,
    # One long parallel for whose body has no loop and no call: only the
    # worker's own per-item poll can end it.
    "parallel for": """
        def main():
            x = 0
            parallel for i in [1 ... 200000]:
                x = (i + 100000) ** 20000
        """,
    # Loop-free recursion: only the function-entry poll can end it.
    "recursion": """
        def fib(n int) int:
            if n < 2:
                return n
            return fib(n - 1) + fib(n - 2)

        def main():
            print(fib(60))
        """,
}


@pytest.mark.parametrize("backend", [SequentialBackend, ThreadBackend])
@pytest.mark.parametrize("shape", sorted(STOPPABLE))
def test_stop_ends_a_run_promptly(shape, backend):
    program, source = compile_source(_src(STOPPABLE[shape]))
    interp = Interpreter(program, source, backend=backend(), io=CapturingIO(),
                         config=RuntimeConfig(num_workers=2))
    errors = []

    def main():
        try:
            interp.run()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    runner = threading.Thread(target=main, daemon=True)
    runner.start()
    time.sleep(0.3)
    assert runner.is_alive(), f"the {shape} program ended by itself"
    interp.stop()
    runner.join(timeout=10)
    assert not runner.is_alive(), f"stop() did not end the {shape} program"
    assert len(errors) == 1 and isinstance(errors[0], TetraError)
    assert "the program was stopped" in str(errors[0])


# ----------------------------------------------------------------------
# Int / and %: C truncation on every operand shape
# ----------------------------------------------------------------------
GRID = (-7, -1, 0, 1, 7)


def _trunc(a: int, b: int) -> tuple[int, int]:
    q = abs(a) // abs(b)
    if (a >= 0) != (b >= 0):
        q = -q
    return q, a - q * b


def _lit(v: int) -> str:
    return f"({v})" if v < 0 else str(v)


def _grid_program() -> tuple[str, list[str]]:
    """A program printing every shape of ``a / b`` and ``a % b`` over the
    grid (or the caught error), with the Python reference lines."""
    lines = ["def main():"]
    expected = []
    for a in GRID:
        for b in GRID:
            shapes = [
                ("a", "b"),                      # name / name
                ("a", _lit(b)),                  # name / const
                (_lit(a), "b"),                  # const / name
                ("(a + 0)", "(b * 1)"),          # compound / compound
            ]
            lines += [f"    a = {_lit(a)}", f"    b = {_lit(b)}"]
            for op, word in (("/", "division"), ("%", "modulo")):
                reference = (f"integer {word} by zero" if b == 0
                             else str(_trunc(a, b)[op == "%"]))
                for left, right in shapes:
                    lines += ["    try:",
                              f"        print({left} {op} {right})",
                              "    catch e:",
                              "        print(e)"]
                    expected.append(reference)
                # In a fused comparison, and as an aug-assign.
                lines += ["    try:",
                          f"        print(a {op} b == 1000)",
                          "    catch e:",
                          "        print(e)"]
                expected.append("integer " + word + " by zero" if b == 0
                                else "false")
                lines += ["    x = a", "    try:", f"        x {op}= b",
                          "        print(x)", "    catch e:",
                          "        print(e)"]
                expected.append(reference)
    return "\n".join(lines) + "\n", expected


@pytest.mark.parametrize("backend", ["sequential", "thread", "sim"])
def test_int_division_truncates_on_every_shape(backend):
    text, expected = _grid_program()
    result = run_source(text, backend=backend)
    assert result.output.splitlines() == expected


@pytest.mark.parametrize("expr, caret", [
    ("a / b", "a / b"), ("a % 0", "a % 0"), ("7 % b", "7 % b"),
    ("a % b == 1", "a % b"), ("n + a / b", "a / b"),
])
def test_zero_divisor_diagnostic_and_caret(expr, caret):
    text = _src(f"""
        def main():
            a = 7
            b = 0
            n = 1
            print({expr})
        """)
    lean = _rendered(text, "sequential")
    assert lean == _rendered(text, "sim")
    column = text.splitlines()[4].index(caret) + 1
    word = "division" if "/" in caret else "modulo"
    assert lean.splitlines()[0].endswith(
        f":5:{column}: division by zero: integer {word} by zero")
    assert lean.splitlines()[-1].count("^") == len(caret)


def test_x_mod_assign_by_zero_has_the_statement_caret():
    text = _src("""
        def main():
            x = 7
            d = 0
            x %= d
        """)
    assert _rendered(text, "sequential") == _rendered(text, "sim")


# ----------------------------------------------------------------------
# Element access on the fused shapes: today's diagnostic and caret
# ----------------------------------------------------------------------
@pytest.mark.parametrize("statement", [
    "print(xs[i])", "print(xs[i + 1])", "print(xs[0 - 1])",
    "xs[i] = 5", "xs[i * 2] = 5", "xs[i] += 1", "xs[i - 4] += 1",
    "xs[i] -= xs[0]",
])
def test_out_of_range_element_matches_the_full_path(statement):
    text = _src(f"""
        def main():
            xs = [1, 2, 3]
            i = 3
            {statement}
        """)
    lean = _rendered(text, "sequential")
    assert lean == _rendered(text, "sim")
    assert "is out of range for an array of length 3 (valid indexes are " \
           "0 through 2)" in lean
    assert lean.splitlines()[-1].count("^") >= len("xs[i]")


def test_fused_element_shapes_compute_like_the_full_path():
    text = _src("""
        def main():
            n = 3
            xs = [1.5, 2.5, 3.5]
            ys = [0, 0, 0, 0, 0, 0, 0, 0, 0]
            i = 0
            while i < n * n:
                ys[i] = i % 4
                ys[i] += i * n + 1
                i += 1
            xs[1] = 2
            xs[2] += 1
            total = 0
            k = 0
            while k < len(ys):
                total += ys[k] * ys[n * 2 + k % 3]
                k += 1
            print(xs, " ", ys, " ", total)
        """)
    lean = run_source(text, backend="sequential").output
    assert lean == run_source(text, backend="sim").output
    assert lean == "[1.5, 2.0, 4.5] [1, 5, 9, 13, 13, 17, 21, 25, 25] 3085\n"


# ----------------------------------------------------------------------
# Completion values
# ----------------------------------------------------------------------
def test_return_break_and_continue_through_every_statement_kind():
    text = _src("""
        def first_even(xs [int]) int:
            for x in xs:
                if x % 2 == 1:
                    continue
                lock m:
                    try:
                        return x
                    catch e:
                        pass
            return -1

        def count_to(n int) int:
            k = 0
            while true:
                k += 1
                if k == n:
                    break
            return k

        def nothing():
            return

        def main():
            print(first_even([1, 3, 4, 6]), " ", first_even([1]), " ",
                  count_to(5))
            nothing()
        """)
    for backend in ("sequential", "thread", "coop", "sim"):
        assert run_source(text, backend=backend).output == "4 -1 5\n"


def test_repl_rejects_a_top_level_return():
    session = ReplSession(CapturingIO())
    with pytest.raises(TetraError, match="'return' outside a function"):
        session.run_statements("return")


# ----------------------------------------------------------------------
# An aug-assign evaluates its target's address once
# ----------------------------------------------------------------------
PICKY = _src("""
    class Box:
        v int

    def pick(i int) int:
        print("pick ", i)
        return i

    def main():
        xs = [1, 2, 3]
        xs[pick(1)] += 10
        bs = [Box(1)]
        bs[pick(0)].v += 5
        d = {"0a": 1}
        d[str(pick(7) - 7) + "a"] *= 3
        print(xs, " ", bs[0].v, " ", d)
    """)
PICKY_OUTPUT = "pick 1\npick 0\npick 7\n[1, 12, 3] 6 {0a: 3}\n"


@pytest.mark.parametrize("detect_races", [False, True])
@pytest.mark.parametrize("backend", ["sequential", "thread", "coop", "sim"])
def test_aug_assign_evaluates_a_call_in_its_target_once(backend,
                                                        detect_races):
    result = run_source(PICKY, backend=backend, detect_races=detect_races)
    assert result.output == PICKY_OUTPUT


def test_codegen_aug_assign_evaluates_its_target_once():
    assert run_compiled(PICKY).output == PICKY_OUTPUT


# ----------------------------------------------------------------------
# Real ** follows the math builtins' error policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("expr, error, message", [
    ("(-8.0) ** 0.5", TetraRuntimeError,
     "'**' is not defined for -8.0 and 0.5"),
    ("0.0 ** (-1.0)", TetraZeroDivisionError, "0 raised to a negative power"),
    ("10.0 ** 400.0", TetraRuntimeError, "'**' overflowed"),
])
def test_real_power_errors_are_tetra_errors(expr, error, message):
    body = expr.replace("0.5", "h").replace("400.0", "big")
    text = _src(f"""
        def main():
            h = 0.5
            big = 400.0
            try:
                print({body})
            catch e:
                print("caught: " + e)
            print({body})
        """)
    result = run_source(text, on_error="return")
    assert result.output == f"caught: {message}\n"
    assert type(result.error) is error and result.error.message == message
    # The caret is the operator's: the span of the last `**` expression.
    program, _ = compile_source(text)
    power = [n for n in walk(program) if isinstance(n, BinOp)
             and n.op is BinaryOp.POW][-1]
    assert result.error.span == power.span
    assert f"{error.phase}: {message}" in result.error.render()
