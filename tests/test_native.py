"""The native compiled tier: Tetra→C kernels (``repro.compiler.native``).

Four groups:

* toolchain-free tests (eligibility decisions, mode gating, the
  shared cached tree, graceful degradation without a C compiler) — these
  run everywhere, including CI boxes with no ``cc``;
* differential tests (fast path vs. native on the same program, including
  error messages, reductions under every chunking policy, and the
  observability surface) — skipped when no compiler is present;
* recursion, local arrays and the deopt protocol: the recursion limit,
  deep recursion, time limits, allocation and overflow give the same
  output and diagnostic with the tier on and off;
* runtime errors in C: every trap deopts, so the fast path's rerun
  produces the partial writes, the error, its caret and its exit code;
* artifact-cache tests (reuse across runs, corrupt-file recovery).
"""

from __future__ import annotations

import importlib.util
import os
import textwrap
import time
from pathlib import Path

import pytest

import repro.compiler.native as native
from repro.api import (
    cached_program,
    clear_program_cache,
    program_cache_info,
    run_source,
)
from repro.errors import (
    TetraError,
    TetraLimitError,
    TetraNativeError,
    exit_code_for,
)
from repro.runtime.backend import RuntimeConfig
from repro.tetra_ast import walk

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "tetra"

HAS_CFFI = importlib.util.find_spec("cffi") is not None
HAS_CC = native.find_compiler() is not None
needs_cc = pytest.mark.skipif(
    not (HAS_CC and HAS_CFFI),
    reason="no C toolchain (compiler + cffi) on this machine")
needs_cffi = pytest.mark.skipif(
    not HAS_CFFI, reason="cffi is not installed")


@pytest.fixture(autouse=True)
def native_sandbox(tmp_path, monkeypatch):
    """Isolate every test: its own artifact-cache dir, a cold program
    cache, and no shared in-memory native modules."""
    monkeypatch.setenv("TETRA_NATIVE_CACHE", str(tmp_path / "native-cache"))
    clear_program_cache()
    native._reset_for_tests()
    yield
    clear_program_cache()
    native._reset_for_tests()


def run(text, native_mode="require", **kwargs):
    return run_source(textwrap.dedent(text), native=native_mode, **kwargs)


def differential(text, num_workers=None, chunking=None, **kwargs):
    """Run dedented source on the fast path and the native tier; both must
    agree on output (or raise the same rendered error, caret included)."""
    text = textwrap.dedent(text)
    if num_workers is not None or chunking is not None:
        kwargs["config"] = RuntimeConfig(
            num_workers=num_workers, chunking=chunking or "block")

    def one(mode):
        try:
            return ("ok", run_source(text, native=mode, **kwargs).output)
        except TetraError as exc:
            return ("err", exc.render())

    fast = one("off")
    compiled = one("require")
    assert fast == compiled, (
        f"fast path and native tier disagree:\n  fast: {fast}"
        f"\n  native: {compiled}")
    return fast


# ----------------------------------------------------------------------
# Toolchain-free: modes, gating, and the shared cached tree
# ----------------------------------------------------------------------
class TestModes:
    def test_native_is_off_by_default(self):
        result = run_source("def main():\n    print(1 + 1)\n", metrics=True)
        assert result.metrics.native is None

    def test_invalid_mode_is_rejected(self):
        with pytest.raises(ValueError):
            run_source("def main():\n    print(1)\n", native="fast")
        with pytest.raises(ValueError):
            RuntimeConfig(native="yes")

    @needs_cffi
    def test_auto_without_a_toolchain_degrades_with_a_notice(
            self, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        result = run_source("def main():\n    print(6 * 7)\n",
                            native="auto", metrics=True)
        assert result.output == "42\n"
        info = result.metrics.native
        assert info is not None and not info["enabled"]
        assert "no C compiler" in info["notice"]
        assert "no C compiler" in result.metrics.render()

    @needs_cffi
    def test_require_without_a_toolchain_raises(self, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        with pytest.raises(TetraNativeError, match="no C compiler"):
            run_source("def main():\n    print(1)\n", native="require")

    def test_require_with_race_detection_raises(self):
        # detect_races rewrites every shared access; compiled kernels
        # would run unobserved, so the tier refuses the combination.
        with pytest.raises(TetraNativeError, match="race detection"):
            run_source("def main():\n    print(1)\n",
                       native="require", detect_races=True)

    def test_auto_with_race_detection_falls_back_silently(self):
        result = run_source("def main():\n    print(1)\n",
                            native="auto", detect_races=True, metrics=True)
        assert result.output == "1\n"
        assert not result.metrics.native["enabled"]

    def test_no_run_mode_writes_to_the_cached_tree(self):
        """Every example, run in every mode against one cached tree,
        leaves the tree as a plain run does.  The only additions allowed
        are the memoised analyses — pure functions of the program, each
        attached once and never rebound; everything else keeps its very
        value objects."""
        memos = {"_native_lowering", "_proc_plan"}
        modes = [
            {"trace": True, "metrics": True, "profile": True},
            {"detect_races": True, "num_workers": 4},
            {"native": "auto"},
            {"backend": "sim"},
            {"backend": "coop"},
            {"backend": "sequential", "chaos_seed": 3},
            {"backend": "proc", "num_workers": 2},
            {},
        ]

        def attrs(program):
            return {id(node): {k: id(v) for k, v in vars(node).items()}
                    for node in walk(program)}

        for path in sorted(EXAMPLES.glob("*.ttr")):
            text = path.read_text()
            inputs = ["10"] if "read_int" in text else []
            program, _ = cached_program(text, str(path))

            def run_in(mode):
                run_source(text, inputs=inputs, name=str(path),
                           on_error="return", **mode)

            run_in({})
            plain = attrs(program)
            seen_memos = {}
            for mode in modes:
                run_in(mode)
                for node_id, now in attrs(program).items():
                    for name in memos & now.keys():
                        assert seen_memos.setdefault((node_id, name),
                                                     now[name]) \
                            == now[name], (path.name, mode, name)
                    rest = {k: v for k, v in now.items() if k not in memos}
                    assert rest == plain[node_id], (path.name, mode)
            assert program_cache_info()["currsize"] == 1
            clear_program_cache()

# ----------------------------------------------------------------------
# Toolchain-free: eligibility (lower_program never invokes a compiler)
# ----------------------------------------------------------------------
ELIGIBILITY = """
def square(x int) int:
    return x * x

def fact(n int) int:
    if n <= 1:
        return 1
    return n * fact(n - 1)

def scratch(n int) int:
    xs = array(n, 0)
    xs[0] = n
    return xs[0]

def greet(name string) string:
    return name

def local_array(n int) int:
    xs = [0 ... n]
    return len(xs)

def alias(xs [int]) int:
    ys = array(len(xs), 0)
    ys = xs
    return len(ys)

def evens(n int) [int]:
    return array(n, 0)

def shout(x int):
    print(x)

def main():
    print(square(4))
"""


class TestEligibility:
    def lowering(self, text):
        program, _source = cached_program(textwrap.dedent(text))
        return native.lower_program(program, program.symbols)

    def test_numeric_functions_lower_and_others_report_why(self):
        low = self.lowering(ELIGIBILITY)
        # Recursion and a non-escaping local array(n, fill) lower.
        assert {"square", "fact", "scratch"} <= set(low.functions)
        reasons = {r for _line, r in low.fallbacks}
        assert not any("recursion" in r for r in reasons)
        # Strings, array aliasing, array-typed returns and print do not.
        assert any("'greet'" in r and "string" in r for r in reasons)
        assert any("'local_array'" in r and "aliasing" in r
                   for r in reasons)
        assert any("'alias'" in r and "aliasing" in r for r in reasons)
        assert any("'evens'" in r and "return type" in r for r in reasons)
        assert any("'shout'" in r and "print" in r for r in reasons)

    def test_mutual_recursion_lowers_noinline(self):
        low = self.lowering("""
        def even(n int) bool:
            if n == 0:
                return true
            return odd(n - 1)

        def odd(n int) bool:
            if n == 0:
                return false
            return even(n - 1)

        def main():
            print(even(10))
        """)
        assert set(low.functions) == {"even", "odd"}
        assert all(low.functions[n].recursive for n in ("even", "odd"))
        assert low.c_source.count("__attribute__((noinline))") == 2
        assert not [r for _line, r in low.fallbacks
                    if "'even'" in r or "'odd'" in r]

    def test_a_user_function_shadowing_a_builtin_stays_a_call(self):
        low = self.lowering("""
        def sqrt(x real) real:
            print("mine")
            return x

        def array(n int, fill int) [int]:
            return [n, fill]

        def root(x real) real:
            return sqrt(x)

        def first(n int) int:
            xs = array(n, 0)
            return xs[0]

        def main():
            print(root(4.0))
            print(first(3))
        """)
        assert not low.functions
        reasons = {r for _line, r in low.fallbacks}
        assert "'root': calls 'sqrt', which is not lowered" in reasons
        assert any("'first'" in r and "array(n, fill)" in r
                   for r in reasons)

    def test_reduction_loop_plans_into_a_kernel(self):
        low = self.lowering("""
        def main():
            total = 0
            parallel for i in [1 ... 100]:
                lock t:
                    total += i
            print(total)
        """)
        assert len(low.loops) == 1
        _node, meta = low.loops[0]
        assert [(n, op) for n, op, _ty in meta.reductions] == \
            [("total", "sum")]

    def test_non_reduction_scalar_write_is_rejected(self):
        low = self.lowering("""
        def main():
            last = 0
            parallel for i in [1 ... 10]:
                last = i
            print(last)
        """)
        assert not low.loops
        assert low.fallbacks

    def test_a_local_that_may_be_unassigned_keeps_its_function_in_python(
            self):
        low = self.lowering("""
        def both(n int) int:
            if n > 0:
                y = 1
            else:
                y = 2
            return y

        def guarded(n int) int:
            if n < 0:
                return 0
            elif n == 0:
                y = 1
            else:
                y = n
            return y

        def inner(n int) int:
            total = 0
            while n > 0:
                step = n % 3
                total += step
                n -= 1
            for i in [1 ... n]:
                total += i
            return total

        def after_loop(n int) int:
            for i in [1 ... n]:
                pass
            return i

        def after_while(n int) int:
            while n > 0:
                last = n
                n -= 1
            return last

        def main():
            print(both(1) + guarded(1) + inner(4) + after_loop(2)
                  + after_while(9))
        """)
        assert {"both", "guarded", "inner"} <= set(low.functions)
        reasons = dict(low.fallbacks)
        assert reasons[28] == \
            "'after_loop': may read 'i' before assigning it (line 31)"
        assert reasons[33] == \
            "'after_while': may read 'last' before assigning it (line 37)"

    def test_lowering_is_deterministic(self):
        a = self.lowering(ELIGIBILITY)
        clear_program_cache()
        b = self.lowering(ELIGIBILITY)
        assert a.c_source == b.c_source and a.key == b.key


# ----------------------------------------------------------------------
# Differential: fast path vs. native on real programs
# ----------------------------------------------------------------------
@needs_cc
class TestDifferential:
    def test_scalar_math_and_control_flow(self):
        kind, out = differential("""
        def collatz_len(n int) int:
            steps = 0
            while n != 1:
                if n % 2 == 0:
                    n = n / 2
                else:
                    n = 3 * n + 1
                steps += 1
            return steps

        def main():
            total = 0
            for n in [1 ... 50]:
                total += collatz_len(n)
            print(total)
        """)
        assert kind == "ok"

    def test_real_arithmetic_and_builtins(self):
        kind, _ = differential("""
        def norm(xs [real]) real:
            total = 0.0
            i = 0
            while i < len(xs):
                total += xs[i] * xs[i]
                i += 1
            return sqrt(total)

        def main():
            xs = [3.0, -4.0, 12.0]
            print(norm(xs))
            print(floor(-2.5))
            print(ceil(2.25))
            print(round(7.5))
            print(abs(-9))
            print(min(3, 11))
            print(max(2.5, -8.0))
        """)
        assert kind == "ok"

    def test_functions_mutate_arrays_in_place(self):
        differential("""
        def double_all(xs [int]):
            i = 0
            while i < len(xs):
                xs[i] = xs[i] * 2
                i += 1

        def main():
            xs = [1, 2, 3, 4]
            double_all(xs)
            print(xs[0])
            print(xs[3])
        """)

    def test_an_array_passed_twice_shares_one_buffer(self):
        kind, out = differential("""
        def bump(xs [int], ys [int]) int:
            xs[0] = 5
            ys[1] = ys[0] + 1
            return ys[0]

        def main():
            a = [1, 2]
            print(bump(a, a))
            print(a)
        """)
        assert (kind, out) == ("ok", "5\n[5, 6]\n")

    def test_bool_parameters_and_returns(self):
        differential("""
        def both(a bool, b bool) bool:
            return a and b

        def main():
            print(both(true, true))
            print(both(true, false))
        """)

    def test_runtime_errors_render_identically(self):
        for snippet in [
            "10 / den",                 # integer division by zero
            "10 % den",                 # integer modulo by zero
            "xs[7]",                    # index out of range
            "xs[0] + 10 / den",         # the caret is under the division
            "floor(sqrt(den - 1.5))",   # sqrt of a negative number
            "floor(2.5 / den)",         # real division by zero
        ]:
            kind, message = differential(f"""
            def f(den int, xs [int]) int:
                return {snippet}

            def main():
                print(f(0, [1, 2, 3]))
            """)
            assert kind == "err", message

    def test_huge_arguments_fall_back_to_python(self):
        # 2**70 does not fit the C ABI; the invoker must delegate to the
        # fast path rather than truncate.
        kind, out = differential("""
        def half(x int) int:
            return x / 2

        def main():
            big = 1
            for i in [1 ... 70]:
                big = big * 2
            print(half(big))
        """)
        assert kind == "ok" and out == f"{2 ** 69}\n"

    @pytest.mark.parametrize("chunking", ["block", "cyclic", "dynamic"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_sum_reduction_across_policies(self, chunking, workers):
        cfg = dict(num_workers=workers, chunking=chunking)
        kind, out = differential("""
        def main():
            total = 0
            parallel for i in [1 ... 500]:
                lock t:
                    total += i * i
            print(total)
        """, **cfg)
        assert kind == "ok"
        assert out == f"{sum(i * i for i in range(1, 501))}\n"

    def test_min_max_reductions(self):
        kind, out = differential("""
        def main():
            lo = 1000000
            hi = -1000000
            parallel for n in [13, 2, 88, -5, 41, 7]:
                lock m:
                    if n < lo:
                        lo = n
                    if n > hi:
                        hi = n
            print(lo)
            print(hi)
        """, num_workers=3)
        assert kind == "ok" and out == "-5\n88\n"

    def test_parallel_array_writes_merge(self):
        kind, out = differential("""
        def main():
            out = [0 ... 63]
            parallel for i in [0 ... 63]:
                out[i] = i * i
            total = 0
            for i in [0 ... 63]:
                total += out[i]
            print(total)
        """, num_workers=4)
        assert kind == "ok"
        assert out == f"{sum(i * i for i in range(64))}\n"

    def test_native_calls_inside_parallel_kernels(self):
        kind, out = differential("""
        def is_prime(n int) bool:
            if n < 2:
                return false
            d = 2
            while d * d <= n:
                if n % d == 0:
                    return false
                d += 1
            return true

        def main():
            count = 0
            parallel for n in [2 ... 1000]:
                if is_prime(n):
                    lock c:
                        count += 1
            print(count)
        """, num_workers=2)
        assert kind == "ok" and out == "168\n"


# ----------------------------------------------------------------------
# Observability, limits, and fallback reporting
# ----------------------------------------------------------------------
@needs_cc
class TestRuntimeSurface:
    def test_metrics_report_the_native_tier(self):
        result = run("""
        def twice(x int) int:
            return x * 2

        def main():
            print(twice(21))
        """, metrics=True)
        info = result.metrics.native
        assert info["enabled"] and "twice" in info["functions"]
        assert info["calls"] == 1
        panel = result.metrics.render()
        assert "native tier" in panel

    def test_fallback_reasons_carry_line_numbers(self):
        result = run("""
        def first(xs [int]) int:
            ys = array(1, 0)
            ys = xs
            return ys[0]

        def main():
            print(first([7, 8]))
        """, metrics=True)
        assert result.output == "7\n"
        fallbacks = dict(result.metrics.native["fallbacks"])
        assert "aliasing" in fallbacks[2] and "'first'" in fallbacks[2]
        assert "print" in fallbacks[7]

    def test_time_limit_interrupts_a_hot_native_loop(self):
        started = time.perf_counter()
        with pytest.raises(TetraLimitError):
            run("""
            def spin(n int) int:
                total = 0
                i = 0
                while i < n:
                    total += i % 7
                    i += 1
                return total

            def main():
                print(spin(4000000000))
            """, time_limit=0.4)
        # The kernel checks in every 1024 back-edges; well under the
        # seconds the full 4e9-iteration loop would take.
        assert time.perf_counter() - started < 5.0

    def test_trace_labels_native_calls(self):
        result = run("""
        def cube(x int) int:
            return x * x * x

        def main():
            print(cube(3))
        """, trace=True)
        assert result.output.startswith("27") or "27" in result.output


# ----------------------------------------------------------------------
# Recursion, local arrays, and the deopt protocol
# ----------------------------------------------------------------------
DOWN = """
def down(n int) int:
    if n == 0:
        return 0
    return 1 + down(n - 1)

def main():
    print(down(DEPTH))
"""


def outcome(text, mode, **kwargs):
    """What a user sees from one run: output, exit code, and the
    rendered diagnostic with its span."""
    result = run_source(textwrap.dedent(text), native=mode,
                        on_error="return", **kwargs)
    err = result.error
    if err is None:
        return result.output, 0, None, None
    return (result.output, exit_code_for(err), err.render(),
            (err.span.line, err.span.column))


def deopts(result):
    return [(cause, count) for _line, cause, count
            in result.metrics.native["deopts"]]


@needs_cc
class TestDeopt:
    @pytest.mark.parametrize("frames", [59, 60])
    def test_recursion_limit_boundary_is_exact(self, frames):
        # recursion_limit=60 allows 59 frames of down() under main: depth
        # N-1 succeeds and depth N fails, identically on both tiers.
        text = DOWN.replace("DEPTH", str(frames - 1))
        off, on = (outcome(text, mode, recursion_limit=60)
                   for mode in ("off", "require"))
        assert on == off
        if frames < 60:
            assert off[:2] == (f"{frames - 1}\n", 0)
        else:
            assert off[1] != 0 and "recursion depth exceeded 60" in off[2]

    def test_deep_recursion_deopts_past_the_c_cap(self):
        text = DOWN.replace("DEPTH", "20000")
        off = outcome(text, "off", recursion_limit=100_000)
        assert off == ("20000\n", 0, None, None)
        result = run(text, recursion_limit=100_000, metrics=True)
        assert result.output == off[0]
        assert deopts(result) == [("depth", 1)]

    @pytest.mark.parametrize("mode", ["off", "require"])
    def test_time_limit_stops_exponential_recursion(self, mode):
        started = time.perf_counter()
        result = run_source(textwrap.dedent("""
        def fib(n int) int:
            if n < 2:
                return n
            return fib(n - 1) + fib(n - 2)

        def main():
            print(fib(60))
        """), native=mode, time_limit=0.5, on_error="return")
        assert result.aborted_by == "time"
        assert time.perf_counter() - started < 0.5 + 2.5

    @pytest.mark.parametrize("func", ["floor", "ceil", "round"])
    @pytest.mark.parametrize("value, message", [
        ("big", "overflowed"), ("big - big", "is not defined for nan"),
    ])
    def test_a_non_finite_real_to_int_is_the_math_error(self, func, value,
                                                         message):
        text = f"""
        def conv(x real) int:
            return {func}(x)

        def main():
            big = 1.0e308 * 10.0
            print(conv(2.5))
            print(conv({value}))
        """
        off, on = (outcome(text, mode) for mode in ("off", "require"))
        assert on == off
        assert off[1] == 1 and f"{func}() {message}" in off[2]
        result = run(text, metrics=True, on_error="return")
        assert result.metrics.native["deopts"] == [[3, "overflow", 1]]

    @pytest.mark.parametrize("value, message", [
        ("big", "overflowed"), ("big - big", "is not defined for nan"),
    ])
    def test_int_of_a_non_finite_real_is_the_math_error(self, value,
                                                        message):
        text = f"""
        def conv(x real) int:
            return int(x)

        def main():
            big = 1.0e308 * 10.0
            print(conv(-2.5), conv(1.0e30))
            print(conv({value}))
        """
        off, on = (outcome(text, mode) for mode in ("off", "require"))
        assert on == off
        assert off[0] == "-21000000000000000019884624838656\n"
        assert off[1] == 1 and f"int() {message}" in off[2]
        result = run(text, metrics=True, on_error="return")
        assert result.metrics.native["deopts"] == [[3, "overflow", 2]]

    def test_negative_array_length_gives_the_fast_path_diagnostic(self):
        text = """
        def make(n int) int:
            xs = array(n, 0)
            return len(xs)

        def main():
            print(make(3))
            print(make(-1))
        """
        off, on = (outcome(text, mode) for mode in ("off", "require"))
        assert on == off
        assert off[0] == "3\n"
        assert "array() length must be >= 0, not -1" in off[2]
        result = run(text, metrics=True, on_error="return")
        assert result.metrics.native["deopts"] == [[3, "alloc", 1]]

    def test_a_deopted_call_is_counted_and_its_rerun_stays_in_python(self):
        result = run_source(
            (EXAMPLES / "figure1_factorial.ttr").read_text(),
            inputs=["25"], native="require", metrics=True)
        assert result.output.endswith("15511210043330985984000000\n")
        info = result.metrics.native
        # One C entry overflowed; its rerun made 26 fact() calls, none
        # of which entered C again.
        assert info["deopts"] == [[6, "overflow", 1]]
        assert info["calls"] == 1
        assert "deopted to the fast path — overflow" in \
            result.metrics.render()

    def test_every_overflow_reruns_exactly(self):
        kind, out = differential("""
        def quo(a int, b int) int:
            return a / b

        def neg(a int) int:
            return -a

        def mag(a int) int:
            return abs(a)

        def fl(x real) int:
            return floor(x)

        def grow(a int, b int, c int) int:
            a = b
            c = 9 * (a * a)
            b = c
            a = b
            c = 9 * (a * a)
            b = c
            a = b
            c = 9 * (a * a)
            b = c
            a = b
            c = 9 * (a * a)
            b = c
            return a + b + c

        def main():
            m = -9223372036854775807 - 1
            print(quo(m, -1))
            print(neg(m))
            print(mag(m))
            print(fl(1e30))
            print(grow(0, 2, 0))
        """)
        assert kind == "ok"
        assert out.splitlines()[:3] == [str(2 ** 63)] * 3

    def test_range_ending_at_int64_max_terminates(self):
        # The C loop used to step its counter past the bound, which
        # wraps at INT64_MAX and never ends; the time limit turns that
        # hang into a failure.
        text = """
        def count(lo int, hi int) int:
            total = 0
            i = 0
            for i in [lo ... hi]:
                total += 1
            return total * 1000 + i % 1000

        def main():
            print(count(9223372036854775806, 9223372036854775807))
            print(count(-3, 3))
            print(count(5, 4))
        """
        off, on = (outcome(text, mode, time_limit=10)
                   for mode in ("off", "require"))
        assert on == off == ("2807\n7003\n0\n", 0, None, None)

    def test_local_arrays_are_owned_per_frame(self):
        kind, out = differential("""
        def fill_sum(n int) real:
            xs = array(n, 0.5)
            flags = array(n, false)
            total = 0.0
            i = 0
            while i < n:
                xs = array(n, xs[i] + 1.0)
                flags[i] = i % 2 == 0
                if flags[i]:
                    total += xs[i]
                i += 1
            return total

        def scale(xs [int], k int):
            for i in [0 ... len(xs) - 1]:
                xs[i] = xs[i] * k

        def tree(n int) int:
            if n == 0:
                return 1
            ys = array(n, 2)
            scale(ys, n)
            return ys[n - 1] + tree(n - 1)

        def main():
            print(fill_sum(6))
            print(tree(8))
        """)
        assert kind == "ok"

    def test_tsp_search_and_solve_loop_run_in_c(self):
        path = EXAMPLES / "tsp_7.ttr"
        plain = run_source(path.read_text(), num_workers=2)
        result = run_source(path.read_text(), native="require",
                            num_workers=2, metrics=True)
        assert result.output == plain.output
        info = result.metrics.native
        assert {"search", "tour_from_pair"} <= set(info["functions"])
        assert info["parallel_loops"] == 1 and info["parallel_calls"] == 1
        assert info["deopts"] == []


# ----------------------------------------------------------------------
# Traps: every runtime error in C is a deopt
# ----------------------------------------------------------------------
PARTIAL_WRITE = """
def poke(xs [int], d int):
    xs[0] = 99
    xs[1] = 10 / d

def main():
    xs = [1, 2, 3]
    try:
        poke(xs, 0)
    catch e:
        print(e)
    print(xs[0])
"""

#: BODY is the return expression of f(xs=[1, 2, 3], d=0).
TWO_OPERANDS = """
def f(xs [int], d int) int:
    return BODY

def main():
    print(f([1, 2, 3], 0))
"""

FAILING_LOOP = """
def main():
    out = array(8, 0)
    d = 0
    try:
        parallel for i in [0 ... 7]:
            if i == 1 or i == 6:
                out[i] = 1 / d
    catch e:
        print(e)
    print(out)
"""

UNASSIGNED = """
def f(n int) int:
    if n > 0:
        y = 5
    return y

def main():
    print(f(3))
    print(f(0))
"""

TRAPS = [
    ("partial_write", PARTIAL_WRITE, 4, "division by zero"),
    ("first_failing_operand", TWO_OPERANDS.replace("BODY", "xs[9] + 1 / d"),
     3, "division by zero"),
    ("caret", TWO_OPERANDS.replace("BODY", "xs[0] + 1 / d"), 3,
     "division by zero"),
    ("failing_loop", FAILING_LOOP, 8, "division by zero"),
]


def same_on_both_tiers(text, backend):
    """The outcome of ``text`` with the tier off, asserted equal to the
    outcome with it required, on ``backend`` with 2 workers."""
    off, on = (outcome(text, mode, backend=backend, num_workers=2)
               for mode in ("off", "require"))
    assert on == off
    return off


@needs_cc
@pytest.mark.parametrize("backend", ["sequential", "thread"])
class TestTraps:
    def test_writes_before_a_trap_stay_applied(self, backend):
        assert same_on_both_tiers(PARTIAL_WRITE, backend) == (
            "integer division by zero\n99\n", 0, None, None)

    def test_the_first_failing_operand_is_reported(self, backend):
        text = TWO_OPERANDS.replace("BODY", "xs[9] + 1 / d")
        _out, code, rendered, span = same_on_both_tiers(text, backend)
        assert code == 1 and span == (3, 12)
        assert "index 9 is out of range" in rendered

    def test_the_caret_is_under_the_failing_operand(self, backend):
        text = TWO_OPERANDS.replace("BODY", "xs[0] + 1 / d")
        _out, code, rendered, span = same_on_both_tiers(text, backend)
        assert code == 1 and span == (3, 20)
        assert rendered.endswith("\n  |" + " " * 20 + "^^^^^")

    def test_a_failing_loop_is_not_caught(self, backend):
        # Two workers fail: the aggregated thread error is not catchable.
        out, code, rendered, span = same_on_both_tiers(FAILING_LOOP, backend)
        assert out == "" and code == 1 and span == (6, 9)
        assert "2 parallel threads failed" in rendered

    @pytest.mark.parametrize("name,text,line,cause", TRAPS,
                             ids=[t[0] for t in TRAPS])
    def test_each_trap_deopts_once(self, backend, name, text, line, cause):
        result = run(text, backend=backend, num_workers=2, metrics=True,
                     on_error="return")
        assert result.metrics.native["deopts"] == [[line, cause, 1]]

    def test_a_local_read_before_assignment_stays_on_the_fast_path(
            self, backend):
        out, code, rendered, _span = same_on_both_tiers(UNASSIGNED, backend)
        assert (out, code) == ("5\n", 1)
        assert "variable 'y' read before any assignment in f" in rendered
        result = run(UNASSIGNED, backend=backend, metrics=True,
                     on_error="return")
        assert result.metrics.native["fallbacks"][0] == \
            [2, "'f': may read 'y' before assigning it (line 5)"]


# ----------------------------------------------------------------------
# The on-disk artifact cache
# ----------------------------------------------------------------------
@needs_cc
class TestArtifactCache:
    SRC = """
    def add(a int, b int) int:
        return a + b

    def main():
        print(add(40, 2))
    """

    def test_second_run_hits_the_artifact_cache(self):
        first = run(self.SRC, metrics=True)
        assert first.metrics.native["cache_hit"] is False
        # A fresh process would re-dlopen from disk; simulate by dropping
        # the in-memory module table (and the program cache, so lowering
        # re-runs too).
        clear_program_cache()
        native._reset_for_tests()
        second = run(self.SRC, metrics=True)
        assert second.metrics.native["cache_hit"] is True
        assert second.output == "42\n"

    def test_corrupt_artifact_triggers_a_cold_rebuild(self):
        run(self.SRC)
        cache = native.cache_dir()
        sos = [f for f in os.listdir(cache) if f.endswith(".so")]
        assert len(sos) == 1
        # Replace through a new inode (the writer's own crash-atomic
        # idiom): scribbling on the existing file in place would corrupt
        # the mapping this process already dlopened.
        junk = os.path.join(cache, "junk.tmp")
        with open(junk, "wb") as fh:
            fh.write(b"not an ELF object")
        os.replace(junk, os.path.join(cache, sos[0]))
        clear_program_cache()
        native._reset_for_tests()
        result = run(self.SRC, metrics=True)
        assert result.output == "42\n"
        assert result.metrics.native["cache_hit"] is False

    def test_cache_dir_override_is_honored(self, tmp_path):
        run(self.SRC)
        override = os.environ["TETRA_NATIVE_CACHE"]
        assert os.path.isdir(override)
        assert any(f.endswith(".so") for f in os.listdir(override))
