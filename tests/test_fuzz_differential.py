"""Differential fuzzing: generated programs against their Python twins.

Hypothesis builds random *well-typed, terminating, deterministic* Tetra
programs, and each generator also writes the program's **Python twin**:
the same statements in plain Python over ints, with ``/`` and ``%``
truncating as in C and the shared ``[int]`` array bounds-checked.  The
twin shares no code with the executors it checks (it imports nothing from
``repro``), so it is an oracle for the fast path and the native tier
alike, including the runs that trap.  The generators also fuzz the
lexer/parser/checker along the way: every generated program must compile
cleanly, so a checker rejection is a generator bug and fails loudly.
"""

import importlib.util
import pathlib
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import run_source
from repro.compiler.native import cache_dir, find_compiler
from repro.errors import exit_code_for

VARS = ["a", "b", "c"]


# ----------------------------------------------------------------------
# The twin's runtime: C arithmetic and a checked array, nothing else
# ----------------------------------------------------------------------
class Trap(Exception):
    """The twin divided by zero or indexed out of range."""


def div(a, b):
    """Int division truncating toward zero, as in C."""
    if b == 0:
        raise Trap
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def mod(a, b):
    """The remainder that pairs with :func:`div` (the dividend's sign)."""
    return a - b * div(a, b)


def at(xs, k):
    if not 0 <= k < len(xs):
        raise Trap
    return xs[k]


def put(xs, k, value):
    at(xs, k)
    xs[k] = value


def run_twin(twin: str) -> tuple[str, bool]:
    """What the twin prints, and whether it trapped."""
    out = []
    try:
        exec(twin, {"div": div, "mod": mod, "at": at, "put": put,
                    "emit": lambda value: out.append(f"{value}\n")})
    except Trap:
        return "".join(out), True
    return "".join(out), False


def indent(pairs):
    return [("    " + tetra, "    " + twin) for tetra, twin in pairs]


# ----------------------------------------------------------------------
# Expression generator (ints only — the richest operator set)
# ----------------------------------------------------------------------
TWIN_CALL = {"/": "div", "%": "mod"}


def same(text):
    return (text, text)


def int_exprs(depth: int = 0, traps: bool = False):
    """Int expressions over VARS, as ``(tetra, twin)`` text pairs.
    Division and modulo use non-zero literal divisors, so the program
    cannot fail at runtime, unless ``traps``: then they may also divide
    by the parameter ``d``, which can be 0, and leaves may index the
    length-3 parameter array ``xs`` out of range."""
    leaves = st.one_of(
        st.integers(-50, 50).map(
            lambda v: same(f"({v})" if v < 0 else str(v))),
        st.sampled_from(VARS).map(same),
        *([st.integers(0, 3).map(lambda k: (f"xs[{k}]", f"at(xs, {k})"))]
          if traps else []),
    )
    if depth >= 2:
        return leaves

    def binop(children):
        divisor = st.integers(1, 9).map(lambda v: same(str(v)))
        if traps:
            divisor = st.one_of(divisor, st.just(same("d")))
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), children, children)
            .map(lambda t: (f"({t[1][0]} {t[0]} {t[2][0]})",
                            f"({t[1][1]} {t[0]} {t[2][1]})")),
            st.tuples(children, st.sampled_from(["/", "%"]), divisor)
            .map(lambda t: (f"({t[0][0]} {t[1]} {t[2][0]})",
                            f"{TWIN_CALL[t[1]]}({t[0][1]}, {t[2][1]})")),
        )

    return st.one_of(leaves, binop(int_exprs(depth + 1, traps)))


def conditions(traps: bool = False):
    op = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
    return st.tuples(int_exprs(1, traps), op, int_exprs(1, traps)).map(
        lambda t: (f"{t[0][0]} {t[1]} {t[2][0]}",
                   f"{t[0][1]} {t[1]} {t[2][1]}"))


# ----------------------------------------------------------------------
# Statement generator: lists of (tetra line, twin line)
# ----------------------------------------------------------------------
def if_else(cond, then, orelse):
    return ([(f"if {cond[0]}:", f"if {cond[1]}:")] + indent(then)
            + [same("else:")] + indent(orelse))


def for_loop(var, stop, body):
    return ([(f"for {var} in [1 ... {stop}]:",
              f"for {var} in range(1, {stop + 1}):")] + indent(body))


@st.composite
def statements(draw, depth=0):
    kind = draw(st.sampled_from(
        ["assign", "aug", "if", "for", "print"]
        if depth < 2 else ["assign", "aug", "print"]
    ))
    if kind == "assign":
        var = draw(st.sampled_from(VARS))
        tetra, twin = draw(int_exprs())
        return [(f"{var} = {tetra}", f"{var} = {twin}")]
    if kind == "aug":
        # Small literal operands: `a *= a` under nested loops squares its
        # way to astronomically large ints, which stress the bignum printer
        # rather than the language semantics under test here.
        var = draw(st.sampled_from(VARS))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return [same(f"{var} {op}= {draw(st.integers(1, 9))}")]
    if kind == "print":
        var = draw(st.sampled_from(VARS))
        return [(f"print({var})", f"emit({var})")]
    if kind == "if":
        return if_else(draw(conditions()), draw(blocks(depth + 1)),
                       draw(blocks(depth + 1)))
    # bounded for loop
    return for_loop(draw(st.sampled_from(["i", "j"])),
                    draw(st.integers(1, 4)), draw(blocks(depth + 1)))


@st.composite
def blocks(draw, depth=0):
    stmts = draw(st.lists(statements(depth=depth), min_size=1, max_size=3))
    return [line for group in stmts for line in group]


def joined(pairs, side):
    """One side of the pairs as program text: 0 is Tetra, 1 the twin."""
    return "\n".join(pair[side] for pair in pairs) + "\n"


@st.composite
def programs(draw):
    """``(tetra, twin)``: a ``main`` over VARS and its Python twin."""
    lines = [same(f"{v} = {draw(st.integers(-5, 5))}") for v in VARS]
    lines += draw(blocks())
    lines += [(f"print({v})", f"emit({v})") for v in VARS]
    return joined([same("def main():")] + indent(lines), 0), joined(lines, 1)


@st.composite
def parallel_reduction_programs(draw):
    """Deterministic parallel programs: commutative lock-protected
    updates, as ``(tetra, twin, workers)``."""
    n = draw(st.integers(1, 30))
    term = draw(st.sampled_from(["i", "i * i", "i + 1", "1"]))
    workers = draw(st.integers(1, 6))
    return textwrap.dedent(f"""
        def main():
            total = 0
            parallel for i in [1 ... {n}]:
                lock total:
                    total += {term}
            print(total)
    """), textwrap.dedent(f"""
        total = 0
        for i in range(1, {n + 1}):
            total += {term}
        emit(total)
    """), workers


class TestDifferentialFuzz:
    @given(programs())
    @settings(max_examples=120, deadline=None)
    def test_sequential_programs_agree(self, case):
        text, twin = case
        output = run_source(text, backend="sequential").output
        assert (output, False) == run_twin(twin), text

    @given(programs())
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_on_deterministic_programs(self, case):
        text, _twin = case
        outputs = {
            run_source(text, backend=name).output
            for name in ("sequential", "thread", "sim")
        }
        assert len(outputs) == 1, text

    @given(parallel_reduction_programs())
    @settings(max_examples=25, deadline=None)
    def test_parallel_reductions_agree(self, case):
        text, twin, workers = case
        from repro.runtime import RuntimeConfig

        config = RuntimeConfig(num_workers=workers)
        threaded = run_source(text, backend="thread", config=config).output
        sequential = run_source(text, backend="sequential").output
        assert threaded == sequential == run_twin(twin)[0], text

    @given(programs())
    @settings(max_examples=25, deadline=None)
    def test_proc_backend_matches_sequential_walker(self, case):
        """The process backend on the generated corpus.  These programs
        have no parallel constructs, so proc must behave exactly like its
        thread base; the point is exercising the full proc code path
        (backend construction, lifecycle, no stray offloads) against the
        sequential baseline."""
        from repro.runtime import RuntimeConfig

        text, _twin = case

        sequential = run_source(text, backend="sequential").output
        proc = run_source(text, backend="proc",
                          config=RuntimeConfig(num_workers=2))
        assert proc.output == sequential, text

    @given(parallel_reduction_programs())
    @settings(max_examples=12, deadline=None)
    def test_proc_offload_matches_sequential_on_reductions(self, case):
        """Lock-protected `total += expr` is exactly what the proc backend
        offloads and merges arithmetically; outputs and exit codes must
        match the sequential backend.  (Programs whose loops use other
        shared mutation legitimately fall back to threads — the offload
        gate itself is covered in test_proc.py.)"""
        text, _twin, workers = case
        from repro.runtime import RuntimeConfig

        sequential = run_source(text, backend="sequential")
        proc = run_source(text, backend="proc",
                          config=RuntimeConfig(num_workers=min(workers, 4)),
                          on_error="return")
        assert proc.error is None, text
        assert proc.output == sequential.output, text

    @given(programs())
    @settings(max_examples=40, deadline=None)
    def test_formatting_preserves_meaning(self, case):
        """unparse(parse(p)) runs identically to p — `tetra fmt` is safe."""
        text, _twin = case
        from repro.parser import parse_source
        from repro.tetra_ast import unparse

        formatted = unparse(parse_source(text))
        original = run_source(text, backend="sequential").output
        reformatted = run_source(formatted, backend="sequential").output
        assert original == reformatted, formatted


# ----------------------------------------------------------------------
# Native-tier fuzzing: the C lowering vs. the closure fast path
# ----------------------------------------------------------------------
@st.composite
def native_statements(draw, depth=0):
    """Like :func:`statements`, but with expressions that can trap
    (division by ``d``, indexing ``xs``) and stores into ``xs``.  Growth
    stays bounded — additive augmented assignments only — so most
    intermediates fit in int64 and the kernel runs in C rather than
    deopting on overflow."""
    kind = draw(st.sampled_from(
        ["assign", "aug", "store", "if", "for"]
        if depth < 2 else ["assign", "aug", "store"]
    ))
    if kind == "assign":
        var = draw(st.sampled_from(VARS))
        tetra, twin = draw(int_exprs(traps=True))
        return [(f"{var} = {tetra}", f"{var} = {twin}")]
    if kind == "aug":
        var = draw(st.sampled_from(VARS))
        op = draw(st.sampled_from(["+", "-"]))
        return [same(f"{var} {op}= {draw(st.integers(1, 9))}")]
    if kind == "store":
        k = draw(st.integers(0, 3))
        tetra, twin = draw(int_exprs(traps=True))
        return [(f"xs[{k}] = {tetra}", f"put(xs, {k}, {twin})")]
    if kind == "if":
        return if_else(draw(conditions(traps=True)),
                       draw(native_blocks(depth + 1)),
                       draw(native_blocks(depth + 1)))
    return for_loop(draw(st.sampled_from(["i", "j"])),
                    draw(st.integers(1, 4)), draw(native_blocks(depth + 1)))


@st.composite
def native_blocks(draw, depth=0):
    groups = draw(st.lists(native_statements(depth=depth),
                           min_size=1, max_size=3))
    return [line for group in groups for line in group]


@st.composite
def native_function_programs(draw):
    """A numeric function (the native tier's lowering unit) plus a main
    that exercises it from several call sites on one shared array, as
    ``(tetra, twin)``."""
    ret = draw(st.sampled_from([
        same("a + b + c"), same("a - c"), same("a * 2 + b"),
        ("c % 7 + a", "mod(c, 7) + a"), ("xs[1] / d", "div(at(xs, 1), d)"),
    ]))
    small = st.integers(-20, 20)
    calls = draw(st.lists(
        st.tuples(small, small, small, st.integers(-2, 2)),
        min_size=1, max_size=4))
    xs = draw(st.lists(small, min_size=3, max_size=3))
    fn = indent(draw(native_blocks()) + [(f"return {ret[0]}",
                                          f"return {ret[1]}")])
    tetra = joined(
        [same("def kernel(a int, b int, c int, d int, xs [int]) int:")]
        + fn + [same(""), same("def main():"), same(f"    xs = {xs}")]
        + [same(f"    print(kernel({a}, {b}, {c}, {d}, xs))")
           for a, b, c, d in calls] + [same("    print(xs)")], 0)
    twin = joined(
        [same("def kernel(a, b, c, d, xs):")] + fn + [same(f"xs = {xs}")]
        + [same(f"emit(kernel({a}, {b}, {c}, {d}, xs))")
           for a, b, c, d in calls] + [same("emit(xs)")], 1)
    return tetra, twin


def outcome(text, **kwargs):
    """Output, exit code and rendered diagnostic of one run."""
    result = run_source(text, on_error="return", **kwargs)
    err = result.error
    return (result.output, exit_code_for(err) if err else 0,
            err.render() if err else None)


#: A counterexample hypothesis found: the kernel's intermediates leave
#: int64 (26986562467134273792), which native code must not wrap.
INT64_OVERFLOW_BODY = "    a = b\n    c = 9 * (a * a)\n    b = c\n" * 4
INT64_OVERFLOW_KERNEL = (
    "def kernel(a int, b int, c int) int:\n" + INT64_OVERFLOW_BODY
    + "    return a + b + c\n\ndef main():\n    print(kernel(0, 2, 0))\n",
    "def kernel(a, b, c):\n" + INT64_OVERFLOW_BODY
    + "    return a + b + c\n\nemit(kernel(0, 2, 0))\n",
)


def test_the_suite_builds_native_code_outside_home():
    """The fuzz below builds with ``native="require"``; its artifacts go
    to the suite's temporary cache (``conftest.private_native_cache``)."""
    cache = pathlib.Path(cache_dir()).resolve()
    home = pathlib.Path.home().resolve()
    assert cache != home and home not in cache.parents, cache


@pytest.mark.skipif(
    find_compiler() is None
    or importlib.util.find_spec("cffi") is None,
    reason="no C toolchain (compiler + cffi) on this machine")
class TestNativeFuzz:
    """The native tier against the fast path (output, exit code and
    rendered diagnostic), and both against the Python twin."""

    @given(native_function_programs())
    @example(INT64_OVERFLOW_KERNEL)
    @settings(max_examples=60, deadline=None)
    def test_native_functions_match_tree_walker(self, case):
        text, twin = case
        fast = outcome(text, native="off")
        assert outcome(text, native="require") == fast, text
        output, trapped = run_twin(twin)
        if trapped:
            assert fast[0] == output and fast[1] != 0, text
        else:
            assert fast == (output, 0, None), text

    @given(parallel_reduction_programs())
    @settings(max_examples=15, deadline=None)
    def test_native_parallel_reductions_match_walker(self, case):
        text, twin, workers = case
        from repro.runtime import RuntimeConfig

        config = RuntimeConfig(num_workers=min(workers, 4))
        fast = outcome(text, config=config, native="off")
        assert outcome(text, config=config, native="require") == fast, text
        assert fast == (run_twin(twin)[0], 0, None), text
