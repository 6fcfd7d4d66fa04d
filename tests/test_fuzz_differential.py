"""Differential fuzzing: generated programs through interpreter vs compiler.

Hypothesis builds random *well-typed, terminating, deterministic* Tetra
programs; each must produce byte-identical output through the tree-walking
interpreter and through the Tetra→Python compiler.  This is the strongest
guard against the two execution paths drifting apart, and it also fuzzes
the lexer/parser/checker along the way (every generated program must
compile cleanly — a checker rejection is a generator bug and fails loudly).
"""

import importlib.util
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import run_source
from repro.compiler import run_compiled
from repro.compiler.native import find_compiler
from repro.errors import TetraError, exit_code_for

VARS = ["a", "b", "c"]


# ----------------------------------------------------------------------
# Expression generator (ints only — the richest operator set)
# ----------------------------------------------------------------------
def int_exprs(depth: int = 0, traps: bool = False):
    """Int expressions over VARS.  Division and modulo use non-zero
    literal divisors, so the program cannot fail at runtime, unless
    ``traps``: then they may also divide by the parameter ``d``, which
    can be 0, and leaves may index the length-3 parameter array ``xs``
    out of range."""
    leaves = st.one_of(
        st.integers(-50, 50).map(lambda v: f"({v})" if v < 0 else str(v)),
        st.sampled_from(VARS),
        *([st.integers(0, 3).map(lambda k: f"xs[{k}]")] if traps else []),
    )
    if depth >= 2:
        return leaves

    def binop(children):
        divisor = st.integers(1, 9).map(str)
        if traps:
            divisor = st.one_of(divisor, st.just("d"))
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), children, children)
            .map(lambda t: f"({t[1]} {t[0]} {t[2]})"),
            st.tuples(children, st.sampled_from(["/", "%"]), divisor)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        )

    return st.one_of(leaves, binop(int_exprs(depth + 1, traps)))


def conditions(traps: bool = False):
    op = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
    return st.tuples(int_exprs(1, traps), op, int_exprs(1, traps)).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"
    )


# ----------------------------------------------------------------------
# Statement generator
# ----------------------------------------------------------------------
@st.composite
def statements(draw, depth=0):
    kind = draw(st.sampled_from(
        ["assign", "aug", "if", "for", "print"]
        if depth < 2 else ["assign", "aug", "print"]
    ))
    if kind == "assign":
        var = draw(st.sampled_from(VARS))
        return [f"{var} = {draw(int_exprs())}"]
    if kind == "aug":
        # Small literal operands: `a *= a` under nested loops squares its
        # way to astronomically large ints, which stress the bignum printer
        # rather than the language semantics under test here.
        var = draw(st.sampled_from(VARS))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return [f"{var} {op}= {draw(st.integers(1, 9))}"]
    if kind == "print":
        var = draw(st.sampled_from(VARS))
        return [f"print({var})"]
    if kind == "if":
        cond = draw(conditions())
        then = draw(blocks(depth + 1))
        orelse = draw(blocks(depth + 1))
        lines = [f"if {cond}:"] + [f"    {s}" for s in then]
        lines += ["else:"] + [f"    {s}" for s in orelse]
        return lines
    # bounded for loop
    var = draw(st.sampled_from(["i", "j"]))
    stop = draw(st.integers(1, 4))
    body = draw(blocks(depth + 1))
    return [f"for {var} in [1 ... {stop}]:"] + [f"    {s}" for s in body]


@st.composite
def blocks(draw, depth=0):
    stmts = draw(st.lists(statements(depth=depth), min_size=1, max_size=3))
    return [line for group in stmts for line in group]


@st.composite
def programs(draw):
    body = draw(blocks())
    lines = [f"{v} = {draw(st.integers(-5, 5))}" for v in VARS]
    lines += body
    lines += [f"print({v})" for v in VARS]
    indented = "\n".join(f"    {line}" for line in lines)
    return f"def main():\n{indented}\n"


@st.composite
def parallel_reduction_programs(draw):
    """Deterministic parallel programs: commutative lock-protected updates."""
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
    """), workers


class TestDifferentialFuzz:
    @given(programs())
    @settings(max_examples=120, deadline=None)
    def test_sequential_programs_agree(self, text):
        interpreted = run_source(text, backend="sequential").output
        compiled = run_compiled(text).output
        assert interpreted == compiled, text

    @given(programs())
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_on_deterministic_programs(self, text):
        outputs = {
            run_source(text, backend=name).output
            for name in ("sequential", "thread", "sim")
        }
        assert len(outputs) == 1, text

    @given(parallel_reduction_programs())
    @settings(max_examples=25, deadline=None)
    def test_parallel_reductions_agree(self, case):
        text, workers = case
        from repro.runtime import RuntimeConfig

        config = RuntimeConfig(num_workers=workers)
        interpreted = run_source(text, backend="thread", config=config).output
        compiled = run_compiled(text, num_workers=workers).output
        sequential = run_source(text, backend="sequential").output
        assert interpreted == compiled == sequential, text

    @given(programs())
    @settings(max_examples=25, deadline=None)
    def test_proc_backend_matches_sequential_walker(self, text):
        """The process backend on the generated corpus.  These programs
        have no parallel constructs, so proc must behave exactly like its
        thread base; the point is exercising the full proc code path
        (backend construction, lifecycle, no stray offloads) against the
        sequential baseline."""
        from repro.runtime import RuntimeConfig

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
        text, workers = case
        from repro.runtime import RuntimeConfig

        sequential = run_source(text, backend="sequential")
        proc = run_source(text, backend="proc",
                          config=RuntimeConfig(num_workers=min(workers, 4)),
                          on_error="return")
        assert proc.error is None, text
        assert proc.output == sequential.output, text

    @given(programs())
    @settings(max_examples=40, deadline=None)
    def test_formatting_preserves_meaning(self, text):
        """unparse(parse(p)) runs identically to p — `tetra fmt` is safe."""
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
        return [f"{var} = {draw(int_exprs(traps=True))}"]
    if kind == "aug":
        var = draw(st.sampled_from(VARS))
        op = draw(st.sampled_from(["+", "-"]))
        return [f"{var} {op}= {draw(st.integers(1, 9))}"]
    if kind == "store":
        k = draw(st.integers(0, 3))
        return [f"xs[{k}] = {draw(int_exprs(traps=True))}"]
    if kind == "if":
        cond = draw(conditions(traps=True))
        then = draw(native_blocks(depth + 1))
        orelse = draw(native_blocks(depth + 1))
        lines = [f"if {cond}:"] + [f"    {s}" for s in then]
        lines += ["else:"] + [f"    {s}" for s in orelse]
        return lines
    var = draw(st.sampled_from(["i", "j"]))
    stop = draw(st.integers(1, 4))
    body = draw(native_blocks(depth + 1))
    return [f"for {var} in [1 ... {stop}]:"] + [f"    {s}" for s in body]


@st.composite
def native_blocks(draw, depth=0):
    groups = draw(st.lists(native_statements(depth=depth),
                           min_size=1, max_size=3))
    return [line for group in groups for line in group]


@st.composite
def native_function_programs(draw):
    """A numeric function (the native tier's lowering unit) plus a main
    that exercises it from several call sites on one shared array."""
    body = draw(native_blocks())
    ret = draw(st.sampled_from(
        ["a + b + c", "a - c", "a * 2 + b", "c % 7 + a", "xs[1] / d"]))
    fn = ["def kernel(a int, b int, c int, d int, xs [int]) int:"]
    fn += [f"    {line}" for line in body]
    fn.append(f"    return {ret}")
    small = st.integers(-20, 20)
    calls = draw(st.lists(
        st.tuples(small, small, small, st.integers(-2, 2)),
        min_size=1, max_size=4))
    xs = draw(st.lists(small, min_size=3, max_size=3))
    main = ["def main():", f"    xs = {xs}"]
    main += [f"    print(kernel({a}, {b}, {c}, {d}, xs))"
             for a, b, c, d in calls]
    main.append("    print(xs)")
    return "\n".join(fn) + "\n\n" + "\n".join(main) + "\n"


def outcome(text, **kwargs):
    """Output, exit code and rendered diagnostic of one run."""
    result = run_source(text, on_error="return", **kwargs)
    err = result.error
    return (result.output, exit_code_for(err) if err else 0,
            err.render() if err else None)


#: A counterexample hypothesis found: the kernel's intermediates leave
#: int64 (26986562467134273792), which native code must not wrap.
INT64_OVERFLOW_KERNEL = (
    "def kernel(a int, b int, c int) int:\n"
    + "    a = b\n    c = 9 * (a * a)\n    b = c\n" * 4
    + "    return a + b + c\n\ndef main():\n    print(kernel(0, 2, 0))\n"
)


@pytest.mark.skipif(
    find_compiler() is None
    or importlib.util.find_spec("cffi") is None,
    reason="no C toolchain (compiler + cffi) on this machine")
class TestNativeFuzz:
    """The native tier against the fast path (output, exit code and
    rendered diagnostic), and clean runs also against the codegen."""

    @given(native_function_programs())
    @example(INT64_OVERFLOW_KERNEL)
    @settings(max_examples=60, deadline=None)
    def test_native_functions_match_tree_walker(self, text):
        fast = outcome(text, native="off")
        assert outcome(text, native="require") == fast, text
        if fast[1] == 0:
            assert run_compiled(text).output == fast[0], text

    @given(parallel_reduction_programs())
    @settings(max_examples=15, deadline=None)
    def test_native_parallel_reductions_match_walker(self, case):
        text, workers = case
        from repro.runtime import RuntimeConfig

        workers = min(workers, 4)
        config = RuntimeConfig(num_workers=workers)
        fast = outcome(text, config=config, native="off")
        assert outcome(text, config=config, native="require") == fast, text
        if fast[1] == 0:
            compiled = run_compiled(text, num_workers=workers).output
            assert compiled == fast[0], text
