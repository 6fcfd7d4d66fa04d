"""Generated blocks: lean runs against full-prologue runs and coop.

Every function, loop and ``parallel for`` body runs as one generated
Python function (:mod:`repro.interp.generate`), on every backend.  Line
profiling adds the full statement prologue without touching the output,
so a lean run and a profiled run differ in how each statement starts and
in nothing else; a step budget makes every loop poll count.  They must
agree on the output, the exit code and the rendered diagnostic with its
caret.  Every program whose output does not follow the schedule is also
run on the ``coop`` backend, whose blocks carry the prologue with a
scheduler checkpoint per statement.  All three runs share one writer, so
none of them is an independent oracle for the operators: those are the
Python twins in ``test_fuzz_differential.py`` (and ``test_lean_path.py``
for int ``/`` and ``%``), and ``tests/data/exec_golden.json``, which pins
every bundled program's output, races and simulated makespans.  The tests
also pin the writer's own contracts: blocks nested and expressions deeper
than CPython compiles in one piece still generate, the code cache keeps
its bound, and no program text reaches a generated source.
"""

import io
import pathlib
import re
import sys
import textwrap
import tokenize

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import run_source
from repro.errors import exit_code_for
from repro.interp import generate
from repro.programs import ALL_PROGRAMS

from test_fuzz_differential import (
    int_exprs,
    native_function_programs,
    parallel_reduction_programs,
    programs,
)

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples" / "tetra").glob("*.ttr"))

#: Line profiling: it forces the prologue and leaves the output alone.
FULL = {"profile": True}

#: A step budget no test program reaches: blocks stay generated, and
#: their polls count steps.
BUDGET = {"step_limit": 10**9}


def _src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def outcome(text, backend="sequential", inputs=("12",), **knobs):
    """Output, exit code and rendered diagnostic of one run."""
    result = run_source(text, list(inputs), backend=backend, cache=False,
                        on_error="return", **knobs)
    err = result.error
    return (result.output, exit_code_for(err) if err else 0,
            err.render() if err else None)


def assert_paths_agree(text, backend="sequential", **knobs):
    generated = outcome(text, backend, **knobs)
    assert generated == outcome(text, backend, **FULL, **knobs), text
    assert generated == outcome(text, backend, **BUDGET, **knobs), text
    return generated


def assert_closures_agree(text):
    """The lean and profiled sequential runs against ``coop``."""
    generated = assert_paths_agree(text)
    assert generated == outcome(text, "coop"), text
    return generated


def _is_generated(text: str) -> bool:
    """True when running ``text`` runs its ``for`` loop as generated
    code."""
    generate._cache.clear()
    run_source(text, cache=False, backend="sequential", on_error="return")
    return any(re.search(r"\bfor _t\d+ in ", source)
               for source in generate._cache)


# ----------------------------------------------------------------------
# Differential: lean blocks vs blocks with the full prologue, and coop
# ----------------------------------------------------------------------
#: Demos whose output follows the schedule, which differs on coop.
SCHEDULE_DEPENDENT = {"background_demo", "deadlock_demo", "race_demo"}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_examples_agree(path):
    if path.stem in SCHEDULE_DEPENDENT:
        assert_paths_agree(path.read_text())
    else:
        assert_closures_agree(path.read_text())


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_listings_agree(name):
    if name in SCHEDULE_DEPENDENT:
        assert_paths_agree(ALL_PROGRAMS[name])
    else:
        assert_closures_agree(ALL_PROGRAMS[name])


@pytest.mark.parametrize("name", ["figure2_parallel_sum", "primes_2000",
                                  "bank_account", "word_count"])
def test_listings_agree_on_threads(name):
    assert_paths_agree(ALL_PROGRAMS[name], backend="thread")


@given(programs())
@settings(max_examples=60, deadline=None)
def test_generated_programs_agree(case):
    assert_closures_agree(case[0])


@given(native_function_programs())
@settings(max_examples=60, deadline=None)
def test_generated_kernels_agree(case):
    assert_closures_agree(case[0])


@given(parallel_reduction_programs())
@settings(max_examples=15, deadline=None)
def test_generated_parallel_reductions_agree(case):
    text, _twin, workers = case
    assert_paths_agree(text, backend="thread", num_workers=min(workers, 4))


@given(st.lists(int_exprs(traps=True), min_size=1, max_size=4),
       st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_trapping_expressions_agree(exprs, d):
    """Out-of-range elements and zero divisors, in expressions, element
    stores and aug-assigns, inside and outside a loop."""
    lines = ["def kernel(a int, b int, c int, d int, xs [int]) int:",
             "    k = 0",
             "    while k < 2:"]
    for n, (e, _twin) in enumerate(exprs):
        lines += [f"        a = {e}", f"        xs[{n}] = {e}",
                  f"        b += {e}", f"        xs[{n % 3}] %= {e} + 1",
                  "        print(a, b, xs)"]
    lines += ["        k += 1", "    return a + b + c",
              "", "def main():", "    xs = [4, -5, 6]",
              f"    print(kernel(1, 2, 3, {d}, xs))"]
    assert_closures_agree("\n".join(lines) + "\n")


TRAPS = {
    "load out of range": "print(xs[i + 3])",
    "load at -1": "print(xs[i - 2])",
    "store out of range": "xs[i + 1] = 7",
    "aug-assign out of range": "xs[i * 5] += 1",
    "division by zero": "print(10 / (i - 1))",
    "modulo by zero": "print(i % (i - 1))",
    "aug-assign by zero": "k /= i - 1",
    "negative division": "print((0 - 7) / (i + 1))",
    "unbound variable": "print(never)",
}


@pytest.mark.parametrize("trap", sorted(TRAPS))
@pytest.mark.parametrize("backend", ["sequential", "thread"])
def test_trap_diagnostics_agree(trap, backend):
    text = _src(f"""
        def main():
            xs = [1, 2, 3]
            k = 9
            if k < 0:
                never = 1
            for i in [1 ... 3]:
                print(i)
                {TRAPS[trap]}
            print("done")
        """)
    assert _is_generated(text)
    out, code, diagnostic = assert_paths_agree(text, backend)
    assert (out, code, diagnostic) == outcome(text, "coop")
    if trap != "negative division":
        assert code != 0 and diagnostic is not None


def test_op_assign_on_a_string_element_is_a_diagnostic():
    """``s[f()] += t`` evaluates its target once, like every ``op=``
    whose target holds a call, and fails with the string-store
    diagnostic, not a Python error."""
    out, code, diagnostic = assert_closures_agree(_src("""
        def f() int:
            print("f")
            return 0

        def main():
            s = "abc"
            s[f()] += "x"
        """))
    assert out == "f\n" and code == 1
    assert "(strings are immutable)" in diagnostic


def test_return_break_continue_cross_closure_statements():
    """Completions pass through generated loops from a ``try`` (written
    as Python's own) and from a ``lock`` body (a closure's)."""
    assert_paths_agree(_src("""
        def find(xs [int], want int) int:
            i = 0
            while true:
                try:
                    if xs[i] == want:
                        return i
                    if xs[i] < 0:
                        break
                    i += 1
                    continue
                catch e:
                    return -1
            return -2

        def main():
            xs = [3, 1, -4, 1, 5]
            print(find(xs, 1), find(xs, 5), find(xs, 9), find([7], 8))
            total = 0
            parallel for r in [1 ... 3]:
                for q in [r ... 4]:
                    if q == 3:
                        continue
                    lock total:
                        total += q
            print(total)
        """))


# ----------------------------------------------------------------------
# The generator's own contracts
# ----------------------------------------------------------------------
def _nested_loops(depth: int) -> str:
    lines = ["def main():", "    n = 0"]
    for level in range(depth):
        pad = "    " * (level + 1)
        lines += [f"{pad}k{level} = 0", f"{pad}while k{level} < 1:",
                  f"{pad}    k{level} += 1"]
    lines.append("    " * (depth + 1) + "n += 1")
    lines.append("    print(n)")
    return "\n".join(lines) + "\n"


def _deep_expression(depth: int) -> str:
    return ("def main():\n    a = 1\n"
            f"    b = {'(' * depth}a{' + 1)' * depth}\n"
            f"    print(b)\n    print({'(' * depth}b{' - 1)' * depth})\n")


def _nested_tries(depth: int) -> str:
    """Each ``catch`` body holds the next ``try``, whose body fails."""
    lines = ["def main():", "    n = 0"]
    for level in range(depth):
        pad = "    " * (level + 1)
        lines += [f"{pad}try:", f"{pad}    n += 1",
                  f'{pad}    error("level {level}")', f"{pad}catch e{level}:"]
    lines.append("    " * (depth + 1) + "print(n, e0)")
    return "\n".join(lines) + "\n"


def _nested_locks(depth: int) -> str:
    """Each lock body takes the next lock."""
    lines = ["def main():", "    n = 0"]
    for level in range(depth):
        pad = "    " * (level + 1)
        lines += [f"{pad}lock l{level}:", f"{pad}    n += 1"]
    lines.append("    " * (depth + 1) + "print(n)")
    return "\n".join(lines) + "\n"


def _deep_calls(depth: int) -> str:
    """Builtin calls, tuple literals and tuple elements, nested."""
    return ("def main():\n    a = 1\n"
            f"    print({'abs((' * depth}a - 2{', a)[0])' * depth})\n")


@pytest.mark.parametrize("text, output", [
    (_nested_loops(24), "1\n"),
    (_deep_expression(400), "401\n1\n"),
    (_nested_tries(24), "24level 0\n"),
    (_nested_locks(24), "24\n"),
    (_deep_calls(400), "1\n"),
], ids=["24 nested loops", "400-deep expression", "24 nested tries",
        "24 nested locks", "400-deep calls"])
def test_code_past_cpythons_nesting_limits_still_generates(text, output):
    """A body nested, or an expression deeper, than CPython compiles in one
    source becomes a generated function of its own: every source
    compiles, and the cache holds no refused entries."""
    # The recursive-descent parser takes about ten Python frames per
    # parenthesis.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        generate._cache.clear()
        assert outcome(text) == (output, 0, None)
        assert generate._cache
        assert all(callable(make) for make in generate._cache.values())
        assert len(generate._cache) < 40
        for backend in ("coop", "sim"):
            assert outcome(text, backend) == (output, 0, None), backend
        assert_paths_agree(text)
    finally:
        sys.setrecursionlimit(limit)


def test_the_code_cache_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(generate, "CACHE_SIZE", 3)
    generate._cache.clear()
    for n in range(1, 9):
        body = "\n".join(f"    x{i} = {i}" for i in range(n))
        run_source(f"def main():\n{body}\n    print(1)\n", cache=False,
                   backend="sequential")
        assert len(generate._cache) <= 3


def test_renamed_and_reconstanted_listings_share_code():
    generate._cache.clear()
    run_source("def main():\n    a = 1\n    while a < 5:\n        a += 2\n"
               "    print(a)\n", cache=False, backend="sequential")
    first = set(generate._cache)
    run_source("def main():\n    zz = 7\n    while zz < 50:\n        zz += 9\n"
               "    print(zz)\n", cache=False, backend="sequential")
    assert set(generate._cache) == first


HOSTILE = r'''
class import:
    exec int

    def system(eval int) int:
        return self.exec + eval

def ctx(v int, _c int) int:
    _fv = v + _c
    while _fv > 100:
        _fv -= 100
    return _fv

def globals(v int) int:
    for KeyError in [1 ... 6]:
        lock exec:
            if KeyError == 2:
                continue
            if KeyError == 4:
                break
            v += KeyError
    for KeyError in [1 ... 3]:
        lock exec:
            if KeyError == 2:
                return v
    return 0

def main():
    v = "\"\"\""
    _a0 = "); import os"
    _t1 = "\n"
    os = 0
    for KeyError in [1 ... 3]:
        os += ctx(KeyError, 40)
    print(v, _a0, _t1, os)
    print(globals(os))
    box = import(os)
    box.exec += 1
    d = {"__import__": box.system(1), "); exec": 2}
    pair = ("eval", d["__import__"])
    try:
        print(d["os.system"])
    catch _e:
        print(pair, d)
'''

#: The same program with every name and string replaced.
TAME = r'''
class P:
    f int

    def m(q int) int:
        return self.f + q

def f(p int, q int) int:
    r = p + q
    while r > 100:
        r -= 100
    return r

def k(p int) int:
    for i in [1 ... 6]:
        lock q:
            if i == 2:
                continue
            if i == 4:
                break
            p += i
    for i in [1 ... 3]:
        lock q:
            if i == 2:
                return p
    return 0

def main():
    s = "x"
    t = "y"
    u = "z"
    w = 0
    for i in [1 ... 3]:
        w += f(i, 40)
    print(s, t, u, w)
    print(k(w))
    o = P(w)
    o.f += 1
    e = {"a": o.m(1), "b": 2}
    g = ("c", e["a"])
    try:
        print(e["d"])
    catch h:
        print(g, e)
'''

#: Names of the hostile program's variables, functions, fields, methods
#: and classes that must not reach a source.
HOSTILE_NAMES = ("v", "ctx", "os", "import", "exec", "system", "eval", "box",
                 "globals")


def _generated_sources(text: str, **knobs) -> set[str]:
    generate._cache.clear()
    result = run_source(text, cache=False, backend="sequential", **knobs)
    return result.output, set(generate._cache)


@pytest.mark.parametrize("knobs", [{}, FULL, BUDGET],
                         ids=["lean", "full", "budget"])
def test_no_program_text_reaches_a_generated_source(knobs):
    output, sources = _generated_sources(HOSTILE, **knobs)
    assert output == ('"""); import os\n126\n130\n'
                      '(eval, 128){); exec: 2, __import__: 128}\n')
    assert sources
    _, tame = _generated_sources(TAME, **knobs)
    assert sources == tame
    for text in sources:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            assert tok.type != tokenize.STRING, text
            if tok.type == tokenize.NAME:
                assert tok.string not in HOSTILE_NAMES, text
        for fragment in ("import os", '"""', "__import__", "); exec"):
            assert fragment not in text, text
