"""Generated lean blocks against the closure path.

On a lean compile each function, loop and ``parallel for`` body runs as
one generated Python function (:mod:`repro.interp.generate`).  Line
profiling forces the full statement prologue without touching the output:
blocks stay closures, and only single assignments, binops and element
loads are generated, so the two runs below differ in how blocks run —
control flow, completions, stop polls and fallback statements.  They must agree on the output, the exit
code and the rendered diagnostic with its caret.  Because both runs
share the generated operator and element code, every program whose
output does not follow the schedule is also run on the ``coop`` backend,
whose cost accounting keeps every node a closure; int ``/`` and ``%``
are built from one rule on every backend, so
``test_lean_path.py`` checks them against a Python reference.  The tests also pin the
generator's own contracts: a block CPython refuses falls back to
closures, the code cache keeps its bound, and no program text reaches a
generated source.
"""

import io
import pathlib
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
    """The sequential lean run against ``coop``, whose nodes all stay
    closures."""
    generated = assert_paths_agree(text)
    assert generated == outcome(text, "coop"), text
    return generated


def _is_generated(text: str) -> bool:
    """True when running ``text`` compiles at least one generated block."""
    generate._cache.clear()
    run_source(text, cache=False, backend="sequential", on_error="return")
    return any(make is not generate._REFUSED
               for make in generate._cache.values())


# ----------------------------------------------------------------------
# Differential: generated blocks vs closures with the full prologue
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


def test_return_break_continue_cross_closure_statements():
    """Completions from closure statements (``try``, ``lock``) pass
    through generated loops."""
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
def test_blocks_nested_deeper_than_cpython_allows_run_as_closures():
    depth = 24
    lines = ["def main():", "    n = 0"]
    for level in range(depth):
        pad = "    " * (level + 1)
        lines += [f"{pad}k{level} = 0", f"{pad}while k{level} < 1:",
                  f"{pad}    k{level} += 1"]
    lines.append("    " * (depth + 1) + "n += 1")
    lines.append("    print(n)")
    text = "\n".join(lines) + "\n"
    generate._cache.clear()
    assert outcome(text) == ("1\n", 0, None)
    assert generate._REFUSED in generate._cache.values()
    assert any(v is not generate._REFUSED for v in generate._cache.values())
    assert_paths_agree(text)


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
def ctx(v int, _c int) int:
    _fv = v + _c
    while _fv > 100:
        _fv -= 100
    return _fv

def main():
    v = "\"\"\""
    _a0 = "); import os"
    _t1 = "\n"
    os = 0
    for KeyError in [1 ... 3]:
        os += ctx(KeyError, 40)
    print(v, _a0, _t1, os)
'''

#: The same program with every name and string replaced.
TAME = r'''
def f(p int, q int) int:
    r = p + q
    while r > 100:
        r -= 100
    return r

def main():
    s = "x"
    t = "y"
    u = "z"
    w = 0
    for i in [1 ... 3]:
        w += f(i, 40)
    print(s, t, u, w)
'''


def _generated_sources(text: str, **knobs) -> set[str]:
    generate._cache.clear()
    result = run_source(text, cache=False, backend="sequential", **knobs)
    return result.output, set(generate._cache)


@pytest.mark.parametrize("knobs", [{}, FULL, BUDGET],
                         ids=["lean", "full", "budget"])
def test_no_program_text_reaches_a_generated_source(knobs):
    output, sources = _generated_sources(HOSTILE, **knobs)
    assert output == '"""); import os\n126\n'
    assert sources
    _, tame = _generated_sources(TAME, **knobs)
    assert sources == tame
    for text in sources:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            assert tok.type != tokenize.STRING, text
            if tok.type == tokenize.NAME:
                assert tok.string not in ("v", "ctx", "os", "import"), text
        assert "import os" not in text and '"""' not in text
