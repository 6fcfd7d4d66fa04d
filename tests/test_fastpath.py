"""Fast-path compiler and program-cache tests.

Covers the compilation layer (``repro.interp.compile`` and the
generated code it builds): limits and diagnostics, race detection
compiled into the generated code, the strict annotation contract — and
the :mod:`repro.api` program cache:
hit/miss accounting, the ``cache=False`` escape hatch, and
``tetra run --no-cache``.  What every bundled program does on each
backend is pinned by ``tests/test_exec_golden.py``.
"""

import re
import textwrap
import types

import pytest

from repro.api import (
    cached_program,
    clear_program_cache,
    compile_source,
    program_cache_info,
    run_source,
)
from repro.errors import TetraError, TetraInternalError, TetraLimitError
from repro.interp import Interpreter, generate
from repro.runtime import CoopBackend, RuntimeConfig, SequentialBackend
from repro.stdlib.io import CapturingIO
from repro.tetra_ast import ArrayLiteral, Assign, DictLiteral, Name, walk
from repro.tools.cli import main as cli_main

HELLO = 'def main():\n    print("hello")\n'

#: A native-lowerable function and reduction loop, plus a loop with a
#: real data race (its output does not depend on the race).
MIXED_MODES = textwrap.dedent("""
    def triangle(n int) int:
        total = 0
        for i in [1 ... n]:
            total += i
        return total

    def main():
        s = 0
        parallel for i in [1 ... 8]:
            lock s:
                s += i
        last = 0
        parallel for i in [1 ... 4]:
            last = i
        print(s, triangle(10))
""")

#: One shared-access site of every kind the race detector hooks — name,
#: array element (plain and augmented), dict element, field — each written
#: by one thread of a ``parallel`` block and read by its sibling, plus a
#: lock-protected pair and immutable string/tuple reads that must stay
#: quiet.
EVERY_ACCESS_KIND = textwrap.dedent("""
    class Box:
        v int

    def main():
        xs = [0, 0]
        d = {"k": 0}
        b = Box(0)
        n = 0
        s = "ab"
        t = (1, 2)
        parallel:
            n = 1
            print(n + 1)
        parallel:
            xs[0] = 1
            xs[0] += 1
            print(xs[0] + 1, s[1], t[0])
        parallel:
            d["k"] = 1
            print(d["k"])
        parallel:
            b.v = 1
            print(b.v)
        parallel:
            lock m:
                n += 1
            lock m:
                n += 2
        print(n, xs, d, b)
""")

RACY = textwrap.dedent("""
    def main():
        largest = 0
        parallel for num in [3, 90, 14, 50]:
            if num > largest:
                largest = num
        print(largest)
""")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_program_cache()
    yield
    clear_program_cache()


# ----------------------------------------------------------------------
# Program cache
# ----------------------------------------------------------------------
class TestProgramCache:
    def test_repeat_compile_hits(self):
        first, _ = cached_program(HELLO)
        second, _ = cached_program(HELLO)
        assert first is second  # the checked AST itself is reused
        info = program_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["currsize"] == 1

    def test_edit_misses(self):
        cached_program(HELLO)
        edited = HELLO.replace("hello", "goodbye")
        cached_program(edited)
        info = program_cache_info()
        assert info["hits"] == 0 and info["misses"] == 2
        assert info["currsize"] == 2

    def test_name_and_entry_are_part_of_the_key(self):
        cached_program(HELLO, name="a.ttr")
        cached_program(HELLO, name="b.ttr")
        cached_program(HELLO, name="a.ttr", entry="other")
        assert program_cache_info()["misses"] == 3

    def test_cache_false_bypasses(self):
        first, _ = cached_program(HELLO, cache=False)
        second, _ = cached_program(HELLO, cache=False)
        assert first is not second
        info = program_cache_info()
        assert info["hits"] == 0 and info["misses"] == 0
        assert info["currsize"] == 0

    def test_failed_compiles_are_not_cached(self):
        bad = "def main():\n    x = nope()\n"
        for _ in range(2):
            with pytest.raises(TetraError):
                cached_program(bad)
        info = program_cache_info()
        assert info["misses"] == 2 and info["currsize"] == 0

    def test_run_source_uses_the_cache(self):
        assert run_source(HELLO).output == "hello\n"
        assert run_source(HELLO).output == "hello\n"
        info = program_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_one_entry_serves_every_run_mode(self):
        """No run mode writes to the checked tree, so one cache entry
        serves plain, traced, race-detecting, native and simulated runs
        alike — each warm run reports exactly what a cold run does."""
        from repro.runtime.schedule import race_fingerprints

        modes = {
            "plain": {},
            "traced": {"trace": True, "metrics": True, "profile": True},
            "races": {"detect_races": True, "num_workers": 4},
            "native": {"native": "auto", "metrics": True},
            "sim": {"backend": "sim", "metrics": True},
        }

        def observe(result):
            m = result.metrics
            native = result.backend.native_state
            return (
                result.output,
                race_fingerprints(result.races),
                None if m is None else (
                    m.threads,
                    [(p.line, list(p.items)) for p in m.parallel_for],
                    m.elapsed if m.virtual_clock else None,
                    m.sim,
                ),
                None if native is None else {
                    k: v for k, v in native.as_dict().items()
                    if k != "cache_hit"
                },
                result.obs is not None,
            )

        cold = {}
        for mode, kwargs in modes.items():
            clear_program_cache()
            cold[mode] = observe(run_source(MIXED_MODES, **kwargs))
        assert cold["races"][1], "the racy loop must be reported"
        assert cold["traced"][4] and not cold["plain"][4]
        clear_program_cache()
        for _ in range(2):
            for mode, kwargs in modes.items():
                assert observe(run_source(MIXED_MODES, **kwargs)) \
                    == cold[mode], mode
        info = program_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2 * len(modes) - 1
        assert info["currsize"] == 1

    def test_warm_plain_cache_still_traces_and_detects_races(self):
        """The user-visible symptom the flagged key prevents: a plain run
        warming the cache must not disable instrumentation for an
        immediately-following traced or race-detected run."""
        racy = """
def main():
    x = 0
    parallel for i in [1 ... 8]:
        x = x + 1
    print(x)
"""
        from repro.runtime import RuntimeConfig

        run_source(racy)  # warm the uninstrumented variant
        traced = run_source(HELLO, trace=True, metrics=True)
        assert traced.obs is not None
        assert traced.metrics is not None
        raced = run_source(racy, detect_races=True,
                           config=RuntimeConfig(num_workers=4,
                                                detect_races=True))
        assert raced.races, "the warm cache must not swallow race events"

    def test_run_source_cache_false(self):
        assert run_source(HELLO, cache=False).output == "hello\n"
        assert program_cache_info()["currsize"] == 0

    def test_cached_runs_are_isolated(self):
        """Sharing the AST across runs must not leak run state."""
        counter = "def main():\n    n = 0\n    n += 1\n    print(n)\n"
        assert run_source(counter).output == "1\n"
        assert run_source(counter).output == "1\n"
        assert run_source(counter, backend="sequential").output == "1\n"


class TestCLINoCache:
    def test_no_cache_flag(self, tmp_path, capsys):
        path = tmp_path / "hello.ttr"
        path.write_text(HELLO)
        assert cli_main(["run", str(path), "--no-cache"]) == 0
        assert capsys.readouterr().out == "hello\n"
        assert program_cache_info()["currsize"] == 0

    def test_default_run_caches(self, tmp_path, capsys):
        path = tmp_path / "hello.ttr"
        path.write_text(HELLO)
        assert cli_main(["run", str(path)]) == 0
        assert cli_main(["run", str(path)]) == 0
        capsys.readouterr()
        info = program_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1


# ----------------------------------------------------------------------
# Fast path semantics
# ----------------------------------------------------------------------
class TestFastPathParity:
    def test_interpreter_compiles_by_default(self):
        program, source = compile_source(HELLO)
        interp = Interpreter(program, source, backend=SequentialBackend(),
                             io=CapturingIO())
        assert set(interp.compiled.functions) == {"main"}

    def test_recursion_limit_message_is_the_walkers(self):
        runaway = "def f() int:\n    return f()\n\ndef main():\n    f()\n"
        with pytest.raises(TetraLimitError, match="recursion depth exceeded"):
            run_source(runaway, backend="sequential")

    def test_step_limit_enforced_through_fast_path(self):
        spin = "def main():\n    while true:\n        pass\n"
        config = RuntimeConfig(step_limit=500)
        with pytest.raises(TetraLimitError, match="budget of 500 steps"):
            run_source(spin, backend="sequential", config=config)


def _race_hooks(invokers) -> set[tuple[str, str, str]]:
    """The race hooks reachable from ``invokers``, through closure cells,
    generated functions' bound values, tuples and lists: each as (site,
    subject, access).

    A generated function's sites are the note helpers its source calls
    (``name``, ``elem`` or ``field``), each with the variable name, the
    array or dict display or the field name bound to its subject argument
    and the kind of the note bound to its first.  A ``lock`` is the
    interpreter's enter before a ``try`` and its exit in the ``finally``,
    with the lock's name bound to both; it is a hook when that
    interpreter's enter feeds a detector's lockset."""
    sources = {}
    for text, make in generate._cache.items():
        for const in make.__code__.co_consts:
            if isinstance(const, types.CodeType):
                sources[const] = text

    def kind(note) -> str:
        cells = dict(zip(note.__code__.co_freevars,
                         (c.cell_contents for c in note.__closure__)))
        return "write" if cells["is_write"] else "read"

    hooks, seen, stack = set(), set(), list(invokers)
    while stack:
        item = stack.pop()
        if isinstance(item, (tuple, list)):
            stack.extend(item)
            continue
        if not isinstance(item, types.FunctionType) or id(item) in seen:
            continue
        seen.add(id(item))
        cells = dict(zip(item.__code__.co_freevars,
                         (c.cell_contents for c in item.__closure__ or ())))
        stack.extend(cells.values())
        text = sources.get(item.__code__)
        if text is not None:
            for site, note, subject in re.findall(
                    r"_note_(name|elem|field)\((_a\d+), _c, "
                    r"(?:_t\d+, ){0,2}(_a\d+),", text):
                hooks.add((site, cells[subject], kind(cells[note])))
            exits = {stamp: (leave, name) for leave, name, stamp in
                     re.findall(r"finally:\n +(_a\d+)\(_c, (_a\d+), "
                                r"(_t\d+)\)", text)}
            for stamp, enter, name in re.findall(
                    r"(_t\d+) = (_a\d+)\(_c, (_a\d+), _a\d+\)\n +try:",
                    text):
                leave = cells[exits[stamp][0]]
                assert exits[stamp][1] == name
                assert cells[enter].__func__ is Interpreter._lock_enter
                assert leave.__func__ is Interpreter._lock_exit
                assert leave.__self__ is cells[enter].__self__
                if cells[enter].__self__._race is not None:
                    hooks.add(("lock", cells[name], "lock"))
    return hooks


class TestCompiledRaceDetection:
    def test_detection_runs_on_the_compiled_closures(self):
        """Every shared-access site is generated with its note only under
        detection, on the lean and the full statement prologue alike: each
        name, the array and the dict elements, and the field, read and
        written, while the immutable string and tuple elements stay
        quiet; a ``lock``'s enter and exit feed the detector's lockset.
        The hooked code is what reports the race."""
        program, source = compile_source(EVERY_ACCESS_KIND)
        hooks = {
            *((site, subject, access)
              for site, subject in [
                  *(("name", v) for v in ("n", "xs", "d", "b", "s", "t")),
                  ("elem", "xs"), ("elem", "d"), ("field", "v")]
              for access in ("read", "write")),
            ("lock", "m", "lock"),
        }
        for backend in (SequentialBackend, CoopBackend):
            for detect in (False, True):
                generate._cache.clear()
                interp = Interpreter(
                    program, source, backend=backend(), io=CapturingIO(),
                    config=RuntimeConfig(detect_races=detect))
                assert (_race_hooks(interp.compiled.functions.values())
                        == (hooks if detect else set()))
                if detect:
                    race = interp._race
                    lockset = []
                    for hook in ("acquire", "release"):
                        def spy(tid, name, real=getattr(race, hook),
                                hook=hook):
                            lockset.append((hook, name))
                            real(tid, name)

                        setattr(race, hook, spy)
                    interp.run()
                    assert {r.variable for r in interp.races} \
                        == {"n", "xs[0]", "d['k']", "Box.v"}
                    assert lockset == [("acquire", "m"), ("release", "m")] * 2

    def test_every_access_kind_reports_its_sites(self, any_backend):
        """Variable display, access kinds and both sites' line:column, in
        order — as the tree walker reported them for the same program."""
        t = "parallel thread {} (line {})"
        want = [
            ("n", t.format(1, 13), "write", 13, 9, t.format(2, 14), "read",
             14, 15),
            ("xs[0]", t.format(1, 16), "write", 16, 9, t.format(2, 17),
             "read", 17, 9),
            ("xs[0]", t.format(1, 16), "write", 16, 9, t.format(2, 17),
             "write", 17, 9),
            ("xs[0]", t.format(1, 16), "write", 16, 9, t.format(3, 18),
             "read", 18, 15),
            ("xs[0]", t.format(2, 17), "write", 17, 9, t.format(3, 18),
             "read", 18, 15),
            ("d['k']", t.format(1, 20), "write", 20, 9, t.format(2, 21),
             "read", 21, 15),
            ("Box.v", t.format(1, 23), "write", 23, 9, t.format(2, 24),
             "read", 24, 15),
        ]
        result = run_source(EVERY_ACCESS_KIND, backend=any_backend,
                            detect_races=True)
        assert [
            (r.variable,
             r.first.thread, r.first.kind, r.first.span.line,
             r.first.span.column,
             r.second.thread, r.second.kind, r.second.span.line,
             r.second.span.column)
            for r in result.races
        ] == want

    @pytest.mark.parametrize("backend", ["sequential", "coop", "sim"])
    def test_reports_equal_the_golden_fixture(self, backend):
        """Race reports, both sites' line:column in order, match what the
        tree walker recorded before the closure compiler took over."""
        from test_exec_golden import _key, _load, programs, record

        for name in ("examples/tetra/race_demo.ttr",
                     "examples/tetra/figure3_parallel_max.ttr",
                     "examples/tetra/tsp_7.ttr",
                     "examples/tetra/bank_account.ttr"):
            text, inputs = programs()[name]
            want = _load()[_key(name, backend, True)]["races"]
            assert record(text, inputs, backend, True)["races"] == want
            assert want or name.endswith("bank_account.ttr")

    def test_lock_protected_program_stays_clean(self):
        clean = textwrap.dedent("""
            def main():
                total = 0
                parallel for i in [1 ... 8]:
                    lock total:
                        total += i
                print(total)
        """)
        config = RuntimeConfig(num_workers=4, detect_races=True)
        result = run_source(clean, backend="thread", config=config)
        assert result.races == [] and result.output == "36\n"


class TestRunResultRepr:
    def test_repr_is_one_line(self):
        result = run_source(HELLO, backend="sequential")
        text = repr(result)
        assert "\n" not in text
        assert text == ("<RunResult '<string>' backend=sequential "
                        "output=6 chars races=0>")

    def test_repr_includes_the_file_name(self):
        result = run_source(HELLO, name="hello.ttr")
        assert "'hello.ttr'" in repr(result)


# ----------------------------------------------------------------------
# Strict annotation contract (satellite: no silent getattr fallbacks)
# ----------------------------------------------------------------------
class TestStrictAnnotations:
    def _program_with_stripped(self, node_type):
        """A checked program with the checker's type taken off every
        ``node_type`` node (off the target, for an assignment)."""
        text = ('def main():\n    xs = [1, 2]\n    d = {"a": 1}\n'
                '    print(xs, d)\n')
        program, source = compile_source(text)
        for node in walk(program.functions[0].body):
            if isinstance(node, node_type):
                (node.target if isinstance(node, Assign) else node).ty = None
        return program, source

    def _assert_rejected_at_compile_time(self, node_type):
        program, source = self._program_with_stripped(node_type)
        with pytest.raises(TetraInternalError,
                           match="was this program type-checked"):
            Interpreter(program, source, backend=SequentialBackend(),
                        io=CapturingIO())

    def test_compile_rejects_untyped_literal(self):
        self._assert_rejected_at_compile_time(ArrayLiteral)

    @pytest.mark.parametrize("node_type", [DictLiteral, Assign])
    def test_compile_rejects_untyped_annotation(self, node_type):
        """Every annotation the compiler depends on fails at compile time
        with the shared "was this program type-checked?" hint."""
        self._assert_rejected_at_compile_time(node_type)


# ----------------------------------------------------------------------
# Did-you-mean diagnostics (satellite: unknown-function hints)
# ----------------------------------------------------------------------
class TestUnknownFunctionHints:
    def _message(self, call):
        from repro.api import check_source

        errors = check_source(f"def main():\n    {call}\n")
        assert errors, call
        return str(errors[0])

    def test_typo_suggests_builtin(self):
        message = self._message("prnt(1)")
        assert "there is no function named 'prnt'" in message
        assert "did you mean 'print'?" in message

    def test_typo_suggests_user_function(self):
        from repro.api import check_source

        errors = check_source(
            "def helper():\n    pass\n\ndef main():\n    helpr()\n"
        )
        assert errors and "did you mean 'helper'" in str(errors[0])

    def test_range_gets_the_iteration_idiom(self):
        message = self._message("range(10)")
        assert "inclusive range literal" in message
        assert "[0 ... 9]" in message

    def test_plain_unknown_keeps_the_seed_wording(self):
        # tests/test_checker.py pins the "no function named" prefix; the
        # hint must extend the message, never replace it.
        message = self._message("zzqqy(1)")
        assert "there is no function named 'zzqqy'" in message
