"""Parallel-construct semantics across every backend.

These tests pin down the paper's §II semantics: parallel blocks join all
children, background blocks do not, parallel-for induction variables are
private, and locks provide mutual exclusion.  Each test runs on all four
backends (thread, sequential, coop, sim) via the ``any_backend`` fixture —
data-race-free programs must agree everywhere.
"""

import importlib.util
import re
import textwrap

import pytest

from conftest import run, run_cli, run_output
from repro.api import run_source
from repro.compiler.native import find_compiler
from repro.errors import (
    EXIT_DEADLOCK,
    TetraDeadlockError,
    TetraRuntimeError,
    TetraThreadError,
)
from repro.runtime import RuntimeConfig

#: A ``parallel:`` child asks for the lock its joining parent holds.
JOINED_CHILD = """
    def main():
        x = 1
        lock a:
            parallel:
                lock a:
                    x = 2
        print(x)
"""

#: ``parallel for`` workers ask for the lock their joiner holds.
JOINED_WORKER = """
    def main():
        s = 0
        lock m:
            parallel for i in [1 ... 100]:
                lock m:
                    s += i
        print(s)
"""


class TestParallelBlock:
    def test_results_visible_after_join(self, any_backend):
        assert run("""
            def main():
                parallel:
                    a = 10
                    b = 20
                    c = 30
                print(a + b + c)
        """, backend=any_backend) == ["60"]

    def test_figure2_parallel_sum(self, any_backend):
        from repro.programs import FIGURE_2_PARALLEL_SUM

        result = run_source(FIGURE_2_PARALLEL_SUM, backend=any_backend)
        assert result.output_lines() == ["5050"]

    def test_children_share_spawner_locals(self, any_backend):
        assert run("""
            def main():
                base = 100
                parallel:
                    a = base + 1
                    b = base + 2
                print(a, " ", b)
        """, backend=any_backend) == ["101 102"]

    def test_single_statement_block(self, any_backend):
        assert run("""
            def main():
                parallel:
                    x = 7
                print(x)
        """, backend=any_backend) == ["7"]

    def test_nested_parallel_blocks(self, any_backend):
        assert run("""
            def main():
                parallel:
                    parallel:
                        a = 1
                        b = 2
                    c = 3
                print(a + b + c)
        """, backend=any_backend) == ["6"]

    def test_each_child_output_appears_once(self, any_backend):
        lines = run("""
            def main():
                parallel:
                    print("one")
                    print("two")
                    print("three")
        """, backend=any_backend)
        assert sorted(lines) == ["one", "three", "two"]

    def test_parallel_calls_with_loops(self, any_backend):
        assert run("""
            def count_to(n int) int:
                total = 0
                i = 1
                while i <= n:
                    total += i
                    i += 1
                return total

            def main():
                parallel:
                    a = count_to(100)
                    b = count_to(200)
                print(a, " ", b)
        """, backend=any_backend) == ["5050 20100"]

    def test_error_in_child_propagates(self, any_backend):
        with pytest.raises(TetraRuntimeError):
            run("""
                def main():
                    parallel:
                        x = [1][5]
                        y = 2
            """, backend=any_backend)


class TestBackgroundBlock:
    def test_background_work_completes_before_exit(self, any_backend):
        lines = run("""
            def main():
                background:
                    print("bg")
                print("fg")
        """, backend=any_backend)
        assert sorted(lines) == ["bg", "fg"]

    def test_background_does_not_block_spawner(self):
        # On the sequential backend background is synchronous, so only check
        # ordering guarantees that hold everywhere: both lines appear.
        lines = run("""
            def main():
                background:
                    x = 1
                print("immediately")
        """, backend="thread")
        assert "immediately" in lines


class TestParallelFor:
    def test_induction_variable_is_private(self, any_backend):
        # Workers write only through the accumulator; the induction variable
        # never leaks into the shared frame.
        assert run("""
            def main():
                total = 0
                parallel for i in [1 ... 100]:
                    lock total:
                        total += i
                print(total)
        """, backend=any_backend) == ["5050"]

    def test_body_writes_shared_array(self, any_backend):
        assert run("""
            def main():
                out = array(10, 0)
                parallel for i in [0 ... 9]:
                    out[i] = i * i
                print(out)
        """, backend=any_backend) == ["[0, 1, 4, 9, 16, 25, 36, 49, 64, 81]"]

    def test_empty_iteration_space(self, any_backend):
        assert run("""
            def main():
                parallel for i in [1 ... 0]:
                    print("never")
                print("done")
        """, backend=any_backend) == ["done"]

    def test_over_array_of_strings(self, any_backend):
        lines = run("""
            def main():
                parallel for word in ["a", "b", "c"]:
                    print(word)
        """, backend=any_backend)
        assert sorted(lines) == ["a", "b", "c"]

    def test_over_string_characters(self, any_backend):
        lines = run("""
            def main():
                parallel for c in "xyz":
                    print(c)
        """, backend=any_backend)
        assert sorted(lines) == ["x", "y", "z"]

    def test_cyclic_chunking_same_result(self):
        config = RuntimeConfig(num_workers=3, chunking="cyclic")
        assert run("""
            def main():
                total = 0
                parallel for i in [1 ... 10]:
                    lock total:
                        total += i
                print(total)
        """, config=config) == ["55"]

    def test_worker_count_capped_by_items(self):
        config = RuntimeConfig(num_workers=64)
        assert run("""
            def main():
                total = 0
                parallel for i in [1 ... 3]:
                    lock total:
                        total += i
                print(total)
        """, config=config) == ["6"]

    def test_figure3_parallel_max(self, any_backend):
        from repro.programs import FIGURE_3_PARALLEL_MAX

        result = run_source(FIGURE_3_PARALLEL_MAX, backend=any_backend)
        assert result.output_lines() == ["96"]

    def test_nested_parallel_for(self, any_backend):
        assert run("""
            def main():
                total = 0
                parallel for i in [1 ... 3]:
                    parallel for j in [1 ... 3]:
                        lock total:
                            total += i * j
                print(total)
        """, backend=any_backend) == ["36"]

    def test_sequential_for_inside_parallel_for(self, any_backend):
        # NOTE: only the induction variable is worker-private (paper §IV);
        # other body locals are shared, so per-iteration scratch state must
        # live in a called function's own activation.
        assert run("""
            def count_up_to(n int) int:
                sub = 0
                for j in [1 ... n]:
                    sub += 1
                return sub

            def main():
                total = 0
                parallel for i in [1 ... 4]:
                    lock total:
                        total += count_up_to(i)
                print(total)
        """, backend=any_backend) == ["10"]

    def test_body_locals_are_shared_not_private(self):
        # The flip side of the rule above, pinned down deterministically on
        # the sequential backend: a body local written by one worker is the
        # same variable every other worker sees.
        assert run("""
            def main():
                last = 0
                parallel for i in [1 ... 4]:
                    last = i
                print(last)
        """, backend="sequential") == ["4"]


class TestLocks:
    def test_lock_protects_counter(self):
        # With many increments through a lock the result is exact on the
        # thread backend despite real concurrency.
        config = RuntimeConfig(num_workers=8)
        assert run("""
            def main():
                count = 0
                parallel for i in [1 ... 400]:
                    lock count:
                        count += 1
                print(count)
        """, config=config) == ["400"]

    def test_different_lock_names_are_independent(self, any_backend):
        assert run("""
            def main():
                a = 0
                b = 0
                parallel:
                    lock one:
                        a = 1
                    lock two:
                        b = 2
                print(a + b)
        """, backend=any_backend) == ["3"]

    def test_lock_released_on_return_path(self, any_backend):
        # A lock inside a function that returns from within the block must
        # release (try/finally), or the second call would self-deadlock...
        assert run("""
            def grab() int:
                lock guard:
                    return 1

            def main():
                x = grab()
                y = grab()
                print(x + y)
        """, backend=any_backend) == ["2"]

    def test_lock_released_on_error(self, any_backend):
        # First call fails inside the lock; the lock must still be free.
        assert run("""
            def risky(xs [int], i int) int:
                lock guard:
                    return xs[i]

            def main():
                xs = [5]
                got = 0
                lock result:
                    got = risky(xs, 0)
                print(got)
        """, backend=any_backend) == ["5"]

    def test_self_reentry_diagnosed(self, any_backend):
        result = run_source(textwrap.dedent("""
            def main():
                lock a:
                    lock a:
                        print("never")
        """), backend=any_backend, on_error="return")
        assert result.output == ""
        assert isinstance(result.error, TetraDeadlockError)
        assert result.error.render() == (
            "<string>:4:9: deadlock: main thread re-entered 'lock a:' while "
            "already inside it — Tetra locks are not re-entrant, so this "
            "would wait forever\n"
            "4 |         lock a:\n"
            "  |         ^^^^")

    # A thread that asks for a lock its joining thread holds would wait
    # forever; it is refused at its own lock statement, with one
    # diagnostic on every backend.  A fresh process with a hard timeout
    # runs each, so a hang fails instead of stalling the suite.
    @pytest.mark.parametrize("text, asker, lock", [
        (JOINED_CHILD, "parallel thread 1 (line 5)", "a"),
        (JOINED_WORKER, "worker 1 (parallel for, line 4)", "m"),
    ], ids=["parallel child", "parallel for worker"])
    def test_lock_held_by_the_joiner_diagnosed(self, any_backend, tmp_path,
                                               text, asker, lock):
        proc = run_cli(tmp_path, text, "--backend", any_backend,
                       "--workers", "1")
        assert (proc.returncode, proc.stdout) == (EXIT_DEADLOCK, "")
        assert proc.stderr == (
            f"prog.ttr:5:13: deadlock: {asker} asked for 'lock {lock}:', "
            f"which main thread holds while it waits to join {asker}, so "
            "this would wait forever\n"
            f"5 |             lock {lock}:\n"
            "  |             ^^^^\n")

    def test_background_waits_for_a_lock_main_holds(self, any_backend):
        # Nobody joins a background thread, so it just waits for main.
        assert run("""
            def main():
                x = 0
                lock a:
                    background:
                        lock a:
                            x = 1
                print("main done")
        """, backend=any_backend) == ["main done"]

    @pytest.mark.parametrize("knobs", [
        {"backend": "proc"},
        {"backend": "thread", "native": "require"},
    ], ids=["proc", "native"])
    def test_offloads_decline_a_lock_the_joiner_holds(self, knobs):
        """The proc and native offloads fold a lock body into a reduction;
        a loop whose workers ask for a lock their joiner holds runs
        in-process instead, and is refused there."""
        if knobs.get("native") and (find_compiler() is None
                                    or importlib.util.find_spec("cffi")
                                    is None):
            pytest.skip("no C toolchain (compiler + cffi) on this machine")
        result = run_source(textwrap.dedent(JOINED_WORKER).lstrip(),
                            num_workers=2, cache=False, on_error="return",
                            **knobs)
        assert result.output == ""
        assert isinstance(result.error, TetraDeadlockError)
        assert re.fullmatch(
            r"(worker [12] \(parallel for, line 4\)) asked for 'lock m:', "
            r"which main thread holds while it waits to join \1, so this "
            r"would wait forever", result.error.message)

    def test_lock_name_shares_nothing_with_variable(self, any_backend):
        # Lock names live in their own namespace (paper §II): a lock named
        # 'x' coexists with a variable 'x'.
        assert run("""
            def main():
                x = 5
                lock x:
                    x = x + 1
                print(x)
        """, backend=any_backend) == ["6"]


class TestThreadBackendConcurrency:
    """Behaviours only observable with real threads."""

    def test_parallel_threads_interleave_prints_atomically(self):
        out = run_output("""
            def main():
                parallel for i in [1 ... 50]:
                    print("line ", i)
        """, config=RuntimeConfig(num_workers=8))
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 50
        # Every print call stays one atomic line ("line <n>").
        assert all(line.startswith("line ") for line in lines)

    def test_background_error_reported_at_exit(self):
        with pytest.raises(TetraRuntimeError):
            run("""
                def main():
                    background:
                        x = [1][9]
                    print("fg")
            """)

    def test_many_threads(self):
        config = RuntimeConfig(num_workers=16)
        assert run("""
            def main():
                total = 0
                parallel for i in [1 ... 1000]:
                    lock t:
                        total += 1
                print(total)
        """, config=config) == ["1000"]


class TestFailureAggregation:
    """Every failed worker is reported, not just the first one joined."""

    TWO_FAILING_CHILDREN = """
        def main():
            parallel:
                x = [1][7]
            # --
                y = [2][8]
            print("after")
    """

    def test_two_failing_parallel_children_both_reported(self):
        with pytest.raises(TetraThreadError) as info:
            run(self.TWO_FAILING_CHILDREN.replace("# --", ""))
        message = str(info.value)
        assert "2 parallel threads failed" in message
        assert "7" in message and "8" in message

    def test_two_failing_parallel_children_coop(self):
        with pytest.raises(TetraThreadError) as info:
            run(self.TWO_FAILING_CHILDREN.replace("# --", ""), backend="coop")
        message = str(info.value)
        assert "2 parallel threads failed" in message

    def test_one_failure_keeps_original_error_type(self, any_backend):
        # A single failing child still surfaces its own error class, so
        # existing catch semantics don't change.
        with pytest.raises(TetraRuntimeError):
            run("""
                def main():
                    parallel:
                        x = [1][9]
                        print("sibling ok")
            """, backend=any_backend)

    def test_two_failing_background_blocks_both_reported(self):
        with pytest.raises(TetraThreadError) as info:
            run("""
                def main():
                    background:
                        x = [1][7]
                    background:
                        y = [2][8]
                    print("fg")
            """)
        message = str(info.value)
        assert "2 background threads failed" in message
        assert "7" in message and "8" in message

    def test_two_failing_background_blocks_coop(self):
        with pytest.raises(TetraThreadError) as info:
            run("""
                def main():
                    background:
                        x = [1][7]
                    background:
                        y = [2][8]
                    print("fg")
            """, backend="coop")
        assert "2 background threads failed" in str(info.value)

    def test_failure_message_names_threads(self):
        with pytest.raises(TetraThreadError) as info:
            run(self.TWO_FAILING_CHILDREN.replace("# --", ""))
        # Both children appear by label in the aggregate message.
        assert str(info.value).count("failed with") == 2


class TestParallelForEdgeCases:
    def test_cyclic_chunking_more_workers_than_items(self):
        config = RuntimeConfig(num_workers=16, chunking="cyclic")
        assert run("""
            def main():
                total = 0
                parallel for i in [1 ... 3]:
                    lock total:
                        total += i
                print(total)
        """, config=config) == ["6"]

    def test_cyclic_chunking_empty_iterable(self, any_backend):
        config = RuntimeConfig(num_workers=4, chunking="cyclic")
        assert run("""
            def main():
                parallel for i in [5 ... 4]:
                    print("never")
                print("empty ok")
        """, backend=any_backend, config=config) == ["empty ok"]

    def test_cyclic_chunking_empty_array(self, any_backend):
        config = RuntimeConfig(num_workers=4, chunking="cyclic")
        assert run("""
            def main():
                items = [0]
                parallel for x in items:
                    print(x)
                print("one")
        """, backend=any_backend, config=config) == ["0", "one"]

    def test_cyclic_chunking_preserves_element_coverage(self):
        # num_workers > len(items): every item runs exactly once.
        config = RuntimeConfig(num_workers=7, chunking="cyclic")
        assert run("""
            def main():
                out = array(4, 0)
                parallel for i in [0 ... 3]:
                    out[i] = out[i] + 1
                print(out)
        """, config=config) == ["[1, 1, 1, 1]"]
