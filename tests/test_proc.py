"""The process-parallel backend: offload eligibility, merge, resilience.

The ``proc`` backend ships eligible ``parallel for`` bodies to worker
processes and merges results back under Tetra's variable rules.  These
tests pin down the whole contract: which loops offload (the paper's
reduction idioms, disjoint container edits) and which fall back to threads
with a recorded reason; that merged results are byte-identical to the
sequential backend across all three chunking policies; that conflicting
or overlapping cross-process writes raise the teaching diagnostic instead
of racing; and that worker failures, time limits, and cancellation
terminate the pool promptly with the same errors the in-process backends
raise.
"""

import os
import threading
import time

import pytest

from repro import run_source
from repro.errors import (
    TetraCancelledError,
    TetraLimitError,
    TetraRuntimeError,
    TetraThreadError,
    TetraZeroDivisionError,
)
from repro.resilience import CancelToken, run_stress
from repro.runtime import ProcBackend, RuntimeConfig, guided_chunk_sizes
from repro.runtime.parplan import plan_parallel_for
from repro.tetra_ast import ParallelFor, walk


def cfg(**kw):
    kw.setdefault("num_workers", 4)
    return RuntimeConfig(**kw)


def run_proc(text, **kw):
    config = kw.pop("config", None) or cfg()
    return run_source(text, backend="proc", config=config, **kw)


PRIMES = """
def is_prime(n int) bool:
    if n < 2:
        return false
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return false
        d += 2
    return true

def main():
    count = 0
    parallel for n in [2 ... 300]:
        if is_prime(n):
            lock count:
                count += 1
    print(count)
"""

GUARDED_MAX = """
def main():
    data = [3, 41, 17, 98, 2, 55, 70, 11, 96, 34]
    best = -1
    parallel for x in data:
        lock best:
            if x > best:
                best = x
    print(best)
"""

ELEMENT_STORES = """
def main():
    squares = array(16, 0)
    parallel for i in [0 ... 15]:
        squares[i] = i * i
    print(squares[3])
    print(squares[15])
"""

DICT_SHARDS = """
def main():
    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    parallel for w in ["a", "b", "c", "d"]:
        counts[w] = counts[w] + 1
    print(counts["a"] + counts["b"] + counts["c"] + counts["d"])
"""


class TestOffloadCorrectness:
    def test_primes_reduction_offloads_and_matches_sequential(self):
        seq = run_source(PRIMES, backend="sequential")
        proc = run_proc(PRIMES)
        assert proc.output == seq.output
        assert proc.backend.pool_workers == 4
        assert proc.backend.fallbacks == []

    def test_spelled_out_sum_matches_augmented(self):
        text = PRIMES.replace("count += 1", "count = count + 1")
        assert run_proc(text).output == \
            run_source(text, backend="sequential").output

    def test_guarded_max_reduction(self):
        proc = run_proc(GUARDED_MAX)
        assert proc.output == "98\n"
        assert proc.backend.fallbacks == []

    def test_element_stores_merge_disjoint_slots(self):
        proc = run_proc(ELEMENT_STORES)
        assert proc.output == "9\n225\n"
        assert proc.backend.fallbacks == []

    def test_dict_edits_merge(self):
        proc = run_proc(DICT_SHARDS)
        assert proc.output == "4\n"
        assert proc.backend.fallbacks == []

    @pytest.mark.parametrize("chunking", ["block", "cyclic", "dynamic"])
    @pytest.mark.parametrize("offload", [True, False])
    def test_all_chunkings_and_paths_agree(self, chunking, offload):
        # offload=False takes the in-process path: race detection pins the
        # loop to threads, which run the compiled race hooks.
        seq = run_source(PRIMES, backend="sequential")
        proc = run_proc(PRIMES, config=cfg(chunking=chunking,
                                           detect_races=not offload))
        assert proc.output == seq.output
        assert proc.backend.pool_workers == (4 if offload else 0)

    def test_output_printed_in_iteration_order(self):
        text = """
def main():
    parallel for i in [0 ... 19]:
        print(i * 2)
"""
        seq = run_source(text, backend="sequential")
        proc = run_proc(text)
        assert proc.output == seq.output
        assert proc.backend.pool_workers == 4

    def test_induction_variable_stays_private(self):
        text = """
def main():
    total = 0
    parallel for i in [1 ... 40]:
        i = i * 2
        lock total:
            total += i
    print(total)
"""
        seq = run_source(text, backend="sequential")
        proc = run_proc(text)
        assert proc.output == seq.output
        assert proc.backend.fallbacks == []


class TestFallbacks:
    def fallback_reasons(self, text):
        result = run_proc(text)
        return result, [reason for _line, reason in result.backend.fallbacks]

    def test_bare_shared_scalar_write_falls_back(self):
        result, reasons = self.fallback_reasons("""
def main():
    last = 0
    parallel for i in [0 ... 9]:
        last = i
    print(last)
""")
        assert result.backend.pool_workers == 0
        assert any("shared variable 'last'" in r for r in reasons)

    def test_non_reduction_lock_body_falls_back(self):
        result, reasons = self.fallback_reasons("""
class Counter:
    value int
    def bump():
        self.value = self.value + 1

def main():
    c = Counter(0)
    parallel for i in [0 ... 9]:
        lock c:
            c.bump()
    print(c.value)
""")
        assert result.output == "10\n"
        assert result.backend.pool_workers == 0
        assert any("not a reduction" in r for r in reasons)

    def test_nested_parallel_falls_back(self):
        result, reasons = self.fallback_reasons("""
def main():
    parallel for i in [0 ... 3]:
        parallel:
            pass
""")
        assert any("nested parallel" in r for r in reasons)

    def test_fallback_still_runs_with_thread_semantics(self):
        # The fallback path IS the thread backend: a racy non-reduction
        # program still completes (albeit with thread interleavings).
        text = """
def main():
    total = 0
    parallel for i in [1 ... 20]:
        lock t:
            total += i
            total -= 0
    print(total)
"""
        result = run_proc(text)
        assert result.output == "210\n"
        assert result.backend.pool_workers == 0

    def test_small_loops_stay_in_process(self):
        text = """
def main():
    count = 0
    parallel for i in [1 ... 1]:
        lock count:
            count += 1
    print(count)
"""
        result = run_proc(text)
        assert result.output == "1\n"
        assert result.backend.pool_workers == 0

    def test_race_detection_pins_to_threads(self):
        result = run_source(PRIMES, backend="proc", detect_races=True,
                            config=cfg(detect_races=True))
        assert result.output.strip() == "62"
        assert result.backend.pool_workers == 0


class TestMergeDiagnostics:
    CYCLIC_ROWS = """
def main():
    rows = [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6]]
    parallel for row in rows:
        row[0] = row[1] * 10
    total = 0
    for i in [0 ... 5]:
        total = total + rows[i][0]
    print(total)
"""

    def test_cyclic_chunking_labels_items_by_original_index(self):
        # Regression: under cyclic dealing chunk w holds items w, w+jobs,
        # w+2*jobs, … — labeling them from a contiguous start made edits
        # to *different* rows collide (chunk 0's second item and chunk 1's
        # first were both "<item 1>") and raised a spurious conflict.
        seq = run_source(self.CYCLIC_ROWS, backend="sequential")
        proc = run_proc(self.CYCLIC_ROWS, config=cfg(chunking="cyclic"))
        assert proc.output == seq.output == "210\n"
        assert proc.backend.fallbacks == []
        assert proc.backend.pool_workers == 4

    def test_aliased_item_writes_conflict_by_identity(self):
        # triple holds ONE array at three positions.  With two workers the
        # block chunks are [p, p] and [p]: the first worker's increments
        # stack to 2, the second's copy ends at 1 — disagreeing writes to
        # the same underlying object must raise, not last-write-win
        # (distinct "<item N>" labels used to hide the collision).
        with pytest.raises(TetraRuntimeError) as err:
            run_proc("""
def main():
    p = [0]
    triple = [p, p, p]
    parallel for q in triple:
        q[0] = q[0] + 1
    print(p[0])
""", config=RuntimeConfig(num_workers=2))
        assert "conflicting updates" in str(err.value)

    def test_enclosing_induction_container_falls_back(self):
        # The outer loop is thread-bound (nested parallel construct), so
        # the inner loop sees 'row' as a *private* binding holding a
        # mutable row of the shared grid.  Offloading would mutate a
        # pickled copy and silently drop the writes; the backend must keep
        # thread semantics instead.
        text = """
def main():
    grid = [[0, 0, 0], [0, 0, 0]]
    parallel for row in grid:
        parallel for j in [0 ... 2]:
            row[j] = 5
    print(grid[0][0] + grid[1][2])
"""
        seq = run_source(text, backend="sequential")
        result = run_proc(text)
        assert result.output == seq.output == "10\n"
        reasons = [r for _line, r in result.backend.fallbacks]
        assert any("'row'" in r and "induction variable" in r
                   for r in reasons)
        assert result.backend.pool_workers == 0

    def test_conflicting_element_writes_raise(self):
        with pytest.raises(TetraRuntimeError) as err:
            run_proc("""
def main():
    a = array(3, 0)
    parallel for i in [0 ... 9]:
        a[0] = i
    print(a[0])
""")
        message = str(err.value)
        assert "conflicting updates" in message
        assert "a[0]" in message
        assert "lock" in message

    def test_disjoint_writes_do_not_raise(self):
        result = run_proc(ELEMENT_STORES)
        assert "conflicting" not in result.output


def _no_span():
    from repro.source import NO_SPAN

    return NO_SPAN


class _FakeProc:
    def __init__(self, alive):
        self._alive = alive

    def is_alive(self):
        return self._alive


class _FakePool:
    """Just enough of _WorkerPool for ProcBackend._collect: a result
    queue, per-process liveness, and a shutdown hook."""

    def __init__(self, alive):
        import queue

        self.result_q = queue.Queue()
        self.procs = [_FakeProc(a) for a in alive]
        self.killed = False

    def any_alive(self):
        return any(p.is_alive() for p in self.procs)

    def shutdown(self, kill=False):
        self.killed = True


class TestResilience:
    SPIN = """
def main():
    parallel for i in [0 ... 3]:
        n = 0
        while true:
            n = n + 1
"""

    def test_worker_error_propagates_with_span(self):
        with pytest.raises(TetraZeroDivisionError) as err:
            run_proc("""
def main():
    parallel for i in [0 ... 9]:
        x = 10 / (i - 5)
        print(x)
""")
        assert err.value.span.line == 4

    def test_time_limit_kills_the_pool_promptly(self):
        t0 = time.perf_counter()
        with pytest.raises(TetraLimitError) as err:
            run_proc(self.SPIN, config=cfg(time_limit=1.0))
        assert time.perf_counter() - t0 < 8.0
        assert err.value.limit == "time"

    def test_cancel_token_kills_the_pool_promptly(self):
        token = CancelToken()
        threading.Timer(0.5, lambda: token.cancel("stop the test")).start()
        t0 = time.perf_counter()
        with pytest.raises(TetraCancelledError) as err:
            run_proc(self.SPIN, config=cfg(cancel=token))
        assert time.perf_counter() - t0 < 8.0
        assert "stop the test" in str(err.value)

    def test_dead_chunk_owner_fails_fast_while_others_live(self):
        # One worker is killed (OOM/segfault) after claiming a task while
        # its siblings stay alive blocked on the task queue: the collect
        # loop must raise promptly instead of spinning forever waiting for
        # a chunk that can never report.
        pool = _FakePool(alive=[True, False])
        pool.result_q.put(("pick", 0, 1))  # worker 2 claimed task 0, died
        backend = ProcBackend(cfg())
        t0 = time.perf_counter()
        with pytest.raises(TetraThreadError) as err:
            backend._collect(pool, 1, _no_span())
        assert time.perf_counter() - t0 < 5.0
        assert "worker 2 died" in str(err.value)
        assert pool.killed

    def test_idle_worker_death_does_not_abort_live_progress(self):
        # A dead worker with no outstanding claim must not fail the run:
        # the survivors still drain the task queue.
        pool = _FakePool(alive=[True, False])

        def finish():
            import pickle
            pool.result_q.put(("pick", 0, 0))
            pool.result_q.put(("ok", 0, pickle.dumps(("done",))))

        threading.Timer(0.2, finish).start()
        backend = ProcBackend(cfg())
        results, failures = backend._collect(pool, 1, _no_span())
        assert results[0] == ("done",)
        assert failures == {}
        assert not pool.killed

    def test_pool_is_shut_down_after_the_run(self):
        result = run_proc(PRIMES)
        backend = result.backend
        assert backend.pool is None

    def test_stress_matrix_has_a_proc_column(self):
        report = run_stress(PRIMES, seeds=2, backends=("proc",),
                            time_limit=30.0)
        outcomes = [o for o in report.outcomes if o.backend == "proc"]
        assert len(outcomes) == 2
        assert all(o.status == "ok" for o in outcomes)
        assert all(o.output.strip() == "62" for o in outcomes)


class TestObservability:
    def test_worker_spans_land_in_metrics_and_trace(self):
        result = run_proc(PRIMES, trace=True, metrics=True)
        m = result.metrics
        assert m.backend == "proc"
        assert m.proc is not None
        assert m.proc["workers"] == 4
        workers = [lbl for lbl in m.thread_busy if "proc worker" in lbl]
        # Chunks come off a shared task queue, so on a loaded (or 1-core)
        # machine one worker can serve a sibling's chunk — every chunk is
        # accounted for, but not every pool process necessarily ran one.
        assert 1 <= len(workers) <= 4
        assert all(busy >= 0 for busy in m.thread_busy.values())
        [parfor] = m.parallel_for
        assert 1 <= parfor.workers <= 4
        assert sum(parfor.items) == 299
        trace = result.chrome_trace()
        events = trace["traceEvents"] if isinstance(trace, dict) else trace
        text = str(events)
        assert "proc worker" in text

    def test_fallback_reasons_surface_in_metrics(self):
        result = run_source("""
def main():
    last = 0
    parallel for i in [0 ... 9]:
        last = i
    print(last)
""", backend="proc", metrics=True, config=cfg(metrics=True))
        assert result.metrics.proc is not None
        fallbacks = result.metrics.proc["fallbacks"]
        assert len(fallbacks) == 1
        rendered = result.metrics.render()
        assert "ran on threads" in rendered


class TestChunking:
    def test_dynamic_validates_everywhere(self):
        RuntimeConfig(chunking="dynamic")
        with pytest.raises(ValueError):
            RuntimeConfig(chunking="stripes")

    def test_guided_sizes_cover_and_decrease(self):
        sizes = guided_chunk_sizes(1000, 4)
        assert sum(sizes) == 1000
        assert sizes == sorted(sizes, reverse=True)
        assert guided_chunk_sizes(3, 8) == [1, 1, 1]
        assert guided_chunk_sizes(0, 4) == []

    @pytest.mark.parametrize("backend", ["sequential", "thread", "sim"])
    def test_dynamic_chunking_in_process(self, backend):
        text = """
def main():
    total = 0
    parallel for i in [1 ... 100]:
        lock total:
            total += i
    print(total)
"""
        result = run_source(text, backend=backend,
                            config=RuntimeConfig(num_workers=4,
                                                 chunking="dynamic"))
        assert result.output == "5050\n"


class TestPlanAnalysis:
    def plan_of(self, text):
        from repro.api import compile_source

        program, _source = compile_source(text)
        [node] = [n for fn in program.functions for n in walk(fn.body)
                  if isinstance(n, ParallelFor)]
        return plan_parallel_for(node, program)

    def test_primes_plan_is_a_sum_reduction(self):
        plan = self.plan_of(PRIMES)
        assert plan.ok
        assert plan.reductions == {"count": "sum"}

    def test_guarded_max_plan(self):
        plan = self.plan_of(GUARDED_MAX)
        assert plan.ok
        assert plan.reductions == {"best": "max"}

    def test_sequential_for_variable_is_shared_hence_ineligible(self):
        plan = self.plan_of("""
def main():
    total = 0
    parallel for i in [1 ... 8]:
        for j in [1 ... 3]:
            lock total:
                total += j
    print(total)
""")
        assert not plan.ok

    def test_read_builtins_are_ineligible(self):
        plan = self.plan_of("""
def main():
    total = 0
    parallel for i in [1 ... 8]:
        x = read_int()
        lock total:
            total += x
    print(total)
""")
        assert not plan.ok
        assert "read" in plan.reason

    def test_plan_is_cached_on_the_node(self):
        from repro.api import compile_source

        program, _source = compile_source(PRIMES)
        [node] = [n for fn in program.functions for n in walk(fn.body)
                  if isinstance(n, ParallelFor)]
        first = plan_parallel_for(node, program)
        second = plan_parallel_for(node, program)
        assert first is second


def _diff_per_leaf(old, new, path, out):
    """``diff_value`` without its array fast paths: one call per element,
    the leaf rule ``old != new`` unless both are NaN."""
    from repro.runtime.values import TetraArray, TetraDict

    if type(old) is not type(new):
        if old != new:
            out.append((path, new))
    elif isinstance(old, TetraArray):
        if len(old.items) != len(new.items):
            out.append((path, new))
            return
        for i, (o, n) in enumerate(zip(old.items, new.items)):
            _diff_per_leaf(o, n, path + (("i", i),), out)
    elif isinstance(old, TetraDict):
        for key in sorted(set(old.items) | set(new.items)):
            if key not in new.items:
                out.append((path + (("del", key),), None))
            elif key not in old.items:
                out.append((path + (("k", key),), new.items[key]))
            else:
                _diff_per_leaf(old.items[key], new.items[key],
                               path + (("k", key),), out)
    elif old != new and not (old != old and new != new):
        out.append((path, new))


class TestMergeDiff:
    """The array fast paths of ``diff_value`` (one list comparison for an
    unchanged array, a plain loop over a flat one) record exactly what the
    per-element recursion records."""

    @staticmethod
    def _cases():
        import pickle

        from repro.runtime.values import TetraArray, TetraDict
        from repro.types import INT, REAL, ArrayType

        nan = float("nan")
        grid = TetraArray([TetraArray([1, 2], INT), TetraArray([3, 4], INT)],
                          ArrayType(INT))
        cases = [
            (TetraArray([1, 2, 3], INT), TetraArray([1, 2, 3], INT)),
            (TetraArray([1, 2, 3], INT), TetraArray([1, 5, 3], INT)),
            (TetraArray([1, 2, 3], INT), TetraArray([1, 2], INT)),
            # A NaN element is unchanged in the worker's copy.
            (TetraArray([0.5, nan], REAL), TetraArray([0.5, nan], REAL)),
            (TetraArray([0.5, nan], REAL), TetraArray([0.5, 2.0], REAL)),
            # An int and an equal real are not a change; 1 vs 1.5 is.
            (TetraArray([1.0, 2.0], REAL), TetraArray([1, 2.0], REAL)),
            (TetraArray([1.0, 2.0], REAL), TetraArray([1.5, 2], REAL)),
            (TetraArray([True, False], INT), TetraArray([1, 0], INT)),
            (grid, TetraArray([TetraArray([1, 2], INT),
                               TetraArray([3, 9], INT)], ArrayType(INT))),
            (TetraDict({"a": 1}, INT, INT), TetraDict({"a": 2, "b": 3},
                                                      INT, INT)),
        ]
        # The merge diffs the worker's unpickled copy against the original.
        return [(old, pickle.loads(pickle.dumps(new))) for old, new in cases]

    def test_array_fast_paths_match_the_per_leaf_rule(self):
        from repro.runtime.parplan import diff_value

        for old, new in self._cases():
            fast, slow = [], []
            diff_value(old, new, (), fast)
            _diff_per_leaf(old, new, (), slow)
            assert sorted(map(repr, fast)) == sorted(map(repr, slow)), (old,
                                                                      new)

    @pytest.mark.parametrize("body", [
        "xs[i] = xs[i] * 2.0",  # no worker touches the NaN in xs[0]
        "xs[0] = big - big",    # every worker writes a NaN to xs[0]
    ])
    def test_nan_slots_merge_as_on_threads(self, body):
        text = f"""
def main():
    big = 1.0e308 * 10.0
    xs = [big - big, 1.0, 2.0, 3.0, 4.0, 5.0]
    parallel for i in [1 ... 5]:
        {body}
    print(xs)
"""
        thread = run_source(text, backend="thread", config=cfg(num_workers=2))
        proc = run_proc(text, config=cfg(num_workers=2))
        assert proc.output == thread.output
        assert proc.backend.pool_workers == 2
        assert proc.backend.fallbacks == []
