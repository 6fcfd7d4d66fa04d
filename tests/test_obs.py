"""Observability-layer tests: tracing, metrics, profiling, virtual clocks.

Covers the :mod:`repro.obs` subsystem end to end — Chrome trace export and
metric aggregation on every backend, the per-line profiler, the
``clock()``-reads-the-backend-clock bugfix (virtual deltas equal charged
cost units on sim), coop-backend determinism (same seed, same bytes), the
uniform error-path diagnostics, and the REPL/IDE program-cache wiring.
"""

import json
import re
import textwrap

import pytest

from repro.api import (
    cached_parse,
    clear_program_cache,
    program_cache_info,
    run_source,
)
from repro.errors import TetraDeadlockError, TetraError, TetraThreadError
from repro.ide.session import IDESession
from repro.obs import chrome_trace, line_profile, render_profile
from repro.runtime import RuntimeConfig, SequentialBackend, SimBackend
from repro.runtime.coop import CoopBackend, RandomPolicy
from repro.stdlib.io import CapturingIO
from repro.tools.cli import main as cli_main
from repro.tools.repl import ReplSession

PARALLEL_PROGRAM = textwrap.dedent("""
    def work(n int) int:
        total = 0
        i = 0
        while i < n:
            total += i
            i += 1
        return total

    def main():
        total = 0
        parallel for i in [1 ... 8]:
            x = work(10 * i)
            lock tally:
                total += x
        parallel:
            a = work(5)
            b = work(5)
        print(total)
""")

BACKENDS = ["thread", "sequential", "coop", "sim"]


def run_with_obs(backend="sim", text=PARALLEL_PROGRAM, **kwargs):
    return run_source(text, backend=backend, cache=False,
                      trace=True, metrics=True, **kwargs)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_is_valid_chrome_json(self, backend):
        result = run_with_obs(backend)
        doc = result.chrome_trace()
        text = json.dumps(doc)          # must be JSON-serializable
        loaded = json.loads(text)
        events = loaded["traceEvents"]
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["otherData"]["backend"] == backend
        assert events, "trace should not be empty"
        for ev in events:
            assert ev["ph"] in ("X", "M")
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            if ev["ph"] == "X":
                assert ev["ts"] >= 0
                assert ev["dur"] >= 0
                assert ev["cat"]

    def test_trace_has_thread_and_group_spans(self):
        result = run_with_obs("sim")
        events = result.chrome_trace()["traceEvents"]
        cats = {e.get("cat") for e in events if e["ph"] == "X"}
        assert {"program", "thread", "fork", "lock"} <= cats
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert any("parallel for" in n for n in names)
        # Thread-name metadata maps every tid used by a span.
        meta_tids = {e["tid"] for e in events
                     if e["ph"] == "M" and e["name"] == "thread_name"}
        span_tids = {e["tid"] for e in events
                     if e["ph"] == "X" and e["pid"] == 1}
        assert span_tids <= meta_tids

    def test_sim_trace_includes_schedule_lane(self):
        result = run_with_obs("sim")
        events = result.chrome_trace()["traceEvents"]
        assert any(e["pid"] == 2 for e in events), \
            "sim traces carry the machine-model schedule as a second process"

    def test_untraced_run_raises(self):
        result = run_source(PARALLEL_PROGRAM, backend="sequential",
                            cache=False)
        assert result.obs is None
        with pytest.raises(ValueError):
            result.chrome_trace()

    def test_cli_writes_trace_file(self, tmp_path, capsys):
        prog = tmp_path / "p.ttr"
        prog.write_text(PARALLEL_PROGRAM)
        out = tmp_path / "trace.json"
        assert cli_main(["run", str(prog), "--backend", "sim",
                         "--trace", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metrics_shape_on_every_backend(self, backend):
        result = run_with_obs(backend)
        m = result.metrics
        assert m is not None
        d = m.to_dict()
        assert d["backend"] == backend
        assert d["wall_time_s"] >= 0
        assert d["threads"] >= 3  # main + workers + parallel children
        assert "tally" in d["locks"]
        assert d["locks"]["tally"]["acquisitions"] == 8
        assert len(d["parallel_for"]) == 1
        pf = d["parallel_for"][0]
        assert sum(pf["items"]) == 8
        assert pf["skew"] >= 1.0
        rendered = m.render()
        assert "lock tally" in rendered
        assert "load skew" in rendered

    def test_sim_metrics_carry_machine_verdict(self):
        m = run_with_obs("sim").metrics
        assert m.sim is not None
        assert m.sim["cores"] >= 1
        assert m.sim["makespan"] > 0
        assert m.sim["speedup"] == pytest.approx(
            m.sim["serial_makespan"] / m.sim["makespan"])
        # The machine model's verdict is authoritative on sim.
        assert m.estimated_speedup == pytest.approx(m.sim["speedup"])
        assert m.elapsed == pytest.approx(m.sim["makespan"])

    def test_virtual_busy_is_charged_work(self):
        """On sim, a worker that does twice the work shows about twice the
        busy units — lifetimes on the shared virtual clock would not."""
        m = run_with_obs("sim", config=RuntimeConfig(num_workers=8)).metrics
        busy = {label: b for label, b in m.thread_busy.items()
                if "worker" in label}
        assert len(busy) == 8
        w1 = next(b for lab, b in busy.items() if lab.startswith("worker 1 "))
        w8 = next(b for lab, b in busy.items() if lab.startswith("worker 8 "))
        assert w8 > 4 * w1  # work(80) vs work(10), minus fixed overhead

    def test_contended_lock_counted_on_coop(self):
        # Round-robin at every statement forces both threads inside the
        # spin loops to overlap their lock windows deterministically.
        text = textwrap.dedent("""
            def spin():
                i = 0
                lock shared:
                    while i < 20:
                        i += 1

            def main():
                parallel:
                    spin()
                    spin()
        """)
        result = run_source(text, backend=CoopBackend(), cache=False,
                            metrics=True)
        locks = result.metrics.locks["shared"]
        assert locks.acquisitions == 2
        assert locks.contended >= 1
        assert locks.wait_time > 0

    def test_metrics_without_locks_or_parallel_for(self):
        m = run_source("def main():\n    print(1)\n", backend="sequential",
                       cache=False, metrics=True).metrics
        assert m.locks == {}
        assert m.parallel_for == []
        assert "(no locks used)" in m.render()
        assert "(no parallel for)" in m.render()


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
class TestProfile:
    def test_sim_profile_charges_units_to_hot_lines(self):
        result = run_source(PARALLEL_PROGRAM, backend="sim", cache=False,
                            profile=True)
        rows = line_profile(result.obs)
        assert rows, "profile should have rows"
        # A line of work()'s loop body dominates the charged units.
        hottest_line = rows[0][0]
        assert hottest_line in (5, 6, 7)
        assert rows[0][2] > 0  # units populated on an accounting backend
        rendered = render_profile(result.obs)
        assert "hottest lines" in rendered

    def test_thread_profile_counts_statements(self):
        result = run_source(PARALLEL_PROGRAM, backend="thread", cache=False,
                            profile=True)
        rows = line_profile(result.obs)
        assert rows and rows[0][1] > 1  # hit counts, no unit accounting

    def test_cli_profile_prints_table(self, tmp_path, capsys):
        prog = tmp_path / "p.ttr"
        prog.write_text(PARALLEL_PROGRAM)
        assert cli_main(["run", str(prog), "--backend", "sim",
                         "--profile"]) == 0
        err = capsys.readouterr().err
        assert "hottest lines" in err
        assert "while i < n" in err  # source text is shown


# ----------------------------------------------------------------------
# clock() reads the backend clock (the cross-backend clock bugfix)
# ----------------------------------------------------------------------
CLOCK_PROGRAM = textwrap.dedent("""
    def work(n int) int:
        total = 0
        i = 0
        while i < n:
            total += i
            i += 1
        return total

    def main():
        t0 = clock()
        x = work(10)
        t1 = clock()
        y = work(20)
        t2 = clock()
        z = work(30)
        t3 = clock()
        print(t1 - t0)
        print(t2 - t1)
        print(t3 - t2)
""")


class TestBackendClock:
    def test_sim_now_advances_by_charged_units(self):
        backend = SimBackend()
        t0 = backend.now()
        backend.recorder.current.charge(50)
        assert backend.now() - t0 == 50.0

    @pytest.mark.parametrize("detect_races", [True, False])
    def test_sim_clock_deltas_are_deterministic_units(self, detect_races):
        # With detection on, every shared access runs a compiled race hook;
        # the virtual clock must still advance in whole, repeatable units.
        first = run_source(CLOCK_PROGRAM, backend="sim", cache=False,
                           detect_races=detect_races).output
        second = run_source(CLOCK_PROGRAM, backend="sim", cache=False,
                            detect_races=detect_races).output
        assert first == second, "virtual deltas never vary run to run"
        d1, d2, d3 = (float(line) for line in first.splitlines())
        assert d1 > 0 and d1 == int(d1), "deltas are whole cost units"
        # work(n) is exactly linear in n, so the unit deltas are exactly
        # equidistant — host-clock readings could never satisfy this.
        assert d3 - d2 == d2 - d1

    def test_coop_clock_counts_scheduler_turns(self):
        first = run_source(CLOCK_PROGRAM, backend=CoopBackend(),
                           cache=False).output
        second = run_source(CLOCK_PROGRAM, backend=CoopBackend(),
                            cache=False).output
        assert first == second
        d1, d2, d3 = (float(line) for line in first.splitlines())
        assert d1 > 0 and d1 == int(d1)
        assert d3 - d2 == d2 - d1

    def test_thread_clock_still_wall_time(self):
        out = run_source(
            "def main():\n"
            "    t0 = clock()\n"
            "    sleep(0.02)\n"
            "    t1 = clock()\n"
            "    print(t1 - t0 >= 0.015)\n",
            backend="thread", cache=False).output
        assert out == "true\n"


# ----------------------------------------------------------------------
# Coop determinism: same seed, same bytes
# ----------------------------------------------------------------------
RACY_MAX = textwrap.dedent("""
    def main():
        largest = 0
        parallel for num in [90, 5]:
            if num > largest:
                largest = num
        print(largest)
""")


def coop_artifacts(seed: int, text: str = PARALLEL_PROGRAM):
    """(trace json bytes, metrics dict sans wall time) for one seeded run."""
    result = run_source(text, backend=CoopBackend(RandomPolicy(seed)),
                        cache=False, trace=True, metrics=True,
                        config=RuntimeConfig(num_workers=4))
    doc = result.chrome_trace()
    metrics = result.metrics.to_dict()
    metrics.pop("wall_time_s")
    return json.dumps(doc, sort_keys=True), metrics, result.output


class TestCoopDeterminism:
    def test_same_seed_same_bytes(self):
        a_trace, a_metrics, a_out = coop_artifacts(7)
        b_trace, b_metrics, b_out = coop_artifacts(7)
        assert a_out == b_out
        assert a_metrics == b_metrics
        assert a_trace == b_trace, \
            "same seed must reproduce the trace byte for byte"

    def test_different_seeds_can_change_racy_outcome(self):
        outputs = set()
        for seed in range(40):
            result = run_source(
                RACY_MAX, backend=CoopBackend(RandomPolicy(seed)),
                cache=False, config=RuntimeConfig(num_workers=2))
            outputs.add(result.output)
        assert len(outputs) > 1, \
            "RACY_MAX's lost update should be schedule-sensitive"


# ----------------------------------------------------------------------
# Uniform runtime-error diagnostics (the error-path bugfix)
# ----------------------------------------------------------------------
FAILING = textwrap.dedent("""
    def boom(x int) int:
        return 10 / x

    def main():
        parallel:
            a = boom(0)
            b = boom(0)
        print(a)
""")

DEADLOCK = textwrap.dedent("""
    def take_ab():
        lock a:
            x = 0
            while x < 5:
                x += 1
            lock b:
                y = 1

    def take_ba():
        lock b:
            x = 0
            while x < 5:
                x += 1
            lock a:
                y = 1

    def main():
        parallel:
            take_ab()
            take_ba()
""")


class TestErrorPaths:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cli_exit_nonzero_with_span(self, backend, tmp_path, capsys):
        prog = tmp_path / "p.ttr"
        prog.write_text(FAILING)
        assert cli_main(["run", str(prog), "--backend", backend]) == 1
        err = capsys.readouterr().err
        assert "division by zero" in err
        # The diagnostic must anchor at a source span (file:line:col plus a
        # caret snippet), not arrive as a bare message.
        assert re.search(r"p\.ttr:\d+:\d+:", err)
        assert "^" in err

    @pytest.mark.parametrize("backend", ["sequential", "sim"])
    def test_multiple_child_failures_aggregate(self, backend):
        with pytest.raises(TetraThreadError) as exc_info:
            run_source(FAILING, backend=backend, cache=False)
        assert "2 parallel threads failed" in str(exc_info.value)

    def test_coop_deadlock_carries_span(self):
        with pytest.raises(TetraDeadlockError) as exc_info:
            run_source(DEADLOCK, backend=CoopBackend(), cache=False,
                       config=RuntimeConfig(num_workers=2))
        exc = exc_info.value
        assert "deadlock" in exc.message
        assert exc.span.line > 0, "coop deadlocks must point at a lock site"

    def test_cli_metrics_printed_even_when_run_fails(self, tmp_path, capsys):
        prog = tmp_path / "p.ttr"
        prog.write_text(FAILING)
        assert cli_main(["run", str(prog), "--backend", "sequential",
                         "--metrics"]) == 1
        err = capsys.readouterr().err
        assert "division by zero" in err
        assert "run metrics" in err


# ----------------------------------------------------------------------
# REPL / IDE program-cache wiring
# ----------------------------------------------------------------------
class TestFrontEndCaching:
    def setup_method(self):
        clear_program_cache()

    def teardown_method(self):
        clear_program_cache()

    def test_cached_parse_hits_on_repeat(self):
        tag = object()
        p1, s1 = cached_parse("def f() int:\n    return 1\n", tag=tag)
        p2, _ = cached_parse("def f() int:\n    return 1\n", tag=tag)
        assert p1 is p2
        info = program_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_cached_parse_is_session_scoped(self):
        text = "def f() int:\n    return 1\n"
        pa, _ = cached_parse(text, tag="session-a")
        pb, _ = cached_parse(text, tag="session-b")
        assert pa is not pb, \
            "annotated ASTs must not leak across sessions"

    def test_repl_reruns_hit_the_cache(self):
        session = ReplSession(CapturingIO())
        session.run_statements("x = 1\n")
        before = program_cache_info()["hits"]
        session.run_statements("x = 1\n")
        assert program_cache_info()["hits"] == before + 1

    def test_repl_definitions_hit_the_cache(self):
        session = ReplSession(CapturingIO())
        text = "def f(n int) int:\n    return n + 1\n"
        session.define_functions(text)
        before = program_cache_info()["hits"]
        session.define_functions(text)
        assert program_cache_info()["hits"] == before + 1
        expr = session.try_parse_expression("f(41)")
        assert session.eval_expression(expr) == "42"

    def test_repl_cache_false_bypasses(self):
        session = ReplSession(CapturingIO(), cache=False)
        session.run_statements("x = 1\n")
        session.run_statements("x = 1\n")
        info = program_cache_info()
        assert info["hits"] == 0 and info["misses"] == 0

    def test_two_repl_sessions_do_not_share_entries(self):
        a = ReplSession(CapturingIO())
        b = ReplSession(CapturingIO())
        a.run_statements("x = 1\n")
        before = program_cache_info()["hits"]
        b.run_statements("x = 1\n")
        assert program_cache_info()["hits"] == before, \
            "session b must miss: trees are annotated per session"

    def test_ide_rerun_hits_the_cache(self):
        session = IDESession('def main():\n    print("hi")\n')
        assert session.run() == "hi\n"
        before = program_cache_info()["hits"]
        assert session.run() == "hi\n"
        assert program_cache_info()["hits"] > before

    def test_ide_diagnostics_warm_the_cache_for_run(self):
        session = IDESession('def main():\n    print("hi")\n')
        assert session.diagnostics() == []
        before = program_cache_info()["hits"]
        session.run()
        assert program_cache_info()["hits"] > before

    def test_ide_diagnostics_still_list_all_errors(self):
        session = IDESession("def main():\n    x = yy\n    z = ww\n")
        diags = session.diagnostics()
        assert len(diags) == 2

    def test_ide_cache_false_bypasses(self):
        session = IDESession('def main():\n    print("hi")\n', cache=False)
        session.run()
        session.run()
        info = program_cache_info()
        assert info["hits"] == 0 and info["misses"] == 0


# ----------------------------------------------------------------------
# Overhead contract: hooks vanish when disabled
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_disabled_run_creates_no_observer(self):
        result = run_source(PARALLEL_PROGRAM, backend="sequential",
                            cache=False)
        assert result.obs is None
        assert result.metrics is None
        assert result.backend.obs is None

    def test_lean_fast_path_survives_tracing_off(self):
        """The compiler stays on the lean path when observability is
        off (the <2% fib regression budget depends on this)."""
        from repro.api import compile_source
        from repro.interp import Interpreter

        program, source = compile_source("def main():\n    x = 1\n")
        interp = Interpreter(program, source,
                             backend=SequentialBackend(),
                             io=CapturingIO([]))
        assert interp._obs is None
        assert interp.compiled is not None
