"""Guardrails, clean cancellation, and the seeded chaos harness.

Covers the resilience layer end to end: time/memory limits and the cancel
token on all four backends, SIGINT aborting cleanly with partial reports,
wait-for-graph deadlock reports carrying the span of *every* blocked lock
statement, seed-deterministic fault injection on the virtual-clock
backends, and ``tetra stress`` flipping a known-racy example.
"""

import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import run_source
from repro.errors import (
    EXIT_CANCELLED,
    EXIT_DEADLOCK,
    EXIT_LIMIT,
    TetraCancelledError,
    TetraDeadlockError,
    TetraInternalError,
    TetraLimitError,
    exit_code_for,
    is_catchable,
)
from repro.resilience import CancelToken, FaultPlan, run_stress
from repro.runtime import RuntimeConfig
from repro.runtime.locks import LockTable
from repro.source import Span

BACKENDS = ["thread", "sequential", "coop", "sim"]

SPIN = """
def main():
    print("started")
    i = 0
    while true:
        i = i + 1
"""

RACY_MAX = """
def racy_max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            largest = num
    return largest

def main():
    nums = [90, 1, 2, 3]
    print(racy_max(nums))
"""

ABBA = """
def take_ab():
    lock a:
        x = 1
        lock b:
            x = 2

def take_ba():
    lock b:
        y = 1
        lock a:
            y = 2

def main():
    parallel:
        take_ab()
        take_ba()
"""


def _limit_for(backend: str) -> float:
    # Host seconds on the real-clock backends, virtual units on sim/coop.
    return 0.5 if backend in ("thread", "sequential") else 2000.0


class TestTimeLimit:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infinite_loop_aborts_on_every_backend(self, backend):
        result = run_source(SPIN, backend=backend, cache=False,
                            time_limit=_limit_for(backend),
                            on_error="return")
        assert result.aborted_by == "time"
        assert isinstance(result.error, TetraLimitError)
        assert result.error.limit == "time"
        # Partial output from before the abort survives.
        assert result.output == "started\n"
        # The diagnostic points into the loop and suggests the remedy.
        assert result.error.span.line > 0
        assert "--time-limit" in result.error.message

    @pytest.mark.parametrize("backend", ["coop", "sim"])
    def test_virtual_limits_are_deterministic(self, backend):
        errors = set()
        for _ in range(2):
            result = run_source(SPIN, backend=backend, cache=False,
                                time_limit=500.0, on_error="return")
            errors.add(str(result.error))
        assert len(errors) == 1

    def test_time_limit_exit_code(self):
        exc = TetraLimitError("too slow", limit="time")
        assert exit_code_for(exc) == EXIT_LIMIT


class TestMemoryLimit:
    def test_allocation_bomb_aborts(self):
        result = run_source(
            """
def main():
    keep = [0]
    i = 0
    while i < 100000:
        keep = concat(keep, [1, 2, 3, 4, 5, 6, 7, 8])
        i = i + 1
""",
            backend="sequential", cache=False, memory_limit=3000,
            on_error="return")
        assert result.aborted_by == "memory"
        assert result.error.limit == "memory"
        assert "memory budget" in result.error.message

    def test_live_heap_not_cumulative_allocation(self):
        # Dropped containers are credited back by their finalizers: a loop
        # that allocates far more than the budget but keeps little alive
        # must run to completion.
        result = run_source(
            """
def main():
    i = 0
    while i < 2000:
        scratch = [1, 2, 3, 4, 5, 6, 7, 8]
        i = i + 1
    print("done")
""",
            backend="sequential", cache=False, memory_limit=1000,
            on_error="return")
        assert result.aborted_by is None, result.error
        assert result.output == "done\n"

    def test_not_catchable_by_tetra_try(self):
        result = run_source(
            """
def main():
    try:
        big = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        print(big[0])
    catch err:
        print("caught")
""",
            backend="sequential", cache=False, memory_limit=4,
            on_error="return")
        # The limit abort must NOT be swallowed by the student's catch.
        assert result.aborted_by == "memory"
        assert "caught" not in result.output


class TestCancellation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_token_cancels_run(self, backend):
        token = CancelToken()
        if backend in ("thread", "sequential"):
            threading.Timer(0.3, token.cancel, args=("test asked",)).start()
        else:
            # Virtual-clock backends run the loop deterministically; cancel
            # up front so the very first statement observes the token.
            token.cancel("test asked")
        result = run_source(SPIN, backend=backend, cache=False,
                            cancel=token, on_error="return")
        assert result.aborted_by == "cancelled"
        assert isinstance(result.error, TetraCancelledError)
        assert "test asked" in result.error.message

    def test_cancelled_is_not_catchable(self):
        assert not is_catchable(TetraCancelledError("stop"))
        assert exit_code_for(TetraCancelledError("stop")) == EXIT_CANCELLED

    def test_first_cancel_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"

    def test_sigint_aborts_cleanly_with_partial_metrics(self, tmp_path):
        prog = tmp_path / "spin.ttr"
        prog.write_text(SPIN)
        driver = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.tools.cli import main\n"
            "sys.exit(main(['run', %r, '--backend', 'thread',"
            " '--metrics']))\n" % str(prog)
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", driver], cwd="/root/repo",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        time.sleep(1.5)  # let it compile and enter the loop
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == EXIT_CANCELLED
        # Output printed before the interrupt survives the abort...
        assert b"started" in out
        # ...the diagnostic explains what happened...
        assert b"cancelled" in err
        assert b"Ctrl-C" in err
        # ...and the metrics report still renders (partial, not lost).
        assert b"run metrics" in err


class TestDeadlockSpans:
    def test_thread_locktable_cycle_reports_both_spans(self):
        table = LockTable()
        table.fallback_poll = 0.05
        table.register_thread("T1", "thread one")
        table.register_thread("T2", "thread two")
        span_a = Span(0, 4, 10, 5)
        span_b = Span(0, 4, 20, 9)
        table.acquire("a", "T1", span_a)
        table.acquire("b", "T2", span_b)
        caught = []

        def t1():
            try:
                table.acquire("b", "T1", span_a)
                table.release("b", "T1")
            except TetraDeadlockError as exc:
                caught.append(exc)
            finally:
                table.release("a", "T1")

        def t2():
            try:
                table.acquire("a", "T2", span_b)
                table.release("a", "T2")
            except TetraDeadlockError as exc:
                caught.append(exc)
            finally:
                table.release("b", "T2")

        threads = [threading.Thread(target=t1), threading.Thread(target=t2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert caught, "no deadlock detected"
        exc = caught[0]
        # The report carries the span of EVERY blocked lock statement.
        lines = {s.line for s in exc.blocked_spans}
        assert lines == {10, 20}
        assert exit_code_for(exc) == EXIT_DEADLOCK

    def test_abba_program_on_coop_reports_both_lock_lines(self):
        # The round-robin coop schedule interleaves the two takers into the
        # deadlock deterministically.
        result = run_source(ABBA, backend="coop", cache=False,
                            on_error="return")
        assert result.aborted_by == "deadlock"
        exc = result.error
        lines = {s.line for s in exc.blocked_spans}
        # Both blocked `lock` statements: `lock b:` in take_ab (line 5)
        # and `lock a:` in take_ba (line 11).
        assert lines == {5, 11}
        rendered = exc.render()
        assert "also blocked at" in rendered

    def test_lock_poll_interval_is_instance_configurable(self):
        table = LockTable()
        assert table.fallback_poll == LockTable.FALLBACK_POLL
        table.fallback_poll = 0.01
        assert LockTable.FALLBACK_POLL != 0.01  # class default untouched


class TestCoopSchedulerDiagnostics:
    def test_wait_until_paused_timeout_names_the_culprit(self):
        from repro.runtime.coop import CoopScheduler, RoundRobinPolicy

        sched = CoopScheduler(RoundRobinPolicy())

        class FakeCtx:
            id = 7
            label = "stuck thread"

        record = sched.register(FakeCtx())
        sched.statements_run[7] = 42
        sched.turn_holder = 7  # simulate a thread wedged mid-turn
        with pytest.raises(TetraInternalError) as info:
            sched.wait_until_paused(timeout=0.05)
        message = str(info.value)
        assert "stuck thread" in message
        assert record.state in message
        assert "42" in message


class TestChaosDeterminism:
    @pytest.mark.parametrize("backend", ["coop", "sim"])
    def test_same_seed_same_output_and_fault_schedule(self, backend):
        runs = []
        for _ in range(3):
            result = run_source(RACY_MAX, backend=backend, cache=False,
                                chaos_seed=11, on_error="return")
            runs.append((
                result.output,
                tuple((f.kind, f.where, f.detail) for f in result.faults),
                dict(result.fault_counts),
            ))
        assert runs[0] == runs[1] == runs[2]

    def test_different_seeds_reach_different_coop_schedules(self):
        outputs = {
            run_source(RACY_MAX, backend="coop", cache=False,
                       chaos_seed=seed, on_error="return").output
            for seed in range(8)
        }
        # The racy max has schedule-dependent answers; eight seeded
        # schedules must not all agree (that is the point of chaos).
        assert len(outputs) > 1

    def test_fault_plan_spawn_shuffle_is_seeded(self):
        jobs = [("ctx%d" % i, lambda: None) for i in range(6)]
        order1 = [c for c, _ in FaultPlan(3).perturb_jobs(list(jobs))]
        order2 = [c for c, _ in FaultPlan(3).perturb_jobs(list(jobs))]
        order3 = [c for c, _ in FaultPlan(4).perturb_jobs(list(jobs))]
        assert order1 == order2
        assert order1 != [c for c, _ in jobs] or order3 != order1

    def test_injected_thread_faults_are_aggregated(self):
        plan = FaultPlan(1, thread_fault_prob=1.0)
        result = run_source(
            """
def main():
    parallel:
        print("a")
        print("b")
""",
            backend="sequential", cache=False,
            config=RuntimeConfig(fault_plan=plan), on_error="return")
        assert result.aborted_by == "error"
        assert "injected" in str(result.error)
        assert result.fault_counts.get("thread-fault") == 2
        # The run drew from its own copy of the plan, not the caller's.
        assert plan.counts == {}


class TestRunConfig:
    """``run_config`` builds every run's config: a fresh copy with its own
    fault plan, so one RuntimeConfig can drive any number of runs."""

    SIX = "def main():\n    parallel:\n" + "".join(
        f"        print({i})\n" for i in range(1, 7))

    def test_reused_config_gives_identical_chaos_runs(self):
        cfg = RuntimeConfig(chaos_seed=3)
        first = run_source(self.SIX, backend="sim", config=cfg)
        second = run_source(self.SIX, backend="sim", config=cfg)
        keyword = run_source(self.SIX, backend="sim", chaos_seed=3)
        assert first.output == second.output == keyword.output
        assert first.fault_counts == second.fault_counts \
            == keyword.fault_counts == {"spawn-shuffle": 1}
        assert cfg.fault_plan.counts == {}

    def test_fresh_copy_and_keyword_precedence(self):
        from repro.runtime import run_config

        plan = FaultPlan(5, thread_fault_prob=0.5)
        base = RuntimeConfig(num_workers=2, fault_plan=plan)
        cfg = run_config(base, num_workers=3, trace=True)
        assert cfg is not base and cfg.fault_plan is not plan
        assert (cfg.num_workers, cfg.trace) == (3, True)
        assert (base.num_workers, base.trace) == (2, False)
        assert (cfg.fault_plan.seed, cfg.fault_plan.knobs) \
            == (plan.seed, plan.knobs)
        # A keyword seed replaces the base's plan; None drops it.
        assert run_config(base, chaos_seed=9).fault_plan.seed == 9
        assert run_config(RuntimeConfig(chaos_seed=4),
                          chaos_seed=None).fault_plan is None
        with pytest.raises(TypeError):
            run_config(base, no_such_knob=1)


class TestStressHarness:
    def test_stress_flips_known_racy_example(self):
        report = run_stress(RACY_MAX, seeds=8, backends=("coop",),
                            detect_races=True)
        assert report.findings >= 1
        assert report.divergent or report.race_hits
        text = report.render()
        assert "FINDING" in text

    def test_stress_report_is_reproducible_per_seed(self):
        kwargs = dict(seeds=5, backends=("coop",), detect_races=False)
        a = run_stress(RACY_MAX, **kwargs)
        b = run_stress(RACY_MAX, **kwargs)
        assert [o.output for o in a.outcomes] == \
            [o.output for o in b.outcomes]
        assert a.render() == b.render()

    def test_stress_clean_program_has_no_findings(self):
        report = run_stress(
            """
def main():
    total = 0
    lock sum:
        total = total + 1
    print(total)
""",
            seeds=3, backends=("coop", "sequential"), detect_races=True)
        assert report.findings == 0
        assert "no findings" in report.render()

    def test_stress_reports_deadlocks(self):
        # Not every seeded schedule hits the AB/BA window (that is the
        # point of running many); across a handful at least one must.
        report = run_stress(ABBA, seeds=4, backends=("coop",),
                            detect_races=False)
        assert len(report.deadlocks) >= 1
        assert "deadlock" in report.render()


class TestLimitMessagesAndCodes:
    def test_step_limit_names_flag_and_kind(self):
        result = run_source(SPIN, backend="sequential", cache=False,
                            config=RuntimeConfig(step_limit=100),
                            on_error="return")
        assert result.aborted_by == "steps"
        assert "--step-limit" in result.error.message

    def test_recursion_limit_names_kind(self):
        result = run_source(
            """
def loop(n int) int:
    return loop(n + 1)

def main():
    print(loop(0))
""",
            backend="sequential", cache=False,
            config=RuntimeConfig(recursion_limit=40), on_error="return")
        assert result.aborted_by == "recursion"
        assert "recursion depth exceeded" in result.error.message


class TestOutputLimit:
    """The captured-output guardrail: a print loop must not be an OOM
    vector just because the *value heap* stays small."""

    NOISY = 'def main():\n    while true:\n        print("aaaaaaaaaa")\n'

    def test_explicit_limit_aborts_with_output_kind(self):
        result = run_source(self.NOISY, output_limit=500,
                            on_error="return")
        assert result.aborted_by == "output"
        assert isinstance(result.error, TetraLimitError)
        assert exit_code_for(result.error) == EXIT_LIMIT
        assert "--output-limit" in result.error.message
        # Partial output survives: everything up to (and including) the
        # chunk that crossed the cap.
        assert 500 <= len(result.output) <= 520

    def test_memory_limit_derives_an_output_cap(self):
        # A tight heap budget used to leave output unbounded — the two
        # guardrails cover one OOM vector together now.
        from repro.resilience.guard import OUTPUT_CHARS_PER_CELL

        result = run_source(self.NOISY, memory_limit=10,
                            on_error="return")
        assert result.aborted_by == "output"
        cap = 10 * OUTPUT_CHARS_PER_CELL
        assert cap <= len(result.output) <= cap + 20

    def test_explicit_limit_wins_over_derived(self):
        result = run_source(self.NOISY, memory_limit=10,
                            output_limit=2000, on_error="return")
        assert result.aborted_by == "output"
        assert len(result.output) >= 2000

    def test_under_the_limit_is_untouched(self):
        result = run_source('def main():\n    print("ok")\n',
                            output_limit=100)
        assert result.output == "ok\n"

    @pytest.mark.parametrize("backend",
                             ["thread", "sequential", "coop", "sim"])
    def test_all_backends_enforce_it(self, backend):
        result = run_source(self.NOISY, backend=backend, output_limit=300,
                            on_error="return")
        assert result.aborted_by == "output"

    def test_parallel_writers_cannot_overshoot_much(self):
        src = (
            "def main():\n"
            "    parallel for i in [1 ... 4]:\n"
            "        while true:\n"
            '            print("bbbbbbbbbb")\n'
        )
        result = run_source(src, output_limit=1000, on_error="return")
        assert result.aborted_by == "output"
        # Metering happens under the write lock, so concurrent printers
        # stop within one chunk of the cap — not workers * chunks later.
        assert len(result.output) <= 1000 + 20
