"""LockTable unit tests: mutual exclusion, diagnostics, deadlock detection."""

import threading
import time

import pytest

from conftest import run_cli
from repro.errors import EXIT_LIMIT, TetraDeadlockError, TetraLimitError
from repro.runtime.locks import LockTable
from repro.source import Span


class TestBasics:
    def test_acquire_release_cycle(self):
        table = LockTable()
        table.acquire("a", 1)
        assert table.holder_of("a") == 1
        table.release("a", 1)
        assert table.holder_of("a") is None

    def test_known_locks(self):
        table = LockTable()
        table.acquire("z", 1)
        table.acquire("a", 1)
        assert table.known_locks() == ["a", "z"]

    def test_stats_count_acquisitions(self):
        table = LockTable()
        for _ in range(3):
            table.acquire("a", 1)
            table.release("a", 1)
        assert table.stats["a"].acquisitions == 3
        assert table.stats["a"].contended_acquisitions == 0

    def test_release_by_non_owner_rejected(self):
        table = LockTable()
        table.acquire("a", 1)
        with pytest.raises(TetraDeadlockError, match="does not hold"):
            table.release("a", 2)

    def test_self_reentry_diagnosed(self):
        # The interpreter refuses re-entry before any backend is asked; a
        # direct caller that waits on its own lock closes the shortest
        # cycle of the wait-for graph.
        table = LockTable()
        table.register_thread(1, "thread one")
        table.acquire("a", 1)
        with pytest.raises(TetraDeadlockError) as info:
            table.acquire("a", 1)
        assert str(info.value) == (
            "deadlock detected — these threads are waiting for each other "
            "in a cycle: thread one waits for 'lock a'; 'lock a' is held by "
            "thread one. Acquire locks in a consistent order to avoid this.")
        assert info.value.cycle == ("thread one waits for 'lock a'",
                                    "'lock a' is held by thread one")

    def test_reentry_message_names_thread(self):
        table = LockTable()
        table.register_thread(7, "worker 7")
        table.acquire("guard", 7)
        with pytest.raises(TetraDeadlockError, match="worker 7"):
            table.acquire("guard", 7)


class TestContention:
    def test_mutual_exclusion_with_real_threads(self):
        table = LockTable()
        counter = {"value": 0}

        def work(key):
            for _ in range(200):
                table.acquire("c", key)
                try:
                    # Deliberately non-atomic read-modify-write.
                    current = counter["value"]
                    counter["value"] = current + 1
                finally:
                    table.release("c", key)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["value"] == 800

    def test_contended_stat_increments(self):
        table = LockTable()
        table.acquire("a", 1)
        seen = []

        def waiter():
            table.acquire("a", 2)
            seen.append(True)
            table.release("a", 2)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        table.release("a", 1)
        t.join()
        assert seen == [True]
        assert table.stats["a"].contended_acquisitions >= 1


class TestDeadlockDetection:
    def test_two_thread_cycle_detected(self):
        table = LockTable()
        table.register_thread("T1", "thread one")
        table.register_thread("T2", "thread two")
        table.acquire("a", "T1")
        table.acquire("b", "T2")
        results = {}

        def t1():
            try:
                table.acquire("b", "T1")
                table.release("b", "T1")
            except TetraDeadlockError as e:
                results["T1"] = e
            finally:
                table.release("a", "T1")  # break the cycle so peers drain

        def t2():
            try:
                table.acquire("a", "T2")
                table.release("a", "T2")
            except TetraDeadlockError as e:
                results["T2"] = e
            finally:
                table.release("b", "T2")

        threads = [threading.Thread(target=t1), threading.Thread(target=t2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results, "at least one thread must detect the cycle"
        error = next(iter(results.values()))
        assert "deadlock detected" in str(error)
        assert "consistent order" in str(error)

    def test_waiting_without_cycle_is_not_deadlock(self):
        table = LockTable()
        table.acquire("a", 1)
        got = []

        def waiter():
            table.acquire("a", 2)
            got.append("ok")
            table.release("a", 2)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.1)  # several poll intervals: no false positive
        assert got == []
        table.release("a", 1)
        t.join()
        assert got == ["ok"]

    def test_three_thread_cycle_detected(self):
        table = LockTable()
        for key, name in [(1, "one"), (2, "two"), (3, "three")]:
            table.register_thread(key, name)
        table.acquire("a", 1)
        table.acquire("b", 2)
        table.acquire("c", 3)
        caught = []

        held = {1: "a", 2: "b", 3: "c"}

        def chase(key, want):
            try:
                table.acquire(want, key)
                table.release(want, key)
            except TetraDeadlockError as e:
                caught.append(e)
            finally:
                table.release(held[key], key)  # drain the other waiters

        threads = [
            threading.Thread(target=chase, args=(1, "b")),
            threading.Thread(target=chase, args=(2, "c")),
            threading.Thread(target=chase, args=(3, "a")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert caught
        assert caught[0].cycle  # the cycle description is attached


class TestEventDrivenWaiting:
    """The table wakes waiters on release and checks for cycles at block
    time — it must never depend on the fallback poll for correctness."""

    def test_release_wakes_waiter_promptly(self, monkeypatch):
        # With the fallback poll effectively disabled, a waiter must still
        # be woken by the release notification.
        monkeypatch.setattr(LockTable, "FALLBACK_POLL", 60.0)
        table = LockTable()
        table.acquire("a", 1)
        acquired = threading.Event()

        def waiter():
            table.acquire("a", 2)
            acquired.set()
            table.release("a", 2)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)  # let the waiter block
        start = time.monotonic()
        table.release("a", 1)
        assert acquired.wait(timeout=2.0), \
            "waiter not woken by release (stuck until fallback poll)"
        assert time.monotonic() - start < 2.0
        t.join(timeout=5)

    def test_cycle_detected_at_block_time(self, monkeypatch):
        # The thread that closes the cycle sees it immediately when it
        # blocks — no polling needed.
        monkeypatch.setattr(LockTable, "FALLBACK_POLL", 60.0)
        table = LockTable()
        table.register_thread("T1", "thread one")
        table.register_thread("T2", "thread two")
        table.acquire("a", "T1")
        table.acquire("b", "T2")
        caught = threading.Event()
        results = {}

        def t1():
            try:
                table.acquire("b", "T1")
                table.release("b", "T1")
            except TetraDeadlockError as e:
                results["T1"] = e
                caught.set()
            finally:
                table.release("a", "T1")

        def t2():
            try:
                table.acquire("a", "T2")
                table.release("a", "T2")
            except TetraDeadlockError as e:
                results["T2"] = e
                caught.set()
            finally:
                table.release("b", "T2")

        threads = [threading.Thread(target=t1), threading.Thread(target=t2)]
        start = time.monotonic()
        for t in threads:
            t.start()
        assert caught.wait(timeout=5.0), "cycle not detected at block time"
        assert time.monotonic() - start < 5.0
        for t in threads:
            t.join(timeout=10)
        assert results


class TestStoppedRun:
    """A stopped run — a time limit, a cancel, ``Interpreter.stop()`` —
    reaches threads parked on a lock, which poll no stop flag."""

    def test_stop_wakes_a_parked_waiter(self, monkeypatch):
        monkeypatch.setattr(LockTable, "FALLBACK_POLL", 60.0)
        table = LockTable()
        table.acquire("a", 1)
        parked = threading.Event()
        caught = []

        def waiter():
            try:
                table.acquire("a", 2, Span(0, 4, 7, 5), on_block=parked.set)
            except TetraLimitError as exc:
                caught.append(exc)

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        assert parked.wait(timeout=5)
        table.stop(lambda span: TetraLimitError("stopped", span))
        t.join(timeout=5)
        assert not t.is_alive(), "the parked waiter was not woken"
        assert [(e.message, e.span.line) for e in caught] == [("stopped", 7)]
        assert table.holder_of("a") == 1

    def test_time_limit_ends_a_lock_cycle_through_a_join(self, tmp_path):
        # hold_l holds l and joins a child that wants m; hold_m holds m
        # and wants l.  The join is not in the wait-for graph, so only
        # the time limit can end the run.
        proc = run_cli(tmp_path, """
            def hold_l():
                lock l:
                    sleep(0.6)
                    parallel:
                        lock m:
                            print("never")

            def hold_m():
                lock m:
                    sleep(0.3)
                    lock l:
                        print("never")

            def main():
                parallel:
                    hold_l()
                    hold_m()
        """, "--backend", "thread", "--time-limit", "2")
        assert proc.returncode == EXIT_LIMIT, proc.stderr
        assert proc.stdout == ""
        assert "exceeded its time limit of 2 seconds" in proc.stderr
