"""Execution-level deduplication in ``tetra serve``: request coalescing,
the pure-result cache, the determinism gate, and per-waiter cancel
semantics.

The legacy transport/pool suite (``test_serve.py``) runs with the result
cache off so it always exercises the live path; this file turns dedup on
and pins down its contract:

* N concurrent identical submissions execute **once** (one sandbox run,
  every waiter gets the full output and result);
* a repeated *pure* request is answered from the result cache without
  touching a sandbox — and anything the determinism analysis cannot
  prove pure (chaos, schedule recording, metrics, racy thread programs,
  ``clock()`` readers) re-executes every time;
* cancelling one waiter of a shared run detaches only that waiter; the
  *last* waiter's cancel kills the underlying execution; a request
  cancelled before dispatch never starts at all.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import EXIT_CANCELLED, EXIT_ERROR, EXIT_LIMIT
from repro.serve import ExecutionService, ServeConfig

SPIN = "def main():\n    x = 0\n    while true:\n        x = x + 1\n"
NOISY = 'def main():\n    while true:\n        print("aaaaaaaaaa")\n'
RACY = (
    "def main():\n"
    "    t = 0\n"
    "    parallel for i in [1 ... 8]:\n"
    "        t += 1\n"
    "    print(t)\n"
)
CLOCKY = "def main():\n    print(clock() >= 0)\n"
SLOW = (
    "def main():\n"
    '    print("pre")\n'
    "    sleep(0.4)\n"
    '    print("post")\n'
)

#: Identical SPIN request — same run_key every time it is submitted.
SPIN_REQ = {"source": SPIN, "time_limit": 25.0, "step_limit": 500_000_000}


def _hello(tag: str) -> str:
    """A pure program unique to one test (the sources — and so the cache
    keys — must not collide across tests sharing a service)."""
    return f'# {tag}\ndef main():\n    print("hello {tag}")\n'


def _cfg(**overrides) -> ServeConfig:
    defaults = dict(port=0, workers=2, rate=10_000.0, burst=10_000,
                    max_concurrent=64, watchdog_grace=2.0,
                    default_time_limit=10.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.fixture(scope="module")
def svc():
    service = ExecutionService(_cfg())
    yield service
    service.shutdown()


def _executions(service) -> int:
    return service.pool.stats()["submitted"]


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_repeat_pure_run_hits_cache_not_sandbox(self, svc):
        req = {"source": _hello("pure")}
        first = svc.run(req)
        before = _executions(svc)
        second = svc.run(req)
        assert _executions(svc) == before  # no new sandbox run
        assert second["cached"] is True
        assert second["dedup"] == "cache"
        assert second["output"] == first["output"] == "hello pure\n"
        assert second["exit_code"] == 0
        assert svc.stats()["dedup"]["cache_hits"] >= 1

    def test_program_diagnostics_are_cached_too(self, svc):
        # Exit 1 is a deterministic *answer* (the program always divides
        # by zero), not a transient failure — it deserves the cache.
        req = {"source": "# diag\ndef main():\n    print(1 / 0)\n"}
        first = svc.run(req)
        assert first["exit_code"] == EXIT_ERROR
        before = _executions(svc)
        second = svc.run(req)
        assert _executions(svc) == before
        assert second["cached"] is True
        assert second["error"] == first["error"]

    @pytest.mark.parametrize("extra", [
        {"chaos_seed": 7},
        {"record_schedule": True},
        {"metrics": True},
    ])
    def test_instrumented_runs_are_never_cached(self, svc, extra):
        req = {"source": _hello(f"inst-{sorted(extra)[0]}"), **extra}
        svc.run(req)
        before = _executions(svc)
        result = svc.run(req)
        assert _executions(svc) == before + 1  # re-executed
        assert "cached" not in result

    def test_racy_thread_program_is_never_cached(self, svc):
        # The canonical lost-update program: replaying one sampled
        # schedule as truth would report its racy total as stable.
        req = {"source": "# racy-thread\n" + RACY, "workers": 4}
        svc.run(req)
        before = _executions(svc)
        result = svc.run(req)
        assert _executions(svc) == before + 1
        assert "cached" not in result

    def test_same_parallel_program_on_sim_is_cached(self, svc):
        # sim's virtual clock and fixed scheduler make the identical
        # program a pure function of the request.
        req = {"source": "# racy-sim\n" + RACY, "backend": "sim",
               "workers": 4}
        first = svc.run(req)
        assert first["output"] == "8\n"
        before = _executions(svc)
        second = svc.run(req)
        assert _executions(svc) == before
        assert second["cached"] is True
        assert second["output"] == "8\n"

    def test_clock_reader_is_never_cached(self, svc):
        req = {"source": "# clocky\n" + CLOCKY, "backend": "sequential"}
        svc.run(req)
        before = _executions(svc)
        svc.run(req)
        assert _executions(svc) == before + 1

    def test_guardrail_trips_are_never_cached(self, svc):
        # Exit 4 is an event of one execution under one budget race —
        # not a property of the program worth replaying.
        req = {"source": "# noisy\n" + NOISY, "output_limit": 2000,
               "step_limit": 10_000_000}
        first = svc.run(req)
        assert first["exit_code"] == EXIT_LIMIT
        before = _executions(svc)
        svc.run(req)
        assert _executions(svc) == before + 1

    def test_different_inputs_miss_the_cache(self, svc):
        src = "# inputs\ndef main():\n    print(read_string())\n"
        one = svc.run({"source": src, "inputs": ["alpha"]})
        two = svc.run({"source": src, "inputs": ["beta"]})
        assert one["output"] == "alpha\n"
        assert two["output"] == "beta\n"
        assert "cached" not in two

    def test_cache_size_zero_disables_storing(self):
        service = ExecutionService(_cfg(result_cache_size=0))
        try:
            req = {"source": _hello("nocache")}
            service.run(req)
            result = service.run(req)
            assert _executions(service) == 2
            assert "cached" not in result
        finally:
            service.shutdown()

    def test_cache_survives_a_restart_via_path(self, tmp_path):
        path = str(tmp_path / "results.json")
        first = ExecutionService(_cfg(result_cache_path=path))
        try:
            first.run({"source": _hello("persist")})
        finally:
            first.shutdown()  # saves the cache
        second = ExecutionService(_cfg(result_cache_path=path))
        try:
            result = second.run({"source": _hello("persist")})
            assert result["cached"] is True
            assert result["output"] == "hello persist\n"
            assert _executions(second) == 0  # never touched a sandbox
        finally:
            second.shutdown()


# ----------------------------------------------------------------------
# Coalescing + cancel semantics
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_identical_concurrent_submissions_execute_once(self):
        """Three waiters, one sandbox run; cancels peel off one waiter at
        a time and only the last one kills the execution."""
        service = ExecutionService(_cfg(workers=1))
        try:
            h1 = service.submit(dict(SPIN_REQ))
            deadline = time.monotonic() + 5.0
            while h1.worker_pid is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert h1.worker_pid is not None  # running, not queued
            h2 = service.submit(dict(SPIN_REQ))
            h3 = service.submit(dict(SPIN_REQ))
            assert h2.dedup == "coalesced"
            assert h3.dedup == "coalesced"
            assert h2.worker_pid == h1.worker_pid  # same sandbox
            assert _executions(service) == 1
            assert service.stats()["dedup"]["coalesced"] == 2
            assert len({h1.id, h2.id, h3.id}) == 3

            # Cancelling one waiter must not touch the shared run.
            assert service.cancel(h2.id, "first waiter leaves")
            assert h2.wait(5.0)["exit_code"] == EXIT_CANCELLED
            assert not h1.done.is_set()
            assert not h3.done.is_set()
            assert service.pool.stats()["cancelled"] == 0

            assert service.cancel(h1.id, "second waiter leaves")
            assert h1.wait(5.0)["exit_code"] == EXIT_CANCELLED
            assert not h3.done.is_set()
            assert service.pool.stats()["cancelled"] == 0

            # The last waiter's cancel kills the sandbox run itself.
            assert service.cancel(h3.id, "last waiter leaves")
            assert h3.wait(5.0)["exit_code"] == EXIT_CANCELLED
            deadline = time.monotonic() + 5.0
            while (service.pool.stats()["cancelled"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert service.pool.stats()["cancelled"] == 1
            assert service.stats()["dedup"]["inflight_shared"] == 0
            # The freed worker serves the next request.
            follow_up = service.run({"source": _hello("after-coalesce")})
            assert follow_up["exit_code"] == 0
        finally:
            service.shutdown()

    def test_waiters_all_receive_the_full_result(self):
        service = ExecutionService(_cfg(workers=1))
        try:
            req = {"source": "# fanout\n" + SLOW, "time_limit": 10.0}
            h1 = service.submit(dict(req))
            time.sleep(0.1)  # let "pre" print before the second join
            h2 = service.submit(dict(req))
            r1, r2 = h1.wait(10.0), h2.wait(10.0)
            assert r1["output"] == r2["output"] == "pre\npost\n"
            assert r1["exit_code"] == r2["exit_code"] == 0
            # Whether h2 attached mid-run or hit the cache just after the
            # finish, exactly one sandbox execution happened.
            assert _executions(service) == 1
            assert h2.dedup in ("coalesced", "cache")
            stats = service.stats()["dedup"]
            assert stats["coalesced"] + stats["cache_hits"] >= 1
        finally:
            service.shutdown()

    def test_queued_identical_requests_coalesce(self):
        """Coalescing applies while the shared run is still *queued* —
        the run needn't have reached a worker yet."""
        service = ExecutionService(_cfg(workers=1))
        try:
            blocker = service.submit(dict(SPIN_REQ))
            deadline = time.monotonic() + 5.0
            while blocker.worker_pid is None \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            req = {"source": _hello("queued")}
            h1 = service.submit(dict(req))   # pending behind the spin
            h2 = service.submit(dict(req))   # attaches to the queued run
            assert h2.dedup == "coalesced"
            assert _executions(service) == 2  # spin + one hello
            service.cancel(blocker.id, "unblock the queue")
            r1, r2 = h1.wait(10.0), h2.wait(10.0)
            assert r1["output"] == r2["output"] == "hello queued\n"
        finally:
            service.shutdown()

    def test_coalescing_disabled_runs_every_submission(self):
        service = ExecutionService(_cfg(workers=1, coalesce=False,
                                        result_cache_size=0))
        try:
            h1 = service.submit(dict(SPIN_REQ))
            h2 = service.submit(dict(SPIN_REQ))
            assert h2.dedup is None
            assert _executions(service) == 2
            service.cancel(h1.id, "cleanup")
            service.cancel(h2.id, "cleanup")
            h1.wait(5.0)
            h2.wait(5.0)
        finally:
            service.shutdown()

    def test_cancel_before_dispatch_never_starts_the_run(self, monkeypatch):
        """A request cancelled while still compiling must be marked dead
        so dispatch never hands it to the pool (not a 404, not a race)."""
        import repro.serve.service as service_mod

        service = ExecutionService(_cfg(workers=1))
        real = service_mod.cached_program
        entered = threading.Event()
        gate = threading.Event()

        def gated(source, name, entry):
            entered.set()
            assert gate.wait(10.0)
            return real(source, name, entry)

        monkeypatch.setattr(service_mod, "cached_program", gated)
        try:
            handles = []
            thread = threading.Thread(
                target=lambda: handles.append(
                    service.submit({"source": _hello("mid-compile")})))
            thread.start()
            assert entered.wait(5.0)
            # The submission is admitted and registered but not yet
            # dispatched; its id is the service's only in-flight run.
            (req_id,) = list(service._runs)
            assert service.cancel(req_id, "changed my mind")
            gate.set()
            thread.join(timeout=10.0)
            (handle,) = handles
            assert handle.wait(5.0)["exit_code"] == EXIT_CANCELLED
            assert _executions(service) == 0  # never reached the pool
            assert service.stats()["dedup"]["cancelled"] == 1
        finally:
            gate.set()
            service.shutdown()

    def test_cancel_of_unknown_id_still_reports_false(self, svc):
        assert svc.cancel("r0-ffffff") is False

    def test_stats_exposes_the_dedup_block(self, svc):
        dedup = svc.stats()["dedup"]
        for field in ("coalesced", "cache_hits", "executions",
                      "cancelled", "inflight_shared", "result_cache"):
            assert field in dedup
        cache = dedup["result_cache"]
        for field in ("size", "capacity", "hits", "misses", "stores"):
            assert field in cache


# ----------------------------------------------------------------------
# run_key derivation
# ----------------------------------------------------------------------
class TestRunKey:
    """``run_key`` is derived from the request's RuntimeConfig, so no
    run knob can be left out of the execution identity."""

    #: One changed value per request field (none is the default).
    CHANGES = {
        "workers": 3, "chunking": "cyclic", "step_limit": 7,
        "detect_races": True, "metrics": True, "time_limit": 1.5,
        "memory_limit": 99, "output_limit": 77, "chaos_seed": 4,
        "inputs": ["x"], "entry": "other", "backend": "sim",
        "record_schedule": True, "name": "other.ttr",
        "source": _hello("other"),
    }

    def test_every_settable_config_field_changes_the_key(self):
        from dataclasses import fields

        from repro.runtime import RuntimeConfig
        from repro.serve.protocol import (
            request_config,
            run_key,
            validate_request,
        )

        cfg = _cfg()
        base = validate_request({"source": _hello("key")}, cfg)
        base_config = request_config(base)
        values = [f.name for f in fields(RuntimeConfig)
                  if f.type != "object"]
        settable = set()
        for name, value in self.CHANGES.items():
            req = validate_request(
                {"source": _hello("key"), name: value}, cfg)
            assert run_key(req) != run_key(base), name
            config = request_config(req)
            settable |= {v for v in values
                         if getattr(config, v) != getattr(base_config, v)}
        assert settable == {
            "num_workers", "chunking", "step_limit", "detect_races",
            "metrics", "time_limit", "memory_limit", "output_limit",
            "chaos_seed",
        }
        # Who asked and how long they will wait is not identity.
        assert run_key(validate_request(
            {"source": _hello("key"), "queue_deadline": 1.0}, cfg)) \
            == run_key(base)

    def test_virtual_clock_backends_run_without_a_time_limit(self):
        from repro.serve.protocol import request_config, validate_request

        cfg = _cfg()
        for backend, limited in (("thread", True), ("proc", True),
                                 ("sim", False), ("coop", False)):
            req = validate_request({"source": _hello("clock"),
                                    "backend": backend}, cfg)
            assert bool(request_config(req).time_limit) is limited, backend
