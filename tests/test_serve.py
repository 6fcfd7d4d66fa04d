"""The hosted execution service (``tetra serve``): protocol, quotas,
pool, service, and the HTTP/WebSocket transport under concurrency."""

from __future__ import annotations

import http.client
import io
import json
import os
import queue
import signal
import socket
import statistics
import threading
import time
import types
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import (
    EXIT_CANCELLED,
    EXIT_DEADLOCK,
    EXIT_ERROR,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_RACES,
    EXIT_USAGE,
)
from repro.serve import (
    ExecutionService,
    ServeConfig,
    ServeError,
    TenantQuotas,
    TetraServer,
    http_status_for_exit,
    validate_request,
)
from repro.serve import ws as ws_mod
from repro.serve.http import TetraServeHandler

HELLO = 'def main():\n    print("hello")\n'
COUNT = "def main():\n    for i in [0 ... 3]:\n        print(i)\n"
SPIN = "def main():\n    x = 0\n    while true:\n        x = x + 1\n"
SPIN_LOUD = SPIN.replace("x = 0", 'print("spinning")\n    x = 0')
NOISY = 'def main():\n    while true:\n        print("aaaaaaaaaa")\n'
RACY = (
    "def main():\n"
    "    t = 0\n"
    "    parallel for i in [1 ... 8]:\n"
    "        t += 1\n"
    "    print(t)\n"
)


def _cfg(**overrides) -> ServeConfig:
    """A config sized for tests: tiny pool, effectively-off rate limit."""
    # result_cache_size=0: the legacy suite exercises the live execution
    # path; dedup behaviour has its own suite (test_serve_dedup.py).
    defaults = dict(port=0, workers=2, rate=10_000.0, burst=10_000,
                    max_concurrent=64, watchdog_grace=2.0,
                    default_time_limit=10.0, result_cache_size=0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_exit_to_http_mapping(self):
        assert http_status_for_exit(EXIT_OK) == 200
        assert http_status_for_exit(EXIT_ERROR) == 422
        assert http_status_for_exit(EXIT_USAGE) == 400
        assert http_status_for_exit(EXIT_RACES) == 200
        assert http_status_for_exit(EXIT_LIMIT) == 408
        assert http_status_for_exit(EXIT_DEADLOCK) == 409
        assert http_status_for_exit(EXIT_CANCELLED) == 499
        assert http_status_for_exit(77) == 500  # unknown -> server error

    def test_defaults_applied(self):
        cfg = ServeConfig()
        req = validate_request({"source": HELLO}, cfg)
        assert req["time_limit"] == cfg.default_time_limit
        assert req["memory_limit"] == cfg.default_memory_limit
        assert req["output_limit"] == cfg.default_output_limit
        assert req["backend"] == "thread"
        assert req["entry"] == "main"

    def test_limits_clamped_to_ceiling(self):
        cfg = ServeConfig()
        req = validate_request(
            {"source": HELLO, "time_limit": 9999.0,
             "step_limit": 10**12, "workers": 999}, cfg)
        assert req["time_limit"] == cfg.max_time_limit
        assert req["step_limit"] == cfg.max_step_limit
        assert req["workers"] == cfg.max_workers_per_run

    def test_unknown_field_rejected(self):
        with pytest.raises(ServeError) as err:
            validate_request({"source": HELLO, "stepp_limit": 5},
                             ServeConfig())
        assert err.value.status == 400
        assert "stepp_limit" in err.value.message

    def test_oversized_source_rejected(self):
        cfg = ServeConfig(max_source_bytes=64)
        with pytest.raises(ServeError) as err:
            validate_request({"source": "def main():\n" + " " * 200}, cfg)
        assert err.value.status == 413

    def test_bad_backend_and_entry(self):
        with pytest.raises(ServeError, match="backend"):
            validate_request({"source": HELLO, "backend": "quantum"},
                             ServeConfig())
        with pytest.raises(ServeError, match="entry"):
            validate_request({"source": HELLO, "entry": "not an ident"},
                             ServeConfig())

    def test_non_object_body_rejected(self):
        with pytest.raises(ServeError):
            validate_request(["not", "a", "dict"], ServeConfig())

    def test_nan_limit_rejected_not_passed_through(self):
        # Regression: min(NaN, ceiling) returns NaN, which every later
        # `elapsed > limit` comparison answers False to — a NaN
        # time_limit used to disable the guardrail entirely.
        for field in ("time_limit", "memory_limit", "step_limit",
                      "output_limit"):
            with pytest.raises(ServeError) as err:
                validate_request({"source": HELLO, field: float("nan")},
                                 ServeConfig())
            assert err.value.status == 400
            assert field in err.value.message

    def test_infinite_limit_rejected_with_400(self):
        # Regression: Infinity survived the < 0 check and blew up int()
        # with an OverflowError (a 500) deep in dispatch.
        with pytest.raises(ServeError) as err:
            validate_request({"source": HELLO,
                              "step_limit": float("inf")}, ServeConfig())
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            validate_request({"source": HELLO,
                              "time_limit": float("-inf")}, ServeConfig())
        assert err.value.status == 400

    def test_negative_limit_rejected(self):
        with pytest.raises(ServeError) as err:
            validate_request({"source": HELLO, "memory_limit": -5},
                             ServeConfig())
        assert err.value.status == 400
        assert "non-negative" in err.value.message

    def test_non_numeric_limit_rejected(self):
        for bad in ("10", True, [], {}):
            with pytest.raises(ServeError) as err:
                validate_request({"source": HELLO, "time_limit": bad},
                                 ServeConfig())
            assert err.value.status == 400
            assert "must be a number" in err.value.message

    def test_zero_still_means_server_default(self):
        cfg = ServeConfig()
        req = validate_request({"source": HELLO, "time_limit": 0},
                               cfg)
        assert req["time_limit"] == cfg.default_time_limit


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------
class TestQuotas:
    def test_burst_then_rate_limited(self):
        now = [0.0]
        q = TenantQuotas(rate=1.0, burst=2, max_concurrent=99,
                         clock=lambda: now[0])
        q.admit("a")
        q.admit("a")
        with pytest.raises(ServeError) as err:
            q.admit("a")
        assert err.value.status == 429
        assert err.value.retry_after is not None
        now[0] += 1.0  # one token refilled
        q.admit("a")

    def test_tenants_do_not_share_buckets(self):
        now = [0.0]
        q = TenantQuotas(rate=1.0, burst=1, max_concurrent=99,
                         clock=lambda: now[0])
        q.admit("a")
        with pytest.raises(ServeError):
            q.admit("a")
        q.admit("b")  # a's exhaustion does not touch b

    def test_concurrency_quota_released_on_finish(self):
        now = [0.0]
        q = TenantQuotas(rate=1000.0, burst=1000, max_concurrent=2,
                         clock=lambda: now[0])
        q.admit("a")
        q.admit("a")
        with pytest.raises(ServeError) as err:
            q.admit("a")
        assert "running request" in err.value.message
        q.release("a")
        q.admit("a")

    def test_zero_rate_tenant_refused_cleanly(self):
        # Regression: rate=0 (the operator's off switch) used to compute
        # retry_after by dividing by the refill rate.  The burst still
        # spends, then the refusal is clean with a capped Retry-After.
        from repro.serve.quotas import RETRY_AFTER_CAP

        now = [0.0]
        q = TenantQuotas(rate=0.0, burst=2, max_concurrent=99,
                         clock=lambda: now[0])
        q.admit("off")
        q.admit("off")
        with pytest.raises(ServeError) as err:
            q.admit("off")
        assert err.value.status == 429
        assert err.value.retry_after == RETRY_AFTER_CAP
        assert "disabled" in err.value.message
        now[0] += 10_000.0  # no amount of waiting refills a dead bucket
        with pytest.raises(ServeError):
            q.admit("off")

    def test_retry_after_is_capped(self):
        from repro.serve.quotas import RETRY_AFTER_CAP

        q = TenantQuotas(rate=0.001, burst=1, max_concurrent=99,
                         clock=lambda: 0.0)
        q.admit("slow")
        with pytest.raises(ServeError) as err:
            q.admit("slow")  # honest wait would be ~1000s
        assert err.value.retry_after == RETRY_AFTER_CAP

    def test_prune_on_full_never_resurrects_a_limited_tenant(self):
        # Regression: a full-table prune must not evict a bucket with
        # spent tokens — the tenant would return with a fresh burst.
        now = [0.0]
        q = TenantQuotas(rate=0.0, burst=1, max_concurrent=99,
                         clock=lambda: now[0], max_tenants=1)
        q.admit("storm")
        q.release("storm")  # idle but *spent* — must stay pinned
        q.admit("newcomer")  # table full -> prune sweep runs
        with pytest.raises(ServeError) as err:
            q.admit("storm")  # still rate-limited, not resurrected
        assert err.value.status == 429
        assert q.stats()["pruned"] == 0

    def test_prune_on_full_evicts_only_fresh_equivalent_buckets(self):
        now = [0.0]
        q = TenantQuotas(rate=1.0, burst=1, max_concurrent=99,
                         clock=lambda: now[0], max_tenants=1)
        q.admit("idle")
        q.release("idle")   # tokens=0: pinned for now
        q.admit("busy")     # prune runs, evicts nothing (idle is spent)
        assert q.stats()["tenants_tracked"] == 2
        now[0] += 5.0       # idle's bucket fully refills
        q.admit("third")    # prune evicts idle (fresh-equivalent) only:
        stats = q.stats()   # busy has an active run, third is new
        assert stats["pruned"] == 1
        assert q.active("busy") == 1  # an active tenant is never pruned


# ----------------------------------------------------------------------
# The service (no HTTP): pool behavior under concurrency
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    svc = ExecutionService(_cfg())
    yield svc
    svc.shutdown()


class TestExecutionService:
    def test_basic_run(self, service):
        result = service.run({"source": HELLO})
        assert result["exit_code"] == 0
        assert result["output"] == "hello\n"
        assert result["status"] == "ok"
        assert result["id"]

    def test_compile_reject_costs_no_worker(self, service):
        before = service.pool.stats()["served"]
        result = service.run({"source": "def main(:\n"})
        assert result["exit_code"] == EXIT_ERROR
        assert result["phase"] == "compile"
        assert "expected" in result["error"]
        assert service.pool.stats()["served"] == before

    def test_runtime_error_reported(self, service):
        result = service.run(
            {"source": "def main():\n    print(1 / 0)\n"})
        assert result["exit_code"] == EXIT_ERROR
        assert result["phase"] == "run"
        assert "division" in result["error"].lower()

    def test_races_reported_with_exit_3(self, service):
        result = service.run({"source": RACY, "detect_races": True,
                              "workers": 4})
        assert result["exit_code"] in (EXIT_OK, EXIT_RACES)
        # The racy increment is usually caught; when it is, the panel
        # rides along and the run itself still completed.
        if result["exit_code"] == EXIT_RACES:
            assert result["race_count"] > 0
            assert "race" in result["races"].lower()

    def test_output_limit_aborts_print_loop(self, service):
        result = service.run({"source": NOISY, "output_limit": 2000,
                              "step_limit": 10_000_000})
        assert result["exit_code"] == EXIT_LIMIT
        assert result["status"] == "output"
        # Partial output survives up to (just past) the cap.
        assert 2000 <= len(result["output"]) < 2100

    def test_eight_concurrent_mixed_requests_are_isolated(self, service):
        """The acceptance scenario: >=8 concurrent requests mixing
        programs, tenants, and verdicts — each gets its own output."""
        requests = []
        for i in range(4):
            src = f'def main():\n    print("tenant-{i}")\n'
            requests.append((src, f"t{i}", 0, f"tenant-{i}\n"))
        requests.append(("def main():\n    print(1 / 0)\n",
                         "t4", EXIT_ERROR, ""))
        requests.append((NOISY, "t5", EXIT_LIMIT, None))
        requests.append((COUNT, "t6", 0, "0\n1\n2\n3\n"))
        requests.append((HELLO, "t7", 0, "hello\n"))

        def one(spec):
            src, tenant, _code, _out = spec
            return service.run(
                {"source": src, "output_limit": 3000,
                 "step_limit": 10_000_000},
                tenant=tenant)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(one, requests))
        for (src, tenant, code, out), result in zip(requests, results):
            assert result["exit_code"] == code, (tenant, result)
            if out is not None:
                assert result["output"] == out, (tenant, result)
        # No worker was lost and nothing leaked a quota slot.
        stats = service.stats()
        assert stats["pool"]["workers"] == service.config.workers
        assert stats["pool"]["busy"] == 0
        assert stats["quotas"]["active_runs"] == 0

    def test_concurrent_same_source_shares_cache(self, service):
        src = 'def main():\n    print("cache-me-serve")\n'
        cache_before = service.stats()["program_cache"]
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(
                lambda i: service.run({"source": src}, tenant=f"c{i}"),
                range(6)))
        assert all(r["output"] == "cache-me-serve\n" for r in results)
        cache_after = service.stats()["program_cache"]
        # Single-flight: six concurrent first-requests record exactly one
        # miss for this key; the rest are hits.
        assert cache_after["misses"] == cache_before["misses"] + 1
        assert cache_after["hits"] >= cache_before["hits"] + 5

    def test_cancel_mid_run_frees_the_worker(self, service):
        handle = service.submit({"source": SPIN, "time_limit": 25.0,
                                 "step_limit": 500_000_000})
        deadline = time.monotonic() + 5.0
        while handle.worker_pid is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert handle.worker_pid is not None
        assert service.cancel(handle.id, "test cancel")
        result = handle.wait(5.0)
        assert result["exit_code"] == EXIT_CANCELLED
        assert result["status"] == "cancelled"
        assert "test cancel" in result["error"]
        # The replacement worker serves the next request immediately.
        follow_up = service.run({"source": HELLO})
        assert follow_up["output"] == "hello\n"
        stats = service.pool.stats()
        assert stats["workers"] == service.config.workers
        assert stats["cancelled"] >= 1

    def test_cancel_unknown_id_is_false(self, service):
        assert service.cancel("r0-ffffff") is False

    def test_crashed_worker_does_not_poison_the_pool(self, service):
        handle = service.submit({"source": SPIN_LOUD, "time_limit": 25.0,
                                 "step_limit": 500_000_000})
        # Kill only once the program itself has run: a death before the
        # worker's start-ack is infrastructure, retried silently.
        kind, _ = handle.events.get(timeout=10.0)
        assert kind == "out"
        os.kill(handle.worker_pid, signal.SIGKILL)  # simulate an OOM kill
        result = handle.wait(10.0)
        assert result["exit_code"] == EXIT_ERROR
        assert "died mid-run" in result["error"]
        # Siblings are unharmed and the dead slot was respawned.
        follow_up = service.run({"source": HELLO})
        assert follow_up["output"] == "hello\n"
        stats = service.pool.stats()
        assert stats["workers"] == service.config.workers
        assert stats["crashed"] >= 1
        assert handle.worker_pid not in stats["worker_pids"]

    def test_watchdog_kills_wedged_run(self):
        svc = ExecutionService(_cfg(workers=1, watchdog_grace=0.5))
        try:
            # time_limit is ignored in-worker on sim (virtual clock), so
            # only the parent watchdog can end this spin.
            result = svc.run({"source": SPIN, "backend": "sim",
                              "time_limit": 0.5,
                              "step_limit": 500_000_000})
            assert result["exit_code"] == EXIT_LIMIT
            assert result["status"] == "time"
            assert "watchdog" in result["error"]
            assert svc.pool.stats()["watchdog_kills"] >= 1
            follow_up = svc.run({"source": HELLO})
            assert follow_up["output"] == "hello\n"
        finally:
            svc.shutdown()

    def test_quota_exhaustion_returns_429(self):
        svc = ExecutionService(_cfg(rate=1000.0, burst=1000,
                                    max_concurrent=1))
        try:
            handle = svc.submit({"source": SPIN, "time_limit": 25.0,
                                 "step_limit": 500_000_000},
                                tenant="greedy")
            with pytest.raises(ServeError) as err:
                svc.submit({"source": HELLO}, tenant="greedy")
            assert err.value.status == 429
            # Another tenant is not affected by greedy's quota.
            other = svc.run({"source": HELLO}, tenant="polite")
            assert other["exit_code"] == 0
            svc.cancel(handle.id)
            handle.wait(5.0)
            # The slot frees once the run finishes.
            again = svc.run({"source": HELLO}, tenant="greedy")
            assert again["exit_code"] == 0
        finally:
            svc.shutdown()

    def test_rate_limit_returns_429_with_retry_after(self):
        svc = ExecutionService(_cfg(rate=0.001, burst=1))
        try:
            svc.run({"source": HELLO})
            with pytest.raises(ServeError) as err:
                svc.submit({"source": HELLO})
            assert err.value.status == 429
            assert err.value.retry_after > 0
        finally:
            svc.shutdown()

    def test_worker_recycled_after_quota(self):
        svc = ExecutionService(_cfg(workers=1, recycle_after=2))
        try:
            first_pid = None
            for i in range(3):
                result = svc.run({"source": HELLO})
                assert result["output"] == "hello\n"
                if first_pid is None:
                    first_pid = svc.pool.stats()["worker_pids"][0]
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = svc.pool.stats()
                if stats["recycled"] >= 1 \
                        and first_pid not in stats["worker_pids"]:
                    break
                time.sleep(0.05)
            stats = svc.pool.stats()
            assert stats["recycled"] >= 1
            assert first_pid not in stats["worker_pids"]
            assert stats["workers"] == 1
        finally:
            svc.shutdown()

    def test_check_reports_diagnostics(self, service):
        good = service.check({"source": HELLO})
        assert good["ok"] and good["diagnostics"] == []
        bad = service.check({"source": "def main():\n    x = 1 + true\n"})
        assert not bad["ok"] and bad["diagnostics"]

    def test_stats_shape(self, service):
        stats = service.stats()
        assert {"requests_total", "pool", "quotas",
                "program_cache"} <= set(stats)
        assert 0.0 <= stats["program_cache"]["hit_rate"] <= 1.0


# ----------------------------------------------------------------------
# HTTP + WebSocket transport
# ----------------------------------------------------------------------
def _live_server(config: ServeConfig):
    svc = ExecutionService(config)
    srv = TetraServer(("127.0.0.1", 0), svc)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv.server_address[:2]
    srv.shutdown()
    srv.server_close()
    svc.shutdown()
    thread.join(timeout=5.0)


@pytest.fixture(scope="module")
def server():
    yield from _live_server(_cfg())


def _post(server, path, payload, tenant=None):
    host, port = server
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Tetra-Tenant"] = tenant
    req = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode("utf-8"), headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(server, path):
    host, port = server
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                    timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHTTP:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200 and body["ok"]

    def test_run_ok(self, server):
        status, body = _post(server, "/api/run", {"source": HELLO})
        assert status == 200
        assert body["exit_code"] == 0
        assert body["output"] == "hello\n"

    def test_run_program_error_is_422(self, server):
        status, body = _post(server, "/api/run",
                             {"source": "def main():\n    print(1 / 0)\n"})
        assert status == 422 and body["exit_code"] == EXIT_ERROR

    def test_run_limit_is_408(self, server):
        status, body = _post(server, "/api/run",
                             {"source": NOISY, "output_limit": 2000,
                              "step_limit": 10_000_000})
        assert status == 408 and body["exit_code"] == EXIT_LIMIT

    def test_malformed_request_is_400(self, server):
        status, body = _post(server, "/api/run",
                             {"source": HELLO, "bogus": 1})
        assert status == 400 and "bogus" in body["error"]

    def test_unknown_route_is_404(self, server):
        status, body = _post(server, "/api/nope", {})
        assert status == 404

    def test_stats_route(self, server):
        status, body = _get(server, "/api/stats")
        assert status == 200 and "pool" in body

    def test_check_route(self, server):
        status, body = _post(server, "/api/check", {"source": HELLO})
        assert status == 200 and body["ok"]

    def test_stream_carries_live_output(self, server):
        host, port = server
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("POST", "/api/stream",
                     json.dumps({"source": COUNT}).encode("utf-8"))
        resp = conn.getresponse()
        assert resp.status == 200
        events = [json.loads(line)
                  for line in resp.read().splitlines() if line.strip()]
        conn.close()
        assert events[0]["type"] == "start" and events[0]["id"]
        outs = [e["text"] for e in events if e["type"] == "out"]
        assert "".join(outs) == "0\n1\n2\n3\n"
        done = events[-1]
        assert done["type"] == "done"
        assert done["exit_code"] == 0 and done["http_status"] == 200

    def test_cancel_over_http_mid_stream(self, server):
        host, port = server
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("POST", "/api/stream",
                     json.dumps({"source": SPIN, "time_limit": 25.0,
                                 "step_limit": 500_000_000})
                     .encode("utf-8"))
        resp = conn.getresponse()
        start = json.loads(resp.readline())
        assert start["type"] == "start"
        # Wait until the run is actually on a worker, then cancel it
        # from a second connection.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if _get(server, "/api/stats")[1]["pool"]["busy"]:
                break
            time.sleep(0.02)
        status, body = _post(server, "/api/cancel", {"id": start["id"]})
        assert status == 200 and body["cancelled"]
        events = [json.loads(line)
                  for line in resp.read().splitlines() if line.strip()]
        conn.close()
        done = events[-1]
        assert done["type"] == "done"
        assert done["exit_code"] == EXIT_CANCELLED
        assert done["http_status"] == 499
        # The pool healed: a follow-up request runs fine.
        status, body = _post(server, "/api/run", {"source": HELLO})
        assert status == 200 and body["output"] == "hello\n"

    def test_cancel_unknown_id_is_404(self, server):
        status, body = _post(server, "/api/cancel", {"id": "r0-ffffff"})
        assert status == 404 and not body["cancelled"]

    def test_parallel_http_requests(self, server):
        def one(i):
            return _post(server, "/api/run",
                         {"source": f'def main():\n    print({i})\n'},
                         tenant=f"p{i}")

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(one, range(8)))
        for i, (status, body) in enumerate(results):
            assert status == 200
            assert body["output"] == f"{i}\n"


@pytest.fixture(scope="module")
def cached_server():
    """A live server with the result cache on, so repeats skip the pool."""
    yield from _live_server(_cfg(workers=1, result_cache_size=64))


class _StubService:
    """Just enough of ExecutionService for the transport: canned answers."""

    chaos = None

    def __init__(self, draining=False, result=None, handle=None):
        self.draining = draining
        self.config = ServeConfig()
        self._result = result
        self._handle = handle

    def run(self, request, tenant):
        return dict(self._result)

    def submit(self, request, tenant):
        return self._handle


class _RecordingSocket:
    """A connected-socket stand-in: reads one canned request and records
    every write the handler makes."""

    def __init__(self, request: bytes):
        self._request = io.BytesIO(request)
        self.writes: list[bytes] = []
        self.options: list[tuple] = []

    def makefile(self, mode, bufsize=-1):
        return self._request

    def sendall(self, data):
        self.writes.append(bytes(data))

    def setsockopt(self, *option):
        self.options.append(option)


def _serve_one(request: bytes, service) -> _RecordingSocket:
    sock = _RecordingSocket(request)
    server = types.SimpleNamespace(service=service, verbose=False)
    TetraServeHandler(sock, ("127.0.0.1", 0), server)
    return sock


def _raw_request(method: str, path: str, payload=None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    return (f"{method} {path} HTTP/1.1\r\nHost: tetra\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body


class TestTransport:
    @pytest.mark.parametrize("method, path, service, status", [
        ("GET", "/healthz", _StubService(), 200),
        ("POST", "/api/run", _StubService(result={"exit_code": 1}), 422),
        ("GET", "/nope", _StubService(), 404),
        ("GET", "/healthz", _StubService(draining=True), 503),
        ("POST", "/api/run", _StubService(result={"exit_code": 130}), 499),
    ])
    def test_each_json_reply_is_one_write(self, method, path, service,
                                          status):
        payload = {"source": HELLO} if method == "POST" else None
        sock = _serve_one(_raw_request(method, path, payload), service)
        assert len(sock.writes) == 1
        assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) \
            in sock.options
        head, _, body = sock.writes[0].partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert int(headers["Content-Length"]) == len(body)
        json.loads(body)
        if status == 503:
            assert headers["Retry-After"] == "30"

    def test_http09_reply_is_the_bare_body(self):
        sock = _serve_one(b"GET /healthz\r\n", _StubService())
        assert len(sock.writes) == 1
        assert json.loads(sock.writes[0])["ok"] is True

    def test_stream_head_and_start_event_share_one_write(self):
        handle = types.SimpleNamespace(id="r1", dedup=None,
                                       events=queue.Queue())
        handle.events.put(("out", "hi\n"))
        handle.events.put(("done", {"exit_code": 0}))
        sock = _serve_one(
            _raw_request("POST", "/api/stream", {"source": HELLO}),
            _StubService(handle=handle))
        first = sock.writes[0]
        assert first.startswith(b"HTTP/1.1 200 ")
        head, _, start = first.partition(b"\r\n\r\n")
        assert json.loads(start) == {"type": "start", "id": "r1"}
        events = [json.loads(w) for w in sock.writes[1:]]
        assert [e["type"] for e in events] == ["out", "done"]

    def test_keep_alive_requests_do_not_stall(self, cached_server):
        # A reply split over two writes waits ~40 ms per request on a
        # persistent connection: Nagle holds it for the delayed ACK.
        host, port = cached_server
        conn = http.client.HTTPConnection(host, port, timeout=30)
        run = json.dumps({"source": HELLO}).encode("utf-8")

        def timed(method, path, body=None):
            began = time.perf_counter()
            conn.request(method, path, body)
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
            return time.perf_counter() - began

        timed("POST", "/api/run", run)  # executes once, fills the cache
        sock = conn.sock
        health = [timed("GET", "/healthz") for _ in range(30)]
        runs = [timed("POST", "/api/run", run) for _ in range(30)]
        assert conn.sock is sock  # one connection throughout
        conn.close()
        assert statistics.median(health) < 0.010
        assert statistics.median(runs) < 0.010
        assert _get(cached_server, "/api/stats")[1]["dedup"]["cache_hits"] \
            >= 30

    def test_listen_backlog_absorbs_a_connect_burst(self):
        # Nothing accepts, so every connect must fit in the listen queue;
        # socketserver's default of 5 drops SYNs, retried only after 1 s.
        srv = TetraServer(("127.0.0.1", 0), service=None)
        address = srv.server_address[:2]

        def connect(_):
            try:
                return socket.create_connection(address, timeout=0.5)
            except OSError:
                return None

        try:
            with ThreadPoolExecutor(max_workers=32) as pool:
                conns = list(pool.map(connect, range(32)))
        finally:
            srv.server_close()
        for conn in conns:
            if conn is not None:
                conn.close()
        assert conns.count(None) == 0


class TestWebSocket:
    def _open(self, server):
        host, port = server
        sock = socket.create_connection((host, port), timeout=30)
        key = "dGhlIHNhbXBsZSBub25jZQ=="
        sock.sendall((
            f"GET /api/ws HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n").encode("ascii"))
        rfile = sock.makefile("rb")
        status_line = rfile.readline()
        assert b"101" in status_line
        accept = None
        while True:
            line = rfile.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("ascii").partition(":")
            if name.strip().lower() == "sec-websocket-accept":
                accept = value.strip()
        assert accept == ws_mod.accept_key(key)
        return sock, rfile

    def _send(self, sock, message: dict) -> None:
        sock.sendall(ws_mod.encode_frame(
            json.dumps(message).encode("utf-8"), mask=True))

    def _events(self, rfile):
        while True:
            opcode, payload = ws_mod.read_frame(rfile)
            if opcode == ws_mod.OP_CLOSE:
                return
            yield json.loads(payload)

    def test_round_trip_streams_output(self, server):
        sock, rfile = self._open(server)
        try:
            self._send(sock, {"source": COUNT})
            events = list(self._events(rfile))
        finally:
            sock.close()
        assert events[0]["type"] == "start"
        outs = [e["text"] for e in events if e["type"] == "out"]
        assert "".join(outs) == "0\n1\n2\n3\n"
        assert events[-1]["type"] == "done"
        assert events[-1]["exit_code"] == 0

    def test_cancel_over_websocket(self, server):
        sock, rfile = self._open(server)
        try:
            self._send(sock, {"source": SPIN, "time_limit": 25.0,
                              "step_limit": 500_000_000})
            opcode, payload = ws_mod.read_frame(rfile)
            start = json.loads(payload)
            assert start["type"] == "start"
            self._send(sock, {"type": "cancel"})
            events = list(self._events(rfile))
        finally:
            sock.close()
        assert events[-1]["type"] == "done"
        assert events[-1]["exit_code"] == EXIT_CANCELLED

    def test_plain_get_is_rejected(self, server):
        status, body = _get(server, "/api/ws")
        assert status == 426

    def test_frame_codec_round_trips(self):
        for size in (0, 1, 125, 126, 70_000):
            payload = bytes(range(256)) * (size // 256 + 1)
            payload = payload[:size]
            for mask in (False, True):
                frame = ws_mod.encode_frame(payload, ws_mod.OP_BINARY,
                                            mask=mask)
                import io as _io

                opcode, decoded = ws_mod.read_frame(_io.BytesIO(frame))
                assert opcode == ws_mod.OP_BINARY
                assert decoded == payload
