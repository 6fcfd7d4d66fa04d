"""The execution service behind every ``tetra serve`` transport.

:class:`ExecutionService` is transport-neutral — the HTTP handler, the
WebSocket session, the benchmark, and the tests all drive this one
object.  A request's life:

1. **Validate** (:func:`~repro.serve.protocol.validate_request`) — limits
   clamped to the operator's ceilings, unknown fields rejected.
2. **Admit** (:class:`~repro.serve.quotas.TenantQuotas`) — token-bucket
   rate plus a per-tenant concurrency quota; refused requests cost no
   worker time.
3. **Pre-compile** through the shared sha-keyed program cache
   (:func:`repro.api.cached_program`) — a syntax or type error is
   answered immediately (exit 1 → HTTP 422) without occupying a sandbox,
   and a warm entry makes the steady state (a whole classroom running the
   same assignment) compile exactly once, thanks to the single-flight
   cache.  Workers forked later inherit the warm cache for free.
4. **Deduplicate** — the same single-flight idea, one level up.  Every
   validated request has an execution identity, its
   :func:`~repro.serve.protocol.run_key` (program sha, entry, inputs,
   backend, and every value of the request's RuntimeConfig).  Two dedup
   layers consult it:

   * **Result cache** — if the static determinism analysis
     (:mod:`repro.analysis.determinism`) proves the run a pure function
     of its key, a previously stored result is returned without touching
     a sandbox.  Racy thread-backend runs, ``clock()`` readers, chaos
     and schedule-recording runs are *never* cached: replaying one
     sampled schedule as truth would teach a student their racy program
     is deterministic.
   * **Coalescing** — concurrent identical submissions attach to the
     run already in flight instead of starting their own.  Output fans
     out to every waiter live (buffered chunks are replayed to late
     joiners), and the one result finishes them all.  Cancelling one
     waiter detaches just that waiter; only the *last* waiter's cancel
     kills the underlying sandbox run.  Coalescing is safe even for
     nondeterministic programs — every waiter observes one real
     execution, the same guarantee a lone submitter gets.

5. **Run** in a sandboxed pool worker (:class:`~repro.serve.pool
   .RunnerPool`), streaming output, with cancel-by-kill and a watchdog.

The quota is released when the run *finishes* (the handle's ``on_done``
hook), not when it is submitted — "max concurrent" means concurrent.

Lock order, outermost first: ``service._mu`` → ``shared.mu``;
``service._mu`` → ``pool._mu``.  The pool never calls back into the
service while holding its own lock (handles are finished outside
``pool._mu``), so the ``on_done`` → :meth:`_finish_shared` hop cannot
invert the order.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time

from ..analysis.determinism import nondeterminism_reason
from ..api import cached_program, program_cache_info
from ..errors import EXIT_CANCELLED, TetraError, exit_code_for
from ..source import SourceFile
from ..stdlib.builtin_time import monotonic_clock
from .cache import ResultCache
from .chaos import ServeFaultPlan
from .overload import AdmissionController, CircuitBreaker
from .pool import RunHandle, RunnerPool, pool_result
from .protocol import ServeConfig, ServeError, run_key, validate_request
from .quotas import TenantQuotas

#: Tenant attributed to requests that do not name one.
ANONYMOUS = "anonymous"


class _SharedRun:
    """One in-flight sandbox execution, shared by its attached waiters."""

    __slots__ = ("key", "exec_request", "handle", "waiters", "chunks",
                 "done", "cancelled", "cacheable", "mu")

    def __init__(self, key: tuple, exec_request: dict, cacheable: bool):
        self.key = key
        self.exec_request = exec_request
        self.handle: _ExecHandle | None = None
        self.waiters: list[RunHandle] = []
        self.chunks: list[str] = []
        self.done = False
        self.cancelled = False
        self.cacheable = cacheable
        self.mu = threading.Lock()


class _ExecHandle(RunHandle):
    """The pool-side handle of a shared run: broadcasts live output to
    every attached waiter and records it for late joiners."""

    def __init__(self, request: dict, shared: _SharedRun):
        # Before super().__init__: RunHandle assigns ``worker_pid`` and
        # the property setter below already needs ``self.shared``.
        self.shared = shared
        self._worker_pid: int | None = None
        super().__init__(request)

    def emit_output(self, text: str) -> None:
        shared = self.shared
        with shared.mu:
            if shared.done:
                return
            shared.chunks.append(text)
            waiters = list(shared.waiters)
        for waiter in waiters:
            waiter.emit_output(text)

    # Waiters surface the sandbox pid (tests and transports poll it to
    # learn a run left the queue), so forward the pool's assignment.
    @property
    def worker_pid(self) -> int | None:
        return self._worker_pid

    @worker_pid.setter
    def worker_pid(self, pid: int | None) -> None:
        self._worker_pid = pid
        shared = self.shared
        with shared.mu:
            waiters = list(shared.waiters)
        for waiter in waiters:
            waiter.worker_pid = pid


class _Entry:
    """The service's registration of one admitted request."""

    __slots__ = ("handle", "shared")

    def __init__(self, handle: RunHandle):
        self.handle = handle
        self.shared: _SharedRun | None = None


class ExecutionService:
    """One multi-tenant Tetra execution service."""

    def __init__(self, config: ServeConfig | None = None, *,
                 chaos: ServeFaultPlan | None = None):
        self.config = config or ServeConfig()
        cfg = self.config
        if chaos is None and cfg.chaos_serve_seed is not None:
            chaos = ServeFaultPlan(cfg.chaos_serve_seed)
        self.chaos = chaos
        self.quotas = TenantQuotas(rate=cfg.rate, burst=cfg.burst,
                                   max_concurrent=cfg.max_concurrent)
        self.admission = AdmissionController(max_queue=cfg.max_queue)
        self.breaker = CircuitBreaker(threshold=cfg.breaker_threshold,
                                      backoff=cfg.breaker_backoff,
                                      backoff_cap=cfg.breaker_backoff_cap)
        self.pool = RunnerPool(size=cfg.workers,
                               recycle_after=cfg.recycle_after,
                               max_queue=cfg.max_queue,
                               watchdog_grace=cfg.watchdog_grace,
                               infra_retries=cfg.infra_retries,
                               infra_retry_backoff=cfg.infra_retry_backoff,
                               chaos=chaos)
        self.result_cache = ResultCache(capacity=cfg.result_cache_size,
                                        path=cfg.result_cache_path)
        self._mu = threading.Lock()
        self._seq = itertools.count(1)
        self._closed = False
        self._draining = False
        #: Set once a drain has fully completed (pool down, cache saved).
        self.drained = threading.Event()
        self._drain_thread: threading.Thread | None = None
        self.drain_cancelled = 0
        #: request id → _Entry for every admitted, unfinished request.
        self._runs: dict[str, _Entry] = {}
        #: run_key → live _SharedRun (removed the moment it finishes or
        #: its last waiter cancels, so a stale run is never joined).
        self._shared: dict[tuple, _SharedRun] = {}
        self.requests_total = 0
        self.rejected_total = 0
        self.compile_rejects = 0
        self.coalesced_total = 0
        self.cancelled_total = 0

    # -- identity ------------------------------------------------------
    def _request_id(self) -> str:
        return f"r{os.getpid():x}-{next(self._seq):06x}"

    # -- core entry points ---------------------------------------------
    def submit(self, payload: object,
               tenant: str = ANONYMOUS) -> RunHandle:
        """Validate, admit, pre-compile, and dispatch one request.

        Returns a :class:`~repro.serve.pool.RunHandle`; compile failures
        return an already-finished handle (the caller streams/reports it
        uniformly).  Raises :class:`ServeError` for refusals (400/413
        malformed, 429 quota, 503 shed/quarantined/capacity/draining).
        Refusals are ordered so a refused request costs nothing: breaker
        and admission fire *before* the quota charge and the sandbox.
        """
        if self._closed or self._draining:
            raise ServeError(503, "the server is draining — no new runs "
                             "are being admitted", retry_after=30.0)
        with self._mu:
            self.requests_total += 1
        try:
            request = validate_request(payload, self.config)
        except ServeError:
            with self._mu:
                self.rejected_total += 1
            raise
        request["tenant"] = tenant
        request["id"] = self._request_id()
        sha = hashlib.sha256(
            request["source"].encode("utf-8")).hexdigest()
        request["program_sha"] = sha
        # Fail-fast order: quarantine first (cheapest, names the program),
        # then occupancy shedding, then the per-tenant quota charge.  A
        # successful breaker admit in the half-open state claims the
        # probe, so any later refusal must hand it back.
        self.breaker.admit(sha)  # raises ServeError(503) when quarantined
        try:
            self.admission.check(self.pool.occupancy(),
                                 request["queue_deadline"])
            self.quotas.admit(tenant)  # raises ServeError(429)
        except BaseException:
            self.breaker.release(sha)
            raise
        waiter = RunHandle(request)
        waiter.on_done = lambda _result: self.quotas.release(tenant)
        entry = _Entry(waiter)
        with self._mu:
            self._runs[request["id"]] = entry
        try:
            self._place(entry, waiter, request)
        except BaseException:
            with self._mu:
                if self._runs.get(request["id"]) is entry:
                    del self._runs[request["id"]]
            self.breaker.release(sha)
            if not waiter.done.is_set():
                waiter.on_done = None
                self.quotas.release(tenant)
            raise
        return waiter

    def _place(self, entry: _Entry, waiter: RunHandle,
               request: dict) -> None:
        """Satisfy ``request``: cached result, an in-flight identical
        run, or a fresh sandbox execution — in that order.

        Breaker contract: every path that does *not* hand the request to
        a fresh sandbox execution (compile reject, cache hit, cancelled
        under us, coalesced join) releases the program's half-open probe
        claim — only a real execution may settle it with a verdict.
        """
        req_id = request["id"]
        sha = request["program_sha"]
        if self.chaos is not None:
            stall = self.chaos.compile_stall()
            if stall:
                time.sleep(stall)
        try:
            # The shared front-end cache: every tenant's identical source
            # hits one compiled tree, and concurrent first-requests are
            # single-flight.  Workers forked afterwards inherit the entry
            # (every run mode shares it), and broken programs are rejected
            # here before they cost a sandbox slot.
            program, _source = cached_program(
                request["source"], request["name"], request["entry"])
        except TetraError as exc:
            with self._mu:
                self.compile_rejects += 1
                if self._runs.get(req_id) is entry:
                    del self._runs[req_id]
            self.breaker.release(sha)
            source = SourceFile.from_string(request["source"],
                                            request["name"])
            waiter.finish({
                "status": "error",
                "phase": "compile",
                "exit_code": exit_code_for(exc),
                "output": "",
                "error": exc.attach_source(source).render(),
                "races": None,
                "race_count": 0,
                "metrics": None,
                "schedule": None,
                "wall_ms": 0.0,
            })
            return
        key = run_key(request)
        cacheable = self._uncacheable_reason(request, program) is None
        if cacheable:
            cached = self.result_cache.get(key)
            if cached is not None:
                with self._mu:
                    if self._runs.get(req_id) is not entry:
                        self.breaker.release(sha)
                        return  # cancelled while we were compiling
                    del self._runs[req_id]
                self.breaker.release(sha)
                result = dict(cached)
                result["cached"] = True
                waiter.dedup = "cache"
                if result.get("output"):
                    waiter.emit_output(result["output"])
                waiter.finish(result)
                return
        with self._mu:
            if self._runs.get(req_id) is not entry:
                # Cancelled between admission and dispatch: the cancel
                # already finished the waiter; starting the sandbox run
                # anyway would burn a worker on a dead request.
                self.breaker.release(sha)
                return
            if self.config.coalesce:
                shared = self._shared.get(key)
                if shared is not None:
                    with shared.mu:
                        if not shared.done and not shared.cancelled:
                            shared.waiters.append(waiter)
                            entry.shared = shared
                            waiter.dedup = "coalesced"
                            self.coalesced_total += 1
                            # Replay what the run printed before we
                            # joined, then the live broadcast takes over.
                            for chunk in shared.chunks:
                                waiter.events.put(("out", chunk))
                            if shared.handle is not None:
                                pid = shared.handle._worker_pid
                                if pid is not None:
                                    waiter.worker_pid = pid
                            # The in-flight execution (not this waiter)
                            # owns the breaker verdict.
                            self.breaker.release(sha)
                            return
            # Fresh execution.  The sandbox run gets its own id (the
            # submitter's id + "x") so a waiter cancel and an execution
            # kill are distinct operations on the pool.
            exec_request = dict(request)
            exec_request["id"] = req_id + "x"
            shared = _SharedRun(key, exec_request, cacheable)
            handle = _ExecHandle(exec_request, shared)
            handle.on_done = \
                lambda result, s=shared: self._finish_shared(s, result)
            shared.waiters.append(waiter)
            entry.shared = shared
            # Submit while still holding our lock: a concurrent cancel
            # of this waiter cannot slip between registration and
            # dispatch, and pool.submit never re-enters the service.
            self.pool.submit(exec_request, handle=handle)
            shared.handle = handle
            if self.config.coalesce:
                self._shared[key] = shared

    def _uncacheable_reason(self, request: dict, program) -> str | None:
        """``None`` when the run is a pure function of its run_key."""
        if request.get("chaos_seed") is not None:
            return "chaos injection perturbs the schedule"
        if request.get("record_schedule"):
            return "schedule recordings are per-run artifacts"
        if request.get("metrics"):
            return "metrics report per-run wall-clock timings"
        return nondeterminism_reason(program, request["backend"])

    def _finish_shared(self, shared: _SharedRun, result: dict) -> None:
        """The shared run completed: store (if pure), fan out, unregister.

        Runs on whatever thread finished the pool handle — the router,
        the watchdog, or a cancel — always outside ``pool._mu``.
        """
        # Breaker verdict for this execution.  Only *worker-killing*
        # outcomes (a real crash/OOM, or a wedge the watchdog ended) are
        # failures; any worker-produced result — even a program
        # diagnostic — proves the program harmless.  Everything else
        # (cancel, shutdown, infra loss, shed) is no verdict at all and
        # merely hands back a half-open probe claim.
        sha = shared.key[0]
        cause = result.get("cause")
        if cause == "crash":
            self.breaker.record_failure(sha, "crashed its sandbox worker")
        elif cause == "watchdog":
            self.breaker.record_failure(
                sha, "been killed by the server watchdog")
        elif result.get("phase") in ("run", "compile", "internal"):
            self.breaker.record_success(sha)
        else:
            self.breaker.release(sha)
        with shared.mu:
            shared.done = True
            waiters = list(shared.waiters)
            shared.waiters.clear()
        with self._mu:
            if self._shared.get(shared.key) is shared:
                del self._shared[shared.key]
            for waiter in waiters:
                entry = self._runs.get(waiter.id)
                if entry is not None and entry.handle is waiter:
                    del self._runs[waiter.id]
        # Store only completed program-level outcomes: clean runs and
        # program diagnostics.  Races (exit 3) never reach here cacheable
        # (racy = nondeterministic); guardrail trips (4), deadlock (5),
        # cancellations (130), worker crashes and internal errors are
        # events of *this* execution, not properties of the program.
        if (shared.cacheable
                and result.get("phase") in ("run", "compile")
                and result.get("exit_code") in (0, 1)
                and result.get("status") in ("ok", "error")):
            self.result_cache.put(shared.key, result)
        for waiter in waiters:
            waiter.finish(dict(result))

    def run(self, payload: object, tenant: str = ANONYMOUS,
            timeout: float | None = None) -> dict:
        """Submit and block for the result (the ``POST /api/run`` path).

        The default timeout covers the worst legitimate case — the
        request's clamped time limit plus the watchdog grace — so a
        caller can never wedge on a lost run.
        """
        handle = self.submit(payload, tenant)
        if timeout is None:
            timeout = (handle.request.get("time_limit",
                                          self.config.max_time_limit)
                       + self.config.watchdog_grace + 30.0)
        result = dict(handle.wait(timeout))
        result["id"] = handle.id
        if handle.dedup:
            result["dedup"] = handle.dedup
        return result

    def cancel(self, req_id: str,
               reason: str = "cancelled by the client") -> bool:
        """Cancel one admitted request, wherever it is in its life.

        Detaches the waiter from its shared run; the underlying sandbox
        execution is killed only when this was the *last* waiter.  A
        request cancelled before dispatch (still compiling, still being
        placed) is marked so :meth:`_place` never starts it.
        """
        kill_id = None
        with self._mu:
            entry = self._runs.pop(req_id, None)
            if entry is not None:
                self.cancelled_total += 1
                shared = entry.shared
                if shared is not None:
                    with shared.mu:
                        try:
                            shared.waiters.remove(entry.handle)
                        except ValueError:
                            pass
                        if (not shared.waiters and not shared.done
                                and not shared.cancelled):
                            shared.cancelled = True
                            kill_id = shared.exec_request["id"]
                    if (kill_id is not None
                            and self._shared.get(shared.key) is shared):
                        del self._shared[shared.key]
        if entry is None:
            # Not one of ours (already finished, or a bare pool id from
            # an older client) — let the pool decide.
            return self.pool.cancel(req_id, reason)
        entry.handle.finish(pool_result(
            "cancelled", EXIT_CANCELLED,
            f"the run was cancelled — {reason}"))
        if kill_id is not None:
            self.pool.cancel(kill_id, reason)
        return True

    # -- drain ---------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self, grace: float | None = None) -> threading.Event:
        """Stop admissions and wind the service down gracefully.

        New submissions are refused with 503 immediately; in-flight runs
        get up to ``grace`` seconds (default ``config.drain_grace``) to
        finish, then are cancelled with whatever output they produced.
        The pool is shut down and the result cache persisted.  Returns
        the event set once the drain has fully completed; idempotent —
        a second call just returns the same event.
        """
        with self._mu:
            if self._draining or self._closed:
                return self.drained
            self._draining = True
        if grace is None:
            grace = self.config.drain_grace
        self._drain_thread = threading.Thread(
            target=self._drain, args=(float(grace),),
            name="tetra-serve-drain", daemon=True)
        self._drain_thread.start()
        return self.drained

    def _drain(self, grace: float) -> None:
        deadline = monotonic_clock() + grace
        while monotonic_clock() < deadline:
            with self._mu:
                if not self._runs:
                    break
            time.sleep(0.05)
        with self._mu:
            leftovers = list(self._runs)
        for req_id in leftovers:
            if self.cancel(req_id, reason="the server is draining and "
                           "the drain deadline passed"):
                self.drain_cancelled += 1
        self.shutdown()
        self.drained.set()

    # -- introspection -------------------------------------------------
    def check(self, payload: object) -> dict:
        """Static diagnostics only (the ``POST /api/check`` path) — no
        quota charge beyond validation, no worker."""
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("source"), str):
            raise ServeError(400, "'source' must be a string")
        source = payload["source"]
        if len(source.encode("utf-8", "surrogatepass")) \
                > self.config.max_source_bytes:
            raise ServeError(
                413, f"source exceeds {self.config.max_source_bytes} bytes")
        from ..api import check_source

        diagnostics = check_source(source, payload.get("name", "<request>"))
        return {
            "ok": not diagnostics,
            "diagnostics": [exc.render() for exc in diagnostics],
        }

    def stats(self) -> dict:
        with self._mu:
            totals = {
                "requests_total": self.requests_total,
                "rejected_total": self.rejected_total,
                "compile_rejects": self.compile_rejects,
            }
            dedup = {
                "coalesced": self.coalesced_total,
                "cancelled": self.cancelled_total,
                "inflight_shared": len(self._shared),
            }
        cache = program_cache_info()
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = (cache["hits"] / lookups) if lookups else 0.0
        pool_stats = self.pool.stats()
        result_cache = self.result_cache.stats()
        dedup["cache_hits"] = result_cache["hits"]
        dedup["executions"] = pool_stats["submitted"]
        dedup["result_cache"] = result_cache
        overload = {
            "admission": self.admission.stats(),
            "breaker": self.breaker.stats(),
            "shed_expired": pool_stats["shed_expired"],
            "infra_retried": pool_stats["infra_retried"],
            "draining": self._draining,
            "drain_cancelled": self.drain_cancelled,
        }
        out = {
            **totals,
            "dedup": dedup,
            "overload": overload,
            "pool": pool_stats,
            "quotas": self.quotas.stats(),
            "program_cache": cache,
        }
        if self.chaos is not None:
            out["chaos"] = self.chaos.stats()
        return out

    def shutdown(self) -> None:
        """Stop the service immediately (idempotent; :meth:`begin_drain`
        ends here too, after its grace period)."""
        self._closed = True
        # Closing the pool finishes every in-flight exec handle with a
        # cancelled result, which fans out to the waiters via on_done.
        self.pool.shutdown()
        self.result_cache.save()
