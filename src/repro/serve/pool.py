"""Sandboxed run workers for ``tetra serve``.

Each worker is a separate OS **process** — the unit of isolation the
hosted scenario needs: a crashed or OOM-killed student program takes down
its own worker, never the server or a sibling tenant's run.  The design
borrows the proc backend's shape (persistent processes that bootstrap
through the sha-keyed program cache — free under ``fork``, which inherits
the parent's warm cache) but serves *whole requests* instead of loop
chunks:

* One duplex :func:`multiprocessing.Pipe` per worker.  A killed worker
  corrupts nothing shared — the parent sees EOF on that worker's pipe and
  respawns it, which is what makes **cancel-by-kill** and crash recovery
  safe (a shared queue's internal lock could be held by the victim).
* Output **streams**: the worker runs the program with an IO channel that
  forwards every chunk to the parent as it is written, so ``/api/stream``
  and the WebSocket endpoint show output live.
* Workers **recycle** after ``recycle_after`` requests: the parent retires
  the old process and starts a fresh one *before* routing more work to
  it, reclaiming whatever a thousand student programs leaked.
* A parent-side **watchdog** kills any worker that blows well past its
  run's time limit — the in-worker guardrail fires at statement
  boundaries, so a run wedged inside a join or a blocking wait still
  cannot hold a sandbox slot forever.

Workers are *not* daemonic: a request may pick ``backend=proc``, and the
proc backend's own pool processes must be legal children.  Orphan safety
comes from the pipe instead — when the parent dies, the worker's next
``recv`` raises EOF and it exits.

Worker deaths are **classified** by a start-ack: the worker sends
``("start", id)`` the moment it picks a request up, immediately before
user code runs.  A death *before* the ack is infrastructure's fault
(spawn failure, recycle race, severed pipe) — the pool silently retries
the dispatch on a fresh worker with capped exponential backoff
(``infra_retries`` × ``infra_retry_backoff``) instead of surfacing a
500.  A death *after* the ack is the program's doing (crash, OOM,
deliberate kill): never retried, reported as a crash, and counted by
the service's circuit breaker.  Queued requests also carry an optional
queue deadline (``request["queue_deadline"]``): the dispatch sweep sheds
any never-dispatched request whose deadline passed with a 503-shaped
result, so an optimistic admission estimate cannot become an unbounded
wait.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import signal
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as _conn_wait

from ..errors import (
    EXIT_CANCELLED,
    EXIT_LIMIT,
    EXIT_RACES,
    TetraError,
    exit_code_for,
)
from ..stdlib.builtin_time import monotonic_clock
from ..stdlib.io import CapturingIO
from .protocol import ServeError, request_config

#: Statuses the pool itself produces (workers produce run statuses).
_CRASH_RESULT = "the worker process died mid-run (crashed or OOM-killed)"


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
#: Serializes every send on the worker's pipe: program threads stream
#: output concurrently, and the final result must not interleave.
_send_mu = threading.Lock()


class _StreamIO(CapturingIO):
    """A :class:`CapturingIO` that also ships each chunk to the parent the
    moment it is written — the live half of ``/api/stream``."""

    def __init__(self, conn, req_id: str, inputs):
        super().__init__(inputs)
        self._conn = conn
        self._req_id = req_id

    def write(self, text: str) -> None:
        with self._write_lock:
            self._chunks.append(text)
            over = self._meter(text)
        if not over:
            with _send_mu:
                try:
                    self._conn.send(("out", self._req_id, text))
                except (BrokenPipeError, OSError):
                    pass  # parent gone; the run still completes locally
        if over:
            self._overflow()


def _run_request(conn, req: dict) -> dict:
    """Execute one validated request; everything in the result is plain
    picklable data (diagnostics pre-rendered worker-side)."""
    from ..api import run_source
    from ..analysis import render_race_panel
    from ..source import SourceFile

    io = _StreamIO(conn, req["id"], req.get("inputs") or ())
    t0 = monotonic_clock()
    try:
        result = run_source(
            req["source"],
            backend=req["backend"],
            config=request_config(req),
            name=req.get("name", "<request>"),
            entry=req.get("entry", "main"),
            record_schedule=req.get("record_schedule", False),
            io=io,
            on_error="return",
        )
    except TetraError as exc:
        # Compile-time diagnostics raise even under on_error="return";
        # the parent pre-compiles, so this is the rare case of a worker
        # that forked before the parent's compile or outlived its entry.
        source = SourceFile.from_string(req["source"],
                                        req.get("name", "<request>"))
        return {
            "status": "error",
            "phase": "compile",
            "exit_code": exit_code_for(exc),
            "output": io.output,
            "error": exc.attach_source(source).render(),
            "races": None,
            "race_count": 0,
            "metrics": None,
            "schedule": None,
            "wall_ms": (monotonic_clock() - t0) * 1000.0,
        }
    wall_ms = (monotonic_clock() - t0) * 1000.0
    code = 0
    error_text = None
    if result.error is not None:
        code = exit_code_for(result.error)
        source = SourceFile.from_string(req["source"],
                                        req.get("name", "<request>"))
        error_text = result.error.attach_source(source).render()
    races_text = None
    if req["detect_races"]:
        source = SourceFile.from_string(req["source"],
                                        req.get("name", "<request>"))
        races_text = render_race_panel(result.races, source)
        if result.races and code == 0:
            code = EXIT_RACES
    return {
        "status": result.aborted_by or "ok",
        "phase": "run",
        "exit_code": code,
        "output": result.output,
        "error": error_text,
        "races": races_text,
        "race_count": len(result.races),
        "metrics": result.metrics.render() if result.metrics is not None
        else None,
        "schedule": result.schedule,
        "wall_ms": wall_ms,
    }


def _worker_main(conn, worker_index: int) -> None:
    """One sandbox worker: serve requests off the pipe until retirement
    (a ``None`` message), parent death (EOF), or a kill."""
    def _term(signum, frame):
        raise SystemExit(128 + signum)

    try:
        # The parent coordinates shutdown; Ctrl-C at the server terminal
        # must not kill workers out from under it.  SIGTERM (cancel /
        # watchdog) raises SystemExit so multiprocessing's atexit cleanup
        # still reaps any proc-backend grandchildren.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, _term)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # Under fork this process inherited the parent's program-cache lock
    # (acquired around Process.start, so never mid-critical-section) and
    # single-flight table; both must be reset — an inherited in-flight
    # Event would never be set in this process.
    from .. import api as api_mod

    api_mod._cache_lock = threading.Lock()
    api_mod._inflight = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # parent gone
        except KeyboardInterrupt:  # pragma: no cover - masked above
            return
        if msg is None:
            try:
                conn.close()
            except OSError:
                pass
            return
        # Start-ack: everything after this line is the program's fault.
        # The parent uses it to classify a death as infra (retry) vs
        # program-caused (crash, breaker-counted) — see _on_worker_death.
        with _send_mu:
            try:
                conn.send(("start", msg["id"], None))
            except (BrokenPipeError, OSError):
                return
        try:
            payload = _run_request(conn, msg)
        except (SystemExit, KeyboardInterrupt):
            # A cancel/watchdog SIGTERM mid-run: die as asked — catching
            # it here would leave a "killed" worker alive and recv-ing.
            raise
        except BaseException:  # noqa: BLE001 - shipped to the parent
            payload = {
                "status": "error",
                "phase": "internal",
                "exit_code": 1,
                "output": "",
                "error": "internal error in the serve worker:\n"
                         + traceback.format_exc(),
                "races": None,
                "race_count": 0,
                "metrics": None,
                "schedule": None,
                "wall_ms": 0.0,
            }
        with _send_mu:
            try:
                conn.send(("done", msg["id"], payload))
            except (BrokenPipeError, OSError):
                return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class RunHandle:
    """The parent's view of one submitted request: a stream of
    ``("out", text)`` events ending in ``("done", result)``."""

    def __init__(self, request: dict):
        self.request = request
        self.id = request["id"]
        self.events: queue_mod.Queue = queue_mod.Queue()
        self.result: dict | None = None
        self.done = threading.Event()
        self.worker_pid: int | None = None
        self.started_at: float | None = None
        #: The worker's start-ack arrived: user code is (about to be)
        #: running, so a worker death is now the program's fault.
        self.run_started = False
        #: Transient-infra redispatches consumed so far.
        self.infra_retries = 0
        #: Earliest time the dispatch sweep may (re)assign this handle.
        self.retry_at: float | None = None
        #: Queue deadline (absolute): a never-dispatched handle is shed
        #: once this passes.  Cleared on first dispatch.
        self.expires_at: float | None = None
        #: Called exactly once with the result (quota release hooks).
        self.on_done = None
        #: ``"coalesced"`` / ``"cache"`` when the service satisfied this
        #: request without its own sandbox run; ``None`` otherwise.
        self.dedup: str | None = None

    def emit_output(self, text: str) -> None:
        """Deliver one chunk of live output (a no-op once finished)."""
        if not self.done.is_set():
            self.events.put(("out", text))

    def finish(self, result: dict) -> None:
        if self.done.is_set():
            return
        self.result = result
        self.done.set()
        self.events.put(("done", result))
        hook, self.on_done = self.on_done, None
        if hook is not None:
            hook(result)

    def wait(self, timeout: float | None = None) -> dict:
        """Block until the run finishes; raises ``ServeError(504)`` on
        timeout (the pool watchdog normally fires first)."""
        if not self.done.wait(timeout):
            raise ServeError(504, "the run did not finish in time")
        return self.result


def pool_result(status: str, exit_code: int, message: str, *,
                cause: str | None = None,
                http_status: int | None = None,
                retry_after: float | None = None) -> dict:
    """A result the *pool* synthesizes when no worker payload exists
    (crash, cancellation, shutdown, watchdog kill, shed).

    ``cause`` names the server-side event ("crash" / "watchdog" /
    "infra" / "cancel" / "shutdown" / "shed") so the service can decide
    what feeds the circuit breaker; ``http_status`` overrides the
    exit-code→status mapping for conditions the uniform exit codes do
    not express (503 shed, 500 worker loss)."""
    result = {
        "status": status,
        "phase": "serve",
        "exit_code": exit_code,
        "output": "",
        "error": message,
        "races": None,
        "race_count": 0,
        "metrics": None,
        "schedule": None,
        "wall_ms": 0.0,
    }
    if cause is not None:
        result["cause"] = cause
    if http_status is not None:
        result["http_status"] = http_status
    if retry_after is not None:
        result["retry_after"] = retry_after
    return result


class _Worker:
    __slots__ = ("index", "proc", "conn", "handle", "served")

    def __init__(self, index, proc, conn):
        self.index = index
        self.proc = proc
        self.conn = conn
        self.handle: RunHandle | None = None
        self.served = 0


class RunnerPool:
    """A persistent set of sandbox workers plus the routing thread."""

    def __init__(self, size: int = 2, recycle_after: int = 0,
                 max_queue: int = 32, watchdog_grace: float = 3.0,
                 infra_retries: int = 2,
                 infra_retry_backoff: float = 0.05,
                 chaos=None):
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(method)
        self._mu = threading.Lock()
        self._workers: dict[int, _Worker] = {}
        self._handles: dict[str, RunHandle] = {}
        self._pending: deque[RunHandle] = deque()
        self._retired: list = []
        self._next_index = 0
        self._closed = False
        self.size = max(1, int(size))
        self.recycle_after = int(recycle_after)
        self.max_queue = int(max_queue)
        self.watchdog_grace = float(watchdog_grace)
        self.infra_retries = max(0, int(infra_retries))
        self.infra_retry_backoff = float(infra_retry_backoff)
        #: Optional :class:`~repro.serve.chaos.ServeFaultPlan`.
        self.chaos = chaos
        self.submitted = 0
        self.served = 0
        self.crashed = 0
        self.recycled = 0
        self.cancelled = 0
        self.watchdog_kills = 0
        self.infra_retried = 0
        self.shed_expired = 0
        #: EWMA of recent run durations (seconds) — feeds the admission
        #: controller's wait estimate.
        self._avg_run_s = 0.05
        with self._mu:
            for _ in range(self.size):
                self._spawn_locked()
        self._router = threading.Thread(target=self._route,
                                        name="tetra-serve-router",
                                        daemon=True)
        self._router.start()

    # -- lifecycle -----------------------------------------------------
    def _spawn_locked(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        index = self._next_index
        self._next_index += 1
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, index),
            name=f"tetra-serve-worker-{index}",
            daemon=False,  # may parent a proc-backend pool
        )
        # Under fork a child inherits every mutex as-is; hold the program
        # cache's lock across the fork so the worker never inherits it
        # mid-critical-section (same dance as the proc backend's pool).
        from ..api import _cache_lock

        with _cache_lock:
            proc.start()
        child_conn.close()
        worker = _Worker(index, proc, parent_conn)
        self._workers[index] = worker
        return worker

    def _retire_locked(self, worker: _Worker, *, kill: bool) -> None:
        """Remove ``worker`` from the registry; reaped by the router."""
        self._workers.pop(worker.index, None)
        self._retired.append((worker, kill, monotonic_clock()))

    def _reap_retired(self) -> None:
        """Escalate politely-retired workers that ignored their sentinel
        and join() finished ones (non-daemonic children must be reaped)."""
        keep = []
        for worker, kill, stamp in self._retired:
            proc = worker.proc
            if kill:
                if proc.is_alive():
                    proc.terminate()
                kill = False
            if proc.is_alive():
                if monotonic_clock() - stamp > 5.0:
                    proc.kill()
                keep.append((worker, kill, stamp))
            else:
                proc.join(timeout=0.1)
                try:
                    worker.conn.close()
                except OSError:
                    pass
        self._retired = keep

    def shutdown(self) -> None:
        with self._mu:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._workers.clear()
            pending = list(self._pending)
            self._pending.clear()
        for handle in pending:
            handle.finish(pool_result(
                "cancelled", EXIT_CANCELLED, "the server is shutting down"))
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = monotonic_clock() + 2.0
        for worker in workers:
            worker.proc.join(
                timeout=max(0.0, deadline - monotonic_clock()))
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.terminate()
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.join(timeout=0.5)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=0.5)
            if worker.handle is not None:
                worker.handle.finish(pool_result(
                    "cancelled", EXIT_CANCELLED,
                    "the server is shutting down"))
            try:
                worker.conn.close()
            except OSError:
                pass
        with self._mu:
            # The router is gone; escalate anything still retired NOW —
            # a lingering non-daemonic child would hang interpreter exit.
            for worker, _kill, _stamp in self._retired:
                if worker.proc.is_alive():
                    worker.proc.kill()
            for worker, _kill, _stamp in self._retired:
                worker.proc.join(timeout=1.0)
                try:
                    worker.conn.close()
                except OSError:
                    pass
            self._retired = []

    # -- submission ----------------------------------------------------
    def submit(self, request: dict,
               handle: RunHandle | None = None) -> RunHandle:
        """Queue one request for a sandbox worker.  The service may pass
        its own ``handle`` (a broadcasting subclass for coalesced runs);
        the pool treats it exactly like one it built itself."""
        if handle is None:
            handle = RunHandle(request)
        deadline = request.get("queue_deadline")
        with self._mu:
            if self._closed:
                raise ServeError(503, "the server is shutting down")
            idle = self._idle_worker_locked()
            if idle is None and len(self._pending) >= self.max_queue:
                raise ServeError(
                    503,
                    f"server is at capacity ({self.max_queue} requests "
                    "queued) — retry shortly",
                    retry_after=1.0,
                )
            self._handles[handle.id] = handle
            self.submitted += 1
            if idle is not None:
                self._assign_locked(idle, handle)
            else:
                if deadline:
                    handle.expires_at = monotonic_clock() + float(deadline)
                self._pending.append(handle)
        return handle

    def _idle_worker_locked(self) -> _Worker | None:
        for worker in self._workers.values():
            if worker.handle is None:
                return worker
        return None

    def _assign_locked(self, worker: _Worker, handle: RunHandle) -> None:
        chaos = self.chaos
        if chaos is not None:
            delay = chaos.pipe_delay()
            if delay:
                time.sleep(delay)
            if chaos.kill_pre_dispatch():
                # The send below usually still succeeds into the dying
                # pipe; the router then sees EOF before any start-ack —
                # exactly the infra-death shape the retry path handles.
                worker.proc.kill()
            elif chaos.sever_pipe():
                try:
                    worker.conn.close()
                except OSError:
                    pass
        worker.handle = handle
        handle.expires_at = None  # dispatched: the queue deadline is met
        handle.worker_pid = worker.proc.pid
        handle.started_at = monotonic_clock()
        try:
            worker.conn.send(handle.request)
        except (BrokenPipeError, OSError):
            # Died between requests: replace it and put the request first
            # in line — the router dispatches when the new worker is up.
            worker.handle = None
            self.crashed += 1
            self.infra_retried += 1
            self._retire_locked(worker, kill=True)
            self._spawn_locked()
            handle.worker_pid = None
            handle.started_at = None
            self._pending.appendleft(handle)

    def _dispatch_pending_locked(self) -> list[RunHandle]:
        """Assign queued handles to idle workers, skipping handles whose
        retry backoff has not lapsed and shedding those whose queue
        deadline passed.  Returns the shed handles — the caller finishes
        them *outside* ``_mu`` (handles are never finished under it)."""
        now = monotonic_clock()
        expired: list[RunHandle] = []
        backlog, self._pending = self._pending, deque()
        while backlog:
            handle = backlog.popleft()
            if handle.expires_at is not None and now >= handle.expires_at:
                self._handles.pop(handle.id, None)
                self.shed_expired += 1
                expired.append(handle)
                continue
            if handle.retry_at is not None and now < handle.retry_at:
                self._pending.append(handle)
                continue
            worker = self._idle_worker_locked()
            if worker is None:
                self._pending.append(handle)
                self._pending.extend(backlog)
                break
            handle.retry_at = None
            self._assign_locked(worker, handle)
        return expired

    def _finish_shed(self, expired: list[RunHandle]) -> None:
        for handle in expired:
            waited = handle.request.get("queue_deadline", 0)
            handle.finish(pool_result(
                "shed", EXIT_CANCELLED,
                f"shed: the run waited {waited:g}s in the queue without "
                "reaching a worker (its queue deadline) — retry shortly",
                cause="shed", http_status=503,
                retry_after=max(1.0, round(self._avg_run_s, 1)),
            ))

    # -- routing -------------------------------------------------------
    def _route(self) -> None:
        while True:
            with self._mu:
                if self._closed:
                    return
                conns = {worker.conn: worker
                         for worker in self._workers.values()}
                self._reap_retired()
            try:
                ready = _conn_wait(list(conns), timeout=0.1)
            except OSError:
                ready = []
            for conn in ready:
                worker = conns[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._on_worker_death(worker)
                    continue
                self._on_message(worker, msg)
            self._check_watchdog()

    def _on_message(self, worker: _Worker, msg: tuple) -> None:
        kind, req_id, payload = msg
        if kind == "out":
            handle = self._handles.get(req_id)
            if handle is not None:
                handle.emit_output(payload)
            return
        if kind == "start":
            # The worker's ack: user code is running.  From here on a
            # worker death is the program's fault (crash path, breaker-
            # counted), never retried.
            handle = self._handles.get(req_id)
            if handle is not None:
                handle.run_started = True
                chaos = self.chaos
                if chaos is not None:
                    src = handle.request.get("source", "")
                    if chaos.is_poison(src):
                        chaos.count_poison_kill()
                        worker.proc.kill()
                    elif chaos.kill_mid_run():
                        worker.proc.kill()
            return
        # "done"
        with self._mu:
            if self._workers.get(worker.index) is not worker:
                # Retired under us (a cancel raced its final message);
                # the handle was already finished by whoever retired it.
                return
            handle, worker.handle = worker.handle, None
            worker.served += 1
            self.served += 1
            if handle is not None and handle.started_at is not None:
                dt = monotonic_clock() - handle.started_at
                self._avg_run_s += 0.2 * (dt - self._avg_run_s)
            recycle = (self.recycle_after
                       and worker.served >= self.recycle_after
                       and not self._closed)
            if recycle:
                # Replace *before* retiring so capacity never dips.
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                self._retire_locked(worker, kill=False)
                self._spawn_locked()
                self.recycled += 1
            self._handles.pop(req_id, None)
            expired = self._dispatch_pending_locked()
        if handle is not None:
            handle.finish(payload)
        self._finish_shed(expired)

    def _on_worker_death(self, worker: _Worker) -> None:
        crash = None
        with self._mu:
            if self._workers.get(worker.index) is not worker:
                return  # already retired by cancel()/recycle
            handle, worker.handle = worker.handle, None
            self._retire_locked(worker, kill=True)
            if not self._closed:
                self._spawn_locked()
            if handle is not None:
                self.crashed += 1
                if (not handle.run_started
                        and handle.infra_retries < self.infra_retries):
                    # Infra's fault (the start-ack never came): redispatch
                    # on a fresh worker after a capped backoff, invisibly
                    # to the client and to the circuit breaker.
                    handle.infra_retries += 1
                    self.infra_retried += 1
                    handle.worker_pid = None
                    handle.started_at = None
                    handle.retry_at = monotonic_clock() + min(
                        self.infra_retry_backoff
                        * (2 ** (handle.infra_retries - 1)),
                        1.0)
                    self._pending.appendleft(handle)
                    handle = None
                else:
                    self._handles.pop(handle.id, None)
                    if handle.run_started:
                        crash = pool_result(
                            "error", 1, _CRASH_RESULT,
                            cause="crash", http_status=500)
                    else:
                        crash = pool_result(
                            "error", 1,
                            "the worker process died before the program "
                            f"started, {handle.infra_retries + 1} time(s) "
                            "in a row — server infrastructure trouble, "
                            "not the program's fault; retry shortly",
                            cause="infra", http_status=500,
                            retry_after=1.0)
            expired = self._dispatch_pending_locked()
        if handle is not None and crash is not None:
            handle.finish(crash)
        self._finish_shed(expired)

    def _check_watchdog(self) -> None:
        """Kill workers wedged well past their run's time budget."""
        now = monotonic_clock()
        victims = []
        with self._mu:
            for worker in self._workers.values():
                handle = worker.handle
                if handle is None or handle.started_at is None:
                    continue
                allowed = handle.request.get("time_limit") or 0.0
                if now - handle.started_at > allowed + self.watchdog_grace:
                    victims.append((worker, handle))
            for worker, handle in victims:
                worker.handle = None
                self._retire_locked(worker, kill=True)
                if not self._closed:
                    self._spawn_locked()
                self._handles.pop(handle.id, None)
                self.watchdog_kills += 1
            expired = self._dispatch_pending_locked()
        for _worker, handle in victims:
            handle.finish(pool_result(
                "time", EXIT_LIMIT,
                f"the run exceeded its time budget of "
                f"{handle.request.get('time_limit', 0):g}s and was killed "
                "by the server watchdog",
                cause="watchdog",
            ))
        self._finish_shed(expired)

    # -- cancellation --------------------------------------------------
    def cancel(self, req_id: str,
               reason: str = "cancelled by the client") -> bool:
        """Cancel a pending or running request.  A running request's
        worker is killed and replaced — cancellation must not depend on
        the program reaching a statement boundary."""
        expired: list[RunHandle] = []
        with self._mu:
            handle = self._handles.pop(req_id, None)
            if handle is None:
                return False
            victim = None
            if handle in self._pending:
                self._pending.remove(handle)
            else:
                for worker in self._workers.values():
                    if worker.handle is handle:
                        victim = worker
                        break
                if victim is not None:
                    victim.handle = None
                    self._retire_locked(victim, kill=True)
                    if not self._closed:
                        self._spawn_locked()
                    expired = self._dispatch_pending_locked()
            self.cancelled += 1
        handle.finish(pool_result(
            "cancelled", EXIT_CANCELLED, f"the run was cancelled — {reason}",
            cause="cancel"))
        self._finish_shed(expired)
        return True

    # -- stats ---------------------------------------------------------
    def occupancy(self) -> dict:
        """A live snapshot for the admission controller: who is busy,
        how deep the queue is, and the run-duration EWMA."""
        with self._mu:
            busy = sum(1 for w in self._workers.values()
                       if w.handle is not None)
            return {
                "workers": len(self._workers),
                "busy": busy,
                "idle": len(self._workers) - busy,
                "pending": len(self._pending),
                "max_queue": self.max_queue,
                "avg_run_seconds": self._avg_run_s,
            }

    def stats(self) -> dict:
        with self._mu:
            return {
                "workers": len(self._workers),
                "busy": sum(1 for w in self._workers.values()
                            if w.handle is not None),
                "pending": len(self._pending),
                "submitted": self.submitted,
                "served": self.served,
                "crashed": self.crashed,
                "recycled": self.recycled,
                "cancelled": self.cancelled,
                "watchdog_kills": self.watchdog_kills,
                "infra_retried": self.infra_retried,
                "shed_expired": self.shed_expired,
                "avg_run_seconds": round(self._avg_run_s, 4),
                "worker_pids": sorted(w.proc.pid
                                      for w in self._workers.values()),
            }
