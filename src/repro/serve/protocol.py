"""Wire protocol for ``tetra serve``: request validation, guardrail
clamping, and the exit-code → HTTP-status mapping.

A run request is a JSON object::

    {
      "source": "def main():\\n    print(1)\\n",   # required
      "inputs": ["line1", "line2"],                # read_* lines
      "entry": "main",
      "backend": "thread",       # thread | sequential | coop | sim | proc
      "detect_races": false,
      "metrics": false,
      "time_limit": 2.0,         # clamped to the server's ceiling
      "memory_limit": 100000,    # value cells
      "step_limit": 1000000,
      "output_limit": 500000,    # characters
      "chaos_seed": null,
      "workers": null,           # parallel-for workers
      "chunking": "block",
      "record_schedule": false
    }

Every limit is clamped between a server default (applied when the client
sends nothing) and a hard ceiling — a tenant can lower its budget, never
raise it past the operator's cap.  Unknown fields are rejected so typos
fail loudly instead of silently running with defaults.

The **exit-code → HTTP-status mapping** (the same exit codes ``tetra run``
reports, README "Guardrails & chaos testing"):

    ==== ============================================== ===========
    exit meaning                                        HTTP status
    ==== ============================================== ===========
    0    clean run                                      200
    1    program diagnostic (syntax, type, runtime)     422
    2    malformed request / bad option                  400
    3    data races found (run itself clean)            200
    4    a guardrail tripped (time/memory/steps/output) 408
    5    deadlock detected and aborted                  409
    130  cancelled (client cancel, shutdown)            499
    ==== ============================================== ===========

Server-level conditions use the usual codes on top: 404 unknown route,
405 wrong method, 413 source too large, 429 quota or rate limit,
500 worker crash, 503 shed (queue full or queue deadline unreachable,
with ``Retry-After`` from live pool occupancy), quarantined by the
poison-program circuit breaker, draining, or shutting down.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from ..errors import (
    EXIT_CANCELLED,
    EXIT_DEADLOCK,
    EXIT_ERROR,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_RACES,
    EXIT_USAGE,
)
from ..runtime.backend import RuntimeConfig

#: The documented mapping (also rendered in README).
EXIT_HTTP_STATUS = {
    EXIT_OK: 200,
    EXIT_ERROR: 422,
    EXIT_USAGE: 400,
    EXIT_RACES: 200,
    EXIT_LIMIT: 408,
    EXIT_DEADLOCK: 409,
    EXIT_CANCELLED: 499,
}


def http_status_for_exit(code: int) -> int:
    """HTTP status for a run's uniform exit code (unknown → 500)."""
    return EXIT_HTTP_STATUS.get(code, 500)


class ServeError(Exception):
    """A request the service refuses, with its HTTP status.

    ``retry_after`` (seconds) is set for rate-limit refusals so the
    handler can emit a ``Retry-After`` header.
    """

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


#: Backends a tenant may pick (everything the CLI offers).
ALLOWED_BACKENDS = ("thread", "sequential", "coop", "sim", "proc")
ALLOWED_CHUNKINGS = ("block", "cyclic", "dynamic")


@dataclass
class ServeConfig:
    """Operator knobs for one :class:`~repro.serve.service.ExecutionService`.

    The per-request entries come in (default, ceiling) pairs: the default
    applies when the client sends nothing (or 0), the ceiling clamps what
    it may ask for.  Quotas are per tenant (the ``X-Tetra-Tenant`` header,
    ``"anonymous"`` when absent).
    """

    host: str = "127.0.0.1"
    port: int = 8722
    #: Sandbox worker processes (each runs one request at a time).
    workers: int = 2
    #: Retire a worker after this many requests (0 = never) — a fresh
    #: process reclaims whatever a thousand student programs leaked.
    recycle_after: int = 64
    #: Requests queued waiting for a worker before the service says 503.
    max_queue: int = 32
    #: Queue-wait budget in seconds: the default applies when a request
    #: names no ``queue_deadline``, the ceiling clamps what it may ask
    #: for.  A request is shed (503 + ``Retry-After``) the moment the
    #: estimated wait exceeds its deadline — at admission when the pool
    #: is already that far behind, or in the queue when the estimate
    #: proves optimistic.
    default_queue_wait: float = 10.0
    max_queue_wait: float = 60.0
    #: Poison-program circuit breaker: consecutive worker-killing
    #: outcomes (crash / OOM / watchdog kill) before a program sha is
    #: quarantined, the first quarantine length in seconds (doubling per
    #: re-trip), and the backoff ceiling.
    breaker_threshold: int = 3
    breaker_backoff: float = 30.0
    breaker_backoff_cap: float = 600.0
    #: Transient-infra retries: how many times a dispatch whose worker
    #: died *before user code started* (spawn failure, recycle race,
    #: pipe EOF) is retried on a fresh worker, and the first retry
    #: backoff in seconds (doubling, capped at 1s).  Program-caused
    #: deaths are never retried — they feed the breaker instead.
    infra_retries: int = 2
    infra_retry_backoff: float = 0.05
    #: Graceful-drain budget: seconds in-flight runs get to finish after
    #: SIGTERM / ``POST /api/drain`` before being cancelled with partial
    #: output.
    drain_grace: float = 10.0
    #: Seeded serve-layer fault injection (``--chaos-serve``); ``None``
    #: disables it.  See :mod:`repro.serve.chaos`.
    chaos_serve_seed: int | None = None
    #: Token-bucket refill per tenant, requests/second.
    rate: float = 10.0
    #: Token-bucket capacity (burst size) per tenant.
    burst: int = 20
    #: Simultaneously *running* requests per tenant.
    max_concurrent: int = 4
    #: Wall-clock guardrail in host seconds.  Enforced in-worker on the
    #: host-clock backends (thread/sequential/proc); sim and coop tick
    #: virtual units, so there the step limit and the parent watchdog
    #: (time limit + ``watchdog_grace``) bound the run instead.
    default_time_limit: float = 5.0
    max_time_limit: float = 30.0
    #: Value-heap cells (see RuntimeConfig.memory_limit).
    default_memory_limit: int = 500_000
    max_memory_limit: int = 2_000_000
    #: Steps: loop iterations, parallel for items and calls (see
    #: RuntimeConfig.step_limit).
    default_step_limit: int = 5_000_000
    max_step_limit: int = 50_000_000
    #: Captured output characters.
    default_output_limit: int = 1_000_000
    max_output_limit: int = 8_000_000
    #: Request body / source size caps.
    max_source_bytes: int = 200_000
    max_inputs: int = 1_000
    #: Parallel-for workers a request may ask for.
    max_workers_per_run: int = 8
    #: Seconds past a run's time limit before the parent kills its worker
    #: outright (the in-worker guardrail normally fires first; the
    #: watchdog catches wedged runs that never reach a statement
    #: boundary).
    watchdog_grace: float = 3.0
    #: Collapse concurrent identical submissions (same :func:`run_key`)
    #: into one sandbox execution fanned out to every waiter.
    coalesce: bool = True
    #: Entries in the pure-result cache (0 disables it).  Only runs the
    #: determinism analysis proves replayable are ever stored.
    result_cache_size: int = 256
    #: Optional JSON file the result cache loads at boot and saves at
    #: shutdown, so a restart keeps yesterday's classroom warm.
    result_cache_path: str | None = None


def _clamp(value, default, ceiling, *, kind=float, name=""):
    """Clamp one guardrail between the operator default (what 0/absent
    means) and the hard ceiling.

    Only finite, non-negative JSON numbers pass.  ``min(value, ceiling)``
    alone is not a clamp: ``NaN`` compares false against everything (so
    ``min`` hands it straight through and every later ``elapsed > limit``
    check silently never fires), and ``Infinity`` survives the old
    ``< 0`` test only to blow up ``int()`` with an ``OverflowError`` deep
    in dispatch.  Both are a 400 at the front door now.
    """
    if value is None:
        value = 0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(400, f"{name} must be a number") from None
    value = float(value)
    if not math.isfinite(value):
        raise ServeError(400, f"{name} must be a finite number")
    if value < 0:
        raise ServeError(400, f"{name} must be non-negative")
    if not value:
        value = default
    return kind(min(value, ceiling))


#: The RuntimeConfig fields that are plain values (the ``object`` ones
#: carry per-run machinery: cancel tokens, fault plans, recorders).
_VALUE_FIELDS = tuple(f.name for f in fields(RuntimeConfig)
                      if f.type != "object")


def request_config(request: dict) -> RuntimeConfig:
    """The :class:`RuntimeConfig` one *validated* request runs with.

    The service's time budget is host seconds; sim/coop clocks tick
    virtual units, where "5.0" would abort a healthy run instantly, so
    only host-clock backends get it as ``time_limit``.  Deterministic
    backends are bounded by the step limit and the parent watchdog
    instead.
    """
    return RuntimeConfig(
        num_workers=request["workers"],
        chunking=request["chunking"],
        step_limit=request["step_limit"],
        detect_races=request["detect_races"],
        metrics=request["metrics"],
        time_limit=request["time_limit"]
        if request["backend"] in ("thread", "sequential", "proc") else 0.0,
        memory_limit=request["memory_limit"],
        output_limit=request["output_limit"],
        chaos_seed=request["chaos_seed"],
    )


def run_key(request: dict) -> tuple:
    """The execution-identity key of one *validated* request.

    Two requests with equal keys ask for the same computation: the same
    program (by sha), name, entry point, input lines, backend and
    schedule recording, run with equal :func:`request_config` values.
    Tenant, request id, and the queue deadline are deliberately excluded
    — identity is *what* runs, not *who* asked or how long they were
    willing to wait.  This is the key both request coalescing and the
    result cache share.
    """
    config = request_config(request)
    return (
        hashlib.sha256(request["source"].encode("utf-8")).hexdigest(),
        request["name"],
        request["entry"],
        tuple(request["inputs"]),
        request["backend"],
        request["record_schedule"],
    ) + tuple(getattr(config, name) for name in _VALUE_FIELDS)


_KNOWN_FIELDS = frozenset({
    "source", "inputs", "entry", "backend", "detect_races", "metrics",
    "time_limit", "memory_limit", "step_limit", "output_limit",
    "chaos_seed", "workers", "chunking", "record_schedule", "name",
    "queue_deadline",
})


def validate_request(payload: object, cfg: ServeConfig) -> dict:
    """Normalize one run request, clamping every limit to the server's
    ceilings.  Raises :class:`ServeError` (HTTP 400/413) on anything
    malformed — the tenant hears *why*, with the field named."""
    if not isinstance(payload, dict):
        raise ServeError(400, "request body must be a JSON object")
    unknown = sorted(set(payload) - _KNOWN_FIELDS)
    if unknown:
        raise ServeError(400, f"unknown request field(s): {', '.join(unknown)}")
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ServeError(400, "'source' must be a non-empty string")
    if len(source.encode("utf-8", "surrogatepass")) > cfg.max_source_bytes:
        raise ServeError(
            413, f"source exceeds {cfg.max_source_bytes} bytes")
    inputs = payload.get("inputs") or []
    if not isinstance(inputs, list) \
            or not all(isinstance(line, str) for line in inputs):
        raise ServeError(400, "'inputs' must be a list of strings")
    if len(inputs) > cfg.max_inputs:
        raise ServeError(413, f"more than {cfg.max_inputs} input lines")
    entry = payload.get("entry", "main")
    if not isinstance(entry, str) or not entry.isidentifier():
        raise ServeError(400, "'entry' must be a function name")
    backend = payload.get("backend", "thread")
    if backend not in ALLOWED_BACKENDS:
        raise ServeError(
            400, f"unknown backend {backend!r}; pick one of "
                 f"{', '.join(ALLOWED_BACKENDS)}")
    chunking = payload.get("chunking", "block")
    if chunking not in ALLOWED_CHUNKINGS:
        raise ServeError(
            400, f"unknown chunking {chunking!r}; pick one of "
                 f"{', '.join(ALLOWED_CHUNKINGS)}")
    chaos_seed = payload.get("chaos_seed")
    if chaos_seed is not None and not isinstance(chaos_seed, int):
        raise ServeError(400, "'chaos_seed' must be an integer or null")
    workers = payload.get("workers")
    if workers is not None:
        if not isinstance(workers, int) or workers < 1:
            raise ServeError(400, "'workers' must be a positive integer")
        workers = min(workers, cfg.max_workers_per_run)
    name = payload.get("name", "<request>")
    if not isinstance(name, str):
        raise ServeError(400, "'name' must be a string")
    return {
        "source": source,
        "inputs": list(inputs),
        "entry": entry,
        "backend": backend,
        "name": name,
        "detect_races": bool(payload.get("detect_races", False)),
        "metrics": bool(payload.get("metrics", False)),
        "record_schedule": bool(payload.get("record_schedule", False)),
        "chaos_seed": chaos_seed,
        "workers": workers,
        "chunking": chunking,
        "time_limit": _clamp(payload.get("time_limit"),
                             cfg.default_time_limit, cfg.max_time_limit,
                             kind=float, name="'time_limit'"),
        "memory_limit": _clamp(payload.get("memory_limit"),
                               cfg.default_memory_limit,
                               cfg.max_memory_limit,
                               kind=int, name="'memory_limit'"),
        "step_limit": _clamp(payload.get("step_limit"),
                             cfg.default_step_limit, cfg.max_step_limit,
                             kind=int, name="'step_limit'"),
        "output_limit": _clamp(payload.get("output_limit"),
                               cfg.default_output_limit,
                               cfg.max_output_limit,
                               kind=int, name="'output_limit'"),
        "queue_deadline": _clamp(payload.get("queue_deadline"),
                                 cfg.default_queue_wait,
                                 cfg.max_queue_wait,
                                 kind=float, name="'queue_deadline'"),
    }
