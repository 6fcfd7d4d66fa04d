"""Per-layer tracing from outside the system under test.

The benchmark never edits ``src/``.  Instead, a traced run replaces a
handful of public functions with timing wrappers before the workload
starts (:func:`install`).  Each wrapped call becomes a span carrying its
name, start, end, parent span and request id; a span's *self* time is its
duration minus the time its child spans cover.  Spans stay in memory and
are written at exit as Chrome trace-event JSON.

Forked processes (``tetra serve`` sandbox workers) inherit the wrappers;
their spans go to per-pid JSON-lines files that the parent merges.

A wrapper target that no longer exists (a function renamed by a later
change) is recorded with the reason and its layer reports ``null``; the
end-to-end run never aborts because of it.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import statistics
import threading
import time


class _Frame:
    __slots__ = ("name", "t0", "child", "rid", "children")

    def __init__(self, name: str):
        self.name = name
        self.t0 = time.perf_counter()
        self.child = 0.0
        self.rid = None
        self.children = set()


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, spill_dir: str | None = None):
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        #: (name, t0, t1, self_s, parent, rid, pid, tid)
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        #: wrapper name -> why it could not be installed
        self.missing: dict[str, str] = {}
        self._mu = threading.Lock()
        self._tls = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked child starts with its parent's spans in memory; keep
        # only what the child itself records.
        self.pid = os.getpid()
        self.spans = []
        self.counts = collections.Counter()
        self._mu = threading.Lock()
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str) -> _Frame:
        frame = _Frame(name)
        self._stack().append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        """Close ``frame`` and record its span."""
        t1 = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        dur = t1 - frame.t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += dur
            parent.children.add(frame.name)
            if frame.rid is not None and parent.rid is None:
                parent.rid = frame.rid
        self.spans.append((frame.name, frame.t0, t1, dur - frame.child,
                           parent.name if parent else None, frame.rid,
                           self.pid, threading.get_ident()))

    def tag(self, rid: str) -> None:
        """Attach a request id to every open span on this thread."""
        for frame in self._stack():
            if frame.rid is None:
                frame.rid = rid

    def count(self, key: str, n: float = 1) -> None:
        with self._mu:
            self.counts[key] += n

    def span(self, name: str, t0: float, t1: float, rid=None) -> None:
        """Record an already-measured span (the load generator's own)."""
        self.spans.append((name, t0, t1, t1 - t0, None, rid, self.pid,
                           threading.get_ident()))

    # -- wrappers --------------------------------------------------------
    def wrap(self, spec: str, name: str, after=None, span: bool = True):
        """Replace ``module:attr.path`` with a timing wrapper.

        ``after(frame, args, result, exc)`` runs after every call (frame
        is None when ``span`` is False); its own errors are swallowed so a
        hook bug can never fail the run.
        """
        module_name, _, path = spec.partition(":")
        try:
            owner = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
        except (ImportError, AttributeError) as exc:
            self.missing[name] = f"{spec}: {exc}"
            return
        if getattr(original, "_bench_wrapped", False):
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name) if span else None
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if frame is not None:
                    tracer.end(frame)
                if after is not None:
                    try:
                        after(frame, args, result, exc)
                    except Exception:  # noqa: BLE001 - never fail the run
                        tracer.count("trace.hook_errors")

        wrapper._bench_wrapped = True
        setattr(owner, parts[-1], wrapper)

    # -- export ----------------------------------------------------------
    def spill(self) -> None:
        """Append this (forked) process's spans and counters to its
        per-pid file and clear them."""
        if self.spill_dir is None:
            return
        spans, self.spans = self.spans, []
        with self._mu:
            counts, self.counts = self.counts, collections.Counter()
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for record in spans:
                fh.write(json.dumps(["s", *record]) + "\n")
            if counts:
                fh.write(json.dumps(["c", dict(counts)]) + "\n")
            if self.missing:
                fh.write(json.dumps(["m", self.missing]) + "\n")

    def merge_spills(self, directory: str) -> None:
        """Fold every per-pid file under ``directory`` into this tracer."""
        for entry in sorted(os.listdir(directory)):
            if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
                continue
            with open(os.path.join(directory, entry), encoding="utf-8") as fh:
                for line in fh:
                    # A worker killed mid-write can only tear its own
                    # last line.
                    try:
                        record = json.loads(line)
                    except ValueError:
                        self.counts["trace.torn_lines"] += 1
                        continue
                    if record[0] == "s":
                        self.spans.append(tuple(record[1:]))
                    elif record[0] == "c":
                        self.counts.update(record[1])
                    elif record[0] == "m":
                        self.missing.update(record[1])

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document (Perfetto loads it)."""
        base = min((s[1] for s in self.spans), default=0.0)
        events = []
        for name, t0, t1, self_s, parent, rid, pid, tid in self.spans:
            args = {"self_ms": round(self_s * 1000, 4)}
            if parent:
                args["parent"] = parent
            if rid:
                args["rid"] = rid
            events.append({"name": name, "ph": "X", "pid": pid, "tid": tid,
                           "ts": round((t0 - base) * 1e6, 3),
                           "dur": round((t1 - t0) * 1e6, 3), "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# What to wrap
# ----------------------------------------------------------------------
def _tokens(tracer):
    def after(frame, args, result, exc):
        if result is not None:
            tracer.count("lexer.tokens", len(result))
    return after


def _cached_program(tracer):
    def after(frame, args, result, exc):
        if exc is None:
            tracer.count("api.lookups")
            if "api.compile" not in frame.children:
                tracer.count("api.hits")
    return after


def _lowered(tracer):
    def after(frame, args, result, exc):
        if result is not None:
            tracer.count("native.kernels_lowered",
                         len(result.functions) + len(result.loops))
            tracer.count("native.fallback_lines", len(result.fallbacks))
    return after


def _loaded(tracer):
    def after(frame, args, result, exc):
        if result is not None and result.cache_hit:
            tracer.count("native.artifact_hits")
    return after


def _offload(tracer):
    def after(frame, args, result, exc):
        tracer.count("proc.offloads" if result else "proc.fallbacks")
    return after


def _refused(tracer, key):
    def after(frame, args, result, exc):
        if exc is not None:
            tracer.count(key)
    return after


def _cache_get(tracer):
    def after(frame, args, result, exc):
        tracer.count("cache.gets")
        if result is not None:
            tracer.count("cache.hits")
    return after


def _cache_put(tracer):
    def after(frame, args, result, exc):
        tracer.count("cache.puts")
    return after


def _service_run(tracer):
    def after(frame, args, result, exc):
        if result is not None and result.get("id"):
            tracer.tag(result["id"])
    return after


class _PoolClock:
    """Joins a pool submission to the handle's finish: the queue wait is
    submit-to-finish minus the worker's own ``wall_ms``."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.submitted: dict[str, float] = {}

    def on_submit(self, frame, args, result, exc):
        if result is not None:
            self.submitted[result.id] = time.perf_counter()

    def on_finish(self, frame, args, result, exc):
        handle, payload = args[0], args[1]
        t0 = self.submitted.pop(getattr(handle, "id", None), None)
        if t0 is None or not isinstance(payload, dict):
            return
        wall_ms = float(payload.get("wall_ms") or 0.0)
        total_ms = (time.perf_counter() - t0) * 1000.0
        self.tracer.count("pool.executions")
        self.tracer.count("pool.exec_ms_total", wall_ms)
        self.tracer.count("pool.wait_ms_total", max(0.0, total_ms - wall_ms))


def _spill_after(tracer):
    def after(frame, args, result, exc):
        if os.getpid() != ROOT_PID:
            tracer.spill()
    return after


#: The process that installed the wrappers (its spans stay in memory).
ROOT_PID = os.getpid()


def install(tracer: Tracer, serve: bool = False) -> Tracer:
    """Wrap every layer's public entry points; ``serve`` adds the service
    layers.  Returns ``tracer`` for chaining."""
    global ROOT_PID
    ROOT_PID = os.getpid()
    w = tracer.wrap
    w("repro.lexer.scanner:Scanner.scan", "lexer", _tokens(tracer))
    w("repro.api:parse_source", "parser")
    w("repro.api:check_program", "types")
    w("repro.analysis.determinism:determinism_info", "analysis.determinism")
    w("repro.api:compile_source", "api.compile")
    w("repro.api:cached_program", "api.cached_program",
      _cached_program(tracer))
    w("repro.interp.compile:compile_program", "interp.closure_compile")
    w("repro.interp.interpreter:Interpreter.run", "interp.execute")
    w("repro.compiler.native:lower_program", "native.lower",
      _lowered(tracer))
    w("repro.compiler.native:_compile_so", "native.cc")
    w("repro.compiler.native:load_module", "native.load", _loaded(tracer))
    w("repro.runtime.proc:ProcBackend.try_parallel_for", "proc.offload",
      _offload(tracer))
    w("repro.runtime.sim:SimBackend.schedule", "sim.schedule")
    if serve:
        clock = _PoolClock(tracer)
        w("repro.serve.http:TetraServeHandler.do_POST", "http.handler")
        w("repro.serve.service:ExecutionService.run", "service.run",
          _service_run(tracer))
        w("repro.serve.service:ExecutionService.submit", "service.submit")
        w("repro.serve.service:validate_request", "protocol.validate")
        w("repro.serve.service:run_key", "protocol.run_key")
        w("repro.serve.service:cached_program", "api.cached_program",
          _cached_program(tracer))
        w("repro.serve.quotas:TenantQuotas.admit", "quotas.admit",
          _refused(tracer, "quotas.refused"))
        w("repro.serve.overload:AdmissionController.check",
          "overload.admission", _refused(tracer, "overload.shed"))
        w("repro.serve.cache:ResultCache.get", "cache.get",
          _cache_get(tracer))
        w("repro.serve.cache:ResultCache.put", "cache.put",
          _cache_put(tracer))
        w("repro.serve.pool:RunnerPool.submit", "pool.submit",
          clock.on_submit)
        w("repro.serve.pool:RunHandle.finish", "pool.finish",
          clock.on_finish, span=False)
        w("repro.serve.pool:_run_request", "worker.request",
          _spill_after(tracer))
    return tracer


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
class LayerStats:
    """Span aggregates by (name, process role)."""

    def __init__(self, tracer: Tracer, root_pid: int):
        self.tracer = tracer
        self.counts = tracer.counts
        self.missing = tracer.missing
        agg = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for name, t0, t1, self_s, _parent, _rid, pid, _tid in tracer.spans:
            role = "root" if pid == root_pid else "child"
            for key in ((name, role), (name, "any")):
                entry = agg[key]
                entry[0] += 1
                entry[1] += t1 - t0
                entry[2] += self_s
        self._agg = agg

    def calls(self, name: str, role: str = "any") -> int:
        entry = self._agg.get((name, role))
        return entry[0] if entry else 0

    def total_ms(self, name: str) -> float:
        entry = self._agg.get((name, "any"))
        return entry[1] * 1000.0 if entry else 0.0

    def mean_ms(self, name: str, role: str = "any", self_time=False) -> float:
        """Mean busy (or self) milliseconds per call; 0 with no calls."""
        entry = self._agg.get((name, role))
        if not entry or not entry[0]:
            return 0.0
        return (entry[2] if self_time else entry[1]) * 1000.0 / entry[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _dig(extra: dict, *path):
    """``extra[path[0]][path[1]]...``, or 0 where it is absent."""
    for key in path:
        if not isinstance(extra, dict) or key not in extra:
            return 0
        extra = extra[key]
    return extra


#: metric name -> (wrapper names it needs, function(stats, extra) -> value).
#: ``extra`` carries what the workload itself measured: sim makespans,
#: tier times, the load generator's lateness, and ``/api/stats``.
LAYER_METRICS = {
    "lexer.self_ms": (("lexer",),
                      lambda s, x: s.mean_ms("lexer", self_time=True)),
    "lexer.tokens": (("lexer",), lambda s, x: s.counts["lexer.tokens"]),
    "parser.self_ms": (("parser", "lexer"),
                       lambda s, x: s.mean_ms("parser", self_time=True)),
    "types.check_ms": (("types",), lambda s, x: s.mean_ms("types")),
    "analysis.determinism_ms": (
        ("analysis.determinism",),
        lambda s, x: s.mean_ms("analysis.determinism")),
    "api.compile_ms": (("api.compile",),
                       lambda s, x: s.mean_ms("api.compile", "root")),
    "api.compiles": (("api.compile",),
                     lambda s, x: s.calls("api.compile", "root")),
    "api.cache_hit_rate": (
        ("api.cached_program", "api.compile"),
        lambda s, x: _ratio(s.counts["api.hits"], s.counts["api.lookups"])),
    "worker.compile_ms": (("api.compile",),
                          lambda s, x: s.mean_ms("api.compile", "child")),
    "worker.compiles": (("api.compile",),
                        lambda s, x: s.calls("api.compile", "child")),
    "interp.closure_compile_ms": (
        ("interp.closure_compile",),
        lambda s, x: s.mean_ms("interp.closure_compile")),
    "interp.execute_ms": (("interp.execute",),
                          lambda s, x: s.mean_ms("interp.execute")),
    "interp.runs": (("interp.execute",),
                    lambda s, x: s.calls("interp.execute")),
    "native.lower_ms": (("native.lower",),
                        lambda s, x: s.mean_ms("native.lower")),
    "native.cc_ms": (("native.cc",), lambda s, x: s.mean_ms("native.cc")),
    "native.load_ms": (("native.load", "native.cc"),
                       lambda s, x: s.mean_ms("native.load", self_time=True)),
    "native.artifact_hits": (("native.load",),
                             lambda s, x: s.counts["native.artifact_hits"]),
    "native.kernels_lowered": (
        ("native.lower",), lambda s, x: s.counts["native.kernels_lowered"]),
    "native.fallback_lines": (
        ("native.lower",), lambda s, x: s.counts["native.fallback_lines"]),
    "proc.offload_ms": (("proc.offload",), lambda s, x: _ratio(
        s.total_ms("proc.offload"), s.counts["proc.offloads"])),
    "proc.offloads": (("proc.offload",),
                      lambda s, x: s.counts["proc.offloads"]),
    "proc.fallbacks": (("proc.offload",),
                       lambda s, x: s.counts["proc.fallbacks"]),
    "sim.schedule_ms": (("sim.schedule",),
                        lambda s, x: s.mean_ms("sim.schedule")),
    "sim.makespan_1c.primes": ((), lambda s, x: _dig(
        x, "sim", "primes", "1")),
    "sim.makespan_8c.primes": ((), lambda s, x: _dig(
        x, "sim", "primes", "8")),
    "sim.makespan_1c.tsp": ((), lambda s, x: _dig(
        x, "sim", "tsp", "1")),
    "sim.makespan_8c.tsp": ((), lambda s, x: _dig(
        x, "sim", "tsp", "8")),
    "sim.speedup_8c": ((), lambda s, x: _dig(x, "sim_speedup_8c")),
    "tier.fast_s": ((), lambda s, x: _dig(x, "tiers", "fast")),
    "tier.native_s": ((), lambda s, x: _dig(x, "tiers", "native")),
    "tier.proc_s": ((), lambda s, x: _dig(x, "tiers", "proc")),
    "http.handler_ms": (("http.handler",),
                        lambda s, x: s.mean_ms("http.handler")),
    "http.transport_ms": (("http.handler", "service.run"),
                          lambda s, x: _dig(x, "transport_ms")),
    "protocol.validate_ms": (("protocol.validate",),
                             lambda s, x: s.mean_ms("protocol.validate")),
    "protocol.run_key_ms": (("protocol.run_key",),
                            lambda s, x: s.mean_ms("protocol.run_key")),
    "quotas.admit_ms": (("quotas.admit",),
                        lambda s, x: s.mean_ms("quotas.admit")),
    "quotas.refused": (("quotas.admit",),
                       lambda s, x: s.counts["quotas.refused"]),
    "overload.admission_ms": (("overload.admission",),
                              lambda s, x: s.mean_ms("overload.admission")),
    "overload.shed": (("overload.admission",),
                      lambda s, x: s.counts["overload.shed"]),
    "overload.breaker_trips": ((), lambda s, x: _dig(
        x, "serve_stats", "overload", "breaker", "trips")),
    "cache.hit_rate": (("cache.get",), lambda s, x: _ratio(
        s.counts["cache.hits"], s.counts["cache.gets"])),
    "cache.get_ms": (("cache.get",), lambda s, x: s.mean_ms("cache.get")),
    "cache.puts": (("cache.put",), lambda s, x: s.counts["cache.puts"]),
    "service.submit_self_ms": (
        ("service.submit",),
        lambda s, x: s.mean_ms("service.submit", self_time=True)),
    "service.executions_per_request": (
        ("pool.submit", "service.submit"),
        lambda s, x: _ratio(s.calls("pool.submit"),
                            s.calls("service.submit"))),
    "service.coalesced": ((), lambda s, x: _dig(
        x, "serve_stats", "dedup", "coalesced")),
    "pool.wait_ms": (("pool.submit", "pool.finish"), lambda s, x: _ratio(
        s.counts["pool.wait_ms_total"], s.counts["pool.executions"])),
    "pool.exec_ms": (("pool.submit", "pool.finish"), lambda s, x: _ratio(
        s.counts["pool.exec_ms_total"], s.counts["pool.executions"])),
    "pool.served": ((), lambda s, x: _dig(
        x, "serve_stats", "pool", "served")),
    "pool.crashed": ((), lambda s, x: _dig(
        x, "serve_stats", "pool", "crashed")),
    "pool.recycled": ((), lambda s, x: _dig(
        x, "serve_stats", "pool", "recycled")),
    "pool.infra_retried": ((), lambda s, x: _dig(
        x, "serve_stats", "pool", "infra_retried")),
    "loadgen.late_p99_ms": ((), lambda s, x: _dig(x, "late_p99_ms")),
    "loadgen.sent": ((), lambda s, x: _dig(x, "sent")),
    "trace.spans": ((), lambda s, x: len(s.tracer.spans)),
    "trace.missing_wrappers": ((), lambda s, x: len(s.missing)),
    "trace.latency_p50_ms": ((), lambda s, x: _dig(x, "latency_p50_ms")),
}


def layer_metrics(tracer: Tracer, root_pid: int, extra: dict) -> dict:
    """name -> {"value": number or None, "reason": why None}."""
    stats = LayerStats(tracer, root_pid)
    out = {}
    for name, (needs, fn) in LAYER_METRICS.items():
        gone = [tracer.missing[n] for n in needs if n in tracer.missing]
        if gone:
            out[name] = {"value": None, "reason": "; ".join(gone)}
        else:
            out[name] = {"value": fn(stats, extra)}
    return out


def transport_ms(tracer: Tracer, client: dict, server_pid: int) -> float:
    """Mean client latency minus the server's handler span, joined on the
    request id (``client`` maps id -> client-observed seconds)."""
    handler = {}
    for name, t0, t1, _s, _p, rid, pid, _tid in tracer.spans:
        if name == "http.handler" and pid == server_pid and rid:
            handler[rid] = t1 - t0
    gaps = [(client[rid] - handler[rid]) * 1000.0
            for rid in client if rid in handler]
    return statistics.fmean(gaps) if gaps else 0.0
