"""Aggregate an :class:`~repro.obs.observer.Observer` into run metrics.

``RunMetrics`` answers the questions the paper's evaluation asks of a
parallel run — how long, how busy was each thread, how contended were the
locks, how balanced was the ``parallel for`` — uniformly across backends.
Times are in the backend's clock units: seconds on the thread and
sequential backends, abstract cost units on sim, scheduler turns on coop.

On the sim backend the metrics additionally include the machine model's
verdict (makespan, speedup vs. a 1-core schedule, utilization), which is
the authoritative speedup number; the generic ``estimated_speedup`` is a
busy-time/elapsed ratio that works on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LockMetrics:
    """Aggregated behaviour of one named lock."""

    acquisitions: int = 0
    contended: int = 0
    wait_time: float = 0.0
    hold_time: float = 0.0


@dataclass
class ParallelForMetrics:
    """Load balance of the workers of one ``parallel for`` line."""

    line: int
    items: list[int] = field(default_factory=list)
    busy: list[float] = field(default_factory=list)

    @property
    def workers(self) -> int:
        return len(self.items)

    @property
    def skew(self) -> float:
        """max/mean worker busy time; 1.0 is a perfectly balanced split."""
        useful = [b for b in self.busy if b > 0]
        if not useful:
            return 1.0
        return max(useful) / (sum(useful) / len(useful))


@dataclass
class RunMetrics:
    """Everything :func:`collect_metrics` derives from one run."""

    backend: str
    #: Host seconds for the whole run (perf_counter), every backend.
    wall_time_s: float
    #: Elapsed time in the backend's own clock units (= wall seconds on the
    #: thread backend, virtual units on sim, turns on coop).
    elapsed: float
    #: True when ``elapsed`` and the per-thread numbers are deterministic
    #: virtual time rather than host seconds.
    virtual_clock: bool
    threads: int
    #: Thread label → busy time.  On wall-clock backends: lifetime minus
    #: join and lock waiting.  On virtual-clock backends the shared clock
    #: advances while siblings run, so busy is the work actually charged to
    #: the thread (cost units on sim, scheduler turns on coop).
    thread_busy: dict[str, float] = field(default_factory=dict)
    locks: dict[str, LockMetrics] = field(default_factory=dict)
    parallel_for: list[ParallelForMetrics] = field(default_factory=list)
    total_busy: float = 0.0
    #: Busy-time / elapsed — a rough "how parallel was this run" figure.
    estimated_speedup: float = 1.0
    #: Machine-model results (sim backend only): cores, makespan,
    #: serial_makespan, speedup, utilization, lock_wait.
    sim: dict | None = None
    #: Process-pool results (proc backend only): worker processes started
    #: (real cores — 0 if no loop was offloaded), machine cores available,
    #: and (line, reason) for every loop that fell back to threads.
    proc: dict | None = None
    #: Native-tier results (``--native`` runs only): mode, whether the
    #: tier came up (and the notice when it didn't), lowered function
    #: names, kernel call counts, artifact-cache hit, (line, reason)
    #: for everything that stayed on the fast path, and (line, cause,
    #: count) for the calls that deopted and reran there.
    native: dict | None = None

    def to_dict(self) -> dict:
        """A JSON-friendly view (tests and ``RunResult`` consumers)."""
        return {
            "backend": self.backend,
            "wall_time_s": self.wall_time_s,
            "elapsed": self.elapsed,
            "virtual_clock": self.virtual_clock,
            "threads": self.threads,
            "thread_busy": dict(self.thread_busy),
            "locks": {
                name: {
                    "acquisitions": m.acquisitions,
                    "contended": m.contended,
                    "wait_time": m.wait_time,
                    "hold_time": m.hold_time,
                }
                for name, m in self.locks.items()
            },
            "parallel_for": [
                {
                    "line": p.line,
                    "workers": p.workers,
                    "items": list(p.items),
                    "busy": list(p.busy),
                    "skew": p.skew,
                }
                for p in self.parallel_for
            ],
            "total_busy": self.total_busy,
            "estimated_speedup": self.estimated_speedup,
            "sim": dict(self.sim) if self.sim is not None else None,
            "proc": dict(self.proc) if self.proc is not None else None,
            "native": (dict(self.native)
                       if self.native is not None else None),
        }

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The human panel ``tetra run --metrics`` prints."""
        unit = "units" if self.virtual_clock else "s"

        def t(value: float) -> str:
            if self.virtual_clock:
                return f"{value:.0f} {unit}"
            return f"{value * 1000:.2f} ms"

        lines = [f"run metrics ({self.backend} backend)"]
        lines.append(f"  wall time          {self.wall_time_s * 1000:.2f} ms")
        if self.virtual_clock:
            lines.append(f"  virtual elapsed    {t(self.elapsed)}")
        lines.append(f"  threads            {self.threads}")
        for label, busy in list(self.thread_busy.items())[:12]:
            lines.append(f"    {label:<38} busy {t(busy)}")
        if len(self.thread_busy) > 12:
            lines.append(f"    ... and {len(self.thread_busy) - 12} more")
        if self.locks:
            lines.append("  lock contention")
            for name, m in sorted(self.locks.items()):
                lines.append(
                    f"    lock {name:<12} {m.acquisitions} acquisitions "
                    f"({m.contended} contended), wait {t(m.wait_time)}, "
                    f"hold {t(m.hold_time)}"
                )
        else:
            lines.append("  lock contention    (no locks used)")
        if self.parallel_for:
            for p in self.parallel_for:
                lines.append(
                    f"  parallel for @{p.line}    {p.workers} workers, "
                    f"items {p.items}, load skew {p.skew:.2f}x"
                )
        else:
            lines.append("  load balance       (no parallel for)")
        lines.append(
            f"  est. speedup       {self.estimated_speedup:.2f}x "
            f"(busy {t(self.total_busy)} / elapsed {t(self.elapsed)})"
        )
        if self.sim is not None:
            s = self.sim
            lines.append(
                f"  sim schedule       {s['cores']} cores: makespan "
                f"{s['makespan']:.0f} units, {s['speedup']:.2f}x vs 1 core, "
                f"{s['utilization'] * 100:.1f}% utilization, lock wait "
                f"{s['lock_wait']:.0f} units"
            )
        if self.proc is not None:
            p = self.proc
            lines.append(
                f"  proc pool          {p['workers']} worker processes "
                f"({p['machine_cores']} cores on this machine)"
            )
            for line_no, reason in p["fallbacks"]:
                lines.append(
                    f"    line {line_no}: ran on threads — {reason}"
                )
        if self.native is not None:
            n = self.native
            if n["enabled"]:
                built = ("artifact cache hit" if n["cache_hit"]
                         else "cold build")
                lines.append(
                    f"  native tier        {len(n['functions'])} "
                    f"function(s), {n['parallel_loops']} parallel loop(s) "
                    f"compiled to C ({built}); {n['calls']} call(s), "
                    f"{n['parallel_calls']} kernel loop run(s)"
                )
            else:
                lines.append(
                    f"  native tier        unavailable — {n['notice']}"
                )
            for line_no, reason in n["fallbacks"]:
                lines.append(
                    f"    line {line_no}: stayed on the fast path — "
                    f"{reason}"
                )
            for line_no, cause, count in n["deopts"]:
                lines.append(
                    f"    line {line_no}: deopted to the fast path — "
                    f"{cause} ({count} time(s))"
                )
        return "\n".join(lines)


def collect_metrics(obs, backend) -> RunMetrics:
    """Fold the observer's raw events into a :class:`RunMetrics`."""
    elapsed = max(0.0, obs.program_end - obs.program_start)
    wall = max(0.0, obs.wall_end - obs.wall_start)

    join_wait: dict[int, float] = {}
    for cid, _kind, start, end, _n, _line, join in obs.groups:
        if join:
            join_wait[cid] = join_wait.get(cid, 0.0) + (end - start)
    # Uncontended acquisitions pay pure bookkeeping overhead between
    # request and grant; only contended ones represent actual waiting.
    lock_wait: dict[int, float] = {}
    for cid, _name, t_req, t_acq, _t_rel, contended in obs.lock_events:
        if contended:
            lock_wait[cid] = lock_wait.get(cid, 0.0) + (t_acq - t_req)

    # Virtual-clock backends share one clock across threads (it advances
    # while siblings run), so a lifetime span overstates busy time; use the
    # work actually charged to each thread instead — cost units on sim,
    # scheduler turns on coop.
    charged: dict[int, float] | None = None
    if obs.virtual:
        charged = {cid: float(u) for cid, u in obs.units.items()}
        if not charged:
            scheduler = getattr(backend, "scheduler", None)
            if scheduler is not None:
                charged = {cid: float(n)
                           for cid, n in scheduler.statements_run.items()}

    def busy_of(cid: int, lifetime: float) -> float:
        if charged is not None:
            return charged.get(cid, 0.0)
        return max(
            0.0,
            lifetime - join_wait.get(cid, 0.0) - lock_wait.get(cid, 0.0),
        )

    thread_busy: dict[str, float] = {}
    for cid, label in obs.threads.items():
        if charged is None:
            if cid == obs.program_ctx_id:
                lifetime = elapsed
            else:
                span = obs.thread_spans.get(cid)
                if span is None:
                    continue
                lifetime = span[1] - span[0]
        else:
            lifetime = 0.0
        # Same-role labels (e.g. "worker 1" across loop iterations) merge.
        thread_busy[label] = thread_busy.get(label, 0.0) + busy_of(cid, lifetime)

    locks: dict[str, LockMetrics] = {}
    for _cid, name, t_req, t_acq, t_rel, contended in obs.lock_events:
        m = locks.setdefault(name, LockMetrics())
        m.acquisitions += 1
        m.contended += 1 if contended else 0
        if contended:
            m.wait_time += max(0.0, t_acq - t_req)
        m.hold_time += max(0.0, t_rel - t_acq)

    by_line: dict[int, ParallelForMetrics] = {}
    for cid, (line, n_items) in obs.chunks.items():
        p = by_line.setdefault(line, ParallelForMetrics(line))
        p.items.append(n_items)
        span = obs.thread_spans.get(cid)
        lifetime = (span[1] - span[0]) if span is not None else 0.0
        p.busy.append(busy_of(cid, lifetime))

    total_busy = sum(thread_busy.values())
    estimated = total_busy / elapsed if elapsed > 0 else 1.0

    sim = None
    if getattr(backend, "recorder", None) is not None and \
            hasattr(backend, "schedule"):
        try:
            from ..runtime.machine import Machine

            sched = backend.schedule()
            serial = Machine(1, backend.cost_model).run(backend.trace)
            sim = {
                "cores": sched.cores,
                "makespan": sched.makespan,
                "serial_makespan": serial.makespan,
                "speedup": (serial.makespan / sched.makespan
                            if sched.makespan > 0 else 1.0),
                "utilization": sched.utilization,
                "lock_wait": sched.lock_wait_time,
            }
        except Exception:
            # A run that died mid-fork leaves a partial trace the machine
            # model may reject; metrics should still report what they can.
            sim = None
    if sim is not None:
        # The machine model's numbers are authoritative on sim: elapsed is
        # the modelled makespan on N cores, speedup is vs. the 1-core
        # schedule of the same trace.  (The raw program span only covers
        # the root task's own work.)
        elapsed = float(sim["makespan"])
        estimated = sim["speedup"]

    proc = None
    if getattr(backend, "name", "") == "proc":
        import os

        proc = {
            "workers": getattr(backend, "pool_workers", 0),
            "machine_cores": os.cpu_count() or 1,
            "fallbacks": list(getattr(backend, "fallbacks", ())),
        }

    native = None
    native_state = getattr(backend, "native_state", None)
    if native_state is not None:
        native = native_state.as_dict()

    return RunMetrics(
        backend=obs.backend_name,
        wall_time_s=wall,
        elapsed=elapsed,
        virtual_clock=obs.virtual,
        threads=len(obs.threads),
        thread_busy=thread_busy,
        locks=locks,
        parallel_for=sorted(by_line.values(), key=lambda p: p.line),
        total_busy=total_busy,
        estimated_speedup=max(estimated, 0.0),
        sim=sim,
        proc=proc,
        native=native,
    )
