"""Seeded fault injection — the chaos half of the resilience layer.

A :class:`FaultPlan` perturbs one run in ways that shake out
schedule-dependent bugs without changing program semantics:

* **Preemption jitter** (thread backend): at statement boundaries a thread
  occasionally sleeps for a sub-millisecond beat, forcing the OS scheduler
  into interleavings a quiet machine would never produce.
* **Schedule perturbation** (coop): the plan's seed drives a
  :class:`~repro.runtime.coop.RandomPolicy`, so each seed is one exact,
  replayable interleaving.
* **Spawn-order perturbation** (sim and sequential backends): the children
  of each ``parallel`` / ``parallel for`` group run in a seeded shuffle of
  program order — a deterministic way to flip order-dependent results.
* **Lock-acquire delays** (thread backend): a seeded sleep before entering
  a contended lock widens race windows around critical sections.
* **Injected thread faults** (optional, off by default): a spawned child
  occasionally dies at birth with a :class:`ChaosFault`, exercising the
  error-aggregation paths a robust runtime must keep working.

Determinism contract: on the virtual-clock backends (coop, sim) every RNG
stream is consumed in a deterministic order, so the same seed produces the
same fault schedule — and therefore byte-identical runs.  On the thread
backend the perturbations are seeded per thread *label* (stable across
runs) but the OS interleaving remains genuinely nondeterministic; that is
the point of running many seeds.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from ..errors import TetraThreadError


class ChaosFault(TetraThreadError):
    """A deliberately injected thread failure (``thread_fault_prob > 0``)."""

    phase = "injected fault"


@dataclass(frozen=True)
class FaultRecord:
    """One fault the plan actually injected (surfaced on RunResult.faults)."""

    kind: str    #: "preempt" | "lock-delay" | "spawn-shuffle" | "thread-fault"
    where: str   #: thread label or lock name
    detail: str


#: Cap on detailed fault records kept per run; beyond it only the counters
#: grow (a chaotic hot loop can fire tens of thousands of preemptions).
MAX_RECORDS = 200


class FaultPlan:
    """One seeded chaos schedule, shared by every thread of a run."""

    def __init__(self, seed: int, *,
                 preempt_prob: float = 0.1,
                 max_preempt_ms: float = 1.0,
                 lock_delay_prob: float = 0.25,
                 max_lock_delay_ms: float = 1.0,
                 thread_fault_prob: float = 0.0):
        self.seed = int(seed)
        self.preempt_prob = preempt_prob
        self.max_preempt_ms = max_preempt_ms
        self.lock_delay_prob = lock_delay_prob
        self.max_lock_delay_ms = max_lock_delay_ms
        self.thread_fault_prob = thread_fault_prob
        self._mu = threading.Lock()
        #: Consumed only at spawn points, which execute in the spawner —
        #: single-threaded and in program order on the deterministic
        #: backends — so its draws are a pure function of the seed.
        self._spawn_rng = random.Random(f"tetra-spawn:{self.seed}")
        self._thread_rngs: dict[str, random.Random] = {}
        self.records: list[FaultRecord] = []
        self.counts: dict[str, int] = {}

    @property
    def knobs(self) -> dict:
        """The probabilities and pause caps — everything but the seed."""
        return {
            "preempt_prob": self.preempt_prob,
            "max_preempt_ms": self.max_preempt_ms,
            "lock_delay_prob": self.lock_delay_prob,
            "max_lock_delay_ms": self.max_lock_delay_ms,
            "thread_fault_prob": self.thread_fault_prob,
        }

    def fresh(self) -> "FaultPlan":
        """The same plan, unused: same seed and knobs, no draws or counts."""
        return FaultPlan(self.seed, **self.knobs)

    # ------------------------------------------------------------------
    def schedule_seed(self) -> int:
        """Seed for the coop backend's RandomPolicy (one seed = one exact
        interleaving)."""
        return self.seed

    def _rng_for(self, label: str) -> random.Random:
        """Per-thread RNG stream, keyed by the stable thread label so the
        thread backend's draws don't depend on process-global ctx ids."""
        with self._mu:
            rng = self._thread_rngs.get(label)
            if rng is None:
                rng = random.Random(f"tetra-thread:{self.seed}:{label}")
                self._thread_rngs[label] = rng
            return rng

    def _note(self, kind: str, where: str, detail: str) -> None:
        with self._mu:
            self.counts[kind] = self.counts.get(kind, 0) + 1
            if len(self.records) < MAX_RECORDS:
                self.records.append(FaultRecord(kind, where, detail))

    @property
    def total_injected(self) -> int:
        with self._mu:
            return sum(self.counts.values())

    # ------------------------------------------------------------------
    # Injection points (each called from exactly one backend/guard site)
    # ------------------------------------------------------------------
    def maybe_preempt(self, ctx) -> None:
        """Statement-boundary jitter on the thread backend (via the guard)."""
        rng = self._rng_for(ctx.label)
        if rng.random() < self.preempt_prob:
            pause = rng.random() * self.max_preempt_ms / 1000.0
            self._note("preempt", ctx.label, f"slept {pause * 1e6:.0f}us")
            time.sleep(pause)

    def lock_delay(self, ctx, name: str) -> None:
        """Seeded sleep before a thread-backend lock acquire."""
        rng = self._rng_for(ctx.label)
        if rng.random() < self.lock_delay_prob:
            pause = rng.random() * self.max_lock_delay_ms / 1000.0
            self._note("lock-delay", f"lock {name}",
                       f"{ctx.label} delayed {pause * 1e6:.0f}us")
            time.sleep(pause)

    def perturb_jobs(self, jobs: list) -> list:
        """Deterministically shuffle a spawn group's children (sim and
        sequential backends, where children run in list order)."""
        if len(jobs) < 2:
            return list(jobs)
        shuffled = list(jobs)
        self._spawn_rng.shuffle(shuffled)
        if any(s is not j for s, j in zip(shuffled, jobs)):
            self._note("spawn-shuffle", "spawn group",
                       f"reordered {len(jobs)} children")
        return shuffled

    def wrap_jobs(self, jobs: list) -> list:
        """Optionally replace some child thunks with an immediate
        :class:`ChaosFault` (``thread_fault_prob > 0`` only).  Each draw is
        a pure function of (seed, child label) — not of a shared stream —
        so the same threads die no matter which backend runs the program or
        how its spawns interleave; that is what lets a schedule replay
        re-inject exactly the recorded faults."""
        if not self.thread_fault_prob:
            return jobs
        wrapped = []
        for child_ctx, thunk in jobs:
            draw = random.Random(
                f"tetra-fault:{self.seed}:{child_ctx.label}"
            ).random()
            if draw < self.thread_fault_prob:
                self._note("thread-fault", child_ctx.label, "injected crash")

                def fail(label=child_ctx.label):
                    raise ChaosFault(
                        f"chaos: injected fault in {label} "
                        f"(seed {self.seed})"
                    )

                wrapped.append((child_ctx, fail))
            else:
                wrapped.append((child_ctx, thunk))
        return wrapped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan seed={self.seed} injected={self.total_injected}>"
