"""The virtual-time backend: record once, schedule on any machine width.

``SimBackend`` executes the program *sequentially* (so it is deterministic
and runs fine on a 1-core host) while charging every interpreted operation
to the would-be thread that performs it, producing a task graph.  The graph
is then placed on a :class:`~repro.runtime.machine.Machine` of any core
count to obtain virtual makespans — the substitution that regenerates the
paper's 8-core speedup evaluation (DESIGN.md §2, §4).
"""

from __future__ import annotations

from typing import Sequence

from ..source import NO_SPAN, Span
from .backend import Backend, Job, RuntimeConfig, raise_thread_failures
from .cost import DEFAULT_COST_MODEL, CostModel
from .machine import Machine, ScheduleResult, speedup_curve
from .taskgraph import Acquire, Release, Task, TraceRecorder


class SimBackend(Backend):
    """Sequential execution + task-graph recording + machine-model timing."""

    accounting = True
    virtual_clock = True
    name = "sim"

    def __init__(self, cores: int = 8, cost_model: CostModel = DEFAULT_COST_MODEL,
                 config: RuntimeConfig | None = None):
        super().__init__(config)
        self.cores = cores
        self.cost_model = cost_model
        self.recorder = TraceRecorder()
        #: Schedule recorder (distinct from the task-graph recorder above):
        #: sim runs children inline in spawn order, so the schedule artifact
        #: is simply that sequential order plus synthetic join-resume turns
        #: matching the coop scheduler's accounting.
        self._schedule_rec = self.config.schedule_recorder

    # ------------------------------------------------------------------
    # Recording hooks
    # ------------------------------------------------------------------
    def checkpoint(self, ctx, node) -> None:
        rec = self._schedule_rec
        if rec is not None:
            rec.turn(ctx.label)

    def wants_checkpoints(self) -> bool:
        return self._schedule_rec is not None

    def now(self) -> float:
        """Virtual time for the task currently recording: ``clock()``
        deltas under this backend equal the cost units charged between the
        two readings, not host wall time."""
        return float(self.recorder.virtual_now())

    def charge(self, ctx, units: int) -> None:
        self.recorder.current.charge(units)
        if self.obs is not None:
            self.obs.charge_units(ctx.id, units)

    def record_access(self, ctx, name: str, write: bool,
                      span: Span = NO_SPAN) -> None:
        # Only called while race detection is on; the trace then doubles as
        # input for repro.analysis.races.replay_trace.
        self.recorder.access(name, write, span)

    def spawn_group(self, ctx, jobs: Sequence[Job], join: bool,
                    span: Span = NO_SPAN) -> None:
        plan = self.config.fault_plan
        if plan is not None:
            # Seeded shuffle of the children: a deterministic way to flip
            # order-dependent results under `tetra stress`.
            jobs = plan.perturb_jobs(list(jobs))
        cm = self.cost_model
        self.recorder.current.charge(cm.thread_spawn * len(jobs))
        children = self.recorder.begin_fork(
            [child_ctx.label for child_ctx, _ in jobs], join
        )
        # Aggregate child failures exactly like the thread backend would,
        # instead of letting the first child's raw exception tear through
        # the recording (which also kept later siblings from running).
        failures = []
        for child_task, (child_ctx, thunk) in zip(children, jobs):
            self.recorder.enter_child(child_task)
            try:
                thunk()
            except BaseException as exc:  # noqa: BLE001 - aggregated below
                failures.append((child_ctx.label, exc))
            finally:
                self.recorder.exit_child()
        if join:
            self.recorder.current.charge(cm.thread_join * len(jobs))
        rec = self._schedule_rec
        if rec is not None and join and jobs:
            # Coop parents pay one turn to resume from a join; synthesize
            # the same turn here so replayed turn sequences line up.
            rec.turn(ctx.label)
        raise_thread_failures(failures, span,
                              "parallel" if join else "background")

    def parallel_for_workers(self, n_items: int) -> int:
        workers = self.config.num_workers or self.cores
        return max(1, min(workers, n_items))

    def acquire(self, ctx, name: str, span: Span = NO_SPAN) -> bool:
        # Recording is sequential, so it never waits; modelled waiting
        # appears in the machine schedule.
        task = self.recorder.current
        task.charge(self.cost_model.lock_acquire)
        task.items.append(Acquire(name))
        rec = self._schedule_rec
        if rec is not None:
            rec.grant(name, ctx.label)
        return False

    def release(self, ctx, name: str) -> None:
        task = self.recorder.current
        task.items.append(Release(name))
        task.charge(self.cost_model.lock_release)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def trace(self) -> Task:
        """The recorded task graph (valid after the program has run)."""
        return self.recorder.root

    def schedule(self, cores: int | None = None) -> ScheduleResult:
        """Place the recorded graph on a machine of ``cores`` model cores."""
        machine = Machine(cores or self.cores, self.cost_model)
        return machine.run(self.trace)

    def speedups(self, core_counts: list[int]) -> dict[int, ScheduleResult]:
        """Schedule the same trace at several widths (1-core baseline added)."""
        return speedup_curve(self.trace, core_counts, self.cost_model)
