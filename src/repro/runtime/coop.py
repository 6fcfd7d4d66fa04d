"""Deterministic cooperative scheduling of Tetra threads.

The IDE the paper describes lets a student "step through the different
threads independently ... step though the code in one thread all the way to
the end (or a lock) to ensure that this does not negatively impact what the
other threads are doing".  That requires a runtime where *the tool* chooses
which thread advances — something native debuggers cannot offer (paper §V).

``CoopBackend`` provides it: Tetra threads are real OS threads, but a baton
protocol guarantees **exactly one** runs between checkpoints (one checkpoint
per interpreted statement), and a pluggable :class:`SchedulerPolicy` picks
the next runner.  Policies:

* :class:`RoundRobinPolicy` — deterministic interleaving, switch every N
  statements; N=1 maximizes interleaving and reliably exposes Figure III's
  check-then-act race.
* :class:`RandomPolicy` — seeded pseudo-random interleavings for schedule
  fuzzing (run a test under many seeds).
* :class:`ScriptPolicy` — an explicit list of thread labels to run, for
  reproducing one specific buggy interleaving in a lesson.
* :class:`ManualPolicy` — nobody runs until a controller (the debugger)
  grants steps; this is the IDE's per-thread stepping.

All blocked threads with none runnable means deadlock; the scheduler builds
the wait-for description and aborts every thread with a
:class:`~repro.errors.TetraDeadlockError` instead of hanging the session.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import (
    TetraDeadlockError,
    TetraError,
    TetraInternalError,
    TetraThreadError,
)
from ..source import NO_SPAN, Span
from .backend import Backend, Job, RuntimeConfig, raise_thread_failures

_INF = float("inf")


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class SchedulerPolicy:
    """Chooses the next thread to run at every scheduling point."""

    #: Manual policies leave the program paused until a controller grants
    #: steps; automatic policies always pick somebody.
    manual = False

    def choose(self, ready: list[int], current: int | None) -> int:
        raise NotImplementedError

    def initial_budget(self) -> float:
        return _INF


class RoundRobinPolicy(SchedulerPolicy):
    """Cycle through runnable threads in id order, switching every
    ``switch_every`` statements."""

    def __init__(self, switch_every: int = 1):
        if switch_every < 1:
            raise ValueError("switch_every must be >= 1")
        self.switch_every = switch_every
        self._since_switch = 0

    def choose(self, ready: list[int], current: int | None) -> int:
        if current in ready:
            self._since_switch += 1
            if self._since_switch < self.switch_every:
                return current  # keep running
        self._since_switch = 0
        if current is None or current not in ready:
            return ready[0]
        after = [t for t in ready if t > current]
        return after[0] if after else ready[0]


class RandomPolicy(SchedulerPolicy):
    """Seeded random choice at every statement — schedule fuzzing."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose(self, ready: list[int], current: int | None) -> int:
        return self._rng.choice(ready)


class ScriptPolicy(SchedulerPolicy):
    """Follow an explicit schedule of thread *labels*: the k-th entry names
    the thread that executes the k-th scripted statement.

    An entry is consumed when its thread runs; entries for threads that are
    not ready *yet* (including threads that have not spawned) are left in
    place and round-robin fills in until they can run; entries for finished
    threads are dropped.  When the script is exhausted, round-robin finishes
    the program."""

    def __init__(self, script: Sequence[str]):
        self.script = deque(script)
        self._fallback = RoundRobinPolicy()
        #: Filled by the scheduler so labels can be resolved to ids.
        self.label_of: dict[int, str] = {}
        #: Ids of finished threads (maintained by the scheduler).
        self.finished_ids: set[int] = set()

    def choose(self, ready: list[int], current: int | None) -> int:
        while self.script:
            wanted = self.script[0]
            matches = [t for t in ready if self.label_of.get(t) == wanted]
            if matches:
                self.script.popleft()
                return matches[0]
            finished = any(
                self.label_of.get(t) == wanted for t in self.finished_ids
            )
            if finished:
                self.script.popleft()  # can never run again: drop
                continue
            break  # not ready yet (or never will exist): fill in with RR
        return self._fallback.choose(ready, current)


class ReplayPolicy(ScriptPolicy):
    """A :class:`ScriptPolicy` fed from a recorded schedule artifact.

    Identical matching rules — entries name thread labels, entries for
    finished threads are dropped, a front entry whose thread is not ready
    yet is left in place while round-robin fills in — plus fidelity
    counters, so a replay can report how much of the recorded schedule it
    actually consumed.  Round-robin fill-ins are expected for schedules
    recorded around multiprocess offloads (worker processes produce no
    turns) and for the unwind tail of aborted runs; a thread→coop replay
    of a clean run consumes the script exactly."""

    def __init__(self, script: Sequence[str]):
        super().__init__(script)
        self.matched_turns = 0
        self.fallback_turns = 0

    def choose(self, ready: list[int], current: int | None) -> int:
        while self.script:
            wanted = self.script[0]
            matches = [t for t in ready if self.label_of.get(t) == wanted]
            if matches:
                self.script.popleft()
                self.matched_turns += 1
                return matches[0]
            finished = any(
                self.label_of.get(t) == wanted for t in self.finished_ids
            )
            if finished:
                self.script.popleft()
                continue
            break
        self.fallback_turns += 1
        return self._fallback.choose(ready, current)


class GrantGate:
    """Enforces a recorded per-lock grant order during replay.

    The recorded run may have let a late requester barge past parked
    waiters; FIFO handoff on replay would diverge.  The gate holds each
    lock's recorded grant queue and applies reservation semantics: a free
    lock may only be taken by the next recorded grantee — anyone else
    must park even though the lock is free — and on release the lock is
    handed to the waiter matching the next recorded grantee, or left
    reserved if that thread has not asked yet.  Entries for finished
    threads are dropped; an exhausted queue falls back to FIFO."""

    def __init__(self, grants: Sequence[tuple[str, str]]):
        self._queues: dict[str, deque[str]] = {}
        for name, label in grants:
            self._queues.setdefault(name, deque()).append(label)

    def _front(self, name: str, finished: set[str]) -> str | None:
        queue = self._queues.get(name)
        while queue:
            if queue[0] in finished:
                queue.popleft()
                continue
            return queue[0]
        return None

    def may_take(self, name: str, label: str, finished: set[str]) -> bool:
        front = self._front(name, finished)
        return front is None or front == label

    def took(self, name: str, label: str) -> None:
        queue = self._queues.get(name)
        if queue and queue[0] == label:
            queue.popleft()

    def pick_waiter(self, name: str, waiters: Sequence[tuple[int, str]],
                    finished: set[str]) -> int | None:
        """The waiter id to hand a released lock to, or None to leave the
        lock reserved for a recorded grantee that has not asked yet."""
        front = self._front(name, finished)
        if front is None:
            return waiters[0][0] if waiters else None
        for wid, label in waiters:
            if label == front:
                return wid
        return None

    def rescue(self, name: str) -> None:
        """Drop the front entry for ``name`` — the no-false-deadlock
        valve when a replay diverged and the reserved thread will never
        come (see CoopScheduler._schedule_turn)."""
        queue = self._queues.get(name)
        if queue:
            queue.popleft()


class ManualPolicy(SchedulerPolicy):
    """Threads only run when a controller grants them steps (the debugger)."""

    manual = True

    def choose(self, ready: list[int], current: int | None) -> int:  # pragma: no cover
        raise AssertionError("manual policy is driven by the controller")

    def initial_budget(self) -> float:
        return 0


# ----------------------------------------------------------------------
# Scheduler state
# ----------------------------------------------------------------------
READY = "ready"
BLOCKED_LOCK = "blocked on lock"
BLOCKED_JOIN = "waiting to join children"
FINISHED = "finished"


@dataclass
class CoopThread:
    """Scheduler-side record of one Tetra thread."""

    id: int
    label: str
    state: str = READY
    budget: float = _INF
    waiting_lock: str | None = None
    #: Child thread ids the current join is waiting on (None when not joining).
    join_group: set[int] | None = None
    parent: "CoopThread | None" = None
    #: True when the scheduler granted a turn this thread has not yet
    #: consumed (consumed at the next checkpoint or block resumption).
    has_fresh_turn: bool = False
    #: Where the thread last checkpointed (line info for the debugger).
    current_span: Span = NO_SPAN
    error: BaseException | None = None
    #: Pending per-thread abort (replay deadlock victim); raised the next
    #: time this thread wakes in ``_wait_for_turn``.
    abort_exc: BaseException | None = None


class CoopScheduler:
    """The turn token: at most one Tetra thread runs at any moment, and the
    policy is consulted exactly once per *turn* — one executed statement, or
    one resumption from a lock/join block.  That makes ScriptPolicy entries
    line up 1:1 with statements, which is what lesson scripts need.
    """

    def __init__(self, policy: SchedulerPolicy):
        self.policy = policy
        self.cv = threading.Condition()
        self.threads: dict[int, CoopThread] = {}
        #: Thread currently holding the turn (it may be executing).
        self.turn_holder: int | None = None
        self._last_holder: int | None = None
        self.lock_owner: dict[str, int] = {}
        self.lock_waiters: dict[str, deque[int]] = {}
        self.abort_exc: BaseException | None = None
        self.statements_run: dict[int, int] = {}
        #: Optional :class:`~repro.runtime.schedule.ScheduleRecorder`; every
        #: granted turn and lock grant is recorded, making a coop run (any
        #: policy, chaos included) re-runnable from the artifact alone.
        self.turn_recorder = None
        #: Optional :class:`GrantGate` enforcing a recorded lock grant order.
        self.grant_gate = None
        #: Labels of finished threads — the gate drops queue entries for
        #: them so a recorded grantee that already exited can't wedge a lock.
        self.finished_labels: set[str] = set()

    # -- registration ----------------------------------------------------
    def register(self, ctx, parent_id: int | None = None) -> CoopThread:
        with self.cv:
            parent = self.threads.get(parent_id) if parent_id is not None else None
            record = CoopThread(ctx.id, ctx.label, parent=parent,
                                budget=self.policy.initial_budget())
            self.threads[ctx.id] = record
            self.statements_run[ctx.id] = 0
            if isinstance(self.policy, ScriptPolicy):
                self.policy.label_of[ctx.id] = ctx.label
            return record

    # -- turn machinery ------------------------------------------------
    def _eligible(self) -> list[int]:
        """Threads that could be given the next turn (cv held)."""
        return sorted(
            t.id for t in self.threads.values()
            if t.state == READY and t.budget > 0
        )

    def _schedule_turn(self) -> None:
        """Hand out the next turn if nobody holds one (cv held)."""
        if self.turn_holder is not None:
            return
        ready = self._eligible()
        if ready:
            if self.policy.manual:
                chosen = ready[0]
            else:
                chosen = self.policy.choose(ready, self._last_holder)
            record = self.threads[chosen]
            if record.budget is not _INF:
                record.budget -= 1
            record.has_fresh_turn = True
            self.turn_holder = chosen
            self._last_holder = chosen
            rec = self.turn_recorder
            if rec is not None and self.abort_exc is None:
                # Turns handed out after a program-wide abort only let
                # threads unwind (they raise at their next wait), in an
                # order the host OS picks; like teardown grants, they are
                # not part of the run's schedule.
                rec.turn(record.label)
            self.cv.notify_all()
            return
        self.cv.notify_all()
        live = [t for t in self.threads.values() if t.state != FINISHED]
        if live and all(t.state in (BLOCKED_LOCK, BLOCKED_JOIN) for t in live):
            # A gate reservation can park every thread even though a lock
            # is *free* (reserved for a recorded grantee that, after a
            # divergence, will never ask).  A real deadlock always has its
            # locks held, so handing any free-but-waited-on lock to its
            # first waiter only fires on divergence, never on real cycles.
            if self.grant_gate is not None:
                if self._rescue_reserved_locks():
                    self._schedule_turn()
                    return
                # The thread backend's deadlock semantics are
                # victim-unwind: the thread that closed the cycle aborts
                # alone, its lock releases let the others proceed, and the
                # failure surfaces at the join.  The recorded grants tell
                # us who proceeded, hence who unwound — mirror that so the
                # replay reproduces post-deadlock output too.
                victim = self._pick_deadlock_victim(live)
                if victim is not None:
                    self._abort_victim(victim, live)
                    return
            self._declare_deadlock(live)
        # Otherwise (manual mode): threads are paused awaiting grants.

    def _rescue_reserved_locks(self) -> bool:
        """Break gate reservations on free locks (cv held); True if any
        waiter was unparked."""
        rescued = False
        for name, waiters in self.lock_waiters.items():
            if waiters and self.lock_owner.get(name) is None:
                self.grant_gate.rescue(name)
                next_id = waiters.popleft()
                record = self.threads[next_id]
                self.lock_owner[name] = next_id
                record.state = READY
                rec = self.turn_recorder
                if rec is not None:
                    rec.grant(name, record.label)
                rescued = True
        return rescued

    def _pick_deadlock_victim(self, live: list[CoopThread]) -> CoopThread | None:
        """The blocked thread the recording says must unwind (cv held):
        some blocked thread W is the recorded next grantee of the lock it
        waits for; W can only get it if the current owner unwinds — and
        the recording having further grants proves the owner did."""
        gate = self.grant_gate
        for t in live:
            if t.state != BLOCKED_LOCK or t.waiting_lock is None:
                continue
            front = gate._front(t.waiting_lock, self.finished_labels)
            if front != t.label:
                continue
            owner = self.lock_owner.get(t.waiting_lock)
            if owner is None:
                continue
            victim = self.threads.get(owner)
            if victim is not None and victim.state == BLOCKED_LOCK:
                return victim
        return None

    def _abort_victim(self, victim: CoopThread, live: list[CoopThread]) -> None:
        """Abort one deadlocked thread (cv held); its unwind releases the
        locks it holds, letting the recorded survivors continue."""
        parts = []
        for t in live:
            if t.state != BLOCKED_LOCK:
                continue
            owner = self.lock_owner.get(t.waiting_lock or "")
            owner_label = (self.threads[owner].label
                           if owner is not None else "nobody")
            parts.append(
                f"{t.label} waits for 'lock {t.waiting_lock}' "
                f"held by {owner_label}"
            )
        exc = TetraDeadlockError(
            "deadlock detected — these threads are waiting for each other "
            "in a cycle: " + "; ".join(parts) +
            ". Acquire locks in a consistent order to avoid this.",
            victim.current_span,
            cycle=tuple(parts),
            blocked_spans=tuple(
                t.current_span for t in live
                if t.state == BLOCKED_LOCK and t.current_span is not NO_SPAN
            ),
        )
        waiters = self.lock_waiters.get(victim.waiting_lock or "")
        if waiters and victim.id in waiters:
            waiters.remove(victim.id)
        victim.abort_exc = exc
        self.cv.notify_all()

    def _declare_deadlock(self, live: list[CoopThread]) -> None:
        parts = []
        for t in live:
            if t.state == BLOCKED_LOCK:
                owner = self.lock_owner.get(t.waiting_lock or "")
                owner_label = (self.threads[owner].label
                               if owner is not None else "nobody")
                parts.append(
                    f"{t.label} waits for 'lock {t.waiting_lock}' "
                    f"held by {owner_label}"
                )
            else:
                parts.append(f"{t.label} waits to join its children")
        # Anchor the diagnostic at a lock-blocked thread's last checkpoint
        # so `tetra run` renders a caret; NO_SPAN here used to make coop
        # deadlocks the only runtime error without a source location.
        span = next(
            (t.current_span for t in live
             if t.state == BLOCKED_LOCK and t.current_span is not NO_SPAN),
            next((t.current_span for t in live
                  if t.current_span is not NO_SPAN), NO_SPAN),
        )
        blocked_spans = tuple(
            t.current_span for t in live
            if t.state == BLOCKED_LOCK and t.current_span is not NO_SPAN
        )
        self.abort_exc = TetraDeadlockError(
            "deadlock detected — every thread is blocked: " + "; ".join(parts),
            span,
            cycle=tuple(parts),
            blocked_spans=blocked_spans,
        )
        self.cv.notify_all()

    def _yield_turn(self, record: CoopThread) -> None:
        """Complete this thread's turn and hand out the next (cv held)."""
        if self.turn_holder == record.id:
            self.turn_holder = None
        self._schedule_turn()

    def _wait_for_turn(self, record: CoopThread) -> None:
        """Block (cv held) until this thread is granted a fresh turn."""
        while True:
            if self.abort_exc is not None:
                raise self.abort_exc
            if record.abort_exc is not None:
                exc = record.abort_exc
                record.abort_exc = None
                raise exc
            if (self.turn_holder == record.id and record.has_fresh_turn
                    and record.state == READY):
                record.has_fresh_turn = False  # consume
                return
            self.cv.wait()

    # -- hooks called by the backend -------------------------------------
    def checkpoint(self, ctx, span: Span) -> None:
        """Called before each statement.  Consumes one turn per statement."""
        with self.cv:
            record = self.threads[ctx.id]
            record.current_span = span
            self.statements_run[ctx.id] += 1
            if record.has_fresh_turn:
                # A turn was granted while this thread was starting up or
                # mid-transition; it pays for this statement.
                record.has_fresh_turn = False
                return
            self._yield_turn(record)
            self._wait_for_turn(record)

    def thread_started(self, ctx) -> None:
        """Spawned threads run straight to their first checkpoint and park
        there; nothing to do (kept for backend symmetry)."""

    def thread_finished(self, ctx, error: BaseException | None) -> None:
        with self.cv:
            record = self.threads[ctx.id]
            record.state = FINISHED
            record.error = error
            record.has_fresh_turn = False
            self.finished_labels.add(record.label)
            if isinstance(self.policy, ScriptPolicy):
                self.policy.finished_ids.add(record.id)
            parent = record.parent
            if (parent is not None and parent.state == BLOCKED_JOIN
                    and parent.join_group and record.id in parent.join_group):
                parent.join_group.discard(record.id)
                if not parent.join_group:
                    parent.join_group = None
                    parent.state = READY
            self._yield_turn(record)

    def block_for_join(self, ctx, child_ids: Sequence[int]) -> None:
        with self.cv:
            record = self.threads[ctx.id]
            pending = {
                cid for cid in child_ids
                if self.threads[cid].state != FINISHED
            }
            if not pending:
                return
            record.join_group = pending
            record.state = BLOCKED_JOIN
            record.has_fresh_turn = False
            self._yield_turn(record)
            # Resuming after the join costs one turn.
            self._wait_for_turn(record)
            self.turn_holder = record.id  # hold it while finishing the join

    def acquire_lock(self, ctx, name: str, span: Span) -> None:
        with self.cv:
            record = self.threads[ctx.id]
            owner = self.lock_owner.get(name)
            if owner == ctx.id:
                raise TetraDeadlockError(
                    f"{record.label} tried to enter 'lock {name}:' while "
                    "already inside it — Tetra locks are not re-entrant",
                    span,
                )
            gate = self.grant_gate
            if owner is None and (gate is None or gate.may_take(
                    name, record.label, self.finished_labels)):
                self.lock_owner[name] = ctx.id
                if gate is not None:
                    gate.took(name, record.label)
                rec = self.turn_recorder
                if rec is not None:
                    rec.grant(name, record.label)
                return
            # Either the lock is held, or the gate reserves it for the
            # recorded next grantee — park even though it is free.
            self.lock_waiters.setdefault(name, deque()).append(ctx.id)
            record.state = BLOCKED_LOCK
            record.waiting_lock = name
            record.has_fresh_turn = False
            self._yield_turn(record)
            # Resuming with the lock costs one turn.
            self._wait_for_turn(record)
            record.waiting_lock = None
            self.turn_holder = record.id

    def release_lock(self, ctx, name: str) -> None:
        with self.cv:
            del self.lock_owner[name]
            waiters = self.lock_waiters.get(name)
            if not waiters:
                return
            gate = self.grant_gate
            if gate is None:
                next_id = waiters.popleft()
            else:
                pairs = [(wid, self.threads[wid].label) for wid in waiters]
                next_id = gate.pick_waiter(name, pairs, self.finished_labels)
                if next_id is None:
                    # Reserved: the recorded next grantee has not asked
                    # yet; the lock stays free until it does (or the
                    # rescue valve in _schedule_turn fires).
                    return
                waiters.remove(next_id)
            record = self.threads[next_id]
            self.lock_owner[name] = next_id
            record.state = READY
            if gate is not None:
                gate.took(name, record.label)
            rec = self.turn_recorder
            if rec is not None and self.abort_exc is None \
                    and record.abort_exc is None:
                # Grants made while the program is unwinding (a deadlock
                # abort cascading through parked waiters) are teardown
                # mechanics, not execution: the grantee never runs another
                # statement.  Recording them would make a replay believe
                # the owner unwound victim-style and let survivors run on.
                rec.grant(name, record.label)

    # -- controller API (the debugger) ------------------------------------
    def wait_until_paused(self, timeout: float = 10.0) -> None:
        """Block the controller until no Tetra thread can run."""
        with self.cv:
            ok = self.cv.wait_for(
                lambda: (self.abort_exc is not None
                         or (self.turn_holder is None
                             and not self._eligible())),
                timeout=timeout,
            )
            if not ok:  # pragma: no cover - only on interpreter bugs
                # A bare timeout here used to surface as an unexplained
                # assertion in the debugger; name the stuck thread, its
                # state, and how far the schedule got so the report is
                # actionable.
                holder = self.turn_holder
                if holder is not None:
                    record = self.threads.get(holder)
                    who = (f"{record.label} (state: {record.state})"
                           if record is not None else f"thread id {holder}")
                else:
                    who = "no thread (turn unassigned)"
                states = ", ".join(
                    f"{t.label}={t.state}" for t in self.threads.values()
                )
                turns = sum(self.statements_run.values())
                raise TetraInternalError(
                    f"cooperative scheduler failed to pause within {timeout}s "
                    f"— turn held by {who}; after {turns} scheduler turns; "
                    f"thread states: {states or 'none registered'}"
                )

    def grant(self, thread_id: int, steps: int = 1) -> None:
        """Let ``thread_id`` run ``steps`` turns (manual mode)."""
        with self.cv:
            record = self.threads.get(thread_id)
            if record is None:
                raise TetraThreadError(f"no thread with id {thread_id}")
            if record.state == FINISHED:
                raise TetraThreadError(f"{record.label} has already finished")
            if record.state != READY:
                raise TetraThreadError(f"{record.label} is {record.state}")
            record.budget += steps
            self._schedule_turn()

    def snapshot(self) -> list[CoopThread]:
        with self.cv:
            return list(self.threads.values())


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class CoopBackend(Backend):
    """Deterministic cooperative execution (see module docstring)."""

    virtual_clock = True
    name = "coop"

    def __init__(self, policy: SchedulerPolicy | None = None,
                 config: RuntimeConfig | None = None):
        super().__init__(config)
        replay = self.config.schedule_replay
        if policy is None:
            plan = self.config.fault_plan
            if replay is not None:
                policy = ReplayPolicy(replay.turns)
            elif plan is not None:
                # Chaos on the coop backend *is* the schedule: one seed =
                # one exact, replayable interleaving.
                policy = RandomPolicy(plan.schedule_seed())
            else:
                policy = RoundRobinPolicy()
        self.scheduler = CoopScheduler(policy)
        self.scheduler.turn_recorder = self.config.schedule_recorder
        #: Recorded per-loop worker counts, consumed in program order so
        #: parallel-for labels line up with the recording even when the
        #: recording backend sized its pools differently (thread uses
        #: cpu_count, proc offloads).  Installed independently of the
        #: policy so the debugger (ManualPolicy) replays them too.
        self._pfor_replay: deque[dict] = deque()
        if replay is not None:
            self.scheduler.grant_gate = GrantGate(replay.grants)
            self._pfor_replay = deque(replay.pfors)
        self._background: list[threading.Thread] = []
        self._background_ctxs: list[object] = []
        #: Thread id → interpreter ThreadContext; the debugger reads call
        #: stacks and variable snapshots through this while threads are paused.
        self.contexts: dict[int, object] = {}

    # ------------------------------------------------------------------
    def now(self) -> float:
        """The logical clock: total statements executed across all threads
        (i.e. scheduler turns consumed).  Reads happen while the caller
        holds the scheduler turn, so timestamps are deterministic for a
        given policy seed."""
        return float(sum(self.scheduler.statements_run.values()))

    def checkpoint(self, ctx, node) -> None:
        self.scheduler.checkpoint(ctx, node.span)

    def spawn_group(self, ctx, jobs: Sequence[Job], join: bool,
                    span: Span = NO_SPAN) -> None:
        sched = self.scheduler
        threads: list[threading.Thread] = []
        records = []

        def runner(child_ctx, thunk) -> None:
            error: BaseException | None = None
            try:
                sched.thread_started(child_ctx)
                thunk()
            except BaseException as exc:  # noqa: BLE001 - stored and re-raised
                error = exc
            finally:
                sched.thread_finished(child_ctx, error)

        for child_ctx, thunk in jobs:
            self.contexts[child_ctx.id] = child_ctx
            records.append(sched.register(child_ctx, parent_id=ctx.id))
            thread = threading.Thread(
                target=runner, args=(child_ctx, thunk),
                name=child_ctx.label, daemon=False,
            )
            threads.append(thread)
            thread.start()

        if join:
            sched.block_for_join(ctx, [child_ctx.id for child_ctx, _ in jobs])
            for thread in threads:
                thread.join()
            failures = [(r.label, r.error) for r in records
                        if r.error is not None]
            raise_thread_failures(failures, span, "parallel")
        else:
            self._background.extend(threads)
            self._background_ctxs.extend(records)

    def parallel_for_workers(self, n_items: int) -> int:
        if self._pfor_replay:
            recorded = self._pfor_replay.popleft()
            return max(1, min(int(recorded["workers"]), n_items))
        workers = self.config.num_workers or 4
        return max(1, min(workers, n_items))

    def lock(self, ctx, name: str, body: Callable[[], None],
             span: Span = NO_SPAN) -> None:
        obs = self.obs
        if obs is None:
            self.scheduler.acquire_lock(ctx, name, span)
            try:
                body()
            finally:
                self.scheduler.release_lock(ctx, name)
            return
        contended = name in self.scheduler.lock_owner
        t_req = self.now()
        self.scheduler.acquire_lock(ctx, name, span)
        t_acq = self.now()
        try:
            body()
        finally:
            self.scheduler.release_lock(ctx, name)
            obs.lock_span(ctx.id, name, t_req, t_acq, self.now(), contended)

    def start_program(self, root_ctx) -> None:
        self.contexts[root_ctx.id] = root_ctx
        self.scheduler.register(root_ctx)

    def finish_program(self, root_ctx) -> None:
        # The root must keep scheduling others while it waits, so park it as
        # join-blocked on any background threads that are still live.
        if self._background and self.config.wait_for_background:
            root_record = self.scheduler.threads[root_ctx.id]
            for record in self._background_ctxs:
                record.parent = root_record
            self.scheduler.block_for_join(
                root_ctx, [r.id for r in self._background_ctxs]
            )
            for thread in self._background:
                thread.join()
            failures = [(r.label, r.error) for r in self._background_ctxs
                        if r.error is not None]
            try:
                raise_thread_failures(failures, NO_SPAN, "background")
            finally:
                self.scheduler.thread_finished(root_ctx, None)
            return
        self.scheduler.thread_finished(root_ctx, None)
