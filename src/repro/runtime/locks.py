"""Named locks for ``lock <name>:`` blocks, with deadlock *detection*.

The paper maps lock statements onto Pthread mutexes; lock names live in
their own namespace.  A plain mutex, though, punishes a student's two most
common mistakes with a silent hang:

* re-entering a lock the same thread already holds (nested ``lock a:``), and
* acquiring two locks in opposite orders from two threads.

Both are exactly the phenomena Tetra exists to teach.  The interpreter
refuses the first (and a lock that a thread joining the asker holds) on
every backend; this table, the thread backend's, turns the second into a
:class:`~repro.errors.TetraDeadlockError` that names the threads and locks
in the cycle.  Detection uses the classic wait-for graph: thread → lock it
waits on → owner thread → ...; a cycle back to the start is a deadlock.

Detection is event-driven: the thread whose blocking *completes* a cycle
always sees the full cycle in the wait-for graph at the moment it blocks
(every other participant is already recorded as waiting), so one check at
block time plus one on each ownership-change wakeup finds every deadlock.
Blocked threads sleep on a condition variable between wakeups instead of
burning CPU on a 20 ms poll; a slow fallback poll remains purely as a
safety net against lost wakeups.  Joins are not in the graph; a stopped
run wakes its parked threads through :meth:`LockTable.stop`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..errors import TetraDeadlockError
from ..source import NO_SPAN, Span

#: Identifies a Tetra thread in the wait-for graph.  Thread backends use the
#: OS thread ident; the debugger's cooperative backend uses its own ids.
ThreadKey = object


@dataclass
class LockStats:
    """Per-lock counters surfaced by benchmarks and the debugger."""

    acquisitions: int = 0
    contended_acquisitions: int = 0
    #: Total seconds threads spent blocked waiting to acquire this lock.
    wait_time: float = 0.0


class LockTable:
    """All named locks of one running program."""

    #: Safety-net poll for blocked threads.  Correctness never depends on
    #: it: cycles are found at block time and on ownership-change wakeups.
    FALLBACK_POLL = 0.5

    def __init__(self) -> None:
        self._monitor = threading.Lock()
        #: Signalled on every ownership change (release); the monitor above
        #: is its underlying lock, so waiters re-check under the monitor.
        self._changed = threading.Condition(self._monitor)
        self._owners: dict[str, ThreadKey] = {}
        self._owner_labels: dict[ThreadKey, str] = {}
        self._waiting: dict[ThreadKey, str] = {}
        #: Source span of each blocked ``lock`` statement, so a deadlock
        #: report can point at *every* participant, not just the thread
        #: that happened to close the cycle.
        self._waiting_spans: dict[ThreadKey, Span] = {}
        #: Instance copy of the safety-net poll, taken at construction so a
        #: single table (or test) can tune it without touching the class.
        self.fallback_poll: float = self.FALLBACK_POLL
        #: Set by :meth:`stop`: ``stopped(span)`` is the error a parked
        #: acquire raises.
        self.stopped = None
        #: Optional ``grant_hook(name, key)`` called (monitor held) at the
        #: exact moment a lock changes owner — the schedule recorder's
        #: source of per-lock grant order, barging included.
        self.grant_hook = None
        self.stats: dict[str, LockStats] = {}

    # ------------------------------------------------------------------
    def register_thread(self, key: ThreadKey, label: str) -> None:
        """Give a thread a human-readable name for deadlock messages."""
        with self._monitor:
            self._owner_labels[key] = label

    def _label(self, key: ThreadKey) -> str:
        return self._owner_labels.get(key, f"thread {key}")

    def label_for(self, key: ThreadKey) -> str:
        """Public form of the label lookup (used by the recorder)."""
        return self._label(key)

    def known_locks(self) -> list[str]:
        with self._monitor:
            return sorted(self.stats)

    def holder_of(self, name: str) -> ThreadKey | None:
        with self._monitor:
            return self._owners.get(name)

    # ------------------------------------------------------------------
    def acquire(self, name: str, key: ThreadKey, span: Span = NO_SPAN,
                on_block=None) -> bool:
        """Acquire ``name`` for ``key``; True when another thread held it
        at the request.  ``on_block()`` fires once (monitor held) if — and
        only if — the acquire actually has to wait, so a caller can hand
        off a scheduling token before parking."""
        with self._changed:
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = LockStats()
            stats.acquisitions += 1
            contended = name in self._owners
            if contended:
                stats.contended_acquisitions += 1
                if on_block is not None:
                    on_block()
                self._waiting[key] = name
                self._waiting_spans[key] = span
                wait_started = time.perf_counter()
                try:
                    # A stopped run's waiter raises even if the lock was
                    # just freed: the releaser may be a waiter unwinding.
                    while self.stopped is None and name in self._owners:
                        # Checked at block time — the thread that closes a
                        # cycle always sees it here — and on every wakeup.
                        cycle, blocked = self._find_cycle(key)
                        if cycle:
                            raise TetraDeadlockError(
                                self._cycle_message(cycle), span,
                                cycle=tuple(cycle),
                                blocked_spans=tuple(blocked),
                            )
                        self._changed.wait(timeout=self.fallback_poll)
                    if self.stopped is not None:
                        raise self.stopped(span)
                finally:
                    stats.wait_time += time.perf_counter() - wait_started
                    del self._waiting[key]
                    del self._waiting_spans[key]
            self._owners[name] = key
            hook = self.grant_hook
            if hook is not None:
                hook(name, key)
            return contended

    def release(self, name: str, key: ThreadKey) -> None:
        with self._changed:
            if self._owners.get(name) != key:
                # Structured lock blocks make this unreachable from Tetra
                # programs; guard against interpreter bugs anyway.
                raise TetraDeadlockError(
                    f"{self._label(key)} released 'lock {name}:' it does not hold"
                )
            del self._owners[name]
            self._changed.notify_all()

    def stop(self, error_for) -> None:
        """The run was stopped: every waiting acquire raises
        ``error_for(span)`` with its ``lock`` statement's span."""
        self.stopped = error_for
        # A parked thread also re-checks at its fallback poll, and a signal
        # handler may run this on the thread that holds the monitor, so
        # wait for the monitor only briefly.
        if self._monitor.acquire(timeout=0.1):
            try:
                self._changed.notify_all()
            finally:
                self._monitor.release()

    # ------------------------------------------------------------------
    def _find_cycle(
        self, start: ThreadKey
    ) -> tuple[list[str] | None, list[Span]]:
        """Walk thread→lock→owner edges from ``start`` (monitor held);
        return a readable cycle description plus the source span of every
        blocked ``lock`` statement in it, if the walk loops back."""
        path: list[str] = []
        spans: list[Span] = []
        current = start
        visited: set = set()
        while True:
            lock_name = self._waiting.get(current)
            if lock_name is None:
                return None, []
            path.append(f"{self._label(current)} waits for 'lock {lock_name}'")
            blocked_at = self._waiting_spans.get(current, NO_SPAN)
            if blocked_at is not NO_SPAN:
                spans.append(blocked_at)
            owner = self._owners.get(lock_name)
            if owner is None:
                return None, []
            path.append(f"'lock {lock_name}' is held by {self._label(owner)}")
            if owner == start:
                return path, spans
            if owner in visited:
                # A cycle not involving us; its members report it.
                return None, []
            visited.add(owner)
            current = owner

    @staticmethod
    def _cycle_message(cycle: list[str]) -> str:
        chain = "; ".join(cycle)
        return (
            "deadlock detected — these threads are waiting for each other in "
            f"a cycle: {chain}. Acquire locks in a consistent order to avoid this."
        )
