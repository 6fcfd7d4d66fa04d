"""Task graphs recorded by the virtual-time backend.

``SimBackend`` executes a Tetra program *sequentially* while recording what
the thread runtime would have done: how much interpreter work each would-be
thread performs (``Work``), where threads fork and join (``Fork``), and
where critical sections begin and end (``Acquire``/``Release``).  The
resulting fork/join trace is a series-parallel DAG with lock constraints —
exactly the input :mod:`repro.runtime.machine` schedules onto a model
multicore to produce virtual makespans.

Traces are plain data: they can be saved, diffed in tests, and replayed on
machines with different core counts without re-interpreting the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from ..source import NO_SPAN, Span


@dataclass
class Work:
    """Compute for ``units`` of abstract time while holding a core."""

    units: int


@dataclass
class Acquire:
    """Block until the named lock is free, then hold it."""

    name: str


@dataclass
class Release:
    name: str


@dataclass
class Access:
    """A shared-memory read (``write=False``) or write, with its source
    span.  Recorded only when race detection is on; the machine model
    ignores these (they cost nothing), but
    :func:`repro.analysis.races.replay_trace` consumes them."""

    name: str
    write: bool
    span: Span = NO_SPAN


@dataclass
class Fork:
    """Spawn ``children``; if ``join``, wait for all of them to finish."""

    children: list["Task"]
    join: bool


TraceItem = Union[Work, Acquire, Release, Access, Fork]


@dataclass
class Task:
    """One would-be thread: a sequential trace of items."""

    id: int
    label: str
    items: list[TraceItem] = field(default_factory=list)

    def charge(self, units: int) -> None:
        """Accumulate compute cost, merging consecutive Work items so traces
        stay small (one item per basic block, not one per AST node)."""
        if units <= 0:
            return
        if self.items and isinstance(self.items[-1], Work):
            self.items[-1].units += units
        else:
            self.items.append(Work(units))

    @property
    def total_work(self) -> int:
        """All compute units in this task (excluding children)."""
        return sum(item.units for item in self.items if isinstance(item, Work))

    def subtree_work(self) -> int:
        """All compute units in this task and every descendant."""
        total = 0
        for task in self.walk():
            total += task.total_work
        return total

    def walk(self) -> Iterator["Task"]:
        yield self
        for item in self.items:
            if isinstance(item, Fork):
                for child in item.children:
                    yield from child.walk()

    def task_count(self) -> int:
        return sum(1 for _ in self.walk())

    def max_parallelism(self) -> int:
        """Upper bound on simultaneously runnable tasks (fork width, nested)."""
        width = 1
        for item in self.items:
            if isinstance(item, Fork):
                children_width = sum(c.max_parallelism() for c in item.children)
                base = 1 if not item.join else 0
                # While joined children run the parent is blocked; while
                # background children run the parent keeps going.
                width = max(width, children_width + base)
        return width

    def critical_path(self) -> int:
        """Length of the longest dependency chain — the T∞ lower bound of
        work/span analysis.  Lock serialization is ignored here (it is a
        scheduling constraint, not a dependency)."""
        length = 0
        for item in self.items:
            if isinstance(item, Work):
                length += item.units
            elif isinstance(item, Fork) and item.join:
                length += max((c.critical_path() for c in item.children), default=0)
        return length


class TraceRecorder:
    """Builds a task tree while the sim backend runs the program."""

    def __init__(self, root_label: str = "main"):
        self._next_id = 0
        self.root = self._new_task(root_label)
        self._stack: list[Task] = [self.root]
        #: The task being recorded (the top of the stack), which the sim
        #: backend charges directly.
        self.current: Task = self.root

    def _new_task(self, label: str) -> Task:
        task = Task(self._next_id, label)
        self._next_id += 1
        return task

    def virtual_now(self) -> int:
        """The virtual clock of the task being recorded: work accumulated
        along the current task stack.  A child starts where its spawner
        left off, siblings overlap, and two ``virtual_now`` readings in the
        same task differ by exactly the units charged between them — which
        is what makes the Tetra ``clock()`` builtin deterministic under the
        sim backend."""
        return sum(task.total_work for task in self._stack)

    def begin_fork(self, labels: list[str], join: bool) -> list[Task]:
        """Create child tasks; the caller then records into each via
        :meth:`enter_child` / :meth:`exit_child`, then calls
        :meth:`end_fork`."""
        children = [self._new_task(label) for label in labels]
        self.current.items.append(Fork(children, join))
        return children

    def enter_child(self, child: Task) -> None:
        self._stack.append(child)
        self.current = child

    def exit_child(self) -> None:
        self._stack.pop()
        self.current = self._stack[-1]

    def access(self, name: str, write: bool, span: Span = NO_SPAN) -> None:
        """Record a shared-memory access (race-detection runs only)."""
        self.current.items.append(Access(name, write, span))

