"""Machine-model tests on hand-built task graphs: makespans you can check
by hand, plus scheduling invariants."""

import pytest

from repro.errors import TetraDeadlockError
from repro.runtime.cost import FREE_PARALLELISM, CostModel
from repro.runtime.machine import Machine, speedup_curve
from repro.runtime.taskgraph import Acquire, Fork, Release, Task, TraceRecorder, Work

ZERO_TAX = FREE_PARALLELISM  # no overheads, no sharing tax


def fork_join(work_per_child, join=True):
    """root forks one child per entry, each doing the given work."""
    root = Task(0, "root")
    children = [Task(i + 1, f"c{i}", [Work(w)]) for i, w in enumerate(work_per_child)]
    root.items.append(Fork(children, join))
    return root


class TestMakespans:
    def test_sequential_work_only(self):
        root = Task(0, "root", [Work(100)])
        result = Machine(4, ZERO_TAX).run(root)
        assert result.makespan == 100
        assert result.total_work == 100

    def test_two_children_two_cores(self):
        result = Machine(2, ZERO_TAX).run(fork_join([50, 50]))
        assert result.makespan == 50

    def test_two_children_one_core(self):
        result = Machine(1, ZERO_TAX).run(fork_join([50, 50]))
        assert result.makespan == 100

    def test_imbalanced_children(self):
        # Makespan is bounded below by the largest task.
        result = Machine(4, ZERO_TAX).run(fork_join([10, 10, 10, 70]))
        assert result.makespan == 70

    def test_more_children_than_cores(self):
        # 8 × 10 units on 2 cores: perfect packing gives 40.
        result = Machine(2, ZERO_TAX).run(fork_join([10] * 8))
        assert result.makespan == 40

    def test_parent_work_after_join(self):
        root = fork_join([30, 30])
        root.items.append(Work(10))
        result = Machine(2, ZERO_TAX).run(root)
        assert result.makespan == 40

    def test_background_children_overlap_parent(self):
        root = Task(0, "root")
        child = Task(1, "bg", [Work(50)])
        root.items.append(Fork([child], join=False))
        root.items.append(Work(50))
        result = Machine(2, ZERO_TAX).run(root)
        assert result.makespan == 50

    def test_background_on_one_core_serializes(self):
        root = Task(0, "root")
        child = Task(1, "bg", [Work(50)])
        root.items.append(Fork([child], join=False))
        root.items.append(Work(50))
        result = Machine(1, ZERO_TAX).run(root)
        assert result.makespan == 100


class TestLockSerialization:
    def build_locked_pair(self, critical=40, outside=0):
        root = Task(0, "root")
        mk = lambda i: Task(i, f"c{i}", [
            Work(outside), Acquire("m"), Work(critical), Release("m"),
        ])
        root.items.append(Fork([mk(1), mk(2)], join=True))
        return root

    def test_critical_sections_serialize(self):
        # Two 40-unit critical sections cannot overlap: makespan 80 even
        # with plenty of cores.
        result = Machine(4, ZERO_TAX).run(self.build_locked_pair())
        assert result.makespan == 80

    def test_disjoint_locks_do_not_serialize(self):
        root = Task(0, "root")
        c1 = Task(1, "c1", [Acquire("a"), Work(40), Release("a")])
        c2 = Task(2, "c2", [Acquire("b"), Work(40), Release("b")])
        root.items.append(Fork([c1, c2], join=True))
        result = Machine(2, ZERO_TAX).run(root)
        assert result.makespan == 40

    def test_lock_wait_time_recorded(self):
        result = Machine(4, ZERO_TAX).run(self.build_locked_pair())
        assert result.lock_wait_time == pytest.approx(40)

    def test_opposite_order_deadlock_detected(self):
        root = Task(0, "root")
        c1 = Task(1, "c1", [Acquire("a"), Work(10), Acquire("b"),
                            Work(1), Release("b"), Release("a")])
        c2 = Task(2, "c2", [Acquire("b"), Work(10), Acquire("a"),
                            Work(1), Release("a"), Release("b")])
        root.items.append(Fork([c1, c2], join=True))
        with pytest.raises(TetraDeadlockError, match="opposite orders"):
            Machine(2, ZERO_TAX).run(root)


class TestInvariants:
    @pytest.mark.parametrize("cores", [1, 2, 3, 4, 8])
    def test_makespan_bounds(self, cores):
        root = fork_join([13, 27, 8, 41, 19, 6])
        result = Machine(cores, ZERO_TAX).run(root)
        work = result.total_work
        # Graham bounds for list scheduling without locks.
        assert result.makespan >= work / cores - 1e-9
        assert result.makespan >= result.critical_path
        assert result.makespan <= work

    def test_monotone_in_cores(self):
        root = fork_join([13, 27, 8, 41, 19, 6, 33, 2])
        spans = [Machine(m, ZERO_TAX).run(root).makespan for m in (1, 2, 4, 8)]
        assert spans == sorted(spans, reverse=True)

    def test_determinism(self):
        root = fork_join([5, 9, 1, 7, 3])
        results = [Machine(3, ZERO_TAX).run(root).makespan for _ in range(3)]
        assert len(set(results)) == 1

    def test_utilization_in_unit_range(self):
        result = Machine(4, ZERO_TAX).run(fork_join([10, 20, 30]))
        assert 0 < result.utilization <= 1

    def test_sharing_tax_inflates_parallel_work(self):
        taxed = CostModel(sharing_tax_percent=10, thread_spawn=0,
                          thread_join=0, lock_acquire=0, lock_release=0)
        root = fork_join([100, 100])
        plain = Machine(2, ZERO_TAX).run(root).makespan
        inflated = Machine(2, taxed).run(root).makespan
        assert inflated > plain

    def test_zero_core_machine_rejected(self):
        with pytest.raises(ValueError):
            Machine(0)

    def test_speedup_curve_includes_baseline(self):
        curve = speedup_curve(fork_join([10, 20]), [4], ZERO_TAX)
        assert set(curve) == {1, 4}
        assert curve[4].speedup_against(curve[1]) >= 1.0


class TestTaskGraph:
    def test_charge_merges_consecutive_work(self):
        rec = TraceRecorder()
        rec.current.charge(5)
        rec.current.charge(7)
        assert rec.root.items == [Work(12)]

    def test_charge_zero_ignored(self):
        rec = TraceRecorder()
        rec.current.charge(0)
        assert rec.root.items == []

    def test_fork_recording(self):
        rec = TraceRecorder()
        children = rec.begin_fork(["a", "b"], join=True)
        rec.enter_child(children[0])
        rec.current.charge(3)
        rec.exit_child()
        rec.enter_child(children[1])
        rec.current.charge(4)
        rec.exit_child()
        assert rec.root.task_count() == 3
        assert rec.root.subtree_work() == 7

    def test_critical_path_of_nested_forks(self):
        rec = TraceRecorder()
        rec.current.charge(10)
        (child,) = rec.begin_fork(["c"], join=True)
        rec.enter_child(child)
        rec.current.charge(20)
        rec.exit_child()
        rec.current.charge(5)
        assert rec.root.critical_path() == 35

    def test_max_parallelism(self):
        root = fork_join([1, 1, 1])
        assert root.max_parallelism() == 3
