"""Unit tests for the shared/private symbol tables and thread contexts —
the machinery behind the paper's 'private and shared symbol tables' (§IV).
"""

import pytest

from repro.errors import TetraInternalError
from repro.interp.context import ThreadContext
from repro.runtime.env import Environment, Frame


class TestFrameAndEnvironment:
    def test_reads_fall_through_to_frame(self):
        frame = Frame("f")
        frame.vars["x"] = 1
        env = Environment(frame)
        assert env.get("x") == 1
        assert env.has("x")

    def test_writes_go_to_frame_by_default(self):
        frame = Frame("f")
        env = Environment(frame)
        env.set("y", 2)
        assert frame.vars["y"] == 2

    def test_private_shadows_shared(self):
        frame = Frame("f")
        frame.vars["i"] = 99
        env = Environment(frame, {"i": 1})
        assert env.get("i") == 1
        env.set("i", 2)
        assert env.get("i") == 2
        assert frame.vars["i"] == 99  # the shared copy is untouched

    def test_child_with_private_layers(self):
        frame = Frame("f")
        frame.vars["shared"] = 0
        outer = Environment(frame, {"i": 1})
        inner = outer.child_with_private({"j": 2})
        # The inner worker sees both induction variables plus the frame.
        assert inner.get("i") == 1
        assert inner.get("j") == 2
        assert inner.get("shared") == 0
        # But writes to its own private var do not leak to the outer view.
        inner.set("j", 5)
        assert "j" not in outer.private

    def test_snapshot_merges_with_private_priority(self):
        frame = Frame("f")
        frame.vars.update({"a": 1, "i": 10})
        env = Environment(frame, {"i": 2})
        snap = env.snapshot()
        assert snap == {"a": 1, "i": 2}

    def test_names_are_deduplicated(self):
        frame = Frame("f")
        frame.vars.update({"a": 1, "i": 10})
        env = Environment(frame, {"i": 2})
        names = list(env.names())
        assert sorted(names) == ["a", "i"]
        assert names.count("i") == 1

    def test_unbound_read_is_internal_error(self):
        env = Environment(Frame("f"))
        with pytest.raises(TetraInternalError, match="before any assignment"):
            env.get("ghost")


class TestThreadContext:
    def test_ids_are_unique_and_increasing(self):
        a = ThreadContext("a")
        b = ThreadContext("b")
        assert b.id > a.id

    def test_spawn_child_copies_call_stack(self):
        frame = Frame("main")
        env = Environment(frame)
        parent = ThreadContext("parent", env)
        parent.call_stack.append(frame)
        child = parent.spawn_child("child", env)
        assert child.call_stack == parent.call_stack
        assert child.call_stack is not parent.call_stack
        child.call_stack.append(Frame("helper"))
        assert parent.depth == 1
        assert child.depth == 2

    def test_current_function(self):
        ctx = ThreadContext("t")
        assert ctx.current_function == "<toplevel>"
        ctx.call_stack.append(Frame("work"))
        assert ctx.current_function == "work"

    def test_repr_mentions_label(self):
        ctx = ThreadContext("worker 3")
        assert "worker 3" in repr(ctx)
