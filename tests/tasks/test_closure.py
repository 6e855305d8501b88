"""Tests for closures, continuations, and join counters."""

import pytest

from repro.errors import ClosureError
from repro.tasks.closure import CLEARINGHOUSE_TARGET, Closure, Continuation
from repro.tasks.program import SuccessorRef


def make(missing=None, args=(1, 2, 3)):
    return Closure(("w0", 1), "fn", list(args), missing_slots=missing)


class TestClosure:
    def test_fully_applied_is_ready(self):
        c = make()
        assert c.is_ready
        assert c.join_counter == 0

    def test_missing_slots_counted(self):
        c = make(missing=[1, 2])
        assert c.join_counter == 2
        assert not c.is_ready

    def test_fill_decrements_and_enables(self):
        c = make(missing=[1, 2])
        assert c.fill(1, "x") is False
        assert c.fill(2, "y") is True
        assert c.is_ready
        assert c.args == [1, "x", "y"]

    def test_double_fill_raises(self):
        c = make(missing=[1])
        c.fill(1, "x")
        with pytest.raises(ClosureError):
            c.fill(1, "again")

    def test_fill_present_slot_raises(self):
        c = make(missing=[1])
        with pytest.raises(ClosureError):
            c.fill(0, "nope")

    def test_successor_cont_bounds(self):
        succ = SuccessorRef(Closure.born_waiting(("w0", 1), "fn", [1], 2, 0))
        assert succ.cont(2) == Continuation(("w0", 1), 2)
        with pytest.raises(ClosureError, match="out of range"):
            succ.cont(99)
        with pytest.raises(ClosureError, match="out of range"):
            succ.cont(-1)
        with pytest.raises(ClosureError, match="not missing"):
            succ.cont(0)  # filled at birth

    def test_missing_slot_out_of_range(self):
        with pytest.raises(ClosureError):
            make(missing=[5])

    def test_call_args_requires_ready(self):
        c = make(missing=[0])
        with pytest.raises(ClosureError):
            c.call_args()

    def test_call_args_returns_values(self):
        assert make().call_args() == [1, 2, 3]

    def test_redo_copy_new_identity_same_content(self):
        c = make()
        clone = c.redo_copy(("w1", 9))
        assert clone.cid == ("w1", 9)
        assert clone.args == c.args
        assert clone.thread_name == c.thread_name
        assert clone.depth == c.depth

    def test_redo_copy_requires_ready(self):
        c = make(missing=[0])
        with pytest.raises(ClosureError):
            c.redo_copy(("w1", 9))

    def test_repr_shows_holes(self):
        c = make(missing=[1])
        assert "_" in repr(c)


class TestContinuation:
    def test_equality_and_hash(self):
        a = Continuation(("w", 1), 2)
        b = Continuation(("w", 1), 2)
        c = Continuation(("w", 1), 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "other"

    def test_clearinghouse_target_is_reserved(self):
        k = Continuation(CLEARINGHOUSE_TARGET, 0)
        assert k.target[0] == "@clearinghouse"
