"""Tests for repro.sim.message."""

import pytest

from repro.sim.message import Message


class TestMessage:
    def test_rejects_self_message(self):
        with pytest.raises(ValueError, match="no process sends"):
            Message(2, 2, 1)

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError, match="rounds start at 1"):
            Message(0, 1, 0)

    def test_equality_is_by_value(self):
        assert Message(0, 1, 1, "x") == Message(0, 1, 1, "x")
        assert Message(0, 1, 1, "x") != Message(0, 1, 1, "y")

    def test_hashable(self):
        assert len({Message(0, 1, 1), Message(0, 1, 1)}) == 1

