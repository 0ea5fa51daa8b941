"""Tests for the reusable Byzantine strategies themselves."""

from byzantine_strategies import (
    crash_at,
    garbage,
    mute,
    two_faced,
)
from repro.protocols.phase_king import phase_king_spec


def build(strategy, pid=0, n=4, t=1, proposal=0):
    spec = phase_king_spec(n, t)
    return strategy(pid, spec.factory, proposal)


class TestMute:
    def test_sends_nothing(self):
        machine = build(mute())
        for round_ in range(1, 7):
            assert machine.outgoing(round_) == {}
            machine.deliver(round_, {})
        assert machine.decision is None


class TestCrashAt:
    def test_honest_then_silent(self):
        honest = build(lambda p, f, v: f(p, v))
        crashing = build(crash_at(3))
        assert crashing.outgoing(1) == honest.outgoing(1)
        honest.deliver(1, {})
        crashing.deliver(1, {})
        assert crashing.outgoing(2) == honest.outgoing(2)
        honest.deliver(2, {})
        crashing.deliver(2, {})
        assert crashing.outgoing(3) == {}
        assert crashing.outgoing(4) == {}


class TestTwoFaced:
    def test_shows_different_faces(self):
        machine = build(two_faced(0, 1), n=4, t=1)
        outgoing = machine.outgoing(1)
        # Phase king round 1 broadcasts the current value: the low half
        # sees value 0 and the high half value 1.
        low = {r: p for r, p in outgoing.items() if r < 2}
        high = {r: p for r, p in outgoing.items() if r >= 2}
        assert all(payload == ("value", 0) for payload in low.values())
        assert all(payload == ("value", 1) for payload in high.values())

    def test_routes_receipts_to_matching_face(self):
        machine = build(two_faced(0, 1), n=4, t=1)
        machine.outgoing(1)
        # Delivery must not crash and must keep both inner machines
        # consistent with their own half's traffic.
        machine.deliver(
            1, {1: ("value", 0), 2: ("value", 1), 3: ("value", 1)}
        )
        outgoing = machine.outgoing(2)
        assert set(outgoing) <= {0, 1, 2, 3}


class TestGarbage:
    def test_deterministic_junk(self):
        machine_a = build(garbage())
        machine_b = build(garbage())
        assert machine_a.outgoing(1) == machine_b.outgoing(1)
        assert machine_a.outgoing(2)[1] == ("garbage", 0, 2)
