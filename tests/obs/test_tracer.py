"""Tests for the span tracer: no-op guarantees and live ledger output."""

from repro.lowerbound.driver import attack_weak_consensus
from repro.obs.ledger import RunLedger
from repro.obs.tracer import NULL_TRACER, LedgerTracer, Tracer
from repro.protocols.subquadratic import ring_token_spec


class TestNullTracer:
    """The no-op default must be structurally zero-overhead."""

    def test_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_span_returns_one_shared_context(self):
        # One preallocated nullcontext, never a fresh object per span.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_hooks_are_no_ops(self):
        NULL_TRACER.counter("x", value=3)
        NULL_TRACER.gauge("y", value=1.0)

    def test_no_round_observers(self):
        assert NULL_TRACER.round_observers(floor=2.0) == ()

    def test_untraced_attack_emits_zero_events(self):
        # The driver built with the default tracer must not create any
        # telemetry machinery: same outcome, no events anywhere.
        outcome = attack_weak_consensus(ring_token_spec(12, 8))
        ledger = RunLedger(run_id="check")
        traced = attack_weak_consensus(
            ring_token_spec(12, 8), tracer=LedgerTracer(ledger)
        )
        assert outcome == traced  # telemetry outside outcome equality
        assert len(ledger.events) > 0

    def test_default_tracer_is_base_instance(self):
        assert type(NULL_TRACER) is Tracer

    def test_untraced_driver_builds_no_telemetry_machinery(self):
        # The ≤1% overhead guarantee is structural: a default-built
        # driver attaches zero trace observers to engine runs, so the
        # per-round cost is exactly the pre-observability cost.
        from repro.lowerbound.driver import LowerBoundDriver

        driver = LowerBoundDriver(spec=ring_token_spec(12, 8))
        assert driver.tracer is NULL_TRACER
        assert driver._trace_observers == ()


class TestLedgerTracer:
    def test_span_pairs(self):
        ledger = RunLedger(run_id="r", clock=lambda: 0.0)
        tracer = LedgerTracer(ledger)
        with tracer.span("attack", n=8):
            with tracer.span("fault-free"):
                pass
        kinds = [(e.kind, e.name) for e in ledger.events]
        assert kinds == [
            ("span-start", "attack"),
            ("span-start", "fault-free"),
            ("span-end", "fault-free"),
            ("span-end", "attack"),
        ]
        assert ledger.events[0].attr("n") == 8

    def test_span_closes_on_exception(self):
        ledger = RunLedger(run_id="r", clock=lambda: 0.0)
        tracer = LedgerTracer(ledger)
        try:
            with tracer.span("attack"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert ledger.events[-1].kind == "span-end"

    def test_cell_id_stamped_on_every_event(self):
        ledger = RunLedger(run_id="r", clock=lambda: 0.0)
        tracer = LedgerTracer(ledger, cell_id="attack/silent/n8/t4")
        with tracer.span("attack"):
            tracer.counter("x")
            tracer.gauge("g", 1.0)
        assert all(
            e.cell_id == "attack/silent/n8/t4" for e in ledger.events
        )

    def test_traced_attack_covers_driver_phases(self):
        ledger = RunLedger(run_id="r")
        attack_weak_consensus(
            ring_token_spec(12, 8), tracer=LedgerTracer(ledger)
        )
        spans = {
            e.name for e in ledger.events if e.kind == "span-start"
        }
        assert {"attack", "fault-free", "isolation-scan"} <= spans
        names = {e.name for e in ledger.events}
        # Round telemetry and cache accounting ride along.
        assert "engine.round" in names
        assert "cache.misses" in names
        assert "bound.vs_floor" in names

    def test_round_events_carry_message_attrs(self):
        ledger = RunLedger(run_id="r")
        attack_weak_consensus(
            ring_token_spec(12, 8), tracer=LedgerTracer(ledger)
        )
        rounds = [
            e
            for e in ledger.events
            if e.kind == "counter" and e.name == "engine.round"
        ]
        assert rounds
        for event in rounds:
            assert event.attr("round") is not None
            assert event.attr("run") is not None
            assert event.attr("cum_messages") is not None

    def test_driver_totals_close_the_attack(self):
        # The driver's end-of-pipeline totals are plain events in one
        # fixed order; no per-round aggregate repeats the round events.
        from repro.lowerbound.bound import weak_consensus_floor

        ledger = RunLedger(run_id="r")
        outcome = attack_weak_consensus(
            ring_token_spec(12, 8), tracer=LedgerTracer(ledger)
        )
        tail = [
            (e.kind, e.name, e.value)
            for e in ledger.events
            if e.kind in ("counter", "gauge") and e.name != "engine.round"
        ]
        assert [(kind, name) for kind, name, _ in tail] == [
            ("counter", "cache.hits"),
            ("counter", "cache.alias_hits"),
            ("counter", "cache.misses"),
            ("counter", "engine.rounds_simulated"),
            ("counter", "engine.rounds_baseline"),
            ("counter", "engine.prefix_rounds_skipped"),
            ("counter", "engine.early_stops"),
            ("counter", "engine.machine_snapshots"),
            ("counter", "engine.masks_built"),
            ("counter", "engine.popcounts"),
            ("counter", "witness.found"),
            ("gauge", "bound.vs_floor"),
            ("gauge", "bound.observed"),
            ("gauge", "bound.floor"),
        ]
        values = {name: value for _, name, value in tail}
        floor = weak_consensus_floor(8)
        assert values["witness.found"] == 1
        assert values["bound.observed"] == outcome.bound.observed
        assert values["bound.floor"] == floor
        assert values["bound.vs_floor"] == outcome.bound.observed / floor
