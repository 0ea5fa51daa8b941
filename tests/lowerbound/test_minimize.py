"""Tests for the witness round table (``render_execution``), which
examples/lower_bound_walkthrough.py prints."""

from repro.protocols.subquadratic import (
    leader_echo_spec,
    ring_token_spec,
)


class TestRenderExecution:
    def test_round_table_shape(self):
        from repro.analysis.tables import render_execution

        spec = leader_echo_spec(8, 4)
        execution = spec.run_uniform(0)
        text = render_execution(execution)
        assert "execution: n=8 t=4" in text
        lines = text.splitlines()
        # header + table header + separator + one row per round
        assert len(lines) == 3 + execution.rounds

    def test_max_rounds_truncates(self):
        from repro.analysis.tables import render_execution

        spec = ring_token_spec(10, 4)
        execution = spec.run_uniform(0)
        text = render_execution(execution, max_rounds=3)
        assert len(text.splitlines()) == 3 + 3
