"""Lemma 15's swap leaves every received set and state alone, and the
``sweep`` command's fit."""

from repro.omission.isolation import isolate_group
from repro.omission.swap import swap_omission
from repro.protocols.subquadratic import leader_echo_spec


class TestDiffExecutions:
    def test_swap_diff_is_only_omission_attribution(self):
        """Algorithm 4 changes only sent/send_omitted/receive_omitted
        records — never received sets, proposals or decisions (the
        Lemma-15 indistinguishability claim)."""
        spec = leader_echo_spec(8, 4)
        isolated = spec.run_uniform(0, isolate_group({7}, 1))
        swapped = swap_omission(isolated, 7)
        assert swapped != isolated  # something did change
        for before, after in zip(isolated.behaviors, swapped.behaviors):
            assert before.final_state == after.final_state
            for left, right in zip(before, after, strict=True):
                assert left.state == right.state
                assert left.received == right.received


class TestSweepCommand:
    def test_cli_sweep_runs(self, capsys):
        from repro.cli import main

        assert (
            main(["sweep", "leader-echo", "--max-t", "8"]) == 0
        )
        out = capsys.readouterr().out
        assert "t^2/32" in out
        assert "fit:" in out

    def test_cli_sweep_proportional(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "dolev-strong",
                    "--max-t",
                    "6",
                    "--grid",
                    "proportional",
                ]
            )
            == 0
        )
        assert "dolev-strong" in capsys.readouterr().out
