"""Plain-text table rendering for experiment and example reports.

The harness prints the same row/series structure the experiments define
(EXPERIMENTS.md records the outputs); no plotting dependencies are used —
tables render as monospace text.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.complexity import SweepPoint


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """A simple aligned monospace table."""
    materialized = [
        [str(cell) for cell in row] for row in rows
    ]
    widths = [len(header) for header in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    lines = [fmt(list(headers))]
    lines.append(fmt(["-" * width for width in widths]))
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


def render_sweep(points: Sequence[SweepPoint]) -> str:
    """The standard complexity-sweep table (E1/E3/E7)."""
    return render_table(
        headers=(
            "protocol",
            "n",
            "t",
            "worst msgs",
            "scenario",
            "t^2/32",
            "msgs/floor",
            "msgs/t^2",
        ),
        rows=[
            (
                point.protocol,
                point.n,
                point.t,
                point.worst_messages,
                point.scenario,
                f"{point.floor:.1f}",
                f"{point.ratio_to_floor:.2f}",
                f"{point.ratio_to_t_squared:.3f}",
            )
            for point in points
        ],
    )


def render_kv(title: str, pairs: Iterable[tuple[str, object]]) -> str:
    """A titled key/value block."""
    lines = [title]
    for key, value in pairs:
        lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def render_execution(execution, max_rounds: int | None = None) -> str:
    """A round-by-round view of an execution for reports and teaching.

    One row per round: messages sent by correct/faulty processes,
    omissions committed, and which processes decided during the round.
    """
    from repro.sim.execution import Execution

    assert isinstance(execution, Execution)
    horizon = execution.rounds
    if max_rounds is not None:
        horizon = min(horizon, max_rounds)
    decided_during: dict[int, list[int]] = {}
    for pid in range(execution.n):
        round_ = execution.behavior(pid).decision_round
        if round_ is not None and round_ <= horizon:
            decided_during.setdefault(round_, []).append(pid)
    rows = []
    for round_ in range(1, horizon + 1):
        sent_correct = sent_faulty = send_omitted = receive_omitted = 0
        for pid in range(execution.n):
            fragment = execution.behavior(pid).fragment(round_)
            if pid in execution.correct:
                sent_correct += len(fragment.sent)
            else:
                sent_faulty += len(fragment.sent)
            send_omitted += len(fragment.send_omitted)
            receive_omitted += len(fragment.receive_omitted)
        deciders = decided_during.get(round_, [])
        rows.append(
            (
                round_,
                sent_correct,
                sent_faulty,
                send_omitted,
                receive_omitted,
                ",".join(f"p{pid}" for pid in deciders) or "-",
            )
        )
    header = (
        f"execution: n={execution.n} t={execution.t} "
        f"faulty={sorted(execution.faulty)}"
    )
    return header + "\n" + render_table(
        ("round", "sent(correct)", "sent(faulty)", "send-omit",
         "recv-omit", "decided"),
        rows,
    )
