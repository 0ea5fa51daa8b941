"""Tick-aligned semantic diff of two world logs.

The lower bound's whole argument is indistinguishability between
executions, and the repository's strongest guarantees are phrased the
same way: a SIGKILLed-and-resumed sweep must produce the same run as an
uninterrupted one, and a parallel sweep the same run as a serial one.
"The same run" can never mean byte-equal logs — ticks, timestamps,
worker pids and run ids legitimately differ — so this module defines
what *semantic* equality is and reports the first place two logs break
it.

Alignment is by the wall-clock-independent key ``(kind, name, cell)``
(:attr:`~repro.worldlog.record.Record.align_key`), not by raw tick:
two logs align when their key sequences match position by position, so
timing-only divergence (different ticks, different durations) is
invisible by construction.  Before aligning, each log is normalized:

* ``gather.start`` markers are dropped, and ``ledger.event`` records
  before the *last* marker are dropped with them — exactly the derived
  ledger view's rule, so a resumed log (which re-splices all events
  after a fresh marker) aligns with its uninterrupted twin;
* observability-only records (:data:`OBSERVABILITY_KINDS`:
  ``job.rejected`` admission refusals, and the retired
  ``telemetry.snapshot`` samples of older logs) are dropped entirely —
  they land at timing- and load-dependent positions, so a rate-limited
  submission burst must align with a patient one;
* payloads are scrubbed of wall-clock and identity fields
  (:data:`DROP_KEYS`, applied recursively) and of the values of
  wall-clock metrics (:data:`WALL_CLOCK_METRICS`).

What remains — record order, event names, counter values (the
``engine.*`` materialization counters included), certificate bytes,
results — is the run's semantic content, and any difference in
it is a real divergence worth a human's attention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

from repro.worldlog.record import Record

DROP_KEYS = frozenset(
    {
        "ts",
        "seconds",
        "wall_seconds",
        "unix_time",
        "run_id",
        "worker_id",
    }
)
"""Payload keys scrubbed recursively before comparison.

Wall-clock measurements (``ts`` / ``seconds`` / ``wall_seconds`` /
``unix_time``) and per-process identity (``run_id`` / ``worker_id``)
differ between any two honest executions of the same matrix;
everything else must not.
"""

WALL_CLOCK_METRICS = frozenset(
    {"engine.round_seconds", "cell.wall_seconds", "cell.heartbeat"}
)
"""Ledger metrics whose *values* are wall-clock readings.

Their presence and order still compare (the run emitted them); their
measured values and min/max/total attributes do not.
``cell.heartbeat`` counts the progress ticks a sweep cell was in
flight for, so two honest runs differ in it whenever a cell outlasts a
heartbeat interval in one and not the other.
"""

_TIMING_ATTRS = frozenset({"min", "max", "total", "mean"})

OBSERVABILITY_KINDS = frozenset({"job.rejected", "telemetry.snapshot"})
"""Record kinds that are pure observability and never count.

Both land at positions driven by wall clock and load — a quota
refusal depends on how fast a tenant hammered the socket, a telemetry
snapshot on where the sampling interval elapsed — so the differ drops
them the way it drops ``gather.start`` markers.  ``telemetry.snapshot``
is retired (nothing writes it any more); it stays here so logs written
before its retirement still diff empty against their twins without
it.  The contract is the
flip side of these records being ignored by ``recover_jobs`` (which
resumes sweeps and the service alike) and the jobs manifest: they
may appear anywhere, or nowhere,
without changing what run the log describes.
"""


def scrub_payload(payload: Any) -> Any:
    """The payload with every wall-clock / identity field removed."""
    if isinstance(payload, dict):
        scrubbed = {
            key: scrub_payload(value)
            for key, value in payload.items()
            if key not in DROP_KEYS
        }
        if payload.get("name") in WALL_CLOCK_METRICS:
            scrubbed.pop("value", None)
            attrs = scrubbed.get("attrs")
            if isinstance(attrs, dict):
                scrubbed["attrs"] = {
                    key: value
                    for key, value in attrs.items()
                    if key not in _TIMING_ATTRS
                }
        return scrubbed
    if isinstance(payload, list):
        return [scrub_payload(item) for item in payload]
    return payload


def comparable_records(records: Sequence[Record]) -> list[Record]:
    """The semantically comparable subsequence of one log.

    Applies the derived ledger view's crash-safety rule to the diff:
    only ``ledger.event`` records after the last ``gather.start``
    marker count, and the markers themselves (one per gather *attempt*,
    so a resumed log has more) are dropped.  Observability-only
    records (:data:`OBSERVABILITY_KINDS`) are dropped with them.
    """
    last_gather = -1
    for index, record in enumerate(records):
        if record.kind == "gather.start":
            last_gather = index
    return [
        record
        for index, record in enumerate(records)
        if record.kind != "gather.start"
        and record.kind not in OBSERVABILITY_KINDS
        and not (record.kind == "ledger.event" and index < last_gather)
    ]


@dataclass(frozen=True)
class Divergence:
    """The first semantic difference between two aligned logs."""

    index: int
    reason: str
    a: Record | None
    b: Record | None

    def render(self, a_path: str = "a", b_path: str = "b") -> str:
        """Both sides of the divergence, payloads scrubbed and pretty."""
        lines = [
            f"first divergence at aligned record {self.index}: "
            f"{self.reason}"
        ]
        for label, record in ((a_path, self.a), (b_path, self.b)):
            if record is None:
                lines.append(f"--- {label}: (no record at this position)")
                continue
            lines.append(
                f"--- {label}: tick {record.tick} "
                f"key={record.align_key!r}"
            )
            lines.append(
                json.dumps(
                    scrub_payload(record.payload),
                    indent=2,
                    sort_keys=True,
                )
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class LogDiff:
    """The outcome of one semantic log comparison."""

    compared: int
    skipped_a: int
    skipped_b: int
    divergence: Divergence | None

    @property
    def ok(self) -> bool:
        """Whether the two logs are semantically identical."""
        return self.divergence is None

    def render(self, a_path: str = "a", b_path: str = "b") -> str:
        if self.divergence is None:
            skipped = ""
            if self.skipped_a or self.skipped_b:
                skipped = (
                    f" ({self.skipped_a}+{self.skipped_b} timing-only "
                    "record(s) skipped)"
                )
            return (
                f"logs align: {self.compared} record(s) semantically "
                f"identical{skipped}"
            )
        return self.divergence.render(a_path, b_path)


def diff_logs(
    a_records: Sequence[Record], b_records: Sequence[Record]
) -> LogDiff:
    """Key-align two logs and report the first semantic divergence.

    Pure and total: never raises on content, returns a :class:`LogDiff`
    whose ``divergence`` is ``None`` exactly when the logs describe the
    same run.  The canonical empty-diff pairs — a log against itself,
    two runs of one matrix, an uninterrupted sweep vs its
    SIGKILL-resumed twin — are pinned by
    ``tests/worldlog/test_diffing.py`` and the CI ``worldlog-replay``
    gates.
    """
    a_side = comparable_records(a_records)
    b_side = comparable_records(b_records)
    skipped_a = len(a_records) - len(a_side)
    skipped_b = len(b_records) - len(b_side)
    length = min(len(a_side), len(b_side))
    for index in range(length):
        a_record, b_record = a_side[index], b_side[index]
        if a_record.align_key != b_record.align_key:
            return LogDiff(
                compared=index,
                skipped_a=skipped_a,
                skipped_b=skipped_b,
                divergence=Divergence(
                    index=index,
                    reason=(
                        f"record order diverged: "
                        f"{a_record.align_key!r} vs "
                        f"{b_record.align_key!r}"
                    ),
                    a=a_record,
                    b=b_record,
                ),
            )
        if scrub_payload(a_record.payload) != scrub_payload(
            b_record.payload
        ):
            return LogDiff(
                compared=index,
                skipped_a=skipped_a,
                skipped_b=skipped_b,
                divergence=Divergence(
                    index=index,
                    reason=(
                        f"payloads diverged for key "
                        f"{a_record.align_key!r}"
                    ),
                    a=a_record,
                    b=b_record,
                ),
            )
    if len(a_side) != len(b_side):
        longer, label = (
            (a_side, "a") if len(a_side) > len(b_side) else (b_side, "b")
        )
        extra = longer[length]
        return LogDiff(
            compared=length,
            skipped_a=skipped_a,
            skipped_b=skipped_b,
            divergence=Divergence(
                index=length,
                reason=(
                    f"log {label} continues with "
                    f"{len(longer) - length} extra record(s), first "
                    f"key {extra.align_key!r}"
                ),
                a=extra if label == "a" else None,
                b=extra if label == "b" else None,
            ),
        )
    return LogDiff(
        compared=length,
        skipped_a=skipped_a,
        skipped_b=skipped_b,
        divergence=None,
    )
