"""``repro.worldlog`` — the single append-only record store.

One run writes one *world log*: a tick-ordered JSONL sequence of typed
:class:`~repro.worldlog.record.Record` envelopes.  Everything the
repository used to persist separately — ledger events, attack
certificates, driver checkpoints, service jobs — is a
*view* derived by scanning the log (:mod:`repro.worldlog.views`); the
log itself is the only thing any layer writes.  On top of the views sit
the time-travel tools: a replay cursor that materializes "what the
system knew at tick T" (:mod:`repro.worldlog.replay`), a tick-aligned
semantic differ (:mod:`repro.worldlog.diffing`), and post-hoc metric
extraction (:func:`~repro.worldlog.replay.log_stats`).  See
``docs/WORLDLOG.md`` for the contract.
"""

from repro.worldlog.diffing import LogDiff, diff_logs
from repro.worldlog.record import (
    KINDS,
    WORLDLOG_SCHEMA,
    Record,
    log_order_signature,
)
from repro.worldlog.replay import (
    ReplayCursor,
    ReplayState,
    log_stats,
    replay_state,
    select_records,
)
from repro.worldlog.store import (
    LogTailer,
    WorldLog,
    is_worldlog,
    read_records,
    read_worldlog,
)
from repro.worldlog.views import derive_views

__all__ = [
    "KINDS",
    "WORLDLOG_SCHEMA",
    "LogDiff",
    "LogTailer",
    "Record",
    "ReplayCursor",
    "ReplayState",
    "WorldLog",
    "derive_views",
    "diff_logs",
    "is_worldlog",
    "log_order_signature",
    "log_stats",
    "read_records",
    "read_worldlog",
    "replay_state",
    "select_records",
]
