"""The record envelope and the append-only store.

Covers the two load-bearing guarantees: appends are write-through (a
crash leaves at most one torn final line) and reads are torn-tail-safe
(the tail is dropped; any *other* malformed line is corruption and
raises the uniform artifact diagnostic).
"""

import json

import pytest

from repro.errors import ArtifactError
from repro.worldlog import (
    WORLDLOG_SCHEMA,
    Record,
    WorldLog,
    log_order_signature,
    read_worldlog,
)


class TestRecord:
    def test_roundtrip(self):
        record = Record(
            tick=3,
            kind="job.result",
            payload={"key": "k1", "name": "x"},
            run_id="r",
            cell_id="cell",
            worker_id=7,
        )
        assert Record.from_json(record.to_json()) == record

    def test_envelope_key_order_is_fixed(self):
        record = Record(tick=0, kind="log.open", payload={}, run_id="r")
        keys = list(json.loads(record.to_json()))
        assert keys == [
            "tick",
            "kind",
            "run_id",
            "cell_id",
            "worker_id",
            "payload",
        ]

    def test_payload_rendered_verbatim(self):
        """The envelope embeds the payload's own canonical rendering.

        This is what makes derived views byte-identical: re-dumping
        ``record.payload`` reproduces exactly the bytes that were
        appended.
        """
        payload = {"b": 1, "a": [None, True, "x"]}
        record = Record(tick=1, kind="checkpoint", payload=payload)
        line = record.to_json()
        assert json.dumps(payload) in line

    def test_from_json_rejects_non_records(self):
        with pytest.raises((ValueError, KeyError, TypeError)):
            Record.from_json("[1, 2, 3]")
        with pytest.raises((ValueError, KeyError, TypeError)):
            Record.from_json('{"tick": "zero", "kind": "x"}')

    def test_order_signature_triple(self):
        records = [
            Record(tick=0, kind="log.open", payload={}),
            Record(
                tick=1,
                kind="ledger.event",
                payload={"name": "cell.start"},
                cell_id="c1",
            ),
            Record(tick=2, kind="job.result", payload={}, cell_id="c1"),
        ]
        assert log_order_signature(records) == [
            ("log.open", None, None),
            ("ledger.event", "cell.start", "c1"),
            ("job.result", None, "c1"),
        ]


class TestWorldLog:
    def test_create_appends_header(self, tmp_path):
        path = str(tmp_path / "run.worldlog")
        with WorldLog.create(path, run_id="r") as log:
            log.append("checkpoint", {"label": "x"})
        records = read_worldlog(path)
        assert records[0].kind == "log.open"
        assert records[0].payload == {"schema": WORLDLOG_SCHEMA}
        assert [record.tick for record in records] == [0, 1]

    def test_append_is_write_through(self, tmp_path):
        """Every appended record is on disk before append returns."""
        path = str(tmp_path / "run.worldlog")
        log = WorldLog.create(path, run_id="r")
        log.append("checkpoint", {"label": "x"})
        # Read *without* closing the writer: a crash at this point must
        # not lose the record.
        assert len(read_worldlog(path)) == 2
        log.close()

    def test_torn_tail_dropped(self, tmp_path):
        path = str(tmp_path / "run.worldlog")
        with WorldLog.create(path, run_id="r") as log:
            log.append("checkpoint", {"label": "x"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"tick": 2, "kind": "cell.re')  # killed writer
        assert len(read_worldlog(path)) == 2

    def test_torn_tail_splitting_a_character_dropped(self, tmp_path):
        """A killed writer can stop inside a multi-byte character."""
        from repro.worldlog import read_records

        path = str(tmp_path / "run.worldlog")
        with WorldLog.create(path, run_id="r") as log:
            log.append("job.result", {"key": "x", "result": {}})
        with open(path, "ab") as handle:
            handle.write(b'{"tick": 2, "kind": "job.result", "\xe2\x82')
        assert [record.tick for record in read_records(path)] == [0, 1]

    def test_malformed_middle_line_raises(self, tmp_path):
        path = str(tmp_path / "run.worldlog")
        with WorldLog.create(path, run_id="r") as log:
            log.append("checkpoint", {"label": "x"})
        text = open(path, encoding="utf-8").read()
        lines = text.splitlines()
        lines.insert(1, "garbage")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError) as excinfo:
            read_worldlog(path)
        assert f"{path}:2: not a world-log record" in str(excinfo.value)

    def test_resume_truncates_tail_and_continues_ticks(self, tmp_path):
        path = str(tmp_path / "run.worldlog")
        with WorldLog.create(path, run_id="r") as log:
            log.append("checkpoint", {"label": "x"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"tick": 2, "kind": "cell.re')
        with WorldLog.resume(path) as log:
            assert log.run_id == "r"
            assert log.next_tick == 2
            log.append("checkpoint", {"label": "y"})
        records = read_worldlog(path)
        assert [record.tick for record in records] == [0, 1, 2]
        assert records[-1].payload == {"label": "y"}

    def test_not_a_world_log(self, tmp_path):
        # A retired JSONL ledger line is not a record envelope: file:line.
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ts": 1, "kind": "counter", "name": "x"}\n')
        with pytest.raises(ArtifactError) as excinfo:
            read_worldlog(str(path))
        assert "not a world-log record" in str(excinfo.value)
        # Valid record envelopes without the log.open header: rejected.
        path = tmp_path / "headless.worldlog"
        record = Record(tick=0, kind="checkpoint", payload={})
        path.write_text(record.to_json() + "\n")
        with pytest.raises(ArtifactError) as excinfo:
            read_worldlog(str(path))
        assert "not a world log" in str(excinfo.value)

    def test_record_event_mirrors_ledger(self, tmp_path):
        from repro.obs.ledger import RunLedger

        path = str(tmp_path / "run.worldlog")
        with WorldLog.create(path, run_id="r") as log:
            ledger = RunLedger(
                run_id="r", worker_id=1, sink=log.record_event
            )
            ledger.emit("counter", "cache.hits", value=2, cell_id="c")
        (record,) = [
            record
            for record in read_worldlog(path)
            if record.kind == "ledger.event"
        ]
        assert record.cell_id == "c"
        assert record.worker_id == 1
        (event,) = ledger.events
        assert json.dumps(record.payload) == event.to_json()


class TestReadRecordsUnification:
    """Every reader shares one parsing path (``read_records``).

    The regression this pins: a log truncated mid-record (the
    write-through appender's one legal crash shape) must yield the
    *identical* record list from every entry point — the raw parser,
    the header-validating loader, a resumed store, the replay cursor
    and the semantic differ.
    """

    def _torn_log(self, tmp_path):
        path = str(tmp_path / "run.worldlog")
        with WorldLog.create(path, run_id="r") as log:
            log.append("checkpoint", {"rounds": 1})
            log.append("checkpoint", {"label": "x"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"tick": 3, "kind": "cell.resu')  # torn tail
        return path

    def test_every_entry_point_sees_the_same_records(self, tmp_path):
        from repro.worldlog import (
            ReplayCursor,
            diff_logs,
            read_records,
            replay_state,
        )

        path = self._torn_log(tmp_path)
        parsed = read_records(path)
        assert [record.tick for record in parsed] == [0, 1, 2]

        assert read_worldlog(path) == parsed

        resumed = WorldLog.resume(path)
        try:
            assert resumed.records == parsed
        finally:
            resumed.close()

        cursor = ReplayCursor(read_worldlog(path))
        cursor.seek(10**9)
        assert cursor.position == len(parsed)
        assert cursor.state == replay_state(parsed)

        report = diff_logs(read_worldlog(path), parsed)
        assert report.ok

    def test_read_records_skips_header_validation(self, tmp_path):
        """``read_records`` parses; ``read_worldlog`` validates."""
        from repro.worldlog import read_records

        path = tmp_path / "headless.worldlog"
        record = Record(tick=0, kind="checkpoint", payload={})
        path.write_text(record.to_json() + "\n")
        assert read_records(str(path)) == [record]
        with pytest.raises(ArtifactError):
            read_worldlog(str(path))


class TestLogTailer:
    """The incremental reader behind ``log tail --follow`` and ``top``."""

    def test_polls_see_only_newly_appended_records(self, tmp_path):
        from repro.worldlog import LogTailer

        path = str(tmp_path / "run.worldlog")
        log = WorldLog.create(path, run_id="r")
        tailer = LogTailer(path)
        first = tailer.poll()
        assert [record.kind for record in first] == ["log.open"]
        assert tailer.poll() == []  # nothing new
        log.append("checkpoint", {"label": "x"})
        log.append("checkpoint", {"label": "y"})
        batch = [record.payload["label"] for record in tailer.poll()]
        assert batch == ["x", "y"]
        assert tailer.poll() == []
        log.close()

    def test_torn_tail_buffered_until_the_line_completes(self, tmp_path):
        from repro.worldlog import LogTailer

        path = str(tmp_path / "run.worldlog")
        WorldLog.create(path, run_id="r").close()
        tailer = LogTailer(path)
        tailer.poll()
        record = Record(tick=1, kind="checkpoint", payload={"a": 1})
        line = record.to_json() + "\n"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[:10])  # mid-write: no newline yet
        assert tailer.poll() == []  # buffered, not parsed
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[10:])
        assert tailer.poll() == [record]

    def test_writer_resume_does_not_duplicate_records(self, tmp_path):
        from repro.worldlog import LogTailer

        path = str(tmp_path / "run.worldlog")
        with WorldLog.create(path, run_id="r") as log:
            log.append("checkpoint", {"label": "x"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"tick": 2, "kind": "cell.re')  # killed writer
        tailer = LogTailer(path)
        seen = tailer.poll()
        assert len(seen) == 2  # header + point; torn tail buffered
        # Resume rewrites the file (drops the torn tail), shrinking it
        # below the tailer's offset, then appends a fresh record.
        with WorldLog.resume(path) as log:
            log.append("checkpoint", {"label": "y"})
        fresh = tailer.poll()
        assert [record.payload for record in fresh] == [{"label": "y"}]

    def test_malformed_complete_line_raises_with_location(self, tmp_path):
        from repro.worldlog import LogTailer

        path = str(tmp_path / "run.worldlog")
        WorldLog.create(path, run_id="r").close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        tailer = LogTailer(path)
        with pytest.raises(ArtifactError) as excinfo:
            tailer.poll()
        assert f"{path}:2: not a world-log record" in str(excinfo.value)

    def test_missing_file_polls_empty(self, tmp_path):
        from repro.worldlog import LogTailer

        tailer = LogTailer(str(tmp_path / "not-yet.worldlog"))
        assert tailer.poll() == []

    def test_cold_tail_poll_returns_every_record(self, tmp_path):
        from repro.worldlog import LogTailer

        path = str(tmp_path / "tail.worldlog")
        with WorldLog.create(path, run_id="recorded") as log:
            for index in range(2048):
                log.append("checkpoint", {"i": index})
        records = LogTailer(path).poll()
        assert len(records) == 2048 + 1  # + the log.open header
