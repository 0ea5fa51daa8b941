"""Job-server tests: lifecycle, idempotency, quotas, crash-resume.

The crash test is the service's acceptance gate: a ``repro serve``
process is SIGKILLed after at least one terminal record hit the disk
but with jobs still queued; a fresh server on the same log must finish
every accepted job with values, certificates and ledger order
signatures bit-identical to an uninterrupted run's — and must write
exactly one terminal record per accepted key.

Sockets live under a short ``/tmp`` directory, not ``tmp_path``: unix
socket paths are capped around 100 bytes and pytest's tmp dirs blow
through that.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.obs.ledger import order_signature
from repro.parallel.jobs import AttackJob, ClassifyJob, MeasureJob
from repro.service import (
    JobServer,
    QuotaPolicy,
    ServiceClient,
    ServiceError,
)
from repro.worldlog.codec import decode_job_result, encode_job
from repro.worldlog.store import read_worldlog

# One certified+ledgered attack (certificate bytes and event order must
# survive the crash), one plain attack, one classify, and a slow
# measure tail that keeps the queue non-empty at kill time.
def _matrix():
    return [
        AttackJob("silent", 8, 4, certify=True, ledger=True),
        AttackJob("ring-token", 12, 8),
        ClassifyJob("weak", 5, 1),
        MeasureJob("weak-consensus", 56, 52),
    ]


@pytest.fixture
def paths():
    scratch = tempfile.mkdtemp(prefix="rsvc", dir="/tmp")
    try:
        yield (
            os.path.join(scratch, "s.sock"),
            os.path.join(scratch, "log.worldlog"),
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _start(log_path, sock_path, **kwargs):
    server = JobServer(
        log_path=log_path, socket_path=sock_path, **kwargs
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    assert server.ready.wait(timeout=30), "server never became ready"
    return server, thread


def _stop(server, thread):
    server.request_shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive(), "server did not shut down"


def _drain(client, keys):
    """Watch every key to its terminal frame."""
    for key in keys:
        frames = list(client.watch(key))
        assert frames[-1].get("final"), f"{key} never went terminal"


def _terminals(log_path):
    """key -> decoded JobResult (or error payload) per terminal record."""
    results = {}
    errors = {}
    for record in read_worldlog(log_path):
        if record.kind == "job.result":
            results[record.payload["key"]] = decode_job_result(
                record.payload["result"]
            )
        elif record.kind == "job.error":
            errors[record.payload["key"]] = record.payload
    return results, errors


def _hold(monkeypatch, blocker):
    """Keep ``blocker`` in the worker until the returned event is set.

    Under ``jobs=1`` the server runs ``execute_job`` in-process, so the
    job waits on the event instead of on how long it takes to run:
    the jobs queued behind it stay queued however loaded the machine.
    """
    from repro.service import server as server_module

    release = threading.Event()
    execute = server_module.execute_job

    def held(job):
        if job == blocker:
            assert release.wait(timeout=120), "blocker never released"
        return execute(job)

    monkeypatch.setattr(server_module, "execute_job", held)
    return release


def _submit_matrix(client, tenant="suite"):
    return [
        client.submit(encode_job(job), tenant=tenant)["key"]
        for job in _matrix()
    ]


class TestLifecycle:
    def test_submit_runs_and_records_exactly_one_terminal(self, paths):
        sock, log = paths
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=120)
        keys = _submit_matrix(client)
        assert len(set(keys)) == len(keys)
        _drain(client, keys)
        _stop(server, thread)
        records = read_worldlog(log)
        terminal_keys = [
            record.payload["key"]
            for record in records
            if record.kind in ("job.result", "job.error")
        ]
        assert sorted(terminal_keys) == sorted(keys)

    def test_submit_wait_streams_to_the_terminal_frame(self, paths):
        sock, log = paths
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=120)
        frames = list(
            client.submit_wait(encode_job(ClassifyJob("weak", 5, 1)))
        )
        _stop(server, thread)
        assert frames[0]["state"] == "queued"
        assert frames[-1]["final"] is True
        assert frames[-1]["record"]["kind"] == "job.result"

    def test_job_records_carry_the_job_label_cell_id(self, paths):
        sock, log = paths
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=120)
        key = client.submit(
            encode_job(ClassifyJob("weak", 5, 1))
        )["key"]
        _drain(client, [key])
        _stop(server, thread)
        cell_ids = {
            record.cell_id
            for record in read_worldlog(log)
            if record.kind.startswith("job.")
        }
        assert cell_ids == {f"job/classify/weak/n5/t1#{key[:8]}"}

    def test_priorities_order_the_queue(self, paths, monkeypatch):
        sock, log = paths
        blocker_job = MeasureJob("weak-consensus", 8, 4)
        release = _hold(monkeypatch, blocker_job)
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=120)
        try:
            # Occupy the single worker, then queue low before high.
            blocker = client.submit(encode_job(blocker_job))["key"]
            low = client.submit(
                encode_job(ClassifyJob("weak", 5, 1)), priority=0
            )["key"]
            high = client.submit(
                encode_job(ClassifyJob("strong", 5, 1)), priority=9
            )["key"]
        finally:
            release.set()
        _drain(client, [blocker, low, high])
        _stop(server, thread)
        starts = [
            record.payload["key"]
            for record in read_worldlog(log)
            if record.kind == "job.start"
        ]
        assert starts == [blocker, high, low]

    def test_failed_job_writes_a_structured_error_record(self, paths):
        sock, log = paths
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=120)
        # The builder name passes decode but fails at run time.
        key = client.submit(
            encode_job(AttackJob("silent", 8, 4))
            | {"builder": "no-such-builder"}
        )["key"]
        frames = list(client.watch(key))
        _stop(server, thread)
        record = frames[-1]["record"]
        assert record["kind"] == "job.error"
        assert record["payload"]["error_kind"] == "exception"
        assert "no-such-builder" in record["payload"]["message"]

    def test_watch_unknown_key_is_rejected(self, paths):
        sock, log = paths
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=30)
        with pytest.raises(ServiceError) as excinfo:
            list(client.watch("feedfacedeadbeef"))
        _stop(server, thread)
        assert excinfo.value.kind == "unknown-key"

    def test_garbage_frame_gets_a_protocol_error(self, paths):
        sock, log = paths
        server, thread = _start(log, sock)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(30)
            raw.connect(sock)
            raw.sendall(b"definitely not json\n")
            response = raw.makefile("rb").readline()
        _stop(server, thread)
        assert b'"kind": "protocol"' in response

    @pytest.mark.parametrize(
        "field, literal",
        [
            ("priority", '"x"'),
            ("priority", "null"),
            ("priority", "[1]"),
            ("priority", "1e400"),
            ("priority", "true"),
            ("tenant", "5"),
            ("tenant", "null"),
            ("wait", '"yes"'),
            ("wait", "1"),
        ],
    )
    def test_mistyped_submit_field_gets_a_bad_job_error(
        self, paths, field, literal
    ):
        """A mistyped ``tenant``/``priority``/``wait`` is answered with
        one ``bad-job`` frame and queues nothing; the connection is
        never dropped without a reply."""
        sock, log = paths
        server, thread = _start(log, sock)
        job = json.dumps(encode_job(AttackJob("silent", 8, 4)))
        frame = f'{{"op": "submit", "{field}": {literal}, "job": {job}}}\n'
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(30)
            raw.connect(sock)
            raw.sendall(frame.encode("utf-8"))
            response = raw.makefile("rb").readline()
        alive = ServiceClient(sock, timeout=30).ping()
        _stop(server, thread)
        error = json.loads(response)["error"]
        assert error["kind"] == "bad-job"
        assert field in error["message"]
        assert alive["ok"]
        assert not [
            record
            for record in read_worldlog(log)
            if record.kind == "job.submitted"
        ]


class TestFrames:
    def test_terminal_frames_keep_the_record_line_bytes(self, paths):
        """A streamed terminal frame and the cached ``--wait`` reply carry
        the record exactly as the log line renders it, byte for byte."""
        from repro.service.protocol import encode_frame

        sock, log = paths
        server, thread = _start(log, sock)
        job = json.dumps(
            encode_job(AttackJob("silent", 8, 4, certify=True))
        )
        frame = f'{{"op": "submit", "wait": true, "job": {job}}}\n'
        replies = []
        for _ in range(2):  # run, then the cached resubmission
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(120)
                raw.connect(sock)
                raw.sendall(frame.encode("utf-8"))
                replies.append(raw.makefile("rb").readlines())
        _stop(server, thread)
        (terminal,) = [
            record
            for record in read_worldlog(log)
            if record.kind == "job.result"
        ]
        key = terminal.payload["key"]
        recorded = json.loads(terminal.to_json())
        assert replies[0][-1] == encode_frame(
            {"ok": True, "key": key, "record": recorded, "final": True}
        )
        assert replies[1] == [
            encode_frame(
                {
                    "ok": True,
                    "key": key,
                    "state": "done",
                    "cached": True,
                    "final": True,
                    "record": recorded,
                }
            )
        ]


class TestDeadWorker:
    def test_a_dead_worker_costs_one_rerun_not_the_pool(
        self, paths, monkeypatch, tmp_path
    ):
        """A worker process that exits mid-job breaks the process pool.
        The server replaces the pool and re-runs the job once; only a
        job whose re-run dies too records ``broken-pool``, and later
        jobs run as usual."""
        from repro.experiments import CHEATERS

        died = tmp_path / "died"
        silent = CHEATERS["silent"]

        def dies_once(n, t):
            if not died.exists():
                died.touch()
                os._exit(1)
            return silent(n, t)

        def always_dies(n, t):
            os._exit(1)

        # Forked workers inherit the patched registry.
        monkeypatch.setitem(CHEATERS, "silent", dies_once)
        monkeypatch.setitem(CHEATERS, "leader-echo", always_dies)
        sock, log = paths
        server, thread = _start(log, sock, jobs=2)
        client = ServiceClient(sock, timeout=120)
        keys = []
        for job in (
            AttackJob("leader-echo", 8, 4),
            AttackJob("silent", 8, 4),
            ClassifyJob("weak", 5, 1),
        ):
            keys.append(client.submit(encode_job(job))["key"])
            _drain(client, keys[-1:])
        _stop(server, thread)
        dead, once, later = keys
        results, errors = _terminals(log)
        assert sorted(errors) == [dead]
        assert errors[dead]["error_kind"] == "broken-pool"
        assert "BrokenProcessPool" in errors[dead]["message"]
        assert results[once].value.found_violation
        assert results[later].value.problem == "weak"
        starts = [
            record.payload["key"]
            for record in read_worldlog(log)
            if record.kind == "job.start"
        ]
        assert starts == keys  # a re-run is not a second attempt record


class TestOneFailurePath:
    def test_a_failing_job_records_one_error_for_any_pool(self, paths):
        """A job's exception becomes its ``job.error`` where it ran:
        the in-process (``jobs=1``) and process-pool (``jobs=2``)
        servers record the same failure."""
        sock, log = paths
        # Admission decodes the job; its builder rejects t >= n.
        spec = encode_job(MeasureJob("dolev-strong", 2, 2))
        recorded = []
        for jobs in (1, 2):
            sock_path, log_path = f"{sock}{jobs}", f"{log}{jobs}"
            server, thread = _start(log_path, sock_path, jobs=jobs)
            client = ServiceClient(sock_path, timeout=120)
            key = client.submit(spec)["key"]
            _drain(client, [key])
            _stop(server, thread)
            _, errors = _terminals(log_path)
            recorded.append(errors[key])
        inline, pooled = recorded
        assert inline["error_kind"] == "exception"
        assert inline["message"].startswith("ValueError: need 0 <= t < n")
        for field in ("error_kind", "message", "detail"):
            assert inline[field] == pooled[field], field


class TestIdempotency:
    def test_resubmitting_a_done_key_runs_nothing(self, paths):
        sock, log = paths
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=120)
        spec = encode_job(AttackJob("silent", 8, 4))
        key = client.submit(spec)["key"]
        _drain(client, [key])
        ticks_before = len(read_worldlog(log))
        response = client.submit(spec)
        assert response == {
            "ok": True,
            "key": key,
            "state": "done",
            "cached": True,
        }
        _stop(server, thread)
        # Zero new records: no re-acceptance, no re-execution.
        assert len(read_worldlog(log)) == ticks_before

    def test_resubmitting_an_in_flight_key_joins_it(
        self, paths, monkeypatch
    ):
        sock, log = paths
        held_job = MeasureJob("weak-consensus", 40, 36)
        release = _hold(monkeypatch, held_job)
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=120)
        spec = encode_job(held_job)
        try:
            key = client.submit(spec)["key"]
            joined = client.submit(spec)
        finally:
            release.set()
        assert joined["key"] == key
        assert joined["cached"] is True
        assert joined["state"] in ("queued", "running")
        _drain(client, [key])
        _stop(server, thread)
        submitted = [
            record
            for record in read_worldlog(log)
            if record.kind == "job.submitted"
        ]
        assert len(submitted) == 1

    def test_idempotent_resubmission_is_not_rate_charged(self, paths):
        sock, log = paths
        server, thread = _start(
            log, sock, quota=QuotaPolicy(rate=0.001, burst=1)
        )
        client = ServiceClient(sock, timeout=120)
        spec = encode_job(ClassifyJob("weak", 5, 1))
        key = client.submit(spec)["key"]  # spends the only token
        _drain(client, [key])
        for _ in range(3):  # replays bypass admission entirely
            assert client.submit(spec)["cached"] is True
        _stop(server, thread)


class TestQuotas:
    def test_pending_quota_rejects_with_reason(self, paths, monkeypatch):
        sock, log = paths
        held_job = MeasureJob("weak-consensus", 40, 36)
        release = _hold(monkeypatch, held_job)
        server, thread = _start(
            log,
            sock,
            quota=QuotaPolicy(max_pending=1, rate=1000.0, burst=1000),
        )
        client = ServiceClient(sock, timeout=120)
        try:
            first = client.submit(encode_job(held_job), tenant="alice")[
                "key"
            ]
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    encode_job(ClassifyJob("weak", 5, 1)), tenant="alice"
                )
        finally:
            release.set()
        assert excinfo.value.kind == "quota"
        assert "tenant alice has 1 pending jobs (max 1)" in str(
            excinfo.value
        )
        # Another tenant is unaffected.
        other = client.submit(
            encode_job(ClassifyJob("weak", 5, 1)), tenant="bob"
        )["key"]
        _drain(client, [first, other])
        _stop(server, thread)

    def test_rate_limit_rejects_with_reason(self, paths):
        sock, log = paths
        server, thread = _start(
            log, sock, quota=QuotaPolicy(rate=0.001, burst=1)
        )
        client = ServiceClient(sock, timeout=120)
        key = client.submit(
            encode_job(ClassifyJob("weak", 5, 1)), tenant="alice"
        )["key"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(
                encode_job(ClassifyJob("strong", 5, 1)), tenant="alice"
            )
        assert excinfo.value.kind == "rate"
        assert "rate limit: tenant alice" in str(excinfo.value)
        _drain(client, [key])
        _stop(server, thread)

    def test_rejected_submission_records_only_the_rejection(self, paths):
        """A rejection enters no queue but is recorded for accounting.

        The ``job.rejected`` record is pure observability (``repro log
        stats`` counts rejections per tenant): no ``job.submitted``, no
        quota charge, invisible to recovery and the jobs manifest.
        """
        from repro.worldlog.replay import log_stats
        from repro.worldlog.views import jobs_manifest

        sock, log = paths
        server, thread = _start(
            log, sock, quota=QuotaPolicy(max_pending=0)
        )
        client = ServiceClient(sock, timeout=30)
        with pytest.raises(ServiceError):
            client.submit(encode_job(ClassifyJob("weak", 5, 1)))
        _stop(server, thread)
        records = read_worldlog(log)
        assert [r.kind for r in records] == ["log.open", "job.rejected"]
        rejection = records[-1].payload
        assert rejection["tenant"] == "default"
        assert rejection["kind"] == "quota"
        # Invisible to the queue views, visible to post-hoc stats.
        assert jobs_manifest(records)["jobs"] == []
        stats = log_stats(records)
        assert stats["tenants"]["default"]["rejected"] == {"quota": 1}


def _serve_subprocess(log_path, sock_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            sock_path,
            "--log",
            log_path,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_socket(sock_path, child, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert child.poll() is None, "serve subprocess died early"
        if os.path.exists(sock_path):
            try:
                ServiceClient(sock_path, timeout=5).ping()
                return
            except OSError:
                pass
        time.sleep(0.05)
    pytest.fail("serve subprocess never started listening")


class TestCrashResume:
    def test_sigkilled_server_resumes_bit_identical(self, paths):
        sock, log = paths
        child = _serve_subprocess(log, sock)
        try:
            _wait_for_socket(sock, child)
            client = ServiceClient(sock, timeout=30)
            keys = _submit_matrix(client)
            # Wait for the first terminal record, then kill -9.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                with open(log, encoding="utf-8") as handle:
                    if '"kind": "job.result"' in handle.read():
                        break
                time.sleep(0.01)
            else:  # pragma: no cover - diagnostics for a hung child
                pytest.fail("no terminal record appeared in 120s")
        finally:
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            child.wait(timeout=60)

        results_before, errors_before = _terminals(log)
        assert results_before, "the kill came before any terminal"
        assert len(results_before) < len(keys), (
            "the kill came too late: nothing left queued"
        )

        # A fresh server on the same log finishes the queue.
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=300)
        _drain(client, keys)
        _stop(server, thread)

        # Uninterrupted baseline: same submissions, fresh log.
        base_sock = sock + "b"
        base_log = log + ".baseline"
        baseline_server, baseline_thread = _start(base_log, base_sock)
        baseline_client = ServiceClient(base_sock, timeout=300)
        baseline_keys = _submit_matrix(baseline_client)
        assert baseline_keys == keys  # specs hash identically
        _drain(baseline_client, baseline_keys)
        _stop(baseline_server, baseline_thread)

        resumed, resumed_errors = _terminals(log)
        baseline, baseline_errors = _terminals(base_log)
        assert resumed_errors == baseline_errors == {}
        assert sorted(resumed) == sorted(baseline) == sorted(keys)
        for key in keys:
            # Outcome values, certificate bytes and event order are
            # bit-identical; wall clocks are telemetry and excluded.
            assert resumed[key].value == baseline[key].value
            assert (
                resumed[key].certificate == baseline[key].certificate
            )
            assert order_signature(
                resumed[key].events or ()
            ) == order_signature(baseline[key].events or ())

        # Exactly one terminal record per accepted key, even across
        # the restart.
        terminal_keys = [
            record.payload["key"]
            for record in read_worldlog(log)
            if record.kind in ("job.result", "job.error")
        ]
        assert sorted(terminal_keys) == sorted(keys)

        # The recorded results survived in the log before the resume:
        # the resumed server replayed them, it did not re-run them.
        for key, result in results_before.items():
            assert resumed[key].wall_seconds == result.wall_seconds

    def test_restart_answers_completed_keys_without_rerunning(
        self, paths
    ):
        sock, log = paths
        spec = encode_job(ClassifyJob("weak", 5, 1))
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=120)
        key = client.submit(spec)["key"]
        _drain(client, [key])
        _stop(server, thread)

        ticks_before = len(read_worldlog(log))
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=30)
        response = client.submit(spec)
        assert response["state"] == "done"
        assert response["cached"] is True
        _stop(server, thread)
        assert len(read_worldlog(log)) == ticks_before


class TestRestartOrder:
    def test_restart_starts_jobs_in_the_order_of_a_fresh_queue(
        self, paths, monkeypatch
    ):
        from repro.service.protocol import job_key
        from repro.worldlog.store import WorldLog

        sock, log = paths
        died = encode_job(ClassifyJob("weak", 5, 1))
        waiting = encode_job(ClassifyJob("strong", 5, 1))
        held_job = MeasureJob("weak-consensus", 8, 4)
        urgent = encode_job(held_job)
        # The server died mid-run on the first job; a job of the same
        # priority waited behind it, a more urgent one came in later.
        with WorldLog.create(log) as crashed:
            for spec, priority in ((died, 0), (waiting, 0), (urgent, 5)):
                crashed.append(
                    "job.submitted",
                    {
                        "key": job_key(spec),
                        "tenant": "t",
                        "priority": priority,
                        "job": spec,
                    },
                )
            crashed.append("job.start", {"key": job_key(died)})
        recorded = len(read_worldlog(log))
        release = _hold(monkeypatch, held_job)
        server, thread = _start(log, sock, jobs=1)
        client = ServiceClient(sock, timeout=120)
        try:
            # Submitted while the urgent job holds the only worker:
            # new jobs queue behind every recovered one of their
            # priority.
            late_low = client.submit(
                encode_job(ClassifyJob("weak", 6, 1)), priority=0
            )["key"]
            late_high = client.submit(
                encode_job(ClassifyJob("strong", 6, 1)), priority=5
            )["key"]
        finally:
            release.set()
        keys = [job_key(spec) for spec in (died, waiting, urgent)]
        _drain(client, keys + [late_low, late_high])
        _stop(server, thread)
        starts = [
            record.payload["key"]
            for record in read_worldlog(log)[recorded:]
            if record.kind == "job.start"
        ]
        assert starts == [
            job_key(urgent), late_high, job_key(died), job_key(waiting),
            late_low,
        ]


class TestCountersMatchTheLog:
    """``ping`` and ``status`` count what a fresh fold of the log says."""

    @staticmethod
    def _expected(log):
        from repro.worldlog.replay import replay_state

        fold = replay_state(read_worldlog(log))
        entries = list(fold.jobs.values())
        queued = [entry for entry in entries if entry["state"] == "queued"]
        pending = [
            entry
            for entry in entries
            if entry["state"] in ("queued", "running")
        ]
        by_priority = {}
        for entry in sorted(queued, key=lambda e: -e["priority"]):
            name = str(entry["priority"])
            by_priority[name] = by_priority.get(name, 0) + 1
        by_tenant = {}
        for entry in pending:
            by_tenant[entry["tenant"]] = by_tenant.get(entry["tenant"], 0) + 1
        return {
            "queued": len(queued),
            "pending": len(pending),
            "completed": len(fold.terminals),
            "by_priority": by_priority,
            "by_tenant": by_tenant,
        }

    @staticmethod
    def _observed(client):
        ping = client.ping()
        status = client.status()
        assert status["jobs"]["queued"] == status["queue"]["depth"]
        return {
            "queued": ping["queued"],
            "pending": ping["pending"],
            "completed": ping["completed"],
            "by_priority": status["queue"]["by_priority"],
            "by_tenant": {
                tenant: row["pending"]
                for tenant, row in status["tenants"].items()
                if row["pending"]
            },
        }, status

    def test_ping_and_status_equal_a_fresh_fold(self, paths, monkeypatch):
        sock, log = paths
        blocker_job = MeasureJob("weak-consensus", 8, 4)
        release = _hold(monkeypatch, blocker_job)
        server, thread = _start(
            log, sock, jobs=1,
            quota=QuotaPolicy(max_pending=2, rate=1000.0, burst=1000),
        )
        client = ServiceClient(sock, timeout=120)
        try:
            done_spec = encode_job(ClassifyJob("weak", 5, 1))
            done = client.submit(done_spec, tenant="bob")["key"]
            failed = client.submit(
                encode_job(AttackJob("silent", 8, 4))
                | {"builder": "no-such-builder"},
                tenant="bob",
            )["key"]
            _drain(client, [done, failed])
            assert client.submit(done_spec, tenant="bob")["cached"]
            blocker = client.submit(
                encode_job(blocker_job), tenant="alice"
            )["key"]
            queued = [
                client.submit(
                    encode_job(ClassifyJob("weak", 6, 1)), tenant="alice"
                )["key"],
                client.submit(
                    encode_job(ClassifyJob("strong", 6, 1)),
                    tenant="bob", priority=4,
                )["key"],
            ]
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    encode_job(ClassifyJob("strong", 5, 1)), tenant="alice"
                )
            assert excinfo.value.kind == "quota"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.status()["workers"]["busy"] == 1:
                    break
                time.sleep(0.02)
            held, status = self._observed(client)
            assert held == self._expected(log)
            assert held["queued"] == 2 and held["pending"] == 3
            assert held["by_tenant"] == {"alice": 2, "bob": 1}
            assert status["tenants"]["alice"]["quota_occupancy"] == 1.0
        finally:
            release.set()
        _drain(client, [blocker] + queued)
        drained, status = self._observed(client)
        _stop(server, thread)
        assert drained == self._expected(log)
        assert drained["completed"] == 5
        assert status["queue"] == {"depth": 0, "by_priority": {}}
        assert all(row["pending"] == 0 for row in status["tenants"].values())


class TestJobsReply:
    """The live ``jobs`` reply is the log's manifest, with one rule for
    jobs a restart re-queues."""

    def test_drained_reply_is_the_logs_manifest(self, paths):
        from repro.worldlog.views import jobs_manifest

        sock, log = paths
        server, thread = _start(log, sock)
        client = ServiceClient(sock, timeout=120)
        keys = [
            client.submit(encode_job(job))["key"]
            for job in (ClassifyJob("weak", 5, 1), AttackJob("silent", 8, 4))
        ]
        keys.append(
            client.submit(
                encode_job(AttackJob("silent", 8, 4))
                | {"builder": "no-such-builder"},
                tenant="other",
                priority=3,
            )["key"]
        )
        _drain(client, keys)
        reply = client.jobs()
        _stop(server, thread)
        manifest = jobs_manifest(read_worldlog(log))
        assert [entry["state"] for entry in manifest["jobs"]] == [
            "done", "done", "failed",
        ]
        assert reply["schema"] == manifest["schema"]
        assert reply["jobs"] == manifest["jobs"]

    def test_recovered_jobs_read_queued_until_they_restart(
        self, paths, monkeypatch
    ):
        from repro.service.protocol import job_key
        from repro.worldlog.store import WorldLog

        sock, log = paths
        held_job = MeasureJob("weak-consensus", 8, 4)
        second_job = ClassifyJob("weak", 5, 1)
        specs = [encode_job(held_job), encode_job(second_job)]
        keys = [job_key(spec) for spec in specs]
        # Both jobs were accepted and started, and the server died
        # before either wrote a terminal record.
        with WorldLog.create(log) as crashed:
            for key, spec in zip(keys, specs):
                crashed.append(
                    "job.submitted",
                    {"key": key, "tenant": "t", "priority": 0, "job": spec},
                )
            for key in keys:
                crashed.append("job.start", {"key": key})
        release = _hold(monkeypatch, held_job)
        server, thread = _start(log, sock, jobs=1)
        client = ServiceClient(sock, timeout=120)
        try:
            states = {
                entry["key"]: entry["state"]
                for entry in client.jobs()["jobs"]
            }
            joined = client.submit(specs[1], tenant="t")
        finally:
            release.set()
        _drain(client, keys)
        _stop(server, thread)
        assert states[keys[1]] == "queued"
        assert joined == {
            "ok": True, "key": keys[1], "state": "queued", "cached": True,
        }


class TestStatus:
    """The ``status`` RPC: the live fold behind ``repro status``/``top``."""

    def test_idle_server_reports_empty_fold(self, paths):
        sock, log = paths
        server, thread = _start(log, sock, jobs=2)
        client = ServiceClient(sock, timeout=30)
        frame = client.status()
        _stop(server, thread)
        assert frame["ok"] is True
        assert frame["workers"] == {
            "total": 2, "busy": 0, "utilization": 0.0,
        }
        assert frame["queue"] == {"depth": 0, "by_priority": {}}
        assert frame["tenants"] == {}
        assert frame["jobs"] == {
            "queued": 0, "running": [], "completed": 0,
        }

    def test_queue_tenants_and_running_jobs(self, paths, monkeypatch):
        sock, log = paths
        blocker_job = MeasureJob("weak-consensus", 8, 4)
        release = _hold(monkeypatch, blocker_job)
        server, thread = _start(
            log, sock, jobs=1,
            quota=QuotaPolicy(max_pending=4, rate=1000.0, burst=1000),
        )
        client = ServiceClient(sock, timeout=120)
        try:
            # The held blocker occupies the single worker; two
            # classifies queue behind it at different priorities.
            blocker = client.submit(
                encode_job(blocker_job), tenant="alice",
            )["key"]
            client.submit(
                encode_job(ClassifyJob("weak", 5, 1)),
                tenant="bob", priority=0,
            )
            client.submit(
                encode_job(ClassifyJob("weak", 6, 1)),
                tenant="bob", priority=7,
            )
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                frame = client.status()
                if frame["workers"]["busy"] == 1:
                    break
                time.sleep(0.02)
            assert frame["workers"]["busy"] == 1
            assert frame["workers"]["utilization"] == 1.0
            assert frame["queue"]["depth"] == 2
            # JSON stringifies int priority keys on the wire.
            assert frame["queue"]["by_priority"] == {"7": 1, "0": 1}
            alice = frame["tenants"]["alice"]
            assert alice["pending"] == 1
            assert alice["max_pending"] == 4
            assert alice["quota_occupancy"] == 0.25
            assert frame["tenants"]["bob"]["pending"] == 2
            assert frame["tenants"]["bob"]["quota_occupancy"] == 0.5
            (running,) = frame["jobs"]["running"]
            assert running["key"] == blocker
            assert running["tenant"] == "alice"
            assert running["priority"] == 0
            assert running["seconds"] >= 0
        finally:
            release.set()
        # Drain and confirm the fold settles.
        keys = [blocker] + [
            entry["key"]
            for entry in client.jobs()["jobs"]
            if entry["key"] != blocker
        ]
        _drain(client, keys)
        settled = client.status()
        _stop(server, thread)
        assert settled["workers"]["busy"] == 0
        assert settled["jobs"]["completed"] == 3
        assert settled["queue"]["depth"] == 0
