"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_subcommands_registered(self):
        parser = build_parser()
        for experiment in ("e1", "e5", "e9", "all"):
            args = parser.parse_args([experiment])
            assert args.command == experiment

    def test_attack_arguments(self):
        args = build_parser().parse_args(
            ["attack", "silent", "--n", "20", "--t", "12"]
        )
        assert args.protocol == "silent"
        assert (args.n, args.t) == (20, 12)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_experiment_runs(self, capsys):
        assert main(["e6"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 5" in out

    def test_attack_cheater_exits_zero_on_break(self, capsys):
        assert main(["attack", "silent", "--n", "12", "--t", "8"]) == 0
        assert "VIOLATION" in capsys.readouterr().out

    def test_attack_correct_exits_zero_on_survival(self, capsys):
        assert main(["attack", "correct", "--n", "8", "--t", "4"]) == 0
        assert "no violation" in capsys.readouterr().out

    def test_attack_log_flag(self, capsys):
        assert (
            main(["attack", "silent", "--n", "12", "--t", "8", "--log"])
            == 0
        )
        captured = capsys.readouterr()
        assert "VIOLATION" in captured.out
        # The pipeline narrative is a diagnostic: stderr only.
        assert "Lemma" in captured.err
        assert "Lemma" not in captured.out

    def test_classify(self, capsys):
        assert main(["classify", "strong", "--n", "4", "--t", "2"]) == 0
        out = capsys.readouterr().out
        assert "CC=N" in out

    def test_attack_naive_flooding_expects_no_violation(self, capsys):
        assert (
            main(["attack", "naive-flooding", "--n", "12", "--t", "8"])
            == 0
        )
        assert "no violation" in capsys.readouterr().out


class TestLedgerCommands:
    def test_attack_ledger_then_trace(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert (
            main(
                [
                    "attack",
                    "ring-token",
                    "--n",
                    "12",
                    "--t",
                    "8",
                    "--ledger",
                    path,
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        # Any suffix records a world log.
        assert "world log written" in captured.err
        assert "world log written" not in captured.out
        assert main(["trace", path]) == 0
        trace = capsys.readouterr().out
        assert "phase tree" in trace
        assert "fault-free" in trace
        assert "messages / (t²/32)" in trace
        assert "cache hit rate" in trace

    def test_trace_missing_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["trace", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_corrupt_file_exits_two(self, tmp_path, capsys):
        corrupt = tmp_path / "garbage.jsonl"
        corrupt.write_text("this is not a ledger\n")
        assert main(["trace", str(corrupt)]) == 2
        captured = capsys.readouterr()
        # One diagnostic line naming file and line, no traceback.
        assert "error:" in captured.err
        assert "garbage.jsonl:1" in captured.err
        assert captured.out == ""

    def test_sweep_ledger_records_measure_cells(
        self, tmp_path, capsys
    ):
        from repro.worldlog import read_worldlog
        from repro.worldlog.views import ledger_events

        path = str(tmp_path / "sweep.jsonl")
        assert (
            main(
                [
                    "sweep",
                    "weak-consensus",
                    "--max-t",
                    "4",
                    "--ledger",
                    path,
                ]
            )
            == 0
        )
        capsys.readouterr()
        events = ledger_events(read_worldlog(path))
        names = {event.name for event in events}
        assert "measure.worst_messages" in names
        assert "cell.wall_seconds" in names

    def test_profile_table_goes_to_stderr(self, capsys):
        argv = ["attack", "silent", "--n", "12", "--t", "8"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--profile"]) == 0
        profiled = capsys.readouterr()
        # The profile is the trace view: phases, rounds, slowest rounds.
        assert "phase tree" in profiled.err
        assert "isolation-scan" in profiled.err
        assert "slowest" in profiled.err
        assert "phase tree" not in profiled.out
        assert profiled.out == plain.out

    def test_profile_reuses_the_ledger(self, tmp_path, capsys):
        from repro.worldlog import read_worldlog
        from repro.worldlog.views import ledger_events

        path = str(tmp_path / "run.jsonl")
        argv = ["attack", "silent", "--n", "8", "--t", "4"]
        assert main([*argv, "--profile", "--ledger", path]) == 0
        err = capsys.readouterr().err
        events = ledger_events(read_worldlog(path))
        rounds = [e for e in events if e.name == "engine.round"]
        assert f"rounds simulated: {len(rounds)};" in err


class TestWitnessFiles:
    """A violation witness is saved as a certificate: ``certify`` writes
    it and ``verify-cert --replay`` re-checks it against the code."""

    def test_save_and_verify_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "witness.cert.json")
        argv = ["certify", "leader-echo", "--n", "12", "--t", "8"]
        assert main(argv + ["--out", path]) == 0
        capsys.readouterr()
        assert main(["verify-cert", path, "--replay", "leader-echo"]) == 0
        assert "VERIFIED (structural+replay" in capsys.readouterr().out

    def test_verify_against_wrong_protocol_rejected(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "witness.cert.json")
        argv = ["certify", "leader-echo", "--n", "12", "--t", "8"]
        assert main(argv + ["--out", path]) == 0
        capsys.readouterr()
        assert main(["verify-cert", path, "--replay", "silent"]) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert "A.1.5.transition-replay" in out

    def test_certify_matrix_writes_every_e3_certificate(
        self, tmp_path, capsys
    ):
        """``certify matrix`` writes E3's certified cells, one file
        per cell, and every file passes the standalone verifier."""
        from repro.certify.verifier import verify_certificate

        out = tmp_path / "certs"
        assert main(["certify", "matrix", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"15 certificate(s) in {out}/, each independently verified\n"
        )
        written = sorted(out.iterdir())
        assert len(written) == 15
        for path in written:
            assert path.name.endswith(".cert.json")
            assert verify_certificate(path.read_bytes()).ok, path.name


GOLDEN_LOG = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "worldlog",
    "golden",
    "run.worldlog",
)
BAD_SIZES = [("3", "5"), ("4", "4"), ("0", "0"), ("4", "-1")]


class TestUsageErrors:
    """Options that cannot describe a run fail at parse time: exit 2
    with the subcommand's usage line, before anything runs."""

    def _rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize("n, t", BAD_SIZES)
    def test_attack_rejects_system_size(self, n, t, capsys):
        err = self._rejected(["attack", "silent", "--n", n, "--t", t], capsys)
        assert "repro attack: error: need n >= 1 and 0 <= t < n" in err

    @pytest.mark.parametrize("n, t", BAD_SIZES)
    def test_certify_rejects_system_size(self, n, t, capsys, tmp_path):
        out = tmp_path / "c.json"
        err = self._rejected(
            ["certify", "silent", "--n", n, "--t", t, "--out", str(out)],
            capsys,
        )
        assert "repro certify: error: need n >= 1 and 0 <= t < n" in err
        assert not out.exists()

    @pytest.mark.parametrize("n, t", BAD_SIZES)
    def test_classify_rejects_system_size(self, n, t, capsys):
        err = self._rejected(["classify", "weak", "--n", n, "--t", t], capsys)
        assert "repro classify: error: need n >= 1 and 0 <= t < n" in err

    @pytest.mark.parametrize("n, t", BAD_SIZES)
    def test_submit_rejects_system_size(self, n, t, capsys, tmp_path):
        # The socket does not exist: the check runs before any connect.
        err = self._rejected(
            [
                "submit", "--socket", str(tmp_path / "none.sock"),
                "attack", "silent", "--n", n, "--t", t,
            ],
            capsys,
        )
        assert "repro submit: error: need n >= 1 and 0 <= t < n" in err

    @pytest.mark.parametrize(
        "grid, max_t", [("slack", "2"), ("slack", "0"), ("proportional", "1")]
    )
    def test_sweep_rejects_a_max_t_with_no_cells(self, grid, max_t, capsys):
        err = self._rejected(
            ["sweep", "weak-consensus", "--grid", grid, "--max-t", max_t],
            capsys,
        )
        assert f"the {grid} grid has no cells with t <= {max_t}" in err

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["log", "show", GOLDEN_LOG, "--tail", "-2"], "repro log show"),
            (["log", "show", GOLDEN_LOG, "--tail", "two"], "repro log show"),
            (["trace", GOLDEN_LOG, "--slowest", "-1"], "repro trace"),
        ],
        ids=["tail-negative", "tail-word", "slowest-negative"],
    )
    def test_counts_reject_negatives(self, argv, usage, capsys):
        # Python slices from the end on a negative count: `--tail -2`
        # would print every record, `--slowest -1` all rounds but one.
        err = self._rejected(argv, capsys)
        assert f"{usage}: error: argument" in err
        assert "expected a non-negative integer" in err


    @pytest.mark.parametrize(
        "option, value, expected",
        [
            ("--max-pending", "-3", "a positive integer"),
            ("--max-pending", "0", "a positive integer"),
            ("--burst", "0", "a positive integer"),
            ("--burst", "2.5", "a positive integer"),
            ("--rate", "nan", "a positive finite number"),
            ("--rate", "inf", "a positive finite number"),
            ("--rate", "0", "a positive finite number"),
            ("--rate", "-1", "a positive finite number"),
            ("--rate", "fast", "a positive finite number"),
        ],
    )
    def test_serve_quota_options_reject_unusable_values(
        self, option, value, expected, capsys
    ):
        # Unusable paths: a parser that let the value through fails on
        # them instead of serving.
        err = self._rejected(
            [
                "serve", "--socket", "/dev/null/s.sock",
                "--log", "/dev/null/missing.worldlog", option, value,
            ],
            capsys,
        )
        assert f"repro serve: error: argument {option}" in err
        assert f"expected {expected}, got {value!r}" in err

    @pytest.mark.parametrize("value", ["nan", "0", "-5", "inf"])
    def test_stall_after_rejects_unusable_values(self, value, capsys):
        # The slack grid has no cells with t <= 2: a parser that let
        # the value through fails on that instead of sweeping.
        err = self._rejected(
            [
                "sweep", "silent", "--grid", "slack", "--max-t", "2",
                "--stall-after", value,
            ],
            capsys,
        )
        assert "repro sweep: error: argument --stall-after" in err
        assert f"expected a positive finite number, got {value!r}" in err

    def test_quota_options_accept_usable_values(self):
        args = build_parser().parse_args(
            [
                "serve", "--socket", "s.sock", "--log", "l.worldlog",
                "--max-pending", "1", "--burst", "1", "--rate", "0.5",
            ]
        )
        assert (args.max_pending, args.burst, args.rate) == (1, 1, 0.5)


class TestRetiredCommands:
    """The benchmark observatory, the trend canary, ``log import``
    (world logs are the one recording format) and the saved-witness
    file format (certificates are the one violation artifact) are
    gone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "list"],
            ["report", "--trend"],
            ["log", "import", "run.jsonl", "--out", "x.worldlog"],
            ["verify-witness", "w.json", "silent"],
        ],
    )
    def test_parser_rejects_them(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_attack_save_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["attack", "silent", "--save", "w.json"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_does_not_list_them(self):
        help_text = build_parser().format_help()
        assert "bench" not in help_text
        assert "report" not in help_text
        assert "verify-witness" not in help_text


class TestSweepProgress:
    def test_jobs_sweep_keeps_stdout_machine_readable(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "silent",
                    "--max-t",
                    "4",
                    "--jobs",
                    "2",
                    "--progress",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        # The live status line is stderr-only.
        assert "cells" in captured.err
        assert "cells" not in captured.out
        assert "protocol" in captured.out  # the results table

    def test_no_progress_flag_silences_the_line(self, capsys):
        assert (
            main(
                ["sweep", "silent", "--max-t", "4", "--no-progress"]
            )
            == 0
        )
        assert "cells" not in capsys.readouterr().err


class TestWorldLogCommands:
    def _attack_into_worldlog(self, tmp_path):
        log_path = str(tmp_path / "run.worldlog")
        assert (
            main(
                [
                    "attack",
                    "silent",
                    "--n",
                    "8",
                    "--t",
                    "4",
                    "--ledger",
                    log_path,
                ]
            )
            == 0
        )
        return log_path

    def test_ledger_worldlog_shim_records(self, tmp_path, capsys):
        log_path = self._attack_into_worldlog(tmp_path)
        captured = capsys.readouterr()
        assert "world log written" in captured.err
        from repro.worldlog import read_worldlog

        kinds = {record.kind for record in read_worldlog(log_path)}
        assert {"log.open", "ledger.event"} <= kinds
        # The retired checkpoint kind is no longer written.
        assert "checkpoint" not in kinds

    def test_log_show_lists_records(self, tmp_path, capsys):
        log_path = self._attack_into_worldlog(tmp_path)
        capsys.readouterr()
        assert main(["log", "show", log_path]) == 0
        out = capsys.readouterr().out
        assert "record(s)" in out
        assert "ledger.event" in out
        assert "checkpoint" not in out
        assert main(["log", "show", log_path, "--kind", "log.open"]) == 0
        filtered = capsys.readouterr().out
        assert "log.open" in filtered
        assert "ledger.event" not in filtered

    def test_log_derive_writes_views(self, tmp_path, capsys):
        log_path = self._attack_into_worldlog(tmp_path)
        capsys.readouterr()
        out_dir = str(tmp_path / "views")
        assert main(["log", "derive", log_path, "--out", out_dir]) == 0
        import os

        assert os.path.exists(os.path.join(out_dir, "ledger.jsonl"))
        assert not os.path.exists(os.path.join(out_dir, "checkpoints.json"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["log", "show", "{path}"],
            ["log", "tail", "{path}"],
            ["log", "diff", "{path}", "{path}"],
            ["log", "stats", "{path}"],
            ["log", "derive", "{path}", "--out", "{out}"],
            ["jobs", "--log", "{path}"],
            ["trace", "{path}"],
            ["metrics", "export", "{path}"],
        ],
        ids=lambda argv: "-".join(
            arg for arg in argv if not arg.startswith(("{", "-"))
        ),
    )
    def test_non_utf8_log_exits_two_with_file_line(
        self, tmp_path, capsys, argv
    ):
        """Bytes that are not UTF-8 are a malformed record, not a crash."""
        path = tmp_path / "bin.worldlog"
        path.write_bytes(b"\xff\xfe\x00garbage\n")
        out = str(tmp_path / "views")
        argv = [arg.format(path=path, out=out) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: not a world-log record (UnicodeDecodeError" in err
        assert "Traceback" not in err

    def test_trace_sniffs_a_world_log(self, tmp_path, capsys):
        log_path = self._attack_into_worldlog(tmp_path)
        capsys.readouterr()
        assert main(["trace", log_path]) == 0
        assert "phase tree" in capsys.readouterr().out

    def test_sweep_resume_conflicts_with_ledger(self, tmp_path, capsys):
        log_path = str(tmp_path / "run.worldlog")
        code = main(
            [
                "sweep",
                "silent",
                "--max-t",
                "4",
                "--resume",
                log_path,
                "--ledger",
                log_path,
            ]
        )
        # ReproError: a domain refusal, not an environment failure.
        assert code == 1


class TestJobsOption:
    """Every ``--jobs`` takes one positive-integer type: usage, exit 2."""

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "silent"],
            ["e3"],
            ["e7"],
            ["all"],
            ["certify", "matrix"],
            # Unusable paths: a parser that let the value through fails
            # on them instead of serving or writing anything.
            ["log", "resume", "/dev/null/missing.worldlog"],
            ["serve", "--socket", "/dev/null/s.sock",
             "--log", "/dev/null/missing.worldlog"],
        ],
        ids=["sweep", "e3", "e7", "all", "certify", "log-resume", "serve"],
    )
    def test_non_positive_jobs_is_a_usage_error(self, argv, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--jobs", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"expected a positive integer, got {value!r}" in err
        assert "Traceback" not in err


class TestResumeDiagnostics:
    """A tampered ``job.*`` record is a ``path:line`` diagnostic, exit 2."""

    @pytest.fixture
    def sweep_log(self, tmp_path):
        log_path = str(tmp_path / "sweep.worldlog")
        assert main(["sweep", "silent", "--grid", "proportional",
                     "--max-t", "4", "--ledger", log_path]) == 0
        return log_path

    @staticmethod
    def _tamper(path, kind, mutate):
        """Apply ``mutate`` to the first ``kind`` payload; its line."""
        import json

        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for number, line in enumerate(lines, start=1):
            record = json.loads(line)
            if record["kind"] == kind:
                mutate(record["payload"])
                lines[number - 1] = json.dumps(record)
                break
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return number

    TAMPERS = {
        "submitted-without-tenant": (
            "job.submitted", lambda payload: payload.pop("tenant")
        ),
        "spec-without-builder": (
            "job.submitted", lambda payload: payload["job"].pop("builder")
        ),
        "undecodable-result": (
            "job.result",
            lambda payload: payload["result"].update(value={"kind": "?"}),
        ),
    }

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_log_resume(self, sweep_log, tamper, capsys):
        line = self._tamper(sweep_log, *self.TAMPERS[tamper])
        capsys.readouterr()
        assert main(["log", "resume", sweep_log]) == 2
        err = capsys.readouterr().err
        assert f"{sweep_log}:{line}: not a job." in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "tamper", ["submitted-without-tenant", "undecodable-result"]
    )
    def test_sweep_resume(self, sweep_log, tamper, capsys):
        line = self._tamper(sweep_log, *self.TAMPERS[tamper])
        capsys.readouterr()
        code = main(["sweep", "silent", "--grid", "proportional",
                     "--max-t", "4", "--resume", sweep_log])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sweep_log}:{line}: not a job." in err

    @pytest.mark.parametrize(
        "tamper", ["submitted-without-tenant", "spec-without-builder"]
    )
    def test_serve_on_a_tampered_log(self, sweep_log, tamper, capsys):
        import shutil
        import tempfile

        line = self._tamper(sweep_log, *self.TAMPERS[tamper])
        scratch = tempfile.mkdtemp(prefix="rcli", dir="/tmp")
        try:
            code = main(["serve", "--socket",
                         os.path.join(scratch, "s.sock"),
                         "--log", sweep_log])
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sweep_log}:{line}: not a job.submitted record" in err

    def test_log_without_jobs_exits_one(self, tmp_path, capsys):
        from repro.worldlog import WorldLog

        log_path = str(tmp_path / "empty.worldlog")
        WorldLog.create(log_path, run_id="r").close()
        assert main(["log", "resume", log_path]) == 1
        assert "records no jobs" in capsys.readouterr().err


class TestServiceCommands:
    """Exit-code and diagnostic pinning for serve/submit/jobs/watch."""

    @pytest.fixture
    def service(self):
        """A live in-thread job server on a short /tmp socket path."""
        import os
        import shutil
        import tempfile
        import threading

        from repro.service import JobServer, QuotaPolicy

        scratch = tempfile.mkdtemp(prefix="rcli", dir="/tmp")
        sock = os.path.join(scratch, "s.sock")
        log = os.path.join(scratch, "log.worldlog")
        server = JobServer(
            log_path=log,
            socket_path=sock,
            quota=QuotaPolicy(max_pending=1, rate=1000.0, burst=1000),
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        assert server.ready.wait(timeout=30)
        try:
            yield sock, log
        finally:
            server.request_shutdown()
            thread.join(timeout=60)
            shutil.rmtree(scratch, ignore_errors=True)

    def test_submit_wait_prints_the_verdict(self, service, capsys):
        sock, _ = service
        code = main(
            [
                "submit",
                "--socket",
                sock,
                "classify",
                "weak",
                "--n",
                "5",
                "--t",
                "1",
                "--wait",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # The verdict is the result: stdout.  Progress is diagnostic:
        # stderr.
        assert "weak n=5 t=1" in captured.out
        assert "job.start" in captured.err
        assert "job.start" not in captured.out

    def test_submit_then_jobs_and_watch(self, service, capsys):
        sock, log = service
        assert (
            main(
                [
                    "submit",
                    "--socket",
                    sock,
                    "classify",
                    "weak",
                    "--n",
                    "5",
                    "--t",
                    "1",
                ]
            )
            == 0
        )
        key = capsys.readouterr().out.split()[0]
        assert len(key) == 16
        assert main(["watch", "--socket", sock, key]) == 0
        capsys.readouterr()
        assert main(["jobs", "--socket", sock]) == 0
        out = capsys.readouterr().out
        assert key in out
        assert "classify/weak/n5/t1" in out

    def test_resubmission_is_cached(self, service, capsys):
        sock, _ = service
        spec = [
            "submit",
            "--socket",
            sock,
            "classify",
            "weak",
            "--n",
            "5",
            "--t",
            "1",
            "--wait",
        ]
        assert main(spec) == 0
        capsys.readouterr()
        assert main(spec[:-1]) == 0  # same spec, no --wait
        assert "(cached)" in capsys.readouterr().out

    def test_quota_rejection_is_a_domain_failure(
        self, service, capsys, monkeypatch
    ):
        import threading

        from repro.parallel.jobs import MeasureJob
        from repro.service import server as server_module

        sock, _ = service
        # max_pending=1: a held measure occupies the tenant's only slot
        # however fast the machine runs it.
        release = threading.Event()
        execute = server_module.execute_job

        def held(job):
            if isinstance(job, MeasureJob):
                assert release.wait(timeout=120), "measure never released"
            return execute(job)

        monkeypatch.setattr(server_module, "execute_job", held)
        try:
            self._quota_rejection(sock, capsys)
        finally:
            release.set()

    def _quota_rejection(self, sock, capsys):
        assert (
            main(
                [
                    "submit",
                    "--socket",
                    sock,
                    "measure",
                    "weak-consensus",
                    "--n",
                    "40",
                    "--t",
                    "36",
                    "--tenant",
                    "alice",
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "submit",
                "--socket",
                sock,
                "classify",
                "weak",
                "--n",
                "5",
                "--t",
                "1",
                "--tenant",
                "alice",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert (
            "error: quota: tenant alice has 1 pending jobs (max 1)"
            in captured.err
        )
        assert captured.out == ""

    def test_unknown_builder_fails_fast_client_side(
        self, service, capsys
    ):
        sock, _ = service
        code = main(
            [
                "submit",
                "--socket",
                sock,
                "attack",
                "no-such-cheater",
                "--n",
                "8",
                "--t",
                "4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown spec builder 'no-such-cheater'" in captured.err

    def test_certify_on_classify_is_rejected(self, service, capsys):
        sock, _ = service
        code = main(
            [
                "submit",
                "--socket",
                sock,
                "classify",
                "weak",
                "--n",
                "5",
                "--t",
                "1",
                "--certify",
            ]
        )
        assert code == 1
        assert (
            "--certify applies to attack jobs only"
            in capsys.readouterr().err
        )

    def test_missing_socket_is_an_environment_failure(self, capsys):
        code = main(
            [
                "submit",
                "--socket",
                "/tmp/no-such-service.sock",
                "classify",
                "weak",
                "--n",
                "5",
                "--t",
                "1",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_jobs_offline_reads_the_log(self, service, capsys):
        sock, log = service
        spec = [
            "submit",
            "--socket",
            sock,
            "classify",
            "weak",
            "--n",
            "5",
            "--t",
            "1",
            "--wait",
        ]
        assert main(spec) == 0
        capsys.readouterr()
        assert main(["jobs", "--log", log]) == 0
        assert "classify/weak/n5/t1" in capsys.readouterr().out

    def test_jobs_offline_rejects_a_non_log_uniformly(
        self, tmp_path, capsys
    ):
        bogus = tmp_path / "not-a-log.worldlog"
        bogus.write_text("definitely not a record\n")
        assert main(["jobs", "--log", str(bogus)]) == 2
        err = capsys.readouterr().err
        # The shared repro.artifact file:line diagnostic, verbatim.
        assert f"error: {bogus}:1: not a world-log record" in err


class TestTimeTravelCommands:
    """``log show`` filters and the ``replay``/``diff``/``stats`` trio."""

    GOLDEN = GOLDEN_LOG

    def test_log_show_filters_and_tail(self, capsys):
        assert (
            main(
                [
                    "log", "show", self.GOLDEN,
                    "--kind", "ledger.event",
                    "--run", "golden",
                    "--tail", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # Header plus exactly the last two surviving records.
        body = [line for line in out.splitlines()[1:] if line.strip()]
        assert len(body) == 2
        assert all("ledger.event" in line for line in body)

    def test_log_show_cell_filter(self, capsys):
        assert (
            main(["log", "show", self.GOLDEN, "--cell", "no-such-cell"])
            == 0
        )
        out = capsys.readouterr().out
        assert len([ln for ln in out.splitlines()[1:] if ln.strip()]) == 0

    def test_log_replay_one_shot(self, capsys):
        assert main(["log", "replay", self.GOLDEN, "--at", "20"]) == 0
        out = capsys.readouterr().out
        assert "tick 20" in out
        assert "21/37 record(s) applied" in out
        assert "open spans:" in out

    def test_log_replay_stdin_script(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("next 3\nstate\nprev 2\nseek 36\nstate\nquit\n"),
        )
        assert main(["log", "replay", self.GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "log.open" in out  # the first stepped record line
        assert "at tick 36" in out
        assert "37/37 record(s) applied" in out

    def test_log_diff_empty_exits_zero(self, capsys):
        assert main(["log", "diff", self.GOLDEN, self.GOLDEN]) == 0
        assert "semantically identical" in capsys.readouterr().out

    def test_log_diff_divergence_exits_one(self, tmp_path, capsys):
        import json

        mutated = tmp_path / "mutated.worldlog"
        with open(self.GOLDEN, encoding="utf-8") as handle:
            lines = handle.readlines()
        raw = json.loads(lines[20])
        raw["payload"]["name"] = "not-the-same-event"
        lines[20] = json.dumps(raw) + "\n"
        mutated.write_text("".join(lines))
        assert main(["log", "diff", self.GOLDEN, str(mutated)]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out
        assert "not-the-same-event" in out

    def test_log_diff_missing_file_exits_two(self, capsys):
        assert main(["log", "diff", self.GOLDEN, "no-such.worldlog"]) == 2

    def test_log_stats_prints_trend_shaped_json(self, capsys):
        import json

        assert main(["log", "stats", self.GOLDEN]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.logstats/v1"
        assert document["label"] == "log/golden"
        for key in (
            "wall_seconds",
            "rounds_simulated",
            "messages_observed",
            "events",
            "cache_hit_rate",
            "spans",
            "percentiles",
        ):
            assert key in document


class TestParseInterval:
    """The one ``--interval`` validator: the argument type of ``top`` and
    ``log tail``."""

    def test_accepts_positive_numbers(self):
        from repro.cli import _interval

        assert _interval("2.5") == 2.5
        assert _interval("3") == 3.0
        assert _interval("0.001") == 0.001

    @pytest.mark.parametrize(
        "bad", ["0", "-1", "abc", "nan", "", None, float("nan")]
    )
    def test_rejects_nonpositive_and_unparsable(self, bad):
        import argparse

        from repro.cli import _interval

        # The value as typed on a command line.
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            _interval(str(bad))
        assert "expected a positive finite number" in str(excinfo.value)

    @pytest.mark.parametrize("huge", ["inf", "1e10", "9223372037"])
    def test_rejects_what_sleep_cannot_wait(self, huge):
        import argparse
        import threading

        from repro.cli import _interval

        with pytest.raises(argparse.ArgumentTypeError):
            _interval(huge)
        assert _interval(str(threading.TIMEOUT_MAX)) == threading.TIMEOUT_MAX

    def test_default_interval_is_valid(self):
        parser = build_parser()
        for argv in (["top", "--log", "x"], ["log", "tail", "x"]):
            assert parser.parse_args(argv).interval > 0


class TestLogReaderDiagnostics:
    """Every log reader shares one payload shape check at read time."""

    READERS = {
        "log-replay": ["log", "replay", "{log}", "--at", "5"],
        "log-stats": ["log", "stats", "{log}"],
        "log-derive": ["log", "derive", "{log}", "--out", "{out}"],
        "jobs": ["jobs", "--log", "{log}"],
        "trace": ["trace", "{log}"],
        "metrics-export": ["metrics", "export", "{log}"],
        "top": ["top", "--log", "{log}", "--once"],
    }

    @staticmethod
    def _log_with(tmp_path, kind, payload):
        """A ``log.open`` header followed by one raw record line."""
        import json

        from repro.worldlog import WorldLog

        path = str(tmp_path / "bad.worldlog")
        WorldLog.create(path, run_id="r").close()
        line = {"tick": 1, "kind": kind, "run_id": "r", "cell_id": None,
                "worker_id": 1, "payload": payload}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
        return path

    def _argv(self, reader, path, tmp_path):
        return [
            arg.format(log=path, out=str(tmp_path / "views"))
            for arg in self.READERS[reader]
        ]

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("job.submitted", {}),
            ("cert.artifact", []),
            ("ledger.event", 7),
            ("ledger.event",
             {"ts": 0.0, "kind": "counter", "name": "x", "value": "7"}),
        ],
    )
    def test_mis_shaped_payload_is_exit_2(
        self, tmp_path, capsys, reader, kind, payload
    ):
        path = self._log_with(tmp_path, kind, payload)
        assert main(self._argv(reader, path, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{path}:2: not a {kind} record" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_deeply_nested_line_is_exit_2(self, tmp_path, capsys, reader):
        """JSON nested past the recursion limit is a malformed record
        with ``path:line``, not an escaped ``RecursionError``."""
        path = str(tmp_path / "deep.worldlog")
        from repro.worldlog import WorldLog

        WorldLog.create(path, run_id="r").close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[" * 3000 + "\n")
        assert main(self._argv(reader, path, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{path}:2: not a world-log record (RecursionError" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["kind", "builder", "n", "t"])
    def test_recorded_spec_missing_a_field_is_exit_2(
        self, tmp_path, capsys, field
    ):
        """``jobs --log`` lists each recorded spec's fields; a sweep log
        whose first spec lost one exits 2 with ``path:line``."""
        import json

        path = str(tmp_path / "sweep.worldlog")
        argv = ["sweep", "silent", "--max-t", "4", "--ledger", path]
        assert main(argv) == 0
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        index = next(
            index for index, line in enumerate(lines)
            if json.loads(line)["kind"] == "job.submitted"
        )
        record = json.loads(lines[index])
        del record["payload"]["job"][field]
        lines[index] = json.dumps(record) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        capsys.readouterr()
        assert main(["jobs", "--log", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}:{index + 1}: not a job.submitted record" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_retired_snapshot_reads(self, tmp_path, capsys, reader):
        path = self._log_with(
            tmp_path, "telemetry.snapshot",
            {"schema": "repro.telemetry/v1", "seq": 0},
        )
        assert main(self._argv(reader, path, tmp_path)) == 0


class TestObservabilityCommands:
    """Interval validation, tail/top/status, exports."""

    GOLDEN = GOLDEN_LOG

    def _attack_into_worldlog(self, tmp_path, *extra):
        log_path = str(tmp_path / "run.worldlog")
        assert (
            main(
                ["attack", "silent", "--n", "8", "--t", "4",
                 "--ledger", log_path, *extra]
            )
            == 0
        )
        return log_path

    # ------------------------------------------------------------------
    # uniform interval validation (usage error: exit 2, one diagnostic)
    # ------------------------------------------------------------------

    @pytest.mark.parametrize(
        "argv",
        [
            ["log", "tail", "x.worldlog", "--interval", "0"],
            ["top", "--log", "x.worldlog", "--interval", "-1"],
            ["top", "--log", "x.worldlog", "--interval", "abc"],
            ["log", "tail", "x.worldlog", "--follow", "--interval", "inf"],
            ["top", "--log", "x.worldlog", "--interval", "1e10"],
        ],
    )
    def test_nonpositive_intervals_are_domain_errors(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (diagnostic,) = [line for line in err.splitlines() if "error:" in line]
        assert "error: argument --interval: expected" in diagnostic

    # ------------------------------------------------------------------
    # log tail
    # ------------------------------------------------------------------

    def test_log_tail_prints_record_lines(self, tmp_path, capsys):
        log_path = self._attack_into_worldlog(tmp_path)
        capsys.readouterr()
        assert main(["log", "tail", log_path]) == 0
        out = capsys.readouterr().out
        assert "log.open" in out
        assert "ledger.event" in out
        assert "checkpoint" not in out

    def test_log_tail_missing_file_is_an_environment_failure(
        self, tmp_path, capsys
    ):
        code = main(
            ["log", "tail", str(tmp_path / "missing.worldlog")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_log_tail_follow_stops_after_max_polls(
        self, tmp_path, capsys
    ):
        log_path = self._attack_into_worldlog(tmp_path)
        capsys.readouterr()
        code = main(
            ["log", "tail", log_path, "--follow",
             "--interval", "0.001", "--max-polls", "3"]
        )
        assert code == 0
        assert "log.open" in capsys.readouterr().out

    # ------------------------------------------------------------------
    # export adapters over the committed golden fixture
    # ------------------------------------------------------------------

    def test_metrics_export_prometheus(self, capsys):
        assert (
            main(["metrics", "export", self.GOLDEN, "--format", "prom"])
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_round_total counter" in out
        assert "repro_span_attack_seconds_count 1" in out

    def test_metrics_export_to_a_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "metrics.prom")
        assert (
            main(["metrics", "export", self.GOLDEN, "--out", out_path])
            == 0
        )
        captured = capsys.readouterr()
        assert "metrics exposition written to" in captured.err
        assert captured.out == ""
        with open(out_path, encoding="utf-8") as handle:
            assert "repro_engine_round_total" in handle.read()

    def test_trace_chrome_format(self, capsys):
        import json

        assert (
            main(["trace", self.GOLDEN, "--format", "chrome"]) == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["displayTimeUnit"] == "ms"
        assert any(
            entry["ph"] == "B" for entry in document["traceEvents"]
        )

    # ------------------------------------------------------------------
    # top / status
    # ------------------------------------------------------------------

    def test_top_log_mode_once_renders_to_stderr(
        self, tmp_path, capsys
    ):
        log_path = self._attack_into_worldlog(tmp_path)
        capsys.readouterr()
        assert main(["top", "--log", log_path, "--once"]) == 0
        captured = capsys.readouterr()
        # Dashboard frames are diagnostics: stderr, never stdout.
        assert captured.out == ""
        assert "record(s)" in captured.err
        # The replay fold's rounds line carries the t²/32 ratio.
        rounds = next(
            line for line in captured.err.splitlines()
            if line.startswith("rounds: ")
        )
        assert "vs t²/32 floor" in rounds

    def test_top_log_mode_once_counts_a_sweeps_jobs(
        self, tmp_path, capsys
    ):
        log_path = str(tmp_path / "sweep.worldlog")
        assert main(["sweep", "silent", "--grid", "proportional",
                     "--max-t", "4", "--ledger", log_path]) == 0
        capsys.readouterr()
        assert main(["top", "--log", log_path, "--once"]) == 0
        assert "jobs: 2 accepted, 0 pending" in capsys.readouterr().err

    def test_top_log_once_on_a_missing_file_is_exit_2(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing.worldlog")
        assert main(["top", "--log", missing, "--once"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "record(s)" not in captured.err

    @pytest.fixture
    def service(self):
        """A live in-thread job server on a short /tmp socket path."""
        import shutil
        import tempfile
        import threading

        from repro.service import JobServer

        scratch = tempfile.mkdtemp(prefix="rtop", dir="/tmp")
        sock = os.path.join(scratch, "s.sock")
        log = os.path.join(scratch, "log.worldlog")
        server = JobServer(log_path=log, socket_path=sock, jobs=2)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        assert server.ready.wait(timeout=30)
        try:
            yield sock, log
        finally:
            server.request_shutdown()
            thread.join(timeout=60)
            shutil.rmtree(scratch, ignore_errors=True)

    def test_status_renders_the_fold(self, service, capsys):
        sock, _ = service
        assert main(["status", "--socket", sock]) == 0
        out = capsys.readouterr().out
        assert "server run" in out
        assert "0/2 busy" in out

    def test_status_json_is_the_raw_frame(self, service, capsys):
        import json

        sock, _ = service
        assert main(["status", "--socket", sock, "--json"]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["ok"] is True
        assert frame["workers"]["total"] == 2

    def test_top_socket_mode_once(self, service, capsys):
        sock, _ = service
        assert main(["top", "--socket", sock, "--once"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0/2 busy" in captured.err

    def test_status_against_a_dead_socket_is_exit_2(self, capsys):
        code = main(
            ["status", "--socket", "/tmp/no-such-service.sock"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
