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
        assert "run ledger written" in captured.err
        assert "run ledger written" not in captured.out
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
        from repro.obs.ledger import read_events

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
        events = read_events(path)
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
        from repro.obs.ledger import read_events

        path = str(tmp_path / "run.jsonl")
        argv = ["attack", "silent", "--n", "8", "--t", "4"]
        assert main([*argv, "--profile", "--ledger", path]) == 0
        err = capsys.readouterr().err
        events = read_events(path)
        rounds = [e for e in events if e.name == "engine.round"]
        assert f"rounds simulated: {len(rounds)};" in err


class TestWitnessFiles:
    def test_save_and_verify_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "witness.json")
        assert (
            main(
                [
                    "attack",
                    "leader-echo",
                    "--n",
                    "12",
                    "--t",
                    "8",
                    "--save",
                    path,
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "verify-witness",
                    path,
                    "leader-echo",
                    "--n",
                    "12",
                    "--t",
                    "8",
                ]
            )
            == 0
        )
        assert "VERIFIED" in capsys.readouterr().out

    def test_verify_against_wrong_protocol_rejected(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "witness.json")
        main(
            [
                "attack",
                "leader-echo",
                "--n",
                "12",
                "--t",
                "8",
                "--save",
                path,
            ]
        )
        assert (
            main(
                ["verify-witness", path, "silent", "--n", "12", "--t", "8"]
            )
            == 1
        )
        # Rejection details are diagnostics: stderr, not stdout.
        assert "REJECTED" in capsys.readouterr().err


class TestRetiredCommands:
    """The benchmark observatory and the trend canary are gone."""

    @pytest.mark.parametrize(
        "argv", [["bench", "list"], ["report", "--trend"]]
    )
    def test_parser_rejects_them(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_does_not_list_them(self):
        help_text = build_parser().format_help()
        assert "bench" not in help_text
        assert "report" not in help_text


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
        assert {"log.open", "ledger.event", "checkpoint"} <= kinds

    def test_log_show_lists_records(self, tmp_path, capsys):
        log_path = self._attack_into_worldlog(tmp_path)
        capsys.readouterr()
        assert main(["log", "show", log_path]) == 0
        out = capsys.readouterr().out
        assert "record(s)" in out
        assert "checkpoint" in out
        assert (
            main(["log", "show", log_path, "--kind", "checkpoint"]) == 0
        )
        filtered = capsys.readouterr().out
        assert "ledger.event" not in filtered

    def test_log_derive_writes_views(self, tmp_path, capsys):
        log_path = self._attack_into_worldlog(tmp_path)
        capsys.readouterr()
        out_dir = str(tmp_path / "views")
        assert main(["log", "derive", log_path, "--out", out_dir]) == 0
        import os

        assert os.path.exists(os.path.join(out_dir, "ledger.jsonl"))
        assert os.path.exists(os.path.join(out_dir, "checkpoints.json"))

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

    def test_quota_rejection_is_a_domain_failure(self, service, capsys):
        sock, _ = service
        # max_pending=1: a slow measure occupies the tenant's only slot.
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

    GOLDEN = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "worldlog",
        "golden",
        "run.worldlog",
    )

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


class TestObservabilityCommands:
    """PR 10 surface: interval validation, tail/top/status, exports."""

    GOLDEN = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "worldlog",
        "golden",
        "run.worldlog",
    )

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
    # uniform interval validation (exit 1, one-line diagnostic)
    # ------------------------------------------------------------------

    @pytest.mark.parametrize(
        "argv",
        [
            ["log", "tail", "x.worldlog", "--interval", "0"],
            ["top", "--log", "x.worldlog", "--interval", "-1"],
            ["top", "--log", "x.worldlog", "--interval", "abc"],
        ],
    )
    def test_nonpositive_intervals_are_domain_errors(
        self, argv, capsys
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error: --interval expects a positive number" in err

    def test_telemetry_interval_shares_the_diagnostic(
        self, tmp_path, capsys
    ):
        code = main(
            ["attack", "silent", "--n", "8", "--t", "4",
             "--ledger", str(tmp_path / "r.worldlog"),
             "--telemetry-interval", "abc"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert (
            "error: --telemetry-interval expects a positive number"
            in err
        )

    def test_telemetry_without_a_worldlog_ledger_is_refused(
        self, capsys
    ):
        code = main(
            ["attack", "silent", "--n", "8", "--t", "4", "--telemetry"]
        )
        assert code == 1
        assert "pass --ledger PATH.worldlog" in capsys.readouterr().err

    # ------------------------------------------------------------------
    # telemetry recording end to end
    # ------------------------------------------------------------------

    def test_attack_telemetry_records_snapshots(self, tmp_path, capsys):
        log_path = self._attack_into_worldlog(
            tmp_path, "--telemetry", "--telemetry-interval", "0.001"
        )
        capsys.readouterr()
        from repro.worldlog import read_worldlog

        snaps = [
            record
            for record in read_worldlog(log_path)
            if record.kind == "telemetry.snapshot"
        ]
        assert snaps
        assert snaps[-1].payload["source"] == "attack"

    # ------------------------------------------------------------------
    # log tail
    # ------------------------------------------------------------------

    def test_log_tail_prints_record_lines(self, tmp_path, capsys):
        log_path = self._attack_into_worldlog(tmp_path)
        capsys.readouterr()
        assert main(["log", "tail", log_path]) == 0
        out = capsys.readouterr().out
        assert "log.open" in out
        assert "checkpoint" in out

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
        log_path = self._attack_into_worldlog(
            tmp_path, "--telemetry", "--telemetry-interval", "0.001"
        )
        capsys.readouterr()
        assert main(["top", "--log", log_path, "--once"]) == 0
        captured = capsys.readouterr()
        # Dashboard frames are diagnostics: stderr, never stdout.
        assert captured.out == ""
        assert "record(s)" in captured.err
        assert "telemetry" in captured.err
        assert "rounds" in captured.err

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
