"""Cross-backend splice tests: serial and pooled ledgers agree on order.

The contract (see DESIGN.md "Observability"): the spliced sweep ledger's
``(kind, name, cell_id)`` sequence is identical whichever backend ran
the cells; timestamps, worker ids and run ids legitimately differ and
are excluded — like every other piece of telemetry — from outcome
equality.
"""

from repro.obs.ledger import RunLedger, order_signature
from repro.parallel.jobs import AttackJob, MeasureJob
from repro.parallel.scheduler import SweepScheduler


def _attack_matrix() -> list[AttackJob]:
    return [
        AttackJob("silent", 8, 4),
        AttackJob("ring-token", 12, 8),
        AttackJob("silent", 12, 8, certify=True),
    ]


class TestSpliceOrder:
    def test_serial_and_pooled_orders_identical(self):
        serial = RunLedger(run_id="serial")
        pooled = RunLedger(run_id="pooled")
        report_serial = SweepScheduler(jobs=1, ledger=serial).run(
            _attack_matrix()
        )
        report_pooled = SweepScheduler(jobs=4, ledger=pooled).run(
            _attack_matrix()
        )
        assert report_serial.ok and report_pooled.ok
        assert order_signature(serial.events) == order_signature(
            pooled.events
        )
        # Outcomes stay equal too — telemetry never leaks into them.
        assert [c.result.value for c in report_serial.cells] == [
            c.result.value for c in report_pooled.cells
        ]

    def test_spliced_events_carry_sweep_run_id(self):
        ledger = RunLedger(run_id="sweep-run")
        SweepScheduler(jobs=2, ledger=ledger).run(_attack_matrix())
        assert ledger.events
        assert all(
            event.run_id == "sweep-run" for event in ledger.events
        )

    def test_cell_segments_arrive_in_submission_order(self):
        ledger = RunLedger(run_id="r")
        SweepScheduler(jobs=4, ledger=ledger).run(_attack_matrix())
        cells_in_order = []
        for event in ledger.events:
            if event.cell_id and event.cell_id not in cells_in_order:
                cells_in_order.append(event.cell_id)
        assert cells_in_order == [
            "attack/silent/n8/t4",
            "attack/ring-token/n12/t8",
            "attack/silent/n12/t8",
        ]

    def test_gather_emits_cell_wall_and_certificate_events(self):
        ledger = RunLedger(run_id="r")
        SweepScheduler(jobs=1, ledger=ledger).run(_attack_matrix())
        walls = [
            e for e in ledger.events if e.name == "cell.wall_seconds"
        ]
        assert len(walls) == 3
        artifacts = [e for e in ledger.events if e.kind == "artifact"]
        assert [
            (a.cell_id, a.attr("verdict")) for a in artifacts
        ] == [("attack/silent/n12/t8", "ok")]

    def test_errored_cell_recorded_without_aborting_splice(self):
        jobs = [
            AttackJob("silent", 8, 4),
            AttackJob("no-such-builder", 8, 4),
        ]
        ledger = RunLedger(run_id="r")
        report = SweepScheduler(jobs=1, ledger=ledger).run(jobs)
        assert not report.ok
        errors = [e for e in ledger.events if e.name == "cell.error"]
        assert len(errors) == 1
        assert errors[0].cell_id == "attack/no-such-builder/n8/t4"
        assert errors[0].attr("error_kind") == "exception"

    def test_measure_jobs_splice_identically(self):
        jobs = [
            MeasureJob("weak-consensus", 4, 1),
            MeasureJob("dolev-strong", 4, 1),
        ]
        serial = RunLedger(run_id="s")
        pooled = RunLedger(run_id="p")
        SweepScheduler(jobs=1, ledger=serial).run(jobs)
        SweepScheduler(jobs=2, ledger=pooled).run(jobs)
        assert order_signature(serial.events) == order_signature(
            pooled.events
        )
        names = {event.name for event in serial.events}
        assert "measure.worst_messages" in names
        assert "measure.vs_floor" in names

    def test_without_ledger_jobs_stay_untraced(self):
        report = SweepScheduler(jobs=1).run([AttackJob("silent", 8, 4)])
        assert report.cells[0].result.events is None


class TestLifecycleEvents:
    """The per-cell start/done pair emitted at gather time."""

    def test_every_cell_bracketed_start_to_done(self):
        ledger = RunLedger(run_id="r")
        SweepScheduler(jobs=1, ledger=ledger).run(_attack_matrix())
        for cell_id in (
            "attack/silent/n8/t4",
            "attack/ring-token/n12/t8",
            "attack/silent/n12/t8",
        ):
            names = [
                e.name for e in ledger.events if e.cell_id == cell_id
            ]
            # start opens the cell's block, done closes it, and the
            # gather's wall gauge follows the shipped segment.  No
            # heartbeat count is emitted: it read 0 unless a progress
            # line ran, and the wall gauge already times the cell.
            assert names[0] == "cell.start"
            assert names[-1] == "cell.done"
            assert names.index("cell.wall_seconds") > names.index(
                "attack"
            )
            assert "cell.heartbeat" not in names

    def test_heartbeat_order_matches_serial_backend(self):
        # The acceptance criterion: a --jobs 2 sweep's spliced event
        # order (start/done included) equals the serial one.
        serial = RunLedger(run_id="s")
        pooled = RunLedger(run_id="p")
        SweepScheduler(jobs=1, ledger=serial).run(_attack_matrix())
        SweepScheduler(jobs=2, ledger=pooled).run(_attack_matrix())
        assert order_signature(serial.events) == order_signature(
            pooled.events
        )
        walls = [
            e for e in pooled.events if e.name == "cell.wall_seconds"
        ]
        assert len(walls) == 3
        assert not [
            e for e in pooled.events if e.name == "cell.heartbeat"
        ]

    def test_done_records_cell_status(self):
        jobs = [
            AttackJob("silent", 8, 4),
            AttackJob("no-such-builder", 8, 4),
        ]
        ledger = RunLedger(run_id="r")
        SweepScheduler(jobs=1, ledger=ledger).run(jobs)
        statuses = {
            e.cell_id: e.attr("status")
            for e in ledger.events
            if e.name == "cell.done"
        }
        assert statuses == {
            "attack/silent/n8/t4": "ok",
            "attack/no-such-builder/n8/t4": "error",
        }

    def test_progress_line_goes_to_the_injected_stream(self):
        import io

        stream = io.StringIO()
        scheduler = SweepScheduler(
            jobs=1,
            progress=True,
            heartbeat_interval=0.0,  # no monitor thread in tier-1
            progress_stream=stream,
        )
        report = scheduler.run([AttackJob("silent", 8, 4)])
        assert report.ok
        assert "1/1 cells" in stream.getvalue()
