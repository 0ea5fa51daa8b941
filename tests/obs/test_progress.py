"""Tests for the sweep progress tracker (fake clock, string stream).

No real threads or timers (but one): the tests drive
:meth:`SweepProgress.tick` and the clock by hand, so the status line,
ETA arithmetic and the stall flag are all deterministic.
"""

import io

from repro.obs.progress import (
    HeartbeatMonitor,
    SweepProgress,
    _format_seconds,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def _tracker(total, stall_after=30.0, stream=None):
    clock = FakeClock()
    progress = SweepProgress(
        total,
        stream=stream,
        stall_after=stall_after,
        clock=clock,
        label="sweep",
    )
    return progress, clock


class TestHeartbeats:
    def test_only_in_flight_cells_credited(self):
        # A tick repaints the line; the stall flag names only a cell
        # still in flight, never one that finished earlier.
        stream = io.StringIO()
        progress, clock = _tracker(3, stall_after=30.0, stream=stream)
        progress.start("a")
        progress.tick()
        clock.advance(1.0)
        progress.start("b")
        progress.tick()
        progress.note_done("a")
        clock.advance(31.0)
        progress.tick()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 4
        assert lines[-1].startswith("sweep: 1/3 cells")
        assert "longest in flight: b" in lines[-1]

    def test_started_cell_without_ticks_records_zero(self):
        # Starting a cell paints nothing; only ticks and completions do.
        stream = io.StringIO()
        progress, _ = _tracker(1, stream=stream)
        progress.start("a")
        assert stream.getvalue() == ""
        progress.note_done("a")
        assert stream.getvalue() == "sweep: 1/1 cells, elapsed 0s\n"

    def test_done_counter(self):
        stream = io.StringIO()
        progress, _ = _tracker(2, stream=stream)
        progress.start("a")
        progress.start("b")
        progress.tick()
        progress.note_done("a")
        progress.note_done("b")
        assert [line.split(",")[0] for line in stream.getvalue().split("\n")
                if line] == ["sweep: 0/2 cells", "sweep: 1/2 cells",
                             "sweep: 2/2 cells"]


class TestStatusLine:
    def test_line_shows_done_total_and_elapsed(self):
        stream = io.StringIO()
        progress, clock = _tracker(4, stream=stream)
        progress.start("a")
        clock.advance(5.0)
        progress.note_done("a")
        line = stream.getvalue()
        assert "sweep: 1/4 cells" in line
        assert "elapsed 5s" in line

    def test_eta_extrapolates_from_throughput(self):
        stream = io.StringIO()
        progress, clock = _tracker(4, stream=stream)
        progress.start("a")
        clock.advance(10.0)
        progress.note_done("a")
        # One cell in 10s leaves three cells: ETA 30s.
        assert "eta 30s" in stream.getvalue()
        assert "eta 30s" in progress._line()

    def test_no_eta_before_first_completion_or_after_last(self):
        progress, clock = _tracker(2)
        assert "eta " not in progress._line()
        progress.start("a")
        clock.advance(1.0)
        progress.note_done("a")
        assert "eta 1s" in progress._line()
        progress.note_done("b")
        assert "eta " not in progress._line()

    def test_null_stream_keeps_accounting(self):
        progress, _ = _tracker(2, stream=None)
        progress.start("a")
        progress.tick()
        progress.note_done("a")  # must not raise
        assert progress._line().startswith("sweep: 1/2 cells")

    def test_non_tty_stream_gets_full_lines(self):
        stream = io.StringIO()  # isatty() is False
        progress, _ = _tracker(1, stream=stream)
        progress.start("a")
        progress.note_done("a")
        assert stream.getvalue().endswith("\n")
        assert "\r" not in stream.getvalue()


class FakeTty(io.StringIO):
    def isatty(self):
        return True


class TestTtyLineClearing:
    """The narrow-terminal fix: erase the line, never pad over it.

    Padding to a fixed width wraps on terminals narrower than the pad
    and the wrapped fragment is never cleared — a stale heartbeat line
    was left above the final gather summary.  The TTY rewrite must use
    CSI 2K (erase whole line) after the carriage return instead.
    """

    def test_tty_rewrites_erase_the_previous_line(self):
        stream = FakeTty()
        progress, _ = _tracker(2, stream=stream)
        progress.start("a")
        progress.note_done("a")
        progress.note_done("b")
        chunks = stream.getvalue().split("\r")
        # Every rewrite starts with the erase-line control, and no
        # rewrite relies on trailing-space padding.
        assert chunks[0] == ""
        for chunk in chunks[1:]:
            assert chunk.startswith("\x1b[2K")
            assert not chunk.endswith(" ")

    def test_close_releases_the_terminal_with_a_newline(self):
        stream = FakeTty()
        progress, _ = _tracker(1, stream=stream)
        progress.start("a")
        progress.note_done("a")
        progress.close()
        assert stream.getvalue().endswith("\n")
        # Exactly one newline: the final release, nothing mid-stream.
        assert stream.getvalue().count("\n") == 1

    def test_non_tty_output_is_pinned_byte_exactly(self):
        # The non-TTY path (CI logs, piped stderr) is a stable contract:
        # one full plain-text line per event, no control characters.
        stream = io.StringIO()
        progress, clock = _tracker(2, stream=stream)
        progress.start("a")
        clock.advance(5.0)
        progress.note_done("a")
        clock.advance(5.0)
        progress.note_done("b")
        progress.close()
        assert stream.getvalue() == (
            "sweep: 1/2 cells, elapsed 5s, eta 5s\n"
            "sweep: 2/2 cells, elapsed 10s\n"
            "sweep: 2/2 cells, elapsed 10s\n"
        )


class TestStall:
    def test_quiet_period_raises_the_flag(self):
        stream = io.StringIO()
        progress, clock = _tracker(2, stall_after=30.0, stream=stream)
        progress.start("slow")
        progress.start("slower")
        progress.tick()
        assert "STALLED" not in stream.getvalue()
        clock.advance(31.0)
        progress.tick()
        line = stream.getvalue().splitlines()[-1]
        assert "STALLED 31s" in line
        # The longest-running in-flight cell is named.
        assert "longest in flight: slow" in line

    def test_completion_resets_the_quiet_period(self):
        stream = io.StringIO()
        progress, clock = _tracker(3, stall_after=30.0, stream=stream)
        progress.start("a")
        clock.advance(29.0)
        progress.note_done("a")
        clock.advance(2.0)
        progress.tick()
        assert "STALLED" not in stream.getvalue()
        clock.advance(29.0)
        progress.tick()
        assert "STALLED 31s" in stream.getvalue().splitlines()[-1]

    def test_finished_sweep_never_stalled(self):
        stream = io.StringIO()
        progress, clock = _tracker(1, stall_after=1.0, stream=stream)
        progress.start("a")
        progress.note_done("a")
        clock.advance(100.0)
        progress.tick()
        assert "STALLED" not in stream.getvalue()


class TestMonitor:
    def test_nonpositive_interval_disables_the_thread(self):
        progress, _ = _tracker(1)
        with HeartbeatMonitor(progress, interval=0.0) as monitor:
            assert monitor._thread is None

    def test_real_thread_ticks_and_joins(self):
        # The one test with a real (tiny-interval) thread: liveness
        # only — how many lines it paints is not asserted.
        stream = io.StringIO()
        progress = SweepProgress(1, stream=stream, stall_after=60.0)
        progress.start("a")
        with HeartbeatMonitor(progress, interval=0.001) as monitor:
            deadline = 200
            while not stream.getvalue() and deadline:
                import time

                time.sleep(0.001)
                deadline -= 1
        assert monitor._thread is None
        assert stream.getvalue().startswith("sweep: 0/1 cells")


class TestFormatSeconds:
    def test_ranges(self):
        assert _format_seconds(41.4) == "41s"
        assert _format_seconds(200) == "3m20s"
        assert _format_seconds(3720) == "1h02m"
