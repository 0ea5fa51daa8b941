"""Command-line interface: ``python -m repro <experiment> [...]``.

Subcommands:

* ``e1`` … ``e9`` — run one experiment and print its report.
* ``all`` — run the full suite (EXPERIMENTS.md regeneration).
* ``attack`` — run the lower-bound pipeline on a named cheater (or the
  correct protocol) at chosen ``(n, t)``.
* ``certify`` — run the attack and write a portable v2 certificate
  artifact (or, with ``matrix``, one artifact per seed-matrix cell).
* ``verify-cert`` — independently verify saved certificate artifacts
  (schema v2, or published v1); exit 1 with the first violated
  condition named on rejection, exit 2 when ``--replay`` cannot read
  the claimed ``(n, t)``.
* ``classify`` — classify a named standard problem at ``(n, t)``.
* ``trace`` — render a world log written via ``--ledger`` as a
  phase-tree timeline.
* ``log show`` / ``log derive`` / ``log resume`` — the world-log
  toolbox: list an append-only record store (with
  ``--kind/--cell/--run/--tail`` filters), derive the published
  artifact views from it, and finish an interrupted sweep from its
  recorded jobs.
* ``log replay`` / ``log diff`` / ``log stats`` — time travel: step a
  past run record-by-record (``--at TICK`` one-shot or stdin-driven),
  semantically diff two logs of the same matrix (key-aligned, timing
  ignored; exit 1 at the first real divergence), and extract new
  metrics from old logs as one JSON document.
* ``serve`` / ``submit`` / ``jobs`` / ``watch`` — the attack service:
  a multi-tenant job server over a world log (idempotent job keys,
  per-tenant quotas and rate limits, priorities, crash-resume), its
  submission client, the job manifest (live from the server or
  offline from the log), and a live record stream for one job.

Stream discipline: *results* (experiment reports, attack renders, sweep
tables, verdicts, trace timelines) go to stdout;
*diagnostics* (the ``--log`` narrative, profile/timing tables, live
sweep progress, "written to" notices, rejection details, errors) go to
stderr, so piped output stays clean.  Every failure path exits nonzero:
``1`` for domain failures (violated expectations, rejected artifacts,
sweep-cell errors, log divergences), ``2`` for environment
failures (unreadable, unwritable or malformed files).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ArtifactError, ReproError
from repro.experiments import ALL_EXPERIMENTS, CHEATERS
from repro.lowerbound.driver import attack_weak_consensus
from repro.parallel.jobs import (
    problem_builders,
    resolve_builder,
    resolve_problem,
)
from repro.solvability.theorem import classify


def _info(message: str) -> None:
    """Print one diagnostic line to stderr (stdout stays machine-clean)."""
    print(message, file=sys.stderr)


def _progress_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "live sweep status line on stderr (cells done/total, ETA, "
            "stall flag); default: on when stderr is a terminal"
        ),
    )
    subparser.add_argument(
        "--stall-after",
        type=_positive_float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "flag the sweep as stalled after this many seconds "
            "without a cell completing (default: 30)"
        ),
    )


def _resolve_progress(args: argparse.Namespace) -> bool:
    """The effective progress setting: explicit flag, else tty auto."""
    flag = getattr(args, "progress", None)
    if flag is None:
        return sys.stderr.isatty()
    return flag


def _ledger_option(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--ledger",
        metavar="PATH",
        help=(
            "record the run to PATH as an append-only world log "
            "(render with 'repro trace', derive artifacts with "
            "'repro log derive')"
        ),
    )


def _positive_int(text: str) -> int:
    """The ``--jobs``/``--max-pending``/``--burst`` argument type: a
    count of at least one."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return int(text)


def _positive_float(text: str) -> float:
    """The ``--rate``/``--stall-after`` argument type: a positive,
    finite number (``nan`` would switch the rate limit off)."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < float("inf"):  # false for NaN too
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}"
        )
    return value


def _interval(text: str) -> float:
    """The ``--interval`` argument type: seconds between polls, positive,
    finite and no longer than ``time.sleep`` accepts
    (``threading.TIMEOUT_MAX``).

    >>> _interval("2.5")
    2.5
    >>> _interval("1e10")  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    argparse.ArgumentTypeError: expected at most ... seconds, got '1e10'
    """
    import threading

    value = _positive_float(text)
    if value > threading.TIMEOUT_MAX:
        raise argparse.ArgumentTypeError(
            f"expected at most {threading.TIMEOUT_MAX:g} seconds, "
            f"got {text!r}"
        )
    return value


def _count(text: str) -> int:
    """The ``--tail``/``--slowest`` argument type: zero or more.

    A negative count would slice from the wrong end of the list.
    """
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


def _system_size_options(
    subparser: argparse.ArgumentParser, n: int | None, t: int | None
) -> None:
    """``--n``/``--t`` (required when no default is given); :func:`main`
    rejects a pair outside ``0 <= t < n`` with the subparser's usage
    error (exit 2)."""
    subparser.add_argument("--n", type=int, default=n, required=n is None)
    subparser.add_argument("--t", type=int, default=t, required=t is None)
    subparser.set_defaults(usage_error=subparser.error)


def _sweep_grid(grid: str, max_t: int) -> list[tuple[int, int]]:
    """The ``(n, t)`` cells of ``repro sweep --grid G --max-t T``."""
    from repro.analysis.complexity import quadratic_parameter_grid

    if grid == "proportional":
        return [(2 * t, t) for t in range(2, max_t + 1, 2)]
    return quadratic_parameter_grid(max_t)


def _usage_problem(args: argparse.Namespace) -> str | None:
    """What the parsed options get wrong together, or None."""
    if args.command == "sweep":
        if not _sweep_grid(args.grid, args.max_t):
            return (
                f"the {args.grid} grid has no cells with t <= "
                f"{args.max_t}; raise --max-t"
            )
    elif not 0 <= args.t < args.n:
        return f"need n >= 1 and 0 <= t < n, got --n {args.n} --t {args.t}"
    return None


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Executable reproduction of 'All Byzantine Agreement "
            "Problems are Expensive' (PODC 2024)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for experiment_id in ALL_EXPERIMENTS:
        experiment = subparsers.add_parser(
            experiment_id, help=f"run experiment {experiment_id.upper()}"
        )
        if experiment_id in ("e3", "e7"):
            experiment.add_argument(
                "--jobs",
                type=_positive_int,
                default=1,
                help=(
                    "worker processes for the sweep matrix (default: "
                    "serial, bit-identical to --jobs 1)"
                ),
            )
            _ledger_option(experiment)
            _progress_options(experiment)
    all_parser = subparsers.add_parser(
        "all", help="run every experiment"
    )
    all_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help=(
            "worker processes for sweep-shaped experiments (default: "
            "serial, bit-identical to --jobs 1)"
        ),
    )
    _ledger_option(all_parser)
    _progress_options(all_parser)

    attack = subparsers.add_parser(
        "attack", help="run the lower-bound attack on a protocol"
    )
    attack.add_argument(
        "protocol",
        choices=sorted(CHEATERS) + ["correct", "naive-flooding"],
        help=(
            "which candidate weak consensus to attack "
            "(naive-flooding is incorrect but quadratic: the driver "
            "rightly finds no sub-quadratic violation)"
        ),
    )
    _system_size_options(attack, n=16, t=8)
    attack.add_argument(
        "--log", action="store_true", help="print the pipeline narrative"
    )
    attack.add_argument(
        "--no-check",
        action="store_true",
        help="skip the per-round model validity checker (faster)",
    )
    attack.add_argument(
        "--early-stop",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="halt decision-only simulations at the decision round",
    )
    attack.add_argument(
        "--profile",
        action="store_true",
        help=(
            "trace the run and print its phase tree, messages per "
            "round and slowest rounds (to stderr), as 'repro trace' does"
        ),
    )
    _ledger_option(attack)

    certify_parser = subparsers.add_parser(
        "certify",
        help=(
            "run the lower-bound attack and write a portable, "
            "independently verifiable certificate artifact"
        ),
    )
    certify_parser.add_argument(
        "protocol",
        choices=sorted(CHEATERS)
        + ["correct", "naive-flooding", "matrix"],
        help=(
            "which candidate to certify, or 'matrix' for one artifact "
            "per seed cheater-matrix cell"
        ),
    )
    _system_size_options(certify_parser, n=16, t=8)
    certify_parser.add_argument(
        "--out",
        metavar="PATH",
        help=(
            "artifact file (single protocol) or directory (matrix); "
            "default: <protocol>-n<N>-t<T>.cert.json, or certificates/"
        ),
    )
    certify_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the matrix (default: serial)",
    )

    verify_cert = subparsers.add_parser(
        "verify-cert",
        help=(
            "independently verify saved certificate artifacts "
            "(exit 1 names the first violated condition)"
        ),
    )
    verify_cert.add_argument(
        "paths", nargs="+", help="certificate JSON artifact(s)"
    )
    verify_cert.add_argument(
        "--replay",
        metavar="PROTOCOL",
        choices=sorted(CHEATERS) + ["correct", "naive-flooding"],
        help=(
            "additionally replay every recorded behavior against this "
            "protocol's live code (n, t are read from each artifact)"
        ),
    )

    classify_parser = subparsers.add_parser(
        "classify", help="classify a standard agreement problem"
    )
    classify_parser.add_argument(
        "problem", choices=sorted(problem_builders()), help="which problem"
    )
    _system_size_options(classify_parser, n=4, t=1)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="message-complexity sweep of a protocol vs the t²/32 floor",
    )
    sweep_parser.add_argument(
        "protocol",
        choices=sorted([*CHEATERS, "dolev-strong", "ic", "weak-consensus"]),
        help="which protocol to measure",
    )
    sweep_parser.add_argument("--max-t", type=int, default=8)
    sweep_parser.set_defaults(usage_error=sweep_parser.error)
    sweep_parser.add_argument(
        "--grid",
        choices=["slack", "proportional"],
        default="slack",
        help=(
            "slack: n = t + 4 (high resilience); proportional: n = 2t "
            "(shows the quadratic exponent)"
        ),
    )
    sweep_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help=(
            "worker processes for the sweep matrix (default: serial, "
            "bit-identical to --jobs 1)"
        ),
    )
    sweep_parser.add_argument(
        "--timings",
        action="store_true",
        help=(
            "also print the per-cell wall-time/accounting table "
            "(to stderr)"
        ),
    )
    sweep_parser.add_argument(
        "--resume",
        metavar="LOG",
        help=(
            "resume an interrupted sweep from its world log: cells "
            "whose terminal record survived are not re-executed, and "
            "the finished run is bit-identical to an uninterrupted one"
        ),
    )
    _ledger_option(sweep_parser)
    _progress_options(sweep_parser)

    log_parser = subparsers.add_parser(
        "log",
        help=(
            "operate on append-only world logs: show records, derive "
            "the artifact views, resume an interrupted sweep, "
            "replay/diff/stat past runs"
        ),
    )
    log_sub = log_parser.add_subparsers(dest="log_command", required=True)
    log_show = log_sub.add_parser(
        "show", help="list a world log's records (tick, kind, cell)"
    )
    log_show.add_argument("path", help="world log file")
    log_show.add_argument(
        "--kind",
        action="append",
        metavar="KIND",
        help="show only records of this kind (repeatable)",
    )
    log_show.add_argument(
        "--cell",
        action="append",
        metavar="CELL",
        help="show only records of this cell id (repeatable)",
    )
    log_show.add_argument(
        "--run",
        action="append",
        metavar="RUN",
        help="show only records of this run id (repeatable)",
    )
    log_show.add_argument(
        "--tail",
        type=_count,
        default=None,
        metavar="N",
        help="after filtering, show only the last N records",
    )
    log_tail = log_sub.add_parser(
        "tail",
        help=(
            "stream a world log's records as they are appended: one "
            "listing line per complete record, torn tails held back "
            "until their newline lands; --follow keeps polling like "
            "tail -f"
        ),
    )
    log_tail.add_argument("path", help="world log file")
    log_tail.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep polling for new records until interrupted",
    )
    log_tail.add_argument(
        "--interval",
        type=_interval,
        default="0.5",
        metavar="SECONDS",
        help="seconds between polls with --follow (default: 0.5)",
    )
    log_tail.add_argument(
        "--max-polls", type=int, default=None, help=argparse.SUPPRESS
    )
    log_derive = log_sub.add_parser(
        "derive",
        help=(
            "re-derive the artifact views (ledger JSONL, certificates, "
            "jobs manifest) from a world log"
        ),
    )
    log_derive.add_argument("path", help="world log file")
    log_derive.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="output directory (default: <log>.derived/)",
    )
    log_resume = log_sub.add_parser(
        "resume",
        help=(
            "finish an interrupted sweep from its recorded jobs: "
            "jobs with a recorded result are not re-executed"
        ),
    )
    log_resume.add_argument("path", help="world log file")
    log_resume.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes (default: serial)",
    )
    _progress_options(log_resume)
    log_replay = log_sub.add_parser(
        "replay",
        help=(
            "time-travel a past run: step record-by-record with a "
            "replay cursor and print what the system knew at tick T"
        ),
    )
    log_replay.add_argument("path", help="world log file")
    log_replay.add_argument(
        "--at",
        type=int,
        default=None,
        metavar="TICK",
        help=(
            "one-shot: print the state after the last record with "
            "tick <= TICK and exit (past-the-end ticks land at the "
            "end); without it, commands are read from stdin "
            "(next/prev [N], seek TICK, state, quit)"
        ),
    )
    log_diff = log_sub.add_parser(
        "diff",
        help=(
            "semantic diff of two logs of the same matrix: key-aligned "
            "by (kind, name, cell), timing-only divergence ignored; "
            "exit 0 when empty, 1 at the first real divergence"
        ),
    )
    log_diff.add_argument("a", help="first world log")
    log_diff.add_argument("b", help="second world log")
    log_stats_parser = log_sub.add_parser(
        "stats",
        help=(
            "post-hoc metrics from an old log (no schema migration): "
            "per-cell percentiles, span totals, cache hit rate, "
            "per-tenant job + rejection counts, as one JSON document"
        ),
    )
    log_stats_parser.add_argument("path", help="world log file")

    trace_parser = subparsers.add_parser(
        "trace",
        help="render a recorded run's world log as a phase-tree timeline",
    )
    trace_parser.add_argument(
        "path", help="world log file (written via --ledger)"
    )
    trace_parser.add_argument(
        "--slowest",
        type=_count,
        default=5,
        metavar="N",
        help="how many slowest rounds to list (default: 5)",
    )
    trace_parser.add_argument(
        "--format",
        choices=("text", "chrome"),
        default="text",
        help=(
            "text: the phase-tree timeline (default); chrome: "
            "trace-event JSON that Perfetto and chrome://tracing open"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the attack job server: accept attack/measure/classify "
            "jobs from many clients over a unix socket, record every "
            "accepted job and result in a world log, resume the queue "
            "after a crash"
        ),
    )
    serve_parser.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help=(
            "unix socket to listen on (keep it short: the OS caps "
            "socket paths around 100 bytes)"
        ),
    )
    serve_parser.add_argument(
        "--log",
        required=True,
        metavar="WORLDLOG",
        help=(
            "the world log backing the queue: created if missing, "
            "resumed (queued and died-mid-run jobs re-queued, finished "
            "jobs answerable) if present"
        ),
    )
    serve_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help=(
            "worker parallelism: 1 runs jobs in-process (default); "
            "more shards them over a process pool"
        ),
    )
    serve_parser.add_argument(
        "--max-pending",
        type=_positive_int,
        default=16,
        help="per-tenant cap on queued-or-running jobs (default: 16)",
    )
    serve_parser.add_argument(
        "--rate",
        type=_positive_float,
        default=10.0,
        help=(
            "per-tenant sustained accepted submissions per second "
            "(default: 10)"
        ),
    )
    serve_parser.add_argument(
        "--burst",
        type=_positive_int,
        default=20,
        help="per-tenant rate-limit burst capacity (default: 20)",
    )

    submit_parser = subparsers.add_parser(
        "submit",
        help=(
            "submit one job to a running attack server; identical "
            "re-submissions are answered from the recorded result "
            "without re-running anything"
        ),
    )
    submit_parser.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="the server's unix socket",
    )
    submit_parser.add_argument(
        "kind",
        choices=("attack", "measure", "classify"),
        help="which job kind to run",
    )
    submit_parser.add_argument(
        "name",
        help=(
            "the spec-builder name (attack/measure) or standard "
            "problem name (classify)"
        ),
    )
    _system_size_options(submit_parser, n=None, t=None)
    submit_parser.add_argument(
        "--certify",
        action="store_true",
        help="attack jobs only: also produce the certificate artifact",
    )
    submit_parser.add_argument(
        "--tenant",
        default="default",
        help="quota accounting identity (default: 'default')",
    )
    submit_parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="bigger runs sooner; ties run first-come-first-served",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help=(
            "stay connected until the job's terminal record and print "
            "its result"
        ),
    )

    jobs_parser = subparsers.add_parser(
        "jobs",
        help=(
            "the job manifest: one line per accepted job key, live "
            "from a running server or offline from its world log"
        ),
    )
    jobs_source = jobs_parser.add_mutually_exclusive_group(
        required=True
    )
    jobs_source.add_argument(
        "--socket",
        metavar="PATH",
        help="ask a running server (live queue states)",
    )
    jobs_source.add_argument(
        "--log",
        metavar="WORLDLOG",
        help="fold a world log's job records offline (no server needed)",
    )

    watch_parser = subparsers.add_parser(
        "watch",
        help=(
            "stream one job's world-log records (replay, then live) "
            "until its terminal record; exit 1 if the job failed"
        ),
    )
    watch_parser.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="the server's unix socket",
    )
    watch_parser.add_argument("key", help="the job's idempotent key")

    status_parser = subparsers.add_parser(
        "status",
        help=(
            "one status frame from a running attack server: queue "
            "depth by priority, per-tenant quota occupancy, worker "
            "utilization, per-job progress"
        ),
    )
    status_parser.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="the server's unix socket",
    )
    status_parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw status frame as JSON",
    )

    top_parser = subparsers.add_parser(
        "top",
        help=(
            "live dashboard: redraw the server status frame (from a "
            "socket) or a growing world log's fold (from --log) on an "
            "interval; stderr-disciplined like --progress"
        ),
    )
    top_source = top_parser.add_mutually_exclusive_group(required=True)
    top_source.add_argument(
        "--socket",
        metavar="PATH",
        help="a running server's unix socket",
    )
    top_source.add_argument(
        "--log",
        metavar="WORLDLOG",
        help="follow a growing world log instead of a server",
    )
    top_parser.add_argument(
        "--interval",
        type=_interval,
        default="1",
        metavar="SECONDS",
        help="seconds between redraws (default: 1)",
    )
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (for scripts and tests)",
    )

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="export recorded metrics in formats other tools ingest",
    )
    metrics_sub = metrics_parser.add_subparsers(
        dest="metrics_command", required=True
    )
    metrics_export = metrics_sub.add_parser(
        "export",
        help=(
            "render a recorded run's world log as Prometheus text "
            "exposition"
        ),
    )
    metrics_export.add_argument(
        "path", help="world log file (written via --ledger)"
    )
    metrics_export.add_argument(
        "--format",
        choices=("prom",),
        default="prom",
        help="output format (default: prom)",
    )
    metrics_export.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write to PATH instead of stdout",
    )
    return parser


def _make_ledger(path: str | None):
    """The recording pair ``(ledger, worldlog)`` for ``--ledger PATH``.

    Opens the append-only world log at ``PATH`` and mirrors every
    ledger event into it write-through (the ledger itself is the
    in-memory view layers already consume).  Both are ``None`` without
    a path.
    """
    if not path:
        return None, None
    from repro.obs.ledger import RunLedger
    from repro.worldlog.store import WorldLog

    worldlog = WorldLog.create(path)
    return RunLedger(sink=worldlog.record_event), worldlog


def _write_ledger(ledger, worldlog) -> None:
    """Close and announce a run recording (diagnostic, so stderr)."""
    if worldlog is None:
        return
    records = len(worldlog.records)
    worldlog.close()
    _info(
        f"world log written to {worldlog.path} ({records} records, "
        f"{len(ledger)} events); derive artifacts with "
        f"'repro log derive {worldlog.path}'"
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: ``0`` success, ``1`` domain failure (an unexpected
    verdict, a rejected artifact, failed sweep cells, a ``log diff``
    divergence), ``2`` environment failure (a file
    that cannot be read or written) or a usage error (argparse's, and
    options that cannot describe a run, such as ``--t`` >= ``--n``).
    """
    args = build_parser().parse_args(argv)
    if hasattr(args, "usage_error"):
        problem = _usage_problem(args)
        if problem:
            args.usage_error(problem)  # exits 2
    try:
        return _dispatch(args)
    except (OSError, ArtifactError) as error:
        # Environment failures: unreadable/unwritable files, or files
        # that exist but are not the artifact they claim to be.
        _info(f"error: {error}")
        return 2
    except (ReproError, RuntimeError) as error:
        _info(f"error: {error}")
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ALL_EXPERIMENTS:
        runner = ALL_EXPERIMENTS[args.command]
        kwargs = {}
        if getattr(args, "jobs", 1) != 1:
            kwargs["jobs"] = args.jobs
        ledger, worldlog = _make_ledger(getattr(args, "ledger", None))
        if ledger is not None:
            kwargs["ledger"] = ledger
        if hasattr(args, "progress") and _resolve_progress(args):
            kwargs["progress"] = True
            kwargs["stall_after"] = args.stall_after
        print(runner(**kwargs).report)
        _write_ledger(ledger, worldlog)
        return 0
    if args.command == "all":
        import inspect

        ledger, worldlog = _make_ledger(args.ledger)
        progress = _resolve_progress(args)
        for experiment_id, runner in ALL_EXPERIMENTS.items():
            # Sweep-shaped experiments accept a worker count and a
            # ledger; the rest run as before.
            parameters = inspect.signature(runner).parameters
            kwargs = {}
            if "jobs" in parameters:
                kwargs["jobs"] = args.jobs
            if ledger is not None and "ledger" in parameters:
                kwargs["ledger"] = ledger
            if progress and "progress" in parameters:
                kwargs["progress"] = True
                kwargs["stall_after"] = args.stall_after
            print(runner(**kwargs).report)
            print()
        _write_ledger(ledger, worldlog)
        return 0
    if args.command == "attack":
        from repro.obs.ledger import RunLedger
        from repro.obs.tracer import NULL_TRACER, LedgerTracer

        ledger, worldlog = _make_ledger(args.ledger)
        if ledger is None and args.profile:
            ledger = RunLedger()
        tracer = (
            LedgerTracer(ledger) if ledger is not None else NULL_TRACER
        )
        spec = resolve_builder(args.protocol)(args.n, args.t)
        outcome = attack_weak_consensus(
            spec,
            check=not args.no_check,
            early_stop=args.early_stop,
            tracer=tracer,
            worldlog=worldlog,
        )
        print(outcome.render())
        if args.profile:
            from repro.obs.report import LedgerFold, render_trace

            _info(render_trace(LedgerFold.of(ledger.events)))
        if args.log:
            _info("\n".join(outcome.log))
        _write_ledger(ledger, worldlog)
        expected_violation = args.protocol in CHEATERS
        return 0 if outcome.found_violation == expected_violation else 1
    if args.command == "certify":
        from repro.certify.verifier import verify_certificate

        if args.protocol == "matrix":
            import os

            from repro.experiments import run_e3

            out_dir = args.out or "certificates"
            os.makedirs(out_dir, exist_ok=True)
            report = run_e3(jobs=args.jobs).data["sweep"]
            for cell in report.cells:
                assert cell.result is not None
                assert cell.result.certificate is not None
                _, builder, n, t = cell.key
                path = os.path.join(
                    out_dir, f"{builder}-n{n}-t{t}.cert.json"
                )
                with open(path, "wb") as handle:
                    handle.write(cell.result.certificate)
                _info(f"{path}: written (verified in gather)")
            print(
                f"{report.certificates_verified} certificate(s) in "
                f"{out_dir}/, each independently verified"
            )
            return 0
        spec = resolve_builder(args.protocol)(args.n, args.t)
        outcome = attack_weak_consensus(spec, certify=True)
        certificate = outcome.certificate
        assert certificate is not None
        verdict = verify_certificate(certificate)
        path = args.out or (
            f"{args.protocol}-n{args.n}-t{args.t}.cert.json"
        )
        with open(path, "wb") as handle:
            handle.write(certificate.to_bytes())
        print(outcome.render())
        print(verdict.render())
        _info(f"certificate written to {path}")
        return 0 if verdict.ok else 1
    if args.command == "verify-cert":
        from repro.artifact import load_artifact
        from repro.certify.format import Certificate
        from repro.certify.verifier import verify_certificate

        def claimed_factory(text: str):
            # The replayed protocol runs at the artifact's claimed size:
            # a claim that cannot size it is not a certificate (exit 2).
            claim = Certificate.loads(text).payload["claim"]
            return resolve_builder(args.replay)(
                claim["n"], claim["t"]
            ).factory

        failures = 0
        for path in args.paths:
            with open(path, "rb") as handle:
                blob = handle.read()
            factory = None
            if args.replay:
                factory = load_artifact(
                    path, "attack certificate", claimed_factory
                )
            report = verify_certificate(blob, factory=factory)
            print(f"{path}: {report.render()}")
            if not report.ok:
                failures += 1
        return 1 if failures else 0
    if args.command == "classify":
        problem = resolve_problem(args.problem)(args.n, args.t)
        print(classify(problem).render())
        return 0
    if args.command == "sweep":
        from repro.analysis.fitting import fit_sweep
        from repro.analysis.tables import render_sweep
        from repro.parallel import MeasureJob, SweepScheduler

        grid = _sweep_grid(args.grid, args.max_t)
        if args.resume:
            if args.ledger:
                raise ReproError(
                    "--resume names the world log to continue; "
                    "--ledger would open a second recording target"
                )
            from repro.obs.ledger import RunLedger
            from repro.worldlog.store import WorldLog

            worldlog = WorldLog.resume(args.resume)
            ledger = RunLedger(sink=worldlog.record_event)
        else:
            ledger, worldlog = _make_ledger(args.ledger)
        report = SweepScheduler(
            jobs=args.jobs,
            ledger=ledger,
            worldlog=worldlog,
            progress=_resolve_progress(args),
            stall_after=args.stall_after,
        ).run(
            MeasureJob(builder=args.protocol, n=n, t=t)
            for n, t in grid
        )
        report.raise_errors()
        points = report.values()
        print(render_sweep(points))
        if args.timings:
            _info(report.render())
        _write_ledger(ledger, worldlog)
        try:
            print(f"fit: {fit_sweep(points).render()}")
        except ValueError:
            _info("fit: insufficient non-zero samples")
        return 0
    if args.command == "log":
        return _dispatch_log(args)
    if args.command == "trace":
        if args.format == "chrome":
            import json

            from repro.obs.export import chrome_trace
            from repro.worldlog.store import read_worldlog
            from repro.worldlog.views import ledger_events

            events = ledger_events(read_worldlog(args.path))
            print(json.dumps(chrome_trace(events)))
            return 0
        from repro.obs.report import render_trace

        print(render_trace(_recorded_fold(args.path), slowest=args.slowest))
        return 0
    if args.command == "serve":
        return _dispatch_serve(args)
    if args.command == "submit":
        return _dispatch_submit(args)
    if args.command == "jobs":
        return _dispatch_jobs(args)
    if args.command == "watch":
        return _dispatch_watch(args)
    if args.command == "status":
        return _dispatch_status(args)
    if args.command == "top":
        return _dispatch_top(args)
    if args.command == "metrics":
        return _dispatch_metrics(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _recorded_fold(path: str):
    """The fold of the ledger events a world log recorded (``trace``,
    ``metrics export``)."""
    from repro.worldlog.replay import replay_state
    from repro.worldlog.store import read_worldlog

    return replay_state(read_worldlog(path)).ledger


def _dispatch_serve(args: argparse.Namespace) -> int:
    from repro.service.quota import QuotaPolicy
    from repro.service.server import JobServer

    server = JobServer(
        log_path=args.log,
        socket_path=args.socket,
        jobs=args.jobs,
        quota=QuotaPolicy(
            max_pending=args.max_pending,
            rate=args.rate,
            burst=args.burst,
        ),
    )
    _info(
        f"attack service listening on {args.socket} "
        f"(log: {args.log}, jobs: {args.jobs}); stop with SIGTERM"
    )
    server.serve_forever()
    _info("attack service stopped; queued jobs stay in the log")
    return 0


def _service_job(args: argparse.Namespace):
    """Build the job a ``repro submit`` invocation describes.

    Builder/problem names are validated client-side so a typo fails
    fast with the registry listed, instead of as a queued job's error
    record.
    """
    from repro.parallel.jobs import AttackJob, ClassifyJob, MeasureJob

    if args.certify and args.kind != "attack":
        raise ReproError(
            "--certify applies to attack jobs only"
        )
    if args.kind == "classify":
        resolve_problem(args.name)
        return ClassifyJob(builder=args.name, n=args.n, t=args.t)
    resolve_builder(args.name)
    if args.kind == "measure":
        return MeasureJob(builder=args.name, n=args.n, t=args.t)
    return AttackJob(
        builder=args.name, n=args.n, t=args.t, certify=args.certify
    )


def _render_job_value(value) -> str:
    """A terminal job payload as the matching one-off command's output."""
    from repro.analysis.complexity import SweepPoint

    if isinstance(value, SweepPoint):
        from repro.analysis.tables import render_sweep

        return render_sweep([value])
    return value.render()


def _print_terminal(record: dict | None) -> int:
    """Print a streamed terminal record; the job's exit code."""
    if record is None:
        raise ReproError(
            "server stream ended before the job's terminal record"
        )
    payload = record["payload"]
    if record["kind"] == "job.error":
        _info(
            f"job failed ({payload['error_kind']}): "
            f"{payload['message']}"
        )
        return 1
    from repro.worldlog.codec import decode_job_result

    result = decode_job_result(payload["result"])
    print(_render_job_value(result.value))
    if result.certificate is not None:
        _info(
            f"certificate recorded in the log "
            f"({len(result.certificate)} canonical bytes)"
        )
    return 0


def _dispatch_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient
    from repro.worldlog.codec import encode_job

    spec = encode_job(_service_job(args))
    client = ServiceClient(args.socket)
    if not args.wait:
        response = client.submit(
            spec, tenant=args.tenant, priority=args.priority
        )
        cached = " (cached)" if response.get("cached") else ""
        print(f"{response['key']} {response['state']}{cached}")
        return 1 if response["state"] == "failed" else 0
    final = None
    for frame in client.submit_wait(
        spec, tenant=args.tenant, priority=args.priority
    ):
        record = frame.get("record")
        if record is None:
            cached = " (cached)" if frame.get("cached") else ""
            _info(f"{frame['key']} {frame['state']}{cached}")
        elif frame.get("final"):
            final = record
        else:
            _info(f"[{record['tick']}] {record['kind']}")
    return _print_terminal(final)


def _dispatch_jobs(args: argparse.Namespace) -> int:
    if args.socket:
        from repro.service.client import ServiceClient

        manifest = ServiceClient(args.socket).jobs()
    else:
        from repro.service.queue import recorded_jobs
        from repro.worldlog.store import read_worldlog
        from repro.worldlog.views import jobs_manifest

        records = read_worldlog(args.log)
        recorded_jobs(records, args.log)  # a spec that does not decode: exit 2
        manifest = jobs_manifest(records)
    entries = manifest["jobs"]
    if not entries:
        print("no jobs recorded")
        return 0
    for entry in entries:
        job = entry["job"]
        cell = (
            f"{job['kind']}/{job['builder']}/n{job['n']}/t{job['t']}"
        )
        line = (
            f"{entry['key']}  {entry['state']:<7} "
            f"p{entry['priority']:<3} {entry['tenant']:<10} {cell}"
        )
        if entry["state"] == "failed":
            line += (
                f"  [{entry.get('error_kind', '?')}] "
                f"{entry.get('message', '')}"
            )
        print(line)
    return 0


def _dispatch_watch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    final = None
    for frame in ServiceClient(args.socket).watch(args.key):
        record = frame.get("record")
        if record is None:
            continue
        if frame.get("final"):
            final = record
        else:
            _info(f"[{record['tick']}] {record['kind']}")
    return _print_terminal(final)


def _record_line(record) -> str:
    """One ``log show``-style listing line for a record."""
    cell = record.cell_id or "-"
    name = record.name or ""
    return f"{record.tick:>6}  {record.kind:<13} {cell:<24} {name}"


def _render_status(body: dict) -> str:
    """The ``repro status`` / ``repro top`` frame for one status fold."""
    workers = body.get("workers", {})
    queue = body.get("queue", {})
    jobs = body.get("jobs", {})
    lines = []
    if body.get("run_id"):
        lines.append(
            f"server run {body['run_id']} "
            f"({body.get('schema', '?')})"
        )
    utilization = workers.get("utilization", 0.0) * 100
    lines.append(
        f"workers   {workers.get('busy', 0)}"
        f"/{workers.get('total', 0)} busy ({utilization:.0f}%)"
    )
    depths = ", ".join(
        f"p{priority}: {count}"
        for priority, count in queue.get("by_priority", {}).items()
    )
    lines.append(
        f"queue     {queue.get('depth', 0)} queued"
        + (f" ({depths})" if depths else "")
    )
    lines.append(
        f"jobs      {jobs.get('queued', 0)} queued, "
        f"{len(jobs.get('running', []))} running, "
        f"{jobs.get('completed', 0)} completed"
    )
    for tenant, entry in sorted(body.get("tenants", {}).items()):
        occupancy = entry.get("quota_occupancy", 0.0) * 100
        lines.append(
            f"tenant    {tenant}: {entry.get('pending', 0)}"
            f"/{entry.get('max_pending', '?')} pending "
            f"({occupancy:.0f}% quota), "
            f"{entry.get('rate_tokens', 0.0):.1f}"
            f"/{entry.get('burst', 0.0):.0f} rate tokens"
        )
    for job in jobs.get("running", []):
        lines.append(
            f"running   {job['key']} {job['tenant']} "
            f"p{job['priority']} {job['seconds']:.1f}s"
        )
    return "\n".join(lines)


def _dispatch_status(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient

    frame = ServiceClient(args.socket).status()
    if args.json:
        print(json.dumps(frame, indent=2, sort_keys=True))
        return 0
    print(_render_status(frame))
    return 0


def _dispatch_top(args: argparse.Namespace) -> int:
    import time

    if args.socket:
        from repro.service.client import ServiceClient

        client = ServiceClient(args.socket)

        def frame() -> str:
            return _render_status(client.status())

    else:
        from repro.worldlog.replay import ReplayState, render_state
        from repro.worldlog.store import LogTailer

        if args.once:
            _require_file(args.log)
        tailer = LogTailer(args.log)
        state = ReplayState()

        def frame() -> str:
            for record in tailer.poll():
                state.apply(record)
            return f"world log {args.log}\n{render_state(state)}"

    # The dashboard is ephemeral diagnostics, so it follows the
    # --progress stderr discipline: stdout stays clean for results.
    stream = sys.stderr
    live = stream.isatty() and not args.once
    try:
        while True:
            text = frame()
            if live:
                stream.write(f"\x1b[2J\x1b[H{text}\n")
            else:
                stream.write(f"{text}\n")
            stream.flush()
            if args.once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _dispatch_metrics(args: argparse.Namespace) -> int:
    if args.metrics_command != "export":
        raise AssertionError(
            f"unhandled metrics command {args.metrics_command!r}"
        )
    from repro.obs.export import render_prometheus

    document = render_prometheus(_recorded_fold(args.path))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(document)
        _info(f"metrics exposition written to {args.out}")
    else:
        sys.stdout.write(document)
    return 0


def _dispatch_log_replay(args: argparse.Namespace) -> int:
    """``repro log replay``: one-shot ``--at TICK`` or stdin-driven."""
    from repro.worldlog.replay import ReplayCursor, render_state
    from repro.worldlog.store import read_worldlog

    records = read_worldlog(args.path)
    cursor = ReplayCursor(records)
    if args.at is not None:
        cursor.seek(args.at)
        print(render_state(cursor.state, total=len(records)))
        return 0
    _info(
        f"world log {args.path}: {len(records)} record(s), run "
        f"{records[0].run_id}; commands: next/prev [N], seek TICK, "
        "state, quit"
    )
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        command, rest = parts[0], parts[1:]
        try:
            count = int(rest[0]) if rest else 1
        except ValueError:
            _info(f"not a number: {rest[0]!r}")
            continue
        if command in ("next", "n"):
            for _ in range(count):
                record = cursor.next()
                if record is None:
                    _info("(end of log)")
                    break
                print(_record_line(record))
        elif command in ("prev", "p"):
            for _ in range(count):
                record = cursor.prev()
                if record is None:
                    _info("(start of log)")
                    break
                print(_record_line(record))
        elif command == "seek" and rest:
            cursor.seek(count)
            print(
                f"at tick {cursor.state.tick} "
                f"({cursor.position}/{len(records)} records)"
            )
        elif command in ("state", "s"):
            print(render_state(cursor.state, total=len(records)))
        elif command in ("quit", "q"):
            break
        else:
            _info(f"unknown command {command!r}")
    return 0


def _require_file(path: str) -> None:
    """Raise ``OSError`` (exit 2) when a one-shot reader's log is missing.

    A follower may start before its log exists; a one-shot read of a
    missing file is an environment error, not an empty log.
    """
    with open(path, "rb"):
        pass


def _dispatch_log_tail(args: argparse.Namespace) -> int:
    """``repro log tail``: stream complete records as they land."""
    import time

    from repro.worldlog.store import LogTailer

    if not args.follow:
        _require_file(args.path)
    tailer = LogTailer(args.path)
    polls = 0
    try:
        while True:
            for record in tailer.poll():
                print(_record_line(record), flush=True)
            polls += 1
            if not args.follow:
                return 0
            if args.max_polls is not None and polls >= args.max_polls:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _dispatch_log(args: argparse.Namespace) -> int:
    from repro.worldlog.store import read_worldlog

    if args.log_command == "show":
        from repro.worldlog.replay import select_records

        records = read_worldlog(args.path)
        print(
            f"world log {args.path}: {len(records)} record(s), "
            f"run {records[0].run_id}"
        )
        for record in select_records(
            records,
            kinds=args.kind,
            cells=args.cell,
            runs=args.run,
            tail=args.tail,
        ):
            print(_record_line(record))
        return 0
    if args.log_command == "tail":
        return _dispatch_log_tail(args)
    if args.log_command == "replay":
        return _dispatch_log_replay(args)
    if args.log_command == "diff":
        from repro.worldlog.diffing import diff_logs

        report = diff_logs(
            read_worldlog(args.a), read_worldlog(args.b)
        )
        print(report.render(args.a, args.b))
        return 0 if report.ok else 1
    if args.log_command == "stats":
        import json
        import time

        from repro.worldlog.replay import log_stats

        document = log_stats(read_worldlog(args.path), now=time.time())
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    if args.log_command == "derive":
        from repro.worldlog.views import derive_views

        records = read_worldlog(args.path)
        out_dir = args.out or f"{args.path}.derived"
        written = derive_views(records, out_dir)
        total = 0
        for view in sorted(written):
            for path in written[view]:
                _info(f"{view}: {path}")
                total += 1
        print(f"{total} artifact(s) derived into {out_dir}")
        return 0
    if args.log_command == "resume":
        from repro.obs.ledger import RunLedger
        from repro.parallel import SweepScheduler
        from repro.service.queue import recorded_jobs
        from repro.worldlog.store import WorldLog

        with WorldLog.resume(args.path) as worldlog:
            jobs = recorded_jobs(worldlog.records, args.path)
            if not jobs:
                raise ReproError(
                    f"{args.path} records no jobs; only sweeps and "
                    "services recorded into a world log can be resumed"
                )
            ledger = RunLedger(sink=worldlog.record_event)
            report = SweepScheduler(
                jobs=args.jobs,
                ledger=ledger,
                worldlog=worldlog,
                progress=_resolve_progress(args),
                stall_after=args.stall_after,
            ).run(jobs)
            print(report.render())
            _write_ledger(ledger, worldlog)
        return 1 if report.errors() else 0
    raise AssertionError(
        f"unhandled log command {args.log_command!r}"
    )


if __name__ == "__main__":
    sys.exit(main())
