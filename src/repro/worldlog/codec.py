"""JSON codecs for the records crash-resume replays.

A resumed sweep or restarted service must reconstruct each completed
job's :class:`~repro.parallel.jobs.JobResult` — outcome value, cache
counters, certificate bytes, ledger segment — from its terminal
``job.result`` record alone, bit-identically to what the original
worker shipped.  This module is that round trip, built on the shared
:mod:`repro.sim.serialization` codec (executions, payloads) so there is
exactly one encoding policy in the repository.

An attack outcome's violation witness is recorded once:

* a certified result (one that carries certificate bytes) already
  holds the witness execution in its certificate, so its outcome entry
  says ``"witness": "certificate"`` and decoding rebuilds the witness
  with :meth:`~repro.certify.format.Certificate.witness`;
* an uncertified result writes the witness execution in the
  certificate's table layout (``messages``, ``fragments`` and the
  ``execution`` that indexes them);
* a record written before either rule carries a per-execution
  ``"format": 1`` witness, which still decodes.

A failed job's ``job.error`` payload is built here too
(:func:`encode_job_error`), for the sweep scheduler and the job server
alike.

Wall-clock fields (``wall_seconds``) round-trip verbatim: they are the
*original* run's telemetry, excluded from outcome equality like every
other timing.

Deliberately not encoded: ``AttackOutcome.certificate``, the live
object; the canonical bytes travel separately (``JobResult.certificate``),
exactly as they do across process boundaries.
"""

from __future__ import annotations

import traceback
from dataclasses import fields
from typing import Any

from repro.errors import ReproError
from repro.sim.serialization import (
    decode_payload,
    encode_payload,
    execution_from_dict,
    execution_from_tables,
    executions_to_tables,
)

IN_CERTIFICATE = "certificate"
"""The witness entry of an outcome whose witness its certificate holds."""


# ----------------------------------------------------------------------
# jobs (the job.submitted payload's spec)
# ----------------------------------------------------------------------


def _job_classes() -> dict[str, type]:
    from repro.parallel.jobs import AttackJob, ClassifyJob, MeasureJob

    return {
        "attack": AttackJob,
        "measure": MeasureJob,
        "classify": ClassifyJob,
    }


def encode_job(job: Any) -> dict[str, Any]:
    """One job as a JSON-safe spec: its kind, then its fields in order.

    The spec is what :func:`~repro.service.protocol.job_key` hashes
    into a job's idempotent key.
    """
    if type(job) not in _job_classes().values():
        raise ReproError(
            f"cannot encode sweep job of type {type(job).__name__}"
        )
    spec = {"kind": job.key[0]}
    for item in fields(job):
        spec[item.name] = getattr(job, item.name)
    return spec


def decode_job(data: dict[str, Any]) -> Any:
    """Inverse of :func:`encode_job`; every field must be present."""
    kind = data.get("kind")
    cls = _job_classes().get(kind)
    if cls is None:
        raise ReproError(f"unknown sweep job kind {kind!r}")
    return cls(**{item.name: data[item.name] for item in fields(cls)})


# ----------------------------------------------------------------------
# job values (AttackOutcome / SweepPoint)
# ----------------------------------------------------------------------


def _encode_witness(witness: Any, certified: bool) -> Any:
    if witness is None:
        return None
    if certified:
        return IN_CERTIFICATE
    tables = executions_to_tables({"witness": witness.execution})
    return {
        "kind": witness.kind.value,
        "culprit": witness.culprit,
        "counterpart": witness.counterpart,
        "note": witness.note,
        "messages": tables["messages"],
        "fragments": tables["fragments"],
        "execution": tables["executions"]["witness"],
    }


def _decode_witness(raw: Any, certificate: str | None) -> Any:
    if raw is None:
        return None
    if raw == IN_CERTIFICATE:
        from repro.certify.format import Certificate

        return Certificate.loads(certificate).witness()
    from repro.lowerbound.witnesses import (
        ViolationKind,
        ViolationWitness,
    )

    if "fragments" in raw:
        execution = execution_from_tables(
            raw["execution"], raw["fragments"], raw["messages"]
        )
    else:  # written before the table layout
        execution = execution_from_dict(raw["execution"])
    return ViolationWitness(
        kind=ViolationKind(raw["kind"]),
        execution=execution,
        culprit=raw["culprit"],
        counterpart=raw["counterpart"],
        note=raw["note"],
    )


def _encode_outcome(outcome: Any, certified: bool) -> dict[str, Any]:
    return {
        "kind": "attack-outcome",
        "protocol": outcome.protocol,
        "n": outcome.n,
        "t": outcome.t,
        "partition": {
            "n": outcome.partition.n,
            "t": outcome.partition.t,
            "b": sorted(outcome.partition.group_b),
            "c": sorted(outcome.partition.group_c),
        },
        "witness": _encode_witness(outcome.witness, certified),
        "bound": {
            "t": outcome.bound.t,
            "observed": outcome.bound.observed,
        },
        "default_bit": (
            None
            if outcome.default_bit is None
            else encode_payload(outcome.default_bit)
        ),
        "critical_round": outcome.critical_round,
        "log": list(outcome.log),
        "rounds_simulated": outcome.rounds_simulated,
        "rounds_baseline": outcome.rounds_baseline,
    }


def _decode_outcome(data: dict[str, Any], certificate: str | None) -> Any:
    from repro.lowerbound.bound import BoundComparison
    from repro.lowerbound.driver import AttackOutcome
    from repro.lowerbound.partition import ABCPartition

    return AttackOutcome(
        protocol=data["protocol"],
        n=data["n"],
        t=data["t"],
        partition=ABCPartition(
            n=data["partition"]["n"],
            t=data["partition"]["t"],
            group_b=frozenset(data["partition"]["b"]),
            group_c=frozenset(data["partition"]["c"]),
        ),
        witness=_decode_witness(data["witness"], certificate),
        bound=BoundComparison(
            t=data["bound"]["t"], observed=data["bound"]["observed"]
        ),
        default_bit=(
            None
            if data["default_bit"] is None
            else decode_payload(data["default_bit"])
        ),
        critical_round=data["critical_round"],
        log=tuple(data["log"]),
        rounds_simulated=data["rounds_simulated"],
        rounds_baseline=data["rounds_baseline"],
    )


def _encode_point(point: Any) -> dict[str, Any]:
    return {
        "kind": "sweep-point",
        "protocol": point.protocol,
        "n": point.n,
        "t": point.t,
        "worst_messages": point.worst_messages,
        "scenario": point.scenario,
    }


def _decode_point(data: dict[str, Any]) -> Any:
    from repro.analysis.complexity import SweepPoint

    return SweepPoint(
        protocol=data["protocol"],
        n=data["n"],
        t=data["t"],
        worst_messages=data["worst_messages"],
        scenario=data["scenario"],
    )


def _encode_verdict(verdict: Any) -> dict[str, Any]:
    return {
        "kind": "classify-verdict",
        "problem": verdict.problem,
        "n": verdict.n,
        "t": verdict.t,
        "trivial": verdict.trivial,
        "cc_holds": verdict.cc_holds,
        "authenticated_solvable": verdict.authenticated_solvable,
        "unauthenticated_solvable": verdict.unauthenticated_solvable,
    }


def _decode_verdict(data: dict[str, Any]) -> Any:
    from repro.parallel.jobs import ClassifyVerdict

    return ClassifyVerdict(
        problem=data["problem"],
        n=data["n"],
        t=data["t"],
        trivial=data["trivial"],
        cc_holds=data["cc_holds"],
        authenticated_solvable=data["authenticated_solvable"],
        unauthenticated_solvable=data["unauthenticated_solvable"],
    )


def _encode_value(value: Any, certified: bool) -> dict[str, Any]:
    """Encode a job payload (outcome, sweep point or verdict).

    ``certified`` says the payload travels with its certificate bytes,
    which then hold an outcome's witness.
    """
    from repro.analysis.complexity import SweepPoint
    from repro.lowerbound.driver import AttackOutcome
    from repro.parallel.jobs import ClassifyVerdict

    if isinstance(value, AttackOutcome):
        return _encode_outcome(value, certified)
    if isinstance(value, SweepPoint):
        return _encode_point(value)
    if isinstance(value, ClassifyVerdict):
        return _encode_verdict(value)
    raise ReproError(
        f"cannot encode job value of type {type(value).__name__}"
    )


def _decode_value(data: dict[str, Any], certificate: str | None) -> Any:
    """Inverse of :func:`_encode_value`, given the text of the
    certificate the payload travelled with."""
    kind = data.get("kind")
    if kind == "attack-outcome":
        return _decode_outcome(data, certificate)
    if kind == "sweep-point":
        return _decode_point(data)
    if kind == "classify-verdict":
        return _decode_verdict(data)
    raise ReproError(f"unknown job value kind {kind!r}")


# ----------------------------------------------------------------------
# job results and errors
# ----------------------------------------------------------------------


def encode_job_result(result: Any) -> dict[str, Any]:
    """A shipped :class:`~repro.parallel.jobs.JobResult`, JSON-safe."""
    return {
        "key": list(result.key),
        "value": _encode_value(
            result.value, certified=result.certificate is not None
        ),
        "wall_seconds": result.wall_seconds,
        "cache": (
            None
            if result.cache is None
            else {
                "hits": result.cache.hits,
                "alias_hits": result.cache.alias_hits,
                "misses": result.cache.misses,
            }
        ),
        "rounds_simulated": result.rounds_simulated,
        "rounds_baseline": result.rounds_baseline,
        "certificate": (
            None
            if result.certificate is None
            else result.certificate.decode("utf-8")
        ),
        "events": (
            None
            if result.events is None
            else [event.payload() for event in result.events]
        ),
    }


def decode_job_result(data: dict[str, Any]) -> Any:
    """Inverse of :func:`encode_job_result`."""
    from repro.obs.ledger import LedgerEvent
    from repro.parallel.jobs import CacheStats, JobResult

    certificate = data["certificate"]
    return JobResult(
        key=tuple(data["key"]),
        value=_decode_value(data["value"], certificate),
        wall_seconds=data["wall_seconds"],
        cache=(
            None
            if data["cache"] is None
            else CacheStats(
                hits=data["cache"]["hits"],
                alias_hits=data["cache"]["alias_hits"],
                misses=data["cache"]["misses"],
            )
        ),
        rounds_simulated=data["rounds_simulated"],
        rounds_baseline=data["rounds_baseline"],
        certificate=(
            None if certificate is None else certificate.encode("utf-8")
        ),
        events=(
            None
            if data["events"] is None
            else tuple(
                LedgerEvent.from_payload(event)
                for event in data["events"]
            )
        ),
    )


def encode_job_error(
    key: str, error_kind: str, exc: BaseException, wall_seconds: float
) -> dict[str, Any]:
    """A failed job's ``job.error`` payload.

    ``message`` is ``"{Type}: {exc}"`` and ``detail`` the formatted
    traceback; ``error_kind`` is ``"exception"``, or ``"broken-pool"``
    when the job's worker died and its one re-run failed too.
    """
    return {
        "key": key,
        "error_kind": error_kind,
        "message": f"{type(exc).__name__}: {exc}",
        "detail": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        "wall_seconds": wall_seconds,
    }
