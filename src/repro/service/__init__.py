"""The attack service: a multi-tenant job server over the world log.

``repro serve`` runs a :class:`JobServer`; ``repro submit`` /
``repro jobs`` / ``repro watch`` drive it through a
:class:`ServiceClient`.  The subsystem has four modules:

* :mod:`repro.service.protocol` — the framed-JSON wire protocol and
  the idempotent :func:`job_key`;
* :mod:`repro.service.queue` — the world-log recovery fold
  (:func:`recover_jobs`), whose ``queued_jobs`` is the run order;
* :mod:`repro.service.quota` — per-tenant admission control
  (:class:`QuotaPolicy`: pending caps plus a token-bucket rate limit);
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio server and its blocking client.

The design invariant, documented in ``docs/SERVICE.md`` and enforced
by ``tests/service``: **every accepted job reaches exactly one
terminal record, even across restarts** — the world log is the queue,
so a restarted server resumes it bit-identically.
"""

from __future__ import annotations

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    JOB_STATES,
    OPS,
    SERVICE_SCHEMA,
    ProtocolError,
    job_key,
)
from repro.service.queue import recover_jobs
from repro.service.quota import QuotaDecision, QuotaPolicy
from repro.service.server import JobServer

__all__ = [
    "JOB_STATES",
    "OPS",
    "SERVICE_SCHEMA",
    "JobServer",
    "ProtocolError",
    "QuotaDecision",
    "QuotaPolicy",
    "ServiceClient",
    "ServiceError",
    "job_key",
    "recover_jobs",
]
