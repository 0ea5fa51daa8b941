"""Portable attack certificates (schema v2) and their independent verifier.

Two halves, deliberately decoupled:

* :mod:`repro.certify.format` — the producer side: the versioned
  :class:`Certificate` artifact and :func:`build_certificate`, used by
  the attack driver to package its claim.
* :mod:`repro.certify.verifier` — the consumer side:
  :func:`verify_certificate` re-derives every claim from the raw JSON
  artifact, sharing no code path with the driver's live checks.

Re-exports are lazy (PEP 562) so that ``import repro.certify.verifier``
does not drag the producer side — and with it the simulator and the
attack driver — into the process.  A third party auditing an artifact
loads stdlib-only code.

See ``docs/CERTIFICATES.md`` for the schema and the refutation workflow.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".format": (
            "CERTIFICATE_FORMAT", "CERTIFICATE_SCHEMA", "VERDICT_BOUND",
            "VERDICT_VIOLATION", "Certificate", "build_certificate",
        ),
        ".verifier": (
            "VerificationFailure", "VerificationReport", "verify_certificate",
        ),
    },
)
