"""Exception hierarchy for the library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class.  Model violations (an execution trace that breaks the
Appendix-A validity conditions) and protocol violations (a state machine
breaking the rules of the computational model, e.g. sending two messages to
the same receiver in one round) are distinguished because the former indicate
a broken *trace* and the latter a broken *algorithm*.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ArtifactError(ReproError):
    """A persisted artifact exists but cannot be understood.

    Raised when a run ledger, world log, attack certificate or similar
    on-disk artifact is truncated, is not valid JSON, or lacks required
    fields.  Distinguished from the other :class:`ReproError` subclasses
    because it is an *environment* failure: the CLI maps it (like
    :class:`OSError`) to exit code 2, not the domain-failure exit 1.
    """


class ModelViolation(ReproError):
    """An execution trace violates the formal execution model of Appendix A.

    Raised by the execution validity checker when one of the fragment
    conditions (A.1.4), behavior conditions (A.1.5) or execution guarantees
    (send-validity, receive-validity, omission-validity; A.1.6) fails.
    """


class ProtocolViolation(ReproError):
    """A process state machine broke the rules of the computational model.

    Examples: sending more than one message to the same receiver in a round,
    sending a message to itself, changing its decision after deciding.
    """


class AdversaryError(ReproError):
    """An adversary strategy requested an illegal corruption.

    Examples: corrupting more than ``t`` processes, forging a signature of a
    non-corrupted process, or an omission adversary attempting Byzantine
    (non-state-machine) behaviour.
    """


class SignatureError(ReproError):
    """Signature creation or verification failed structurally.

    Verification of a *forged* signature does not raise — it returns
    ``False``; this exception covers misuse such as signing for an unknown
    process id.
    """


class UnsolvableProblemError(ReproError):
    """A construction was asked to solve an unsolvable agreement problem.

    For instance, instantiating the Algorithm-2 reduction for a validity
    property that fails the containment condition, or an unauthenticated
    protocol with ``n <= 3t``.
    """


class TrivialProblemError(ReproError):
    """An operation that requires a non-trivial problem got a trivial one.

    The Algorithm-1 reduction (weak consensus from any non-trivial problem)
    is undefined for trivial problems: they have an always-admissible value.
    """
