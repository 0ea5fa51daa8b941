"""Shared fixtures: certified attack outcomes to dissect.

Session-scoped — the attacks are deterministic and read-only; tests that
mutate artifacts deep-copy the payload first.  The writer ships schema
v2; the ``*_v1_payload`` fixtures are the published v1 layout of the
same artifacts (:func:`v1_layout.expand_to_v1`), which the verifier
reads through its interning adapter.
"""

import json

import pytest

from repro.lowerbound.driver import attack_weak_consensus
from repro.protocols.subquadratic import leader_echo_spec
from repro.protocols.weak_consensus import naive_flooding_spec
from v1_layout import expand_to_v1


@pytest.fixture(scope="session")
def violation_setup():
    """A certified violation: (spec, outcome) for a broken cheater.

    leader-echo actually sends messages, so the artifact exercises the
    message-level conditions (silent's traces are all-empty).
    """
    spec = leader_echo_spec(12, 8)
    outcome = attack_weak_consensus(spec, certify=True)
    assert outcome.witness is not None
    assert outcome.certificate is not None
    return spec, outcome


@pytest.fixture(scope="session")
def violation_certificate(violation_setup):
    return violation_setup[1].certificate


@pytest.fixture(scope="session")
def violation_v1_payload(violation_certificate):
    """The violation certificate in the v1 layout (never share: copy)."""
    return expand_to_v1(json.loads(violation_certificate.to_bytes()))


@pytest.fixture(scope="session")
def bound_setup():
    """A certified bound-respected outcome: (spec, outcome)."""
    spec = naive_flooding_spec(8, 4)
    outcome = attack_weak_consensus(spec, certify=True)
    assert outcome.witness is None
    assert outcome.certificate is not None
    return spec, outcome


@pytest.fixture(scope="session")
def bound_v1_payload(bound_setup):
    """The bound-respected certificate in the v1 layout."""
    return expand_to_v1(json.loads(bound_setup[1].certificate.to_bytes()))
