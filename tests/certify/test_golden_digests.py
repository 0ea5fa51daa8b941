"""Certificate bytes and verifier reports, pinned against committed digests.

A small E3 slice — every cheater at ``t`` in {8, 16, 24}, with
``n = t + 4 + t % 5`` — runs as certifying attack jobs.  Each cell's
``JobResult.certificate`` must hash to the SHA-256 committed in
``golden_digests.json``, and the independent verifier must give the
same report (conditions checked, failed conditions, rendering) on every
genuine certificate and on every tampering-matrix forgery of the
``t = 8`` cells.  The codec and the verifier may get faster; their
outputs may not move.

Regenerate the fixture only when the certificate format changes on
purpose::

    PYTHONPATH=src python tests/certify/test_golden_digests.py \\
        > tests/certify/golden_digests.json
"""

import hashlib
import json
import pathlib

import pytest

from repro.certify.verifier import verify_certificate
from repro.parallel.jobs import AttackJob
from test_tampering import MUTATIONS

FIXTURE = pathlib.Path(__file__).with_name("golden_digests.json")
CHEATERS = ("silent", "leader-echo", "committee", "ring-token",
            "seeded-committee")
TS = (8, 16, 24)
TAMPERED_T = 8


def _cells():
    return [(builder, t + 4 + t % 5, t) for builder in CHEATERS for t in TS]


def _label(builder, n, t):
    return f"{builder}-n{n}-t{t}"


def _report(payload):
    report = verify_certificate(payload)
    return {
        "checked": report.conditions_checked,
        "failures": [failure.condition for failure in report.failures],
        "render_sha256": hashlib.sha256(
            report.render().encode("utf-8")
        ).hexdigest(),
    }


def _tampered(blob, mutate):
    """The report on one forgery, or ``None`` where the mutator does not
    apply to this certificate (say, a witness edit on a bound-respected
    artifact)."""
    payload = json.loads(blob)
    try:
        mutate(payload)
    except (AssertionError, LookupError, TypeError, ValueError):
        return None
    return _report(payload)


def _observe(builder, n, t, mutations):
    blob = AttackJob(builder, n, t, certify=True).run().certificate
    observed = {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "report": _report(json.loads(blob)),
    }
    if t == TAMPERED_T:
        observed["tampered"] = {
            mutate.__name__: _tampered(blob, mutate) for mutate in mutations
        }
    return observed


def _golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    ("builder", "n", "t"), _cells(), ids=[_label(*cell) for cell in _cells()]
)
def test_certificate_bytes_and_reports_match_golden(builder, n, t):
    expected = _golden()[_label(builder, n, t)]
    by_name = {mutate.__name__: mutate for mutate, _ in MUTATIONS}
    mutations = [by_name[name] for name in expected.get("tampered", {})]
    assert _observe(builder, n, t, mutations) == expected


def test_golden_covers_the_whole_slice():
    golden = _golden()
    assert sorted(golden) == sorted(_label(*cell) for cell in _cells())
    tampered = golden[_label("leader-echo", 8 + 4 + 8 % 5, 8)]["tampered"]
    # The forgeries really are checked: most mutators apply to a
    # leader-echo violation certificate, and every one that does is
    # rejected.
    applied = [report for report in tampered.values() if report]
    assert len(applied) >= 20
    assert all(report["failures"] for report in applied)


if __name__ == "__main__":
    print(json.dumps(
        {
            _label(*cell): _observe(
                *cell, [mutate for mutate, _ in MUTATIONS]
            )
            for cell in _cells()
        },
        indent=1,
        sort_keys=True,
    ))
