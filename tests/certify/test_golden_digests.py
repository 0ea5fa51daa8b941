"""Certificate bytes and verifier reports, pinned against committed digests.

A small E3 slice — every cheater at ``t`` in {8, 16, 24}, with
``n = t + 4 + t % 5`` — runs as certifying attack jobs.  Each cell's
``JobResult.certificate`` (schema v2) must hash to the committed
``v2_sha256``, and its v1 expansion (:func:`v1_layout.expand_to_v1`) to
the committed ``sha256`` — the digest the v1 writer produced, so the
tables hold exactly what v1 wrote out at every use.  The independent
verifier must give the same report (conditions checked, failed
conditions, rendering) on every genuine certificate and on every
tampering-matrix forgery of the ``t = 8`` cells, which edit the v1
layout and are read through the verifier's v1 adapter.  The codec and
the verifier may get faster; their outputs may not move.

Regenerate the fixture only when the certificate format changes on
purpose::

    PYTHONPATH=src python tests/certify/test_golden_digests.py \\
        > tests/certify/golden_digests.json
"""

import copy
import hashlib
import json
import pathlib

import pytest

from repro.certify.verifier import verify_certificate
from repro.parallel.jobs import AttackJob
from test_tampering import MUTATIONS
from v1_layout import expand_to_v1, v1_bytes

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


def _tampered(v1_payload, mutate):
    """The report on one forgery of the v1 layout, or ``None`` where the
    mutator does not apply to this certificate (say, a witness edit on a
    bound-respected artifact)."""
    payload = copy.deepcopy(v1_payload)
    try:
        mutate(payload)
    except (AssertionError, LookupError, TypeError, ValueError):
        return None
    return _report(payload)


def _observe(builder, n, t, mutations):
    blob = AttackJob(builder, n, t, certify=True).run().certificate
    payload = json.loads(blob)
    observed = {
        "sha256": hashlib.sha256(v1_bytes(payload)).hexdigest(),
        "v2_sha256": hashlib.sha256(blob).hexdigest(),
        "report": _report(payload),
    }
    if t == TAMPERED_T:
        v1_payload = expand_to_v1(payload)
        observed["tampered"] = {
            mutate.__name__: _tampered(v1_payload, mutate)
            for mutate in mutations
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
