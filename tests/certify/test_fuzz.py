"""Byte-level fuzzing of the v2 certificate reader.

One genuine v2 certificate is truncated, bit-flipped, or has a table
entry reordered or duplicated, and every result goes to
``verify_certificate`` and to ``repro verify-cert --replay``.  Neither
may raise: the verifier rejects with named conditions, the CLI exits 0,
1 or 2.  Truncations, reorderings and duplications always change what
the verifier checks, so they must be rejected; a bit flip may land in
free text the certificate does not claim anything about (a witness
note, a protocol name) and still verify.

Fixed seed and example count, so CI sees the same inputs every run.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.certify import verifier
from repro.cli import main
from repro.parallel import AttackJob

CONDITIONS = {
    value
    for name, value in vars(verifier).items()
    if name.isupper() and isinstance(value, str) and "." in value
}


@functools.cache
def _genuine() -> bytes:
    return AttackJob("leader-echo", 12, 8, certify=True).run().certificate


@st.composite
def mutated(draw):
    """``(kind, bytes)``: one mutation of the genuine certificate."""
    blob = _genuine()
    kind = draw(st.sampled_from(("truncate", "flip", "reorder", "duplicate")))
    if kind == "truncate":
        return kind, blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        position = draw(st.integers(0, len(blob) - 1))
        flipped = blob[position] ^ (1 << draw(st.integers(0, 7)))
        return kind, blob[:position] + bytes([flipped]) + blob[position + 1:]
    payload = json.loads(blob)
    entries = payload[draw(st.sampled_from(("messages", "fragments")))]
    first = draw(st.integers(0, len(entries) - 1))
    second = draw(
        st.integers(0, len(entries) - 1).filter(lambda i: i != first)
    )
    if kind == "reorder":
        entries[first], entries[second] = entries[second], entries[first]
    else:
        entries.insert(second, dict(entries[first]))
    return kind, json.dumps(payload, sort_keys=True).encode("utf-8")


def _cli(blob: bytes) -> int:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "fuzzed.cert.json")
        with open(path, "wb") as handle:
            handle.write(blob)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["verify-cert", path, "--replay", "leader-echo"])


class TestCertificateFuzz:
    def test_genuine_certificate_verifies(self):
        assert verifier.verify_certificate(_genuine()).ok
        assert _cli(_genuine()) == 0

    @seed(20231108)
    @settings(max_examples=150, deadline=None, derandomize=False)
    @given(case=mutated())
    def test_mutations_never_crash_the_reader(self, case):
        kind, blob = case
        report = verifier.verify_certificate(blob)
        assert {failure.condition for failure in report.failures} <= (
            CONDITIONS
        )
        if kind != "flip":
            assert not report.ok, kind
            assert report.first.detail
        code = _cli(blob)
        assert code in (0, 1, 2)
        assert (code == 0) == (report.ok and _replays(blob))


def _replays(blob: bytes) -> bool:
    from repro.protocols.subquadratic import leader_echo_spec

    return verifier.verify_certificate(
        blob, factory=leader_echo_spec(12, 8).factory
    ).ok
