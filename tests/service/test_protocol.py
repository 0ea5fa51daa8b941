"""Tests for the service wire protocol and the idempotent job key."""

import pytest

from repro.parallel.jobs import AttackJob, ClassifyJob, MeasureJob
from repro.service.protocol import (
    OPS,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    job_key,
    parse_request,
)
from repro.worldlog.codec import encode_job


class TestJobKey:
    def test_same_spec_same_key(self):
        a = job_key(encode_job(AttackJob("silent", 12, 8)))
        b = job_key(encode_job(AttackJob("silent", 12, 8)))
        assert a == b

    def test_key_is_16_hex_digits(self):
        key = job_key(encode_job(MeasureJob("weak-consensus", 8, 4)))
        assert len(key) == 16
        int(key, 16)  # hex or raise

    def test_options_change_the_key(self):
        plain = job_key(encode_job(AttackJob("silent", 12, 8)))
        certified = job_key(
            encode_job(AttackJob("silent", 12, 8, certify=True))
        )
        assert plain != certified

    def test_kinds_never_collide(self):
        keys = {
            job_key(encode_job(job))
            for job in (
                AttackJob("silent", 8, 4),
                MeasureJob("silent", 8, 4),
                ClassifyJob("weak", 8, 4),
            )
        }
        assert len(keys) == 3


class TestFrames:
    def test_round_trip(self):
        frame = {"op": "submit", "tenant": "alice", "priority": 3}
        assert decode_frame(encode_frame(frame)) == frame

    def test_one_frame_per_line(self):
        assert encode_frame({"op": "ping"}).endswith(b"\n")
        assert b"\n" not in encode_frame({"op": "ping"})[:-1]

    def test_malformed_line_raises(self):
        with pytest.raises(ProtocolError, match="malformed frame"):
            decode_frame(b"not json at all\n")

    def test_deeply_nested_line_raises(self):
        # The server answers a ProtocolError with an error frame; a
        # RecursionError would escape that handler.
        with pytest.raises(ProtocolError, match="malformed frame"):
            decode_frame(b"[" * 3000 + b"\n")

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError, match="not an object"):
            decode_frame(b"[1, 2, 3]\n")

    def test_error_frame_shape(self):
        frame = error_frame("quota", "too many jobs")
        assert frame["ok"] is False
        assert frame["error"] == {
            "kind": "quota",
            "message": "too many jobs",
        }


class TestParseRequest:
    @pytest.mark.parametrize("op", OPS)
    def test_every_documented_op_parses(self, op):
        assert parse_request({"op": op}) == op

    def test_unknown_op_raises(self):
        with pytest.raises(ProtocolError, match="unknown op 'nope'"):
            parse_request({"op": "nope"})

    def test_missing_op_raises(self):
        with pytest.raises(ProtocolError, match="unknown op None"):
            parse_request({})
