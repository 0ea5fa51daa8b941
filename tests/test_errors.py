"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    AdversaryError,
    ModelViolation,
    ProtocolViolation,
    ReproError,
    SignatureError,
    TrivialProblemError,
    UnsolvableProblemError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            ModelViolation,
            ProtocolViolation,
            AdversaryError,
            SignatureError,
            UnsolvableProblemError,
            TrivialProblemError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, ReproError)
        with pytest.raises(ReproError):
            raise exception("boom")

    def test_model_vs_protocol_distinct(self):
        """Broken traces and broken algorithms are different failures."""
        assert not issubclass(ModelViolation, ProtocolViolation)
        assert not issubclass(ProtocolViolation, ModelViolation)

    def test_catchable_individually(self):
        with pytest.raises(TrivialProblemError):
            raise TrivialProblemError("t")
        # But not as each other:
        with pytest.raises(TrivialProblemError):
            try:
                raise TrivialProblemError("t")
            except UnsolvableProblemError:  # pragma: no cover
                pytest.fail("wrong class caught")


class TestUniformArtifactDiagnostic:
    """All four artifact loaders share one malformed-file diagnostic.

    The shared :mod:`repro.artifact` chokepoint guarantees the message
    shape ``<path>[:<line>]: not a <kind> (<ExcType>: <detail>)`` and
    the :class:`ArtifactError` type (CLI exit 2) across every family.
    """

    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_ledger_events(self, tmp_path):
        from repro.errors import ArtifactError
        from repro.obs.ledger import read_events

        path = self._write(tmp_path, "garbage.jsonl", "not json\n")
        with pytest.raises(ArtifactError) as excinfo:
            read_events(path)
        message = str(excinfo.value)
        assert f"{path}:1: not a ledger event" in message

    def test_certificate(self, tmp_path):
        from repro.errors import ArtifactError
        from repro.certify.format import read_certificate

        path = self._write(tmp_path, "bad.cert.json", '{"format": "no"}')
        with pytest.raises(ArtifactError) as excinfo:
            read_certificate(path)
        message = str(excinfo.value)
        assert f"{path}: not an attack certificate" in message

    def test_world_log(self, tmp_path):
        from repro.errors import ArtifactError
        from repro.worldlog.store import read_worldlog

        path = self._write(
            tmp_path,
            "bad.worldlog",
            '{"tick": 0, "kind": "log.open", "run_id": "r", '
            '"cell_id": null, "worker_id": 0, "payload": {}}\n'
            "garbage\n",
        )
        with pytest.raises(ArtifactError) as excinfo:
            read_worldlog(path)
        assert f"{path}:2: not a world-log record" in str(excinfo.value)

    def test_exit_2_from_cli(self, tmp_path, capsys):
        """A malformed artifact is an environment failure: exit 2."""
        from repro.cli import main

        path = self._write(tmp_path, "garbage.jsonl", "not json\n")
        assert main(["trace", path]) == 2
        message = capsys.readouterr().err
        assert "not a ledger event" in message
