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
    """Every artifact loader shares one malformed-file diagnostic.

    The shared :mod:`repro.artifact` chokepoint guarantees the message
    shape ``<path>[:<line>]: not a <kind> (<ExcType>: <detail>)`` and
    the :class:`ArtifactError` type (CLI exit 2) across every family.
    """

    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

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

    @pytest.fixture(scope="class")
    def witness_data(self):
        import json

        from repro.lowerbound.driver import attack_weak_consensus
        from repro.protocols.subquadratic import silent_cheater_spec
        from repro.sim.serialization import dump_witness

        outcome = attack_weak_consensus(silent_cheater_spec(8, 4))
        return json.loads(dump_witness(outcome.witness))

    @pytest.mark.parametrize("case", [
        "truncated", "top-level-array", "execution-array",
        "behaviors-string", "wrong-format", "deep-nesting",
    ])
    def test_malformed_witness_exits_2(
        self, tmp_path, capsys, witness_data, case
    ):
        """``verify-witness`` loads through the shared chokepoint: a
        malformed file is exit 2 with the one-line diagnostic, never a
        traceback or a domain verdict."""
        import json

        from repro.cli import main

        data = json.loads(json.dumps(witness_data))
        if case == "truncated":
            text = json.dumps(data)[:40]
        elif case == "deep-nesting":
            text = "[" * 3000
        elif case == "top-level-array":
            text = json.dumps([data])
        else:
            if case == "execution-array":
                data["execution"] = []
            elif case == "behaviors-string":
                data["execution"]["behaviors"] = "x"
            else:
                data["format"] = "no"
            text = json.dumps(data)
        path = self._write(tmp_path, "bad-witness.json", text)
        argv = ["verify-witness", path, "silent", "--n", "8", "--t", "4"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}: not a violation witness" in err
        assert "Traceback" not in err

    def test_exit_2_from_cli(self, tmp_path, capsys):
        """A malformed artifact is an environment failure: exit 2.

        A line of the retired JSONL ledger is not a world-log record.
        """
        from repro.cli import main

        path = self._write(
            tmp_path,
            "run.jsonl",
            '{"ts": 0.0, "kind": "counter", "name": "cache.hits"}\n',
        )
        for argv in (["trace", path], ["metrics", "export", path]):
            assert main(argv) == 2
            message = capsys.readouterr().err
            assert f"{path}:1: not a world-log record" in message
