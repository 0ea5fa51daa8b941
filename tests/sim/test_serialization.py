"""Tests for execution JSON serialization."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.protocols.dolev_strong import dolev_strong_spec
from repro.protocols.external_validity import ClientPool
from repro.protocols.phase_king import phase_king_spec
from repro.sim.adversary import CrashAdversary
from repro.sim.execution import Execution, check_execution, check_transitions
from repro.sim.message import Message
from repro.sim.serialization import (
    canonical_json,
    decode_payload,
    encode_payload,
    execution_from_dict,
    execution_from_tables,
    executions_to_tables,
)
from repro.sim.state import Behavior, Fragment, StateSnapshot

# Children keep the caller's bytecode setting, so a run with
# PYTHONDONTWRITEBYTECODE writes no __pycache__ into src/.
BYTECODE_ENV = {
    key: value
    for key, value in os.environ.items()
    if key == "PYTHONDONTWRITEBYTECODE"
}


class TestPayloadCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -42,
            "text",
            b"\x00\xff",
            ("nested", (1, 2), None),
            frozenset({1, 2, 3}),
            frozenset({("a", 1), ("b", 2)}),
        ],
    )
    def test_roundtrip(self, value):
        assert decode_payload(encode_payload(value)) == value

    def test_bool_int_preserved(self):
        assert decode_payload(encode_payload(True)) is True
        assert decode_payload(encode_payload(1)) == 1

    def test_signature_roundtrip(self):
        from repro.crypto.keys import KeyRegistry
        from repro.crypto.signatures import SignatureScheme

        scheme = SignatureScheme(KeyRegistry(3))
        signature = scheme.signer_for(1).sign("m")
        restored = decode_payload(encode_payload(signature))
        assert restored == signature
        assert scheme.verify(restored, "m")

    def test_chain_roundtrip(self):
        from repro.crypto.chains import start_chain, verify_chain
        from repro.crypto.keys import KeyRegistry
        from repro.crypto.signatures import SignatureScheme

        scheme = SignatureScheme(KeyRegistry(3))
        chain = start_chain(scheme.signer_for(0), "i", "v").extend(
            scheme.signer_for(1)
        )
        restored = decode_payload(encode_payload(chain))
        assert restored == chain
        assert verify_chain(scheme, restored, 0)

    def test_transaction_roundtrip(self):
        pool = ClientPool(clients=2)
        transaction = pool.issue(1, "body")
        restored = decode_payload(encode_payload(transaction))
        assert restored == transaction
        assert pool.validator()(restored)

    def test_unknown_type_rejected(self):
        with pytest.raises(ReproError, match="cannot serialize"):
            encode_payload(object())

    def test_malformed_record_rejected(self):
        with pytest.raises(ReproError, match="malformed"):
            decode_payload({"no": "kind"})
        with pytest.raises(ReproError, match="unknown payload kind"):
            decode_payload({"k": "mystery"})


class TestCanonicalEncoding:
    """Regression: artifacts must be byte-identical across interpreters.

    Set iteration order varies with hash randomization; the codec sorts
    unordered collections by :func:`canonical_json` of their encoded
    elements, so the rendering depends only on values.  Before that fix,
    a tuple nested inside a frozenset could legally encode in different
    element orders on different interpreters.
    """

    NESTED = "frozenset({('a', 1), ('b', 2), ('c', 3), (0, 9)})"

    def test_construction_order_irrelevant(self):
        forward = frozenset({("a", 1), ("b", 2), ("c", 3)})
        backward = frozenset({("c", 3), ("b", 2), ("a", 1)})
        assert encode_payload(forward) == encode_payload(backward)

    def test_canonical_json_ignores_key_insertion_order(self):
        assert canonical_json({"k": "lit", "v": 1}) == canonical_json(
            {"v": 1, "k": "lit"}
        )

    def test_nested_sets_sorted_by_value(self):
        record = encode_payload(
            frozenset({(2, frozenset({5, 6})), (1, frozenset({7}))})
        )
        # Sorted by canonical JSON of the encoded elements, so the
        # (1, ...) tuple always precedes the (2, ...) tuple.
        assert [entry["v"][0]["v"] for entry in record["v"]] == [1, 2]

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_byte_identical_across_hash_seeds(self, seed, request):
        """The same payload renders identically under every hash seed —
        the property the old insertion-order sort key broke."""
        import json as json_module
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        script = (
            "import json\n"
            "from repro.sim.serialization import ("
            "canonical_json, encode_payload)\n"
            f"value = (1, {self.NESTED}, b'\\x00')\n"
            "print(canonical_json(encode_payload(value)))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={
                "PYTHONPATH": src,
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
                **BYTECODE_ENV,
            },
            capture_output=True,
            text=True,
            check=True,
        )
        rendering = completed.stdout.strip()
        # In-process reference: same value, this interpreter's seed.
        expected = canonical_json(
            encode_payload((1, eval(self.NESTED), b"\x00"))
        )
        assert rendering == expected
        assert json_module.loads(rendering)  # stays valid JSON


def canonical_text(execution):
    """The canonical JSON of ``execution`` encoded alone into tables."""
    return canonical_json(executions_to_tables({"e": execution}))


def roundtrip(execution):
    """An execution through its canonical JSON text and back."""
    tables = json.loads(canonical_text(execution))
    return execution_from_tables(
        tables["executions"]["e"], tables["fragments"], tables["messages"]
    )


class TestExecutionRoundtrip:
    def test_phase_king_execution(self):
        spec = phase_king_spec(4, 1)
        original = spec.run([0, 1, 1, 0], CrashAdversary({2: 3}))
        restored = roundtrip(original)
        assert restored == original
        check_execution(restored)
        check_transitions(restored, spec.factory)

    def test_dolev_strong_with_signatures(self):
        """Chains in payloads survive the trip and still verify."""
        spec = dolev_strong_spec(4, 1)
        original = spec.run(["v", 0, 0, 0])
        restored = roundtrip(original)
        assert restored == original
        check_transitions(restored, spec.factory)

    def test_deterministic_output(self):
        spec = phase_king_spec(4, 1)
        execution = spec.run([0, 1, 1, 0])
        assert canonical_text(execution) == canonical_text(execution)

    def test_bad_format_rejected(self):
        with pytest.raises(ReproError, match="unsupported"):
            execution_from_dict({"format": 99})

    # Message sets of nested-frozenset payloads, under two labels: every
    # order the table encoder fixes (labels, message refs, set payloads)
    # is one that hash randomization would otherwise scramble.
    TABLES_SCRIPT = (
        "from repro.sim.execution import Execution\n"
        "from repro.sim.message import Message\n"
        "from repro.sim.serialization import (\n"
        "    canonical_json, executions_to_tables)\n"
        "from repro.sim.state import Behavior, Fragment, StateSnapshot\n"
        "payloads = [frozenset({('a', 1), ('b', 2), ('c', 3), (0, 9)}),\n"
        "            frozenset({(2, frozenset({5, 6})), (1, frozenset({7}))}),\n"
        "            'x', b'\\x00']\n"
        "messages = [Message(s, r, 1, payloads[(s + r) % 4])\n"
        "            for s in range(3) for r in range(3) if s != r]\n"
        "behaviors = tuple(Behavior((Fragment(\n"
        "    state=StateSnapshot(p, 1, frozenset({p, 'v'})),\n"
        "    sent=frozenset(m for m in messages if m.sender == p),\n"
        "    received=frozenset(m for m in messages if m.receiver == p),\n"
        "),), final_state=StateSnapshot(p, 2, 0)) for p in range(3))\n"
        "execution = Execution(n=3, t=1, faulty=frozenset(),\n"
        "                      behaviors=behaviors)\n"
        "rendering = canonical_json(\n"
        "    executions_to_tables({'b': execution, 'a': execution}))\n"
    )

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_tables_byte_identical_across_hash_seeds(self, seed):
        """An execution's tables render identically under every hash
        seed."""
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", self.TABLES_SCRIPT + "print(rendering)"],
            env={
                "PYTHONPATH": src,
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
                **BYTECODE_ENV,
            },
            capture_output=True,
            text=True,
            check=True,
        )
        scope: dict = {}
        exec(self.TABLES_SCRIPT, scope)  # this interpreter's seed
        assert completed.stdout.strip() == scope["rendering"]
        tables = json.loads(scope["rendering"])
        decoded = execution_from_tables(
            tables["executions"]["a"], tables["fragments"], tables["messages"]
        )
        assert decoded == scope["execution"]


class TestRoundtripProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        corrupted=st.sets(st.integers(0, 6), min_size=1, max_size=2),
        drop_slots=st.sets(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 6),
                st.integers(1, 4),
            ),
            max_size=8,
        ),
    )
    def test_roundtrip_under_random_omissions(
        self, corrupted, drop_slots
    ):
        """Property: arbitrary omission-scarred traces survive the JSON
        trip exactly."""
        from repro.sim.adversary import (
            OmissionSchedule,
            ScheduledOmissionAdversary,
        )

        spec = phase_king_spec(7, 2)
        adversary = ScheduledOmissionAdversary(
            corrupted,
            OmissionSchedule(
                send_drops=lambda m: (
                    (m.sender, m.receiver, m.round) in drop_slots
                ),
                receive_drops=lambda m: (
                    (m.receiver, m.sender, m.round) in drop_slots
                ),
            ),
        )
        original = spec.run_uniform(1, adversary)
        restored = roundtrip(original)
        assert restored == original


N = 3
SLOTS = [(s, r) for s in range(N) for r in range(N) if s != r]
PAYLOADS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.sampled_from(["a", b"\x00"]),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)
# Equal messages that encode differently: True == 1, and
# frozenset({True}) == frozenset({1}).
LEFT_TWINS = (Message(0, 1, 1, True), Message(1, 2, 1, frozenset({True})))
RIGHT_TWINS = (Message(0, 1, 1, 1), Message(1, 2, 1, frozenset({1})))


def _one_round_execution(messages) -> Execution:
    """Every message sent and received in round 1; the first of two
    equal messages is the one a fragment keeps."""
    behaviors = []
    for pid in range(N):
        fragment = Fragment(
            state=StateSnapshot(pid, 1, 0),
            sent=frozenset(m for m in messages if m.sender == pid),
            received=frozenset(m for m in messages if m.receiver == pid),
        )
        behaviors.append(
            Behavior((fragment,), final_state=StateSnapshot(pid, 2, 0))
        )
    return Execution(
        n=N, t=1, faulty=frozenset(), behaviors=tuple(behaviors)
    )


@st.composite
def message_batches(draw):
    """Message lists, one per execution, drawn from one pool of message
    objects so that executions share them; two of the lists hold the
    left and the right twins."""
    pool = [
        Message(sender, receiver, 1, draw(PAYLOADS))
        for sender, receiver in draw(st.lists(st.sampled_from(SLOTS),
                                              max_size=6))
    ]
    subsets = (
        st.lists(st.sampled_from(pool), max_size=6) if pool else st.just([])
    )
    batches = [draw(subsets) for _ in range(draw(st.integers(0, 2)))]
    batches.append(list(LEFT_TWINS) + draw(subsets))
    batches.append(list(RIGHT_TWINS) + draw(subsets))
    return draw(st.permutations(batches))


class TestSharedMemoProperty:
    """Property: encoding executions into shared content-addressed tables
    loses nothing that encoding each execution alone keeps.

    The tables are filled through identity memos and keyed by canonical
    JSON.  Every drawn batch holds equal messages that encode differently
    in separate executions, so a memo or a table keyed by equality would
    hand one execution the other's record; the decoded executions would
    still compare equal (``True == 1``), but their canonical strings
    would not.
    """

    @settings(max_examples=60, deadline=None)
    @given(batches=message_batches())
    def test_shared_memo_matches_encoding_alone(self, batches):
        executions = {
            f"e{index}": _one_round_execution(messages)
            for index, messages in enumerate(batches)
        }
        tables = executions_to_tables(executions)
        for label, execution in executions.items():
            decoded = execution_from_tables(
                tables["executions"][label],
                tables["fragments"],
                tables["messages"],
            )
            assert canonical_text(decoded) == canonical_text(execution)
        # Each record is stored once, so twins are two entries.
        for table in ("messages", "fragments"):
            keys = [canonical_json(entry) for entry in tables[table]]
            assert len(keys) == len(set(keys))
