"""Certificate tampering: every forgery is rejected, by name.

The acceptance bar for the verifier: mutate each section of a real
certificate — a message payload, a fragment bound, the message count,
the claims — and the verifier must reject the artifact with the
*correct named condition* as the first violated one, not merely "some
check failed".

The matrix (``MUTATIONS``) edits the published v1 layout, where every
message and fragment is written out at each use; the verifier reads it
through its interning adapter, so these rows pin that one verification
path gives v1 artifacts the conditions they always had.  Each mutator
receives a deep copy of the v1 payload and edits it in place.  Mutators
replace list entries with fresh dicts (``{**message, ...}``) rather than
editing message records, so that a mutation tampers exactly the one use
it names.

``TestTableTampering`` forges the v2 tables themselves: dangling,
negative and non-integer indices, entries used where they do not
belong, and entries stored twice.
"""

import copy
import json

import pytest

from repro.certify.verifier import verify_certificate


def _canon(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _witness_record(payload):
    return payload["executions"][payload["witness"]["execution"]]


def _first_sent(record, predicate=lambda message: True):
    """Locate the first matching sent message: (fragment, index)."""
    for behavior in record["behaviors"]:
        for fragment in behavior["fragments"]:
            for index, message in enumerate(fragment["sent"]):
                if predicate(message):
                    return fragment, index
    raise AssertionError("fixture has no sent message matching the test")


def _first_received(record, predicate=lambda message: True):
    """Locate the first matching received message: (fragment, index)."""
    for behavior in record["behaviors"]:
        for fragment in behavior["fragments"]:
            for index, message in enumerate(fragment["received"]):
                if predicate(message):
                    return fragment, index
    raise AssertionError(
        "fixture has no received message matching the test"
    )


# -- mutators: each edits one section of the payload in place ----------


def schema_version(payload):
    payload["schema"] = 99


def missing_section(payload):
    del payload["accounting"]


def fault_budget(payload):
    record = _witness_record(payload)
    record["faulty"] = list(range(payload["claim"]["t"] + 1))


def composition(payload):
    _witness_record(payload)["behaviors"].pop()


def state_identity(payload):
    state = _witness_record(payload)["behaviors"][2]["fragments"][0][
        "state"
    ]
    assert state["process"] == 2
    state["process"] = 3


def message_round(payload):
    fragment, index = _first_sent(_witness_record(payload))
    message = fragment["sent"][index]
    fragment["sent"][index] = {**message, "round": message["round"] + 1}


def duplicate_receiver(payload):
    fragment, index = _first_sent(_witness_record(payload))
    message = fragment["sent"][index]
    fragment["sent"].append({**message, "payload": {"forged": True}})


def self_message(payload):
    fragment, index = _first_sent(_witness_record(payload))
    message = fragment["sent"][index]
    fragment["sent"][index] = {**message, "receiver": message["sender"]}


def sender_side_payload(payload):
    fragment, index = _first_sent(
        _witness_record(payload),
        lambda message: message["sender"] < message["receiver"],
    )
    message = fragment["sent"][index]
    fragment["sent"][index] = {**message, "payload": {"forged": True}}


def receiver_side_payload(payload):
    fragment, index = _first_received(
        _witness_record(payload),
        lambda message: message["sender"] > message["receiver"],
    )
    message = fragment["received"][index]
    fragment["received"][index] = {**message, "payload": {"forged": True}}


def unreported_omission(payload):
    record = _witness_record(payload)
    faulty = set(record["faulty"])
    fragment, index = _first_received(
        record, lambda message: message["receiver"] not in faulty
    )
    fragment["receive_omitted"].append(fragment["received"].pop(index))


def round_sequence(payload):
    state = _witness_record(payload)["behaviors"][1]["fragments"][1][
        "state"
    ]
    state["round"] = 99


def unstable_proposal(payload):
    state = _witness_record(payload)["behaviors"][1]["fragments"][1][
        "state"
    ]
    state["proposal"] = {"forged": True}


def predecided(payload):
    state = _witness_record(payload)["behaviors"][1]["fragments"][0][
        "state"
    ]
    assert state["decision"] is None
    state["decision"] = {"forged": True}


def final_state_round(payload):
    _witness_record(payload)["behaviors"][1]["final_state"]["round"] = 99


def isolation_group(payload):
    claim = payload["isolation"][0]
    record = payload["executions"][claim["execution"]]
    correct = min(
        pid
        for pid in range(record["n"])
        if pid not in set(record["faulty"])
    )
    claim["group"].append(correct)


def indistinguishability_dangling(payload):
    payload["indistinguishability"][0]["left"] = "ghost"


def indistinguishability_semantic(payload):
    # Un-deliver one message (both sides) in the witness execution only:
    # every A.1.4/A.1.6 condition still holds, but the receiver's view
    # no longer matches the pre-swap execution's.
    record = _witness_record(payload)
    for behavior in record["behaviors"]:
        for fragment in behavior["fragments"]:
            for index, message in enumerate(fragment["sent"]):
                receiver = record["behaviors"][message["receiver"]]
                target = receiver["fragments"][message["round"] - 1]
                for other_index, other in enumerate(target["received"]):
                    if _canon(other) == _canon(message):
                        target["received"].pop(other_index)
                        fragment["sent"].pop(index)
                        return
    raise AssertionError("fixture has no delivered message")


def witness_dangling(payload):
    payload["witness"]["execution"] = "ghost"


def witness_kind(payload):
    payload["witness"]["kind"] = "magic"


def culprit_faulty(payload):
    record = _witness_record(payload)
    culprit = payload["witness"]["culprit"]
    assert culprit not in record["faulty"]
    assert len(record["faulty"]) < payload["claim"]["t"]
    record["faulty"].append(culprit)


def agreement_forged(payload):
    # Rewrite the culprit's decisions (wherever written) to match the
    # counterpart's, keeping A.1.5 write-once intact — the disagreement
    # claim itself is the only thing that breaks.
    witness = payload["witness"]
    record = _witness_record(payload)
    other = record["behaviors"][witness["counterpart"]]["final_state"][
        "decision"
    ]
    assert other is not None
    behavior = record["behaviors"][witness["culprit"]]
    for fragment in behavior["fragments"]:
        if fragment["state"]["decision"] is not None:
            fragment["state"]["decision"] = other
    behavior["final_state"]["decision"] = other


def termination_claimed_but_decided(payload):
    witness = payload["witness"]
    record = _witness_record(payload)
    assert record["behaviors"][witness["culprit"]]["final_state"][
        "decision"
    ] is not None
    witness["kind"] = "termination"


def counterpart_missing(payload):
    payload["witness"]["counterpart"] = None


def counterpart_faulty(payload):
    payload["witness"]["counterpart"] = _witness_record(payload)["faulty"][0]


def agreeing_parties(payload):
    # Two correct processes that decided alike, claimed to disagree.
    witness = payload["witness"]
    record = _witness_record(payload)
    decided = record["behaviors"][witness["counterpart"]]["final_state"][
        "decision"
    ]
    witness["culprit"] = next(
        pid
        for pid, behavior in enumerate(record["behaviors"])
        if pid != witness["counterpart"]
        and pid not in record["faulty"]
        and behavior["final_state"]["decision"] == decided
    )


def weak_validity_with_faults(payload):
    assert _witness_record(payload)["faulty"]
    payload["witness"]["kind"] = "weak-validity"


def count_inflated(payload):
    payload["accounting"]["per_execution"]["witness"] += 1


def floor_lowered(payload):
    payload["accounting"]["floor"] = 0.0


def verdict_flip(payload):
    payload["claim"]["verdict"] = "bound-respected"


def provenance_op(payload):
    payload["provenance"][0]["op"] = "conjure"


def provenance_dangling(payload):
    step = payload["provenance"][-1]
    assert "result" in step
    step["result"] = "ghost"


# -- malformed sections: named conditions, never a traceback ------------


def isolation_not_a_dict(payload):
    payload["isolation"][0] = "pre-swap"


def indistinguishability_not_a_dict(payload):
    payload["indistinguishability"][0] = "pre-swap"


def witness_not_a_dict(payload):
    payload["witness"] = "witness"


def provenance_inputs_not_a_list(payload):
    payload["provenance"][0]["inputs"] = 7


def provenance_op_not_a_string(payload):
    payload["provenance"][0]["op"] = ["swap"]


def accounting_counts_not_a_dict(payload):
    payload["accounting"]["per_execution"] = []


MUTATIONS = [
    (schema_version, "schema.version"),
    (missing_section, "schema.structure"),
    (fault_budget, "A.1.6.fault-budget"),
    (composition, "A.1.6.composition"),
    (state_identity, "A.1.4.state"),
    (message_round, "A.1.4.round"),
    (self_message, "A.1.4.no-self"),
    (duplicate_receiver, "A.1.4.unique-receiver"),
    (round_sequence, "A.1.5.round-sequence"),
    (unstable_proposal, "A.1.5.stable-proposal"),
    (predecided, "A.1.5.write-once-decision"),
    (final_state_round, "A.1.5.final-state"),
    (sender_side_payload, "A.1.6.send-validity"),
    (receiver_side_payload, "A.1.6.receive-validity"),
    (unreported_omission, "A.1.6.omission-validity"),
    (isolation_group, "definition-1.isolation"),
    (indistinguishability_dangling, "s3.indistinguishability"),
    (indistinguishability_semantic, "s3.indistinguishability"),
    (witness_dangling, "witness.reference"),
    (witness_kind, "witness.reference"),
    (culprit_faulty, "witness.culprit-correct"),
    (agreement_forged, "witness.agreement"),
    (termination_claimed_but_decided, "witness.termination"),
    (counterpart_missing, "witness.agreement"),
    (counterpart_faulty, "witness.agreement"),
    (agreeing_parties, "witness.agreement"),
    (weak_validity_with_faults, "witness.weak-validity"),
    (count_inflated, "accounting.message-count"),
    (floor_lowered, "accounting.floor"),
    (verdict_flip, "accounting.verdict"),
    (provenance_op, "provenance.reference"),
    (provenance_dangling, "provenance.reference"),
    (isolation_not_a_dict, "schema.structure"),
    (indistinguishability_not_a_dict, "schema.structure"),
    (witness_not_a_dict, "schema.structure"),
    (provenance_inputs_not_a_list, "provenance.reference"),
    (provenance_op_not_a_string, "provenance.reference"),
    (accounting_counts_not_a_dict, "schema.structure"),
]


class TestTamperingMatrix:
    @pytest.mark.parametrize(
        ("mutate", "condition"),
        MUTATIONS,
        ids=[mutate.__name__ for mutate, _ in MUTATIONS],
    )
    def test_mutation_rejected_with_named_condition(
        self, violation_v1_payload, mutate, condition
    ):
        payload = copy.deepcopy(violation_v1_payload)
        mutate(payload)
        report = verify_certificate(payload)
        assert not report.ok
        assert report.first.condition == condition
        # The failure is located, not just named.
        assert report.first.detail

    def test_untampered_baseline_still_verifies(
        self, violation_v1_payload
    ):
        # Guards the matrix against a fixture that was broken all along.
        assert verify_certificate(copy.deepcopy(violation_v1_payload)).ok


class TestBoundCertificateTampering:
    def test_observed_count_inflated(self, bound_v1_payload):
        payload = copy.deepcopy(bound_v1_payload)
        payload["accounting"]["observed"] += 7
        report = verify_certificate(payload)
        assert not report.ok
        assert report.first.condition == "accounting.observed"

    def test_verdict_forged_without_witness(self, bound_v1_payload):
        payload = copy.deepcopy(bound_v1_payload)
        payload["claim"]["verdict"] = "violation"
        report = verify_certificate(payload)
        assert not report.ok
        assert report.first.condition == "accounting.verdict"

    def test_weak_validity_claim_on_the_unanimous_decision(
        self, bound_v1_payload
    ):
        """A fault-free, unanimous run whose culprit decided the
        proposal breaches nothing."""
        payload = copy.deepcopy(bound_v1_payload)
        (label,) = payload["executions"]
        assert not payload["executions"][label]["faulty"]
        payload["witness"] = {
            "execution": label,
            "kind": "weak-validity",
            "culprit": 0,
            "counterpart": None,
            "note": "forged",
        }
        payload["claim"]["verdict"] = "violation"
        report = verify_certificate(payload)
        assert not report.ok
        assert report.first.condition == "witness.weak-validity"


class TestReplayTampering:
    def test_consistent_rewrite_caught_only_by_replay(
        self, violation_setup, violation_v1_payload
    ):
        """A forgery beyond structural reach: rewrite one delivered
        message's payload consistently — sender and receiver sides, in
        every embedded execution — so all A.1.4/A.1.6 cross-checks and
        the indistinguishability claims still hold.  Only replaying the
        algorithm (behavior condition 7) can notice the process never
        sends that payload."""
        spec, _ = violation_setup
        payload = copy.deepcopy(violation_v1_payload)
        executions = payload["executions"]

        # Pick a delivered message present in every execution, and a
        # donor payload (another message's — hence codec-decodable)
        # with a different value.
        def canons(record, bucket):
            return {
                _canon(message)
                for behavior in record["behaviors"]
                for fragment in behavior["fragments"]
                for message in fragment[bucket]
            }

        everywhere = set.intersection(
            *(
                canons(record, "sent") & canons(record, "received")
                for record in executions.values()
            )
        )
        assert everywhere, "fixture has no universally delivered message"
        target = json.loads(sorted(everywhere)[0])
        donor = None
        for canon in sorted(canons(_witness_record(payload), "sent")):
            candidate = json.loads(canon)
            if _canon(candidate["payload"]) != _canon(target["payload"]):
                donor = candidate["payload"]
                break
        assert donor is not None, "fixture messages are all identical"

        target_canon = _canon(target)
        rewritten = 0
        for record in executions.values():
            for behavior in record["behaviors"]:
                for fragment in behavior["fragments"]:
                    for bucket in (
                        "sent",
                        "received",
                        "send_omitted",
                        "receive_omitted",
                    ):
                        entries = fragment[bucket]
                        for index, message in enumerate(entries):
                            if _canon(message) == target_canon:
                                entries[index] = {
                                    **message,
                                    "payload": donor,
                                }
                                rewritten += 1
        assert rewritten >= 2 * len(executions)

        structural = verify_certificate(payload)
        assert structural.ok, structural.render()
        replayed = verify_certificate(payload, factory=spec.factory)
        assert not replayed.ok
        assert replayed.first.condition == "A.1.5.transition-replay"


# -- v2 table forgeries -------------------------------------------------


def _first_fragment_with(payload, field):
    """Index of the first ``fragments`` entry with a non-empty ``field``."""
    for index, entry in enumerate(payload["fragments"]):
        if entry[field]:
            return index
    raise AssertionError(f"fixture has no fragment with {field} messages")


def dangling_message_index(payload):
    entry = payload["fragments"][_first_fragment_with(payload, "sent")]
    entry["sent"][0] = len(payload["messages"])


def dangling_fragment_index(payload):
    behavior = _witness_record(payload)["behaviors"][0]
    behavior["fragments"][0] = len(payload["fragments"])


def negative_message_index(payload):
    entry = payload["fragments"][_first_fragment_with(payload, "sent")]
    entry["sent"][0] = -1


def negative_fragment_index(payload):
    _witness_record(payload)["behaviors"][0]["fragments"][0] = -1


def true_as_message_index(payload):
    # lst[True] is lst[1] in Python; the reader must not agree.
    entry = payload["fragments"][_first_fragment_with(payload, "sent")]
    entry["sent"][0] = True


def float_as_fragment_index(payload):
    behavior = _witness_record(payload)["behaviors"][0]
    behavior["fragments"][0] = float(behavior["fragments"][0])


def true_as_fragment_index(payload):
    _witness_record(payload)["behaviors"][0]["fragments"][0] = True


def entry_at_wrong_pid(payload):
    behaviors = _witness_record(payload)["behaviors"]
    behaviors[1]["fragments"][0] = behaviors[2]["fragments"][0]


def entry_at_wrong_round(payload):
    fragments = _witness_record(payload)["behaviors"][1]["fragments"]
    fragments[0], fragments[1] = fragments[1], fragments[0]


def duplicated_message_entry(payload):
    payload["messages"].append(dict(payload["messages"][0]))


def duplicated_fragment_entry(payload):
    payload["fragments"].append(copy.deepcopy(payload["fragments"][0]))


def messages_not_a_list(payload):
    payload["messages"] = {"0": payload["messages"][0]}


def message_entry_malformed(payload):
    payload["messages"][0] = {**payload["messages"][0], "round": "1"}


TABLE_MUTATIONS = [
    (dangling_message_index, "table.reference"),
    (dangling_fragment_index, "table.reference"),
    (negative_message_index, "table.reference"),
    (negative_fragment_index, "table.reference"),
    (true_as_message_index, "table.reference"),
    (float_as_fragment_index, "table.reference"),
    (true_as_fragment_index, "table.reference"),
    (entry_at_wrong_pid, "A.1.4.state"),
    (entry_at_wrong_round, "A.1.4.state"),
    (duplicated_message_entry, "table.duplicate"),
    (duplicated_fragment_entry, "table.duplicate"),
    (messages_not_a_list, "schema.structure"),
    (message_entry_malformed, "schema.structure"),
]


class TestTableTampering:
    """Forgeries of the v2 tables, each rejected with a named condition.

    Payloads are parsed from the shipped bytes, so no two uses share a
    record object."""

    @pytest.mark.parametrize(
        ("mutate", "condition"),
        TABLE_MUTATIONS,
        ids=[mutate.__name__ for mutate, _ in TABLE_MUTATIONS],
    )
    def test_table_forgery_rejected_with_named_condition(
        self, violation_certificate, mutate, condition
    ):
        payload = json.loads(violation_certificate.to_bytes())
        mutate(payload)
        report = verify_certificate(payload)
        assert not report.ok
        assert condition in [failure.condition for failure in report.failures]
        assert report.first.detail

    def test_misplaced_entry_is_the_first_failure_at_the_wrong_pid(
        self, violation_certificate
    ):
        payload = json.loads(violation_certificate.to_bytes())
        entry_at_wrong_pid(payload)
        assert verify_certificate(payload).first.condition == "A.1.4.state"

    def test_untampered_tables_verify(self, violation_certificate):
        assert verify_certificate(
            json.loads(violation_certificate.to_bytes())
        ).ok

    def test_table_rewrite_caught_only_by_replay(self, violation_setup):
        """One ``messages`` entry stands for every use of the message, so
        rewriting its payload is a consistent forgery across every
        execution: only replaying the algorithm can notice it."""
        spec, outcome = violation_setup
        payload = json.loads(outcome.certificate.to_bytes())
        messages = payload["messages"]
        delivered = {
            ref
            for entry in payload["fragments"]
            for ref in entry["received"]
        }
        target = min(delivered)
        donor = next(
            message["payload"]
            for message in messages
            if _canon(message["payload"])
            != _canon(messages[target]["payload"])
        )
        messages[target] = {**messages[target], "payload": donor}
        assert verify_certificate(payload).ok
        replayed = verify_certificate(payload, factory=spec.factory)
        assert replayed.first.condition == "A.1.5.transition-replay"
