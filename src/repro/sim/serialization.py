"""JSON serialization for executions.

A counterexample is only as useful as its portability: a third party
should be able to load it and re-run the checks without re-running the
attack.  This module round-trips the full Appendix-A record —
executions, behaviors, fragments, messages — through plain JSON.

Executions have one writer, :func:`executions_to_tables`: each distinct
message and fragment is stored once in content-addressed tables, which
:func:`execution_from_tables` reads back.  An attack certificate
(:mod:`repro.certify.format`) embeds its executions this way, and so
does an uncertified ``job.result`` record (:mod:`repro.worldlog.codec`).
:func:`execution_from_dict` reads the older per-execution layout
(``"format": 1``) that published v1 certificates and ``job.result``
records written before the tables still carry; nothing writes it.

Payloads are arbitrary hashables in memory; the codec covers the closed
set of types the library's protocols actually put on the wire:

* ``None``, ``bool``, ``int``, ``str``, ``bytes``;
* ``tuple`` and ``frozenset`` of codable values;
* :class:`~repro.crypto.signatures.Signature` and
  :class:`~repro.crypto.chains.SignedChain`;
* :class:`~repro.protocols.external_validity.Transaction`.

Unknown types raise :class:`~repro.errors.ReproError` at encode time —
fail loudly rather than write an artifact that cannot be reloaded.

Encoding is *canonical*: the same value always yields the same JSON,
regardless of set iteration order (which varies across interpreters with
hash randomization).  Unordered collections are sorted by
:func:`canonical_json` of their encoded elements, so two equal payloads
— however they were built — encode identically:

>>> left = encode_payload(frozenset({(1, 2), (0, 9)}))
>>> right = encode_payload(frozenset({(0, 9), (1, 2)}))
>>> left == right
True
>>> value = (1, frozenset({(2, 3), (1, 4), None}), b"\\x00")
>>> decode_payload(encode_payload(value)) == value
True
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any, Mapping

from repro.errors import ReproError
from repro.sim.execution import Execution
from repro.sim.message import Message
from repro.sim.state import Behavior, Fragment, StateSnapshot

FORMAT_VERSION = 1

# ``json.dumps`` with these arguments builds exactly this encoder on
# every call; building it once keeps the per-call cost to the encoding.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(data: Any) -> str:
    """The canonical JSON rendering of an already-encoded record.

    Used as the sort key for unordered collections (frozensets, message
    sets).  ``sort_keys=True`` makes the key independent of dict insertion
    order, so the ordering depends only on the *values* of the encoded
    elements — never on set iteration order, which hash randomization
    scrambles across interpreters.  Before this canonicalization, a
    ``tuple`` nested inside a ``frozenset`` could legally serialize in
    different element orders on different interpreters (the old sort key
    preserved insertion order of record keys), breaking byte-identity of
    artifacts across machines.

    >>> canonical_json({"k": "lit", "v": 1})
    '{"k":"lit","v":1}'
    >>> canonical_json({"v": 1, "k": "lit"})
    '{"k":"lit","v":1}'
    """
    return _CANONICAL(data)


def encode_payload(value: Any) -> Any:
    """Encode one payload value into JSON-safe structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return {"k": "lit", "v": value}
    if isinstance(value, bytes):
        return {"k": "bytes", "v": value.hex()}
    if isinstance(value, tuple):
        return {
            "k": "tuple",
            "v": [encode_payload(element) for element in value],
        }
    if isinstance(value, frozenset):
        encoded = [encode_payload(element) for element in value]
        encoded.sort(key=canonical_json)  # canonical order, see above
        return {"k": "fset", "v": encoded}
    # The library's own payload types are dataclasses, never tuples or
    # sets, so testing the builtins first changes no result.
    from repro.crypto.chains import SignedChain
    from repro.crypto.signatures import Signature
    from repro.protocols.external_validity import Transaction

    if isinstance(value, Signature):
        return {
            "k": "sig",
            "signer": value.signer,
            "tag": value.tag.hex(),
        }
    if isinstance(value, SignedChain):
        return {
            "k": "chain",
            "instance": encode_payload(value.instance),
            "value": encode_payload(value.value),
            "signatures": [
                encode_payload(signature)
                for signature in value.signatures
            ],
        }
    if isinstance(value, Transaction):
        return {
            "k": "tx",
            "client": value.client,
            "body": encode_payload(value.body),
            "signature": encode_payload(value.signature),
        }
    raise ReproError(
        f"cannot serialize payload of type {type(value).__name__}"
    )


def decode_payload(data: Any) -> Any:
    """Inverse of :func:`encode_payload`."""
    from repro.crypto.chains import SignedChain
    from repro.crypto.signatures import Signature
    from repro.protocols.external_validity import Transaction

    if not isinstance(data, dict) or "k" not in data:
        raise ReproError(f"malformed payload record: {data!r}")
    kind = data["k"]
    if kind == "lit":
        return data["v"]
    if kind == "bytes":
        return bytes.fromhex(data["v"])
    if kind == "sig":
        return Signature(
            signer=data["signer"], tag=bytes.fromhex(data["tag"])
        )
    if kind == "chain":
        return SignedChain(
            instance=decode_payload(data["instance"]),
            value=decode_payload(data["value"]),
            signatures=tuple(
                decode_payload(signature)
                for signature in data["signatures"]
            ),
        )
    if kind == "tx":
        return Transaction(
            client=data["client"],
            body=decode_payload(data["body"]),
            signature=decode_payload(data["signature"]),
        )
    if kind == "tuple":
        return tuple(
            decode_payload(element) for element in data["v"]
        )
    if kind == "fset":
        return frozenset(
            decode_payload(element) for element in data["v"]
        )
    raise ReproError(f"unknown payload kind {kind!r}")


def _encode_message(message: Message) -> dict:
    return {
        "sender": message.sender,
        "receiver": message.receiver,
        "round": message.round,
        "payload": encode_payload(message.payload),
    }


def _decode_message(data: dict) -> Message:
    return Message(
        sender=data["sender"],
        receiver=data["receiver"],
        round=data["round"],
        payload=decode_payload(data["payload"]),
    )


_Memo = dict[int, tuple[Message, str, dict]]
"""``id(message)`` → ``(message, canonical key, record)``.

Keyed by identity, not equality: ``True == 1`` and ``frozenset({1}) ==
frozenset({True})``, so equal messages may still encode differently.
Each entry holds its message, so no ``id`` is reused while the memo
lives."""


def _decode_messages(data: list) -> frozenset[Message]:
    return frozenset(_decode_message(entry) for entry in data)


def _decode_state(data: dict) -> StateSnapshot:
    return StateSnapshot(
        process=data["process"],
        round=data["round"],
        proposal=decode_payload(data["proposal"]),
        decision=(
            None
            if data["decision"] is None
            else decode_payload(data["decision"])
        ),
    )


def _decode_fragment(data: dict) -> Fragment:
    return Fragment(
        state=_decode_state(data["state"]),
        sent=_decode_messages(data["sent"]),
        send_omitted=_decode_messages(data["send_omitted"]),
        received=_decode_messages(data["received"]),
        receive_omitted=_decode_messages(data["receive_omitted"]),
    )


def _decode_behavior(data: dict) -> Behavior:
    return Behavior(
        tuple(
            _decode_fragment(fragment)
            for fragment in data["fragments"]
        ),
        final_state=_decode_state(data["final_state"]),
    )


class _Tables:
    """Content-addressed message and fragment tables.

    Each distinct encoded message and fragment is stored once.  A message
    is keyed by the canonical JSON of its record, never by Python
    equality (``True == 1``); a fragment by its state's pid, round and
    the canonical JSON of its proposal and decision, plus its index
    lists, which together fix the canonical JSON of its record.  Entries
    take their index on first use, so the table order follows the order
    the encoder walks the executions in.

    Messages, states and state payloads are encoded once per object,
    through identity memos: fragments built from one another share
    them.  Each memo entry holds its object, so no ``id`` is reused
    while the tables live.
    """

    def __init__(self) -> None:
        self.messages: list[dict] = []
        self.fragments: list[dict] = []
        self._message_index: dict[str, int] = {}
        self._fragment_index: dict[tuple, int] = {}
        self._memo: _Memo = {}
        # id(state) -> (state, key, record); id(payload) -> (payload,
        # canonical key, record)
        self._state_memo: dict[int, tuple[StateSnapshot, tuple, dict]] = {}
        self._payload_memo: dict[int, tuple[Any, str, Any]] = {}

    def _message_refs(self, messages: frozenset[Message]) -> tuple:
        """Indices of ``messages`` in canonical order, interning new ones
        in that order (never in set iteration order, which hash
        randomization scrambles)."""
        memo = self._memo
        entries = []
        for message in messages:
            entry = memo.get(id(message))
            if entry is None:
                record = _encode_message(message)
                entry = memo[id(message)] = (
                    message, canonical_json(record), record
                )
            entries.append(entry)
        entries.sort(key=itemgetter(1))
        index_of = self._message_index
        refs = []
        for _, key, record in entries:
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(self.messages)
                self.messages.append(record)
            refs.append(index)
        return tuple(refs)

    def _payload(self, value: Any) -> tuple[Any, str, Any]:
        entry = self._payload_memo.get(id(value))
        if entry is None:
            record = encode_payload(value)
            entry = self._payload_memo[id(value)] = (
                value, canonical_json(record), record
            )
        return entry

    def _state(self, state: StateSnapshot) -> tuple[StateSnapshot, tuple, dict]:
        """``(state, key, record)``; the key is the model's integer pid
        and round plus the canonical JSON of proposal and decision."""
        entry = self._state_memo.get(id(state))
        if entry is None:
            _, proposal_key, proposal = self._payload(state.proposal)
            decision_key = decision = None
            if state.decision is not None:
                _, decision_key, decision = self._payload(state.decision)
            entry = self._state_memo[id(state)] = (
                state,
                (state.process, state.round, proposal_key, decision_key),
                {
                    "process": state.process,
                    "round": state.round,
                    "proposal": proposal,
                    "decision": decision,
                },
            )
        return entry

    def fragment_ref(self, fragment: Fragment) -> int:
        """The index of ``fragment``, interning it on first use."""
        _, state_key, state_record = self._state(fragment.state)
        refs = self._message_refs
        # most of a sparse protocol's message sets are empty
        sent = fragment.sent
        send_omitted = fragment.send_omitted
        received = fragment.received
        receive_omitted = fragment.receive_omitted
        key = (
            state_key,
            refs(sent) if sent else (),
            refs(send_omitted) if send_omitted else (),
            refs(received) if received else (),
            refs(receive_omitted) if receive_omitted else (),
        )
        index = self._fragment_index.get(key)
        if index is None:
            index = self._fragment_index[key] = len(self.fragments)
            self.fragments.append(
                {
                    "state": state_record,
                    "sent": list(key[1]),
                    "send_omitted": list(key[2]),
                    "received": list(key[3]),
                    "receive_omitted": list(key[4]),
                }
            )
        return index

    def execution_record(self, execution: Execution) -> dict:
        """An execution as per-process fragment indices plus final states."""
        fragment_ref = self.fragment_ref
        return {
            "n": execution.n,
            "t": execution.t,
            "faulty": sorted(execution.faulty),
            "behaviors": [
                {
                    "fragments": [
                        fragment_ref(fragment)
                        for fragment in behavior.fragments
                    ],
                    "final_state": self._state(behavior.final_state)[2],
                }
                for behavior in execution.behaviors
            ],
        }


def executions_to_tables(executions: Mapping[str, Execution]) -> dict:
    """Encode labelled executions into content-addressed tables.

    Returns ``{"messages", "fragments", "executions"}``: each distinct
    message record once, each distinct fragment once (its state plus
    index lists into ``messages``, each list sorted by the canonical
    JSON of the message records), and per label the execution with
    each behavior's fragments replaced by indices into ``fragments``.
    Executions are walked in sorted label order, then pid, then round,
    so the tables do not depend on the mapping's order or the hash seed.
    """
    tables = _Tables()
    encoded = {
        label: tables.execution_record(executions[label])
        for label in sorted(executions)
    }
    return {
        "messages": tables.messages,
        "fragments": tables.fragments,
        "executions": encoded,
    }


def execution_from_tables(
    record: dict, fragments: list, messages: list
) -> Execution:
    """Decode one execution of :func:`executions_to_tables` output.

    Each referenced table entry is decoded once, however many behaviors
    share it.  Structural checks run in the constructors.
    """
    _require_object(record, "execution")
    decoded_messages: dict[int, Message] = {}
    decoded_fragments: dict[int, Fragment] = {}

    def message_set(refs: list) -> frozenset[Message]:
        out = []
        for ref in refs:
            message = decoded_messages.get(ref)
            if message is None:
                message = decoded_messages[ref] = _decode_message(
                    messages[ref]
                )
            out.append(message)
        return frozenset(out)

    def fragment(ref: int) -> Fragment:
        decoded = decoded_fragments.get(ref)
        if decoded is None:
            data = fragments[ref]
            decoded = decoded_fragments[ref] = Fragment(
                state=_decode_state(data["state"]),
                sent=message_set(data["sent"]),
                send_omitted=message_set(data["send_omitted"]),
                received=message_set(data["received"]),
                receive_omitted=message_set(data["receive_omitted"]),
            )
        return decoded

    return Execution(
        n=record["n"],
        t=record["t"],
        faulty=frozenset(record["faulty"]),
        behaviors=tuple(
            Behavior(
                tuple(fragment(ref) for ref in behavior["fragments"]),
                final_state=_decode_state(behavior["final_state"]),
            )
            for behavior in record["behaviors"]
        ),
    )


def _require_object(data: Any, what: str) -> None:
    """Reject non-object JSON with the parse failure loaders expect."""
    if not isinstance(data, dict):
        raise TypeError(
            f"{what} must be a JSON object, not {type(data).__name__}"
        )


def execution_from_dict(data: dict) -> Execution:
    """Decode an execution; structural checks run in the constructors."""
    _require_object(data, "execution")
    if data.get("format") != FORMAT_VERSION:
        raise ReproError(
            f"unsupported execution format {data.get('format')!r}"
        )
    return Execution(
        n=data["n"],
        t=data["t"],
        faulty=frozenset(data["faulty"]),
        behaviors=tuple(
            _decode_behavior(behavior)
            for behavior in data["behaviors"]
        ),
    )
