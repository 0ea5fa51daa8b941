"""The independent certificate verifier.

This module re-derives every claim a v1 attack certificate makes *from
the artifact alone*, so that a bug in the attack driver cannot
self-certify.  The trust argument rests on strict code separation:

* the verifier operates directly on the **raw JSON payload** — it never
  constructs :class:`~repro.sim.execution.Execution`,
  :class:`~repro.sim.state.Fragment` or
  :class:`~repro.sim.message.Message` objects, whose constructors run
  the library's own eager checks;
* at module level it imports **only the standard library** — in
  particular nothing from :mod:`repro.lowerbound.driver` or from
  :mod:`repro.sim.engine` (the ``IncrementalChecker`` path the driver
  validates its live simulations with) ever loads during a structural
  verification;
* every condition of the formal model is **re-implemented here** from
  the paper's Appendix A statements: the ten fragment conditions
  (A.1.4), the behavior conditions (A.1.5), the five execution
  guarantees (A.1.6), Definition 1 (isolation), the §3
  indistinguishability relation, and the ``t²/32`` arithmetic of
  Lemma 1.

Verification is *structural* by default — it needs no protocol code.
Passing a process ``factory`` additionally replays behavior condition 7
(every recorded behavior is an honest run of the algorithm's state
machine), which is the one claim that cannot be checked from the
artifact alone.

Failures are reported as named conditions, first-violated first:

>>> report = verify_certificate({"format": "bogus"})
>>> report.ok
False
>>> report.first.condition
'schema.version'
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

# Restated rather than imported from .format: the verifier deliberately
# shares no module with the producer side, so a compromised producer
# cannot redefine what "schema 1" means out from under the checks.
CERTIFICATE_FORMAT = "repro-attack-certificate"
CERTIFICATE_SCHEMA = 1
VERDICT_VIOLATION = "violation"
VERDICT_BOUND = "bound-respected"

# ---------------------------------------------------------------------------
# condition names (the vocabulary of failure reports)
# ---------------------------------------------------------------------------

SCHEMA_VERSION = "schema.version"
SCHEMA_STRUCTURE = "schema.structure"
A14_STATE = "A.1.4.state"  # conditions 1-2: state carries pid and round
A14_ROUND = "A.1.4.round"  # condition 3
A14_SEND_DISJOINT = "A.1.4.send-disjoint"  # condition 4
A14_RECEIVE_DISJOINT = "A.1.4.receive-disjoint"  # condition 5
A14_SENDER = "A.1.4.sender"  # condition 6
A14_RECEIVER = "A.1.4.receiver"  # condition 7
A14_NO_SELF = "A.1.4.no-self"  # condition 8
A14_UNIQUE_RECEIVER = "A.1.4.unique-receiver"  # condition 9
A14_UNIQUE_SENDER = "A.1.4.unique-sender"  # condition 10
A15_SEQUENCE = "A.1.5.round-sequence"
A15_PROPOSAL = "A.1.5.stable-proposal"
A15_DECISION = "A.1.5.write-once-decision"
A15_FINAL = "A.1.5.final-state"
A15_TRANSITIONS = "A.1.5.transition-replay"  # condition 7, factory-gated
A16_BUDGET = "A.1.6.fault-budget"
A16_COMPOSITION = "A.1.6.composition"
A16_SEND_VALIDITY = "A.1.6.send-validity"
A16_RECEIVE_VALIDITY = "A.1.6.receive-validity"
A16_OMISSION_VALIDITY = "A.1.6.omission-validity"
DEF1_ISOLATION = "definition-1.isolation"
S3_INDISTINGUISHABILITY = "s3.indistinguishability"
WITNESS_REFERENCE = "witness.reference"
WITNESS_CULPRIT = "witness.culprit-correct"
WITNESS_AGREEMENT = "witness.agreement"
WITNESS_TERMINATION = "witness.termination"
WITNESS_VALIDITY = "witness.weak-validity"
ACCOUNTING_COUNT = "accounting.message-count"
ACCOUNTING_FLOOR = "accounting.floor"
ACCOUNTING_OBSERVED = "accounting.observed"
ACCOUNTING_VERDICT = "accounting.verdict"
PROVENANCE_REFERENCE = "provenance.reference"


@dataclass(frozen=True)
class VerificationFailure:
    """One violated condition, named and located."""

    condition: str
    detail: str

    def render(self) -> str:
        """One line for reports."""
        return f"[{self.condition}] {self.detail}"


@dataclass(frozen=True)
class VerificationReport:
    """The verifier's structured outcome.

    Attributes:
        failures: every violated condition, in check order (the first
            entry is *the* first violated condition).
        conditions_checked: how many individual condition evaluations
            ran — a coarse completeness indicator for reports.
        replayed: whether behavior condition 7 was replayed against a
            live process factory.
    """

    failures: tuple[VerificationFailure, ...]
    conditions_checked: int = 0
    replayed: bool = False

    @property
    def ok(self) -> bool:
        """Whether every checked condition held."""
        return not self.failures

    @property
    def first(self) -> VerificationFailure | None:
        """The first violated condition, or ``None``."""
        return self.failures[0] if self.failures else None

    def render(self) -> str:
        """A short human-readable report block."""
        scope = "structural+replay" if self.replayed else "structural"
        if self.ok:
            return (
                f"VERIFIED ({scope}; {self.conditions_checked} "
                "conditions checked)"
            )
        lines = [
            f"REJECTED ({scope}; first violated condition: "
            f"{self.failures[0].condition})"
        ]
        lines.extend("  " + failure.render() for failure in self.failures)
        return "\n".join(lines)


_canon = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
"""Canonical JSON of an encoded payload record (value identity).

The one encoder ``json.dumps`` would build afresh on every call with
these arguments, built once."""


def _message_key(record: dict) -> tuple:
    """The value identity of an encoded message record."""
    return (
        record["sender"],
        record["receiver"],
        record["round"],
        _canon(record["payload"]),
    )


def _list_of_dicts(section: Any) -> bool:
    return isinstance(section, list) and all(
        isinstance(entry, dict) for entry in section
    )


class _Verifier:
    """One verification pass over a raw certificate payload."""

    def __init__(self, payload: Any) -> None:
        self.payload = payload
        self.failures: list[VerificationFailure] = []
        self.checked = 0
        # id(fragment record) -> keys of its received messages; the
        # payload, and so every id, outlives the pass
        self._received_by_fragment: dict[int, list[tuple]] = {}

    def fail(self, condition: str, detail: str) -> None:
        self.failures.append(VerificationFailure(condition, detail))

    def check(
        self,
        condition: str,
        holds: bool,
        detail: str | Callable[[], str],
    ) -> bool:
        """Count one condition evaluation and record it if it fails.

        ``detail`` is the failure text, or a callable that formats it:
        most checks hold, so their text is only built when one fails.
        The text is built before the evaluation is counted, so a detail
        that cannot be formatted from a malformed record aborts the check
        uncounted, like a condition that raises.
        """
        if not holds:
            self.fail(
                condition, detail if isinstance(detail, str) else detail()
            )
        self.checked += 1
        return holds

    # -- schema -----------------------------------------------------------

    def verify_schema(self) -> bool:
        """Format tag, schema version, and top-level structure."""
        payload = self.payload
        if not self.check(
            SCHEMA_VERSION,
            isinstance(payload, dict)
            and payload.get("format") == CERTIFICATE_FORMAT
            and payload.get("schema") == CERTIFICATE_SCHEMA,
            "not a v1 repro attack certificate",
        ):
            return False
        required = (
            "claim",
            "partition",
            "executions",
            "witness",
            "provenance",
            "indistinguishability",
            "isolation",
            "accounting",
        )
        missing = [key for key in required if key not in payload]
        if not self.check(
            SCHEMA_STRUCTURE,
            not missing,
            lambda: f"missing sections: {missing}",
        ):
            return False
        claim = payload["claim"]
        malformed = [
            section
            for section, well_formed in (
                (
                    "claim",
                    isinstance(claim, dict)
                    and claim.get("verdict")
                    in (VERDICT_VIOLATION, VERDICT_BOUND)
                    and isinstance(claim.get("n"), int)
                    and isinstance(claim.get("t"), int),
                ),
                ("executions", isinstance(payload["executions"], dict)),
                (
                    "witness",
                    payload["witness"] is None
                    or isinstance(payload["witness"], dict),
                ),
                ("provenance", isinstance(payload["provenance"], list)),
                (
                    "indistinguishability",
                    _list_of_dicts(payload["indistinguishability"]),
                ),
                ("isolation", _list_of_dicts(payload["isolation"])),
            )
            if not well_formed
        ]
        return self.check(
            SCHEMA_STRUCTURE,
            not malformed,
            lambda: f"malformed sections: {malformed}",
        )

    # -- executions (A.1.4 / A.1.5 / A.1.6) -------------------------------

    def verify_execution(self, label: str, record: Any) -> None:
        """All structural model conditions for one embedded execution."""
        where = f"execution {label!r}"
        try:
            self._verify_execution_inner(where, record)
        except (KeyError, TypeError, IndexError, AttributeError) as error:
            self.fail(
                SCHEMA_STRUCTURE,
                f"{where} is malformed: {type(error).__name__}: {error}",
            )

    def _verify_execution_inner(self, where: str, record: dict) -> None:
        n = record["n"]
        t = record["t"]
        faulty = set(record["faulty"])
        behaviors = record["behaviors"]
        self.check(
            A16_BUDGET,
            len(faulty) <= t
            and all(0 <= pid < n for pid in faulty),
            lambda: f"{where}: faulty set {sorted(faulty)} violates "
            f"|F| <= t={t} over {n} processes",
        )
        if not self.check(
            A16_COMPOSITION,
            len(behaviors) == n and n >= 1,
            lambda: f"{where}: expected {n} behaviors, got "
            f"{len(behaviors)}",
        ):
            return
        rounds = len(behaviors[0]["fragments"])
        incoming_index: list[list[set[tuple]]] = [
            [set() for _ in range(rounds + 1)] for _ in range(n)
        ]
        sent_index: list[list[set[tuple]]] = [
            [set() for _ in range(rounds + 1)] for _ in range(n)
        ]
        commits_fault = [False] * n
        # (pid, round, fragment, sent keys, incoming keys), for A.1.6
        keyed: list[tuple[int, int, dict, list, list]] = []
        for pid, behavior in enumerate(behaviors):
            fragments = behavior["fragments"]
            self.check(
                A16_COMPOSITION,
                len(fragments) == rounds and rounds >= 1,
                lambda: f"{where}: p{pid} spans {len(fragments)} rounds, "
                f"execution spans {rounds}",
            )
            self._verify_behavior(where, pid, behavior, rounds)
            for index, fragment in enumerate(fragments):
                round_ = index + 1
                sent_keys, incoming_keys = self._verify_fragment(
                    where, pid, round_, fragment
                )
                slot = min(round_, rounds)
                sent_index[pid][slot].update(sent_keys)
                incoming_index[pid][slot].update(incoming_keys)
                if fragment["send_omitted"] or fragment["receive_omitted"]:
                    commits_fault[pid] = True
                keyed.append(
                    (pid, round_, fragment, sent_keys, incoming_keys)
                )
        # A.1.6 send-validity: every sent message is received or
        # receive-omitted by its receiver in the same round.
        for pid, round_, fragment, sent_keys, incoming_keys in keyed:
            slot = min(round_, rounds)
            for message, key in zip(fragment["sent"], sent_keys):
                receiver = message["receiver"]
                self.check(
                    A16_SEND_VALIDITY,
                    0 <= receiver < n
                    and key in incoming_index[receiver][slot],
                    lambda: f"{where}: p{pid} r{round_} sent a message "
                    f"neither received nor receive-omitted by "
                    f"p{receiver}",
                )
            for message, key in zip(
                fragment["received"] + fragment["receive_omitted"],
                incoming_keys,
            ):
                sender = message["sender"]
                self.check(
                    A16_RECEIVE_VALIDITY,
                    0 <= sender < n and key in sent_index[sender][slot],
                    lambda: f"{where}: p{pid} r{round_} records an "
                    f"incoming message p{sender} never successfully sent",
                )
        for pid in range(n):
            self.check(
                A16_OMISSION_VALIDITY,
                not commits_fault[pid] or pid in faulty,
                lambda: f"{where}: p{pid} commits omission faults but is "
                "not in the faulty set",
            )

    def _verify_fragment(
        self, where: str, pid: int, round_: int, fragment: dict
    ) -> tuple[list[tuple], list[tuple]]:
        """The ten A.1.4 conditions on one raw fragment record.

        Returns the keys of the sent and of the incoming (received, then
        receive-omitted) messages, computed once here and reused by the
        A.1.6 and indistinguishability checks.
        """
        state = fragment["state"]
        self.check(
            A14_STATE,
            state["process"] == pid and state["round"] == round_,
            lambda: f"{where}: p{pid} r{round_} fragment carries state of "
            f"p{state['process']} r{state['round']}",
        )
        sent = fragment["sent"]
        send_omitted = fragment["send_omitted"]
        received = fragment["received"]
        receive_omitted = fragment["receive_omitted"]
        outgoing = sent + send_omitted
        incoming = received + receive_omitted
        self.check(
            A14_ROUND,
            all(m["round"] == round_ for m in outgoing + incoming),
            lambda: f"{where}: p{pid} r{round_} fragment contains a "
            "message of another round",
        )
        sent_keys = [_message_key(m) for m in sent]
        omitted_keys = [_message_key(m) for m in send_omitted]
        self.check(
            A14_SEND_DISJOINT,
            set(sent_keys).isdisjoint(omitted_keys),
            lambda: f"{where}: p{pid} r{round_} sent and send-omitted "
            "overlap",
        )
        received_keys = [_message_key(m) for m in received]
        rec_omitted_keys = [_message_key(m) for m in receive_omitted]
        self.check(
            A14_RECEIVE_DISJOINT,
            set(received_keys).isdisjoint(rec_omitted_keys),
            lambda: f"{where}: p{pid} r{round_} received and "
            "receive-omitted overlap",
        )
        self.check(
            A14_SENDER,
            all(m["sender"] == pid for m in outgoing),
            lambda: f"{where}: p{pid} r{round_} outgoing message with a "
            "foreign sender",
        )
        self.check(
            A14_RECEIVER,
            all(m["receiver"] == pid for m in incoming),
            lambda: f"{where}: p{pid} r{round_} incoming message with a "
            "foreign receiver",
        )
        self.check(
            A14_NO_SELF,
            all(m["sender"] != m["receiver"] for m in outgoing + incoming),
            lambda: f"{where}: p{pid} r{round_} contains a self-message",
        )
        receivers = [m["receiver"] for m in outgoing]
        self.check(
            A14_UNIQUE_RECEIVER,
            len(receivers) == len(set(receivers)),
            lambda: f"{where}: p{pid} r{round_} sends two messages to one "
            "receiver",
        )
        senders = [m["sender"] for m in incoming]
        self.check(
            A14_UNIQUE_SENDER,
            len(senders) == len(set(senders)),
            lambda: f"{where}: p{pid} r{round_} records two incoming "
            "messages from one sender",
        )
        self._received_by_fragment[id(fragment)] = received_keys
        return sent_keys, received_keys + rec_omitted_keys

    def _verify_behavior(
        self, where: str, pid: int, behavior: dict, rounds: int
    ) -> None:
        """The structural A.1.5 conditions on one raw behavior record."""
        fragments = behavior["fragments"]
        final_state = behavior["final_state"]
        self.check(
            A15_SEQUENCE,
            all(
                fragment["state"]["round"] == index + 1
                for index, fragment in enumerate(fragments)
            ),
            lambda: f"{where}: p{pid} fragments are not consecutively "
            "numbered from round 1",
        )
        states = [fragment["state"] for fragment in fragments]
        states.append(final_state)
        proposal = _canon(states[0]["proposal"])
        self.check(
            A15_PROPOSAL,
            all(_canon(state["proposal"]) == proposal for state in states),
            lambda: f"{where}: p{pid}'s proposal changes across rounds",
        )
        decision: str | None = None
        write_once = states[0]["decision"] is None
        for state in states:
            recorded = state["decision"]
            if decision is None:
                decision = None if recorded is None else _canon(recorded)
            elif recorded is None or _canon(recorded) != decision:
                write_once = False
                break
        self.check(
            A15_DECISION,
            write_once,
            lambda: f"{where}: p{pid}'s decision is not write-once (or it "
            "starts round 1 already decided)",
        )
        self.check(
            A15_FINAL,
            final_state["process"] == pid
            and final_state["round"] == rounds + 1,
            lambda: f"{where}: p{pid}'s final state is not the state at "
            f"the start of round {rounds + 1}",
        )

    # -- Definition 1 -----------------------------------------------------

    def verify_isolation(self, claim: dict) -> None:
        """Definition 1 for one isolation claim, from the raw records."""
        label = claim.get("execution")
        executions = self.payload["executions"]
        if not self.check(
            DEF1_ISOLATION,
            isinstance(label, str) and label in executions,
            f"isolation claim references unknown execution {label!r}",
        ):
            return
        record = executions[label]
        where = f"execution {label!r}"
        try:
            group = set(claim["group"])
            from_round = claim["from_round"]
            faulty = set(record["faulty"])
            n = record["n"]
            if not self.check(
                DEF1_ISOLATION,
                bool(group)
                and group <= faulty
                and group != set(range(n)),
                f"{where}: claimed group {sorted(group)} is empty, not "
                "within the faulty set, or not a proper subset",
            ):
                return
            for pid in sorted(group):
                behavior = record["behaviors"][pid]
                for index, fragment in enumerate(behavior["fragments"]):
                    round_ = index + 1
                    self.check(
                        DEF1_ISOLATION,
                        not fragment["send_omitted"],
                        lambda: f"{where}: p{pid} send-omits in r{round_} "
                        "despite isolation",
                    )
                    self.check(
                        DEF1_ISOLATION,
                        all(
                            m["sender"] in group or round_ < from_round
                            for m in fragment["received"]
                        ),
                        lambda: f"{where}: p{pid} r{round_} received an "
                        f"outside message that isolation from round "
                        f"{from_round} requires dropping",
                    )
                    self.check(
                        DEF1_ISOLATION,
                        all(
                            m["sender"] not in group
                            and round_ >= from_round
                            for m in fragment["receive_omitted"]
                        ),
                        lambda: f"{where}: p{pid} r{round_} receive-omits "
                        "an in-group or pre-isolation message",
                    )
        except (KeyError, TypeError, IndexError) as error:
            self.fail(
                DEF1_ISOLATION,
                f"isolation claim on {where} is malformed: {error}",
            )

    # -- §3 indistinguishability ------------------------------------------

    def verify_indistinguishability(self, claim: dict) -> None:
        """Same proposal + identical received sets for each named pid."""
        executions = self.payload["executions"]
        left_label = claim.get("left")
        right_label = claim.get("right")
        if not self.check(
            S3_INDISTINGUISHABILITY,
            isinstance(left_label, str)
            and isinstance(right_label, str)
            and left_label in executions
            and right_label in executions,
            f"indistinguishability claim references unknown executions "
            f"({left_label!r}, {right_label!r})",
        ):
            return
        left = executions[left_label]
        right = executions[right_label]
        where = f"({left_label!r} ~ {right_label!r})"
        try:
            for pid in claim["processes"]:
                lb = left["behaviors"][pid]
                rb = right["behaviors"][pid]
                if not self.check(
                    S3_INDISTINGUISHABILITY,
                    len(lb["fragments"]) == len(rb["fragments"]),
                    lambda: f"{where}: p{pid}'s behaviors span different "
                    "horizons",
                ):
                    continue
                self.check(
                    S3_INDISTINGUISHABILITY,
                    _canon(lb["fragments"][0]["state"]["proposal"])
                    == _canon(rb["fragments"][0]["state"]["proposal"]),
                    lambda: f"{where}: p{pid} proposes differently",
                )
                for index, (lf, rf) in enumerate(
                    zip(lb["fragments"], rb["fragments"])
                ):
                    self.check(
                        S3_INDISTINGUISHABILITY,
                        self._received_keys(lf) == self._received_keys(rf),
                        lambda: f"{where}: p{pid} receives different "
                        f"messages in round {index + 1}",
                    )
        except (KeyError, TypeError, IndexError) as error:
            self.fail(
                S3_INDISTINGUISHABILITY,
                f"indistinguishability claim {where} is malformed: "
                f"{error}",
            )

    def _received_keys(self, fragment: dict) -> set[tuple]:
        """The keys of a fragment's received messages, reusing those
        :meth:`_verify_fragment` computed when it got that far."""
        keys = self._received_by_fragment.get(id(fragment))
        if keys is None:
            return {_message_key(m) for m in fragment["received"]}
        return set(keys)

    # -- the witness claim ------------------------------------------------

    def verify_witness(self) -> None:
        """The claimed property breach, re-derived from the records."""
        witness = self.payload["witness"]
        claim = self.payload["claim"]
        if witness is None:
            return
        executions = self.payload["executions"]
        label = witness.get("execution")
        if not self.check(
            WITNESS_REFERENCE,
            isinstance(label, str)
            and label in executions
            and witness.get("kind")
            in ("agreement", "termination", "weak-validity"),
            f"witness references unknown execution {label!r} or carries "
            f"an unknown kind {witness.get('kind')!r}",
        ):
            return
        record = executions[label]
        try:
            n = record["n"]
            faulty = set(record["faulty"])
            culprit = witness["culprit"]
            if not self.check(
                WITNESS_CULPRIT,
                isinstance(culprit, int)
                and 0 <= culprit < n
                and culprit not in faulty,
                f"culprit p{culprit} is not a correct process of the "
                "witness execution",
            ):
                return

            def decision(pid: int) -> str | None:
                recorded = record["behaviors"][pid]["final_state"][
                    "decision"
                ]
                return None if recorded is None else _canon(recorded)

            kind = witness["kind"]
            if kind == "termination":
                self.check(
                    WITNESS_TERMINATION,
                    decision(culprit) is None,
                    f"claimed non-termination, but p{culprit} decided",
                )
            elif kind == "agreement":
                counterpart = witness.get("counterpart")
                if not self.check(
                    WITNESS_AGREEMENT,
                    isinstance(counterpart, int)
                    and 0 <= counterpart < n
                    and counterpart not in faulty,
                    f"agreement witness counterpart p{counterpart} is "
                    "not a correct process",
                ):
                    return
                culprit_decision = decision(culprit)
                other_decision = decision(counterpart)
                self.check(
                    WITNESS_AGREEMENT,
                    culprit_decision is not None
                    and other_decision is not None
                    and culprit_decision != other_decision,
                    f"claimed disagreement between p{culprit} and "
                    f"p{counterpart}, but their decisions do not differ",
                )
            else:  # weak-validity
                proposals = {
                    _canon(
                        behavior["fragments"][0]["state"]["proposal"]
                    )
                    for behavior in record["behaviors"]
                }
                self.check(
                    WITNESS_VALIDITY,
                    not faulty
                    and len(proposals) == 1
                    and decision(culprit) != next(iter(proposals)),
                    "weak-validity witness must be fault-free with "
                    "unanimous proposals and a deviating culprit "
                    "decision",
                )
            self.check(
                ACCOUNTING_VERDICT,
                claim["verdict"] == VERDICT_VIOLATION,
                "certificate embeds a witness but claims verdict "
                f"{claim['verdict']!r}",
            )
        except (KeyError, TypeError, IndexError) as error:
            self.fail(
                WITNESS_REFERENCE,
                f"witness record is malformed: {error}",
            )

    # -- accounting -------------------------------------------------------

    def verify_accounting(self) -> None:
        """Recompute message counts and the t²/32 arithmetic."""
        accounting = self.payload["accounting"]
        claim = self.payload["claim"]
        executions = self.payload["executions"]
        try:
            t = accounting["t"]
            observed = accounting["observed"]
            self.check(
                ACCOUNTING_FLOOR,
                t == claim["t"] and accounting["floor"] == t * t / 32,
                f"recorded floor {accounting['floor']!r} is not "
                f"t^2/32 for t={claim['t']}",
            )
            self.check(
                ACCOUNTING_VERDICT,
                accounting["below_floor"] == (observed < t * t / 32),
                "below_floor flag contradicts the observed count and "
                "the floor",
            )
            per_execution = accounting["per_execution"]
            for label, recorded in sorted(per_execution.items()):
                if not self.check(
                    ACCOUNTING_COUNT,
                    label in executions,
                    f"accounting references unknown execution {label!r}",
                ):
                    continue
                record = executions[label]
                faulty = set(record["faulty"])
                recomputed = sum(
                    len(fragment["sent"])
                    for pid, behavior in enumerate(record["behaviors"])
                    if pid not in faulty
                    for fragment in behavior["fragments"]
                )
                self.check(
                    ACCOUNTING_COUNT,
                    recomputed == recorded,
                    lambda: f"execution {label!r} contains {recomputed} "
                    f"correct-sender messages, accounting records "
                    f"{recorded}",
                )
            max_label = accounting.get("max_execution")
            if max_label is not None:
                self.check(
                    ACCOUNTING_OBSERVED,
                    per_execution.get(max_label) == observed,
                    f"claimed maximum execution {max_label!r} does not "
                    f"attain the observed count {observed}",
                )
            if self.payload["witness"] is None:
                self.check(
                    ACCOUNTING_VERDICT,
                    claim["verdict"] == VERDICT_BOUND,
                    "certificate embeds no witness but claims verdict "
                    f"{claim['verdict']!r}",
                )
        except (KeyError, TypeError, AttributeError) as error:
            self.fail(
                SCHEMA_STRUCTURE,
                f"accounting section is malformed: {error}",
            )

    # -- provenance -------------------------------------------------------

    def verify_provenance(self) -> None:
        """Every provenance step references embedded executions."""
        executions = self.payload["executions"]
        # a tuple: membership of an unhashable op is False, not an error
        known_ops = ("simulate", "isolate", "merge", "swap", "witness")
        for index, step in enumerate(self.payload["provenance"]):
            known = isinstance(step, dict) and step.get("op") in known_ops
            if not self.check(
                PROVENANCE_REFERENCE,
                known and isinstance(step.get("inputs", []), list),
                f"provenance step {index} has non-list inputs"
                if known
                else f"provenance step {index} has unknown op "
                f"{step.get('op') if isinstance(step, dict) else step!r}",
            ):
                continue
            labels: list[str] = []
            for key in ("execution", "source", "result"):
                if key in step:
                    labels.append(step[key])
            labels.extend(step.get("inputs", ()))
            for label in labels:
                self.check(
                    PROVENANCE_REFERENCE,
                    isinstance(label, str) and label in executions,
                    f"provenance step {index} ({step['op']}) references "
                    f"unembedded execution {label!r}",
                )

    # -- behavior condition 7 (optional, needs protocol code) -------------

    def verify_transitions(self, factory: Callable) -> None:
        """Replay every behavior through a fresh state machine.

        The only check that cannot run from the artifact alone: it
        re-runs the candidate's algorithm, feeding each process exactly
        the received sets the certificate records, and demands that the
        machine emit exactly the recorded outgoing messages and reach
        the recorded decisions.  Payloads cross from the artifact into
        the machines through the serialization codec; the comparison is
        by canonical encoding, so no library equality is trusted.
        """
        from repro.sim.serialization import decode_payload, encode_payload

        def canon_value(value: Any) -> str:
            return _canon(encode_payload(value))

        for label in sorted(self.payload["executions"]):
            record = self.payload["executions"][label]
            where = f"execution {label!r}"
            rounds = len(record["behaviors"][0]["fragments"])
            for pid, behavior in enumerate(record["behaviors"]):
                proposal = decode_payload(
                    behavior["fragments"][0]["state"]["proposal"]
                )
                machine = factory(pid, proposal)
                replay_ok = True
                for index, fragment in enumerate(behavior["fragments"]):
                    round_ = index + 1
                    produced = machine.validate_outgoing(
                        round_, machine.outgoing(round_)
                    )
                    produced_canon = {
                        receiver: canon_value(payload)
                        for receiver, payload in produced.items()
                    }
                    recorded_canon = {
                        m["receiver"]: _canon(m["payload"])
                        for m in fragment["sent"]
                        + fragment["send_omitted"]
                    }
                    if not self.check(
                        A15_TRANSITIONS,
                        produced_canon == recorded_canon,
                        f"{where}: p{pid} r{round_} recorded sends are "
                        "not what the algorithm produces",
                    ):
                        replay_ok = False
                        break
                    machine.deliver(
                        round_,
                        {
                            m["sender"]: decode_payload(m["payload"])
                            for m in sorted(
                                fragment["received"],
                                key=lambda m: m["sender"],
                            )
                        },
                    )
                if not replay_ok:
                    continue
                final_decision = behavior["final_state"]["decision"]
                machine_decision = machine.snapshot(rounds + 1).decision
                self.check(
                    A15_TRANSITIONS,
                    (final_decision is None)
                    == (machine_decision is None)
                    and (
                        final_decision is None
                        or _canon(final_decision)
                        == canon_value(machine_decision)
                    ),
                    f"{where}: p{pid}'s recorded decision is not what "
                    "the algorithm decides on this input",
                )


def verify_certificate(
    source: Any,
    factory: Callable | None = None,
) -> VerificationReport:
    """Re-derive every claim of a certificate from the artifact alone.

    Args:
        source: a :class:`~repro.certify.format.Certificate`, its payload
            dict, or the JSON artifact as text/bytes.
        factory: optional ``(pid, proposal) -> Process`` builder of the
            attacked algorithm; when given, behavior condition 7 is
            additionally replayed (the certificate's executions must be
            honest runs of *this* code).

    Returns:
        A :class:`VerificationReport`; ``report.ok`` is the verdict and
        ``report.first`` names the first violated condition.
    """
    if hasattr(source, "payload") and isinstance(source.payload, dict):
        payload: Any = source.payload  # a Certificate wrapper, unwrapped
    elif isinstance(source, bytes):
        try:
            payload = json.loads(source.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return VerificationReport(
                failures=(
                    VerificationFailure(
                        SCHEMA_STRUCTURE,
                        f"artifact is not UTF-8 JSON: {error}",
                    ),
                ),
                conditions_checked=1,
            )
    elif isinstance(source, str):
        try:
            payload = json.loads(source)
        except json.JSONDecodeError as error:
            return VerificationReport(
                failures=(
                    VerificationFailure(
                        SCHEMA_STRUCTURE,
                        f"artifact is not valid JSON: {error}",
                    ),
                ),
                conditions_checked=1,
            )
    else:
        payload = source
    verifier = _Verifier(payload)
    if verifier.verify_schema():
        for label in sorted(payload["executions"]):
            verifier.verify_execution(
                label, payload["executions"][label]
            )
        for claim in payload["isolation"]:
            verifier.verify_isolation(claim)
        for claim in payload["indistinguishability"]:
            verifier.verify_indistinguishability(claim)
        verifier.verify_witness()
        verifier.verify_accounting()
        verifier.verify_provenance()
        if factory is not None and not verifier.failures:
            verifier.verify_transitions(factory)
    return VerificationReport(
        failures=tuple(verifier.failures),
        conditions_checked=verifier.checked,
        replayed=factory is not None,
    )


def is_valid_certificate(
    source: Any,
    factory: Callable | None = None,
) -> bool:
    """Predicate form of :func:`verify_certificate`."""
    return verify_certificate(source, factory).ok
