"""The independent certificate verifier.

This module re-derives every claim a v2 (or published v1) attack
certificate makes *from the artifact alone*, so that a bug in the attack
driver cannot self-certify.  The trust argument rests on strict code
separation:

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

A v2 certificate stores each distinct message once (``messages``) and
each distinct fragment once (``fragments``, a state plus index lists
into ``messages``); executions refer to fragments by index.  The work
follows the tables:

* each ``messages`` entry is validated and keyed once;
* each ``fragments`` entry is validated once, and its fragment-local
  A.1.4 conditions run once, at its first use;
* the check that an entry's ``state.process``/``state.round`` match the
  position where it is used (A.1.4 conditions 1-2) runs at every use;
* a used entry without messages has nothing to index, to walk for
  send- and receive-validity, or to count as a fault, so it is placed
  in none of them;
* A.1.5, A.1.6, Definition 1, §3 and the accounting run per execution
  over integer indices.  Duplicate table entries are rejected, so two
  indices are equal exactly when their records are, and comparing index
  sets is comparing message sets.

A v1 payload (every message and fragment written out at each use) is
first interned into the v2 tables by :func:`_upgrade_v1`, so there is
one verification path.

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
# cannot redefine what "schema 2" means out from under the checks.
CERTIFICATE_FORMAT = "repro-attack-certificate"
CERTIFICATE_SCHEMA = 2
V1_SCHEMA = 1
VERDICT_VIOLATION = "violation"
VERDICT_BOUND = "bound-respected"

# ---------------------------------------------------------------------------
# condition names (the vocabulary of failure reports)
# ---------------------------------------------------------------------------

SCHEMA_VERSION = "schema.version"
SCHEMA_STRUCTURE = "schema.structure"
TABLE_REFERENCE = "table.reference"  # an index that names no table entry
TABLE_DUPLICATE = "table.duplicate"  # one record stored twice in a table
TABLE_ORDER = "table.order"  # entries not in first-use order, or unused
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
            ran — a coarse completeness indicator for reports.  The
            table checks count once per table, the fragment-local A.1.4
            conditions once per ``fragments`` entry, the rest once per
            use.
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
"""Canonical JSON of an encoded record (value identity).

The one encoder ``json.dumps`` would build afresh on every call with
these arguments, built once."""

_MESSAGE_KEYS = frozenset(("sender", "receiver", "round", "payload"))
_STATE_KEYS = frozenset(("process", "round", "proposal", "decision"))
_MESSAGE_LISTS = ("sent", "send_omitted", "received", "receive_omitted")
_FRAGMENT_KEYS = frozenset(("state",) + _MESSAGE_LISTS)


def _is_int(value: Any) -> bool:
    """A JSON integer: ``true`` and ``1.0`` are not (``lst[True]`` is
    ``lst[1]`` in Python)."""
    return type(value) is int


def _bad_reference(refs: list, size: int) -> Any:
    """The first entry of ``refs`` that is not an index into a table of
    ``size`` entries, or ``None`` when all are."""
    if not refs or (
        set(map(type, refs)) == {int} and min(refs) >= 0 and max(refs) < size
    ):
        return None
    return next(
        ref for ref in refs if not (_is_int(ref) and 0 <= ref < size)
    )


def _message_problem(record: Any) -> str | None:
    """Why ``record`` is not a message record, or ``None``."""
    if not isinstance(record, dict) or record.keys() != _MESSAGE_KEYS:
        return "is not a {sender, receiver, round, payload} object"
    if not (
        _is_int(record["sender"])
        and _is_int(record["receiver"])
        and _is_int(record["round"])
    ):
        return "has a non-integer sender, receiver or round"
    return None


def _state_problem(state: Any) -> str | None:
    """Why ``state`` is not a state record, or ``None``."""
    if not isinstance(state, dict) or state.keys() != _STATE_KEYS:
        return "state is not a {process, round, proposal, decision} object"
    if not (_is_int(state["process"]) and _is_int(state["round"])):
        return "state has a non-integer process or round"
    return None


def _list_of_dicts(section: Any) -> bool:
    return isinstance(section, list) and all(
        isinstance(entry, dict) for entry in section
    )


def _upgrade_v1(payload: dict) -> dict:
    """Intern a v1 payload into the v2 tables.

    v1 writes every message at each use (a sender's ``sent`` and its
    receiver's ``received``) and every fragment in each execution that
    holds it.  Interning keys each record by its canonical JSON and
    walks executions in sorted label order, then pid, round and list
    order — the v2 writer's traversal — so the v1 expansion of a v2
    certificate interns back to that certificate's exact tables.  A
    record too malformed to take apart is interned (or left) as it is,
    for the v2 checks to reject.
    """
    tables: dict[str, list] = {"messages": [], "fragments": []}
    indices: dict[str, dict[str, int]] = {"messages": {}, "fragments": {}}

    def intern(table: str, record: Any) -> int:
        key = _canon(record)
        index = indices[table].get(key)
        if index is None:
            index = indices[table][key] = len(tables[table])
            tables[table].append(record)
        return index

    def fragment_ref(record: Any) -> int:
        if isinstance(record, dict) and all(
            isinstance(record.get(field), list) for field in _MESSAGE_LISTS
        ):
            record = {
                **record,
                **{
                    field: [intern("messages", m) for m in record[field]]
                    for field in _MESSAGE_LISTS
                },
            }
        return intern("fragments", record)

    def behavior(record: Any) -> Any:
        if not isinstance(record, dict) or not isinstance(
            record.get("fragments"), list
        ):
            return record
        return {
            **record,
            "fragments": [fragment_ref(f) for f in record["fragments"]],
        }

    executions = {}
    for label in sorted(payload["executions"]):
        record = payload["executions"][label]
        if isinstance(record, dict) and isinstance(
            record.get("behaviors"), list
        ):
            record = {
                **record,
                "behaviors": [behavior(b) for b in record["behaviors"]],
            }
        executions[label] = record
    return {
        **payload,
        "schema": CERTIFICATE_SCHEMA,
        "executions": executions,
        **tables,
    }


class _Entry:
    """One validated ``fragments`` entry, with its keys computed once."""

    __slots__ = (
        "state",
        "process",
        "round",
        "proposal",
        "decision",
        "sent",
        "send_omitted",
        "received",
        "receive_omitted",
        "outgoing",
        "incoming",
    )

    def __init__(self, record: dict, key: Callable[[Any], str]) -> None:
        state = self.state = record["state"]
        self.process = state["process"]
        self.round = state["round"]
        self.proposal = key(state["proposal"])
        self.decision = (
            None if state["decision"] is None else key(state["decision"])
        )
        self.sent = tuple(record["sent"])
        self.send_omitted = tuple(record["send_omitted"])
        self.received = tuple(record["received"])
        self.receive_omitted = tuple(record["receive_omitted"])
        self.outgoing = self.sent + self.send_omitted
        self.incoming = self.received + self.receive_omitted


@dataclass(frozen=True)
class _Run:
    """One validated execution: fragment indices per process, plus each
    final state as ``(record, proposal key, decision key)``."""

    n: int
    t: int
    faulty: frozenset[int]
    behaviors: list[list[int]]
    finals: list[tuple[dict, str, str | None]]


class _Verifier:
    """One verification pass over a raw certificate payload."""

    def __init__(self, payload: Any) -> None:
        self.payload = payload
        self.failures: list[VerificationFailure] = []
        self.checked = 0
        self._keys: dict[str, str] = {}  # see key()
        # set by verify_schema / verify_tables
        self.executions: dict[str, Any] = {}
        self.senders: list[int] = []
        self.receivers: list[int] = []
        self.rounds: list[int] = []
        self.entries: list[_Entry] = []
        # (entry, pid, round) placements whose local A.1.4 conditions ran
        self.local_checked: set[tuple[int, int, int]] = set()
        # label -> validated execution, or None when malformed
        self.runs: dict[str, _Run | None] = {}
        # the first-use walk (see _follow_first_use)
        self.next_fragment = 0
        self.next_message = 0
        self.in_order = True

    def key(self, value: Any) -> str:
        """The canonical JSON of a parsed value, cached by ``repr``.

        Exact for parsed JSON: ``repr`` tells ``1`` from ``True`` and
        ``1.0`` and never merges distinct values; it is only cheaper to
        compute than the canonical text, and proposals repeat.
        """
        text = repr(value)
        key = self._keys.get(text)
        if key is None:
            key = self._keys[text] = _canon(value)
        return key

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
        """Format tag, schema version, and top-level structure.

        A well-formed v1 payload is interned into the v2 layout here.
        """
        payload = self.payload
        if not self.check(
            SCHEMA_VERSION,
            isinstance(payload, dict)
            and payload.get("format") == CERTIFICATE_FORMAT
            and _is_int(payload.get("schema"))
            and payload["schema"] in (V1_SCHEMA, CERTIFICATE_SCHEMA),
            "not a v1 or v2 repro attack certificate",
        ):
            return False
        v1 = payload["schema"] == V1_SCHEMA
        required = (
            "claim",
            "partition",
            "executions",
            "witness",
            "provenance",
            "indistinguishability",
            "isolation",
            "accounting",
        ) + (() if v1 else ("messages", "fragments"))
        missing = [key for key in required if key not in payload]
        if not self.check(
            SCHEMA_STRUCTURE,
            not missing,
            lambda: f"missing sections: {missing}",
        ):
            return False
        claim = payload["claim"]
        sections = [
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
        ]
        if not v1:
            sections.append(
                ("messages", isinstance(payload["messages"], list))
            )
            sections.append(
                ("fragments", isinstance(payload["fragments"], list))
            )
        malformed = [
            section for section, well_formed in sections if not well_formed
        ]
        if not self.check(
            SCHEMA_STRUCTURE,
            not malformed,
            lambda: f"malformed sections: {malformed}",
        ):
            return False
        if v1:
            self.payload = _upgrade_v1(payload)
        self.executions = self.payload["executions"]
        return True

    # -- the tables -------------------------------------------------------

    def verify_tables(self) -> bool:
        """Validate, key and deduplicate every table entry once.

        Every later check indexes the tables, so a malformed, dangling
        or duplicated entry ends the verification here.
        """
        messages = self.payload["messages"]
        keys: set[str] = set()
        for index, record in enumerate(messages):
            problem = _message_problem(record)
            if problem is not None:
                return self.check(
                    SCHEMA_STRUCTURE,
                    False,
                    f"messages[{index}] {problem}",
                )
            key = _canon(record)
            if key in keys:
                return self.check(
                    TABLE_DUPLICATE,
                    False,
                    f"messages[{index}] repeats an earlier entry",
                )
            keys.add(key)
            self.senders.append(record["sender"])
            self.receivers.append(record["receiver"])
            self.rounds.append(record["round"])
        count = len(messages)
        seen: set[tuple] = set()
        for index, record in enumerate(self.payload["fragments"]):
            if not isinstance(record, dict) or record.keys() != _FRAGMENT_KEYS:
                return self.check(
                    SCHEMA_STRUCTURE,
                    False,
                    f"fragments[{index}] is not a fragment",
                )
            problem = _state_problem(record["state"])
            if problem is not None:
                return self.check(
                    SCHEMA_STRUCTURE, False, f"fragments[{index}] {problem}"
                )
            for field in _MESSAGE_LISTS:
                refs = record[field]
                if type(refs) is not list:
                    return self.check(
                        SCHEMA_STRUCTURE,
                        False,
                        f"fragments[{index}].{field} is not a list",
                    )
                ref = _bad_reference(refs, count) if refs else None
                if ref is not None:
                    return self.check(
                        TABLE_REFERENCE,
                        False,
                        f"fragments[{index}].{field} names {ref!r}, not an "
                        f"index into {count} messages",
                    )
            entry = _Entry(record, self.key)
            # equal exactly when the canonical records are: the message
            # indices are validated integers, the rest canonical text
            key = (
                entry.process,
                entry.round,
                entry.proposal,
                entry.decision,
                entry.sent,
                entry.send_omitted,
                entry.received,
                entry.receive_omitted,
            )
            if key in seen:
                return self.check(
                    TABLE_DUPLICATE,
                    False,
                    f"fragments[{index}] repeats an earlier entry",
                )
            seen.add(key)
            self.entries.append(entry)
        # per table: entries well-formed and distinct; for fragments
        # also every reference resolves
        self.checked += 5
        return True

    # -- executions (A.1.4 / A.1.5 / A.1.6) -------------------------------

    def _resolve(self, label: str) -> _Run | None:
        """Validate one execution record against the tables."""
        where = f"execution {label!r}"
        record = self.executions[label]
        if not (
            isinstance(record, dict)
            and _is_int(record.get("n"))
            and _is_int(record.get("t"))
            and isinstance(record.get("faulty"), list)
            and all(_is_int(pid) for pid in record["faulty"])
            and isinstance(record.get("behaviors"), list)
        ):
            self.fail(
                SCHEMA_STRUCTURE,
                f"{where} is malformed: it needs integer n and t, an "
                "integer faulty list and a behavior list",
            )
            return None
        size = len(self.entries)
        behaviors: list[list[int]] = []
        finals: list[tuple[dict, str, str | None]] = []
        for pid, behavior in enumerate(record["behaviors"]):
            if not isinstance(behavior, dict) or not isinstance(
                behavior.get("fragments"), list
            ):
                self.fail(
                    SCHEMA_STRUCTURE,
                    f"{where} is malformed: p{pid} has no fragment list",
                )
                return None
            problem = _state_problem(behavior.get("final_state"))
            if problem is not None:
                self.fail(
                    SCHEMA_STRUCTURE,
                    f"{where} is malformed: p{pid}'s final {problem}",
                )
                return None
            refs = behavior["fragments"]
            ref = _bad_reference(refs, size)
            if ref is not None:
                self.fail(
                    TABLE_REFERENCE,
                    f"{where}: p{pid} names fragment {ref!r}, not an "
                    f"index into {size} fragments",
                )
                return None
            final = behavior["final_state"]
            behaviors.append(refs)
            finals.append(
                (
                    final,
                    self.key(final["proposal"]),
                    None
                    if final["decision"] is None
                    else self.key(final["decision"]),
                )
            )
        for pid, refs in enumerate(behaviors):
            self._follow_first_use(where, pid, refs)
        return _Run(
            n=record["n"],
            t=record["t"],
            faulty=frozenset(record["faulty"]),
            behaviors=behaviors,
            finals=finals,
        )

    def _follow_first_use(self, where: str, pid: int, refs: list) -> None:
        """Advance the first-use walk that fixes the table order.

        The writer gives each entry its index on first use — labels
        sorted, then pid, round, and a fragment's messages in field and
        list order — so a valid table order is unique.  The first entry
        met ahead of its turn is reported; the walk stops there.
        """
        if not self.in_order:
            return
        entries = self.entries
        for index, ref in enumerate(refs):
            if ref < self.next_fragment:
                continue
            if ref > self.next_fragment:
                self._out_of_order(
                    f"{where}: p{pid} r{index + 1} uses fragments[{ref}] "
                    f"before fragments[{self.next_fragment}]"
                )
                return
            self.next_fragment += 1
            entry = entries[ref]
            for m in entry.outgoing + entry.incoming:
                if m < self.next_message:
                    continue
                if m > self.next_message:
                    self._out_of_order(
                        f"fragments[{ref}] uses messages[{m}] before "
                        f"messages[{self.next_message}]"
                    )
                    return
                self.next_message += 1

    def _out_of_order(self, detail: str) -> None:
        self.in_order = False
        self.check(
            TABLE_ORDER, False, f"tables are not in first-use order: {detail}"
        )

    def verify_table_use(self) -> None:
        """Every table entry is used (checked after the first-use walk)."""
        if self.in_order:
            self.check(
                TABLE_ORDER,
                self.next_fragment == len(self.entries)
                and self.next_message == len(self.senders),
                lambda: f"tables hold unused entries: fragments from "
                f"[{self.next_fragment}], messages from "
                f"[{self.next_message}]",
            )

    def verify_execution(self, label: str) -> None:
        """All structural model conditions for one embedded execution."""
        run = self.runs[label] = self._resolve(label)
        if run is None:
            return
        where = f"execution {label!r}"
        n, t, faulty, behaviors = run.n, run.t, run.faulty, run.behaviors
        self.check(
            A16_BUDGET,
            len(faulty) <= t and all(0 <= pid < n for pid in faulty),
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
        entries = self.entries
        rounds = len(behaviors[0])
        incoming_index: list[list[set[int]]] = [
            [set() for _ in range(rounds + 1)] for _ in range(n)
        ]
        sent_index: list[list[set[int]]] = [
            [set() for _ in range(rounds + 1)] for _ in range(n)
        ]
        commits_fault = [False] * n
        placed: list[tuple[int, int, _Entry]] = []
        for pid, refs in enumerate(behaviors):
            self.check(
                A16_COMPOSITION,
                len(refs) == rounds and rounds >= 1,
                lambda: f"{where}: p{pid} spans {len(refs)} rounds, "
                f"execution spans {rounds}",
            )
            self._verify_behavior(where, pid, run, rounds)
            for index, ref in enumerate(refs):
                round_ = index + 1
                entry = entries[ref]
                # A.1.4 conditions 1-2 at every use; the local ones once
                # per placement (see _verify_fragment)
                if entry.process != pid or entry.round != round_:
                    self.fail(
                        A14_STATE,
                        f"{where}: p{pid} r{round_} fragment carries state "
                        f"of p{entry.process} r{entry.round}",
                    )
                self.checked += 1
                if (ref, pid, round_) not in self.local_checked:
                    self._verify_fragment(where, pid, round_, ref)
                if not (entry.outgoing or entry.incoming):
                    continue  # nothing to index, no fault to note
                slot = min(round_, rounds)
                sent_index[pid][slot].update(entry.sent)
                incoming_index[pid][slot].update(entry.incoming)
                if entry.send_omitted or entry.receive_omitted:
                    commits_fault[pid] = True
                placed.append((pid, round_, entry))
        # A.1.6 send-validity: every sent message is received or
        # receive-omitted by its receiver in the same round; and every
        # incoming message was sent.
        senders = self.senders
        receivers = self.receivers
        for pid, round_, entry in placed:
            slot = min(round_, rounds)
            for m in entry.sent:
                receiver = receivers[m]
                if not (
                    0 <= receiver < n and m in incoming_index[receiver][slot]
                ):
                    self.fail(
                        A16_SEND_VALIDITY,
                        f"{where}: p{pid} r{round_} sent a message "
                        f"neither received nor receive-omitted by "
                        f"p{receiver}",
                    )
            for m in entry.incoming:
                sender = senders[m]
                if not (0 <= sender < n and m in sent_index[sender][slot]):
                    self.fail(
                        A16_RECEIVE_VALIDITY,
                        f"{where}: p{pid} r{round_} records an incoming "
                        f"message p{sender} never successfully sent",
                    )
            self.checked += len(entry.sent) + len(entry.incoming)
        for pid in range(n):
            self.check(
                A16_OMISSION_VALIDITY,
                not commits_fault[pid] or pid in faulty,
                lambda: f"{where}: p{pid} commits omission faults but is "
                "not in the faulty set",
            )

    def _verify_fragment(
        self, where: str, pid: int, round_: int, ref: int
    ) -> None:
        """A.1.4 conditions 3-10 on the fragment entry used at
        ``(pid, round_)``.

        They depend only on the entry and the position, and an entry
        whose state matches its position (conditions 1-2, checked at
        every use) has one position, so they run once per entry.  An
        entry used where its state does not belong is judged against
        that position, as a v1 record was.
        """
        entry = self.entries[ref]
        self.local_checked.add((ref, pid, round_))
        self.checked += 8
        outgoing = entry.outgoing
        incoming = entry.incoming
        if not outgoing and not incoming:
            return  # all eight hold for a fragment without messages
        senders = self.senders
        receivers = self.receivers
        rounds = self.rounds
        every = outgoing + incoming
        to = [receivers[m] for m in outgoing]
        came_from = [senders[m] for m in incoming]
        for condition, holds, text in (
            (
                A14_ROUND,
                all(rounds[m] == round_ for m in every),
                "contains a message of another round",
            ),
            (
                A14_SEND_DISJOINT,
                set(entry.sent).isdisjoint(entry.send_omitted),
                "sent and send-omitted overlap",
            ),
            (
                A14_RECEIVE_DISJOINT,
                set(entry.received).isdisjoint(entry.receive_omitted),
                "received and receive-omitted overlap",
            ),
            (
                A14_SENDER,
                all(senders[m] == pid for m in outgoing),
                "outgoing message with a foreign sender",
            ),
            (
                A14_RECEIVER,
                all(receivers[m] == pid for m in incoming),
                "incoming message with a foreign receiver",
            ),
            (
                A14_NO_SELF,
                all(senders[m] != receivers[m] for m in every),
                "contains a self-message",
            ),
            (
                A14_UNIQUE_RECEIVER,
                len(to) == len(set(to)),
                "sends two messages to one receiver",
            ),
            (
                A14_UNIQUE_SENDER,
                len(came_from) == len(set(came_from)),
                "records two incoming messages from one sender",
            ),
        ):
            if not holds:
                self.fail(
                    condition,
                    f"{where}: p{pid} r{round_} (fragments[{ref}]) {text}",
                )

    def _verify_behavior(
        self, where: str, pid: int, run: _Run, rounds: int
    ) -> None:
        """The structural A.1.5 conditions on one behavior."""
        fragments = [self.entries[ref] for ref in run.behaviors[pid]]
        final, final_proposal, final_decision = run.finals[pid]
        self.check(
            A15_SEQUENCE,
            all(
                entry.round == index + 1
                for index, entry in enumerate(fragments)
            ),
            lambda: f"{where}: p{pid} fragments are not consecutively "
            "numbered from round 1",
        )
        proposals = [entry.proposal for entry in fragments]
        proposals.append(final_proposal)
        self.check(
            A15_PROPOSAL,
            all(proposal == proposals[0] for proposal in proposals),
            lambda: f"{where}: p{pid}'s proposal changes across rounds",
        )
        decisions = [entry.decision for entry in fragments]
        decisions.append(final_decision)
        decision: str | None = None
        write_once = decisions[0] is None
        for recorded in decisions:
            if decision is None:
                decision = recorded
            elif recorded != decision:
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
            final["process"] == pid and final["round"] == rounds + 1,
            lambda: f"{where}: p{pid}'s final state is not the state at "
            f"the start of round {rounds + 1}",
        )

    def _run(self, label: str) -> _Run:
        """The validated execution ``label``; ``KeyError`` when it was
        malformed (reported already), so claims on it fail as malformed."""
        run = self.runs.get(label)
        if run is None:
            raise KeyError(f"execution {label!r} is malformed")
        return run

    # -- Definition 1 -----------------------------------------------------

    def verify_isolation(self, claim: dict) -> None:
        """Definition 1 for one isolation claim, from the records."""
        label = claim.get("execution")
        if not self.check(
            DEF1_ISOLATION,
            isinstance(label, str) and label in self.executions,
            f"isolation claim references unknown execution {label!r}",
        ):
            return
        where = f"execution {label!r}"
        try:
            group = set(claim["group"])
            from_round = claim["from_round"]
            run = self._run(label)
            if not self.check(
                DEF1_ISOLATION,
                bool(group)
                and group <= run.faulty
                and group != set(range(run.n)),
                f"{where}: claimed group {sorted(group)} is empty, not "
                "within the faulty set, or not a proper subset",
            ):
                return
            senders = self.senders
            for pid in sorted(group):
                for index, ref in enumerate(run.behaviors[pid]):
                    round_ = index + 1
                    entry = self.entries[ref]
                    self.check(
                        DEF1_ISOLATION,
                        not entry.send_omitted,
                        lambda: f"{where}: p{pid} send-omits in r{round_} "
                        "despite isolation",
                    )
                    self.check(
                        DEF1_ISOLATION,
                        all(
                            senders[m] in group or round_ < from_round
                            for m in entry.received
                        ),
                        lambda: f"{where}: p{pid} r{round_} received an "
                        f"outside message that isolation from round "
                        f"{from_round} requires dropping",
                    )
                    self.check(
                        DEF1_ISOLATION,
                        all(
                            senders[m] not in group
                            and round_ >= from_round
                            for m in entry.receive_omitted
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
        left_label = claim.get("left")
        right_label = claim.get("right")
        if not self.check(
            S3_INDISTINGUISHABILITY,
            isinstance(left_label, str)
            and isinstance(right_label, str)
            and left_label in self.executions
            and right_label in self.executions,
            f"indistinguishability claim references unknown executions "
            f"({left_label!r}, {right_label!r})",
        ):
            return
        where = f"({left_label!r} ~ {right_label!r})"
        entries = self.entries
        try:
            left = self._run(left_label)
            right = self._run(right_label)
            for pid in claim["processes"]:
                lrefs = left.behaviors[pid]
                rrefs = right.behaviors[pid]
                if not self.check(
                    S3_INDISTINGUISHABILITY,
                    len(lrefs) == len(rrefs),
                    lambda: f"{where}: p{pid}'s behaviors span different "
                    "horizons",
                ):
                    continue
                self.check(
                    S3_INDISTINGUISHABILITY,
                    entries[lrefs[0]].proposal == entries[rrefs[0]].proposal,
                    lambda: f"{where}: p{pid} proposes differently",
                )
                for index, (lref, rref) in enumerate(zip(lrefs, rrefs)):
                    # one entry is one received set; distinct entries
                    # may still receive the same set
                    if lref != rref and set(entries[lref].received) != set(
                        entries[rref].received
                    ):
                        self.fail(
                            S3_INDISTINGUISHABILITY,
                            f"{where}: p{pid} receives different messages "
                            f"in round {index + 1}",
                        )
                    self.checked += 1
        except (KeyError, TypeError, IndexError) as error:
            self.fail(
                S3_INDISTINGUISHABILITY,
                f"indistinguishability claim {where} is malformed: "
                f"{error}",
            )

    # -- the witness claim ------------------------------------------------

    def verify_witness(self) -> None:
        """The claimed property breach, re-derived from the records."""
        witness = self.payload["witness"]
        claim = self.payload["claim"]
        if witness is None:
            return
        label = witness.get("execution")
        if not self.check(
            WITNESS_REFERENCE,
            isinstance(label, str)
            and label in self.executions
            and witness.get("kind")
            in ("agreement", "termination", "weak-validity"),
            f"witness references unknown execution {label!r} or carries "
            f"an unknown kind {witness.get('kind')!r}",
        ):
            return
        try:
            run = self._run(label)
            n = run.n
            faulty = run.faulty
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
                return run.finals[pid][2]

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
                    self.entries[refs[0]].proposal
                    for refs in run.behaviors
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
                    label in self.executions,
                    f"accounting references unknown execution {label!r}",
                ):
                    continue
                run = self._run(label)
                recomputed = sum(
                    len(self.entries[ref].sent)
                    for pid, refs in enumerate(run.behaviors)
                    if pid not in run.faulty
                    for ref in refs
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
        executions = self.executions
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
        by canonical encoding, so no library equality is trusted.  A
        payload the codec cannot decode, or a machine that raises on the
        recorded inputs, fails the condition like a wrong send.
        """
        from repro.sim.serialization import decode_payload, encode_payload

        messages = self.payload["messages"]
        decoded: dict[int, Any] = {}

        def payload_of(m: int) -> Any:
            if m not in decoded:
                decoded[m] = decode_payload(messages[m]["payload"])
            return decoded[m]

        def canon_value(value: Any) -> str:
            return _canon(encode_payload(value))

        for label in sorted(self.executions):
            run = self.runs[label]
            assert run is not None  # replay runs only on a clean pass
            where = f"execution {label!r}"
            for pid in range(run.n):
                try:
                    self._replay(
                        where, pid, run, factory, payload_of, canon_value
                    )
                except Exception as error:  # the artifact's inputs broke it
                    self.fail(
                        A15_TRANSITIONS,
                        f"{where}: p{pid} cannot be replayed: "
                        f"{type(error).__name__}: {error}",
                    )

    def _replay(
        self,
        where: str,
        pid: int,
        run: _Run,
        factory: Callable,
        payload_of: Callable[[int], Any],
        canon_value: Callable[[Any], str],
    ) -> None:
        """Behavior condition 7 for one process of one execution."""
        from repro.sim.serialization import decode_payload

        messages = self.payload["messages"]
        senders = self.senders
        receivers = self.receivers
        fragments = [self.entries[ref] for ref in run.behaviors[pid]]
        machine = factory(pid, decode_payload(fragments[0].state["proposal"]))
        for index, entry in enumerate(fragments):
            round_ = index + 1
            produced = machine.validate_outgoing(
                round_, machine.outgoing(round_)
            )
            produced_canon = {
                receiver: canon_value(payload)
                for receiver, payload in produced.items()
            }
            recorded_canon = {
                receivers[m]: _canon(messages[m]["payload"])
                for m in entry.outgoing
            }
            if not self.check(
                A15_TRANSITIONS,
                produced_canon == recorded_canon,
                f"{where}: p{pid} r{round_} recorded sends are not what "
                "the algorithm produces",
            ):
                return
            machine.deliver(
                round_,
                {
                    senders[m]: payload_of(m)
                    for m in sorted(entry.received, key=senders.__getitem__)
                },
            )
        final_decision = run.finals[pid][2]
        machine_decision = machine.snapshot(len(fragments) + 1).decision
        self.check(
            A15_TRANSITIONS,
            (final_decision is None) == (machine_decision is None)
            and (
                final_decision is None
                or final_decision == canon_value(machine_decision)
            ),
            f"{where}: p{pid}'s recorded decision is not what the "
            "algorithm decides on this input",
        )


def verify_certificate(
    source: Any,
    factory: Callable | None = None,
) -> VerificationReport:
    """Re-derive every claim of a certificate from the artifact alone.

    Args:
        source: a :class:`~repro.certify.format.Certificate`, its payload
            dict, or the JSON artifact as text/bytes; schema v2, or a
            published v1 artifact.
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
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
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
        except (json.JSONDecodeError, RecursionError) as error:
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
    if verifier.verify_schema() and verifier.verify_tables():
        payload = verifier.payload
        for label in sorted(verifier.executions):
            verifier.verify_execution(label)
        verifier.verify_table_use()
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
