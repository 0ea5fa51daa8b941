"""The ProtocolSpec contract, enforced uniformly across every protocol.

Whatever the algorithm, a spec must satisfy the library-wide contract:

1. a fault-free run produces a model-valid trace (all A.1.6 conditions);
2. every behavior replays deterministically (A.1.5 condition 7);
3. every process decides within the declared horizon;
4. two identical runs produce identical executions (determinism);
5. message complexity is invariant across identical runs.

One parametrized test-class covers all protocols, so any new protocol
gets the whole battery by adding a single registry entry.
"""

import pytest

from repro.protocols.dolev_strong import dolev_strong_spec
from repro.protocols.eig import eig_consensus_spec, eig_vector_spec
from repro.protocols.external_validity import (
    ClientPool,
    external_validity_spec,
)
from repro.protocols.interactive_consistency import authenticated_ic_spec
from repro.protocols.phase_king import phase_king_spec
from repro.protocols.strong_consensus import (
    authenticated_strong_consensus_spec,
)
from repro.protocols.subquadratic import (
    committee_cheater_spec,
    leader_echo_spec,
    ring_token_spec,
    seeded_committee_cheater_spec,
    silent_cheater_spec,
)
from repro.protocols.weak_consensus import (
    broadcast_weak_consensus_spec,
    naive_flooding_spec,
)
from repro.sim.execution import check_execution, check_transitions


def _external_validity_case():
    pool = ClientPool(clients=5)
    spec = external_validity_spec(
        5, 2, validator=pool.validator(), fallback=pool.issue(0, "fb")
    )
    proposals = [pool.issue(client, f"tx{client}") for client in range(5)]
    return spec, proposals


CASES = {
    "dolev-strong": lambda: (dolev_strong_spec(5, 2), ["v", 0, 0, 0, 0]),
    "eig-consensus": lambda: (eig_consensus_spec(7, 2), [0, 1] * 3 + [0]),
    "eig-vector": lambda: (eig_vector_spec(4, 1), [0, 1, 1, 0]),
    "phase-king": lambda: (phase_king_spec(7, 2), [1, 0] * 3 + [1]),
    "auth-ic": lambda: (authenticated_ic_spec(4, 1), list("abcd")),
    "strong-ic": lambda: (
        authenticated_strong_consensus_spec(5, 2),
        [1, 1, 0, 1, 0],
    ),
    "weak-broadcast": lambda: (
        broadcast_weak_consensus_spec(5, 2),
        [0] * 5,
    ),
    "naive-flooding": lambda: (naive_flooding_spec(5, 2), [0] * 5),
    "external-validity": _external_validity_case,
    "silent-cheater": lambda: (silent_cheater_spec(8, 4), [0] * 8),
    "leader-echo": lambda: (leader_echo_spec(8, 4), [0] * 8),
    "committee-cheater": lambda: (
        committee_cheater_spec(8, 4),
        [0] * 8,
    ),
    "ring-token": lambda: (ring_token_spec(8, 4), [0] * 8),
    "seeded-committee": lambda: (
        seeded_committee_cheater_spec(8, 4, seed=1),
        [0] * 8,
    ),
}


@pytest.mark.parametrize("case_name", sorted(CASES))
class TestProtocolContract:
    def test_trace_valid_and_replayable(self, case_name):
        spec, proposals = CASES[case_name]()
        execution = spec.run(list(proposals), check=False)
        check_execution(execution)
        check_transitions(execution, spec.factory)

    def test_decides_within_declared_horizon(self, case_name):
        spec, proposals = CASES[case_name]()
        execution = spec.run(list(proposals))
        for pid in range(spec.n):
            assert execution.decision(pid) is not None, (
                f"{spec.name}: p{pid} undecided within "
                f"{spec.rounds} rounds"
            )

    def test_deterministic_across_runs(self, case_name):
        spec, proposals = CASES[case_name]()
        first = spec.run(list(proposals))
        second = spec.run(list(proposals))
        assert first == second
        assert (
            first.message_complexity() == second.message_complexity()
        )
