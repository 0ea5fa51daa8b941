"""Concrete Byzantine agreement protocols (the paper's substrate).

* :mod:`repro.protocols.dolev_strong` — authenticated Byzantine broadcast,
  any ``t < n`` ([52]).
* :mod:`repro.protocols.eig` — unauthenticated EIG agreement and
  interactive consistency, ``n > 3t`` ([78], [82]).
* :mod:`repro.protocols.phase_king` — unauthenticated strong consensus
  with polynomial messages, ``n > 3t``.
* :mod:`repro.protocols.interactive_consistency` — authenticated and
  unauthenticated IC (§5.2.2).
* :mod:`repro.protocols.weak_consensus` — correct weak consensus plus the
  unsound flooding counterexample.
* :mod:`repro.protocols.strong_consensus` — strong consensus wrappers.
* :mod:`repro.protocols.external_validity` — blockchain-style agreement
  with External Validity (§4.3).
* :mod:`repro.protocols.subquadratic` — sub-quadratic cheaters the lower
  bound breaks (experiment E3).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".base": ("DelegatingProcess", "ProtocolSpec", "SpecBuilder"),
        ".dolev_strong": (
            "DolevStrongProcess", "SENDER_FAULTY", "dolev_strong_spec",
            "scheme_for_spec",
        ),
        ".eig": ("EIGProcess", "eig_consensus_spec", "eig_vector_spec"),
        ".external_validity": (
            "ClientPool", "ExternalValidityAgreement", "Transaction",
            "external_validity_spec",
        ),
        ".interactive_consistency": (
            "ParallelBroadcastIC", "authenticated_ic_spec", "ic_spec",
            "unauthenticated_ic_spec",
        ),
        ".phase_king": ("PhaseKingProcess", "phase_king_spec"),
        ".strong_consensus": (
            "ICMajorityConsensus", "authenticated_strong_consensus_spec",
            "unauthenticated_strong_consensus_spec",
        ),
        ".subquadratic": (
            "ALL_CHEATERS", "CommitteeCheater", "LeaderEchoCheater",
            "RingTokenCheater", "SampledCommitteeCheater", "SilentCheater",
            "committee_cheater_spec", "leader_echo_spec", "ring_token_spec",
            "seeded_committee_cheater_spec", "silent_cheater_spec",
        ),
        ".weak_consensus": (
            "BroadcastWeakConsensus", "NaiveFloodingWeakConsensus",
            "broadcast_weak_consensus_spec", "naive_flooding_spec",
        ),
    },
)
