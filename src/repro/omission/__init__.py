"""Omission-model proof constructions (§3, Appendix A.2).

* :mod:`repro.omission.isolation` — Definition 1 (group isolation) as an
  adversary strategy plus a recorded-execution verifier.
* :mod:`repro.omission.indistinguishability` — the §3 indistinguishability
  relation and the Figure-1 divergence bands.
* :mod:`repro.omission.swap` — Algorithm 4 (``swap_omission``) with the
  Lemma-15 checks.
* :mod:`repro.omission.merge` — Algorithm 5 (``merge``) with Definition 2
  (mergeability) and the Lemma-16 checks.
* :mod:`repro.omission.masks` — compilation of the static omission
  adversaries above to the bitmask kernel's AND-mask form.
"""

from repro.omission.indistinguishability import (
    DivergenceProfile,
    ExecutionDiff,
    diff_executions,
    divergence_profile,
    first_distinguishing_round,
    first_send_divergence,
    indistinguishable_to,
    indistinguishable_to_all,
)
from repro.omission.isolation import (
    IsolationAdversary,
    check_isolated,
    is_isolated,
    isolate_group,
    quiescent_toward,
)
from repro.omission.masks import compile_omissions
from repro.omission.merge import (
    MergeSpec,
    check_merge_inputs,
    check_merge_result,
    is_mergeable,
    merge,
    uniform_proposal,
)
from repro.omission.swap import (
    SwapResult,
    blamed_senders,
    swap_omission,
    swap_omission_checked,
)

__all__ = [
    "DivergenceProfile",
    "ExecutionDiff",
    "IsolationAdversary",
    "diff_executions",
    "MergeSpec",
    "SwapResult",
    "blamed_senders",
    "check_isolated",
    "check_merge_inputs",
    "check_merge_result",
    "compile_omissions",
    "divergence_profile",
    "first_distinguishing_round",
    "first_send_divergence",
    "indistinguishable_to",
    "indistinguishable_to_all",
    "is_isolated",
    "is_mergeable",
    "isolate_group",
    "merge",
    "quiescent_toward",
    "swap_omission",
    "swap_omission_checked",
    "uniform_proposal",
]
