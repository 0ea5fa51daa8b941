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

from repro import _lazy_exports

# ``merge`` is also its submodule's name: importing ``repro.omission.merge``
# would bind the module over a lazy ``merge``, so this one is eager.
from repro.omission.merge import merge

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".indistinguishability": (
            "DivergenceProfile", "divergence_profile",
            "first_distinguishing_round", "first_send_divergence",
            "indistinguishable_to", "indistinguishable_to_all",
        ),
        ".isolation": ("IsolationAdversary", "check_isolated", "isolate_group"),
        ".masks": ("compile_omissions",),
        ".merge": (
            "MergeSpec", "check_merge_inputs", "check_merge_result", "merge",
            "uniform_proposal",
        ),
        ".swap": ("SwapResult", "swap_omission", "swap_omission_checked"),
    },
)
