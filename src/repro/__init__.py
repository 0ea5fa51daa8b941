"""repro — executable reproduction of *All Byzantine Agreement Problems
are Expensive* (Civit, Gilbert, Guerraoui, Komatovic, Paramonov,
Vidigueira; PODC 2024).

The package turns the paper's mathematics into running code:

* :mod:`repro.sim` — the synchronous computational model of Appendix A
  (deterministic state machines, omission/Byzantine static adversaries,
  fragment/behavior/execution records with mechanical validity checks).
* :mod:`repro.crypto` — simulated idealized signatures (§5.1).
* :mod:`repro.omission` — the proof constructions: isolation
  (Definition 1), ``swap_omission`` (Algorithm 4), ``merge``
  (Algorithm 5), indistinguishability.
* :mod:`repro.lowerbound` — Theorem 2 as an attack pipeline that breaks
  any sub-quadratic weak consensus candidate with a machine-checkable
  violation witness.
* :mod:`repro.validity` — input configurations and validity properties
  (§4.1), containment relation (§4.2), triviality.
* :mod:`repro.solvability` — the containment condition and the general
  solvability theorem (Theorem 4), plus Theorem 5's boundary.
* :mod:`repro.reductions` — Algorithm 1 (weak consensus from anything
  non-trivial, zero messages) and Algorithm 2 (anything CC from IC).
* :mod:`repro.protocols` — Dolev–Strong, EIG, Phase King, interactive
  consistency, weak/strong consensus, external validity, and the
  sub-quadratic cheaters the lower bound devours.
* :mod:`repro.analysis` — sweeps, power-law fits and report tables.

Quickstart::

    from repro.protocols import silent_cheater_spec
    from repro.lowerbound import attack_weak_consensus

    outcome = attack_weak_consensus(silent_cheater_spec(n=16, t=8))
    print(outcome.render())          # a verified Agreement violation
"""

import importlib
import sys
from typing import Any, Callable

from repro.errors import (
    AdversaryError,
    ModelViolation,
    ProtocolViolation,
    ReproError,
    SignatureError,
    TrivialProblemError,
    UnsolvableProblemError,
)
from repro.types import Bit, Payload, ProcessId, Round

__version__ = "1.0.0"


def _lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for lazy re-exports (PEP 562).

    ``exports`` maps a submodule, relative to ``package`` (``".eig"``),
    to the names the package re-exports from it.  A name's submodule is
    imported on first access and the value cached in the package, so
    importing a package loads none of its submodules.  A name equal to
    a submodule's own name must be imported eagerly instead: importing
    that submodule binds the module over the missing attribute.
    """
    where = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return sorted(where), __getattr__, __dir__


__all__ = [
    "AdversaryError",
    "Bit",
    "ModelViolation",
    "Payload",
    "ProcessId",
    "ProtocolViolation",
    "ReproError",
    "Round",
    "SignatureError",
    "TrivialProblemError",
    "UnsolvableProblemError",
    "__version__",
]
