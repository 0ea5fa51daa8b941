"""The general solvability theorem (Theorem 4, §5.2) as a decision procedure.

A non-trivial Byzantine agreement problem ``P`` is:

* **authenticated-solvable** iff ``P`` satisfies the containment condition;
* **unauthenticated-solvable** iff ``P`` satisfies CC **and** ``n > 3t``.

The three ingredient results are all mechanized in this library:

* *Necessity of CC* (Lemma 8) — a consequence of Lemma 7, exercised by the
  execution-level tests: every decision a solvable algorithm reaches lies
  in the containment intersection.
* *Sufficiency of CC* (Lemma 9) — constructive: Algorithm 2
  (:mod:`repro.reductions.any_from_ic`) actually solves any CC problem on
  top of interactive consistency, which the test-suite runs under
  Byzantine faults.
* *Unauthenticated triviality for n ≤ 3t* (Lemma 10) — via the Algorithm-1
  reduction and the classic ``n > 3t`` impossibility [55].

Trivial problems are always solvable with zero messages; the classifier
reports them separately rather than through the theorem's branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.solvability.cc import CCReport, containment_condition
from repro.validity.property import AgreementProblem
from repro.validity.triviality import TrivialityReport, triviality_report


@dataclass(frozen=True)
class SolvabilityReport:
    """The full classification of one agreement problem.

    Attributes:
        problem_name: the analysed problem.
        n, t: system parameters (encoded in the validity property, §4.1).
        triviality: the triviality analysis.
        cc: the containment-condition analysis.
        authenticated_solvable: Theorem 4, first branch (non-trivial
            problems) — or trivially ``True`` for trivial problems.
        unauthenticated_solvable: Theorem 4, second branch.
    """

    problem_name: str
    n: int
    t: int
    triviality: TrivialityReport
    cc: CCReport

    @property
    def trivial(self) -> bool:
        """Whether the problem admits the zero-message constant solution."""
        return self.triviality.trivial

    @property
    def authenticated_solvable(self) -> bool:
        """Theorem 4: non-trivial problems need CC; trivial ones are free."""
        return self.trivial or self.cc.holds

    @property
    def unauthenticated_solvable(self) -> bool:
        """Theorem 4: additionally requires ``n > 3t`` (Lemma 10)."""
        if self.trivial:
            return True
        return self.cc.holds and self.n > 3 * self.t

    def render(self) -> str:
        """One line for the E5 classification table."""
        return (
            f"{self.problem_name:<34} n={self.n} t={self.t} "
            f"trivial={'Y' if self.trivial else 'N'} "
            f"CC={'Y' if self.cc.holds else 'N'} "
            f"auth={'Y' if self.authenticated_solvable else 'N'} "
            f"unauth={'Y' if self.unauthenticated_solvable else 'N'}"
        )


def classify(problem: AgreementProblem) -> SolvabilityReport:
    """Run the full Theorem-4 classification on ``problem``."""
    return SolvabilityReport(
        problem_name=problem.name,
        n=problem.n,
        t=problem.t,
        triviality=triviality_report(problem),
        cc=containment_condition(problem),
    )
