"""The unital hierarchy: implication edges, counterexample catalog, and
lemma-level equality suites.

For unital carriers the twisted associativity types order themselves: the
classical placement (I1, equivalently II) is the most restrictive, I3 sits
below it, and the degree-three types are implied but imply nothing.  Every
positive implication is confirmed here by an exhaustive no-countermodel
search, and every non-implication is witnessed by a small hom-monoid from
the bundled catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modp
from .carriers import FieldHomAlgebra, FiniteHomMagma, from_relations, weak_left_unit
from .errors import AlphaNotInvertible, HypothesisNotMet, NotWeaklyUnital
from .evaluate import holds, holds_multilinear, type_profile
from .search import Verdict, verdict_to_dict, verify_implication
from .terms import TypeTag, builtin, parse_identity


@dataclass(frozen=True)
class Fixture:
    """One catalog entry: a refuting structure plus the types it is claimed
    to satisfy and to violate.  Only the named claims are asserted; the
    structure's full profile usually satisfies more."""

    num: int
    claim: str
    relations: str
    satisfied: frozenset
    violated: frozenset

    def magma(self) -> FiniteHomMagma:
        return from_relations(self.relations)


_FIXTURES = (
    (1, "I2 =/=> I3", "alpha: e2->e1", {"I2"}, {"I3"}),
    (2, "I2,II2 =/=> II3", "elements: e1 e2; alpha: e1->e1", {"I2", "II2"}, {"II3"}),
    (3, "II1,II2,II3,I2 =/=> I3", "alpha: e2->e2", {"II1", "II2", "II3", "I2"}, {"I3"}),
    (4, "I3 =/=> I1", "e2*e2=e1; alpha: e1->e3", {"I3"}, {"I1"}),
    (5, "I2 =/=> II2", "e2*e2=e2; e2*e3=e2; alpha: e3->e2", {"I2"}, {"II2"}),
    (6, "II2 =/=> I2", "e2*e3=e3; alpha: e1->e2", {"II2"}, {"I2"}),
    (7, "II1,II2 =/=> II3", "e2*e3=e1; e3*e2=e1; alpha: e1->e3", {"II1", "II2"}, {"II3"}),
    (8, "II1 =/=> II2", "e2*e3=e1; alpha: e1->e2", {"II1"}, {"II2"}),
    (9, "II1,II2,II3 =/=> I2", "e2*e3=e1; e3*e2=e1; alpha: e2->e3", {"II1", "II2", "II3"}, {"I2"}),
    (10, "II2,II3 =/=> II1", "e2*e2=e1; e3*e3=e2; alpha: e1->e3", {"II2", "II3"}, {"II1"}),
    (11, "I2,II1,II3 =/=> II2", "e3*e2=e4; e4*e3=e2; alpha: e1->e3", {"I2", "II1", "II3"}, {"II2"}),
    (12, "III,III'' =/=> III'", "alpha: e2->e1", {"III", "III''"}, {"III'"}),
    (13, "III,III' =/=> III''", "e2*e2=e3; e3*e2=e2; alpha: e1->e2", {"III", "III'"}, {"III''"}),
    (14, "III',III'' =/=> III", "e2*e2=e3; e3*e2=e3; alpha: e3->e3", {"III'", "III''"}, {"III"}),
    (15, "III,III',III'' =/=> I2,II1,II2,II3",
     "e2*e2=e1; e2*e3=e1; e3*e2=e2; e3*e3=e1; alpha: e1->e3, e2->e3, e3->e3",
     {"III", "III'", "III''"}, {"I2", "II1", "II2", "II3"}),
    (16, "I3 =/=> III,III'", "e2*e2=e1; e3*e3=e3; alpha: e1->e3, e3->e3",
     {"I3"}, {"III", "III'"}),
)


def counterexample_fixtures() -> tuple:
    """The sixteen bundled counterexamples to inter-type implications."""
    return tuple(
        Fixture(num, claim, rel, frozenset(sat), frozenset(vio))
        for num, claim, rel, sat, vio in _FIXTURES
    )


@dataclass(frozen=True)
class FixtureReport:
    fixture: Fixture
    profile: frozenset  # computed satisfied type names
    mismatches: tuple

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_fixture(fixture: Fixture) -> FixtureReport:
    """Recompute the fixture's type profile and compare with its claims."""
    prof = type_profile(fixture.magma()).names("assoc")
    mism = []
    for name in sorted(fixture.satisfied):
        if name not in prof:
            mism.append(f"claimed satisfied {name} but it fails")
    for name in sorted(fixture.violated):
        if name in prof:
            mism.append(f"claimed violated {name} but it holds")
    return FixtureReport(fixture, frozenset(prof), tuple(mism))


@dataclass(frozen=True)
class Edge:
    label: str
    premises: frozenset
    conclusion: str


def _edge(premises, conclusion) -> Edge:
    label = ",".join(sorted(premises)) + "=>" + conclusion
    return Edge(label, frozenset(premises), conclusion)


#: Positive implications between unital types; each is expected to survive
#: an exhaustive countermodel search.
IMPLICATION_EDGES = (
    _edge({"I1"}, "II"),
    _edge({"II"}, "I1"),
    _edge({"I1"}, "I3"),
    _edge({"I3"}, "I2"),
    _edge({"I3"}, "II2"),
    _edge({"I3"}, "II3"),
    _edge({"I1"}, "III"),
    _edge({"I1"}, "III'"),
    _edge({"I1"}, "III''"),
    _edge({"I3"}, "III''"),
    _edge({"I2"}, "III''"),
    _edge({"II2"}, "III''"),
    _edge({"II1", "II3"}, "III''"),
    _edge({"I2", "II3"}, "II1"),
    _edge({"I2", "II1"}, "II3"),
    _edge({"I1"}, "II1"),
)

#: Reverse-direction probes for the degree-three family.  These arrows are
#: NOT expected to hold; the searches document the refuting models instead
#: of taking either direction on faith.
SUSPECT_EDGES = (
    _edge({"III"}, "I1"),
    _edge({"III'"}, "I1"),
    _edge({"III''"}, "I1"),
)


# Lemma suites: hypothesis (a disjunction of type-name conjunctions) plus
# the element-level equalities it forces on a unital carrier.
LEMMAS = {
    "I1-or-II": (
        (("I1",), ("II",)),
        ("a(x)*y = x*a(y)", "x*a(1) = a(x)", "a(x*y) = x*a(y)"),
    ),
    "I1-assoc": (
        (("I1",),),
        ("a(x)*(y*z) = (a(x)*y)*z", "x*(y*a(z)) = (x*y)*a(z)"),
    ),
    "I3-unit": (
        (("I3",),),
        ("a(x) = x*a(1)", "x*a(y) = a(x)*y"),
    ),
    "II1-II3": (
        (("II1", "II3"),),
        (
            "a(1)*a(x) = a(x)*a(1)",
            "a(a(x))*a(1) = a(x)*a(a(1))",
            "a(x)*(a(1)*a(y)) = (a(x)*a(1))*a(y)",
            "a(a(x))*a(y) = a(x)*a(a(y))",
        ),
    ),
}


def lemma_equalities(magma: FiniteHomMagma, lemma_id: str) -> bool:
    """Check every equality of the named lemma on all element assignments.

    Raises HypothesisNotMet unless the magma satisfies the lemma's
    hypothesis types.
    """
    try:
        hypothesis, equalities = LEMMAS[lemma_id]
    except KeyError:
        raise KeyError(f"unknown lemma {lemma_id!r}; have {sorted(LEMMAS)}") from None
    met = any(
        all(holds(magma, builtin(TypeTag("assoc", name))) for name in clause)
        for clause in hypothesis
    )
    if not met:
        wanted = " or ".join("&".join(clause) for clause in hypothesis)
        raise HypothesisNotMet(f"lemma {lemma_id} needs types {wanted}")
    return all(holds(magma, parse_identity(src)) for src in equalities)


@dataclass(frozen=True)
class EdgeResult:
    edge: Edge
    verdict: Verdict

    @property
    def confirmed(self) -> bool:
        return not self.verdict.found


@dataclass(frozen=True)
class HierarchyReport:
    max_n: int
    edges: tuple
    suspects: tuple
    fixtures: tuple

    @property
    def passed(self) -> bool:
        # A suspect probe passes when it finds its refuting countermodel.
        return (
            all(e.confirmed for e in self.edges)
            and all(e.verdict.found for e in self.suspects)
            and all(f.passed for f in self.fixtures)
        )

    def to_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "passed": self.passed,
            "edges": {e.edge.label: verdict_to_dict(e.verdict) for e in self.edges},
            "suspect_edges": {
                e.edge.label: verdict_to_dict(e.verdict) for e in self.suspects
            },
            "fixtures": {
                str(f.fixture.num): {
                    "claim": f.fixture.claim,
                    "status": "pass" if f.passed else "fail",
                    "profile": sorted(f.profile),
                    "mismatches": list(f.mismatches),
                }
                for f in self.fixtures
            },
        }

    def to_text(self) -> str:
        lines = [f"hierarchy check, bound {self.max_n} nonzero elements"]
        for e in self.edges:
            status = "exhausted" if e.confirmed else "COUNTERMODEL"
            lines.append(f"  edge {e.edge.label:<22} {status}")
        for e in self.suspects:
            status = "refuted by countermodel" if e.verdict.found else "FAIL no countermodel"
            lines.append(f"  probe {e.edge.label:<21} {status}")
        for f in self.fixtures:
            status = "pass" if f.passed else "FAIL " + "; ".join(f.mismatches)
            lines.append(f"  fixture {f.fixture.num:>2} ({f.fixture.claim}): {status}")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def verify_hierarchy(max_n: int = 3, workers: int = 1) -> HierarchyReport:
    """Exhaust every positive edge, probe the suspect reverse arrows, and
    re-verify all sixteen catalog fixtures."""
    edges, suspects = (
        tuple(
            EdgeResult(e, verify_implication(e.premises, e.conclusion, max_n, workers))
            for e in group
        )
        for group in (IMPLICATION_EDGES, SUSPECT_EDGES)
    )
    fixtures = tuple(verify_fixture(f) for f in counterexample_fixtures())
    return HierarchyReport(max_n, edges, suspects, fixtures)


@dataclass(frozen=True)
class InverseTwistReport:
    weak_unit: np.ndarray
    inverse_twist: np.ndarray
    holds_i3: bool
    holds_ii: bool

    @property
    def passed(self) -> bool:
        return self.holds_i3 and self.holds_ii


def inverse_twist_check(algebra: FieldHomAlgebra) -> InverseTwistReport:
    """For a weakly left unital type-I1 algebra with invertible twist,
    replace the twist by its inverse and confirm types I3 and II."""
    if not holds_multilinear(algebra, builtin(TypeTag("assoc", "I1"))):
        raise HypothesisNotMet("algebra is not of type I1")
    witness = weak_left_unit(algebra)
    if witness is None:
        raise NotWeaklyUnital("no element c with alpha(x) = c*x exists")
    beta = modp.inv_matrix(algebra.alpha, algebra.p)
    if beta is None:
        raise AlphaNotInvertible("twist matrix is singular mod p")
    flipped = algebra.with_twist(beta)
    return InverseTwistReport(
        weak_unit=witness.element,
        inverse_twist=beta,
        holds_i3=holds_multilinear(flipped, builtin(TypeTag("assoc", "I3"))),
        holds_ii=holds_multilinear(flipped, builtin(TypeTag("assoc", "II"))),
    )
