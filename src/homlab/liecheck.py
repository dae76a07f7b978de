"""Lie-side laboratory: bracket fixtures, jacobiator-sum identities, the
twisted-bracket expansion, and related probes.

Everything here works over Z/p with a skew product.  The central fact the
suite leans on: for a Lie bracket the three degree-one jacobiators sum to
zero for every linear twist, and so do the three degree-two ones (apply
the twist/id exchange).  The nine-term expansion of the twisted bracket's
jacobiator is checked against its closed form exactly, term by term.

The jacobiator-sum and type-implication checks evaluate a whole stack of
twists at once: the twist is a leading batch axis of the basis grid, and
each cyclic rotation of each tag's program runs once for the stack through
the algebra's bracket and a twist that maps row k by the k-th matrix.  A
random-twist sweep checks the Lie hypothesis once, draws its seeded twists
in order, and evaluates them in blocks whose (K, d, d, d, d) grid holds at
most ``_SWEEP_CELLS`` cells, so its memory does not grow with the number of
samples; the single-twist checks are the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .carriers import DEFAULT_PRIME, FieldHomAlgebra, new_algebra
from .errors import HypothesisNotMet, InvariantViolation, StructureError
from .evaluate import (
    PLAIN_JACOBI,
    basis_grids,
    compile_identity,
    cyclic_sum,
    holds_multilinear,
    is_lie,
    is_morphism,
    jacobiator,
    run_program,
    twisted_bracket,
)
from .terms import TypeTag, builtin, parse_identity


def _lie_tag(name: str) -> TypeTag:
    return TypeTag("lie", name)


def _skew(p, pairs, d) -> np.ndarray:
    """Structure constants from {(i, j): vector} for i < j, antisymmetrized."""
    c = np.zeros((d, d, d), dtype=np.int64)
    for (i, j), vec in pairs.items():
        c[i, j, :] = np.asarray(vec, dtype=np.int64) % p
        c[j, i, :] = (-c[i, j, :]) % p
    return c


# ------------------------------------------------------------- fixtures

def abelian_algebra(dim: int = 3, p: int = DEFAULT_PRIME) -> FieldHomAlgebra:
    """Zero bracket with the identity twist."""
    return new_algebra(p, np.zeros((dim, dim, dim), dtype=np.int64),
                       np.eye(dim, dtype=np.int64), "skew")


def solvable2_algebra(p: int = DEFAULT_PRIME) -> FieldHomAlgebra:
    """[e1, e2] = e2, identity twist; the 2-dim non-abelian Lie bracket."""
    c = _skew(p, {(0, 1): (0, 1)}, 2)
    return new_algebra(p, c, np.eye(2, dtype=np.int64), "skew")


def sl2_algebra(p: int = DEFAULT_PRIME) -> FieldHomAlgebra:
    """Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    if p in (2, 3):
        raise StructureError("sl2-type constants need characteristic away from 2 and 3")
    c = _skew(p, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}, 3)
    return new_algebra(p, c, np.eye(3, dtype=np.int64), "skew")


def heisenberg_algebra(p: int = DEFAULT_PRIME) -> FieldHomAlgebra:
    """[e1, e2] = e3, identity twist."""
    c = _skew(p, {(0, 1): (0, 0, 1)}, 3)
    return new_algebra(p, c, np.eye(3, dtype=np.int64), "skew")


def nonlie_hom_iii_algebra(p: int = DEFAULT_PRIME) -> FieldHomAlgebra:
    """Three-dimensional skew bracket that fails Jacobi yet satisfies the
    fully-twisted-output identity (lie III), with a rank-2 twist whose
    kernel misses the lower central term.

    Bracket: [u, v] = (u1*v3 - u3*v1, 0, u2*v3 - u3*v2); twist
    (u1, u2, u3) -> (u2, u3, 0).
    """
    if p in (2, 3):
        raise StructureError("this fixture needs characteristic away from 2 and 3")
    c = _skew(p, {(0, 2): (1, 0, 0), (1, 2): (0, 0, 1)}, 3)
    alpha = np.zeros((3, 3), dtype=np.int64)
    alpha[0, 1] = 1
    alpha[1, 2] = 1
    return new_algebra(p, c, alpha, "skew")


def i1_not_i2_algebra(p: int = DEFAULT_PRIME) -> FieldHomAlgebra:
    """Two-dimensional Lie bracket [u, v] = (0, u1*v2 - u2*v1) with the
    shear twist (u1, u2) -> (u1 + u2, u2): satisfies the twisted identity
    in first position (lie I1) but not in second (lie I2)."""
    if p == 2:
        raise StructureError("this fixture needs odd characteristic")
    c = _skew(p, {(0, 1): (0, 1)}, 2)
    alpha = np.array([[1, 1], [0, 1]], dtype=np.int64)
    return new_algebra(p, c, alpha, "skew")


def hom_iii_by_kernel_algebra(p: int = DEFAULT_PRIME) -> FieldHomAlgebra:
    """Same non-Lie bracket as :func:`nonlie_hom_iii_algebra`, but a twist
    chosen to kill the second lower-central term, which forces lie III."""
    base = nonlie_hom_iii_algebra(p)
    alpha = np.zeros((3, 3), dtype=np.int64)
    alpha[1, 1] = 1  # e2 -> e2; e1, e3 (spanning V^2) -> 0
    return base.with_twist(alpha)


def solvable_morphism_algebra(p: int = DEFAULT_PRIME, scale: int = 2) -> FieldHomAlgebra:
    """[e1, e2] = e2 with the bracket morphism e1 -> e1, e2 -> scale*e2."""
    c = _skew(p, {(0, 1): (0, 1)}, 2)
    alpha = np.diag([1, scale % p]).astype(np.int64)
    return new_algebra(p, c, alpha, "skew")


@dataclass(frozen=True)
class LieFixture:
    name: str
    algebra: FieldHomAlgebra


def lie_fixtures(p: int = DEFAULT_PRIME) -> tuple:
    """Named bracket fixtures; their defining claims are re-verified here,
    so loading them cannot silently drift."""
    k3 = nonlie_hom_iii_algebra(p)
    k2 = i1_not_i2_algebra(p)
    kernel = hom_iii_by_kernel_algebra(p)
    morph = solvable_morphism_algebra(p)
    e = np.eye(3, dtype=np.int64)
    checks = (
        not is_lie(k3),
        holds_multilinear(k3, builtin(_lie_tag("III"))),
        np.array_equal(
            cyclic_sum(k3.with_twist(e), builtin(_lie_tag("I1")).lhs, e[0], e[1], e[2]),
            e[0],
        ),
        is_lie(k2),
        holds_multilinear(k2, builtin(_lie_tag("I1"))),
        not holds_multilinear(k2, builtin(_lie_tag("I2"))),
        holds_multilinear(kernel, builtin(_lie_tag("III"))),
        is_morphism(morph),
    )
    if not all(checks):
        raise InvariantViolation(f"lie fixture self-check failed: {checks}")
    return (
        LieFixture("dim3-nonlie-hom-iii", k3),
        LieFixture("dim2-i1-not-i2", k2),
        LieFixture("twist-kills-lower-central", kernel),
        LieFixture("solvable-morphism", morph),
    )


# ------------------------------------------------- randomized ingredients

def random_skew_constants(d: int, p: int, rng: np.random.Generator) -> np.ndarray:
    c = rng.integers(0, p, size=(d, d, d))
    c = (c - c.transpose(1, 0, 2)) % p
    for i in range(d):
        c[i, i, :] = 0
    return c.astype(np.int64)


def random_twist(d: int, p: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, p, size=(d, d)).astype(np.int64)


# -------------------------------------------------------- jacobiator sums

# Cells of the (K, d, d, d, d) basis grid of one block of a sweep's twists.
_SWEEP_CELLS = 1 << 14

_DEGREE_ONE = ("I1", "I2", "I3")
_DEGREE_TWO = ("II1", "II2", "II3")
_IMPLICATION_TYPES = ("I1", "I2", "II1", "II2")


def _twisted_jacobiators(algebra: FieldHomAlgebra, twists: np.ndarray, names) -> dict:
    """{name: (K, d, d, d, d) array}: the jacobiator of each lie tag on the
    basis grid under each twist of the (K, d, d) stack, mod p.

    Entry [k, i, j, l] is the cyclic sum at (e_i, e_j, e_l) with twist
    twists[k].  The grids carry a leading axis of length 1, and the twist
    maps row k of a value by twists[k], whose columns are the images of the
    basis vectors, as :meth:`FieldHomAlgebra.twist` does.  Every name must
    be a tag whose terms twist a variable, so each sum spans the K axis.
    """
    p, d = algebra.p, algebra.dim
    images = np.asarray(twists, dtype=np.int64).transpose(0, 2, 1) % p

    def twist(u):
        rows = u.reshape(u.shape[0], -1, d) @ images
        return rows.reshape((len(images),) + u.shape[1:]) % p

    grids = [g[None] for g in basis_grids(algebra)]
    out = {}
    for name in names:
        program = compile_identity(builtin(_lie_tag(name)))
        total = 0
        for k in range(3):
            x, y, z = grids[k:] + grids[:k]
            env = {"x": x, "y": y, "z": z}
            total = total + run_program(program, env, algebra.unit, twist, algebra.bracket)[0]
        out[name] = total % p
    return out


def _vanishes(sums: np.ndarray) -> np.ndarray:
    """(K,) booleans: row k of a (K, ...) stack is zero."""
    return ~sums.reshape(len(sums), -1).any(axis=1)


def _jacobiator_sums_vanish(algebra: FieldHomAlgebra, twists: np.ndarray) -> np.ndarray:
    """(K,) booleans: under twists[k] the degree-one jacobiators sum to zero
    on the basis grid, and so do the degree-two ones."""
    j = _twisted_jacobiators(algebra, twists, _DEGREE_ONE + _DEGREE_TWO)
    first = sum(j[n] for n in _DEGREE_ONE) % algebra.p
    second = sum(j[n] for n in _DEGREE_TWO) % algebra.p
    return _vanishes(first) & _vanishes(second)


def _lie_type_verdicts(algebra: FieldHomAlgebra, twists: np.ndarray) -> np.ndarray:
    """(K, 4) booleans: whether lie I1, I2, II1 and II2 hold under twists[k]."""
    j = _twisted_jacobiators(algebra, twists, _IMPLICATION_TYPES)
    return np.stack([_vanishes(j[n]) for n in _IMPLICATION_TYPES], axis=1)


def _require_lie(algebra: FieldHomAlgebra, what: str):
    if not is_lie(algebra):
        raise HypothesisNotMet(f"{what} presuppose a Lie bracket")


def _sweep_blocks(algebra: FieldHomAlgebra, samples: int, seed: int, verdicts):
    """verdicts(algebra, twists) on each block of a sweep's twists.

    The samples twists are drawn by :func:`random_twist` in order from the
    seeded generator, and stacked so that a block's (K, d, d, d, d) grid
    holds at most _SWEEP_CELLS cells; each block is drawn only when reached.
    """
    if samples < 0:
        raise ValueError(f"samples must not be negative, got {samples}")
    rng = np.random.default_rng(seed)
    d, p = algebra.dim, algebra.p
    step = max(_SWEEP_CELLS // d**4, 1)
    for start in range(0, samples, step):
        count = min(step, samples - start)
        yield verdicts(algebra, np.array([random_twist(d, p, rng) for _ in range(count)]))


def verify_jacobiator_sums(algebra: FieldHomAlgebra) -> bool:
    """For a Lie bracket: the degree-one jacobiators sum to zero on every
    basis triple, and so do the degree-two ones.  Requires is_lie."""
    _require_lie(algebra, "jacobiator-sum identities")
    return bool(_jacobiator_sums_vanish(algebra, algebra.alpha[None])[0])


def sweep_jacobiator_sums(algebra: FieldHomAlgebra, samples: int, seed: int) -> bool:
    """verify_jacobiator_sums across seeded random twists of the algebra,
    evaluated a block of twists at a time.  Requires is_lie."""
    _require_lie(algebra, "jacobiator-sum identities")
    return all(v.all() for v in _sweep_blocks(algebra, samples, seed, _jacobiator_sums_vanish))


@dataclass(frozen=True)
class LieImplicationReport:
    holds_i1: bool
    holds_i2: bool
    holds_ii1: bool
    holds_ii2: bool

    @property
    def passed(self) -> bool:
        # On a Lie carrier the second-position types force the first-position
        # ones, in both degrees.
        return (not self.holds_i2 or self.holds_i1) and (
            not self.holds_ii2 or self.holds_ii1
        )


def _implication_report(row) -> LieImplicationReport:
    return LieImplicationReport(*(bool(v) for v in row))


def verify_lie_type_implications(algebra: FieldHomAlgebra) -> LieImplicationReport:
    """Check I2 => I1 and II2 => II1 for this carrier.  Requires is_lie."""
    _require_lie(algebra, "type implications here")
    return _implication_report(_lie_type_verdicts(algebra, algebra.alpha[None])[0])


def sweep_lie_type_implications(algebra: FieldHomAlgebra, samples: int, seed: int) -> bool:
    """verify_lie_type_implications across seeded random twists of the
    algebra, evaluated a block of twists at a time.  Requires is_lie."""
    _require_lie(algebra, "type implications here")
    return all(
        _implication_report(row).passed
        for block in _sweep_blocks(algebra, samples, seed, _lie_type_verdicts)
        for row in block
    )


# --------------------------------------------------- twisted-bracket algebra

_OMITTED_TERMS = (
    parse_identity("cyc [x,a([a(y),z])] = 0").lhs,
    parse_identity("cyc [x,a([y,a(z)])] = 0").lhs,
)


@dataclass(frozen=True)
class ExpansionReport:
    """Three routes to the twisted bracket's jacobiator, compared exactly.

    direct:   jacobiator of the twisted bracket, built as a new algebra;
    nine_term: the full bilinear expansion (nine cyclic sums);
    six_term: the closed form using only the plain jacobiator and the six
              catalog jacobiators of degree one and two.

    direct == nine_term is a bilinearity tautology and must hold exactly.
    The residual direct - six_term is reported; it equals the two
    expansion terms that the six-term form leaves out.
    """

    nine_term_matches: bool
    residual_is_zero: bool
    residual_equals_omitted: bool


def expansion_residuals(algebra: FieldHomAlgebra) -> ExpansionReport:
    p = algebra.p
    x, y, z = basis_grids(algebra)

    tw = twisted_bracket(algebra)
    direct = cyclic_sum(tw, PLAIN_JACOBI.lhs, x, y, z)

    def jac(name):
        return jacobiator(algebra, _lie_tag(name), x, y, z)

    plain_j = cyclic_sum(algebra, PLAIN_JACOBI.lhs, x, y, z)
    omitted = sum(cyclic_sum(algebra, t, x, y, z) for t in _OMITTED_TERMS) % p

    six = (plain_j + jac("I1") + jac("I2") + jac("I3")
           + jac("II") + jac("II2") + jac("II3")) % p
    nine = (six + omitted) % p
    residual = (direct - six) % p
    return ExpansionReport(
        nine_term_matches=np.array_equal(direct, nine),
        residual_is_zero=not np.any(residual),
        residual_equals_omitted=np.array_equal(residual, omitted),
    )


@dataclass(frozen=True)
class TwistedBracketReport:
    """Does twisting preserve the Jacobi identity under either hypothesis:
    the twist is a bracket morphism, or the carrier satisfies both
    degree-two types II and II1."""

    morphism: bool
    hom_pair: bool
    twisted_is_lie: Optional[bool]

    @property
    def applicable(self) -> bool:
        return self.morphism or self.hom_pair

    @property
    def passed(self) -> bool:
        return (not self.applicable) or bool(self.twisted_is_lie)


def verify_twisted_bracket_lie(algebra: FieldHomAlgebra) -> TwistedBracketReport:
    """Requires is_lie; checks the twisted bracket under each hypothesis."""
    _require_lie(algebra, "twisted-bracket checks")
    morphism = is_morphism(algebra)
    hom_pair = holds_multilinear(algebra, builtin(_lie_tag("II"))) and holds_multilinear(
        algebra, builtin(_lie_tag("II1"))
    )
    twisted = None
    if morphism or hom_pair:
        twisted = is_lie(twisted_bracket(algebra))
    return TwistedBracketReport(morphism, hom_pair, twisted)


@dataclass(frozen=True)
class SelfAdjointReport:
    """Self-adjoint twist ([a(x), y] = [x, a(y)]): then the two off-position
    degree-one jacobiators coincide, so their sum vanishing forces each to
    vanish (odd characteristic), and [a(x), x] = 0."""

    self_adjoint: bool
    sum_is_zero: Optional[bool]
    each_is_zero: Optional[bool]
    bracket_with_twist_vanishes: Optional[bool]

    @property
    def passed(self) -> bool:
        if not self.self_adjoint:
            return True
        if not self.bracket_with_twist_vanishes:
            return False
        return (not self.sum_is_zero) or bool(self.each_is_zero)


def self_adjointness_probe(
    algebra: FieldHomAlgebra, samples: int = 100, seed: int = 0
) -> SelfAdjointReport:
    if algebra.p == 2:
        raise HypothesisNotMet("the probe needs odd characteristic")
    p = algebra.p
    e = algebra.basis()
    pairs_l = algebra.product(algebra.twist(e[:, None, :]), e[None, :, :])
    pairs_r = algebra.product(e[:, None, :], algebra.twist(e[None, :, :]))
    if not np.array_equal(pairs_l, pairs_r):
        return SelfAdjointReport(False, None, None, None)
    x, y, z = basis_grids(algebra)
    j2 = jacobiator(algebra, _lie_tag("I2"), x, y, z)
    j3 = jacobiator(algebra, _lie_tag("I3"), x, y, z)
    sum_zero = not np.any((j2 + j3) % p)
    each_zero = not np.any(j2) and not np.any(j3)
    rng = np.random.default_rng(seed)
    vs = rng.integers(0, p, size=(samples, algebra.dim))
    brk = algebra.product(algebra.twist(vs), vs)
    return SelfAdjointReport(True, sum_zero, each_zero, not np.any(brk))
