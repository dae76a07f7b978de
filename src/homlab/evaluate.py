"""Exact evaluation of twisted identities on both carriers.

Each :class:`Identity` is compiled once (on first use, then cached) into a
straight-line :class:`Program`: every step is a variable, the unit, a twist
of an earlier step or a product of two earlier steps, and a subterm shared
between or within the sides is one step.  :func:`run_program` executes it
on either carrier:

- on magmas, over index arrays by numpy fancy indexing
  (``table[alpha[x], table[y, z]]``), so one run decides a whole grid of
  element triples;
- on field algebras, over vectors or basis grids through the algebra's
  product (or bracket) and twist.  Every identity in the catalog is
  multilinear in (x, y, z), so vanishing on the basis grid is equivalent
  to vanishing everywhere.  All arithmetic is exact mod p.

For the search, :func:`magma_kernel` turns a program once into a generated
Python function with one numpy line per step, run over selected rows of a
stack of magma tables.  It reads the rows where they lie, through one flat
offset per cell of the flattened stack, so no row is copied and no index
array is built per axis.  ``holds`` and ``first_violation`` stay on
:func:`run_program`, so a verdict of the search is re-checked along another
path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import modp
from .carriers import FieldHomAlgebra, FiniteHomMagma
from .errors import (
    CyclicNotSupportedOnMagma,
    NonMultilinearIdentity,
    UnitRequired,
)
from .terms import (
    ALL_TAGS,
    ASSOC_TAGS,
    Identity,
    Term,
    Twist,
    TypeTag,
    Unit,
    Var,
    builtin,
    parse_identity,
    term_variables,
)

Structure = Union[FiniteHomMagma, FieldHomAlgebra]

#: The untwisted Jacobi identity.
PLAIN_JACOBI = parse_identity("cyc [x,[y,z]] = 0")


@dataclass(frozen=True)
class TypeProfile:
    """Which built-in types a structure satisfies."""

    satisfied: frozenset
    family: str  # "assoc" for magmas, "both" for field algebras

    def names(self, family: str) -> frozenset:
        return frozenset(t.name for t in self.satisfied if t.family == family)

    def __contains__(self, tag: TypeTag) -> bool:
        return tag in self.satisfied


# --------------------------------------------------------------- programs

@dataclass(frozen=True)
class Program:
    """Straight-line form of an identity.

    Steps are ``("x",)``, ``("y",)``, ``("z",)``, ``("1",)``, ``("a", i)``
    or ``("*", i, j)``, where i and j index earlier steps.  lhs and rhs
    index the steps holding the two sides; rhs is None for a cyclic sum.
    """

    steps: tuple
    lhs: int
    rhs: Optional[int]

    @property
    def uses_unit(self) -> bool:
        return ("1",) in self.steps


@functools.cache
def compile_identity(identity: Identity) -> Program:
    """The identity's program, built once per identity."""
    steps, index = [], {}

    def emit(term: Term) -> int:
        if term not in index:
            if isinstance(term, Var):
                step = (term.name,)
            elif isinstance(term, Unit):
                step = ("1",)
            elif isinstance(term, Twist):
                step = ("a", emit(term.arg))
            else:
                step = ("*", emit(term.left), emit(term.right))
            index[term] = len(steps)
            steps.append(step)
        return index[term]

    lhs = emit(identity.lhs)
    rhs = None if identity.cyclic else emit(identity.rhs)
    return Program(tuple(steps), lhs, rhs)


def run_program(program: Program, env: dict, unit, twist, product):
    """Values of (lhs, rhs) with the variables bound by env; rhs is None
    for a cyclic program.  twist and product act on step values."""
    vals = []
    for step in program.steps:
        op = step[0]
        if op == "*":
            vals.append(product(vals[step[1]], vals[step[2]]))
        elif op == "a":
            vals.append(twist(vals[step[1]]))
        elif op == "1":
            if unit is None:
                raise UnitRequired("identity uses the unit constant on a unit-free carrier")
            vals.append(unit)
        else:
            vals.append(env[op])
    return vals[program.lhs], None if program.rhs is None else vals[program.rhs]


# ---------------------------------------------------------------- magmas

def magma_program(identity: Identity) -> Program:
    """The program of an equation; cyclic sums need an additive carrier."""
    if identity.cyclic:
        raise CyclicNotSupportedOnMagma(
            f"cyclic-sum identity {identity} needs an additive carrier; linearize first"
        )
    return compile_identity(identity)


def magma_sides(program: Program, table, alpha, unit, triples):
    """Both sides as element indices over index arrays: triples[0], [1]
    and [2] hold the x, y and z indices; table and alpha are numpy arrays."""
    x, y, z = triples
    if unit is not None and program.uses_unit:
        unit = np.full(x.shape, unit)  # a side without variables still spans the grid
    return run_program(
        program, {"x": x, "y": y, "z": z}, unit, alpha.__getitem__,
        lambda l, r: table[l, r],
    )


# The kernel's names for the variable and unit steps.
_KERNEL_LEAVES = {"x": "x", "y": "y", "z": "z", "1": "u"}


@functools.cache
def magma_kernel(program: Program):
    """The program as one generated function ``kernel(T, A, B, S, x, y, z, u)``
    over selected rows of a stack of magmas, read where they lie.  T and A
    are the flat views ``table.reshape(-1)`` and ``alpha.reshape(-1)`` of
    stacks (N, S, S) and (N, S), S is their edge, B is the ``intp`` column
    ``rows[:, None] * S`` of the selected rows' bases, x, y and z are (k,)
    index arrays and u is the unit.  A product of a and b reads
    ``T[(B + a) * S + b]`` and a twist of a reads ``A[B + a]``; B makes all
    index arithmetic ``intp`` whatever the stacks' dtype.  It returns both
    sides as (R, k) arrays: row i holds the values under table and twist
    ``rows[i]``.

    The source is built from step indices and fixed tokens only, so no
    text of the identity reaches it.  Built once per program.
    """
    names, lines, varying = [], [], []
    for i, step in enumerate(program.steps):
        op = step[0]
        if op == "*":
            lines.append(f"    s{i} = T[(B + {names[step[1]]}) * S + {names[step[2]]}]")
            varying.append(varying[step[1]] or varying[step[2]])
        elif op == "a":
            lines.append(f"    s{i} = A[B + {names[step[1]]}]")
            varying.append(varying[step[1]])
        else:
            names.append(_KERNEL_LEAVES[op])
            varying.append(op != "1")
            continue
        names.append(f"s{i}")

    def side(i):
        # A product or twist has the batch axis, and it has the triple axis
        # if it reads a variable.  A bare variable (x = x*1) lacks the first
        # and a side without variables (1 = a(1)) the second: spread them.
        if program.steps[i][0] in ("*", "a") and varying[i]:
            return names[i]
        return f"broadcast_to({names[i]}, (len(B), len(x)))"

    lines.append(f"    return {side(program.lhs)}, {side(program.rhs)}")
    source = "def kernel(T, A, B, S, x, y, z, u):\n" + "\n".join(lines) + "\n"
    namespace = {"broadcast_to": np.broadcast_to}
    exec(compile(source, "<magma kernel>", "exec"), namespace)
    return namespace["kernel"]


def first_violation(m: FiniteHomMagma, identity: Identity):
    """First triple (by element index, x-major) violating the equation, or None."""
    lhs, rhs = magma_sides(
        magma_program(identity), np.array(m.table), np.array(m.alpha), m.unit,
        np.indices((m.size,) * 3),
    )
    bad = np.argwhere(lhs != rhs)
    return None if len(bad) == 0 else tuple(int(v) for v in bad[0])


def holds(m: FiniteHomMagma, identity: Identity) -> bool:
    """True iff the equation holds for every assignment of elements."""
    return first_violation(m, identity) is None


# ---------------------------------------------------------- field algebras

def _algebra_sides(a: FieldHomAlgebra, program: Program, x, y, z, bracket: bool):
    env = {name: np.asarray(v, dtype=np.int64) % a.p for name, v in zip("xyz", (x, y, z))}
    return run_program(program, env, a.unit, a.twist, a.bracket if bracket else a.product)


def cyclic_sum(a: FieldHomAlgebra, term: Term, x, y, z, bracket: bool = True) -> np.ndarray:
    """Sum of the term over the cyclic assignments (x,y,z), (y,z,x), (z,x,y).

    With bracket=True, products evaluate through :meth:`FieldHomAlgebra.bracket`
    (the commutator on a general carrier); otherwise through the plain product.
    """
    program = compile_identity(Identity(term, None))
    total = 0
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        total = total + _algebra_sides(a, program, u, v, w, bracket)[0]
    return total % a.p


def basis_grids(a: FieldHomAlgebra):
    """The basis broadcast over three axes: x[i], y[j], z[k] index the
    basis triple (e_i, e_j, e_k)."""
    e = a.basis()
    return e[:, None, None, :], e[None, :, None, :], e[None, None, :, :]


def _check_multilinear(identity: Identity):
    for side in (identity.lhs, identity.rhs):
        if side is None:
            continue
        occurrences = term_variables(side)
        if any(occurrences.count(v) > 1 for v in ("x", "y", "z")):
            raise NonMultilinearIdentity(
                f"variable repeats within one side of {identity}; "
                "basis-triple checking would be incomplete"
            )


def identity_gap(a: FieldHomAlgebra, identity: Identity, x, y, z) -> np.ndarray:
    """lhs - rhs (or the cyclic sum) at the given vectors, mod p.

    Identities written with brackets evaluate through the carrier's
    bracket, i.e. the commutator when the product is not skew; star
    identities use the plain product.
    """
    bracket = identity.product == "bracket"
    if identity.cyclic:
        return cyclic_sum(a, identity.lhs, x, y, z, bracket)
    lhs, rhs = _algebra_sides(a, compile_identity(identity), x, y, z, bracket)
    return (lhs - rhs) % a.p


def first_violation_multilinear(a: FieldHomAlgebra, identity: Identity):
    """First basis triple (i, j, k) where the identity fails, or None."""
    _check_multilinear(identity)
    gap = identity_gap(a, identity, *basis_grids(a))
    # An identity without variables gives a gap of shape (dim,): spread it
    # over the grid so that its failure shows at every basis triple.
    gap = np.broadcast_to(gap, (a.dim,) * 4)
    bad = np.argwhere((gap % a.p).any(axis=-1))
    if bad.size == 0:
        return None
    return tuple(int(v) for v in bad[0])


def holds_multilinear(a: FieldHomAlgebra, identity: Identity) -> bool:
    """True iff the identity holds on all basis triples (hence everywhere,
    by multilinearity)."""
    return first_violation_multilinear(a, identity) is None


# ----------------------------------------------------------------- profiles

def type_profile(structure: Structure) -> TypeProfile:
    """Evaluate every applicable built-in tag."""
    if isinstance(structure, FiniteHomMagma):
        sat = frozenset(t for t in ASSOC_TAGS if holds(structure, builtin(t)))
        return TypeProfile(sat, "assoc")
    sat = frozenset(t for t in ALL_TAGS if holds_multilinear(structure, builtin(t)))
    return TypeProfile(sat, "both")


# ------------------------------------------------------------- bracket math

def _require_skew(a: FieldHomAlgebra, what: str):
    if a.kind != "skew":
        raise ValueError(f"{what} needs a skew (bracket) product")


def jacobiator(a: FieldHomAlgebra, tag: TypeTag, x, y, z) -> np.ndarray:
    """Value of the twisted-Jacobi cyclic sum for the given lie tag."""
    _require_skew(a, "jacobiator")
    if tag.family != "lie":
        raise ValueError(f"jacobiator needs a lie tag, got {tag}")
    return cyclic_sum(a, builtin(tag).lhs, x, y, z)


def twisted_bracket(a: FieldHomAlgebra) -> FieldHomAlgebra:
    """Replace the bracket by [u,v] + [alpha(u),v] + [u,alpha(v)].

    Skewness of the result is validated, not assumed.
    """
    _require_skew(a, "twisted_bracket")
    c = (
        a.c
        + np.einsum("ui,ujk->ijk", a.alpha, a.c)
        + np.einsum("vj,ivk->ijk", a.alpha, a.c)
    ) % a.p
    return a.with_product(c, "skew")


def morphism_defect(a: FieldHomAlgebra, u, v) -> np.ndarray:
    """[alpha(u), alpha(v)] - alpha([u, v]); zero everywhere iff alpha is a
    bracket morphism."""
    return (a.product(a.twist(u), a.twist(v)) - a.twist(a.product(u, v))) % a.p


def is_morphism(a: FieldHomAlgebra) -> bool:
    e = a.basis()
    x, y = e[:, None, :], e[None, :, :]
    return not np.any(morphism_defect(a, x, y))


def type_defect(a: FieldHomAlgebra, x, y, z) -> np.ndarray:
    """Cyclic sum of [x, alpha([y,z])] - [x, [alpha(y), alpha(z)]], through
    the plain product.

    Measures the gap between the two degree-two twist placements; vanishes
    whenever alpha is a bracket morphism.
    """
    ii = cyclic_sum(a, builtin(TypeTag("lie", "II")).lhs, x, y, z, bracket=False)
    ii1 = cyclic_sum(a, builtin(TypeTag("lie", "II1")).lhs, x, y, z, bracket=False)
    return (ii - ii1) % a.p


def central_series(a: FieldHomAlgebra, depth: int) -> list:
    """Row-reduced bases of V = V^0 >= V^1 >= ... >= V^depth, where
    V^n = [V, V^(n-1)]."""
    _require_skew(a, "central_series")
    e = a.basis()
    out = [modp.rref(e, a.p)]
    prev = e
    for _ in range(depth):
        if prev.shape[0] == 0:
            out.append(prev)
            continue
        prods = a.product(e[:, None, :], prev[None, :, :]).reshape(-1, a.dim)
        prev = modp.rref(prods, a.p)
        out.append(prev)
    return out


def is_lie(a: FieldHomAlgebra) -> bool:
    """True iff the plain Jacobi identity holds on all basis triples."""
    _require_skew(a, "is_lie")
    return holds_multilinear(a, PLAIN_JACOBI)
