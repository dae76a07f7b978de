"""Finite carriers: hom-monoids with zero and hom-algebras over prime fields.

Two kinds of structure live here.  A :class:`FiniteHomMagma` is a finite set
with a multiplication table, a twisting self-map, an optional unit and an
optional absorbing zero.  A :class:`FieldHomAlgebra` is a free module over
Z/p with structure constants, a twisting matrix, and an optional unit
vector; its product may be general or skew (bracket-like).

Canonical element order for magmas: the unit sits at index 0 and the zero,
when present, at the last index, and the default names are e1, e2, ...
then 0.  The relations shorthand builds this layout through
:func:`magma_from_dict`; the model search and the canonical form produce
it too, with the names of :func:`_default_names`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import modp
from .errors import (
    ConflictingRelation,
    IndexOutOfRange,
    RelationSyntaxError,
    SkewViolation,
    StructureError,
    UnitLawViolation,
    UnitVectorViolation,
    ZeroLawViolation,
)

DEFAULT_PRIME = 7


@dataclass(frozen=True)
class FiniteHomMagma:
    """Finite carrier (S, *, alpha) with optional unit and absorbing zero."""

    size: int
    table: tuple
    alpha: tuple
    unit: Optional[int]
    zero: Optional[int]
    names: tuple

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def twist(self, i: int) -> int:
        return self.alpha[i]

    def nonzero_count(self) -> int:
        return self.size - (1 if self.zero is not None else 0)

    def relabel(self, perm) -> "FiniteHomMagma":
        """Apply a relabeling permutation: element i becomes perm[i]."""
        n = self.size
        inv = [0] * n
        for i, t in enumerate(perm):
            inv[t] = i
        table = tuple(
            tuple(perm[self.table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
        )
        alpha = tuple(perm[self.alpha[inv[i]]] for i in range(n))
        names = tuple(self.names[inv[i]] for i in range(n))
        unit = None if self.unit is None else perm[self.unit]
        zero = None if self.zero is None else perm[self.zero]
        return FiniteHomMagma(n, table, alpha, unit, zero, names)

    def describe(self) -> str:
        lines = [f"elements: {' '.join(self.names)}"]
        if self.unit is not None:
            lines.append(f"unit: {self.names[self.unit]}")
        if self.zero is not None:
            lines.append(f"zero: {self.names[self.zero]}")
        width = max(len(s) for s in self.names)
        head = " " * (width + 3) + " ".join(s.rjust(width) for s in self.names)
        lines.append(head)
        for i in range(self.size):
            row = " ".join(self.names[self.table[i][j]].rjust(width) for j in range(self.size))
            lines.append(f"{self.names[i].rjust(width)} | {row}")
        lines.append(
            "alpha: " + ", ".join(
                f"{self.names[i]}->{self.names[self.alpha[i]]}" for i in range(self.size)
            )
        )
        return "\n".join(lines)


def _default_names(size, zero):
    names = [""] * size
    k = 1
    for i in range(size):
        if zero is not None and i == zero:
            names[i] = "0"
        else:
            names[i] = f"e{k}"
            k += 1
    return tuple(names)


def new_magma(size, table, alpha, unit=0, zero=None, names=None) -> FiniteHomMagma:
    """Validate and build a finite hom-magma.

    Checks index ranges, the unit law, and the absorbing-zero law
    (including alpha(0) = 0).  Raises the matching StructureError naming
    the first offending cell.
    """
    if size < 1:
        raise StructureError("carrier must have at least one element")
    table = tuple(tuple(int(v) for v in row) for row in table)
    alpha = tuple(int(v) for v in alpha)
    if len(table) != size or any(len(row) != size for row in table):
        raise StructureError(f"table must be {size}x{size}")
    if len(alpha) != size:
        raise StructureError(f"alpha must have length {size}")
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not 0 <= v < size:
                raise IndexOutOfRange(f"table[{i}][{j}] = {v} out of range")
    for i, v in enumerate(alpha):
        if not 0 <= v < size:
            raise IndexOutOfRange(f"alpha[{i}] = {v} out of range")
    if unit is not None:
        if not 0 <= unit < size:
            raise IndexOutOfRange(f"unit = {unit} out of range")
        for x in range(size):
            if table[unit][x] != x:
                raise UnitLawViolation(f"table[{unit}][{x}] = {table[unit][x]}, expected {x}")
            if table[x][unit] != x:
                raise UnitLawViolation(f"table[{x}][{unit}] = {table[x][unit]}, expected {x}")
    if zero is not None:
        if not 0 <= zero < size:
            raise IndexOutOfRange(f"zero = {zero} out of range")
        if zero == unit:
            raise ZeroLawViolation("zero and unit must differ")
        for x in range(size):
            if table[zero][x] != zero:
                raise ZeroLawViolation(f"table[{zero}][{x}] = {table[zero][x]}, expected {zero}")
            if table[x][zero] != zero:
                raise ZeroLawViolation(f"table[{x}][{zero}] = {table[x][zero]}, expected {zero}")
        if alpha[zero] != zero:
            raise ZeroLawViolation(f"alpha[{zero}] = {alpha[zero]}, expected {zero}")
    if names is None:
        names = _default_names(size, zero)
    else:
        names = tuple(names)
        if len(names) != size:
            raise StructureError("names must match carrier size")
    return FiniteHomMagma(size, table, alpha, unit, zero, names)


_REL_PROD = re.compile(r"^e(\d+)\s*\*\s*e(\d+)\s*=\s*(e\d+|0)$")
_REL_ALPHA = re.compile(r"^e(\d+)\s*->\s*(e\d+|0)$")
# Most nonzero elements a shorthand or structure file may name: the table
# has (count + 1) ** 2 cells, so more are refused before any allocation.
MAX_RELATION_ELEMENT = 256


def from_relations(text: str) -> FiniteHomMagma:
    """Build a unital magma with adjoined zero from shorthand relations.

    The shorthand lists only what is nonzero::

        "e2*e2=e1; e3*e3=e3; alpha: e1->e3, e3->e3"

    e1 is the unit.  Products not listed are the zero element, except on
    the unit row/column; alpha values not listed are zero as well (this
    includes alpha(e1) unless stated).  An ``elements: e1 e2 ...`` clause
    may force extra elements that appear in no relation; otherwise the
    carrier holds exactly the elements mentioned, plus the adjoined zero.
    """
    prods = {}
    alph = {}
    count = 1

    def elem(token: str) -> str:
        nonlocal count
        if token == "0":
            return token
        k = int(token[1:])
        if k < 1:
            raise RelationSyntaxError(f"bad element name {token!r}")
        if k > MAX_RELATION_ELEMENT:
            raise RelationSyntaxError(
                f"element {token!r} exceeds the limit e{MAX_RELATION_ELEMENT}"
            )
        count = max(count, k)
        return f"e{k}"

    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if part.startswith("alpha"):
            _, _, rest = part.partition(":")
            for item in rest.split(","):
                item = item.strip()
                if not item:
                    continue
                m = _REL_ALPHA.match(item)
                if m is None:
                    raise RelationSyntaxError(f"bad alpha clause {item!r}")
                src = elem("e" + m.group(1))
                dst = elem(m.group(2))
                if src in alph and alph[src] != dst:
                    raise ConflictingRelation(f"alpha({src}) given twice inconsistently")
                alph[src] = dst
        elif part.startswith("elements"):
            _, _, rest = part.partition(":")
            for token in rest.split():
                if not re.fullmatch(r"e\d+", token):
                    raise RelationSyntaxError(f"bad element name {token!r}")
                elem(token)
        else:
            m = _REL_PROD.match(part)
            if m is None:
                raise RelationSyntaxError(f"bad product clause {part!r}")
            i, j = elem("e" + m.group(1)), elem("e" + m.group(2))
            k = elem(m.group(3))
            if (i, j) in prods and prods[(i, j)] != k:
                raise ConflictingRelation(f"product {i}*{j} given twice inconsistently")
            prods[(i, j)] = k

    products = {}
    for (i, j), k in prods.items():
        if "e1" in (i, j):
            if k != (j if i == "e1" else i):
                raise ConflictingRelation(f"product {i}*{j}={k} breaks the unit law")
        else:
            products[f"{i} {j}"] = k
    return magma_from_dict({
        "elements": [f"e{k}" for k in range(1, count + 1)],
        "unit": "e1",
        "products": products,
        "alpha": alph,
    })


def magma_to_dict(m: FiniteHomMagma) -> dict:
    """Structure-file form of a magma (products/alpha list only nonzero cells)."""
    names = m.names
    nz = [i for i in range(m.size) if i != m.zero]
    products = {}
    for i in nz:
        for j in nz:
            if i == m.unit or j == m.unit:
                continue
            v = m.table[i][j]
            if m.zero is None or v != m.zero:
                products[f"{names[i]} {names[j]}"] = names[v]
    alpha = {}
    for i in nz:
        v = m.alpha[i]
        if m.zero is None or v != m.zero:
            alpha[names[i]] = names[v]
    return {
        "elements": [names[i] for i in nz],
        "unit": None if m.unit is None else names[m.unit],
        "zero": m.zero is not None,
        "products": products,
        "alpha": alpha,
    }


def _refuse_unknown_keys(data: dict, known: tuple, error, what: str):
    """Raise error naming every key of data outside known: a key that
    nothing reads, such as a misspelt one, would otherwise go unnoticed."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise error(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                    f"expected {', '.join(known)}")


def magma_from_dict(data: dict) -> FiniteHomMagma:
    """Inverse of :func:`magma_to_dict`.

    Element names must be distinct, at most ``MAX_RELATION_ELEMENT`` of
    them, and ``0`` names the adjoined zero when there is one.  Keys other
    than those :func:`magma_to_dict` writes are refused.
    """
    if not isinstance(data, dict):
        raise RelationSyntaxError("a structure must be a JSON object")
    _refuse_unknown_keys(
        data, ("elements", "unit", "zero", "products", "alpha"), RelationSyntaxError, "structure"
    )
    elements = data["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise RelationSyntaxError("elements must be a list of names (strings)")
    if len(elements) > MAX_RELATION_ELEMENT:
        raise RelationSyntaxError(
            f"{len(elements)} elements exceed the limit {MAX_RELATION_ELEMENT}"
        )
    with_zero = data.get("zero", True)
    if not isinstance(with_zero, bool):
        raise RelationSyntaxError(f"zero must be true or false, not {with_zero!r}")
    unit_name = data.get("unit")
    if unit_name is not None and not isinstance(unit_name, str):
        raise RelationSyntaxError(f"unit must be an element name or null, not {unit_name!r}")
    maps = {key: data.get(key, {}) for key in ("products", "alpha")}
    for key, cells in maps.items():
        if not isinstance(cells, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in cells.items()
        ):
            raise RelationSyntaxError(f"{key} must map names to element names (strings)")
    names = tuple(elements) + (("0",) if with_zero else ())
    size = len(names)
    zero = size - 1 if with_zero else None
    index = {}
    for i, name in enumerate(names):
        if name in index:
            raise RelationSyntaxError(f"element name {name!r} given twice")
        index[name] = i

    def look(name):
        if name not in index:
            raise RelationSyntaxError(f"unknown element {name!r}")
        return index[name]

    unit = look(unit_name) if unit_name is not None else None
    if with_zero:
        default = zero
    elif unit is None:
        raise RelationSyntaxError("zero-free structure files must name a unit")
    else:
        default = None
    table = [[default] * size for _ in range(size)]
    if unit is not None:
        for x in range(size):
            table[unit][x] = x
            table[x][unit] = x
    if with_zero:
        for x in range(size):
            table[zero][x] = zero
            table[x][zero] = zero
    for key, value in maps["products"].items():
        pair = key.split()
        if len(pair) != 2:
            raise RelationSyntaxError(f"product key {key!r} is not two element names")
        table[look(pair[0])][look(pair[1])] = look(value)
    if any(v is None for row in table for v in row):
        raise RelationSyntaxError("incomplete product table in zero-free structure file")
    alpha = [default] * size
    for key, value in maps["alpha"].items():
        alpha[look(key)] = look(value)
    if any(v is None for v in alpha):
        raise RelationSyntaxError("incomplete alpha map in zero-free structure file")
    return new_magma(size, table, alpha, unit=unit, zero=zero, names=names)


@dataclass(frozen=True)
class FieldHomAlgebra:
    """Hom-algebra over Z/p: structure constants, twist matrix, optional unit.

    c[i, j, k] is the e_k coefficient of e_i * e_j; alpha's columns are the
    images of the basis vectors.  kind is "general" or "skew"; skew products
    validate c[i, i, :] = 0 and full antisymmetry.
    """

    p: int
    dim: int
    c: np.ndarray
    alpha: np.ndarray
    kind: str
    unit: Optional[np.ndarray]

    def product(self, u, v) -> np.ndarray:
        """u * v, broadcast over the leading axes of u and v.

        The structure constants are contracted first with the operand that
        holds fewer entries, then with the other one, each contraction one
        integer matmul, and the sums are reduced mod p only at the end.
        Operands and constants are reduced below p, so the first sums are at
        most dim * (p-1)**2 and the second at most dim**2 * (p-1)**3, which
        :func:`new_algebra` keeps below 2**63.
        """
        d = self.dim
        u = np.asarray(u, dtype=np.int64) % self.p
        v = np.asarray(v, dtype=np.int64) % self.p
        if u.size <= v.size:
            # uc[..., j, k] = sum_i u[..., i] c[i, j, k], then sum over j with v.
            uc = (u @ self.c.reshape(d, d * d)).reshape(u.shape[:-1] + (d, d))
            sums = v[..., None, :] @ uc
        else:
            # vc[..., i, k] = sum_j v[..., j] c[i, j, k], then sum over i with u.
            vc = (v @ self.c.transpose(1, 0, 2).reshape(d, d * d)).reshape(v.shape[:-1] + (d, d))
            sums = u[..., None, :] @ vc
        return sums[..., 0, :] % self.p

    def bracket(self, u, v) -> np.ndarray:
        """The product itself when skew, the commutator u*v - v*u otherwise."""
        if self.kind == "skew":
            return self.product(u, v)
        return (self.product(u, v) - self.product(v, u)) % self.p

    def twist(self, u) -> np.ndarray:
        """alpha applied to u, broadcast over the leading axes of u."""
        u = np.asarray(u, dtype=np.int64) % self.p
        return (u @ self.alpha.T) % self.p

    def basis(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.int64)

    def with_twist(self, alpha) -> "FieldHomAlgebra":
        return new_algebra(self.p, self.c, alpha, self.kind, self.unit)

    def with_product(self, c, kind=None) -> "FieldHomAlgebra":
        return new_algebra(self.p, c, self.alpha, kind or self.kind, self.unit)


def _integral(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _int64_array(values, what) -> np.ndarray:
    """values as an int64 array.  Integers are taken, and so are floats of
    integral value (as from np.eye); fractions, booleans, strings and
    entries outside int64 are refused, not truncated or wrapped."""
    array = np.asarray(values)
    if array.dtype.kind == "i":
        return array.astype(np.int64)
    entries = array.ravel().tolist()
    if not all(map(_integral, entries)):
        raise StructureError(f"an entry of the {what} is not an integer")
    try:
        return np.array([int(v) for v in entries], dtype=np.int64).reshape(array.shape)
    except OverflowError:
        raise StructureError(f"an entry of the {what} is outside int64") from None


def new_algebra(p, c, alpha, kind="general", unit=None) -> FieldHomAlgebra:
    """Validate and build a hom-algebra over Z/p.

    Products are summed exactly in int64 and reduced mod p once, at the end
    of :meth:`FieldHomAlgebra.product`.  Its first contraction sums dim
    terms of at most (p - 1)**2 and its second dim terms of at most
    dim * (p - 1)**3, so dim**2 * (p - 1)**3 must stay below 2**63.
    """
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise StructureError(f"p must be an integer, not {p!r}")
    p = int(p)
    c = _int64_array(c, "structure constants")
    if c.ndim != 3 or len(set(c.shape)) != 1:
        raise StructureError("structure constants must be a d*d*d cube")
    d = c.shape[0]
    # Checked before is_prime, whose trial division is slow for huge p.
    if d * d * (p - 1) ** 3 >= 2**63:
        raise StructureError(f"p = {p} is too large for exact products in dimension {d}")
    if not modp.is_prime(p):
        raise StructureError(f"{p} is not prime")
    c %= p
    alpha = _int64_array(alpha, "twist matrix") % p
    if alpha.shape != (d, d):
        raise StructureError("twist matrix shape must match the dimension")
    if kind not in ("general", "skew"):
        raise StructureError(f"unknown product kind {kind!r}")
    if kind == "skew":
        for i in range(d):
            if np.any(c[i, i, :]):
                raise SkewViolation(f"c[{i}][{i}] is not zero")
        if np.any((c + c.transpose(1, 0, 2)) % p):
            raise SkewViolation("structure constants are not antisymmetric")
    if unit is not None:
        unit = _int64_array(unit, "unit vector") % p
        if unit.shape != (d,):
            raise StructureError("unit vector length must match the dimension")
        e = np.eye(d, dtype=np.int64)
        left = np.einsum("i,xj,ijk->xk", unit, e, c) % p
        right = np.einsum("xi,j,ijk->xk", e, unit, c) % p
        if not (np.array_equal(left, e) and np.array_equal(right, e)):
            raise UnitVectorViolation("unit vector fails the unit law on the basis")
    c.setflags(write=False)
    alpha.setflags(write=False)
    if unit is not None:
        unit.setflags(write=False)
    return FieldHomAlgebra(p, d, c, alpha, kind, unit)


def algebra_to_dict(a: FieldHomAlgebra) -> dict:
    return {
        "p": a.p,
        "dim": a.dim,
        "c": a.c.tolist(),
        "alpha": a.alpha.tolist(),
        "kind": a.kind,
        "unit": None if a.unit is None else a.unit.tolist(),
    }


def algebra_from_dict(data: dict) -> FieldHomAlgebra:
    """Inverse of :func:`algebra_to_dict`.  ``dim`` may be left out; when
    given, it must be the edge of the cube ``c``.  Other keys are refused."""
    if not isinstance(data, dict):
        raise StructureError("an algebra must be a JSON object")
    _refuse_unknown_keys(
        data, ("p", "dim", "c", "alpha", "kind", "unit"), StructureError, "algebra"
    )
    a = new_algebra(
        data["p"],
        data["c"],
        data["alpha"],
        data.get("kind", "general"),
        data.get("unit"),
    )
    dim = data.get("dim", a.dim)
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim != a.dim:
        raise StructureError(f"dim = {dim!r}, but the structure constants have dimension {a.dim}")
    return a


def linearize(magma: FiniteHomMagma, p: int) -> FieldHomAlgebra:
    """Free Z/p-module on the nonzero elements, zero element killed.

    Products and the twist extend linearly; a magma product or twist value
    equal to the zero element becomes the zero vector.  The magma unit, if
    any, becomes the unit vector.  The resulting algebra satisfies exactly
    the same equation-form identities as the magma.
    """
    nz = [i for i in range(magma.size) if i != magma.zero]
    pos = {e: k for k, e in enumerate(nz)}
    d = len(nz)
    c = np.zeros((d, d, d), dtype=np.int64)
    for i in nz:
        for j in nz:
            v = magma.table[i][j]
            if magma.zero is None or v != magma.zero:
                c[pos[i], pos[j], pos[v]] = 1
    alpha = np.zeros((d, d), dtype=np.int64)
    for j in nz:
        v = magma.alpha[j]
        if magma.zero is None or v != magma.zero:
            alpha[pos[v], pos[j]] = 1
    unit = None
    if magma.unit is not None:
        unit = np.zeros(d, dtype=np.int64)
        unit[pos[magma.unit]] = 1
    return new_algebra(p, c, alpha, "general", unit)


@dataclass(frozen=True)
class WeakUnitWitness:
    """Element c with alpha(x) = c*x for every x of the carrier."""

    element: Union[int, np.ndarray]


def weak_left_unit(structure) -> Optional[WeakUnitWitness]:
    """Find c with alpha(x) = c*x for all x, if one exists.

    Scans the carrier exhaustively for magmas; solves the linear system on
    the basis for field algebras.
    """
    if isinstance(structure, FiniteHomMagma):
        for cand in range(structure.size):
            if all(structure.alpha[x] == structure.table[cand][x] for x in range(structure.size)):
                return WeakUnitWitness(cand)
        return None
    a = structure
    d = a.dim
    # alpha column j must equal sum_i c_i * (e_i * e_j): rows indexed by (j, k).
    m = np.transpose(a.c, (1, 2, 0)).reshape(d * d, d)
    rhs = a.alpha.T.reshape(d * d)
    sol = modp.solve(m, rhs, a.p)
    if sol is None:
        return None
    return WeakUnitWitness(sol)


def cyclic_group_magma(order: int, twist_power: int = 0) -> FiniteHomMagma:
    """Cyclic group of the given order as a unital magma (no zero), with the
    twist acting as multiplication by the generator raised to twist_power."""
    table = tuple(tuple((i + j) % order for j in range(order)) for i in range(order))
    alpha = tuple((i + twist_power) % order for i in range(order))
    names = tuple("e" if i == 0 else f"g{i}" for i in range(order))
    return new_magma(order, table, alpha, unit=0, zero=None, names=names)
