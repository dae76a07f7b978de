"""Brute-force oracle for the benchmark's correctness checks.

Everything here is written from the definitions and shares no code with
homlab: the ten twisted-associativity types are evaluated by array
indexing over all element triples, small unital hom-magmas are enumerated
outright, canonical forms are checked by trying every relabeling, and the
Jacobi sums on bracket algebras are contracted with einsum.

Magma layout (the same as homlab's, so tables compare cell by cell): the
unit is index 0, the adjoined zero, when present, is the last index.
Values are ordered with the zero first, then e1, e2, ...
"""

from __future__ import annotations

import itertools
import re

import numpy as np

#: The ten types as equations, from the definitions.  Each entry gives the
#: source text (the identity language) and both sides as functions of the
#: product m, the twist a and the variables.
TYPES = {
    "I1": ("a(x)*(y*z) = (x*y)*a(z)",
           lambda m, a, x, y, z: (m(a(x), m(y, z)), m(m(x, y), a(z)))),
    "I2": ("x*(a(y)*z) = (x*a(y))*z",
           lambda m, a, x, y, z: (m(x, m(a(y), z)), m(m(x, a(y)), z))),
    "I3": ("x*(y*a(z)) = (a(x)*y)*z",
           lambda m, a, x, y, z: (m(x, m(y, a(z))), m(m(a(x), y), z))),
    "II": ("x*a(y*z) = a(x*y)*z",
           lambda m, a, x, y, z: (m(x, a(m(y, z))), m(a(m(x, y)), z))),
    "II1": ("x*(a(y)*a(z)) = (a(x)*a(y))*z",
            lambda m, a, x, y, z: (m(x, m(a(y), a(z))), m(m(a(x), a(y)), z))),
    "II2": ("a(x)*(y*a(z)) = (a(x)*y)*a(z)",
            lambda m, a, x, y, z: (m(a(x), m(y, a(z))), m(m(a(x), y), a(z)))),
    "II3": ("a(x)*(a(y)*z) = (x*a(y))*a(z)",
            lambda m, a, x, y, z: (m(a(x), m(a(y), z)), m(m(x, a(y)), a(z)))),
    "III": ("a(x*(y*z)) = a((x*y)*z)",
            lambda m, a, x, y, z: (a(m(x, m(y, z))), a(m(m(x, y), z)))),
    "III'": ("a(x)*a(y*z) = a(x*y)*a(z)",
             lambda m, a, x, y, z: (m(a(x), a(m(y, z))), m(a(m(x, y)), a(z)))),
    "III''": ("a(x)*(a(y)*a(z)) = (a(x)*a(y))*a(z)",
              lambda m, a, x, y, z: (m(a(x), m(a(y), a(z))), m(m(a(x), a(y)), a(z)))),
}
NAMES = tuple(TYPES)


# ------------------------------------------------------------- magmas

def profiles(tables: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Bool array (batch, 10): which types each structure satisfies.

    tables has shape (batch, s, s) and alphas (batch, s)."""
    tables = np.asarray(tables, dtype=np.intp)
    alphas = np.asarray(alphas, dtype=np.intp)
    batch, s = alphas.shape
    b = np.arange(batch).reshape(batch, 1, 1, 1)
    r = np.arange(s)
    x, y, z = r.reshape(1, s, 1, 1), r.reshape(1, 1, s, 1), r.reshape(1, 1, 1, s)

    def m(p, q):
        return tables[b, p, q]

    def a(p):
        return alphas[b, p]

    out = np.empty((batch, len(NAMES)), dtype=bool)
    for k, name in enumerate(NAMES):
        lhs, rhs = TYPES[name][1](m, a, x, y, z)
        out[:, k] = (np.broadcast_to(lhs == rhs, (batch, s, s, s))).reshape(batch, -1).all(axis=1)
    return out


def profile(table, alpha) -> frozenset:
    """Names of the types one magma satisfies."""
    row = profiles(np.asarray(table)[None], np.asarray(alpha)[None])[0]
    return frozenset(n for n, ok in zip(NAMES, row) if ok)


def _fixed_table(n: int) -> np.ndarray:
    """Unit row and column plus zero row and column of an n-nonzero carrier."""
    s = n + 1
    t = np.full((s, s), n, dtype=np.intp)
    t[0, :n] = np.arange(n)
    t[:n, 0] = np.arange(n)
    return t


def enumerate_size(n: int):
    """All unital hom-magmas with zero and n nonzero elements, in the
    search's order: table cells row-major (unit row and column fixed),
    then alpha of e1..en, each slot trying the zero first, then e1, e2..."""
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    slots = len(cells) + n
    codes = np.array(list(itertools.product(range(n + 1), repeat=slots)), dtype=np.intp)
    values = np.where(codes == 0, n, codes - 1)
    count = len(codes)
    tables = np.broadcast_to(_fixed_table(n), (count, n + 1, n + 1)).copy()
    for k, (i, j) in enumerate(cells):
        tables[:, i, j] = values[:, k]
    alphas = np.full((count, n + 1), n, dtype=np.intp)
    alphas[:, :n] = values[:, len(cells):]
    return tables, alphas


class Enumeration:
    """Every unital hom-magma with zero and 1..max_n nonzero elements,
    with its type profile."""

    def __init__(self, max_n: int = 3):
        self.sizes = []
        for n in range(1, max_n + 1):
            tables, alphas = enumerate_size(n)
            # Chunks keep the triple grids, and so the peak memory, small.
            prof = np.concatenate([profiles(tables[k:k + 1024], alphas[k:k + 1024])
                                   for k in range(0, len(tables), 1024)])
            self.sizes.append((n, tables, alphas, prof))

    def counts(self) -> list:
        return [len(t) for _, t, _, _ in self.sizes]

    def _mask(self, prof, require, violate):
        col = {name: k for k, name in enumerate(NAMES)}
        mask = np.ones(len(prof), dtype=bool)
        for name in require:
            mask &= prof[:, col[name]]
        for name in violate:
            mask &= ~prof[:, col[name]]
        return mask

    def first_model(self, require, violate):
        """First structure, in search order, with every required type and
        none of the violated ones: (n, table, alpha), or None."""
        for n, tables, alphas, prof in self.sizes:
            hits = np.flatnonzero(self._mask(prof, require, violate))
            if hits.size:
                return n, tables[hits[0]], alphas[hits[0]]
        return None


def value_key(v: int, zero) -> int:
    return 0 if v == zero else v + 1


def magma_key(table, alpha, zero) -> tuple:
    """(size, table row-major, alpha) with the zero ordered first."""
    table = np.asarray(table)
    flat = tuple(value_key(int(v), zero) for v in table.ravel())
    return (len(table), flat, tuple(value_key(int(v), zero) for v in alpha))


def relabel(table, alpha, perm):
    """Element i becomes perm[i]."""
    table = np.asarray(table, dtype=np.intp)
    alpha = np.asarray(alpha, dtype=np.intp)
    perm = np.asarray(perm, dtype=np.intp)
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]], perm[alpha[inv]]


def least_relabeling(table, alpha):
    """The least (table, alpha) over all relabelings fixing the unit at
    index 0 and the zero at the last index."""
    s = len(alpha)
    z = s - 1
    middle = list(range(1, s - 1))
    best = None
    for order in itertools.permutations(middle):
        perm = list(range(s))
        for src, dst in zip(middle, order):
            perm[src] = dst
        t, a = relabel(table, alpha, perm)
        key = magma_key(t, a, z)
        if best is None or key < best[0]:
            best = (key, t, a)
    return best[1], best[2]


_PROD = re.compile(r"^e(\d+)\s*\*\s*e(\d+)\s*=\s*(e\d+|0)$")
_MAP = re.compile(r"^e(\d+)\s*->\s*(e\d+|0)$")


def parse_relations(text: str):
    """(table, alpha) of the shorthand "e2*e2=e1; alpha: e1->e3": e1 is the
    unit, a zero is adjoined, unlisted products and twist values are zero."""
    prods, maps, top = [], [], 1

    def num(tok):
        return 0 if tok == "0" else int(tok[1:])

    for part in (p.strip() for p in text.split(";")):
        if not part:
            continue
        head, _, rest = part.partition(":")
        if head.strip() == "alpha":
            for item in filter(None, (i.strip() for i in rest.split(","))):
                src, dst = _MAP.match(item).groups()
                maps.append((int(src), num(dst)))
        elif head.strip() == "elements":
            top = max([top] + [num(t) for t in rest.split()])
        else:
            i, j, k = _PROD.match(part).groups()
            prods.append((int(i), int(j), num(k)))
    top = max([top] + [max(p) for p in prods] + [max(p) for p in maps])
    t = _fixed_table(top)
    idx = {0: top, **{k: k - 1 for k in range(1, top + 1)}}
    for i, j, k in prods:
        t[idx[i], idx[j]] = idx[k]
    a = np.full(top + 1, top, dtype=np.intp)
    for i, k in maps:
        a[idx[i]] = idx[k]
    return t, a


# ------------------------------------------------------ bracket algebras

def _cyclic(t: np.ndarray) -> np.ndarray:
    """t[i,j,k] + t[j,k,i] + t[k,i,j] for a (d,d,d,d) grid of values."""
    return t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)


def jacobi(c: np.ndarray, p: int) -> np.ndarray:
    """Cyclic sum of [e_i, [e_j, e_k]] on the basis: (d,d,d,d) mod p."""
    inner = np.einsum("jkm,imn->ijkn", c, c)
    return _cyclic(inner) % p


def is_lie(c: np.ndarray, p: int) -> bool:
    return not np.any(jacobi(c, p))


def twisted_jacobiators(c: np.ndarray, alpha: np.ndarray, p: int) -> dict:
    """The six degree-one and degree-two twisted jacobiators on the basis.

    alpha's columns are the images of the basis vectors, so a(e_i) is
    alpha[:, i]."""
    al = alpha
    terms = {
        # [a(x), [y, z]]
        "I1": np.einsum("ui,jkm,umn->ijkn", al, c, c),
        # [x, [a(y), z]]
        "I2": np.einsum("uj,ukm,imn->ijkn", al, c, c),
        # [x, [y, a(z)]]
        "I3": np.einsum("uk,jum,imn->ijkn", al, c, c),
        # [x, [a(y), a(z)]]
        "II1": np.einsum("uj,vk,uvm,imn->ijkn", al, al, c, c),
        # [a(x), [y, a(z)]]
        "II2": np.einsum("wi,vk,jvm,wmn->ijkn", al, al, c, c),
        # [a(x), [a(y), z]]
        "II3": np.einsum("wi,uj,ukm,wmn->ijkn", al, al, c, c),
    }
    return {name: _cyclic(t) % p for name, t in terms.items()}
