"""Backtracking finite-model finder over hom-magmas.

Searches all unital hom-magmas with an adjoined zero (both optional) up to
a bound on the number of nonzero elements, looking for a structure that
satisfies every required identity and violates every forbidden one.

Fixed cells (unit row/column, zero row/column, alpha(0) = 0) are assigned
a priori; the remaining table cells are filled row-major, then the alpha
values.  Candidate values are tried zero-first, then e1, e2, ...; the first
complete model found is therefore the lexicographically least countermodel
under the key (size, flattened table, alpha map) with that value order,
and it equals its own canonical form.

Identities run as the compiled programs of :mod:`homlab.evaluate`, through
:func:`homlab.evaluate.stack_sides`, over tables padded by one row and
column whose index ``size`` stands for an unassigned cell and absorbs every
product and twist.  The slots are walked in windows: depth first over
windows, breadth first inside each.  A window spans as many slots as keep
its widest level within a fixed number of rows, and the windows of a
carrier size end at its leaves, so the first takes what is left over.  A
window holds its alive partial tables as one stack in lexicographic order;
each level gives every row one child per domain value and runs each
required identity's program once over the union of the rows' pending
triples, on the children the identities before it kept (a level too large
for one run is cut into chunks of rows).  A fixed code table over the padded indices marks each triple of
each child decided and equal, undecided, or decided and unequal; a child
with an unequal triple is dropped, and so are the triples no kept child
leaves undecided.  The runs are scheduled: a triple whose identity twists
one of its variables (or the unit) waits, unevaluated, until the slot that
assigns that twist, since until then the twist is undefined and the triple
undecided on every row; a level where no triple is ready runs no program.
When a window completes the table, one run per forbidden identity
checks all its leaves; a complete table is accepted when every forbidden
identity fails on some triple, and only accepted leaves are visited.
Neither the schedules nor the leaf check hold a triple that the fixed
cells alone decide: one whose two sides reduce to the same term by
``1*t = t*1 = t``, ``0*t = t*0 = 0`` and ``a(0) = 0``, so that it is equal
in every completion (see ``_live_triples``).  Nodes and leaves are
counted as a search that tries one value at a time would count them.

find_model walks each carrier size whole, smallest first, in the calling
process, and stops at the first model.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import evaluate
from .carriers import FiniteHomMagma, _default_names, _refuse_unknown_keys, magma_to_dict, new_magma
from .errors import HomLabError, InvariantViolation
from .terms import (
    Identity,
    TypeTag,
    TYPE_NAMES,
    builtin,
    parse_identity,
    render_identity,
)

Requirement = Union[str, TypeTag, Identity]


@dataclass(frozen=True)
class SearchSpec:
    """What to search for.

    require / violate entries may be assoc type names ("I2"), TypeTags, or
    equation-form Identity values (including parsed custom identities).
    The fields are the keys of a spec file, which adds ``custom``: more
    required identities.
    """

    max_n: int
    require: tuple = ()
    violate: tuple = ()
    with_zero: bool = True
    unital: bool = True

    def __post_init__(self):
        if not isinstance(self.max_n, int) or isinstance(self.max_n, bool):
            raise HomLabError(f"max_n must be an integer, not {self.max_n!r}")
        if self.max_n < 1:
            raise HomLabError("max_n must be at least 1")
        for key in ("require", "violate"):
            # tuple() would split a bare string into one-letter entries.
            if isinstance(value := getattr(self, key), str):
                raise HomLabError(f"{key} must be a sequence of entries, not the string {value!r}")
        for key in ("with_zero", "unital"):
            if not isinstance(value := getattr(self, key), bool):
                raise HomLabError(f"{key} must be true or false, not {value!r}")
        object.__setattr__(self, "require", tuple(self.require))
        object.__setattr__(self, "violate", tuple(self.violate))
        req = {requirement_label(r) for r in self.require}
        vio = {requirement_label(r) for r in self.violate}
        if req & vio:
            raise HomLabError(f"require and violate overlap: {sorted(req & vio)}")


@dataclass(frozen=True)
class SearchStats:
    """Nodes and leaves (models) as a search trying one value at a time
    counts them, the row-triple cells the required identities' programs
    evaluated (``cells``) and those the forbidden identities' programs
    evaluated in the leaf check (``leaf_cells``), each summed over the
    carrier sizes searched; wall seconds.  Neither cell count includes a
    triple that the fixed cells decide (see ``_live_triples``)."""

    nodes: int = 0
    models: int = 0
    seconds: float = 0.0
    cells: int = 0
    leaf_cells: int = 0


@dataclass(frozen=True)
class Verdict:
    """Countermodel, or a certificate that none exists up to the bound."""

    model: Optional[FiniteHomMagma]
    bound: int
    stats: SearchStats = field(default=SearchStats())

    @property
    def found(self) -> bool:
        return self.model is not None

    @property
    def outcome(self) -> str:
        return "countermodel" if self.found else "exhausted"


def requirement_label(entry: Requirement) -> str:
    if isinstance(entry, str):
        return entry
    if isinstance(entry, TypeTag):
        return entry.name if entry.family == "assoc" else str(entry)
    return render_identity(entry)


def resolve_requirement(entry: Requirement) -> Identity:
    if isinstance(entry, Identity):
        return entry
    if isinstance(entry, TypeTag):
        return builtin(entry)
    if entry in TYPE_NAMES:
        return builtin(TypeTag("assoc", entry))
    return parse_identity(entry)


# The keys of a spec file: the fields of SearchSpec, and custom.
SPEC_KEYS = ("max_n", "require", "violate", "custom", "with_zero", "unital")


def spec_from_dict(data: dict) -> SearchSpec:
    """The spec of a spec file's JSON object.  A key outside SPEC_KEYS, or a
    value of the wrong JSON type, raises HomLabError rather than being
    ignored or coerced."""
    if not isinstance(data, dict):
        raise HomLabError("a spec must be a JSON object")
    _refuse_unknown_keys(data, SPEC_KEYS, HomLabError, "spec")
    lists = {}
    for key in ("require", "violate", "custom"):
        value = data.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise HomLabError(f"{key} must be a list of strings, not {value!r}")
        lists[key] = value
    return SearchSpec(
        max_n=data.get("max_n", 3),
        require=tuple(lists["require"] + lists["custom"]),
        violate=tuple(lists["violate"]),
        with_zero=data.get("with_zero", True),
        unital=data.get("unital", True),
    )


def spec_to_dict(spec: SearchSpec) -> dict:
    return {
        "max_n": spec.max_n,
        "require": [requirement_label(r) for r in spec.require],
        "violate": [requirement_label(r) for r in spec.violate],
        "with_zero": spec.with_zero,
        "unital": spec.unital,
    }


# ------------------------------------------------------------------ search

# Most cells (rows x triples) one program run decides.  A larger level runs
# in chunks of rows, so that memory stays bounded where pruning is weak.
# canonical_form keys its relabelings in blocks of as many cells.
_KERNEL_CELLS = 1 << 14

# Most rows a level of a run() window may hold.  A window spans the most
# slots w with D**w <= _WINDOW_ROWS, where D is the number of values a slot
# takes, so that a few wide levels replace many narrow ones (each level
# costs one program run per required identity) and no level outgrows this.
_WINDOW_ROWS = 1 << 17


def _parts(rows: int, triples: int):
    """Slices that cut rows into chunks of at most _KERNEL_CELLS cells."""
    step = max(_KERNEL_CELLS // max(triples, 1), 1)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


class _SizeSearch:
    """Exhaustive search over one carrier size, in lexicographic order.

    The table and twist are numpy arrays padded by one row and column:
    index ``size`` is the undefined value.  It absorbs products and twists
    (its row, its column and its alpha entry are ``size``), so a side that
    reads an unassigned cell evaluates to ``size``.  A negative marker
    would not do: numpy reads a negative index as a real element.

    The slots are walked in windows of ``window_slots()`` slots that end at
    the leaves, depth first over windows and breadth first inside each one.
    Only the first window starts from the root; each later one starts from
    one row.  A window holds its alive rows as stacks
    (R, s+1, s+1) and (R, s+1) in lexicographic order, in the narrowest
    unsigned dtype that holds ``size``.  Each level
    repeats every row once per domain value, so row r*D + b is child b of
    row r.  Each required identity's program then runs once over the union
    of the rows' pending triples, on the rows the identities before it
    kept (in chunks of rows when the level holds more than
    ``_KERNEL_CELLS`` row-triple cells).  A run takes the indices of those
    rows and reads them in place, through flat offsets into the whole
    stacks (``evaluate.stack_sides``); no row is copied.
    ``code[lhs, rhs]`` reads 0 for a decided equal pair, 1 for an
    undecided one and 2 for a decided unequal one; it is looked up at the
    flat pair index ``lhs * (s+1) + rhs``, computed in ``intp``.

    Each identity's pending triples start as its live triples, those the
    fixed cells do not decide (see ``_live_triples``), in a (4, k) array:
    x, y, z and the triple's ready slot, sorted by it (see
    ``_scheduled_triples``).  A level runs an identity's program only on the
    prefix of triples that are ready at its slot; the others read code 1
    on every row and wait.  The leaf check runs each forbidden identity
    on its live triples, ``leaf_triples``.  ``cells`` counts the
    row-triple cells the required programs evaluated, and ``leaf_cells``
    those of the leaf check.
    """

    def __init__(self, spec: SearchSpec, nonzero: int):
        self.spec = spec
        self.n = nonzero
        self.size = nonzero + (1 if spec.with_zero else 0)
        self.zero = nonzero if spec.with_zero else None
        self.unit = 0 if spec.unital else None
        lo = 1 if spec.unital else 0
        self.slots = [("t", i, j) for i in range(lo, nonzero) for j in range(lo, nonzero)]
        self.slots += [("a", i, i) for i in range(nonzero)]
        self.domain = ([self.zero] if self.zero is not None else []) + list(range(nonzero))
        self.require = [evaluate.magma_program(resolve_requirement(r)) for r in spec.require]
        self.violate = [evaluate.magma_program(resolve_requirement(v)) for v in spec.violate]
        self.leaf_triples = [_live_triples(p, self.size, self.unit, self.zero) for p in self.violate]
        # The position of the slot that assigns each element's twist; the
        # zero's twist is fixed.
        twist_slot = tuple(range(len(self.slots) - nonzero, len(self.slots)))
        twist_slot += (-1,) * (self.size - nonzero)
        self.scheduled = [_scheduled_triples(p, twist_slot, self.unit, self.zero) for p in self.require]
        self.nodes = 0
        self.models = 0
        self.cells = 0
        self.leaf_cells = 0

        undef = self.size
        dtype = np.min_scalar_type(undef)
        self.table = np.full((1, undef + 1, undef + 1), undef, dtype=dtype)
        self.alpha = np.full((1, undef + 1), undef, dtype=dtype)
        if self.unit is not None:
            self.table[0, self.unit, :undef] = np.arange(undef)
            self.table[0, :undef, self.unit] = np.arange(undef)
        if self.zero is not None:
            self.table[0, self.zero, :undef] = self.zero
            self.table[0, :undef, self.zero] = self.zero
            self.alpha[0, self.zero] = self.zero
        self.values = np.array(self.domain, dtype=dtype)
        self.code = np.full((undef + 1, undef + 1), 2, dtype=np.int8)
        self.code[np.arange(undef), np.arange(undef)] = 0
        self.code[undef, :] = self.code[:, undef] = 1

    def _codes(self, program, table, alpha, rows, triples):
        """(R, k) codes of the triples under the given rows of the stacks,
        read in place through flat offsets."""
        lhs, rhs = evaluate.stack_sides(program, table, alpha, rows, self.unit, triples)
        # A bare variable (x = x*1) lacks the row axis and a side without
        # variables (1 = a(1)) the triple axis: spread them to (R, k).  The
        # sides hold the stacks' narrow dtype: widen before the pair index,
        # which outgrows it (16 * 17 + 16 wraps in uint8).
        edge = table.shape[-1]
        pair = np.multiply(np.broadcast_to(lhs, (len(rows), triples.shape[1])), edge, dtype=np.intp)
        pair += rhs
        return self.code.reshape(-1)[pair]

    def _filter(self, table, alpha, pendings, pos):
        """The rows of a non-empty stack that no required identity rejects,
        in order, as indices or as ``slice(None)`` for all of them, and each
        identity's pending triples that are not ready at slot ``pos`` or
        that some kept row leaves undecided, in their order.

        Only the triples ready at ``pos`` run: the rest read code 1 on every
        row.  When no triple is ready, no program runs and the pendings come
        back as they are.  The pendings are the union over the rows: a
        triple outside a row's own pending set was decided equal in one of
        its ancestors and reads 0 again, so every row gets the verdict of
        its own set.  Each identity runs only on the rows the ones before
        it kept."""
        ready = [int(np.searchsorted(p[3], pos, side="right")) for p in pendings]
        runs = [i for i, k in enumerate(ready) if k]
        if not runs:
            return slice(None), pendings
        kept = []
        keep = [np.arange(p.shape[1]) >= k for p, k in zip(pendings, ready)]
        for part in _parts(len(table), max(ready)):
            rows = np.arange(len(table))[part]
            codes = []
            for i in runs:
                self.cells += len(rows) * ready[i]
                code = self._codes(self.require[i], table, alpha, rows, pendings[i][:3, :ready[i]])
                alive = code.max(axis=1, initial=0) < 2
                rows = rows[alive]
                codes = [c[alive] for c in codes] + [code[alive]]
            kept.append(rows)
            for i, code in zip(runs, codes):
                keep[i][:ready[i]] |= (code == 1).any(axis=0)
        return np.concatenate(kept), [
            p.compress(m, axis=1) if k else p for p, m, k in zip(pendings, keep, ready)
        ]

    def _violating_rows(self, table, alpha):
        """Rows of complete tables in which every forbidden identity fails
        on one of its live triples (the others hold on every table)."""
        rows = np.ones(len(table), dtype=bool)
        for program, triples in zip(self.violate, self.leaf_triples):
            for part in _parts(len(table), triples.shape[1]):
                selected = np.arange(len(table))[part]
                self.leaf_cells += len(selected) * triples.shape[1]
                codes = self._codes(program, table, alpha, selected, triples)
                rows[part] &= (codes == 2).any(axis=1)
        return rows

    def _root(self):
        """Each required identity's (4, k) pending triples under the fixed
        cells, filtered before the first slot, or None if a decided triple
        fails."""
        rows, pendings = self._filter(self.table, self.alpha, self.scheduled, -1)
        return pendings if len(self.table[rows]) else None

    def _assign(self, table, alpha, pos, values):
        kind, i, j = self.slots[pos]
        if kind == "t":
            table[..., i, j] = values
        else:
            alpha[..., i] = values

    def run(self):
        """Yield the complete models (as FiniteHomMagma) of this carrier
        size, in lexicographic order.

        The slots are walked in windows of ``window_slots()`` slots that end
        at the leaves; the first window takes the remainder.
        """
        pendings = self._root()
        if pendings is None:
            return
        ends = list(range(len(self.slots), 0, -self.window_slots()))[::-1]
        yield from self._walk(self.table, self.alpha, pendings, 0, ends)

    def window_slots(self) -> int:
        """Slots of a run() window: the most, w, whose D**w children of one
        row fit in ``_WINDOW_ROWS`` rows, at least one and at most all."""
        width, w = len(self.domain), 1
        while w < len(self.slots) and width ** (w + 1) <= _WINDOW_ROWS:
            w += 1
        return w

    def _walk(self, table, alpha, pendings, pos, ends):
        """Yield the models that complete the one row of the stacks, in
        lexicographic order.

        The windows end at the positions in ``ends``, the last at the
        leaves: the first is slots pos..ends[0]-1, and each alive leaf of a
        window is walked on from its own row.  The leaves of the last window
        go through the leaf check at once, and only the accepted ones are
        visited.  Nodes and leaves are counted as a DFS that tries one value
        at a time counts them when it reaches each yielded model, so a
        consumer that stops early reads the same counts.
        """
        end = ends[0]
        table, alpha, pendings, reached, total = self._window(table, alpha, pendings, pos, end)
        last = len(ends) == 1
        rows = np.flatnonzero(self._violating_rows(table, alpha)) if last else range(len(table))
        nodes = leaves = 0
        for row in rows:
            self.nodes += int(reached[row]) - nodes
            nodes = int(reached[row])
            if last:
                self.models += int(row) + 1 - leaves
                leaves = int(row) + 1
                yield self._snapshot(table, alpha, row)
            else:
                yield from self._walk(
                    table[row:row + 1], alpha[row:row + 1], pendings, end, ends[1:]
                )
        self.nodes += total - nodes
        if last:
            self.models += len(table) - leaves

    def _window(self, table, alpha, pendings, pos, stop):
        """Breadth first over slots pos..stop-1 below the one row of the
        stacks.  Returns the alive rows that assign them all, in
        lexicographic order, the pending triples left, each row's node
        count (at each level, the position of its ancestor among that
        level's children plus 1, so every child the DFS reached before it,
        dead or alive), and the window's whole node count."""
        reached = np.zeros(len(table), dtype=np.intp)
        total = 0
        width = len(self.domain)
        for slot in range(pos, stop):
            rows = len(table)
            if not rows:
                break
            table = np.repeat(table, width, axis=0)
            alpha = np.repeat(alpha, width, axis=0)
            # Through (rows, D, ...) views, child b of each row takes value b.
            self._assign(
                table.reshape(rows, width, *table.shape[1:]),
                alpha.reshape(rows, width, -1), slot, self.values,
            )
            reached = np.repeat(reached, width) + np.arange(1, rows * width + 1)
            total += rows * width
            rows, pendings = self._filter(table, alpha, pendings, slot)
            table, alpha, reached = table[rows], alpha[rows], reached[rows]
        return table, alpha, pendings, reached, total

    def _snapshot(self, table, alpha, row: int) -> FiniteHomMagma:
        s = self.size
        return new_magma(
            s, table[row, :s, :s].tolist(), alpha[row, :s].tolist(),
            unit=self.unit, zero=self.zero,
        )


def _reduced_sides(program, triple, unit, zero):
    """The program's two sides at one (x, y, z) of element indices, as
    terms reduced by the fixed cells alone: ``1*t = t``, ``t*1 = t``,
    ``0*t = t*0 = 0`` and ``a(0) = 0``.  An element is its index, and any
    other term is ``("a", t)`` or ``("*", l, r)``."""

    def twist(v):
        return zero if v == zero else ("a", v)

    def product(l, r):
        if l == unit:
            return r
        if r == unit:
            return l
        return zero if zero in (l, r) else ("*", l, r)

    return evaluate.run_program(program, dict(zip("xyz", triple)), unit, twist, product)


@functools.cache
def _live_triples(program, size: int, unit, zero) -> np.ndarray:
    """The triples over ``size`` elements whose two sides the fixed cells
    do not reduce to the same term (see ``_reduced_sides``), as a read-only
    (3, k) array, x-major.

    A dropped triple is equal in every completion of the table, and a cell
    never changes once assigned, so it reads code 0 or 1 on every partial
    table and 0 on every complete one: neither the required runs nor
    the leaf check need it.  The reduction depends only on the triple's
    pattern (which coordinates are the unit, which the zero, and which of
    the others are equal), so it runs once per pattern, on the first triple
    of each.  Built once per program and carrier."""
    triples = np.indices((size,) * 3).reshape(3, -1)
    kind = np.where(triples == (-1 if unit is None else unit), 0, 2)
    kind[triples == (-1 if zero is None else zero)] = 1
    x, y, z = triples
    pattern = kind[0] + 3 * kind[1] + 9 * kind[2] + 27 * ((x == y) + 2 * (x == z) + 4 * (y == z))
    _, first, which = np.unique(pattern, return_index=True, return_inverse=True)
    sides = (_reduced_sides(program, triples[:, i].tolist(), unit, zero) for i in first)
    live = np.array([lhs != rhs for lhs, rhs in sides], dtype=bool)
    out = triples[:, live[which]]
    out.flags.writeable = False
    return out


@functools.cache
def _scheduled_triples(program, twist_slot: tuple, unit, zero) -> np.ndarray:
    """The live triples (``_live_triples``) over ``len(twist_slot)``
    elements as a read-only (4, k) array: x, y and z above each triple's
    ready slot, sorted by it, x-major among equals.  twist_slot[v] is the
    position of the slot that assigns the twist of element v, or -1 if
    that twist is fixed.

    The ready slot is the greatest position that assigns a twist one of
    the program's twist steps reads directly from a variable or the unit,
    or -1 if there is none: a twist of a product (III) adds no bound.
    Before it, that twist reads the undefined index, which absorbs every
    later product and twist, so the triple reads code 1 on every row.
    Built once per program and carrier."""
    slot = np.array(twist_slot, dtype=np.intp)
    triples = _live_triples(program, len(slot), unit, zero)
    ready = np.full(triples.shape[1], -1, dtype=np.intp)
    leaves = {"x": triples[0], "y": triples[1], "z": triples[2], "1": unit}
    for step in program.steps:
        if step[0] == "a" and program.steps[step[1]][0] in leaves:
            ready = np.maximum(ready, slot[leaves[program.steps[step[1]][0]]])
    scheduled = np.vstack([triples, ready])[:, np.argsort(ready, kind="stable")]
    scheduled.flags.writeable = False
    return scheduled


def _value_key(value: int, zero: Optional[int]) -> int:
    return 0 if zero is not None and value == zero else value + 1


def model_key(m: FiniteHomMagma) -> tuple:
    """Sort key implementing the (size, table, alpha) lexicographic order,
    with the zero element ordered first among values."""
    flat = tuple(_value_key(v, m.zero) for row in m.table for v in row)
    al = tuple(_value_key(v, m.zero) for v in m.alpha)
    return (m.size, flat, al)


def _reverify(spec: SearchSpec, m: FiniteHomMagma) -> FiniteHomMagma:
    # Independent re-check through the public evaluator.
    for r in spec.require:
        if not evaluate.holds(m, resolve_requirement(r)):
            raise InvariantViolation(
                f"search returned a model violating required {requirement_label(r)}"
            )
    for v in spec.violate:
        if evaluate.holds(m, resolve_requirement(v)):
            raise InvariantViolation(
                f"search returned a model satisfying forbidden {requirement_label(v)}"
            )
    return m


def _require_int(name: str, value):
    # bool is an int subclass; a float or a str would fail later, or not at all.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def find_model(spec: SearchSpec, workers: int = 1) -> Verdict:
    """Smallest countermodel within the bound, or an exhaustion certificate.

    Each carrier size is walked whole, smallest first, in the calling
    process, and the walk stops at the first model, which is the least in
    lexicographic order.  The node and model counts are those of a search
    that tries one value at a time.  ``workers`` is kept for the public API
    and the command line: the search runs in the calling process whatever
    its value, and the verdict and the node, model and cell counts are the
    same for every value.  A worker count that is not an int, or is below
    1, raises ValueError.
    """
    _require_int("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    start = time.perf_counter()
    nodes = models = cells = leaf_cells = 0
    for nonzero in range(1, spec.max_n + 1):
        search = _SizeSearch(spec, nonzero)
        model = next(search.run(), None)
        nodes += search.nodes
        models += search.models
        cells += search.cells
        leaf_cells += search.leaf_cells
        if model is not None:
            break
    stats = SearchStats(nodes, models, time.perf_counter() - start, cells, leaf_cells)
    if model is None:
        return Verdict(None, spec.max_n, stats)
    return Verdict(_reverify(spec, model), nonzero, stats)


def enumerate_models(spec: SearchSpec, limit: int) -> list:
    """The first `limit` models matching the spec that are their own
    canonical form: one per isomorphism class, each the least of its class,
    in lexicographic order (the lex-leader rule)."""
    _require_int("limit", limit)
    if limit < 0:
        raise ValueError(f"limit must not be negative, got {limit}")
    models = (m for n in range(1, spec.max_n + 1) for m in _SizeSearch(spec, n).run())
    return list(itertools.islice((m for m in models if canonical_form(m) == m), limit))


def canonical_form(m: FiniteHomMagma) -> FiniteHomMagma:
    """Least relabeling of the magma, fixing the unit (index 0) and the
    zero (last index).  Two magmas are isomorphic as pointed structures
    iff their canonical forms are equal.

    The relabelings list the unit, an ordering of the other elements, then
    the zero.  They are keyed in blocks of at most ``_KERNEL_CELLS`` cells,
    so memory stays bounded whatever the size of the magma.
    """
    n = m.size
    head = [] if m.unit is None else [m.unit]
    tail = [] if m.zero is None else [m.zero]
    others = [i for i in range(n) if i not in (m.unit, m.zero)]
    table = np.array(m.table, dtype=np.intp)
    alpha = np.array(m.alpha, dtype=np.intp)
    zero = None if m.zero is None else n - 1
    rank = np.array([_value_key(v, zero) for v in range(n)])
    step = max(_KERNEL_CELLS // (n * n + n), 1)
    orderings = itertools.permutations(others)
    best = None
    while block := list(itertools.islice(orderings, step)):
        # order[b, new] is the old element relabeled new, perm its inverse.
        order = np.array([head + list(middle) + tail for middle in block], dtype=np.intp)
        rows = np.arange(len(order))[:, None]
        perm = np.empty_like(order)
        perm[rows, order] = np.arange(n)
        cells = table[order[:, :, None], order[:, None, :]].reshape(len(order), -1)
        keys = rank[np.hstack([perm[rows, cells], perm[rows, alpha[order]]])]
        least = np.lexsort(keys.T[::-1])[0]
        key = keys[least].tolist()
        if best is None or key < best[0]:
            best = (key, perm[least].tolist())
    # With the unit and the zero in place, equal keys mean equal tables and
    # twists, and the names are replaced below: a tie leaves nothing to choose.
    return replace(m.relabel(best[1]), names=_default_names(n, zero))


def verify_implication(premises, conclusion, max_n: int, workers: int = 1) -> Verdict:
    """Search for a structure with all the premise types but not the
    conclusion; exhaustion confirms the implication up to the bound."""
    spec = SearchSpec(max_n=max_n, require=premises, violate=(conclusion,))
    return find_model(spec, workers=workers)


def verdict_to_dict(v: Verdict) -> dict:
    # Volatile statistics (nodes, wall time) are deliberately excluded so
    # that output is byte-identical across worker counts.
    return {
        "outcome": v.outcome,
        "bound": v.bound,
        "model": None if v.model is None else magma_to_dict(v.model),
    }
