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

Identities run as straight-line kernels generated from the compiled
programs of :mod:`homlab.evaluate`, over a table padded by one row and
column whose index ``size`` stands for an unassigned cell and absorbs every
product and twist.  The table carries one row per domain value, so at each
node the open slot takes every value at once and one kernel run per
required identity decides all the node's children.  Each required identity
keeps its pending triples as a (3, k) index array; a fixed code table over
the padded indices marks each triple of each child decided and equal,
undecided, or decided and unequal.  A child with an unequal triple is
rejected, and the DFS enters each other child with the triples still
undecided in its row.  At the last slot one kernel run per forbidden
identity over the full grid checks every child at once; a complete table is
accepted when every forbidden identity fails on some triple.

The search is split in the cube-and-conquer style: each carrier size is cut
at a fixed depth, so that each subtree below a surviving prefix decides at
most a few slots.  The subtrees of all sizes form one lazy stream in
lexicographic order, run in this process at one worker, or when the stream
is short, and through one process pool (at most one process per CPU) with a
bounded window of tasks in flight otherwise.  Results are read in stream
order and the stream stops at its first model, so the verdict is identical
for any worker count.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import evaluate
from .carriers import FiniteHomMagma, magma_to_dict, new_magma
from .errors import HomLabError, InvariantViolation, UnitRequired
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
    prune_isomorphs acts only in :func:`enumerate_models`: the first model
    :func:`find_model` reaches is already its own canonical form.
    """

    max_n: int
    require: tuple = ()
    violate: tuple = ()
    with_zero: bool = True
    unital: bool = True
    prune_isomorphs: bool = True

    def __post_init__(self):
        if self.max_n < 1:
            raise HomLabError("max_n must be at least 1")
        object.__setattr__(self, "require", tuple(self.require))
        object.__setattr__(self, "violate", tuple(self.violate))
        req = {requirement_label(r) for r in self.require}
        vio = {requirement_label(r) for r in self.violate}
        if req & vio:
            raise HomLabError(f"require and violate overlap: {sorted(req & vio)}")


@dataclass(frozen=True)
class SearchStats:
    nodes: int = 0
    models: int = 0
    seconds: float = 0.0


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


def spec_from_dict(data: dict) -> SearchSpec:
    require = list(data.get("require", [])) + list(data.get("custom", []))
    return SearchSpec(
        max_n=int(data.get("max_n", 3)),
        require=tuple(require),
        violate=tuple(data.get("violate", [])),
        with_zero=bool(data.get("with_zero", True)),
        unital=bool(data.get("unital", True)),
        prune_isomorphs=bool(data.get("prune_isomorphs", True)),
    )


def spec_to_dict(spec: SearchSpec) -> dict:
    return {
        "max_n": spec.max_n,
        "require": [requirement_label(r) for r in spec.require],
        "violate": [requirement_label(r) for r in spec.violate],
        "with_zero": spec.with_zero,
        "unital": spec.unital,
        "prune_isomorphs": spec.prune_isomorphs,
    }


# ------------------------------------------------------------------ search

class _SizeSearch:
    """Exhaustive DFS over one carrier size, in lexicographic order.

    The table and twist are numpy arrays padded by one row and column:
    index ``size`` is the undefined value.  It absorbs products and twists
    (its row, its column and its alpha entry are ``size``), so a side that
    reads an unassigned cell evaluates to ``size``.  A negative marker
    would not do: numpy reads a negative index as a real element.

    Both carry a leading batch axis of one row per domain value, (D, s+1,
    s+1) and (D, s+1).  An assigned slot holds its value in every row; at a
    node the open slot's cell holds ``domain`` down the batch axis, so row
    b is the child that takes domain[b], and one kernel run per identity
    decides all D children.  ``code[lhs, rhs]`` reads 0 for a decided equal
    pair, 1 for an undecided one and 2 for a decided unequal one.
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
        self.require = [self._kernel(r) for r in spec.require]
        self.violate = [self._kernel(v) for v in spec.violate]
        self.nodes = 0
        self.models = 0

        undef = self.size
        table = np.full((undef + 1, undef + 1), undef, dtype=np.intp)
        alpha = np.full(undef + 1, undef, dtype=np.intp)
        if self.unit is not None:
            table[self.unit, :undef] = np.arange(undef)
            table[:undef, self.unit] = np.arange(undef)
        if self.zero is not None:
            table[self.zero, :undef] = self.zero
            table[:undef, self.zero] = self.zero
            alpha[self.zero] = self.zero
        rows = len(self.domain)
        self.table = np.repeat(table[None], rows, axis=0)
        self.alpha = np.repeat(alpha[None], rows, axis=0)
        self.batch = np.arange(rows)[:, None]
        self.values = np.array(self.domain, dtype=np.intp)
        self.code = np.full((undef + 1, undef + 1), 2, dtype=np.int8)
        self.code[np.arange(undef), np.arange(undef)] = 0
        self.code[undef, :] = self.code[:, undef] = 1
        self._all_triples = np.indices((undef,) * 3).reshape(3, -1)

    def _kernel(self, entry: Requirement):
        program = evaluate.magma_program(resolve_requirement(entry))
        if self.unit is None and program.uses_unit:
            raise UnitRequired("identity uses the unit constant in a unit-free search")
        return evaluate.magma_kernel(program)

    def _codes(self, kernel, triples):
        """(D, k) codes of the triples under every row."""
        lhs, rhs = kernel(self.table, self.alpha, self.batch, *triples, self.unit)
        return self.code[lhs, rhs]

    def _children(self, pendings):
        """Whether no required identity rejects each row (a list), and each
        identity's (D, k) mask of its pending triples still undecided in
        each row."""
        worst = np.zeros(len(self.domain), dtype=np.int8)
        undecided = []
        for kernel, pend in zip(self.require, pendings):
            codes = self._codes(kernel, pend)
            worst = np.maximum(worst, codes.max(axis=1, initial=0))
            undecided.append(codes == 1)
        return (worst < 2).tolist(), undecided

    def _violating_rows(self):
        """Rows of a complete table in which every forbidden identity fails."""
        rows = np.ones(len(self.domain), dtype=bool)
        for kernel in self.violate:
            rows &= (self._codes(kernel, self._all_triples) == 2).any(axis=1)
        return rows

    def _root_pendings(self):
        """Each required identity's (3, k) undecided triples under the
        current table, or None if a decided triple fails.  No slot is open,
        so every row is the same and row 0 speaks for all."""
        alive, undecided = self._children([self._all_triples] * len(self.require))
        if not alive[0]:
            return None
        return [self._all_triples.compress(mask[0], axis=1) for mask in undecided]

    def _assign(self, pos, value):
        kind, i, j = self.slots[pos]
        if kind == "t":
            self.table[:, i, j] = value
        else:
            self.alpha[:, i] = value

    def prefixes(self, depth: int):
        """Yield, in lexicographic order, the assignments of the first
        depth slots that no required identity rejects, as value tuples."""
        pendings = self._root_pendings()
        if pendings is not None:
            for path, _, _ in self._walk(0, depth, pendings, ()):
                yield path

    def run(self, prefix: tuple = ()):
        """Yield the complete models (as FiniteHomMagma) that extend prefix,
        in lexicographic order.

        The prefix is assigned at once and the root pendings filtered once:
        a decided triple never changes, so this keeps the pending set and
        the rejections of filtering after each of its slots.
        """
        for pos, value in enumerate(prefix):
            self._assign(pos, value)
        pendings = self._root_pendings()
        if pendings is None:
            return
        for _, row, verdicts in self._walk(len(prefix), len(self.slots), pendings, prefix):
            self.models += 1
            if verdicts[row]:
                yield self._snapshot(row)

    def _walk(self, pos, stop, pendings, path):
        """DFS over slots pos..stop-1: yield (path, row, verdicts) for every
        surviving assignment, in lexicographic order, while row ``row`` of
        the table holds it.  When stop is the last slot, verdicts holds the
        leaf check of every row; otherwise it is None.

        Each child counts as a node when the loop reaches it, as in a DFS
        that tries one value at a time, so a search that stops at its first
        model counts the same nodes.
        """
        complete = stop == len(self.slots)
        if pos == stop:
            yield path, 0, self._violating_rows() if complete else None
            return
        self._assign(pos, self.values)
        alive, undecided = self._children(pendings)
        last = pos + 1 == stop
        verdicts = self._violating_rows() if last and complete and any(alive) else None
        for b, v in enumerate(self.domain):
            self.nodes += 1
            if not alive[b]:
                continue
            if last:
                yield path + (v,), b, verdicts
            else:
                self._assign(pos, v)
                children = [p.compress(mask[b], axis=1) for p, mask in zip(pendings, undecided)]
                yield from self._walk(pos + 1, stop, children, path + (v,))
        self._assign(pos, self.size)

    def _snapshot(self, row: int) -> FiniteHomMagma:
        s = self.size
        return new_magma(
            s, self.table[row, :s, :s].tolist(), self.alpha[row, :s].tolist(),
            unit=self.unit, zero=self.zero,
        )


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


# Slots a task decides: the split depth leaves this many below each prefix.
_TASK_SLOTS = 5


def _tasks(spec: SearchSpec, cubes: list):
    """(spec, nonzero, prefix) for every surviving split prefix of every
    carrier size, lazily and in the serial DFS's order.  The prefix search
    of each size goes to cubes, which keeps its node count."""
    for nonzero in range(1, spec.max_n + 1):
        cube = _SizeSearch(spec, nonzero)
        cubes.append(cube)
        for prefix in cube.prefixes(max(len(cube.slots) - _TASK_SLOTS, 0)):
            yield spec, nonzero, prefix


def _run_task(task):
    spec, nonzero, prefix = task
    search = _SizeSearch(spec, nonzero)
    return nonzero, next(search.run(prefix), None), search.nodes, search.models


def find_model(spec: SearchSpec, workers: int = 1) -> Verdict:
    """Smallest countermodel within the bound, or an exhaustion certificate.

    Every carrier size is cut at a fixed depth into small subtrees, one per
    surviving prefix, and they form one lazy stream in lexicographic order.
    At one worker each runs in this process in turn.  At more (at most one
    per CPU), one process pool keeps up to two per worker in flight; it is
    started only if the stream holds more than that window, and a shorter
    stream runs in this process too.  Results are taken in stream order and
    the stream stops at its first model, which is the serial DFS's first
    model, so the verdict is the same for every worker count.
    """
    start = time.perf_counter()
    # Verdicts do not depend on the worker count, so more processes than
    # CPUs would only cost forks.
    workers = max(min(workers, os.cpu_count() or 1), 1)
    cubes = []
    stream = _tasks(spec, cubes)
    window = collections.deque()
    results = []
    pool = None
    if workers > 1:
        # A stream that ends within one window's worth of tasks is not
        # worth a pool: look that far ahead before forking.
        head = list(itertools.islice(stream, 2 * workers + 1))
        stream = itertools.chain(head, stream)
        if len(head) > 2 * workers:
            pool = multiprocessing.get_context("fork").Pool(workers)
    if pool is None:
        limit = 1

        def submit(task):
            result = _run_task(task)
            return lambda: result
    else:
        limit = 2 * workers

        def submit(task):
            return pool.apply_async(_run_task, (task,)).get

    try:
        while True:
            window.extend(submit(t) for t in itertools.islice(stream, limit - len(window)))
            if not window:
                break
            results.append(window.popleft()())
            if results[-1][1] is not None:
                break
        # Tasks already handed out are small: finish them rather than kill
        # busy workers, and count their nodes as spent.
        results += [pending() for pending in window]
    except BaseException:
        if pool is not None:
            pool.terminate()  # a worker may have died, and its task with it
        raise
    if pool is not None:
        pool.close()
        pool.join()
    nodes = sum(c.nodes for c in cubes) + sum(r[2] for r in results)
    models = sum(r[3] for r in results)
    stats = SearchStats(nodes, models, time.perf_counter() - start)
    winner = next((r for r in results if r[1] is not None), None)
    if winner is None:
        return Verdict(None, spec.max_n, stats)
    return Verdict(_reverify(spec, winner[1]), winner[0], stats)


def enumerate_models(spec: SearchSpec, limit: int) -> list:
    """Up to `limit` models matching the spec, in lexicographic order,
    deduplicated by canonical form when prune_isomorphs is set."""
    out = []
    seen = set()
    for nonzero in range(1, spec.max_n + 1):
        search = _SizeSearch(spec, nonzero)
        for m in search.run():
            if spec.prune_isomorphs:
                key = model_key(canonical_form(m))
                if key in seen:
                    continue
                seen.add(key)
            out.append(m)
            if len(out) >= limit:
                return out
    return out


def canonical_form(m: FiniteHomMagma) -> FiniteHomMagma:
    """Least relabeling of the magma, fixing the unit (index 0) and the
    zero (last index).  Two magmas are isomorphic as pointed structures
    iff their canonical forms are equal."""
    n = m.size
    # Move into canonical storage first: unit at 0, zero last.
    target = []
    if m.unit is not None:
        target.append(m.unit)
    target += [i for i in range(n) if i not in (m.unit, m.zero)]
    if m.zero is not None:
        target.append(m.zero)
    storage_perm = [0] * n
    for new_idx, old_idx in enumerate(target):
        storage_perm[old_idx] = new_idx
    base = m.relabel(storage_perm)
    base = replace(base, names=_canonical_names(base))

    lo = 1 if m.unit is not None else 0
    hi = n - (1 if m.zero is not None else 0)
    middle = list(range(lo, hi))
    best = base
    best_key = model_key(base)
    for perm in itertools.permutations(middle):
        full = list(range(n))
        for src, dst in zip(middle, perm):
            full[src] = dst
        cand = base.relabel(full)
        key = model_key(cand)
        if key < best_key:
            best = replace(cand, names=_canonical_names(cand))
            best_key = key
    return best


def _canonical_names(m: FiniteHomMagma):
    names = []
    k = 1
    for i in range(m.size):
        if m.zero is not None and i == m.zero:
            names.append("0")
        else:
            names.append(f"e{k}")
            k += 1
    return tuple(names)


def verify_implication(premises, conclusion, max_n: int, workers: int = 1) -> Verdict:
    """Search for a structure with all the premise types but not the
    conclusion; exhaustion confirms the implication up to the bound."""
    spec = SearchSpec(max_n=max_n, require=tuple(premises), violate=(conclusion,))
    return find_model(spec, workers=workers)


def verdict_to_dict(v: Verdict) -> dict:
    # Volatile statistics (nodes, wall time) are deliberately excluded so
    # that output is byte-identical across worker counts.
    return {
        "outcome": v.outcome,
        "bound": v.bound,
        "model": None if v.model is None else magma_to_dict(v.model),
    }
