#!/usr/bin/env python3
"""Benchmark for homlab: four closed-loop workloads, checked by an oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a homlab checkout; homlab is imported from its src/.
One caller runs one operation at a time for S seconds (whole passes only),
checks every output against the brute-force oracle in bench/oracle.py or
against properties the method must have, and prints one JSON object as its
last line.  With --trace 0 it reports the end-to-end metrics (medians over
the run's passes and set-ups, scaled by the speed samples taken during
each, and the peak memory); with --trace 1 it wraps homlab's public
functions in spans and reports the per-layer metrics instead.  Results and
traces are also written to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import mmap
import os
import resource
import signal
import statistics
import struct
import sys
import time
import typing
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import tracing  # noqa: E402

PRIME = 7
DEEP4 = {"max_n": 4, "require": ("I2", "II1", "II3"), "violate": ("II2",)}


# ---------------------------------------------------------- speed samples
#
# This machine's speed swings by tens of percent within seconds and over
# minutes, as the host's other load comes and goes, and CPU time swings with
# wall time, so raw times of whole runs spread past any useful bound.  A
# small fixed piece of interpreter work, timed on a timer signal every
# SAMPLE_EVERY_S seconds during each set-up and pass, slows down with the
# work around it.  Every time is reported scaled by these samples: as
# seconds on a machine on which one sample takes SAMPLE_NOMINAL_S.  The
# time this process spends in samples is taken out of the set-up and pass
# times, and the time its forked workers spend in them out of the CPU time.

SAMPLE_EVERY_S = 0.1
SAMPLE_ROUNDS = 40
SAMPLE_NOMINAL_S = 0.002


def _sample_work():
    """Fixed work shaped like homlab's search: closures over nested lists,
    evaluated on every triple of a small table."""
    size = 6
    t = [[(3 * i + 5 * j + i * j) % size for j in range(size)] for i in range(size)]
    a = [(2 * i + 1) % size for i in range(size)]

    def left(x, y, z):
        return t[t[x][y]][a[z]]

    def right(x, y, z):
        return t[a[x]][t[y][z]]

    agree = 0
    for _ in range(SAMPLE_ROUNDS):
        for x in range(size):
            for y in range(size):
                for z in range(size):
                    if left(x, y, z) == right(x, y, z):
                        agree += 1
    return agree


class SpeedSampler:
    """Times _sample_work on SIGALRM, between bytecodes of the main thread,
    in this process and in every process it forks while active (homlab's
    pool workers, which inherit the handler but not the timer: each starts
    its own and adds its samples to a slot of memory shared with this
    process)."""

    SLOTS = 64

    def __init__(self):
        self.samples = []
        self.shared = mmap.mmap(-1, 16 * self.SLOTS)
        self.forks = 0
        self.slot = None
        self.active = False
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    def _before_fork(self):
        if self.active:
            self.forks += 1

    def _in_child(self):
        if self.active:
            self.slot = (self.forks - 1) % self.SLOTS
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _sample_work()
        took = time.perf_counter() - start
        if self.slot is None:
            self.samples.append(took)
        else:
            total, count = struct.unpack_from("dd", self.shared, 16 * self.slot)
            struct.pack_into("dd", self.shared, 16 * self.slot, total + took, count + 1)

    def __enter__(self):
        self.shared[:] = bytes(len(self.shared))
        self.forks = 0
        self.active = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.active = False

    def busy(self) -> float:
        """Seconds spent in this process's samples so far."""
        return sum(self.samples)

    def forked(self):
        """(seconds, count) of the samples of the processes forked since
        the sampler was last entered."""
        slots = [struct.unpack_from("dd", self.shared, 16 * i) for i in range(self.SLOTS)]
        return sum(t for t, _ in slots), int(sum(c for _, c in slots))


class CheckFailed(Exception):
    """An output disagrees with the oracle or with a required property."""


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def forget_homlab():
    """Drop homlab's modules and what only they kept alive, so that the
    next import runs homlab's module code again (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "homlab" or n.startswith("homlab.")]:
        del sys.modules[name]
    # typing caches the Union and generic aliases that homlab's annotations
    # build, and with them homlab's old classes and modules: without this,
    # every set-up would leave one copy alive and the peak would grow with
    # the number of passes.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()


def import_homlab():
    """Import homlab from the checkout's src/."""
    import homlab
    import homlab.cli  # noqa: F401

    if not Path(homlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"homlab imported from {homlab.__file__}, not from {SRC}")
    return homlab


def arrays(m):
    return np.array(m.table, dtype=np.intp), np.array(m.alpha, dtype=np.intp)


def same_magma(m, table, alpha) -> bool:
    t, a = arrays(m)
    return np.array_equal(t, table) and np.array_equal(a, alpha)


def structure_arrays(data: dict):
    """(table, alpha) of a homlab structure-file dict, read by the benchmark."""
    names = list(data["elements"]) + ["0"]
    idx = {name: i for i, name in enumerate(names)}
    top = len(data["elements"])
    table = np.full((top + 1, top + 1), top, dtype=np.intp)
    table[0, :top] = np.arange(top)
    table[:top, 0] = np.arange(top)
    for key, value in data["products"].items():
        left, right = key.split()
        table[idx[left], idx[right]] = idx[value]
    alpha = np.full(top + 1, top, dtype=np.intp)
    for key, value in data["alpha"].items():
        alpha[idx[key]] = idx[value]
    return table, alpha


def edge_parts(label: str):
    premises, _, conclusion = label.partition("=>")
    return premises.split(","), conclusion


def verdict_json(hl, verdict) -> str:
    # The form `homlab search --json` prints.
    return json.dumps(hl.verdict_to_dict(verdict), sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------- workloads
#
# A workload builds its inputs through homlab (build), runs one operation
# (run, the timed part), and turns the operation's output into plain data
# (record).  Every pass must record the same data as the first.  Only after
# the passes, and after the peak memory is read, does the oracle compute its
# expectations (prepare) and check the first pass's record (check) and what
# the workload does once after its passes (finish, check_finish).

class Workload:
    def record(self, hl, inputs, result):
        return result

    def finish(self, hl, inputs):
        return None

    def check_finish(self, record, finished):
        pass


class Reproduce3(Workload):
    """`homlab reproduce --max-n 3 --json` through homlab.cli.main."""

    def build(self, hl, rng):
        return {
            "argv": ["reproduce", "--max-n", "3", "--json"],
            "fixtures": {f.num: (f.relations, hl.from_relations(f.relations))
                         for f in hl.counterexample_fixtures()},
        }

    def run(self, hl, inputs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = hl.cli.main(inputs["argv"])
        return code, out.getvalue()

    def prepare(self, hl, inputs):
        self.enum = oracle.Enumeration(3)
        self.profiles = {}
        for num, (relations, magma) in inputs["fixtures"].items():
            table, alpha = oracle.parse_relations(relations)
            expect(same_magma(magma, table, alpha), f"from_relations of fixture {num}")
            self.profiles[str(num)] = sorted(oracle.profile(table, alpha))

    def check(self, record):
        code, text = record
        expect(code == 0, f"exit code {code}")
        data = json.loads(text)
        expect(data["passed"] is True and data["max_n"] == 3, "report not passed")
        expect(len(data["edges"]) == 16 and len(data["suspect_edges"]) == 3, "edge count")
        for label, verdict in data["edges"].items():
            expect(verdict["outcome"] == "exhausted" and verdict["bound"] == 3, label)
            premises, conclusion = edge_parts(label)
            expect(self.enum.first_model(premises, [conclusion]) is None,
                   f"oracle refutes exhausted edge {label}")
        for label, verdict in data["suspect_edges"].items():
            premises, conclusion = edge_parts(label)
            first = self.enum.first_model(premises, [conclusion])
            expect(first is not None and verdict["outcome"] == "countermodel", label)
            n, table, alpha = first
            got_table, got_alpha = structure_arrays(verdict["model"])
            expect(verdict["bound"] == n and np.array_equal(got_table, table)
                   and np.array_equal(got_alpha, alpha),
                   f"probe {label} is not the oracle's first countermodel")
        expect(sorted(data["fixtures"]) == sorted(self.profiles), "fixture numbers")
        for num, report in data["fixtures"].items():
            expect(report["status"] == "pass" and report["profile"] == self.profiles[num],
                   f"fixture {num} profile")
        expect(data["lie"] and all(data["lie"].values()), "lie suite")


class Deep4(Workload):
    """The deepest catalog non-implication, I2, II1, II3 without II2."""

    WORKERS = 1

    def build(self, hl, rng):
        return {"spec": hl.SearchSpec(**DEEP4)}

    def run(self, hl, inputs):
        return hl.find_model(inputs["spec"], workers=self.WORKERS)

    def record(self, hl, inputs, verdict):
        m = verdict.model
        model = None if m is None else (m.size, m.unit, m.zero, *(a.tolist() for a in arrays(m)))
        return verdict_json(hl, verdict), verdict.found, verdict.bound, model

    def prepare(self, hl, inputs):
        enum = oracle.Enumeration(3)
        expect(enum.first_model(DEEP4["require"], DEEP4["violate"]) is None,
               "oracle has a countermodel with at most 3 nonzero elements")

    def check(self, record):
        _, found, bound, model = record
        expect(found and bound == 4, "no countermodel at bound 4")
        size, unit, zero, table, alpha = model
        expect(size == 5 and unit == 0 and zero == 4, "carrier layout")
        table, alpha = np.array(table, dtype=np.intp), np.array(alpha, dtype=np.intp)
        expect(np.array_equal(table[0], np.arange(5)) and np.array_equal(table[:, 0], np.arange(5))
               and np.all(table[4] == 4) and np.all(table[:, 4] == 4) and alpha[4] == 4,
               "unit and zero laws")
        prof = oracle.profile(table, alpha)
        expect(set(DEEP4["require"]) <= prof and not set(DEEP4["violate"]) & prof,
               f"model profile {sorted(prof)}")
        least_t, least_a = oracle.least_relabeling(table, alpha)
        expect(np.array_equal(least_t, table) and np.array_equal(least_a, alpha),
               "a relabeling of e2..e4 gives a smaller key")


class Deep4W2(Deep4):
    """The same search at 2 workers; after the passes one search at 1
    worker must agree byte for byte."""

    WORKERS = 2

    def finish(self, hl, inputs):
        return verdict_json(hl, hl.find_model(inputs["spec"], workers=1))

    def check_finish(self, record, finished):
        expect(finished == record[0], "verdict JSON differs between 1 and 2 workers")


def random_magma(hl, rng, n):
    """Unital magma with adjoined zero and n nonzero elements, random cells."""
    s = n + 1
    table = rng.integers(0, s, size=(s, s))
    table[0, :], table[:, 0] = np.arange(s), np.arange(s)
    table[n, :], table[:, n] = n, n
    alpha = rng.integers(0, s, size=s)
    alpha[n] = n
    return hl.new_magma(s, table.tolist(), alpha.tolist(), unit=0, zero=n)


class Profile(Workload):
    """Type profiles, canonical forms and bracket checks; no search."""

    CYCLIC_ORDERS = (8, 10, 12, 14, 16)
    RANDOM_SIZES = (4, 5, 6, 7) * 4
    CANONICAL_SIZES = (6, 6, 7, 7, 7)
    LINEAR = (("cyclic", 12), ("random", 10))
    TWISTS_PER_CARRIER = 12

    def build(self, hl, rng):
        cyclic = [hl.cyclic_group_magma(k, int(rng.integers(1, k))) for k in self.CYCLIC_ORDERS]
        magmas = cyclic + [random_magma(hl, rng, n) for n in self.RANDOM_SIZES]
        linear = [hl.cyclic_group_magma(k, int(rng.integers(1, k))) if kind == "cyclic"
                  else random_magma(hl, rng, k) for kind, k in self.LINEAR]
        canonical = []
        for n in self.CANONICAL_SIZES:
            m = random_magma(hl, rng, n)
            perm = [0] + list(1 + rng.permutation(n - 1)) + [n]
            canonical.append((m, m.relabel([int(v) for v in perm])))
        lie = [hl.abelian_algebra(3, PRIME), hl.solvable2_algebra(PRIME),
               hl.sl2_algebra(PRIME), hl.heisenberg_algebra(PRIME)]
        skew = []
        for d in (3, 3, 4, 4):
            c = rng.integers(0, PRIME, size=(d, d, d))
            c = c - c.transpose(1, 0, 2)
            for i in range(d):
                c[i, i, :] = 0
            skew.append(hl.new_algebra(PRIME, c, np.eye(d, dtype=np.int64), "skew"))
        twisted = [a.with_twist(rng.integers(0, PRIME, size=(a.dim, a.dim)))
                   for a in lie for _ in range(self.TWISTS_PER_CARRIER)]
        return {"magmas": magmas, "linear": linear, "canonical": canonical,
                "brackets": lie + skew, "twisted": twisted}

    def run(self, hl, inputs):
        out = {}
        out["profiles"] = [hl.type_profile(m) for m in inputs["magmas"]]
        out["linear"] = []
        for m in inputs["linear"]:
            algebra = hl.linearize(m, PRIME)
            out["linear"].append((hl.type_profile(m), hl.type_profile(algebra)))
        out["canonical"] = []
        for m, relabeled in inputs["canonical"]:
            canon = hl.canonical_form(m)
            out["canonical"].append(
                (canon, hl.canonical_form(relabeled), hl.canonical_form(canon)))
        out["fixtures"] = [hl.expansion_residuals(f.algebra) for f in hl.lie_fixtures(PRIME)]
        out["is_lie"] = [hl.is_lie(a) for a in inputs["brackets"]]
        tags = {name: hl.TypeTag("lie", name) for name in ("I1", "I2", "I3", "II1", "II2", "II3")}
        out["jacobiators"] = []
        for a in inputs["twisted"]:
            e = a.basis()
            x, y, z = e[:, None, None, :], e[None, :, None, :], e[None, None, :, :]
            out["jacobiators"].append((
                hl.verify_jacobiator_sums(a),
                {name: hl.jacobiator(a, tag, x, y, z) for name, tag in tags.items()},
            ))
        return out

    def record(self, hl, inputs, out):
        def magma(m):
            return tuple(a.tolist() for a in arrays(m))

        return {
            "profiles": [sorted(p.names("assoc")) for p in out["profiles"]],
            "linear": [(sorted(p.names("assoc")), sorted(lin.names("assoc")))
                       for p, lin in out["linear"]],
            "canonical": [tuple(magma(m) for m in forms) for forms in out["canonical"]],
            "fixtures": [bool(r.nine_term_matches) for r in out["fixtures"]],
            "is_lie": [bool(v) for v in out["is_lie"]],
            "jacobiators": [(bool(sums), {name: (np.asarray(v) % PRIME).tolist()
                                          for name, v in values.items()})
                            for sums, values in out["jacobiators"]],
        }

    def prepare(self, hl, inputs):
        self.profiles = [sorted(oracle.profile(*arrays(m))) for m in inputs["magmas"]]
        expect(all(len(p) == 10 for p in self.profiles[: len(self.CYCLIC_ORDERS)]),
               "oracle: translation-twisted cyclic group misses a type")
        self.linear_profiles = [sorted(oracle.profile(*arrays(m))) for m in inputs["linear"]]
        self.least = [oracle.least_relabeling(*arrays(m)) for m, _ in inputs["canonical"]]
        self.lie = [oracle.is_lie(a.c, a.p) for a in inputs["brackets"]]
        self.jacobiators = [oracle.twisted_jacobiators(a.c, a.alpha, a.p)
                            for a in inputs["twisted"]]
        for jac in self.jacobiators:
            expect(not np.any((jac["I1"] + jac["I2"] + jac["I3"]) % PRIME)
                   and not np.any((jac["II1"] + jac["II2"] + jac["II3"]) % PRIME),
                   "oracle: jacobiator sums do not vanish on a Lie carrier")

    def check(self, rec):
        for k, (prof, want) in enumerate(zip(rec["profiles"], self.profiles, strict=True)):
            expect(prof == want, f"profile of magma {k}")
        for k, ((prof, lin), want) in enumerate(
                zip(rec["linear"], self.linear_profiles, strict=True)):
            expect(prof == want and lin == want,
                   f"linearization {k} changes the associative profile")
        for k, (forms, (table, alpha)) in enumerate(zip(rec["canonical"], self.least, strict=True)):
            canon, of_relabeled, again = (
                (np.array(t, dtype=np.intp), np.array(a, dtype=np.intp)) for t, a in forms)

            def same(form):
                return np.array_equal(form[0], table) and np.array_equal(form[1], alpha)

            expect(same(canon), f"canonical form {k} is not least")
            expect(same(of_relabeled), f"canonical form {k} moved under relabeling")
            expect(same(again), f"canonical form {k} not idempotent")
        expect(all(rec["fixtures"]), "nine-term expansion")
        expect(rec["is_lie"] == self.lie, "is_lie disagrees with the einsum Jacobi check")
        for (sums_vanish, values), want in zip(rec["jacobiators"], self.jacobiators, strict=True):
            expect(sums_vanish, "jacobiator sums do not vanish on a Lie carrier")
            for name, value in values.items():
                expect(np.array_equal(np.array(value), want[name]), f"jacobiator {name}")


WORKLOADS = {
    "reproduce3": Reproduce3,
    "deep4": Deep4,
    "deep4-w2": Deep4W2,
    "profile": Profile,
}


# ------------------------------------------------------------------ runs

def cpu_now() -> float:
    """CPU seconds of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def new_run() -> dict:
    return {"setups": [], "scaled_setups": [], "passes": [],
            "attempted": 0, "failed": 0, "peak_rss_mb": None}


def execute(name, seed, seconds, run, tracer=None) -> dict:
    """Run whole passes for `seconds` (at least one) and check them,
    filling in `run` as it goes, so that the counts survive a failure.
    Before every pass homlab is imported afresh and the inputs are built
    again, so that the set-up samples span the run as the passes do.  The
    peak memory is read after the passes and before any oracle work."""
    workload = WORKLOADS[name]()
    setups, passes = run["setups"], run["passes"]

    def set_up(busy=lambda: 0.0):
        rng = np.random.default_rng(seed)
        forget_homlab()
        start, busy0 = time.perf_counter(), busy()
        hl = import_homlab()
        if tracer is not None:
            tracer.install(hl)
        definitions = {n: hl.parse_identity(src) for n, (src, _) in oracle.TYPES.items()}
        inputs = workload.build(hl, rng)
        setups.append(time.perf_counter() - start - (busy() - busy0))
        return hl, definitions, inputs

    hl, definitions, inputs = set_up()
    for n, identity in definitions.items():
        expect(identity == hl.builtin(hl.TypeTag("assoc", n)), f"catalog entry {n}")

    first = None
    began = time.perf_counter()
    sampler = SpeedSampler()
    while not passes or (time.perf_counter() - began
                         + statistics.median(p["span"] for p in passes) <= seconds):
        opened = time.perf_counter()
        with sampler:
            first_sample = len(sampler.samples)
            hl, _, inputs = set_up(sampler.busy)
            setup_busy = sampler.busy()
            mark = tracer.mark() if tracer is not None else 0
            cpu0, start = cpu_now(), time.perf_counter()
            run["attempted"] += 1
            try:
                result = workload.run(hl, inputs)
            except Exception as exc:  # an operation that raises has failed
                print(f"operation failed: {exc!r}", file=sys.stderr)
                run["failed"] += 1
                result = None
            wall, cpu = time.perf_counter() - start, cpu_now() - cpu0
            pass_busy = sampler.busy() - setup_busy
            forked_busy, forked_count = sampler.forked()
        samples = sampler.samples[first_sample:]
        if result is not None:
            record = workload.record(hl, inputs, result)
            if first is None:
                first = record
            expect(record == first, f"pass {len(passes) + 1} differs from the first pass")
            # Where forked workers did the work, the parent's samples compete
            # with them for the CPUs and time the scheduler, not the speed.
            count, took = (forked_count, forked_busy) if forked_count else (len(samples), sum(samples))
            expect(count, "no speed sample during a set-up and pass")
            scale = SAMPLE_NOMINAL_S * count / took
            run["scaled_setups"].append(setups[-1] * scale)
            passes.append({"wall": wall - pass_busy, "cpu": cpu - pass_busy - forked_busy,
                           "scale": scale, "samples": (len(samples), sum(samples),
                                                       forked_count, forked_busy),
                           "span": time.perf_counter() - opened,
                           "spans": (mark, tracer.mark() if tracer is not None else 0)})
        elif time.perf_counter() - began > seconds:
            break
    finished = workload.finish(hl, inputs)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run["peak_rss_mb"] = (self_kb + child_kb) / 1024.0

    if not passes:
        raise CheckFailed("no pass completed")
    workload.prepare(hl, inputs)
    workload.check(first)
    workload.check_finish(first, finished)
    return run


def end_to_end(run) -> dict:
    return {
        "setup_s": (statistics.median(run["scaled_setups"]), "s"),
        "pass_s": (statistics.median(p["wall"] * p["scale"] for p in run["passes"]), "s"),
        "cpu_s": (statistics.median(p["cpu"] * p["scale"] for p in run["passes"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


# Per-layer metric: (unit, home workload).  The home workload supplies the
# metric when the traced workload never calls that layer.
LAYERS = {
    "search.nodes": ("count", "reproduce3"),
    "search.leaves": ("count", "reproduce3"),
    "search.node_us": ("us", "reproduce3"),
    "search.verdicts_s": ("s", "reproduce3"),
    "search.canonical_form_ms": ("ms", "profile"),
    "search.fanout_nodes_ratio": ("ratio", "deep4-w2"),
    "search.fanout_worker_cpu_s": ("s", "deep4-w2"),
    "search.fanout_wait_s": ("s", "deep4-w2"),
    "evaluate.holds_ns_per_triple": ("ns", "profile"),
    "evaluate.holds_multilinear_ms": ("ms", "profile"),
    "evaluate.type_profile_ms": ("ms", "profile"),
    "hierarchy.fixtures_ms": ("ms", "reproduce3"),
    "hierarchy.self_ms": ("ms", "reproduce3"),
    "liecheck.suite_ms": ("ms", "reproduce3"),
    "terms.parse_us": ("us", "profile"),
    "carriers.new_magma_us": ("us", "profile"),
    "carriers.linearize_ms": ("ms", "profile"),
    "cli.json_ms": ("ms", "reproduce3"),
    "cli.self_ms": ("ms", "reproduce3"),
}


def layers(run, spans, lo, hi) -> dict:
    """Per-layer metrics of one traced run whose spans lie in [lo, hi);
    None where the run never called the layer."""
    dur = tracing.duration

    def per_pass(fn):
        values = [fn(*p["spans"]) for p in run["passes"]]
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    def total(a, b, name, scale=1e3):
        pred = name if callable(name) else (lambda n: n == name)
        hits = tracing.outermost(spans, a, b, pred)
        return sum(dur(s) for s in hits) * scale if hits else None

    def searches(a, b):
        return [s for s in spans[a:b] if s[0] == "search.find_model"]

    def search_sum(a, b, key):
        found = searches(a, b)
        return sum(s[4][key] for s in found) if found else None

    def node_us(a, b):
        # 1-worker searches only: at 2 workers the parent's wall time over
        # both workers' nodes would read fewer wasted nodes as a slowdown.
        found = [s for s in searches(a, b) if s[4]["workers"] == 1]
        return sum(dur(s) for s in found) / sum(s[4]["nodes"] for s in found) * 1e6 if found else None

    def holds_ns(a, b):
        sat = [s for s in spans[a:b] if s[0] == "evaluate.holds" and s[4]["result"]]
        return sum(dur(s) for s in sat) / sum(s[4]["size"] ** 3 for s in sat) * 1e9 if sat else None

    def self_ms(a, b, name):
        ids = {sid for sid in range(a, b) if spans[sid][0] == name}
        if not ids:
            return None
        return (sum(dur(spans[i]) for i in ids) - tracing.children_time(spans, a, b, ids)) * 1e3

    def cli_json(a, b):
        hits = [s for s in spans[a:b]
                if s[0] in ("cli.json.dumps", "hierarchy.HierarchyReport.to_dict")]
        return sum(dur(s) for s in hits) * 1e3 if hits else None

    def mean_us(name):
        hits = [dur(s) for s in spans[lo:hi] if s[0] == name]
        return sum(hits) / len(hits) * 1e6 if hits else None

    fan = [s for s in spans[lo:hi] if s[0] == "search.find_model" and s[4]["workers"] > 1]
    base = {s[4]["spec"]: s[4]["nodes"] for s in spans[lo:hi]
            if s[0] == "search.find_model" and s[4]["workers"] == 1}
    ratios = [s[4]["nodes"] / base[s[4]["spec"]] for s in fan if s[4]["spec"] in base]
    return {
        "search.nodes": per_pass(lambda a, b: search_sum(a, b, "nodes")),
        "search.leaves": per_pass(lambda a, b: search_sum(a, b, "leaves")),
        # A run whose passes make no 1-worker search (deep4-w2) takes its
        # closing 1-worker search.
        "search.node_us": per_pass(node_us) or node_us(lo, hi),
        "search.verdicts_s": per_pass(lambda a, b: total(a, b, "search.find_model", 1.0)),
        "search.canonical_form_ms": per_pass(lambda a, b: total(a, b, "search.canonical_form")),
        "search.fanout_nodes_ratio": statistics.median(ratios) if ratios else None,
        "search.fanout_worker_cpu_s": statistics.median(s[5][1] for s in fan) if fan else None,
        "search.fanout_wait_s": statistics.median(dur(s) - s[5][0] for s in fan) if fan else None,
        "evaluate.holds_ns_per_triple": per_pass(holds_ns),
        "evaluate.holds_multilinear_ms": per_pass(lambda a, b: total(a, b, "evaluate.holds_multilinear")),
        "evaluate.type_profile_ms": per_pass(lambda a, b: total(a, b, "evaluate.type_profile")),
        "hierarchy.fixtures_ms": per_pass(lambda a, b: total(a, b, "hierarchy.verify_fixture")),
        "hierarchy.self_ms": per_pass(lambda a, b: self_ms(a, b, "hierarchy.verify_hierarchy")),
        "liecheck.suite_ms": per_pass(
            lambda a, b: total(a, b, lambda n: n.startswith("liecheck."))),
        "terms.parse_us": mean_us("terms.parse_identity"),
        "carriers.new_magma_us": mean_us("carriers.new_magma"),
        "carriers.linearize_ms": per_pass(lambda a, b: total(a, b, "carriers.linearize")),
        "cli.json_ms": per_pass(cli_json),
        "cli.self_ms": per_pass(lambda a, b: self_ms(a, b, "cli.main")),
    }


def traced(name, seed, seconds, runs, tracer):
    """The traced run, plus one pass of a home workload for each layer the
    named workload never calls."""
    execute(name, seed, seconds, runs[name], tracer)
    metrics = layers(runs[name], tracer.spans, 0, tracer.mark())
    homes = {}
    for metric in sorted(metrics):
        if metrics[metric] is None:
            home = LAYERS[metric][1]
            if home not in homes:
                lo = tracer.mark()
                runs[home] = new_run()
                execute(home, seed, 0, runs[home], tracer)
                homes[home] = layers(runs[home], tracer.spans, lo, tracer.mark())
            metrics[metric] = homes[home][metric]
    missing = [m for m, v in metrics.items() if v is None]
    if missing:
        raise CheckFailed(f"layers never measured: {missing}")
    return {m: (v, LAYERS[m][0]) for m, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_homlab()
    except ImportError as exc:
        print(f"error: cannot import homlab from {SRC}: {exc}", file=sys.stderr)
        return 2

    runs = {args.workload: new_run()}
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            metrics = traced(args.workload, args.seed, args.seconds, runs, tracer)
        else:
            metrics = end_to_end(execute(args.workload, args.seed, args.seconds,
                                         runs[args.workload]))
        correct = True
    except Exception as exc:  # a failed check, or a set-up or finish that raised
        print(f"check failed: {exc!r}", file=sys.stderr)
        correct, metrics = False, {}
    run = runs[args.workload]
    # A run that broke down before its first operation counts that operation
    # as attempted and failed.
    attempted = run["attempted"] or 1
    failed = run["failed"] if run["attempted"] else 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {name: {"setups": r["setups"], "passes": [p["wall"] for p in r["passes"]],
                      "cpu": [p["cpu"] for p in r["passes"]],
                      "scales": [p["scale"] for p in r["passes"]],
                      "samples": [p["samples"] for p in r["passes"]]}
               for name, r in runs.items()}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "runs": summary}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.trace.jsonl", {"runs": summary})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
