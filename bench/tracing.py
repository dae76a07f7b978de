"""Spans around calls into homlab's public functions, recorded from outside.

The tracer replaces chosen functions, in every homlab module that binds
them, by wrappers that record a span: name, start, end and the span that
was open when the call began.  Spans stay in memory and are written out
when the run ends.  Nothing inside homlab is edited.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time


def _cpu():
    """(own, children) CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _find_model_attrs(args, kwargs, verdict):
    spec = args[0]
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    return {
        "nodes": verdict.stats.nodes,
        "leaves": verdict.stats.models,
        "workers": workers,
        "spec": repr(spec),
    }


def _holds_attrs(args, kwargs, result):
    return {"size": args[0].size, "result": bool(result)}


# (module, attribute, function computing span attributes from the call)
TARGETS = (
    ("homlab.terms", "parse_identity", None),
    ("homlab.carriers", "new_magma", None),
    ("homlab.carriers", "linearize", None),
    ("homlab.evaluate", "holds", _holds_attrs),
    ("homlab.evaluate", "holds_multilinear", None),
    ("homlab.evaluate", "type_profile", None),
    ("homlab.search", "find_model", _find_model_attrs),
    ("homlab.search", "canonical_form", None),
    ("homlab.hierarchy", "verify_hierarchy", None),
    ("homlab.hierarchy", "verify_fixture", None),
    ("homlab.cli", "main", None),
)


class Tracer:
    """Span recorder.  A span is [name, parent, start, end, attrs, cpu],
    where cpu is (own, children) CPU seconds for spans that ask for it."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None, cpu=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, time.perf_counter(), None, None, None]
            sid = len(spans)
            spans.append(rec)
            stack.append(sid)
            t0 = _cpu() if cpu else None
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if cpu:
                t1 = _cpu()
                rec[5] = (t1[0] - t0[0], t1[1] - t0[1])
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    def _replace(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "homlab" or mod_name.startswith("homlab."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def install(self, hl):
        """Wrap the target functions of a freshly imported homlab."""
        for mod_name, attr, attrs in TARGETS:
            fn = getattr(sys.modules[mod_name], attr)
            label = mod_name.split(".")[1] + "." + attr
            self._replace(fn, self.wrap(label, fn, attrs, cpu=attr == "find_model"))
        liecheck = sys.modules["homlab.liecheck"]
        for attr, fn in list(vars(liecheck).items()):
            if (callable(fn) and not attr.startswith("_") and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == "homlab.liecheck"):
                self._replace(fn, self.wrap("liecheck." + attr, fn))
        report = hl.hierarchy.HierarchyReport
        report.to_dict = self.wrap("hierarchy.HierarchyReport.to_dict", report.to_dict)
        cli = sys.modules["homlab.cli"]
        cli.json = _JsonProxy(self.wrap("cli.json.dumps", json.dumps))

    def mark(self) -> int:
        return len(self.spans)

    def dump(self, path, extra: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(extra, fh, sort_keys=True)
            fh.write("\n")
            for sid, (name, parent, start, end, attrs, cpu) in enumerate(self.spans):
                json.dump({"id": sid, "name": name, "parent": parent, "start": start,
                           "end": end, "attrs": attrs, "cpu": cpu}, fh, sort_keys=True)
                fh.write("\n")


class _JsonProxy:
    """Stands in for the json module inside homlab.cli with a traced dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


# ------------------------------------------------------------ span algebra

def duration(span) -> float:
    return span[3] - span[2]


def outermost(spans, lo, hi, pred):
    """Spans in [lo, hi) matching pred with no matching ancestor."""
    out = []
    for sid in range(lo, hi):
        if not pred(spans[sid][0]):
            continue
        parent = spans[sid][1]
        while parent is not None and not pred(spans[parent][0]):
            parent = spans[parent][1]
        if parent is None:
            out.append(spans[sid])
    return out


def children_time(spans, lo, hi, parent_ids) -> float:
    """Total duration of spans in [lo, hi) whose parent is in parent_ids."""
    return sum(duration(s) for s in spans[lo:hi] if s[1] in parent_ids)
