"""Span tracing of the nine weylgas modules, installed from outside.

``Tracer.install`` replaces every public function of each module with a
wrapper that records a span (name, start, end, parent span, query id)
while a query runs.  Module code calls its own and other modules'
functions through module globals and module attributes, so patching the
attributes also catches calls made inside the package.  Spans stay in
memory and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its child
spans.  Three per-term helpers of ``algebra`` are left unwrapped: they run
inside the inner loop of every product, where a span would cost more than
the call, so their time counts as self time of the product that calls
them.
"""

from __future__ import annotations

import collections
import csv
import functools
import gzip
import importlib
import inspect
from time import perf_counter

MODULES = ("algebra", "quantize", "testfn", "spectrum", "states", "equilibrium",
           "gibbsmc", "berezin", "cli")

UNWRAPPED = {"algebra.herm_inner", "algebra.sigma", "algebra.label_norm_sq"}


def _lattice_points(spec):
    return spec.cutoff ** spec.nu


# Work counts computed from call arguments: name -> fn(*args) -> (counter, amount).
COUNTERS = {
    "algebra.multiply": lambda a, b: ("algebra.multiply.term_pairs", len(a.terms) * len(b.terms)),
    "gibbsmc.sample": lambda spec, count, seed: ("gibbsmc.samples", count),
    "spectrum.mode_sum": lambda weight, spec, *rest, **kw: (
        "spectrum.requested_lattice_points", _lattice_points(spec)),
    "spectrum.trace_h_power": lambda s, spec: (
        "spectrum.requested_lattice_points", _lattice_points(spec)),
    "spectrum.count_below": lambda spec, lam: (
        "spectrum.requested_lattice_points", _lattice_points(spec)),
}

# span record fields
NAME, START, END, PARENT, QUERY, CHILD, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.active = False
        self.counters: collections.Counter = collections.Counter()
        self._patched: list = []
        self._ids: dict = {}

    # -- installation --

    def install(self) -> None:
        for modname in MODULES:
            mod = importlib.import_module(f"weylgas.{modname}")
            for attr, fn in list(vars(mod).items()):
                name = f"{modname}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                setattr(mod, attr, self._wrap(name, fn))
                self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in self._patched:
            setattr(mod, attr, fn)
        self._patched.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                key, amount = counter(*args, **kwargs)
                tracer.counters[key] += amount
            return tracer._span(nid, fn, args, kwargs)

        return wrapper

    def _span(self, nid, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        parent = stack[-1] if stack else -1
        rec = [nid, 0.0, 0.0, parent, self.query, 0.0, False]
        stack.append(len(spans))
        spans.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[ERROR] = True
            raise
        finally:
            rec[END] = end = perf_counter()
            stack.pop()
            if parent >= 0:
                spans[parent][CHILD] += end - rec[START]

    def run_query(self, qid: int, kind: str, fn):
        """Run one query under a root span named ``query.<kind>``."""
        nid = self._name_id(f"query.{kind}")
        self.query = qid
        self.active = True
        try:
            return self._span(nid, fn, (), {})
        finally:
            self.active = False

    # -- results --

    def per_function(self) -> dict:
        """name -> [calls, self seconds, errors]."""
        out: dict = collections.defaultdict(lambda: [0, 0.0, 0])
        for rec in self.spans:
            row = out[self.names[rec[NAME]]]
            row[0] += 1
            row[1] += rec[END] - rec[START] - rec[CHILD]
            row[2] += rec[ERROR]
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        target, above = self._ids.get(name), self._ids.get(ancestor)
        count = 0
        for rec in self.spans:
            if rec[NAME] != target:
                continue
            p = rec[PARENT]
            while p >= 0 and self.spans[p][NAME] != above:
                p = self.spans[p][PARENT]
            count += p >= 0
        return count

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["span", "name", "start", "end", "parent", "query", "error"])
            for i, rec in enumerate(self.spans):
                out.writerow([i, self.names[rec[NAME]], f"{rec[START]:.9f}",
                              f"{rec[END]:.9f}", rec[PARENT], rec[QUERY], int(rec[ERROR])])
