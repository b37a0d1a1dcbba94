"""The traced run: spans around the calls into each library module.

The benchmark wraps, from outside, the public functions listed in
``LAYERS``.  A wrapper goes into every module namespace of the package that
bound the function, so ``jordan_classes.inverse`` is traced as well as
``linalg.inverse``.  Field methods are wrapped with counters only; they run
millions of times and a span each would swamp what it measures.

A span records its name, start, end, parent span and the id of the
top-level call it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# The traced functions of each module (layer) of the library.
LAYERS = {
    "linalg": ["Mat.mul", "Mat.mul_vec", "rank", "rref", "nullspace", "inverse", "charpoly",
               "eigenvalues_with_multiplicity", "jordan_chevalley_split",
               "jordan_type_nilpotent", "restricted_jordan_type", "random_gl", "random_sp"],
    "partitions": ["bipartition_from_invariants", "ah_closure_leq", "enumerate_bipartitions"],
    "enhanced": ["act", "identify_orbit", "build_representative", "closure_oracle_flag",
                 "closure_oracle_sweep"],
    # construction of an ExoticElement is its __post_init__: dims and wedge check
    "exotic": ["ExoticElement.__post_init__", "embed_phi", "identify_exotic_orbit"],
    "jordan_classes": ["identify_class", "enumerate_classes", "class_closure_leq"],
    "sheets": ["enhanced_invariants", "exotic_invariants", "fiber_census",
               "sheets_are_maximal_check"],
    "cli": ["main", "parse_element_document"],
}

FIELD_METHODS = {"of": ("of",), "arith": ("add", "sub", "mul", "neg", "inv", "div")}
FIELD_CLASSES = {"q": "RationalField", "fp": "PrimeField"}


def span_names():
    """Metric stem of every traced function, e.g. ``exotic.ExoticElement``."""
    return [f"{layer}.{attr.removesuffix('.__post_init__')}"
            for layer, attrs in LAYERS.items() for attr in attrs]


def counter_names():
    return [f"fields.{tag}.{group}" for tag in FIELD_CLASSES for group in FIELD_METHODS]


class Tracer:
    """Collects spans and counts in the library package ``lib`` while
    installed; restores the library on ``uninstall``."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []          # (id, name, start, end, parent, call)
        self.counts = defaultdict(int)
        self._stack = [None]
        self._call = None
        self._patches = []       # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled on exit
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    def _exit(self, span_id, name, start, parent):
        self._stack.pop()
        self.spans[span_id] = (span_id, name, start, time.perf_counter(), parent, self._call)

    def call(self, call_id, kind, fn):
        """Run one top-level call under a root span named ``call.<kind>``."""
        self._call = call_id
        return self._spanned(f"call.{kind}", fn)()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            span_id, parent = self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span_id, name, start, parent)
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        package = self.lib.__name__
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer, attrs in LAYERS.items():
            module = getattr(self.lib, layer)
            for attr in attrs:
                stem = f"{layer}.{attr.removesuffix('.__post_init__')}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, meth, self._spanned(stem, getattr(cls, meth)))
                    continue
                original = getattr(module, attr)
                wrapper = self._spanned(stem, original)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, bound, wrapper)
        for tag, cls_name in FIELD_CLASSES.items():
            cls = getattr(self.lib.fields, cls_name)
            for group, methods in FIELD_METHODS.items():
                for meth in methods:
                    self._patch(cls, meth, self._counted(f"fields.{tag}.{group}",
                                                         getattr(cls, meth)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def per_layer(self):
        """{stem: (calls, self seconds)} over every traced function, plus
        {counter: calls} for the field methods."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats = {stem: [0, 0.0] for stem in span_names()}
        for span_id, name, start, end, _, _ in self.spans:
            if name in stats:
                stats[name][0] += 1
                stats[name][1] += (end - start) - child_time[span_id]
        counters = {key: self.counts.get(key, 0) for key in counter_names()}
        return stats, counters

    def root_counts(self):
        """Top-level calls seen by the tracer, by kind."""
        out = defaultdict(int)
        for _, name, _, _, parent, _ in self.spans:
            if parent is None:
                out[name.removeprefix("call.")] += 1
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")
