"""Per-layer trace of one fqforms sweep, installed from outside the package.

`Tracer.install()` replaces the layer functions listed in TARGETS with
wrappers.  A module-level function is replaced at every place that holds
it: its own module and each fqforms module that imported it by name.  A
method is replaced on its class.  Nothing under `src/` is edited.

Two kinds of wrapper:

- a *span* records (name, parent span, start, end) and adds to the
  layer's self time, which is the span's duration minus the time covered
  by the wrapped spans it called;
- a *count* only counts calls.  It is used for the hot arithmetic
  (`Poly.__divmod__`, `is_irreducible`, `cantor_add`), where a span per
  call would cost more than the work it measures.

Some wrappers also add work counters (forms found, pairs tried, group
elements, grid vectors, distinct keys).  Counters marked *computed* in
the README are derived from argument and result sizes, not measured.

Spans stay in memory; `write_spans` writes them out after the sweep.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "verify"


def _enumerate_forms_work(tracer, args, result):
    field, disc = args[0], args[1]
    q = field.q
    tracer.add("classify.enumerate_forms.forms", len(result))
    # enumerate_forms tries every (a, b): a of degree d with nonzero lead,
    # b of degree < d, for d = 0 .. deg D // 2
    tried = sum((q - 1) * q ** (2 * d) for d in range(disc.degree // 2 + 1))
    tracer.add("classify.enumerate_forms.pairs_tried", tried)


def _pic_group_work(tracer, args, result):
    d0 = args[0]
    q = d0.field.q
    genus = (d0.degree - 1) // 2
    tracer.add("picard.pic_group.elements", result.order)
    # the identity plus every (u, v) with u monic of degree 1..g, deg v < deg u
    tried = 1 + sum(q ** (2 * d) for d in range(1, genus + 1))
    tracer.add("picard.pic_group.candidates", tried)


def _repset_work(tracer, args, result):
    tracer.add("repset.keys", len(result.keys))


def _grid_work(tracer, args, result):
    grid = args[0]
    vectors = 1
    for bound in grid.bounds:
        vectors *= grid.q ** (bound + 1)
    tracer.add("repset.grid_vectors", vectors)
    # the grid's value coefficients plus one int64 key per vector
    tracer.peak("repset.grid_bytes", grid.base.nbytes + 8 * vectors)


# (module, attribute, metric prefix, timed, work hook)
TARGETS = (
    ("fqforms.ffpoly", "Poly.__divmod__", "ffpoly.divmod", False, None),
    ("fqforms.ffpoly", "is_irreducible", "ffpoly.is_irreducible", False, None),
    ("fqforms.ffpoly", "factor", "ffpoly.factor", True, None),
    ("fqforms.classify", "enumerate_forms", "classify.enumerate_forms", True,
     _enumerate_forms_work),
    ("fqforms.classify", "class_table", "classify.class_table", True, None),
    ("fqforms.localgenus", "genus_symbol", "localgenus.genus_symbol", True, None),
    ("fqforms.localgenus", "LocalRepDecider.__call__", "localgenus.local_rep",
     True, None),
    ("fqforms.localgenus", "represented_at_infinity",
     "localgenus.represented_at_infinity", True, None),
    ("fqforms.picard", "pic_group", "picard.pic_group", True, _pic_group_work),
    ("fqforms.picard", "cantor_add", "picard.cantor_add", False, None),
    ("fqforms.picard", "comp_sequence_check", "picard.comp_sequence_check", True,
     None),
    ("fqforms.repset", "repset_upto", "repset.repset_upto", True, _repset_work),
    ("fqforms.repset", "_Grid.__init__", "repset.grid", False, _grid_work),
    ("fqforms.verify", "sweep_data", "verify.sweep_data", True, None),
)

# counters that must repeat exactly between two traced sweeps
COUNT_KEYS = (
    "ffpoly.divmod.calls",
    "ffpoly.is_irreducible.calls",
    "ffpoly.factor.calls",
    "classify.enumerate_forms.calls",
    "classify.enumerate_forms.forms",
    "classify.enumerate_forms.pairs_tried",
    "classify.class_table.calls",
    "classify.class_table.computed",
    "localgenus.genus_symbol.calls",
    "localgenus.local_rep.calls",
    "localgenus.represented_at_infinity.calls",
    "picard.pic_group.calls",
    "picard.pic_group.elements",
    "picard.pic_group.candidates",
    "picard.cantor_add.calls",
    "picard.comp_sequence_check.calls",
    "repset.repset_upto.calls",
    "repset.grid.calls",
    "repset.grid_vectors",
    "repset.keys",
    "repset.grid_bytes",
    "verify.sweep_data.calls",
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end)
        self.self_s = {}
        self.counters = {}
        self.sites = {}  # metric prefix -> number of places patched
        self._stack = []  # [span index, time covered by child spans]
        self._class_tables = None

    def add(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key, n):
        self.counters[key] = max(self.counters.get(key, 0), n)

    def span(self, name, fn, work=None):
        spans, stack, self_s = self.spans, self._stack, self.self_s
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                self_s[name] = self_s.get(name, 0.0) + took - frame[1]
                if stack:
                    stack[-1][1] += took
                spans[index] = (name, parent, start, end)
                self.add(calls)
            if work is not None:
                work(self, args, result)
            return result

        return wrapper

    def count(self, name, fn, work=None):
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(calls)
            result = fn(*args, **kwargs)
            if work is not None:
                work(self, args, result)
            return result

        return wrapper

    def install(self):
        """Patch every target at each place that holds it."""
        for module_name, attribute, name, timed, work in TARGETS:
            module = importlib.import_module(module_name)
            make = self.span if timed else self.count
            owner_name, _, leaf = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, leaf, make(name, owner.__dict__[leaf], work))
                self.sites[name] = 1
                continue
            original = getattr(module, leaf)
            wrapper = make(name, original, work)
            sites = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "fqforms" and not mod_name.startswith("fqforms."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        sites += 1
            self.sites[name] = sites
        classify = importlib.import_module("fqforms.classify")
        self._class_tables = classify._class_table_cached.cache_info

    def run(self, fn, *args):
        """Call fn(*args) as the root span of the trace."""
        start_misses = self._class_tables().misses
        try:
            return self.span(ROOT_SPAN, fn)(*args)
        finally:
            self.add(
                "classify.class_table.computed",
                self._class_tables().misses - start_misses,
            )

    def root_duration(self):
        roots = [s for s in self.spans if s is not None and s[1] == -1]
        return sum(end - start for _, _, start, end in roots)

    def metrics(self):
        """Counters and self times of the finished sweep, by metric name."""
        out = self.counts()
        for name in {t[2] for t in TARGETS if t[3]} | {ROOT_SPAN}:
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
        c = self.counters.get
        out["classify.enumerate_forms.yield"] = _ratio(
            c("classify.enumerate_forms.forms", 0),
            c("classify.enumerate_forms.pairs_tried", 0),
        )
        out["picard.pic_group.yield"] = _ratio(
            c("picard.pic_group.elements", 0), c("picard.pic_group.candidates", 0)
        )
        out["repset.dedupe_ratio"] = _ratio(
            c("repset.keys", 0), c("repset.grid_vectors", 0)
        )
        out["verify.traced_sweep_s"] = self.root_duration()
        out["verify.layer_self_sum_s"] = sum(self.self_s.values())
        return out

    def counts(self):
        """The counters that must repeat exactly on a second traced sweep."""
        return {key: self.counters.get(key, 0) for key in COUNT_KEYS}

    def write_spans(self, path):
        """Write the spans as JSON; the file name identifies the sweep."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "sweep": Path(path).stem,
            "names": names,
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": [[index[n], p, s, e] for n, p, s, e in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
