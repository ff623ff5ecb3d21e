"""Layer-boundary tracing, installed from outside the package.

`Tracer.install()` replaces public functions of the rclkit modules with
wrappers and `uninstall()` puts the originals back.  A module that imports a
function by name holds its own binding (`rclkit.triangulated.compose` is not
the attribute `rclkit.category.compose`), so every binding of a target in
every rclkit module is replaced.  Imports made inside functions read the
defining module's attribute when they run, which is patched too.

Spanned functions record (name, start, end, parent span, job) in flat arrays
kept in memory; the hottest leaves (`Morphism.__init__`, the field methods)
and a few helpers are only counted.  Per-layer figures are computed from the
spans after the run.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import time
from array import array

import rclkit.adjunction as adjunction
import rclkit.category as category
import rclkit.cli as cli
import rclkit.field as field
import rclkit.functor as functor
import rclkit.linalg as linalg
import rclkit.mutation as mutation
import rclkit.quotient as quotient
import rclkit.recollement as recollement
import rclkit.report as report
import rclkit.triangulated as triangulated
import rclkit.workspace as workspace

TP = triangulated.TriangulatedPresentation

# (span name, owner, attribute, record hits): a hit is a call that returned
# something other than None.
SPANNED = (
    ("triangulated.membership", TP, "membership", True),
    ("triangulated.complete_monic", TP, "complete_monic", True),
    ("adjunction.morphism_inverse", adjunction, "morphism_inverse", True),
    ("category.postcompose_mat", category, "postcompose_mat", False),
    ("category.precompose_mat", category, "precompose_mat", False),
    ("category.compose", category, "compose", False),
    ("category.ideal_subspace", category, "ideal_subspace", False),
    ("linalg.rref", linalg, "rref", False),
    ("quotient.build_quotient", quotient, "build_quotient", False),
    ("functor.apply", functor.LinearFunctor, "apply", False),
    ("recollement.check_recollement", recollement, "check_recollement", False),
    ("recollement.quotient_recollement", recollement, "quotient_recollement", False),
    ("recollement.restrict_to_subcategory", recollement, "restrict_to_subcategory", False),
    ("recollement.lift_subcategory_pair", recollement, "lift_subcategory_pair", False),
    ("recollement.quotient_by_left_subcategory", recollement,
     "quotient_by_left_subcategory", False),
    ("mutation.standard_triangle", mutation, "standard_triangle", False),
    ("mutation.verify_quotient_triangulation", mutation,
     "verify_quotient_triangulation", False),
    ("mutation.check_mutation_pair", mutation, "check_mutation_pair", False),
    ("mutation.triangulated_quotient_recollement", mutation,
     "triangulated_quotient_recollement", False),
    ("workspace.parse", workspace, "parse", False),
    ("report.render", report.Certificate, "render", False),
    ("cli.run_command", cli, "run_command", False),
)

# (counter name, owner, attribute, record hits): counted, no span.
COUNTED = (
    ("category.morphism_new", category.Morphism, "__init__", False),
    ("linalg.solve", linalg, "solve", False),
    ("linalg.nullspace", linalg, "nullspace", False),
    ("triangulated.search", triangulated, "_invertible_candidate", True),
) + tuple(("field.ops", cls, op, False)
          for cls in (field.RationalField, field.PrimeField)
          for op in ("add", "sub", "mul", "neg", "inv"))

RECOLLEMENT_PIPELINE = tuple(name for name, owner, _, _ in SPANNED
                             if owner is recollement)
SEARCH_ENTRIES = ("triangulated.membership", "triangulated.complete_monic")

# Every per-layer metric, as (name, unit).
PER_LAYER = (
    ("triangulated.membership.calls", "count"),
    ("triangulated.membership.self_s", "s"),
    ("triangulated.membership.hit_ratio", "ratio"),
    ("triangulated.complete_monic.calls", "count"),
    ("triangulated.complete_monic.self_s", "s"),
    ("triangulated.complete_monic.hit_ratio", "ratio"),
    ("triangulated.search.calls", "count"),
    ("triangulated.search.inverse_attempts", "count"),
    ("triangulated.search.yield", "ratio"),
    ("adjunction.morphism_inverse.calls", "count"),
    ("adjunction.morphism_inverse.self_s", "s"),
    ("adjunction.morphism_inverse.hit_ratio", "ratio"),
    ("category.hom_action.calls", "count"),
    ("category.hom_action.self_s", "s"),
    ("category.compose.calls", "count"),
    ("category.compose.self_s", "s"),
    ("category.morphism_new.calls", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.nullspace.calls", "count"),
    ("field.ops", "count"),
    ("category.ideal_subspace.calls", "count"),
    ("category.ideal_subspace.self_s", "s"),
    ("quotient.build_quotient.calls", "count"),
    ("quotient.build_quotient.self_s", "s"),
    ("functor.apply.calls", "count"),
    ("functor.apply.self_s", "s"),
    ("recollement.pipeline.self_s", "s"),
    ("mutation.standard_triangle.calls", "count"),
    ("mutation.standard_triangle.self_s", "s"),
    ("mutation.verify_quotient_triangulation.self_s", "s"),
    ("mutation.check_mutation_pair.self_s", "s"),
    ("mutation.triangulated_quotient_recollement.self_s", "s"),
    ("workspace.parse.calls", "count"),
    ("workspace.parse.self_s", "s"),
    ("workspace.parse.bytes", "bytes"),
    ("report.render.calls", "count"),
    ("report.render.self_s", "s"),
    ("cli.run_command.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _rclkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rclkit" or name.startswith("rclkit."))]


class Tracer:
    """Spans and counters of one traced run; install, run, uninstall."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.jobs = []
        self._job = [-1]
        self._stack = [-1]
        self.counters = {}
        self.hits = {}
        self.parse_bytes = 0
        self._undo = []

    # -- recording -------------------------------------------------------

    def begin_job(self, label):
        self.jobs.append(label)
        self._job[0] = len(self.jobs) - 1

    def _span_wrapper(self, name, fn, record_hits):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        hits = self.hits.setdefault(name, itertools.count())
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs, job, stack = self.span_parent, self.span_job, self._job, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(job[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if record_hits and result is not None:
                next(hits)
            return result
        return wrapper

    def _count_wrapper(self, name, fn, record_hits):
        calls = self.counters.setdefault(name, itertools.count())
        hits = self.hits.setdefault(name, itertools.count())
        if not record_hits:
            # The field methods run millions of times a pass: no result test.
            def wrapper(*args, **kwargs):
                next(calls)
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                next(calls)
                result = fn(*args, **kwargs)
                if result is not None:
                    next(hits)
                return result
        return wrapper

    def _parse_wrapper(self, fn):
        def wrapper(text, *args, **kwargs):
            self.parse_bytes += len(text.encode("utf-8"))
            return fn(text, *args, **kwargs)
        return wrapper

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every binding of every target."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _rclkit_modules()
        try:
            for table, make in ((SPANNED, self._span_wrapper),
                                (COUNTED, self._count_wrapper)):
                for name, owner, attr, record_hits in table:
                    original = owner.__dict__[attr]
                    wrapped = make(name, original, record_hits)
                    if name == "workspace.parse":
                        wrapped = self._parse_wrapper(wrapped)
                    if isinstance(owner, type):
                        self._patch(owner, attr, original, wrapped)
                        continue
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, original, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def count(self, name):
        """Calls recorded for a counter or a span name."""
        if name in self.counters:
            return _peek(self.counters[name])
        nid = self._ids.get(name)
        return 0 if nid is None else self.span_name.count(nid)

    def layer_stats(self):
        """{span name: [calls, self seconds]} and the search attempt count.

        Self time is a span's duration minus the durations of its child
        spans; spans are properly nested because the run has one thread.
        """
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents, names = (self.span_start, self.span_end,
                                        self.span_parent, self.span_name)
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        stats = {name: [0, 0.0] for name in self.names}
        search_ids = {self._ids[s] for s in SEARCH_ENTRIES if s in self._ids}
        inverse_id = self._ids.get("adjunction.morphism_inverse")
        attempts = 0
        for i in range(n):
            s = stats[self.names[names[i]]]
            s[0] += 1
            s[1] += ends[i] - starts[i] - child[i]
            if names[i] == inverse_id and parents[i] >= 0 and names[parents[i]] in search_ids:
                attempts += 1
        return stats, attempts

    def metrics(self, overhead_s):
        """Every PER_LAYER metric, by name."""
        stats, attempts = self.layer_stats()

        def calls(name):
            return stats.get(name, (0, 0.0))[0]

        def self_s(name):
            return stats.get(name, (0, 0.0))[1]

        def hit_ratio(name):
            c = calls(name)
            return _peek(self.hits[name]) / c if c else 0.0

        out = {}
        for layer in ("triangulated.membership", "triangulated.complete_monic",
                      "adjunction.morphism_inverse"):
            out[layer + ".calls"] = calls(layer)
            out[layer + ".self_s"] = self_s(layer)
            out[layer + ".hit_ratio"] = hit_ratio(layer)
        searches_ok = _peek(self.hits["triangulated.search"])
        out["triangulated.search.calls"] = self.count("triangulated.search")
        out["triangulated.search.inverse_attempts"] = attempts
        out["triangulated.search.yield"] = searches_ok / attempts if attempts else 0.0
        hom_action = ("category.postcompose_mat", "category.precompose_mat")
        out["category.hom_action.calls"] = sum(calls(n) for n in hom_action)
        out["category.hom_action.self_s"] = sum(self_s(n) for n in hom_action)
        for layer in ("category.compose", "linalg.rref",
                      "category.ideal_subspace", "quotient.build_quotient",
                      "functor.apply", "mutation.standard_triangle",
                      "workspace.parse", "report.render"):
            out[layer + ".calls"] = calls(layer)
            out[layer + ".self_s"] = self_s(layer)
        for name in ("category.morphism_new", "linalg.solve", "linalg.nullspace"):
            out[name + ".calls"] = self.count(name)
        out["field.ops"] = self.count("field.ops")
        out["recollement.pipeline.self_s"] = sum(self_s(n) for n in RECOLLEMENT_PIPELINE)
        for layer in ("mutation.verify_quotient_triangulation",
                      "mutation.check_mutation_pair",
                      "mutation.triangulated_quotient_recollement",
                      "cli.run_command"):
            out[layer + ".self_s"] = self_s(layer)
        out["workspace.parse.bytes"] = self.parse_bytes
        out["trace.overhead_s"] = overhead_s
        return {name: out[name] for name, _ in PER_LAYER}

    def write_spans(self, path):
        """Write the spans as gzip'd CSV after a JSON header line."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "jobs": self.jobs,
                                 "columns": ["span", "name", "start_s", "end_s",
                                             "parent", "job"]}) + "\n")
            for i in range(len(self.span_start)):
                fh.write("%d,%d,%.9f,%.9f,%d,%d\n" % (
                    i, self.span_name[i], self.span_start[i] - t0,
                    self.span_end[i] - t0, self.span_parent[i], self.span_job[i]))


def _peek(counter):
    """Current value of an itertools.count without advancing it (its repr
    is "count(<n>)"); a C-level count keeps the per-call cost low."""
    return int(repr(counter)[6:-1])
