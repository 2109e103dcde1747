"""Span tracing of medianlab's layers from outside the package.

`Tracer.install` replaces chosen public functions and methods with wrappers
that record one span per call: name, start, end, parent span and job.  A
function is replaced at every module that holds it, because callers import
names directly (`pairing.stable_sets`, `cli.classify_graph`, ...), so
patching only the defining module would miss most calls.  Generators get
one span per resumption, so their self time excludes the consumer's work.

Spans stay in memory (flat arrays) and are written out by `dump` at the
end.  A span's self time is its duration minus the durations of its direct
children; it is accumulated as spans close.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name); "Class.method" attributes patch the class.
SPANS = (
    ("graph", "Graph.__init__", "graph.build"),
    ("graph", "Graph.interval", "graph.interval"),
    ("graph", "Graph.ball", "graph.ball"),
    ("graph", "Graph.gate", "graph.gate"),
    ("classify", "classify", "classify.classify"),
    ("classify", "check_conditions_tc_qc", "classify.tc_qc"),
    ("classify", "is_modular", "classify.modular"),
    ("classify", "is_median_graph", "classify.median"),
    ("classify", "is_helly", "classify.helly"),
    ("classify", "bipartite_helly_via_half_balls", "classify.half_ball_helly"),
    ("classify", "bipartite_helly_via_interval_condition", "classify.interval_condition"),
    ("classify", "is_meshed", "classify.meshed"),
    ("classify", "hypergraph_helly_by_triples", "classify.helly_triples"),
    ("combinatorics", "maximal_stable_sets", "combinatorics.maximal_stable_sets"),
    ("pairing", "perfect_b_matching", "pairing.perfect_b_matching"),
    ("pairing", "auxiliary_graph", "pairing.auxiliary_graph"),
    ("pairing", "ma_violation_search", "pairing.ma_violation_search"),
    ("pairing", "matching_stable_set_check", "pairing.msp_check"),
    ("profiles", "f_vector", "profiles.f_vector"),
    ("profiles", "median_set", "profiles.median_set"),
    ("profiles", "check_unimodal_equals_connected", "profiles.unimodal_check"),
    ("consensus", "check_axiom", "consensus.check_axiom"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("formats", "graph_from_text", "formats.graph_from_text"),
    ("formats", "cells_from_text", "formats.cells_from_text"),
    ("benzenoid", "build_benzenoid", "benzenoid.build"),
    ("benzenoid", "tree_embedding", "benzenoid.tree_embedding"),
    ("benzenoid", "verify_benzenoid_properties", "benzenoid.verify"),
    ("hypergraphs", "build_counterexample", "hypergraphs.build_counterexample"),
)
GENERATORS = (
    ("combinatorics", "stable_sets", "combinatorics.stable_sets"),
    ("profiles", "canonical_profiles", "profiles.canonical_profiles"),
)
# Per-job counts kept for these counters, so single jobs can be reported.
PER_JOB = ("rational_lp.solve.calls", "rational_lp.pivots")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span index, child time]
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.job_counts = defaultdict(lambda: defaultdict(int))
        self.job = -1
        self._patched: list[tuple[object, str, object]] = []
        self._lp: list[list[bool]] = []  # per open solve: [first run pending, has artificials]
        self._phase1 = False

    # -- spans ------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> None:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0)
        self._stack.append([idx, 0])
        self.span_start.append(perf_counter_ns())

    def close(self) -> None:
        end = perf_counter_ns()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] += k
        if key in PER_JOB:
            self.job_counts[self.job][key] += k

    # -- wrappers ---------------------------------------------------------------

    def _function(self, fn, nid):
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        return traced

    def _generator(self, fn, nid, yielded):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close()
                tracer.counts[yielded] += 1
                yield item

        return traced

    def _solve(self, fn, nid, le, ge):
        """solve_lp: a span, the infeasible count, and the phase-1 marker
        that the next _Tableau.run reads."""
        tracer = self

        def traced(num_vars, constraints, objective=None):
            # normalisation flips a negative right-hand side, so an
            # artificial column exists for == rows, >= rows with rhs >= 0
            # and <= rows with rhs < 0
            has_art = any(
                c.sense != (le if c.rhs >= 0 else ge) for c in constraints
            )
            tracer._lp.append([True, has_art])
            tracer.count("rational_lp.solve.calls")
            tracer.open(nid)
            try:
                result = fn(num_vars, constraints, objective)
            finally:
                tracer.close()
                tracer._lp.pop()
            if result.status == "infeasible":
                tracer.count("rational_lp.infeasible")
            return result

        return traced

    def _run(self, fn):
        tracer = self

        def traced(tab, allowed):
            state = tracer._lp[-1] if tracer._lp else [False, False]
            phase1 = state[0] and state[1]
            state[0] = False
            tracer._phase1 = phase1
            try:
                return fn(tab, allowed)
            finally:
                tracer._phase1 = False

        return traced

    def _pivot(self, fn):
        tracer = self

        def traced(tab, r, j):
            tracer.count("rational_lp.pivots")
            if tracer._phase1:
                tracer.counts["rational_lp.phase1_pivots"] += 1
            return fn(tab, r, j)

        return traced

    def _fractional(self, fn, nid):
        tracer = self
        inner = self._function(fn, nid)

        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            if not result.feasible:
                tracer.counts["pairing.fractional.fallbacks"] += 1
            return result

        return traced

    def _tabulate(self, fn, nid):
        tracer = self
        inner = self._function(fn, nid)

        def traced(*args, **kwargs):
            table = inner(*args, **kwargs)
            tracer.counts["consensus.tabulate.entries"] += len(table.table)
            return table

        return traced

    # -- installation -----------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        """Rebind `owner.attr` and every module-level alias of the same
        object inside the package."""
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)
        for name, mod in list(sys.modules.items()):
            if name != "medianlab" and not name.startswith("medianlab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig and not (mod is owner and key == attr):
                    self._patched.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def install(self, ml) -> None:
        for module, attr, span in SPANS:
            owner = getattr(ml, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            self._replace(owner, attr, self._function(getattr(owner, attr), self.name_id(span)))
        for module, attr, span in GENERATORS:
            owner = getattr(ml, module)
            wrapper = self._generator(getattr(owner, attr), self.name_id(span), span + ".yielded")
            self._replace(owner, attr, wrapper)
        lp = ml.rational_lp
        solve = self._solve(lp.solve_lp, self.name_id("rational_lp.solve"), lp.LE, lp.GE)
        self._replace(lp, "solve_lp", solve)
        self._replace(lp._Tableau, "run", self._run(lp._Tableau.run))
        self._replace(lp._Tableau, "pivot", self._pivot(lp._Tableau.pivot))
        pr = ml.pairing
        self._replace(
            pr,
            "has_fractional_perfect_b_matching",
            self._fractional(pr.has_fractional_perfect_b_matching, self.name_id("pairing.fractional")),
        )
        cs = ml.consensus
        self._replace(
            cs,
            "tabulate_function",
            self._tabulate(cs.tabulate_function, self.name_id("consensus.tabulate")),
        )

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def span_calls(self, name: str) -> int:
        return self.calls.get(self._ids.get(name, -1), 0)

    def span_self_s(self, name: str) -> float:
        return self.self_ns.get(self._ids.get(name, -1), 0) / 1e9

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def dump(self, path, job_keys) -> None:
        """Write every span as a tab-separated line (gzip): job key, span
        index, parent index, name, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("job\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                job = self.span_job[i]
                out.write(
                    f"{job_keys[job] if job >= 0 else 'setup'}\t{i}\t{self.span_parent[i]}\t"
                    f"{names[self.span_name[i]]}\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )
