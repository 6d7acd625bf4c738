"""Spans around the calls between the program's layers, recorded from
outside the program.

``installed`` swaps timing wrappers in for the public functions that the
modules call through their module globals, and puts the originals back
afterwards.  A span is named after the module that defines the function
(``quasimat.binary_subquasi_enumerate`` even when ``rees`` makes the
call).  Counts come from the values the wrapped functions return, so for
a fixed input they repeat exactly.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# module -> the functions it calls through its own globals
TARGETS = {
    "multirees.cli": ("build_presentation", "defining_generators", "buchberger_check", "oracle_check", "normality_report"),
    "multirees.rees": ("binary_subquasi_enumerate", "quasi_determinants", "defining_generators"),
    "multirees.grobner": ("s_poly", "top_reduce"),
    "multirees.oracle": ("span_compare", "kernel_piece", "source_monomials"),
}
ROOT = "cli.main"
LAYERS = ("cli", "rees", "quasimat", "grobner", "oracle")


def _count_generators(counts, gens):
    counts["rees.defining_generators.calls"] += 1
    counts["rees.generators_emitted"] += len(gens)
    counts["quasimat.kept"] += sum(1 for g in gens if g.kind in ("binary", "multiblock-cycle"))


def _count_unions(counts, unions):
    counts["quasimat.cycle_unions"] += len(unions)


def _count_determinants(counts, binomials):
    counts["quasimat.quasi_determinants"] += len(binomials)


def _count_buchberger(counts, report):
    reduced = [pr for pr in report.pairs if not pr.spair_zero]
    counts["grobner.pairs"] += len(report.pairs)
    counts["grobner.pairs_reduced"] += len(reduced)
    counts["grobner.reduction_steps"] += sum(pr.cert.steps for pr in reduced)
    counts["grobner.stuck"] += len(report.failures)


def _count_oracle(counts, report):
    counts["oracle.pieces"] += len(report.reports)
    counts["oracle.piece_monomials"] += sum(r.piece_size for r in report.reports)
    counts["oracle.multiples"] += sum(r.multiples for r in report.reports)
    counts["oracle.span_rank"] += sum(r.span_dim for r in report.reports)


COUNTERS = {
    "rees.defining_generators": _count_generators,
    "quasimat.binary_subquasi_enumerate": _count_unions,
    "quasimat.quasi_determinants": _count_determinants,
    "grobner.buchberger_check": _count_buchberger,
    "oracle.oracle_check": _count_oracle,
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def self_times(self):
        """Per span name: total self time (duration minus child spans)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start - child)
        return out

    def root_time(self):
        return sum(end - start for name, start, end, _, _ in self.spans if name == ROOT)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request"],
                    "names": names,
                    "spans": [[index[n], s, e, p, r] for n, s, e, p, r in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def span_name(fn):
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)


@contextmanager
def installed(tracer):
    """Install the wrappers of ``tracer`` for the duration of the block."""
    saved = []
    try:
        for modname, attrs in TARGETS.items():
            mod = importlib.import_module(modname)
            for attr in attrs:
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, tracer.wrap(span_name(fn), fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def layer_metrics(tracer, counts, passes, samples):
    """Per-layer metrics from a traced run of ``passes`` passes (times are
    per pass) and the counts of its first pass of ``samples`` samples."""
    selfs = tracer.self_times()
    total = tracer.root_time()

    def per_pass(name):
        return selfs.get(name, 0.0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.self_s": per_pass(ROOT),
        "rees.build_presentation_s": per_pass("rees.build_presentation"),
        "rees.defining_generators.self_s": per_pass("rees.defining_generators"),
        "rees.defining_generators.calls": ratio(counts["rees.defining_generators.calls"], samples),
        "rees.generators_emitted": counts["rees.generators_emitted"],
        "rees.normality_report.self_s": per_pass("rees.normality_report"),
        "quasimat.binary_subquasi_enumerate_s": per_pass("quasimat.binary_subquasi_enumerate"),
        "quasimat.cycle_unions": counts["quasimat.cycle_unions"],
        "quasimat.quasi_determinants_s": per_pass("quasimat.quasi_determinants"),
        "quasimat.kept_ratio": ratio(counts["quasimat.kept"], counts["quasimat.quasi_determinants"]),
        "grobner.buchberger_check.self_s": per_pass("grobner.buchberger_check"),
        "grobner.s_poly_s": per_pass("grobner.s_poly"),
        "grobner.top_reduce_s": per_pass("grobner.top_reduce"),
        "grobner.pairs": counts["grobner.pairs"],
        "grobner.pairs_reduced": counts["grobner.pairs_reduced"],
        "grobner.reduction_steps": counts["grobner.reduction_steps"],
        "grobner.steps_per_pair": ratio(counts["grobner.reduction_steps"], counts["grobner.pairs_reduced"]),
        "grobner.stuck": counts["grobner.stuck"],
        "oracle.oracle_check.self_s": per_pass("oracle.oracle_check"),
        "oracle.span_compare_s": per_pass("oracle.span_compare"),
        "oracle.kernel_piece_s": per_pass("oracle.kernel_piece"),
        "oracle.source_monomials_s": per_pass("oracle.source_monomials"),
        "oracle.pieces": counts["oracle.pieces"],
        "oracle.piece_monomials": counts["oracle.piece_monomials"],
        "oracle.multiples": counts["oracle.multiples"],
        "oracle.span_rank": counts["oracle.span_rank"],
        "oracle.useful_ratio": ratio(counts["oracle.span_rank"], counts["oracle.multiples"]),
    }
    for layer in LAYERS:
        busy = sum(t for name, t in selfs.items() if name.split(".", 1)[0] == layer)
        m["share.%s" % layer] = ratio(busy, total)
    m["trace.child_cover"] = ratio(total - selfs.get(ROOT, 0.0), total)
    m["trace.spans"] = len(tracer.spans) / passes
    return m
