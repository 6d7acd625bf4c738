#!/usr/bin/env python3
"""Benchmark of the ``multirees`` command line: time to a checked verdict.

Run from the root of a source checkout (the program is imported from
``src/``)::

    python3 perfbench/run.py --workload desk_verify --seed 1 --seconds 40 --trace 0

One caller on one thread drives ``multirees.cli.main`` in process with
``--format json`` in a closed loop: the next request starts when the
previous verdict has been parsed.  Requests run in passes over the
workload's seeded request list; a new pass starts only while the last
one still fits in ``--seconds`` (the first always runs).

``--trace 0`` prints the end-to-end metrics, with every time scaled to a
reference host speed by a calibration kernel timed around it (see
``end_to_end``; README.md says why).  ``--trace 1`` runs every
request untraced and then traced, back to back, and prints the
per-layer metrics of ``tracing.py`` plus the tracing overhead; spans are
written to ``.perfbench_work/`` when the run ends.  Every response is
checked after its timer stops; the last line of the output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from fractions import Fraction
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
LOOP = "closed loop, 1 caller, 1 thread"
# Best time of _calibration_work on a quiet 2-core x86-64 cloud VM.
CALIBRATION_REF_S = 0.0004


def _calibration_work():
    """Fixed interpreter work of the kind the program does: tuple keys in
    a dict, small integers, a few Fractions."""
    counts = {}
    acc = Fraction(0)
    for i in range(1500):
        key = (i % 37, i % 11, i % 5)
        counts[key] = counts.get(key, 0) + i
        if i % 50 == 0:
            acc += Fraction(i + 1, i % 7 + 1)
    return len(counts), acc


def host_slowdown():
    """How many times slower than the reference host this one runs right
    now: the best of three runs of _calibration_work over
    CALIBRATION_REF_S, with the collector off so that the program's heap
    does not count."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            _calibration_work()
            best = min(best, perf_counter() - t0)
    finally:
        gc.enable()
    return best / CALIBRATION_REF_S


def _program_modules():
    return {m: mod for m, mod in sys.modules.items() if m == "multirees" or m.startswith("multirees.")}


def import_program():
    """Import the package from ./src; returns ``multirees.cli``."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "multirees", "cli.py")):
        raise SystemExit("perfbench: no src/multirees in %s; run from the root of a checkout" % os.getcwd())
    sys.path.insert(0, src)
    return importlib.import_module("multirees.cli")


def time_setup():
    """Seconds to import ``multirees`` and ``multirees.cli`` afresh.  The
    modules in use are put back afterwards, so spans and calls keep
    going to the same objects."""
    loaded = _program_modules()
    for name in loaded:
        del sys.modules[name]
    try:
        t0 = perf_counter()
        importlib.import_module("multirees")
        importlib.import_module("multirees.cli")
        return perf_counter() - t0
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


class Session:
    """Calls into the program and the checks on what comes back."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures = []  # messages, possibly several per failed check
        self.emitted = {}  # spec file -> its restricted generators as emitted
        self.first_output = {}  # request id -> output text of its first run

    def spec_path(self, name, spec):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return path

    def call(self, argv, main=None):
        """(seconds, exit code, output text, parsed payload) of one command."""
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = (main or self.cli.main)(argv)
        text = buf.getvalue()
        payload = json.loads(text)
        return perf_counter() - t0, rc, text, payload

    def check(self, what, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += ["%s: %s" % (what, p) for p in problems]

    def guarded(self, what, fn, *args):
        """Run ``fn``; an exception counts as a failed check."""
        try:
            return fn(*args)
        except Exception:  # the run goes on; the failure is counted and shown
            self.check(what, ["raised:\n" + traceback.format_exc()])
            return None

    # --- untimed checks before the loop ---------------------------------

    def check_paper_example(self):
        path = self.spec_path("five_ideal", checks.FIVE_IDEAL_SPEC)
        _, rc, _, payload = self.call(["generators", path, "--format", "json"])
        self.check("five-ideal example", checks.check_five_ideal(payload) if rc == 0 else ["exit %d" % rc])

    def check_emission(self, req, path):
        """Restricted generators of a verify spec: each must map to zero;
        their count is what verify must report."""
        _, rc, _, payload = self.call(["generators", path, "--format", "json"])
        self.emitted[path] = payload
        self.check("%s generators" % req.rid, checks.check_generators(req.spec, payload) if rc == 0 else ["exit %d" % rc])

    # --- one timed request ---------------------------------------------

    def run(self, req, path, main=None):
        """Time one request; returns its seconds.  Checks run afterwards."""
        seconds = 0.0
        results = []
        for argv in req.argvs(path):
            dt, rc, text, payload = self.call(argv, main)
            seconds += dt
            results.append((rc, text, payload))
        self.check(req.rid, self.problems(req, path, results))
        return seconds

    def problems(self, req, path, results):
        """Full checks on a request's first output; later runs must repeat it."""
        text = "".join(t for _, t, _ in results)
        first = self.first_output.get(req.rid)
        if first is not None:
            return [] if text == first else ["output differs from its first run"]
        self.first_output[req.rid] = text
        if req.kind == workloads.VERIFY:
            rc, _, payload = results[0]
            out = checks.check_verify(payload, req.expect, self.emitted[path]["count"])
            return out + ([] if rc == 0 else ["exit %d" % rc])
        if req.kind == workloads.CONTROL:
            rc, _, payload = results[0]
            return checks.check_control(req.spec, payload) + ([] if rc == 1 else ["exit %d" % rc])
        out = []
        for rc, _, payload in results:
            out += checks.check_generators(req.spec, payload) + ([] if rc == 0 else ["exit %d" % rc])
        return out


def prepare(session, name, seed):
    """Requests in run order with their spec files; untimed checks done."""
    reqs, rng = workloads.build(name, seed)
    session.guarded("five-ideal example", session.check_paper_example)
    paths = {}
    for req in reqs:
        paths[req.rid] = session.spec_path(req.rid, req.spec)
        if req.kind == workloads.VERIFY:
            session.guarded(req.rid, session.check_emission, req, paths[req.rid])
    for base in [req for req in reqs if req.controls]:
        # one negative control per T-degree-one generator of block 1
        for g in session.emitted.get(paths[base.rid], {}).get("generators", ()):
            if g["blocks"] == [1] and checks.t_degree(checks.json_terms(g["terms"])) == 1:
                req = workloads.Request("%s-drop%d" % (base.rid, g["index"]), workloads.CONTROL, base.spec, drop=g["index"])
                paths[req.rid] = paths[base.rid]
                reqs.append(req)
    rng.shuffle(reqs)
    return reqs, paths


def run_passes(seconds, one_pass):
    """Run ``one_pass`` at least once, then again while it fits; returns
    the wall time of each pass."""
    t0 = perf_counter()
    walls = []
    while True:
        start = perf_counter()
        one_pass(len(walls))
        walls.append(perf_counter() - start)
        if perf_counter() - t0 + walls[-1] > seconds:
            return walls


def latency(times):
    """p50, p90 and requests per second, each request counting with the
    median of its passes."""
    per_request = [statistics.median(ts) for ts in times.values() if ts]
    p90 = statistics.quantiles(per_request, n=10, method="inclusive")[8] if len(per_request) > 1 else per_request[0]
    return statistics.median(per_request), p90, len(per_request) / sum(per_request)


def scaled_run(session, req, path):
    """Wall seconds of one request, and the same at the reference host
    speed, by the calibration run just before and just after it."""
    before = host_slowdown()
    dt = session.run(req, path)
    return dt, dt / ((before + host_slowdown()) / 2)


def end_to_end(session, reqs, paths, seconds):
    """The shared host runs stretches of seconds to many minutes 1.3 to 1.8
    times slower while other tenants are busy, so every time is scaled to
    the reference host speed and each request counts with the median of
    its passes.  Set-up is timed SETUP_REPEATS times before every pass and
    after the last."""
    wall = {req.rid: [] for req in reqs}
    ref = {req.rid: [] for req in reqs}
    setup_times = []

    def time_setups():
        for _ in range(SETUP_REPEATS):
            slowdown = host_slowdown()
            setup_times.append(time_setup() / slowdown)

    def one_pass(_):
        time_setups()
        for req in reqs:
            res = session.guarded(req.rid, scaled_run, session, req, paths[req.rid])
            if res is not None:
                wall[req.rid].append(res[0])
                ref[req.rid].append(res[1])

    walls = run_passes(seconds, one_pass)
    time_setups()
    p50, p90, per_s = latency(ref)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "spec_s_p50": p50,
        "spec_s_p90": p90,
        "specs_per_s": per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = "%d requests, median of %d passes (%s s); %d set-ups; unscaled p50 %.4g s, p90 %.4g s, %.4g 1/s" % (
        (len(reqs), len(walls), " ".join("%.2f" % w for w in walls), len(setup_times)) + latency(wall))
    return metrics, notes


def traced(session, reqs, paths, seconds, out_path):
    """Each request untraced, then traced; per-layer metrics of the traced
    runs, counts of the first pass only so that they repeat exactly."""
    tracer = tracing.Tracer()
    root = tracer.wrap(tracing.ROOT, session.cli.main)
    plain_s, traced_s = [0.0], [0.0]
    first_counts = Counter()

    def one_pass(index):
        for req in reqs:
            dt = session.guarded(req.rid, session.run, req, paths[req.rid])
            tracer.request = req.rid
            with tracing.installed(tracer):
                dt_traced = session.guarded(req.rid, session.run, req, paths[req.rid], root)
            if dt is not None and dt_traced is not None:
                plain_s[0] += dt
                traced_s[0] += dt_traced
        if index == 0:
            first_counts.update(tracer.counts)

    passes = len(run_passes(seconds, one_pass))
    metrics = tracing.layer_metrics(tracer, first_counts, passes, len(reqs))
    metrics["trace.overhead_frac"] = traced_s[0] / plain_s[0] - 1.0 if plain_s[0] else 0.0
    tracer.write(out_path)
    notes = "%d traced passes of %d requests; counts from the first pass; spans in %s" % (passes, len(reqs), out_path)
    return metrics, notes


def measure(workload, seed, seconds, trace):
    """(session, metrics by name, notes) of one run in the current directory."""
    cli = import_program()
    workdir = os.path.join(WORK_DIR, "%s-seed%d" % (workload, seed))
    os.makedirs(workdir, exist_ok=True)
    session = Session(cli, workdir)
    reqs, paths = prepare(session, workload, seed)
    if trace:
        metrics, notes = traced(session, reqs, paths, seconds, os.path.join(workdir, "spans.json"))
    else:
        metrics, notes = end_to_end(session, reqs, paths, seconds)
    return session, metrics, notes


def load_benchmark():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wanted = load_benchmark()["per_layer" if args.trace else "end_to_end"]

    session, measured, notes = measure(args.workload, args.seed, args.seconds, args.trace)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = session.failed
    for line in session.failures:
        print("FAILED %s" % line, file=sys.stderr)
    print("workload %s, seed %d, %s; %s" % (args.workload, args.seed, LOOP, notes))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-40s %14.6g fraction (%d of %d checks)" % (
        "failed_frac", failed / session.attempted, failed, session.attempted))
    print(json.dumps({"correct": failed == 0, "attempted": session.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
