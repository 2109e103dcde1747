"""medianlab benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload lp_polytope --seed 1 --seconds 30 --trace 0

Run from anywhere; the script works from the repository root (the CLI
corpus job reads repo-relative paths) and imports medianlab from ./src.
One client in one thread issues each job only after the previous one
returned.  The timed phase runs whole passes over the seed's job list, as
many as fit in --seconds but at least MIN_PASSES, so every run measures
the same mix.  Times are scaled to a reference machine speed (see
Calibration).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same timed
phase untraced, then one traced pass (set-up included) with spans around
every layer, and prints the per-layer metrics; spans are written to
.perfbench_traces/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A job fails when it raises,
breaks the CLI exit-code contract, or returns output that differs from
reference.json; `correct` is false when any output differed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MODULES = (
    "graph", "classify", "profiles", "pairing", "rational_lp", "combinatorics",
    "consensus", "benzenoid", "hypergraphs", "formats", "cli",
)
SETUP_REPEATS = 7
MIN_PASSES = 2
CAL_INTERVAL = 0.05  # seconds of jobs between calibrations
KERNEL_REF_S = 0.4e-3  # calibration kernel time at the reference speed

END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
SPAN_METRICS = (
    ("graph.build", ("calls", "self_s")),
    ("graph.interval", ("calls", "self_s")),
    ("graph.ball", ("calls", "self_s")),
    ("graph.gate", ("calls", "self_s")),
    ("classify.classify", ("calls",)),
    ("classify.tc_qc", ("self_s",)),
    ("classify.modular", ("self_s",)),
    ("classify.median", ("self_s",)),
    ("classify.helly", ("self_s",)),
    ("classify.half_ball_helly", ("self_s",)),
    ("classify.interval_condition", ("self_s",)),
    ("classify.meshed", ("self_s",)),
    ("classify.helly_triples", ("calls", "self_s")),
    ("rational_lp.solve", ("calls", "self_s")),
    ("combinatorics.stable_sets", ("yielded", "self_s")),
    ("combinatorics.maximal_stable_sets", ("calls", "self_s")),
    ("pairing.perfect_b_matching", ("calls", "self_s")),
    ("pairing.auxiliary_graph", ("calls", "self_s")),
    ("pairing.ma_violation_search", ("calls", "self_s")),
    ("pairing.msp_check", ("calls", "self_s")),
    ("pairing.fractional", ("calls", "self_s")),
    ("profiles.canonical_profiles", ("yielded", "self_s")),
    ("profiles.f_vector", ("calls", "self_s")),
    ("profiles.median_set", ("calls", "self_s")),
    ("profiles.unimodal_check", ("self_s",)),
    ("consensus.tabulate", ("entries", "self_s")),
    ("consensus.check_axiom", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
    ("cli.build_parser", ("calls", "self_s")),
    ("formats.graph_from_text", ("calls", "self_s")),
    ("formats.cells_from_text", ("calls", "self_s")),
    ("benzenoid.build", ("self_s",)),
    ("benzenoid.tree_embedding", ("self_s",)),
    ("benzenoid.verify", ("self_s",)),
    ("hypergraphs.build_counterexample", ("calls", "self_s")),
)
# Per-job LP work on the three vertex orbits of grid:3,3.
ORBIT_JOBS = tuple((u, f"ma/grid:3,3/{u}#0") for u in workloads.ORBITS["grid:3,3"])
COUNTERS = (
    ("rational_lp.pivots", "count"),
    ("rational_lp.phase1_pivots", "count"),
    ("rational_lp.phase1_share", "ratio"),
    ("rational_lp.infeasible", "count"),
    ("pairing.fractional.fallback_share", "ratio"),
) + tuple(
    (f"rational_lp.grid3x3_u{u}.{what}", "count")
    for u, _ in ORBIT_JOBS
    for what in ("solves", "pivots")
) + (
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
)
STAT_UNITS = {"calls": "count", "yielded": "count", "entries": "count", "self_s": "s"}


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        (f"{span}.{stat}", STAT_UNITS[stat])
        for span, stats in SPAN_METRICS
        for stat in stats
    ]
    return out + list(COUNTERS)


# -- program loading and set-up ----------------------------------------------------


def load_program():
    """Import (or re-import) medianlab from ./src; returns its modules."""
    for name in [m for m in sys.modules if m == "medianlab" or m.startswith("medianlab.")]:
        del sys.modules[name]
    importlib.import_module("medianlab")
    mods = {name: importlib.import_module(f"medianlab.{name}") for name in MODULES}
    return argparse.Namespace(**mods)


def timed_setup(workload, seed):
    """Seconds to get a run's jobs ready, scaled like the jobs: a fresh
    `import medianlab` (its modules are dropped from sys.modules first),
    input generation, the Graphs built up front and the files written.
    Returns the seconds and the loaded program with its jobs."""
    before = kernel_seconds()
    start = time.perf_counter()
    ml = load_program()
    jobs = workloads.build_jobs(ml, workload, seed)
    elapsed = time.perf_counter() - start
    return elapsed * KERNEL_REF_S / ((before + kernel_seconds()) / 2), ml, jobs


# -- judging -----------------------------------------------------------------------


def judge(job, raw, error, refs):
    """'ok', 'failed' (raised, or broke the exit-code contract) or 'wrong'
    (output differs from the reference or fails its certificate check)."""
    if error is not None:
        return "failed"
    if job.cli:
        code, out = raw
        lines = out.splitlines()
        try:
            one_object = len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
        except ValueError:
            one_object = False
        if code not in (0, 1, 2) or not one_object:
            return "failed"
    if job.contract_only:
        return "ok"
    if job.validate is not None and not job.validate(raw):
        return "wrong"
    if refs.get(job.key) != workloads.digest(job.canon(raw)):
        return "wrong"
    return "ok"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reported = 0

    def add(self, job, verdict, error):
        self.attempted += 1
        if verdict == "ok":
            return
        self.failed += 1
        self.wrong += verdict == "wrong"
        if self.reported < 5:
            self.reported += 1
            why = f"{type(error).__name__}: {error}" if error is not None else verdict
            print(f"job {job.key} {verdict}: {why}"[:300], file=sys.stderr)


def run_job(job):
    try:
        return job.call(), None
    except (Exception, SystemExit) as exc:  # a crash is a failed job, never the run's end
        return None, exc


def _calibration_kernel():
    """Fixed pure-Python work of the kind the jobs do (frozenset
    intersections, dict updates, small-integer arithmetic) that calls no
    medianlab code."""
    acc = 0
    sets = [frozenset(range(i, i + 12)) for i in range(30)]
    for x in sets:
        for y in sets:
            acc += len(x & y)
    table = {}
    for i in range(600):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i * i % 7
    return acc + len(table)


def kernel_seconds():
    """The calibration kernel's time now: the median of three runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibration:
    """Timings scaled to one fixed machine speed.

    On a 2-vCPU virtual machine shared with other tenants the same code
    runs up to 40% slower from one ten-second window to the next, because
    of load outside the process.  The calibration kernel is timed between jobs at
    least every CAL_INTERVAL seconds, and each timed job is scaled by
    KERNEL_REF_S over the mean kernel time of the calibrations just before
    and just after it.  Reported times are thus what the job would take on
    a machine where the kernel takes KERNEL_REF_S; the program's own code
    never runs inside the kernel.
    """

    def __init__(self):
        self.kernel = [kernel_seconds()]
        self._last = time.perf_counter()

    def tick(self) -> int:
        """Calibrate if due; returns the index of the latest calibration."""
        if time.perf_counter() - self._last >= CAL_INTERVAL:
            self.kernel.append(kernel_seconds())
            self._last = time.perf_counter()
        return len(self.kernel) - 1

    def finish(self) -> None:
        self.kernel.append(kernel_seconds())
        self._last = time.perf_counter()

    def scale(self, index: int) -> float:
        """Factor for a job timed after calibration `index`; valid once a
        later calibration exists."""
        return KERNEL_REF_S / ((self.kernel[index] + self.kernel[index + 1]) / 2)


def timed_phase(jobs, refs, seconds, tally, cal):
    """Whole passes over `jobs` while another pass of the mean length still
    fits in `seconds`, and at least MIN_PASSES.  Returns, scaled by `cal`,
    each pass's wall and CPU time (judging excluded) and each job's latency
    in every pass."""
    raw = []  # (pass, job index, wall, cpu, calibration index)
    passes = 0
    start = time.perf_counter()
    while True:
        for i, job in enumerate(jobs):
            index = cal.tick()
            c0, t0 = time.process_time(), time.perf_counter()
            result, error = run_job(job)
            t1, c1 = time.perf_counter(), time.process_time()
            raw.append((passes, i, t1 - t0, c1 - c0, index))
            tally.add(job, judge(job, result, error, refs), error)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    cal.finish()
    walls, cpus = [0.0] * passes, [0.0] * passes
    latencies = [[0.0] * passes for _ in jobs]
    for p, i, wall, cpu, index in raw:
        factor = cal.scale(index)
        walls[p] += wall * factor
        cpus[p] += cpu * factor
        latencies[i][p] = wall * factor
    return walls, cpus, latencies


def end_to_end(jobs, walls, cpus, latencies, setup_s):
    """Every figure is taken per pass and the median over passes reported,
    so a burst of contention that covers a minority of the passes moves
    none of them."""
    passes = range(len(walls))
    p50 = [statistics.median(samples[p] for samples in latencies) for p in passes]
    p90 = [statistics.quantiles([samples[p] for samples in latencies], n=10)[8] for p in passes]
    return {
        "jobs_per_s": len(jobs) / statistics.median(walls),
        "job_p50_ms": statistics.median(p50) * 1e3,
        "job_p90_ms": statistics.median(p90) * 1e3,
        "cpu_ms_per_job": statistics.median(cpus) / len(jobs) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced_pass(ml, workload, seed, refs, tally, tracer, cal):
    """Set-up plus one pass of the job list, traced.  Returns the jobs,
    their summed latency scaled by `cal` like the timed phase, and the mean
    scale factor of the pass (applied to the spans' self times)."""
    tracer.install(ml)
    try:
        tracer.open(tracer.name_id("perfbench.setup"))
        try:
            jobs = workloads.build_jobs(ml, workload, seed)
        finally:
            tracer.close()
        job_span = tracer.name_id("perfbench.job")
        timed = []
        for i, job in enumerate(jobs):
            index = cal.tick()
            tracer.job = i
            t0 = time.perf_counter()
            tracer.open(job_span)
            try:
                result, error = run_job(job)
            finally:
                tracer.close()
            timed.append((time.perf_counter() - t0, index))
            tracer.job = -1
            tally.add(job, judge(job, result, error, refs), error)
    finally:
        tracer.uninstall()
    cal.finish()
    raw = sum(wall for wall, _ in timed)
    scaled = sum(wall * cal.scale(index) for wall, index in timed)
    return jobs, scaled, scaled / raw


def layer_metrics(tracer, jobs, scale, traced_rate, untraced_rate):
    values = {}
    for span, stats in SPAN_METRICS:
        for stat in stats:
            if stat == "self_s":
                values[f"{span}.self_s"] = tracer.span_self_s(span) * scale
            elif stat == "calls":
                values[f"{span}.calls"] = tracer.span_calls(span)
            else:
                values[f"{span}.{stat}"] = tracer.counts[f"{span}.{stat}"]
    counts = tracer.counts
    pivots = counts["rational_lp.pivots"]
    values["rational_lp.pivots"] = pivots
    values["rational_lp.phase1_pivots"] = counts["rational_lp.phase1_pivots"]
    values["rational_lp.phase1_share"] = counts["rational_lp.phase1_pivots"] / pivots if pivots else 0.0
    values["rational_lp.infeasible"] = counts["rational_lp.infeasible"]
    frac_calls = tracer.span_calls("pairing.fractional")
    values["pairing.fractional.fallback_share"] = (
        counts["pairing.fractional.fallbacks"] / frac_calls if frac_calls else 0.0
    )
    index = {job.key: i for i, job in enumerate(jobs)}
    for u, key in ORBIT_JOBS:
        per_job = tracer.job_counts.get(index.get(key, -2), {})
        values[f"rational_lp.grid3x3_u{u}.solves"] = per_job.get("rational_lp.solve.calls", 0)
        values[f"rational_lp.grid3x3_u{u}.pivots"] = per_job.get("rational_lp.pivots", 0)
    values["trace.spans"] = tracer.span_count
    values["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    return values


# -- entry point -------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "medianlab" / "__init__.py").is_file():
        print(f"medianlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    refs = json.loads((HERE / "reference.json").read_text())[args.workload]
    try:
        samples = []
        for _ in range(SETUP_REPEATS):
            ml = jobs = None  # drop the previous set-up before timing the next
            seconds, ml, jobs = timed_setup(args.workload, args.seed)
            samples.append(seconds)
        setup_s = statistics.median(samples)
        tally = Tally()
        cal = Calibration()
        walls, cpus, latencies = timed_phase(jobs, refs, args.seconds, tally, cal)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            traced_jobs, busy, scale = traced_pass(ml, args.workload, args.seed, refs, tally, tracer, cal)
            untraced_rate = len(jobs) / statistics.median(walls)
            metrics = layer_metrics(tracer, traced_jobs, scale, len(traced_jobs) / busy, untraced_rate)
            units = dict(per_layer_names())
            tracer.dump(
                ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.tsv.gz",
                [job.key for job in traced_jobs],
            )
        else:
            metrics = end_to_end(jobs, walls, cpus, latencies, setup_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(ROOT / workloads.WORKDIR, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(walls)} timed passes of {len(jobs)} jobs; p50/p90 over the "
          f"{len(jobs)} job latencies of each pass, median over passes")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_share':40s} {tally.failed / tally.attempted:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} jobs failed, {tally.wrong} with wrong output)")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
