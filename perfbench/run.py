"""Benchmark for optdeg: seeded job documents through `optdeg.cli.run_job`.

    python3 perfbench/run.py --workload projective-gf --seed 1 --seconds 15 --trace 0

Run from the repository root.  One client runs the jobs serially in this
process, a closed loop with no extra threads: it repeats the workload's fixed
job list while less than `--seconds` has passed, times every job with tracing
off, and checks every report (see `workloads.check_report`).  A failed check,
an `OptdegError` or any other exception counts as a failed job, and the run
goes on.  Reported times are calibrated against a reference routine timed
between jobs and, from a timer signal on the same thread, while a job runs
(see `Calibration`); the raw wall-clock figures are printed alongside.

With `--trace 0` the last line of output holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of one traced pass over the same
jobs (see `tracing.py`).  The line before it records the environment and the
details behind the metrics.  A traced run also writes its spans to
`perfbench/out/`.  Workloads, metrics and their rationale are in
`BENCHMARK.json` and `perfbench/RATIONALE.md`.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing as layers  # noqa: E402
from workloads import FIELDS, WORKLOADS, check_report, make_jobs  # noqa: E402

SETUP_REPEATS = 5
SETUP_SAMPLES = 3
MIN_PASSES = 2
TAIL_PERCENTILES = (99.9, 99, 95, 90)
TAIL_BEYOND = 10


def load_optdeg():
    """Import optdeg from this checkout's sources, never from elsewhere."""
    if not (SRC / "optdeg" / "__init__.py").is_file():
        raise SystemExit(f"optdeg sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import optdeg.cli
    from optdeg.errors import OptdegError
    if Path(optdeg.cli.__file__).resolve().parent != SRC / "optdeg":
        raise SystemExit(f"imported optdeg from {optdeg.cli.__file__}, "
                         f"not from {SRC}")
    return optdeg.cli, OptdegError


class Runner:
    """Runs jobs through `cli.run_job` as the `optdeg` command would: parse
    the document, run it, serialize the report."""

    def __init__(self, cli, error_type):
        self.cli = cli
        self.error_type = error_type

    def run(self, job, clock=None):
        """(seconds, report, report text, error message or None).  With a
        `Calibration`, the reference is sampled while the job runs, and the
        seconds leave the samples out."""
        with clock.sampling() if clock else nullcontext():
            t0 = time.perf_counter()
            try:
                # looked up at call time, so a traced pass sees its wrapper
                report = self.cli.run_job(job.command, json.loads(job.doc))
                text = json.dumps(report, sort_keys=True)
                error = None
            except self.error_type as exc:
                report = text = None
                error = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # a crash fails this job, not the run
                traceback.print_exc(file=sys.stderr)
                report = text = None
                error = f"crash {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0 - (clock.spent if clock else 0)
        return seconds, report, text, error

    def run_checked(self, job, results, clock=None):
        """Run and check one job; records its result for twin checks."""
        dt, report, text, error = self.run(job, clock)
        if error is None:
            error = check_report(job, report, results)
            results[job] = report["result"]
        if error is not None:
            print(f"FAILED {job.name} ({job.command}): {error}",
                  file=sys.stderr)
        return dt, text, error


# -- calibration -------------------------------------------------------------

def interpreter_routine():
    """Shaped like the inner loops over GF(q) and small rationals: dict
    updates, a heap, modular and small rational arithmetic."""
    terms, heap, acc = {}, [], 1
    for i in range(3000):
        k = i * 7919 % 1009
        acc = acc * 48271 % 2147483647
        prev = terms.get(k)
        terms[k] = acc if prev is None else (prev - acc) % 2147483647
        heapq.heappush(heap, -k)
    while heap:
        heapq.heappop(heap)
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(i, i + 1)


def rational_routine():
    """Shaped like QQ coefficient arithmetic on large integers: products and
    sums of fractions of about sixty digits, kept in a dict."""
    a = Fraction(3 ** 120 + 1, 2 ** 190 + 7)
    acc = {}
    for i in range(1, 400):
        k = i * 7919 % 131
        acc[k] = acc.get(k, 0) + a * i / (i + 1)


# each routine with its best time on an unloaded core of the 2-core machine
# the benchmark was built on; calibrated times are seconds at that speed
REFERENCES = {"interpreter": (interpreter_routine, 0.0025),
              "rational": (rational_routine, 0.0024)}
WORKLOAD_REFERENCE = {"projective-gf": "interpreter",
                      "affine-sweep": "interpreter",
                      "evolute-qq": "rational"}
# how often the reference runs while a job runs
SAMPLE_INTERVAL = 0.25


class Calibration:
    """Scales wall times to the speed a reference routine has on an unloaded
    core.

    On a shared host, load from other machines slowed whole passes over
    identical jobs by up to 1.8x for minutes at a time, and changed from one
    tenth of a second to the next; the reference routine slowed with it.
    Each interval is scaled by the mean of the reference times measured at
    its two ends and, inside `sampling`, while it ran."""

    def __init__(self, reference="interpreter"):
        self.routine, self.unloaded = REFERENCES[reference]
        self.last = self.reference_seconds()
        self.inside = []
        self.spent = 0.0
        self.active = False

    def reference_seconds(self):
        """Best of two runs of the routine: the host's speed right now."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            self.routine()
            best = min(best, time.perf_counter() - t0)
        return best

    def _tick(self, signum, frame):
        if not self.active:  # fired as the body ended
            return
        t0 = time.perf_counter()
        self.inside.append(self.reference_seconds())
        self.spent += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL)

    @contextmanager
    def sampling(self):
        """Runs the reference every SAMPLE_INTERVAL while the body runs, on
        this thread, from a timer signal; `spent` is the time that took."""
        self.inside, self.spent, self.active = [], 0.0, True
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL)
        try:
            yield
        finally:
            self.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, seconds):
        now = self.reference_seconds()
        factor = self.unloaded / statistics.fmean([self.last, *self.inside, now])
        self.last, self.inside = now, []
        return seconds * factor


# -- set-up --------------------------------------------------------------------

def _import_seconds():
    code = ("import time; t = time.perf_counter(); import optdeg.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _warmup_job(workload, jobs):
    # the evolute jobs over GF(q) touch the same code in a fraction of the time
    return jobs[0].over(FIELDS[1]) if workload == "evolute-qq" else jobs[0]


def set_up(runner, workload, seed, repeats):
    """Median over `repeats` of: a fresh import of optdeg (in a child
    process), generating the job list, and one warm-up job; raw and
    calibrated seconds.

    A set-up lasts a few tenths of a second, and two reference times at its
    ends gave a noisier figure than the raw one.  The median is scaled by
    the mean of SETUP_SAMPLES reference times taken before and after each
    set-up instead."""
    clock = Calibration(WORKLOAD_REFERENCE[workload])
    raw, references = [], []
    for _ in range(repeats):
        references += [clock.reference_seconds() for _ in range(SETUP_SAMPLES)]
        total = _import_seconds()
        t0 = time.perf_counter()
        jobs = make_jobs(workload, seed)
        runner.run(_warmup_job(workload, jobs))
        raw.append(total + time.perf_counter() - t0)
    references += [clock.reference_seconds() for _ in range(SETUP_SAMPLES)]
    median = statistics.median(raw)
    return (median * clock.unloaded / statistics.fmean(references), median,
            jobs)


# -- end-to-end run --------------------------------------------------------------

def tail(samples):
    """The highest of TAIL_PERCENTILES with at least TAIL_BEYOND samples
    above it (nearest rank), else the slowest sample."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], f"p{q:g}"
    return ordered[-1], "max"


def run_passes(runner, jobs, seconds, min_passes, reference="interpreter"):
    """Whole passes over the job list until `seconds` have passed and at
    least `min_passes` are done.  Returns per-pass job times, raw and
    calibrated against `reference`, and the number of failed jobs."""
    raw, calibrated = [], []
    failed = 0
    clock = Calibration(reference)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(raw) < min_passes:
        results = {}
        raw.append([])
        calibrated.append([])
        for job in jobs:
            dt, _, error = runner.run_checked(job, results, clock)
            failed += error is not None
            raw[-1].append(dt)
            calibrated[-1].append(clock.scale(dt))
    return raw, calibrated, failed


def _timings(jobs, times, verified):
    """Throughput, median and tail from per-pass job times.  Each job's time
    is its median over the passes."""
    per_job = [statistics.median(col) for col in zip(*times)]
    tail_s, tail_label = tail(per_job)
    jobs_per_s = verified * len(jobs) / statistics.median([sum(row) for row in times])
    return jobs_per_s, statistics.median(per_job), tail_s, tail_label, per_job


def summarize(jobs, raw, calibrated, failed):
    """End-to-end metrics from calibrated job times; the raw wall-clock
    figures go into the detail."""
    attempted = len(raw) * len(jobs)
    verified = (attempted - failed) / attempted
    jobs_per_s, p50, tail_s, tail_label, per_job = _timings(
        jobs, calibrated, verified)
    raw_jobs_per_s, raw_p50, raw_tail, _, _ = _timings(jobs, raw, verified)
    slowest = max(range(len(jobs)), key=per_job.__getitem__)
    metrics = {
        "jobs_per_s": (jobs_per_s, "1/s"),
        "job_p50_s": (p50, "s"),
        "job_tail_s": (tail_s, "s"),
        "verified_ratio": (verified, "ratio"),
    }
    detail = {"passes": len(raw), "jobs_per_pass": len(jobs),
              "tail_percentile": tail_label, "tail_samples": len(per_job),
              "slowest_job": jobs[slowest].name, "slowest_s": per_job[slowest],
              "raw_jobs_per_s": raw_jobs_per_s, "raw_job_p50_s": raw_p50,
              "raw_job_tail_s": raw_tail}
    return metrics, attempted, detail


# -- traced run ------------------------------------------------------------------

def _cross_field_jobs(workload, jobs):
    """Re-runs that pair jobs of a one-field workload with twins over the
    other field, under the same names."""
    if workload == "evolute-qq":
        return [job.over(FIELDS[1]) for job in jobs]
    if workload == "projective-gf":
        return [jobs[0].over(FIELDS[0])]
    return []


def _pairs(jobs):
    """Indices (QQ, GF) of jobs that share a name across the two fields."""
    by_name = {}
    for i, job in enumerate(jobs):
        by_name.setdefault(job.name, {})[job.field()] = i
    return [(f[FIELDS[0]], f[FIELDS[1]]) for f in by_name.values()
            if FIELDS[0] in f and FIELDS[1] in f]


def run_traced(runner, workload, jobs, spans_path=None):
    """Per-layer metrics of one traced pass over the jobs.

    Runs an untraced pass (the reference for report bytes and for the
    tracing overhead), the same pass traced, traced re-runs of the first job
    of each command (same report bytes, same reduction count) and of the
    cross-field twins, and a counting pass.  Returns metrics, attempted,
    failed and detail; writes the spans to `spans_path` if given."""
    texts = []
    results = {}
    failed = 0
    t0 = time.perf_counter()
    for job in jobs:
        _, text, error = runner.run_checked(job, results)
        texts.append(text)
        failed += error is not None
    untraced_wall = time.perf_counter() - t0

    tracer = layers.Tracer()
    results = {}
    with tracer.install():
        t0 = time.perf_counter()
        for i, job in enumerate(jobs):
            tracer.job = i
            _, _, error = runner.run_checked(job, results)
            failed += error is not None
        traced_wall = time.perf_counter() - t0
        main_spans = len(tracer.spans)
        reductions = layers.job_reductions(tracer.spans)

        mismatches = []
        firsts = {}
        for i, job in enumerate(jobs):
            firsts.setdefault(job.command, i)
        for i in firsts.values():
            tracer.job = f"repeat:{i}"
            _, text, error = runner.run_checked(jobs[i], {})
            again = layers.job_reductions(tracer.spans).get(tracer.job)
            if error is None and text != texts[i]:
                error = "report bytes differ from the untraced run"
            elif error is None and again != reductions.get(i):
                error = f"reductions {reductions.get(i)}, then {again}"
            if error is not None:
                mismatches.append(f"{jobs[i].name}: {error}")

        extra = _cross_field_jobs(workload, jobs)
        for k, job in enumerate(extra):
            tracer.job = len(jobs) + k
            _, _, error = runner.run_checked(job, {})
            if error is None and workload == "evolute-qq":
                gf = layers.job_reductions(tracer.spans).get(tracer.job)
                if gf != reductions.get(k):
                    error = f"QQ reductions {reductions.get(k)}, GF {gf}"
            if error is not None:
                mismatches.append(f"{job.name} over the other field: {error}")

    for m in mismatches:
        print(f"FAILED check: {m}", file=sys.stderr)
    attempted = 2 * len(jobs) + len(firsts) + len(extra)
    failed += len(mismatches)

    with layers.counting() as counts:
        for job in jobs:
            runner.run(job)

    spans = tracer.spans
    walls = layers.job_walls(spans)
    pairs = _pairs(jobs + extra)
    values = layers.layer_metrics(spans[:main_spans])
    values.update({
        "rings.packers": counts["packers"],
        "rings.pack_calls": counts["pack_calls"],
        "rings.unpack_calls": counts["unpack_calls"],
        "rings.lcm_calls": counts["lcm_calls"],
        "fields.ops": counts["field_ops"],
        "fields.qq_over_gf": (sum(walls[a] for a, _ in pairs)
                              / sum(walls[b] for _, b in pairs)),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "qq_gf_pairs": len(pairs), "determinism_jobs": len(firsts),
              "mismatches": mismatches,
              "job_reductions": {jobs[i].name: r for i, r in reductions.items()}}
    if spans_path is not None:
        spans_path.parent.mkdir(exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"jobs": [j.name for j in jobs + extra],
                       "spans": [s.as_list() for s in spans]}, fh)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return values, attempted, failed, detail


# -- output ----------------------------------------------------------------------

def environment(workload, seed):
    from optdeg import fields
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        top, head = git.stdout.split() if git.returncode == 0 else ("", "")
        if top and Path(top).resolve() == ROOT:
            commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "optdeg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(),
            "field_backend": fields._ratio.__module__.split(".")[0],
            "nproc": os.cpu_count(), "commit": commit,
            "source_sha256": digest.hexdigest()}


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_over_gf"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, error_type = load_optdeg()
    runner = Runner(cli, error_type)
    env = environment(args.workload, args.seed)
    if args.trace:
        jobs = make_jobs(args.workload, args.seed)
        runner.run(_warmup_job(args.workload, jobs))
        values, attempted, failed, detail = run_traced(
            runner, args.workload, jobs,
            OUT / f"spans-{args.workload}-{args.seed}.json")
        metrics = {k: (v, _unit(k)) for k, v in values.items()}
    else:
        setup_s, raw_setup_s, jobs = set_up(runner, args.workload, args.seed,
                                            SETUP_REPEATS)
        raw, calibrated, failed = run_passes(
            runner, jobs, args.seconds, MIN_PASSES,
            WORKLOAD_REFERENCE[args.workload])
        metrics, attempted, detail = summarize(jobs, raw, calibrated, failed)
        detail["raw_setup_s"] = raw_setup_s
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak, "MB")
    print(json.dumps({"env": env, "detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
