"""Run one workload in a fresh single-threaded interpreter; print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SECONDS | SPANS_FILE]

MODE `timed` runs whole passes over the seeded job list, untraced, and stops
when another pass would end past SECONDS, after at least the passes the
workload's tail percentile needs.  MODE `pass` runs one untraced pass and
MODE `traced` one traced pass, writing its spans to SPANS_FILE.  Whole
passes keep the job mix of every run identical, and a fresh process keeps
the library's caches cold at the start, as they are for a CLI user.

Times are reported raw and scaled to the nominal host (see measure.py).
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402  (needs src on the path)
from measure import SpeedGauge, Tracer, self_times  # noqa: E402


def run_pass(api, jobs, gauge, run_job=wl.run_job, tracer=None):
    """(start clock, raw latency) per job, total work and failure messages
    of one pass."""
    ctx: dict = {}
    timings, work, failures = [], 0, []
    clock = time.perf_counter
    for i, job in enumerate(jobs):
        gauge.maybe_sample()
        if tracer is not None:
            tracer.job = i
        start = clock()
        try:
            work += run_job(api, ctx, job)
        except Exception as exc:  # a failed job is counted and named; the run goes on
            failures.append(f"job {i} {json.dumps(job)}: "
                            f"{type(exc).__name__}: {exc}"[:400])
        timings.append((start, clock() - start))
    gauge.sample()
    return timings, work, failures


def kostka_pairs(jobs) -> int:
    """Sum over paths of C(k, 2), k the number of tensor factors: the factor
    pairs whose local energies make up the intrinsic energies."""
    return sum(wl.count_paths(job[1], job[2], job[3]) * math.comb(len(job[1]), 2)
               for job in jobs if job[0] == "kostka")


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    _, unit, tail_q = wl.WORKLOADS[workload]
    jobs = wl.make_jobs(workload, seed)
    gauge = SpeedGauge()
    out = {"workload": workload, "seed": seed, "jobs_per_pass": len(jobs),
           "digest": hashlib.sha256(json.dumps(jobs).encode()).hexdigest()[:16],
           "unit": unit}
    tracer = Tracer() if mode == "traced" else None
    api = wl.make_api(tracer.wrap if tracer else None)
    run_job = tracer.wrap("bench.job", wl.run_job) if tracer else wl.run_job
    seconds = float(argv[3]) if mode == "timed" else 0.0
    # Enough passes for at least 10 job runs beyond the tail percentile.
    beyond = len(jobs) - math.ceil(tail_q * len(jobs))
    min_passes = math.ceil(10 / beyond) if mode == "timed" else 1
    passes, work, failures = [], 0, []
    start = time.perf_counter()
    while True:
        timings, w, fails = run_pass(api, jobs, gauge, run_job, tracer)
        passes.append(timings)
        work += w
        failures += fails
        elapsed = time.perf_counter() - start
        longest = max(sum(t for _, t in p) for p in passes)
        if len(passes) >= min_passes and elapsed + longest > seconds:
            break
    scaled = [[t * gauge.scale(at) for at, t in p] for p in passes]
    # Each job's latency is its median over the passes, which keeps a slow
    # spell of the host in one pass from moving the percentiles.
    latencies = sorted(statistics.median(p[i] for p in scaled)
                       for i in range(len(jobs)))
    rank = math.ceil(tail_q * len(latencies))
    out.update(
        pass_s=[sum(p) for p in scaled],
        raw_pass_s=[sum(t for _, t in p) for p in passes],
        typical_pass_s=sum(latencies), speed=gauge.overall(),
        attempted=len(jobs) * len(passes), failed=len(failures),
        failures=failures[:5], work=work // len(passes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        p50_ms=statistics.median(latencies) * 1e3,
        tail_ms=latencies[rank - 1] * 1e3, tail_q=tail_q,
        tail_beyond=(len(latencies) - rank) * len(passes))
    if tracer is not None:
        tracer.write(argv[3])
        self_ns, calls = self_times(tracer.spans)
        out["self_ms"] = {k: v * gauge.overall() / 1e6 for k, v in self_ns.items()}
        out["calls"] = calls
        out["pairs"] = kostka_pairs(jobs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
