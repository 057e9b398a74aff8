"""qrigged benchmark: one workload per call, every result checked exactly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; no install is needed, `src` is put on the
path of every child process.  Each workload runs in its own fresh,
single-threaded interpreter (perfbench/worker.py) as a closed loop: one
caller, the next job sent when the previous one returns.

--trace 0 prints the end-to-end metrics of the named workload.  --trace 1
runs one traced and one untraced pass of every workload, each in a fresh
process, and prints the per-layer metrics, each prefixed by the workload it
is measured on; the spans go to perfbench/out/.  The last line of standard
output is one JSON object; the lines before it name every metric with its
unit, the seed and a digest of the job list.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("kostka-grid", "kostka-large", "qseries", "cli")
CHILD_TIMEOUT_S = 170

# Cold start: a fresh interpreter imports the CLI and builds its parser,
# which loads the preset registry.  Every CLI invocation pays this.  Each
# sample is paired with the start of a bare interpreter, and the median is
# scaled by BARE_START_S / (median bare start): process start-up speed on
# this host drifts by tens of percent, and the ratio cancels it.
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import qrigged.cli; "
              "qrigged.cli.build_parser()")
SETUP_SAMPLES = 9
BARE_START_S = 0.07  # a bare interpreter's start on the nominal host

# Invalid invocations that should end with exit code 2 (usage error) but do
# not at the time this benchmark was written: two die in a RecursionError,
# one in a ValueError traceback and one reports a vacuous "valid": true.
# Each runs once per cli run as a real subprocess, outside the timed loop.
CONTRACT_PROBES = {
    "qbinom 1200 600": ["qbinom", "1200", "600"],
    "qbinom 3000 5": ["qbinom", "3000", "5"],
    "character --order -3": ["character", "--preset", "rogers-ramanujan-1",
                             "--order", "-3"],
    "bailey --max-n -1": ["bailey", "--max-n", "-1"],
}
PROBE_EXIT = 2

KOSTKA_SPANS = ("crystals.enumerate_paths", "crystals.intrinsic_energy",
                "bijection.path_to_rc", "bijection.rc_to_path",
                "rc.enumerate_rc", "rc.cocharge",
                "kostka.fermionic_kostka_closed_form", "qalg.IntPolynomial.sum")
QSERIES_SPANS = ("presets.PresetRegistry", "sums.eval_fermionic",
                 "sums.eval_bosonic", "sums.compare_series",
                 "bailey.bailey_step", "bailey.weak_lemma",
                 "bailey.verify_bailey_pair", "qalg.q_binomial",
                 "qalg.pochhammer_qq", "qalg.TruncatedSeries.invert")
# Spans per workload; "bench.job" is the benchmark's own time per job
# (gates and glue) outside every layer call.
SPANS = {"kostka-grid": KOSTKA_SPANS, "kostka-large": KOSTKA_SPANS,
         "qseries": QSERIES_SPANS, "cli": ("cli.main",)}


def child_env() -> dict:
    """Environment of every child: qrigged importable from src, and bytecode
    caches allowed, as for an installed CLI (the first cold start writes
    them; the median of the samples does not see that one)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _start_s(code: str) -> float:
    start = time.perf_counter()
    # No timeout here: with one, subprocess polls the child every 50 ms,
    # which would quantise the measurement.
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                   check=True)
    return time.perf_counter() - start


def measure_setup() -> tuple[float, float]:
    """Median cold start in seconds, scaled to the nominal host and raw."""
    bare, cold = [], []
    for _ in range(SETUP_SAMPLES):
        bare.append(_start_s("pass"))
        cold.append(_start_s(SETUP_CODE))
    raw = statistics.median(cold)
    return raw * BARE_START_S / statistics.median(bare), raw


def run_probes() -> list[str]:
    """Names and outcomes of the contract probes that break the contract."""
    mismatches = []
    for name, argv in CONTRACT_PROBES.items():
        proc = subprocess.run([sys.executable, "-m", "qrigged.cli", *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != PROBE_EXIT:
            tail = (proc.stderr.strip().splitlines() or [proc.stdout.strip()[:120]])[-1]
            mismatches.append(f"{name}: exit {proc.returncode}, expected "
                              f"{PROBE_EXIT} ({tail[:160]})")
    return mismatches


def describe(res: dict) -> str:
    return (f"workload {res['workload']} seed {res['seed']} job-list digest "
            f"{res['digest']}: {res['jobs_per_pass']} jobs per pass, "
            f"{len(res['pass_s'])} pass(es) of "
            + ", ".join(f"{p:.2f}" for p in res["pass_s"]) + " s on the nominal "
            "host (raw " + ", ".join(f"{p:.2f}" for p in res["raw_pass_s"])
            + f" s; host speed factor {res['speed']:.3f})")


def timed(workload: str, seed: int, seconds: int) -> dict:
    setup_s, raw_setup_s = measure_setup()
    res = run_worker(workload, seed, "timed", seconds)
    rate = res["jobs_per_pass"] / res["typical_pass_s"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (rate, "jobs/s"),
        "job_p50_ms": (res["p50_ms"], "ms"),
        "job_tail_ms": (res["tail_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    print(describe(res))
    for name, (value, unit) in metrics.items():
        print(f"  {name:14s} {value:12.4f} {unit}")
    print(f"  {res['unit'] + '_per_s':14s} "
          f"{res['work'] / res['typical_pass_s']:12.4f} {res['unit']}/s")
    print(f"  {res['attempted']} job runs; each job's latency is its median over "
          f"the passes; job_tail_ms is p{res['tail_q'] * 100:g} with "
          f"{res['tail_beyond']} job runs beyond it; "
          f"setup_s is the median of {SETUP_SAMPLES} cold starts "
          f"({raw_setup_s:.4f} s raw)")
    print(f"  failed_frac    {res['failed'] / res['attempted']:12.4f} ratio "
          f"({res['failed']} of {res['attempted']} jobs)")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    if workload == "cli":
        report_probes(run_probes())
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report_probes(mismatches: list[str]) -> None:
    print(f"  contract probes: {len(mismatches)} of {len(CONTRACT_PROBES)} "
          f"break the exit-code contract (run outside the timed loop)")
    for line in mismatches:
        print(f"  CONTRACT MISMATCH {line}")


def layer_metrics(workload: str, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one workload from its traced pass, named
    `<workload>.<layer metric>`."""
    ms, calls = traced["self_ms"], traced["calls"]
    out = {}
    for span in SPANS[workload] + ("bench.job",):
        out[f"{span}.ms"] = (ms.get(span, 0.0), "ms")
        out[f"{span}.calls"] = (calls.get(span, 0), "count")
    if workload.startswith("kostka"):
        objects = traced["work"]
        out["crystals.pairs"] = (traced["pairs"], "count")
        out["crystals.intrinsic_energy.ns_per_pair"] = (
            ms["crystals.intrinsic_energy"] * 1e6 / traced["pairs"], "ns")
        out["bijection.us_per_object"] = (
            (ms["bijection.path_to_rc"] + ms["bijection.rc_to_path"]) * 1e3
            / objects, "us")
        out["rc.objects"] = (objects, "count")
    elif workload == "qseries":
        out["sums.coeffs"] = (traced["work"], "count")
    else:
        out["cli.out_bytes"] = (traced["work"], "bytes")
        mismatches = run_probes()
        report_probes(mismatches)
        out["cli.contract_mismatches"] = (len(mismatches), "count")
        print("  not measured from outside: presets.PresetRegistry inside "
              "cli.main, which builds the registry on every call "
              "(qseries.presets.PresetRegistry.ms times one build)")
    out["trace.overhead_frac"] = (
        sum(traced["pass_s"]) / sum(untraced["pass_s"]) - 1, "ratio")
    return {f"{workload}.{k}": v for k, v in out.items()}


def traced_run(seed: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    for workload in WORKLOADS:
        traced = run_worker(workload, seed, "traced",
                            OUT_DIR / f"spans-{workload}.jsonl")
        untraced = run_worker(workload, seed, "pass")
        print(describe(traced) + f" traced; untraced {untraced['pass_s'][0]:.2f} s")
        for failure in traced["failures"]:
            print(f"  FAILED {failure}")
        attempted += traced["attempted"]
        failed += traced["failed"]
        layer = layer_metrics(workload, traced, untraced)
        for name, (value, unit) in layer.items():
            print(f"  {name:60s} {value:14.4f} {unit}")
        metrics.update(layer)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qrigged" / "__init__.py").is_file():
        print(f"error: no qrigged sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process and every child: on a host whose CPUs are
    # contended unequally, migrating between them flips the speed of a
    # single job by up to 2x.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = traced_run(args.seed) if args.trace else \
        timed(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
