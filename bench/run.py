"""matvol benchmark: named workloads run through ``matvol.cli.main``.

    python3 bench/run.py --workload decompose|volume|verify --seed N \\
        --seconds S --trace 0|1

Run from the repository root; matvol is imported from ``src/``.  The
benchmark generates the workload's input files from the seed (see
``workloads.py``), then starts one worker process (``worker.py``) that
imports matvol and runs the jobs as a closed loop: one client, one thread
(the ``--threads 2`` volume jobs aside), each job started when the previous
one returned, in as many whole passes over the job list as come closest to
``--seconds``.  Every job parses its file afresh, as separate CLI runs would.
Untraced, a job that takes under 20 ms reruns back to back until its runs
add up to 20 ms, and its latency in a pass is the median of those runs.
Outputs are checked against independent references (``reference.py``)
after the worker exits, outside the timed region.

Times are normalized to the host's speed of the moment (``calibrate.py``):
each job's latency is divided by the calibration kernel's time measured
around it and multiplied by ``calibrate.REFERENCE_S``, so a figure reads as
the time on a host that runs the kernel in exactly that long.  Each set-up
time is divided the same way, by the kernel runs around it in its own
process.  The raw wall time of each pass is printed alongside.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics
(``tracing.py``), per traced pass of the job list, with the tracing
overhead: the normalized traced latencies summed over the untraced ones.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A job fails when it raises, exits non-zero, or prints anything but the
reference text; ``failed_frac`` in the report is failed over attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import calibrate
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15        # fresh interpreters timed for setup_s, the run's own included
WORKER_TIMEOUT_S = 150    # a run must end within 180 s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "matvol", "cli.py")):
        print(f"error: no matvol sources under {SRC}", file=sys.stderr)
        return 2
    work = tempfile.mkdtemp(prefix=".bench-run-", dir=ROOT)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: str) -> int:
    plan = workloads.WORKLOADS[args.workload](args.seed)
    paths = {}
    for name, item in plan.inputs.items():
        paths[name] = os.path.join(work, f"{name}.matroid")
        with open(paths[name], "w") as fh:
            fh.write(item.text)

    worker_plan = {
        "src": SRC,
        "mode": "run",
        "catalog_max_n": plan.catalog_max_n,
        "seed": args.seed,
        "argv": [job.argv(paths[job.input]) for job in plan.jobs],
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "work": work,
        "result": os.path.join(work, "result.json"),
    }
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(normalized_setup(start_worker(dict(worker_plan, mode="setup"), work)))
    result = start_worker(worker_plan, work)
    setup_samples.append(normalized_setup(result))

    # Everything below is outside the timed region.
    sys.path.insert(0, SRC)
    import matvol
    import reference

    refs = reference.References(matvol)
    jobs, expected_digests, subsets = [], [], 0
    for index, argv in enumerate(result["argv"]):
        with open(argv[1], "rb") as fh:
            data = fh.read()
        if plan.jobs:
            job = plan.jobs[index]
            item = plan.inputs[job.input]
        else:
            job = workloads.Job("verify", os.path.basename(argv[1]))
            item = reference.parse_matroid_file(job.input, data.decode())
        jobs.append(job)
        text = refs.expected(job.command, job.polytope, item, data)
        expected_digests.append(hashlib.sha256(text.encode()).hexdigest())
        subsets += 1 << item.n

    attempted = failed = 0
    for number, p in enumerate(result["passes"]):
        for index, (codes, digests) in enumerate(zip(p["codes"], p["digests"])):
            for code, digest in zip(codes, digests):
                attempted += 1
                if code != 0 or digest != expected_digests[index]:
                    failed += 1
                    print(f"FAILED job {index}, pass {number}, exit {code}: "
                          f"matvol {' '.join(result['argv'][index])}", file=sys.stderr)
    for error in result["errors"][:3]:
        print(error, file=sys.stderr)

    passes = result["passes"]
    jobs_per_pass = len(jobs)
    walls = " ".join(f"{p['wall']:.2f}" for p in passes)
    kernel_ms = 1000 * statistics.median(c for p in passes for c in p["calibration"])
    print(f"workload {args.workload}  seed {args.seed}  {len(passes)} passes of {jobs_per_pass} jobs"
          f"  ({'traced' if args.trace else 'untraced'}; pass walls {walls} s;"
          f" calibration kernel {kernel_ms:.3f} ms, reference {1000 * calibrate.REFERENCE_S:g} ms)")
    if args.trace:
        with open(os.path.join(work, "spans.json")) as fh:
            spans = json.load(fh)
        metrics = layer_metrics(spans, passes, jobs, subsets)
    else:
        metrics = end_to_end_metrics(passes, setup_samples, result["peak_rss_kb"])
    notes = {
        "jobs_per_s": f"  ({jobs_per_pass} jobs, median of {len(passes)} passes each)",
        "job_p50_ms": f"  ({jobs_per_pass} samples)",
        "job_p90_ms": f"  ({jobs_per_pass} samples)",
        "setup_s": f"  (median of {len(setup_samples)}, range "
                   f"{min(setup_samples):.4f}-{max(setup_samples):.4f})",
    }
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}{notes.get(name, '')}")
    print(f"  {'failed_frac':36s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} job runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def start_worker(plan: dict, work: str) -> dict:
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), plan_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    with open(plan["result"]) as fh:
        return json.load(fh)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(passes: list[dict], setup_samples: list[float], peak_rss_kb: int) -> dict:
    """Timings from each job's median normalized latency over the passes.

    ``jobs_per_s`` is the job count over the sum of those latencies, the
    length of one pass at reference speed.
    """
    latencies = job_latencies(passes)
    return {
        "jobs_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "job_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "job_p90_ms": {"value": 1000 * percentile(latencies, 90), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
    }


def job_latencies(passes: list[dict]) -> list[float]:
    """Each job's normalized latency, the median over the passes."""
    normalized = []
    for p in passes:
        speeds = calibrate.local_speeds(p["calibration"], len(p["latencies"]))
        normalized.append([t / c * calibrate.REFERENCE_S for t, c in zip(p["latencies"], speeds)])
    return [statistics.median(times) for times in zip(*normalized)]


def normalized_setup(result: dict) -> float:
    """A worker's set-up time over the kernel time measured around it."""
    return result["setup_s"] / statistics.median(result["setup_calibration"]) * calibrate.REFERENCE_S


def layer_metrics(spans: list[list], passes: list[dict], jobs: list, subsets: int) -> dict:
    """Per-layer numbers per traced pass; ``catalog.build.s`` once per run."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    count = len(traced)
    totals = tracing.layer_totals([s for s in spans if s[5] != "setup"])
    setup = tracing.layer_totals([s for s in spans if s[5] == "setup"])

    def per_pass(key: str) -> float:
        return totals.get(key, 0) / count

    def exact(key: str):
        value = totals.get(key, 0)
        return value // count if value % count == 0 else value / count

    engine = totals.get("volume.engine.self_s", 0)
    rank_calls = exact("matroid.rank.calls")
    metrics = {
        "matroid.rank.s": (per_pass("matroid.rank.s"), "s"),
        "matroid.rank.calls": (rank_calls, "count"),
        "matroid.rank.calls_per_subset": (rank_calls / subsets, "ratio"),
        "matroid.build.s": (per_pass("matroid.build.s"), "s"),
        "matroid.connectivity.s": (per_pass("matroid.connectivity.s"), "s"),
        "invariants.tables.s": (per_pass("invariants.tables.s"), "s"),
        "invariants.tutte.s": (per_pass("invariants.tutte.s"), "s"),
        "invariants.support_size": (exact("invariants.tables.count"), "count"),
        "decomposition.decompose.self_s": (per_pass("decomposition.decompose.self_s"), "s"),
        "decomposition.transform.s": (per_pass("decomposition.transform.s"), "s"),
        "volume.engine.self_s": (per_pass("volume.engine.self_s"), "s"),
        "volume.engine.calls": (exact("volume.engine.calls"), "count"),
        "volume.engine.tuple_len": (exact("volume.engine.count"), "count"),
        "volume.weak_share": (totals.get("volume.engine.weak_self_s", 0) / engine if engine else 0.0, "ratio"),
        "volume.threads2_speedup": (threads_speedup(job_latencies(untraced), jobs), "ratio"),
        "oracle.vertices.s": (per_pass("oracle.vertices.s"), "s"),
        "oracle.points": (exact("oracle.vertices.count"), "count"),
        "hull.facets.s": (per_pass("hull.facets.s"), "s"),
        "hull.facets": (exact("hull.facets.count"), "count"),
        "hull.volume.s": (per_pass("hull.volume.self_s"), "s"),
        "verify.check.base.s": (per_pass("verify.check.base.s"), "s"),
        "verify.check.indep.s": (per_pass("verify.check.indep.s"), "s"),
        "verify.check.flag.s": (per_pass("verify.check.flag.s"), "s"),
        "verify.checks": (exact("verify.matroid.count"), "count"),
        "cli.parse.s": (per_pass("cli.parse.s"), "s"),
        "cli.main.self_s": (per_pass("cli.main.self_s"), "s"),
        "catalog.build.s": (setup.get("catalog.build.s", 0.0), "s"),
        "input.subsets": (subsets, "count"),
        "trace.pass_s": (statistics.mean(sum(p["latencies"]) for p in traced), "s"),
        "trace.overhead": (sum(job_latencies(traced)) / sum(job_latencies(untraced)), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def threads_speedup(latencies: list[float], jobs: list) -> float:
    """Summed latency of ``--threads 1`` jobs over their ``--threads 2`` twins."""
    by_threads: dict[int, float] = {1: 0.0, 2: 0.0}
    twins = {(j.input, j.polytope) for j in jobs if j.threads == 2}
    for job, latency in zip(jobs, latencies):
        if (job.input, job.polytope) in twins:
            by_threads[job.threads] += latency
    return by_threads[1] / by_threads[2] if by_threads[2] else 0.0


if __name__ == "__main__":
    sys.exit(main())
