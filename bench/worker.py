"""Runs one workload's jobs in a fresh interpreter and reports what it saw.

``python3 worker.py <plan.json>``, started by ``run.py``.  The plan names
the ``src`` directory to import matvol from, the job command lines, and how
long to run.  The worker times its set-up (importing ``matvol.cli``, plus
``full_catalog`` for the verify workload), then runs the jobs one after the
other through ``matvol.cli.main(argv)`` in whole passes over the job list,
as many as come closest to the run length; untraced, each job reruns until
its runs add up to ``MIN_JOB_S``.  It writes the sha256 of every output,
per-job latencies and exit codes, and its own peak resident memory
to the result file named in the plan.  Checking outputs is left to
``run.py``, outside the timed region.

The host's speed is sampled with ``calibrate.sample`` before every job and
after each pass, and around the set-up, outside the timed intervals;
``run.py`` divides the times by it.

With ``"trace": true`` passes alternate between untraced ones, the
overhead baseline, and ones under ``tracing.Tracer``, whose spans are
written next to the result.
"""

import gc
import json
import os
import statistics
import sys
import time

import calibrate

SETUP_CALIBRATION = 5  # kernel runs before and again after the set-up
# An untraced job reruns (each run parsing its file afresh) until its runs
# add up to this, much as timeit's autorange does, so that a millisecond job is
# not timed by one run that a burst on the host can double.
MIN_JOB_S = 0.02


def main() -> None:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    setup_calibration = [calibrate.sample() for _ in range(SETUP_CALIBRATION)]
    start = time.perf_counter()
    import matvol.cli as cli  # noqa: E402 -- importing is the set-up being timed

    catalog = None
    if plan["catalog_max_n"] and not plan["trace"]:
        catalog = cli.full_catalog(plan["catalog_max_n"])
    setup_s = time.perf_counter() - start
    setup_calibration += [calibrate.sample() for _ in range(SETUP_CALIBRATION)]
    if not os.path.abspath(cli.__file__).startswith(plan["src"] + os.sep):
        raise SystemExit(f"matvol imported from {cli.__file__}, not from {plan['src']}")
    setup = {"setup_s": setup_s, "setup_calibration": setup_calibration}
    if plan["mode"] == "setup":
        _write_json(plan["result"], setup)
        return

    import hashlib
    import io
    import random
    import resource
    import traceback
    from contextlib import redirect_stdout

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.job = "setup"
        tracer.install()
        if plan["catalog_max_n"]:
            catalog = cli.full_catalog(plan["catalog_max_n"])
        tracer.uninstall()

    argvs = plan["argv"]
    if catalog is not None:
        order = list(range(len(catalog)))
        random.Random(f"verify:{plan['seed']}").shuffle(order)
        argvs = []
        for index in order:
            path = os.path.join(plan["work"], f"catalog-{index}.matroid")
            with open(path, "w") as fh:
                fh.write(cli.serialize_matroid(catalog[index].matroid))
            argvs.append(["verify", path])

    errors: list[str] = []

    def run_job(index: int, argv: list[str]) -> tuple[float, int, str]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing job is a failed job, not a failed run
            code = -1
            errors.append(f"job {index} {argv}:\n{traceback.format_exc()}")
        seconds = time.perf_counter() - t0
        return seconds, code, hashlib.sha256(buf.getvalue().encode()).hexdigest()

    def run_pass(number: int, traced: bool) -> dict:
        """One pass over the jobs; untraced runs repeat each job until its
        runs add up to ``MIN_JOB_S`` and keep their median latency."""
        latencies, calibration, codes, digests = [], [], [], []
        pass_start = time.perf_counter()
        for index, argv in enumerate(argvs):
            gc.collect()  # start each job from a collected heap, as a fresh CLI process does
            calibration.append(calibrate.sample())
            if tracer is not None:
                tracer.job = [number, index]
            runs, job_codes, job_digests = [], [], []
            while not runs or (tracer is None and sum(runs) < MIN_JOB_S):
                seconds, code, digest = run_job(index, argv)
                runs.append(seconds)
                job_codes.append(code)
                job_digests.append(digest)
            latencies.append(statistics.median(runs))
            codes.append(job_codes)
            digests.append(job_digests)
        calibration.append(calibrate.sample())
        return {
            "wall": time.perf_counter() - pass_start,
            "traced": traced,
            "latencies": latencies,
            "calibration": calibration,
            "codes": codes,
            "digests": digests,
        }

    passes = []
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        passes.append(run_pass(len(passes), traced))
        if traced:
            tracer.uninstall()
        # Stop where the run ends closest to its length: when another pass
        # would overrun it by more than half a pass.
        elapsed = time.perf_counter() - loop_start
        if elapsed + passes[-1]["wall"] / 2 >= plan["seconds"] and len(passes) >= (2 if tracer else 1):
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        _write_json(os.path.join(plan["work"], "spans.json"), tracer.spans)
    _write_json(plan["result"], {
        **setup,
        "argv": argvs,
        "passes": passes,
        "errors": errors,
        "peak_rss_kb": peak_rss_kb,
    })


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main()
