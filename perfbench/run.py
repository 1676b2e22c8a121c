"""Benchmark of the coulombkit engine: time to a verified exact result.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``closed-series``, ``pairing-check``, ``algebra-identities``
(see ``jobs.py`` for what each runs and why).  One run loads the engine from
``src/``, generates its model files, and repeats the workload's batch of
jobs in a closed loop (the next job starts when the previous one has
finished, single-threaded, ``COULOMBKIT_THREADS`` unset) for about ``S``
seconds.  The seed picks the jobs' inputs.  Every job's output is checked
exactly, and every later repetition must reproduce the checked output byte
for byte.

``--trace 0`` reports the end-to-end metrics, timings as medians over the
repetitions:

* ``setup_s``: import, ``cli.load_model`` on the generated files, fixed
  points, circuits and effective cones, timed in fresh interpreters
  (median of several);
* ``wall_s``: the batch of jobs after set-up;
* ``top_rung_s``: the workload's largest job;
* ``output_bytes``: the text all jobs print to a user;
* ``peak_rss_mb``: the process's peak resident memory.

The three times are calibrated.  The speed of a shared machine drifts by
tens of percent within a minute, so a fixed reference loop
(``reference_work``) is timed between consecutive jobs and each job's time
is scaled by ``REF_S`` over the reference times around it.  The unscaled
medians are printed too, as ``raw.*``, with ``machine_speed``.

``--trace 1`` reports per-layer metrics instead: calls, shares of the
traced time and counts from spans around the engine's public functions
(see ``spans.py``), with the spans themselves written to
``.perfbench_out/``.  ``trace.wall_s`` is the traced set-up plus one
traced batch; ``trace.overhead_s`` is the traced batch's calibrated time
minus the untraced one's, both measured in that run.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A job fails if it raises, passes its time cap,
or prints a wrong result; ``failed_ratio`` (failed over attempted) is
printed above that line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from statistics import median

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("closed-series", "pairing-check", "algebra-identities")

SETUP_PROBES = 5
JOB_CAP_S = 60.0     # a job running longer than this fails
RUN_CAP_S = 150.0    # from process start; later jobs are cut or not started, and fail
UNTRACED_SHARE = 1 / 3  # share of a traced run spent on the untraced batches
MAX_MESSAGES = 20
# Time of reference_work() on the machine the baseline was recorded on
# (Intel Xeon, 2 shared vCPUs, Python 3.11.7) in its fast state, so a
# calibrated time is what the job takes when the machine runs that fast.
REF_S = 0.024


class JobTimeout(Exception):
    """A job passed its time cap."""


def _on_alarm(signum, frame):
    raise JobTimeout("job passed its time cap")


def remaining_s() -> float:
    return RUN_CAP_S - (time.perf_counter() - T_START)


def reference_work() -> int:
    """Fixed pure-Python work of the engine's kind, independent of its code.

    A sparse product with exponent-tuple keys and ``Fraction`` coefficients,
    the way ``Poly.__mul__`` works.  Timed between consecutive jobs, it
    tracks the machine's speed, which on a shared machine drifts by tens of
    percent within a minute; each job's time is scaled by ``REF_S`` over the
    mean of the reference times just before and just after it.
    """
    w = 10
    a = [(tuple((i * k + j) % 9 - 4 for k in range(w)), Fraction(i + 1, j + 2))
         for i in range(20) for j in range(6)]
    b = [(tuple((i + k * j) % 7 - 3 for k in range(w)), Fraction(j + 1, i + 3))
         for i in range(12) for j in range(4)]
    terms = {}
    for m1, c1 in a:
        for m2, c2 in b:
            m = tuple(x + y for x, y in zip(m1, m2))
            acc = terms.get(m)
            terms[m] = c1 * c2 if acc is None else acc + c1 * c2
    return len(terms)


def reference_s() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def time_setup(workload: str, model_dir: str):
    """Median raw and calibrated set-up time over fresh interpreters."""
    env = dict(os.environ)
    env.pop("COULOMBKIT_THREADS", None)
    raw, calibrated = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               workload, model_dir],
                              capture_output=True, text=True, env=env,
                              timeout=max(1.0, remaining_s()))
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n" + proc.stderr)
        setup, ref = (float(x) for x in proc.stdout.split())
        raw.append(setup)
        calibrated.append(setup * REF_S / ref)
    return median(raw), median(calibrated)


class Batch:
    """One repetition of the workload's jobs.

    Only the first repetition keeps its outputs for the checks; later ones
    keep a digest, so the heap (and the collector's work) stays the same
    from one repetition to the next.
    """

    def __init__(self):
        self.times = {}      # raw seconds per job
        self.scaled = {}     # calibrated seconds per job
        self.speeds = []     # REF_S over each reference time
        self.digests = {}
        self.texts = {}
        self.payloads = {}
        self.errors = {}


def run_batch(job_list, ref_prev, tracer=None, keep=False):
    """Run every job once; return the batch and the last reference time."""
    batch = Batch()
    for job in job_list:
        cap = min(JOB_CAP_S, remaining_s())
        if cap <= 0:
            batch.errors[job.name] = "not started: run passed its %.0f s cap" % RUN_CAP_S
            continue
        text = payload = None
        signal.setitimer(signal.ITIMER_REAL, cap)
        t0 = time.perf_counter()
        try:
            text, payload = tracer.run_job(job.name, job.run) if tracer else job.run()
        except Exception as exc:  # a failing job is counted, not fatal
            batch.errors[job.name] = "%s: %s" % (type(exc).__name__, exc)
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        ref = reference_s()
        batch.times[job.name] = elapsed
        batch.scaled[job.name] = elapsed * REF_S / ((ref_prev + ref) / 2)
        batch.speeds.append(REF_S / ref)
        ref_prev = ref
        if text is None:
            continue
        batch.digests[job.name] = hashlib.sha256(text.encode()).hexdigest()
        if keep:
            batch.texts[job.name] = text
            batch.payloads[job.name] = payload
        del text, payload  # free this job's output before the next job runs
    return batch, ref_prev


def run_until(job_list, budget_s, tracer=None, after_batch=None, keep_first=True):
    """Repeat the batch while the next repetition is expected to fit the budget."""
    batches = []
    start = time.perf_counter()
    ref = reference_s()
    while True:
        gc.collect()  # every repetition starts from the same collector state
        t0 = time.perf_counter()
        batch, ref = run_batch(job_list, ref, tracer, keep=keep_first and not batches)
        if after_batch is not None:
            after_batch()
        batches.append(batch)
        now = time.perf_counter()
        if now - start + (now - t0) > budget_s or remaining_s() <= 0:
            return batches


def verify(job_list, batches):
    """Check the first repetition exactly; later ones must reproduce it byte for byte.

    Returns (attempted, failed, messages).
    """
    first = batches[0]
    verified = {}
    messages = []
    for job in job_list:
        if job.name in first.errors:
            continue
        try:
            job.check(first.payloads[job.name], first.payloads)
        except Exception as exc:  # any exception in a check is a wrong output
            messages.append("%s: check failed: %s: %s" % (job.name, type(exc).__name__, exc))
            continue
        verified[job.name] = first.digests[job.name]
    attempted = failed = 0
    for i, batch in enumerate(batches):
        for job in job_list:
            attempted += 1
            if job.name in batch.errors:
                failed += 1
                messages.append("%s (repetition %d): %s" % (job.name, i + 1, batch.errors[job.name]))
                continue
            if verified.get(job.name) != batch.digests[job.name]:
                failed += 1
                if i > 0 and job.name in verified:
                    messages.append("%s (repetition %d): output differs from the checked one"
                                    % (job.name, i + 1))
    return attempted, failed, messages


def measure(args, work: str):
    import jobs as jobs_mod
    import models

    paths = models.write_models(jobs_mod.WORKLOAD_MODELS[args.workload], work)
    raw_setup, setup_s = time_setup(args.workload, work)

    loaded = jobs_mod.setup(args.workload, paths)
    job_list = jobs_mod.build(args.workload, loaded, args.seed)
    top = next(j.name for j in job_list if j.top)
    signal.signal(signal.SIGALRM, _on_alarm)

    metrics, raw = {}, {}
    if not args.trace:
        batches = run_until(job_list, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["setup_s"] = (setup_s, "s")
        metrics["wall_s"] = (median([sum(b.scaled.values()) for b in batches]), "s")
        metrics["top_rung_s"] = (median([b.scaled.get(top, 0.0) for b in batches]), "s")
        metrics["output_bytes"] = (sum(len(t.encode()) for t in batches[0].texts.values()), "bytes")
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        raw["raw.setup_s"] = (raw_setup, "s")
        raw["raw.wall_s"] = (median([sum(b.times.values()) for b in batches]), "s")
        raw["raw.top_rung_s"] = (median([b.times.get(top, 0.0) for b in batches]), "s")
        raw["machine_speed"] = (median([x for b in batches for x in b.speeds]), "ratio")
        traced = []
    else:
        import spans

        plain = run_until(job_list, args.seconds * UNTRACED_SHARE)
        tracer = spans.Tracer()
        tracer.install()
        phases = []
        try:
            tracer.enabled = True
            tracer.job = "setup"
            t0 = time.perf_counter()
            jobs_mod.setup(args.workload, paths)
            traced_setup_s = time.perf_counter() - t0
            setup_stats = tracer.new_phase()
            traced = run_until(job_list, args.seconds * (1 - UNTRACED_SHARE), tracer,
                               after_batch=lambda: phases.append(tracer.new_phase()),
                               keep_first=False)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        for name, entry in spans.layer_metrics(setup_stats, traced_setup_s, phases).items():
            metrics[name] = (entry["value"], entry["unit"])
        plain_wall = median([sum(b.scaled.values()) for b in plain])
        traced_wall = median([sum(b.scaled.values()) for b in traced])
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed)),
                     {"workload": args.workload, "seed": args.seed,
                      "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall})
        batches = plain

    attempted, failed, messages = verify(job_list, batches + traced)
    return {"metrics": metrics, "raw": raw, "attempted": attempted, "failed": failed,
            "messages": messages, "repetitions": len(batches) + len(traced)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coulombkit", "__init__.py")):
        sys.stderr.write("perfbench: engine source %s/coulombkit not found\n" % SRC)
        return 2
    os.environ.pop("COULOMBKIT_THREADS", None)
    sys.path.insert(0, SRC)

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in result["messages"][:MAX_MESSAGES]:
        sys.stderr.write("perfbench: %s\n" % msg)
    if len(result["messages"]) > MAX_MESSAGES:
        sys.stderr.write("perfbench: ... %d more\n" % (len(result["messages"]) - MAX_MESSAGES))
    print("workload %s  seed %d  repetitions %d" % (args.workload, args.seed,
                                                     result["repetitions"]))
    for name, (value, unit) in list(result["metrics"].items()) + list(result["raw"].items()):
        print("%-44s %14.6g %s" % (name, value, unit))
    print("%-44s %14.6g %s" % ("failed_ratio", result["failed"] / result["attempted"], "ratio"))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
