"""The end-to-end ladder: fixed CLI runs over a ladder of models and orders.

Usage (from the repository root):

    python3 tools/ladder.py > ladder.json

Each rung is one ``python -m coulombkit.cli`` subprocess, run from the
source in ``src/`` on a model that ``perfbench/models.py`` builds (read only)
or one of ``tests/data``.  For each rung the script records the wall time,
the stdout size and sha256, the exit code and the peak resident memory of the
child (``os.wait4``).  A rung that runs past ``TIMEOUT_S`` (120 s) is killed
and recorded with ``"timed_out": true``.

The machine's speed drifts, so the script times ``reference_work`` of
``perfbench/run.py`` (loaded read only) before the first rung and after each
one.  Each rung records the reference times just before and just after it,
``ref_before_s`` and ``ref_after_s``, and ``calibrated_s``, its wall time
scaled by ``REF_S`` over their mean: what the rung takes on a machine that
runs the reference loop in ``REF_S``.  Drift inside a long rung is not seen.

``table_sha256`` is the sha256 prefix that the ladder table of ROADMAP.md
records for the rung; ``matches_table`` says whether the run printed those
bytes.  The probes have no table entry: they record how a run ends.

The report is one JSON object on stdout; a line per rung goes to stderr as it
finishes.  Rungs run one at a time.  ``run_ladder`` runs a list of rungs and
returns the report.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import shlex
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
TIMEOUT_S = 120.0


def _load(name: str):
    """perfbench/<name>.py, loaded by path so that perfbench/ stays off sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(ROOT, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


models, bench = _load("models"), _load("run")

MODELS = {
    "tp1": lambda: models.tp(1),
    "tp4": lambda: models.tp(4),
    "tp6": lambda: models.tp(6),
    "a2": models.a2,
    "tgr24": lambda: models.tgr(2, 4),
    "tgr25": lambda: models.tgr(2, 5),
    "tgr34": lambda: models.tgr(3, 4),
    "fl3": None,  # tests/data/fl3.json
}

# (name, command, model, further arguments, sha256 prefix of the ladder table)
RUNGS = [
    ("tp4-vertex-12", "vertex", "tp4", ["--order", "12"], "b2d723d29eaf"),
    ("tp6-vertex-12", "vertex", "tp6", ["--order", "12"], "0ba3482aad15"),
    ("a2-whittaker-8", "whittaker", "a2", ["--order", "8"], "0f8210e5abe4"),
    ("a2-vertex-40", "vertex", "a2", ["--order", "40"], "d2f69e0b5bee"),
    ("a2-vertex-64", "vertex", "a2", ["--order", "64"], "130bb0701e17"),
    ("tgr24-vertex-3", "vertex", "tgr24", ["--order", "3"], "b2973b7ac282"),
    ("tgr24-vertex-4", "vertex", "tgr24", ["--order", "4"], "93b2f0add347"),
    ("tgr24-vertex-5", "vertex", "tgr24", ["--order", "5"], "e717df710a7a"),
    ("tgr25-vertex-p17-2", "vertex", "tgr25", ["--point", "1,7", "--order", "2"],
     "6889fbd58a91"),
    ("tgr25-vertex-p17-3", "vertex", "tgr25", ["--point", "1,7", "--order", "3"],
     "4a82fff63b8e"),
    ("tgr34-vertex-2", "vertex", "tgr34", ["--order", "2"], "59c461342b06"),
    ("tgr34-vertex-3", "vertex", "tgr34", ["--order", "3"], "e72636dfecb0"),
    ("tgr34-vertex-4", "vertex", "tgr34", ["--order", "4"], "a2fd3014ede5"),
    ("tgr25-whittaker-p17-3", "whittaker", "tgr25", ["--point", "1,7", "--order", "3"],
     "4ee8f1a8c747"),
    ("tgr24-qde-check-c0-3", "qde-check", "tgr24", ["--circuit", "0", "--order", "3"],
     "2b4f875f2d7a"),
    ("fl3-vertex-p157-8", "vertex", "fl3", ["--point", "1,5,7", "--order", "8"],
     "0ed5d2cfcbb9"),
    ("fl3-vertex-p157-10", "vertex", "fl3", ["--point", "1,5,7", "--order", "10"],
     "851bbcd7351e"),
    # probe: a descendent of huge degree, whose work nothing bounds yet
    ("tp1-descendent-probe", "vertex", "tp1",
     ["--order", "2", "--descendent", "1 - a1^1000000*s1^1000000"], None),
]


def model_path(name: str, directory: str) -> str:
    if MODELS[name] is None:
        return os.path.join(DATA, name + ".json")
    path = os.path.join(directory, name + ".json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(MODELS[name](), fh, indent=2, sort_keys=True)
    return path


def run_rung(argv, directory: str) -> dict:
    """Run one CLI command; stdout goes to a file, hashed once the child is reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_path = os.path.join(directory, "stdout")
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "coulombkit.cli"] + argv, stdout=out,
                                stderr=subprocess.DEVNULL, env=env)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t0 > TIMEOUT_S:
                timed_out = True
                os.kill(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.001)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    digest, size = hashlib.sha256(), 0
    with open(out_path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return {"wall_s": round(wall, 4), "stdout_bytes": size, "sha256": digest.hexdigest(),
            "exit_code": proc.returncode, "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "timed_out": timed_out}


def run_ladder(rungs=RUNGS) -> dict:
    """Run the given rungs in order and return the report."""
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "timeout_s": TIMEOUT_S, "ref_s": bench.REF_S, "rungs": []}
    with tempfile.TemporaryDirectory() as directory:
        before = round(bench.reference_s(), 6)
        for name, command, model, extra, table in rungs:
            cli_argv = [command, model_path(model, directory)] + extra
            got = run_rung(cli_argv, directory)
            after = round(bench.reference_s(), 6)
            calibrated = round(got["wall_s"] * bench.REF_S / ((before + after) / 2), 4)
            shown = [command, os.path.relpath(cli_argv[1], ROOT) if MODELS[model] is None
                     else model + ".json"] + extra
            entry = {"name": name, "command": shlex.join(shown), **got,
                     "ref_before_s": before, "ref_after_s": after, "calibrated_s": calibrated,
                     "table_sha256": table,
                     "matches_table": None if table is None else got["sha256"].startswith(table)}
            report["rungs"].append(entry)
            before = after
            print("%-24s %8.2f s %8.2f cal s %10d B %s exit %d %7.1f MB%s" % (
                name, got["wall_s"], calibrated, got["stdout_bytes"], got["sha256"][:12],
                got["exit_code"], got["peak_rss_mb"], " TIMEOUT" if got["timed_out"] else
                "" if table is None or entry["matches_table"] else " SHA DIFFERS"),
                file=sys.stderr)
    return report


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run_ladder(), indent=1) + "\n")
