"""Paired A/B runs of the benchmark: a parent checkout against a change.

Usage:

    python3 tools/ab.py PARENT CHANGE [--pairs 10] [--seconds S] [--workload W ...]

PARENT and CHANGE are checkouts of the repository.  For each workload (by
default every workload of ``BENCHMARK.json``), each pair runs
``perfbench/run.py --seed 1 --seconds S --trace 0`` once from the root of
each checkout, one run at a time; which side runs first alternates from
pair to pair.  ``S`` defaults to the ``run_seconds`` of ``BENCHMARK.json``,
which is read from this checkout, as is the list of ``end_to_end`` metrics.
Neither ``BENCHMARK.json`` nor ``perfbench/`` is written.

A line per run goes to stderr as it finishes.  Then, per workload and
end-to-end metric, stdout gets one row of a Markdown table: the median of
each side, their ratio (change over parent), the number of pairs in which
the change is lower (a tie counts for neither side), the parent's
interquartile range, and ``WORSE`` where the change's median is worse than
the parent's by more than the metric's ``bound``.  The exit code is 1 when a
run fails, reports ``correct: false``, or fails more jobs than its partner
run, and 0 otherwise; a ``WORSE`` flag does not change it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT, CHANGE = "parent", "change"


def run_bench(checkout: str, workload: str, seconds: float) -> dict:
    """One benchmark run in ``checkout``: the JSON object of its last stdout
    line, or ``{"error": ...}`` when it exits nonzero or prints none."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", str(seconds),
                           "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return {"error": "exit code %d: %s" % (proc.returncode, tail)}


def run_pairs(checkouts: dict, workload: str, pairs: int, seconds: float,
              run=run_bench, log=None) -> list:
    """``pairs`` (parent, change) results of ``workload``; the parent runs
    first in the even pairs, the change in the odd ones."""
    out = []
    for index in range(pairs):
        order = (PARENT, CHANGE) if index % 2 == 0 else (CHANGE, PARENT)
        got = {}
        for side in order:
            got[side] = run(checkouts[side], workload, seconds)
            if log is not None:
                log("%s pair %d %s: %s" % (workload, index + 1, side, _brief(got[side])))
        out.append((got[PARENT], got[CHANGE]))
    return out


def _brief(result: dict) -> str:
    if "error" in result:
        return result["error"]
    wall = result["metrics"].get("wall_s", {}).get("value")
    return "correct %s, failed %d, wall_s %s" % (result["correct"], result["failed"], wall)


def problems(workload: str, pairs: list) -> list:
    """What makes the comparison fail: a run that failed, reported
    ``correct: false``, or failed more jobs than its partner run."""
    found = []
    for index, results in enumerate(pairs, 1):
        for side, result, partner in ((PARENT,) + results, (CHANGE,) + results[::-1]):
            where = "%s pair %d %s" % (workload, index, side)
            if "error" in result:
                found.append("%s: run failed: %s" % (where, result["error"]))
                continue
            if not result["correct"]:
                found.append("%s: correct is false" % where)
            if "error" not in partner and result["failed"] > partner["failed"]:
                found.append("%s: %d jobs failed, %d in the partner run"
                             % (where, result["failed"], partner["failed"]))
    return found


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list, metrics: list) -> list:
    """One row per metric of ``metrics`` (the ``end_to_end`` entries of
    ``BENCHMARK.json``) over the pairs in which both runs reported it."""
    rows = []
    for spec in metrics:
        name = spec["name"]
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs
                if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not both:
            continue
        parent = median(p for p, _ in both)
        change = median(c for _, c in both)
        ratio = change / parent if parent else (1.0 if change == parent else float("inf"))
        bound = spec["bound"]
        worse = (change > parent * (1 + bound) if spec["better"] == "lower"
                 else change < parent * (1 - bound))
        rows.append({"metric": name, "parent": parent, "change": change, "ratio": ratio,
                     "lower": sum(c < p for p, c in both), "pairs": len(both),
                     "parent_iqr": _iqr([p for p, _ in both]),
                     "worse": worse})
    return rows


def table(summaries: dict) -> str:
    """The rows of ``summaries`` (workload -> rows) as a Markdown table."""
    lines = ["| workload | metric | parent | change | ratio | lower | parent IQR | flag |",
             "|---|---|---|---|---|---|---|---|"]
    for workload, rows in summaries.items():
        for row in rows:
            spread = row["parent_iqr"] / row["parent"] if row["parent"] else 0.0
            lines.append("| %s | %s | %.6g | %.6g | %.3f | %d/%d | %.3g (%.1f%%) | %s |" % (
                workload, row["metric"], row["parent"], row["change"], row["ratio"],
                row["lower"], row["pairs"], row["parent_iqr"], 100 * spread,
                "WORSE" if row["worse"] else ""))
    return "\n".join(lines) + "\n"


def main(argv=None, run=run_bench) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", choices=workloads)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {PARENT: os.path.abspath(args.parent), CHANGE: os.path.abspath(args.change)}

    def log(line):
        sys.stderr.write(line + "\n")
        sys.stderr.flush()

    summaries, found = {}, []
    for workload in args.workload or workloads:
        pairs = run_pairs(checkouts, workload, args.pairs, args.seconds, run, log)
        found += problems(workload, pairs)
        summaries[workload] = summarize(pairs, bench["end_to_end"])
    sys.stdout.write(table(summaries))
    for line in found:
        sys.stdout.write("FAIL %s\n" % line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
