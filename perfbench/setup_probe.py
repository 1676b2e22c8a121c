"""Time one set-up in a fresh interpreter: import, model loading, combinatorics.

Usage: python3 perfbench/setup_probe.py WORKLOAD MODEL_DIR

Prints the seconds from before ``import coulombkit`` to the end of set-up,
then the median seconds of the runner's reference work in this same
interpreter.
"""

import os
import sys
import time
from statistics import median

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs  # noqa: E402  (imports coulombkit; timed on purpose)

workload, model_dir = sys.argv[1], sys.argv[2]
jobs.setup(workload, {name: os.path.join(model_dir, name + ".json")
                      for name in jobs.WORKLOAD_MODELS[workload]})
setup_s = time.perf_counter() - t0

import run  # noqa: E402

print(repr(setup_s), repr(median(run.reference_s() for _ in range(3))))
