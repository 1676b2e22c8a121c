"""Model files the benchmark generates for itself.

Each model is written as the JSON document the ``coulombkit`` CLI reads, so
set-up goes through ``cli.load_model`` exactly as a user's command does.
"""

from __future__ import annotations

import json
import os


def tp(n: int) -> dict:
    """Projective space TP^n: n+1 weight-one rows, rank one."""
    return {"chi": [[1]] * (n + 1), "theta": [1]}


def a2() -> dict:
    return {"chi": [[1, 0], [0, 1], [-1, -1]], "theta": [2, 1]}


def sqed11() -> dict:
    """One positive and one negative weight: the simplest reversing wall."""
    return {"chi": [[1], [-1]], "theta": [1]}


def tgr(k: int, n: int) -> dict:
    """Hom(C^n, C^k) under the diagonal torus, one GL block of size k.

    The flavor specialization sends the n*k row variables onto the n
    variables of the acting torus, written as ``a_specialization`` strings
    the way ``tests/data/tgr24.json`` spells them.
    """
    chi = []
    for j in range(k):
        for _ in range(n):
            chi.append([1 if t == j else 0 for t in range(k)])
    aspec = {"a%d" % (j * n + i + 1): "a%d^-1" % (i + 1)
             for j in range(k) for i in range(n)}
    return {"chi": chi, "theta": [1] * k, "blocks": [k], "a_specialization": aspec}


MODELS = {
    "tp1": lambda: tp(1),
    "tp2": lambda: tp(2),
    "tp3": lambda: tp(3),
    "tp4": lambda: tp(4),
    "a2": a2,
    "sqed11": sqed11,
    "tgr24": lambda: tgr(2, 4),
    "tgr25": lambda: tgr(2, 5),
    "tgr34": lambda: tgr(3, 4),
}


def write_models(names, directory: str) -> dict:
    """Write the named models as JSON files; return name -> path."""
    paths = {}
    for name in names:
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(MODELS[name](), fh, indent=2, sort_keys=True)
        paths[name] = path
    return paths
