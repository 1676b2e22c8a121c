"""The ladder rungs print the same bytes: full stdout sha256 of CLI runs.

Any change to exact values, print order or rendering shows here.  The
models are the ones ``perfbench/models.py`` writes.
"""

import hashlib
import json
import os

import pytest

from coulombkit.cli import build_parser, dispatch

DATA = os.path.join(os.path.dirname(__file__), "data")


def tgr(k, n):
    """Hom(C^n, C^k) under the diagonal torus, one GL block of size k."""
    chi = [[int(t == j) for t in range(k)] for j in range(k) for _ in range(n)]
    aspec = {"a%d" % (j * n + i + 1): "a%d^-1" % (i + 1) for j in range(k) for i in range(n)}
    return {"chi": chi, "theta": [1] * k, "blocks": [k], "a_specialization": aspec}


MODELS = {
    "tp4": lambda: {"chi": [[1]] * 5, "theta": [1]},
    "tgr25": lambda: tgr(2, 5),
    "tgr34": lambda: tgr(3, 4),
}

RUNGS = [
    (["vertex", "tp4", "--order", "12"],
     "b2d723d29eafa8f5b63740a19d15cbf87b3728731bbf445525327d0494095ba7"),
    (["whittaker", "a2", "--order", "8"],
     "0f8210e5abe45fc281ab2d48ea8300ffff6c40c79846fd8e5115971239ba1406"),
    (["vertex", "a2", "--order", "40"],
     "d2f69e0b5bee0459f7dbb2def9e45c2d7ae407bee9f5855b671514240e564d7c"),
    (["vertex", "tgr24", "--order", "3"],
     "b2973b7ac2822c9630266fd9f82952926357b6c760bc162e7327db3409180076"),
    (["vertex", "tgr25", "--point", "1,7", "--order", "2"],
     "6889fbd58a9198c29c09d00fbcbaf687407e847ea2e36c5170409d2236087d7c"),
    (["whittaker", "tgr25", "--point", "1,7", "--order", "3"],
     "4ee8f1a8c7472994aa86af64a3979760a8170a223a7e1d5c9e37973e882b6790"),
    (["vertex", "tgr34", "--order", "2"],
     "59c461342b06c4d167a6eceac42aa1706ab9668098097c6165c36567998ab6ac"),
]


@pytest.mark.parametrize("argv, digest", RUNGS, ids=[" ".join(a) for a, _ in RUNGS])
def test_ladder_rung_prints_the_recorded_bytes(tmp_path, argv, digest):
    command, model = argv[:2]
    if model in MODELS:
        path = tmp_path / (model + ".json")
        path.write_text(json.dumps(MODELS[model]()))
    else:
        path = os.path.join(DATA, model + ".json")
    out = _Sink()
    assert dispatch(build_parser().parse_args([command, str(path)] + argv[2:]), out=out) == 0
    assert out.digest.hexdigest() == digest


class _Sink:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
