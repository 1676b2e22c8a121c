"""tools/ab.py on synthetic runs: pairing, medians, counts, spread, flags and failures."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_tool", os.path.join(ROOT, "tools", "ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(wall, out=100, failed=0):
    return {"correct": failed == 0, "attempted": 5, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "output_bytes": {"value": out, "unit": "bytes"}}}


METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.15},
           {"name": "output_bytes", "better": "lower", "bound": 0.1},
           {"name": "top_rung_s", "better": "lower", "bound": 0.25}]


def test_summary_reads_medians_ratio_lower_pairs_and_parent_iqr(ab):
    parents = [1.0, 2.0, 3.0, 4.0, 5.0]
    changes = [0.5, 2.0, 3.5, 3.0, 6.0]
    pairs = [(result(p), result(c)) for p, c in zip(parents, changes)]
    wall, out = ab.summarize(pairs, METRICS)  # no run reports top_rung_s
    assert (wall["metric"], wall["parent"], wall["change"]) == ("wall_s", 3.0, 3.0)
    assert wall["ratio"] == 1.0 and wall["pairs"] == 5
    # 0.5 < 1 and 3 < 4 are lower; the tie 2 = 2 counts for neither side
    assert wall["lower"] == 2
    assert wall["parent_iqr"] == 2.0  # quartiles 2 and 4 of 1..5
    assert not wall["worse"]
    assert (out["ratio"], out["lower"], out["parent_iqr"], out["worse"]) == (1.0, 0, 0.0, False)


def test_a_change_worse_than_its_bound_is_flagged(ab):
    pairs = [(result(1.0, 100), result(1.16, 110)), (result(1.0, 100), result(1.16, 110))]
    wall, out = ab.summarize(pairs, METRICS)
    assert wall["worse"] and wall["lower"] == 0
    assert out["ratio"] == pytest.approx(1.1) and not out["worse"]
    higher = ab.summarize(pairs, [{"name": "wall_s", "better": "higher", "bound": 0.15}])
    assert not higher[0]["worse"]
    text = ab.table({"closed-series": [wall, out]})
    assert "| closed-series | wall_s | 1 | 1.16 | 1.160 | 0/2 | 0 (0.0%) | WORSE |" in text
    assert text.count("WORSE") == 1


def test_problems_name_failed_incorrect_and_worse_failing_runs(ab):
    pairs = [(result(1.0), result(1.0)),
             ({"error": "exit code 2: boom"}, result(1.0)),
             (result(1.0), result(1.0, failed=2)),
             (result(1.0, failed=1), result(1.0, failed=1))]
    assert ab.problems("w", pairs) == [
        "w pair 2 parent: run failed: exit code 2: boom",
        "w pair 3 change: correct is false",
        "w pair 3 change: 2 jobs failed, 0 in the partner run",
        "w pair 4 parent: correct is false",
        "w pair 4 change: correct is false"]
    # the failed run is left out of the medians
    assert ab.summarize(pairs, METRICS)[0]["pairs"] == 3
    assert ab.problems("w", pairs[:1]) == []


def test_pairs_alternate_which_side_runs_first(ab):
    calls = []

    def fake(checkout, workload, seconds):
        calls.append(checkout)
        return result(1.0 if checkout == "P" else 0.9)

    pairs = ab.run_pairs({ab.PARENT: "P", ab.CHANGE: "C"}, "w", 3, 1.0, run=fake)
    assert calls == ["P", "C", "C", "P", "P", "C"]
    assert all(p["metrics"]["wall_s"]["value"] == 1.0 for p, _ in pairs)


def test_main_reads_the_benchmark_and_exits_1_on_a_failed_run(ab, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seen = []

    def fake(checkout, workload, seconds):
        seen.append((workload, seconds))
        return result(1.0)

    assert ab.main(["p", "c", "--pairs", "2"], run=fake) == 0
    names = [w["name"] for w in bench["workloads"]]
    assert seen == [(w, bench["run_seconds"]) for w in names for _ in range(4)]
    assert capsys.readouterr().out.count("| wall_s |") == len(names)
    flaky = iter([result(1.0), {"error": "exit code 1: x"}])
    assert ab.main(["p", "c", "--pairs", "1", "--workload", names[0], "--seconds", "2"],
                   run=lambda *args: next(flaky)) == 1
    assert "FAIL %s pair 1 change: run failed: exit code 1: x" % names[0] in capsys.readouterr().out
