"""The pair bookkeeping of scripts/bench_pairs.py, on canned results: no
benchmark runs here."""

import importlib.util
import json
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(run_s, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_the_first_side_alternates():
    assert [bench_pairs.order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}, {"correct": None}])
def test_a_run_that_is_not_correct_or_failed_is_refused(bad):
    with pytest.raises(bench_pairs.RefusedRun, match="pair 3"):
        bench_pairs.metrics_of(result(0.1, 60.0, **bad), "pair 3, change, seed 0")
    assert bench_pairs.metrics_of(result(0.1, 60.0), "x") == {"run_s": 0.1, "peak_rss_mb": 60.0}


def test_quartiles_wins_and_the_median_ratio():
    parent = [0.10, 0.12, 0.11, 0.13, 0.10]
    change = [0.08, 0.09, 0.12, 0.09, 0.07]
    pairs = [{"parent": {"run_s": p, "peak_rss_mb": 60.0 + i},
              "change": {"run_s": c, "peak_rss_mb": 61.0 + i}}
             for i, (p, c) in enumerate(zip(parent, change))]
    got = bench_pairs.summarize(pairs, {"run_s": "lower", "peak_rss_mb": "lower"})
    run = got["run_s"]
    assert run["parent"] == pytest.approx([0.10, 0.11, 0.12])
    assert run["change"] == pytest.approx([0.08, 0.09, 0.09])
    # the change is lower in 4 of 5 pairs; ratios 0.8, 0.75, 12/11, 9/13, 0.7
    assert run["wins"] == 4 and run["pairs"] == 5
    assert run["ratio"] == pytest.approx(0.75)
    assert got["peak_rss_mb"]["wins"] == 0
    # a metric where higher is better counts the other way
    assert bench_pairs.summarize(pairs, {"run_s": "higher"})["run_s"]["wins"] == 1


def test_the_last_line_is_the_run_as_json(tmp_path, monkeypatch, capsys):
    # canned runs stand in for perfbench: run_s 0.1 + seed/100 in the parent,
    # 0.9 of that in the change
    trees = {}
    for side in ("parent", "change"):
        trees[side] = tmp_path / side
        trees[side].mkdir()
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]}))
    runs = []

    def run_once(tree, workload, seed, seconds):
        runs.append((tree.name, workload, seed, seconds))
        run_s = (0.1 + seed / 100) * (0.9 if tree.name == "change" else 1.0)
        return result(run_s, 60.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = [str(trees["parent"]), str(trees["change"]), "--workload", "orbit_strict",
            "--pairs", "3", "--seeds", "0,1", "--seconds", "2"]
    assert bench_pairs.main(argv) == 0
    assert [r[:3] for r in runs] == [("parent", "orbit_strict", 0), ("change", "orbit_strict", 0),
                                     ("change", "orbit_strict", 1), ("parent", "orbit_strict", 1),
                                     ("parent", "orbit_strict", 0), ("change", "orbit_strict", 0)]
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["args"] == {"parent": str(trees["parent"]), "change": str(trees["change"]),
                            "workload": "orbit_strict", "pairs": 3, "seeds": "0,1",
                            "seconds": 2.0}
    assert [(p["seed"], p["first"]) for p in line["pairs"]] == [
        (0, "parent"), (1, "change"), (0, "parent")]
    assert [p["parent"]["run_s"] for p in line["pairs"]] == [0.1, 0.11, 0.1]
    assert [p["change"]["run_s"] for p in line["pairs"]] == [0.1 * 0.9, 0.11 * 0.9, 0.1 * 0.9]
    summary = bench_pairs.summarize(line["pairs"], {"run_s": "lower", "peak_rss_mb": "lower"})
    assert line["summary"] == json.loads(json.dumps(summary))
    assert line["summary"]["run_s"]["wins"] == 3 and line["summary"]["peak_rss_mb"]["wins"] == 0
