"""The A/B bench tool's summary, fed with made-up runs: no bench is run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_compare import summarise  # noqa: E402

METRICS = [{"name": "rate", "better": "higher"}, {"name": "rss", "better": "lower"}]


def result(rate, rss, correct=True):
    metrics = {"rate": {"value": rate, "unit": "1/s"}, "rss": {"value": rss, "unit": "MB"}}
    return {"result": {"correct": correct, "failed": 0 if correct else 1, "metrics": metrics}}


def run(workload, seed, side, **kw):
    return {"workload": workload, "seed": seed, "side": side, "returncode": 0, **kw}


def test_samples_in_seed_order_with_medians_and_wins():
    runs = [
        run("w", 2, "change", **result(30.0, 9.0)), run("w", 2, "base", **result(20.0, 9.0)),
        run("w", 1, "base", **result(10.0, 8.0)), run("w", 1, "change", **result(12.0, 7.0)),
        run("w", 3, "base", **result(40.0, 5.0)), run("w", 3, "change", **result(35.0, 6.0)),
    ]
    s = summarise(runs, METRICS)["w"]
    assert s["all_correct"]
    assert s["rate"] == {"pairs": 3, "change_wins": 2, "base": [10.0, 20.0, 40.0],
                         "base_median": 20.0, "change": [12.0, 30.0, 35.0],
                         "change_median": 30.0}
    # lower is better: seed 1 wins, seed 2 ties and counts for neither side, seed 3 loses
    assert s["rss"]["change_wins"] == 1
    assert s["rss"]["change_median"] == 7.0


def test_a_failed_run_gives_no_sample_and_clears_all_correct():
    runs = [
        run("a", 1, "base", **result(10.0, 8.0)),
        {"workload": "a", "seed": 1, "side": "change", "returncode": 1, "error": "boom"},
        run("a", 2, "base", **result(11.0, 8.0)), run("a", 2, "change", **result(9.0, 8.0, False)),
        run("b", 1, "base", **result(1.0, 1.0)), run("b", 1, "change", **result(2.0, 1.0)),
    ]
    out = summarise(runs, METRICS)
    assert list(out) == ["a", "b"]
    assert not out["a"]["all_correct"] and out["b"]["all_correct"]
    assert out["a"]["rate"]["pairs"] == 1 and out["a"]["rate"]["change"] == [9.0]
    assert out["b"]["rate"]["change_wins"] == 1
