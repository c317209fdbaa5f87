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
                         "base_median": 20.0, "base_q1": 15.0, "base_q3": 30.0,
                         "change": [12.0, 30.0, 35.0], "change_median": 30.0,
                         "change_q1": 21.0, "change_q3": 32.5, "beyond_base_iqr": False}
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


def test_quartiles_and_whether_the_median_shift_beats_the_base_spread():
    rates = [(10.0, 45.0), (20.0, 55.0), (30.0, 65.0), (40.0, 75.0), (50.0, 85.0)]
    runs = [run("w", seed, side, **result(rate, 5.0))
            for seed, pair in enumerate(rates) for side, rate in zip(("base", "change"), pair)]
    s = summarise(runs, METRICS)["w"]["rate"]
    assert (s["base_q1"], s["base_median"], s["base_q3"]) == (20.0, 30.0, 40.0)
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == (55.0, 65.0, 75.0)
    assert s["beyond_base_iqr"]  # 35 apart against a base spread of 20
    # equal samples: no spread and no shift; a side with one sample has it for both quartiles
    rss = summarise(runs[:2], METRICS)["w"]["rss"]
    assert (rss["base_q1"], rss["base_q3"], rss["beyond_base_iqr"]) == (5.0, 5.0, False)
    only_base = summarise(runs[:1], METRICS)["w"]["rate"]
    assert (only_base["change_q1"], only_base["beyond_base_iqr"]) == (None, None)
