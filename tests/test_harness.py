import dataclasses
import io
import math

import numpy as np
import pytest

import brandsim.harness as harness
from brandsim import (
    ConfigurationError,
    EnsembleSummary,
    Mode,
    SimConfig,
    TimeSeriesRecord,
    derive_child_seed,
    emit_csv,
    emit_summary,
    ensemble,
    fluctuation,
    run,
    sweep_param,
)


def cfg(**kw):
    base = dict(
        N=2, K=12, M=3, mode=Mode.EQUALITY, seed=321,
        p_copy=1.0, p_unknown=0.25, max_sweeps=150,
    )
    base.update(kw)
    return SimConfig(**base)


def parse_csv(text):
    """Independent parse-back of the emitted CSV."""
    lines = text.splitlines()
    header = lines[0].split(",")
    n = len(header) - 3
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        records.append(
            TimeSeriesRecord(
                t=int(parts[0]),
                fluctuation=float(parts[1]),
                shares=tuple(float(p) for p in parts[2 : 2 + n]),
                dominant=int(parts[-1]),
            )
        )
    return header, records


class TestDeriveChildSeed:
    # reference values from the published splitmix64 sequence: with the
    # golden-gamma increment, derive(base, i) for i = 1, 2, ... equals the
    # stream of a splitmix64 generator seeded at `base`
    def test_reference_vectors(self):
        assert derive_child_seed(0, 1) == 0xE220A8397B1DCDAF
        assert derive_child_seed(0, 2) == 0x6E789E6AA1B965F4
        assert derive_child_seed(0, 3) == 0x06C45D188009454F
        assert derive_child_seed(42, 1) == 0xBDD732262FEB6E95
        assert derive_child_seed(42, 2) == 0x28EFE333B266F103
        assert derive_child_seed(42, 0) == 0xA759EA27D4727622

    def test_pure_function(self):
        assert derive_child_seed(123, 45) == derive_child_seed(123, 45)

    def test_distinct_for_adjacent_indices(self):
        rng = np.random.default_rng(0)
        for s in rng.integers(0, 1 << 64, size=10_000, dtype=np.uint64).tolist():
            assert derive_child_seed(s, 0) != derive_child_seed(s, 1)

    def test_no_duplicates_over_many_indices(self):
        base = 20260810
        seen = {derive_child_seed(base, i) for i in range(100_001)}
        assert len(seen) == 100_001

    def test_output_is_u64(self):
        for i in range(100):
            v = derive_child_seed((1 << 64) - 1, i)
            assert 0 <= v < (1 << 64)


class TestRun:
    def test_two_records_for_single_sweep(self):
        result = run(cfg(max_sweeps=1, record_every=1))
        assert [r.t for r in result.records] == [0, 1]

    def test_frozen_dynamics_never_converge(self):
        result = run(cfg(p_copy=0.0, max_sweeps=50))
        assert result.converged_at is None
        values = {r.fluctuation for r in result.records}
        assert len(values) == 1
        assert result.final.t == 50

    def test_identical_runs_produce_identical_csv(self):
        blobs = []
        for _ in range(2):
            sink = io.StringIO()
            emit_csv(run(cfg()).records, sink)
            blobs.append(sink.getvalue())
        assert blobs[0] == blobs[1]

    def test_record_count_formula(self):
        for every in (1, 3, 7, 10):
            result = run(cfg(seed=99, max_sweeps=40, record_every=every, p_copy=0.3))
            t_final = result.final.t
            assert t_final > 0
            expected = 1 + math.ceil(t_final / every)
            assert len(result.records) == expected
            ts = [r.t for r in result.records]
            assert len(set(ts)) == len(ts)
            assert ts[-1] == t_final

    def test_converged_run_reports_sweep_index(self):
        result = run(cfg(K=6, M=1, seed=5, max_sweeps=5000))
        assert result.converged_at is not None
        assert result.converged_at == result.final.t
        assert result.records[-1].fluctuation < 1e-12

    def test_initially_consensual_population(self):
        # all-unknown wishes are identical from the start
        result = run(cfg(p_unknown=1.0))
        assert result.converged_at == 0
        assert len(result.records) == 1
        assert result.records[0].fluctuation == 0.0


class TestEnsemble:
    def test_rejects_zero_runs(self):
        with pytest.raises(ConfigurationError):
            ensemble(cfg(), 0)

    @pytest.mark.parametrize(
        "name,value",
        [("runs", True), ("runs", 2.5), ("runs", "3"), ("runs", None),
         ("parallel", "2"), ("parallel", None), ("parallel", 1.5)],
    )
    def test_rejects_non_integer_counts(self, name, value):
        counts = {"runs": 2, "parallel": 1, name: value}
        with pytest.raises(ConfigurationError, match=name):
            ensemble(cfg(), **counts)
        with pytest.raises(ConfigurationError, match=name):
            sweep_param(cfg(), "p_copy", [0.5], **counts)

    @pytest.mark.parametrize("parallel", [0, -2])
    def test_parallel_below_two_runs_serially(self, parallel, monkeypatch):
        c = cfg(K=8, M=2, max_sweeps=300)
        serial = ensemble(c, 2)

        def no_pool(*args, **kwargs):
            raise AssertionError("ensemble started a process pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        assert ensemble(c, 2, parallel=parallel) == serial

    def test_single_run_summary(self):
        c = cfg(K=6, M=1, seed=7, max_sweeps=5000)
        summary = ensemble(c, 1)
        direct = run(dataclasses.replace(c, seed=derive_child_seed(c.seed, 0)))
        assert summary.runs == 1
        if direct.converged_at is not None:
            assert summary.consensus_fraction == 1.0
            assert summary.mean_sweeps_to_consensus == direct.converged_at
            assert summary.dominant_brand_histogram[direct.records[-1].dominant] == 1.0
        else:
            assert summary.consensus_fraction == 0.0

    def test_repeatable(self):
        c = cfg(K=8, M=2, max_sweeps=400)
        assert ensemble(c, 5) == ensemble(c, 5)

    def test_parallel_matches_serial(self):
        c = cfg(K=8, M=2, max_sweeps=300)
        serial = ensemble(c, 4, parallel=1)
        parallel = ensemble(c, 4, parallel=2)
        assert serial == parallel

    def test_pool_not_started_for_a_single_run(self, monkeypatch):
        # a pool cannot keep more workers busy than there are runs
        c = cfg(K=8, M=2, max_sweeps=300)
        serial = ensemble(c, 1)

        def no_pool(*args, **kwargs):
            raise AssertionError("ensemble started a process pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        assert ensemble(c, 1, parallel=8) == serial

    def test_histogram_sums_to_one_over_converged(self):
        c = cfg(K=6, M=1, max_sweeps=8000, seed=13)
        summary = ensemble(c, 6)
        if summary.consensus_fraction > 0:
            assert sum(summary.dominant_brand_histogram) == pytest.approx(1.0, abs=1e-12)
        else:
            assert set(summary.dominant_brand_histogram) == {0.0}

    def test_no_convergence_leaves_mean_empty(self):
        summary = ensemble(cfg(p_copy=0.0, max_sweeps=5), 3)
        assert summary.consensus_fraction == 0.0
        assert summary.mean_sweeps_to_consensus is None
        assert set(summary.dominant_brand_histogram) == {0.0}


class TestRunStats:
    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("changes, converged_at", [
        (dict(N=3, K=8, M=2, seed=3, max_sweeps=500), 32),
        (dict(N=3, seed=1, max_sweeps=20), None),
        (dict(p_unknown=1.0), 0),  # every wish unknown: consensus at t=0
    ], ids=["converges", "hits_max_sweeps", "starts_in_consensus"])
    def test_matches_the_full_run(self, changes, converged_at, record_every):
        c = cfg(record_every=record_every, **changes)
        r = run(c)
        assert r.converged_at == converged_at
        assert harness._run_stats(c) == (r.converged_at, r.records[-1].dominant)


class TestDispersionSkip:
    def test_unrecorded_sweeps_skip_the_full_dispersion(self, monkeypatch):
        c = cfg(N=3, K=50, M=5, seed=11, max_sweeps=80)
        every = run(c)
        calls = []
        monkeypatch.setattr(harness, "fluctuation",
                            lambda pop: calls.append(pop.t) or fluctuation(pop))
        sparse = run(dataclasses.replace(c, record_every=80))
        assert every.converged_at is None and sparse.converged_at is None
        assert sparse.records[-1] == every.records[-1]
        assert [r.t for r in sparse.records] == [0, 80]
        assert len(calls) <= 5

    @pytest.mark.parametrize("record_every", [7, 500])
    def test_converged_at_and_last_record_unchanged(self, record_every):
        c = cfg(N=3, K=8, M=2, seed=3, max_sweeps=500)
        every = run(c)
        sparse = run(dataclasses.replace(c, record_every=record_every))
        assert every.converged_at == sparse.converged_at == 32
        assert sparse.records[-1] == every.records[-1]


class TestSweepParam:
    def test_empty_values(self):
        assert sweep_param(cfg(), "p_copy", []) == []

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            sweep_param(cfg(), "epsilon", [1e-6])

    def test_frozen_value_never_converges(self):
        rows = sweep_param(cfg(max_sweeps=30), "p_copy", [0.0], runs=3)
        assert len(rows) == 1
        value, summary = rows[0]
        assert value == 0.0
        assert summary.consensus_fraction == 0.0

    def test_single_value_equals_direct_ensemble(self):
        c = cfg(max_sweeps=60)
        rows = sweep_param(c, "p_copy", [0.5], runs=4)
        direct = ensemble(
            SimConfig(**{**c.__dict__, "p_copy": 0.5}), 4
        )
        assert rows[0][1] == direct

    def test_sweeping_n_resets_shop_counts(self):
        c = cfg(N=2, shop_counts=(3, 4))
        rows = sweep_param(c, "N", [1, 3], runs=1)
        assert len(rows[0][1].dominant_brand_histogram) == 1
        assert len(rows[1][1].dominant_brand_histogram) == 3

    def test_invalid_value_is_config_error(self):
        with pytest.raises(ConfigurationError):
            sweep_param(cfg(), "K", ["many"])
        with pytest.raises(ConfigurationError):
            sweep_param(cfg(), "p_copy", [1.5], runs=1)

    def test_n_beyond_index_range_is_config_error(self):
        with pytest.raises(ConfigurationError):
            sweep_param(cfg(), "N", [10**30])

    def test_string_values_coerced(self):
        rows = sweep_param(cfg(max_sweeps=5), "p_copy", ["0.25"], runs=1)
        assert rows[0][0] == 0.25

    @pytest.mark.parametrize("key,value", [("K", 3.7), ("leader_count", 1.9),
                                           ("p_copy", True)])
    def test_wrong_type_is_rejected_not_truncated(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            sweep_param(cfg(max_sweeps=5), key, [value])

    def test_integer_string_parsed_as_in_a_config_file(self):
        rows = sweep_param(cfg(max_sweeps=5), "K", ["4"])
        assert rows[0][0] == 4 and type(rows[0][0]) is int
        assert rows == sweep_param(cfg(max_sweeps=5), "K", [4])
        with pytest.raises(ConfigurationError, match="K"):
            sweep_param(cfg(max_sweeps=5), "K", ["4.5"])


class TestEmitCsv:
    def test_empty_records_header_only(self):
        sink = io.StringIO()
        emit_csv([], sink, n_brands=2)
        assert sink.getvalue() == "t,fluctuation,share_0,share_1,dominant\n"

    def test_column_count(self):
        rec = TimeSeriesRecord(t=0, fluctuation=0.5, shares=(0.75, 0.25), dominant=0)
        sink = io.StringIO()
        emit_csv([rec], sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split(",")) == 5
        assert len(lines[1].split(",")) == 5

    def test_round_trip_exact(self):
        result = run(cfg(seed=1001, max_sweeps=25, record_every=3, p_copy=0.4))
        sink = io.StringIO()
        emit_csv(result.records, sink)
        header, parsed = parse_csv(sink.getvalue())
        assert header == ["t", "fluctuation", "share_0", "share_1", "dominant"]
        assert parsed == result.records

    def test_seventeen_digit_round_trip(self):
        ugly = 1.0 / 3.0
        rec = TimeSeriesRecord(t=1, fluctuation=ugly, shares=(2 * ugly, ugly), dominant=0)
        sink = io.StringIO()
        emit_csv([rec], sink)
        _, parsed = parse_csv(sink.getvalue())
        assert parsed[0].fluctuation == ugly
        assert parsed[0].shares == (2 * ugly, ugly)


class TestEmitSummary:
    def test_format(self):
        summary = EnsembleSummary(
            runs=4,
            consensus_fraction=0.75,
            mean_sweeps_to_consensus=12.5,
            dominant_brand_histogram=(1.0, 0.0),
        )
        sink = io.StringIO()
        emit_summary(summary, sink)
        assert sink.getvalue() == (
            "runs=4\n"
            "consensus_fraction=0.75\n"
            "mean_sweeps_to_consensus=12.5\n"
            "dominant_hist_0=1\n"
            "dominant_hist_1=0\n"
        )

    def test_empty_mean_when_nothing_converged(self):
        summary = EnsembleSummary(
            runs=2,
            consensus_fraction=0.0,
            mean_sweeps_to_consensus=None,
            dominant_brand_histogram=(0.0,),
        )
        sink = io.StringIO()
        emit_summary(summary, sink)
        assert "mean_sweeps_to_consensus=\n" in sink.getvalue()
