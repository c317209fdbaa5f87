"""Golden traces: pinned SHA-256 hashes of whole runs.

Each case runs one small config end to end and hashes two outputs: the
``emit_csv`` text of its time series and the bytes of the final wish matrix.
A change that alters any draw, any copy or any emitted digit changes a hash,
so a speed-up must leave every pin as it is.  The cases cover both modes,
leaders with and without an aligned brand, uneven shop counts, leader and
shop batches above the batched-applier threshold, ``p_unknown`` of 0 and 0.9,
and ``record_every = 3``.

The ensemble cases pin the ``emit_summary`` text of whole ensembles, which
reads each run's ``converged_at`` and final dominant brand: runs to
consensus, runs that hit ``max_sweeps``, and leaders plus shops recorded
every sweep and every fifth sweep.
"""

import hashlib
import io

import pytest

from brandsim import Mode, SimConfig, emit_csv, emit_summary, ensemble, run
from brandsim.dynamics import _MIN_BATCH

EQ, HI = Mode.EQUALITY, Mode.HIERARCHY

# name: (config, sha256 of emit_csv, sha256 of the final wish_matrix bytes)
GOLDEN = {
    "equality_plain": (
        dict(N=3, K=120, M=4, mode=EQ, seed=1, max_sweeps=40),
        "1f3d09b73b7920c2d18cb4852209b5f8199ef495d23402a293c9358f5fc52f52",
        "d869dd1dff2d556d9cb584ae4a8585e414fdbcc488e81bd362a88a39aea0e4bc",
    ),
    "hierarchy_plain": (
        dict(N=3, K=150, M=5, mode=HI, seed=2, p_copy=0.8, max_sweeps=30),
        "4f4f2efd1ee9d2f4d2254e9a755b612b78ac47bbfafdcaad19992f527d5210d9",
        "75d2206d0a244dc784428c8f4f953f9eeb3432da0c7ba7d6bfdd67c95b9e1374",
    ),
    "hierarchy_leader_batch": (
        dict(N=4, K=300, M=6, mode=HI, seed=3, leader_count=4, leader_pupils=80,
             max_sweeps=12),
        "09c0d6da3828f93afd6bc871097f0c58e22e180e42b2a3fe2de2d75eabb7590b",
        "7e2f4746bbc475932826622b9048833bc582f16f5cc4a35e4cac91746e1a5d4e",
    ),
    "equality_aligned_leaders": (
        dict(N=3, K=100, M=4, mode=EQ, seed=4, p_copy=0.6, leader_count=3,
             leader_pupils=20, aligned_leader_brand=1, max_sweeps=40),
        "8e88f824b3b82616098ce3594506393aaa36d6b7f75c904b9385b19da9a09ffc",
        "4cc4894b901590aaac83a471d6e1b7e8b0d44345b9fa8688fd4ae8629c55958e",
    ),
    "hierarchy_shop_batch": (
        dict(N=3, K=200, M=5, mode=HI, seed=5, shop_counts=(1, 3, 5),
             shop_teach_rate=40.0, max_sweeps=15),
        "03024dbf5611632aa8f9d84942ee6bf60550b463e6fa8a3455b5bb5102e79a02",
        "53a4063261cd6accb1c42aad7d8866cafd1de1ce64446ec07421469f0f7cbca5",
    ),
    "equality_small_shops": (
        dict(N=2, K=50, M=3, mode=EQ, seed=6, p_copy=0.7, shop_counts=(2, 1),
             shop_teach_rate=0.75, max_sweeps=60),
        "23bddd863164b163708ac781249621051a0cd1a0f0e03a14f011ae9b9d3266a3",
        "b959ce4eb9b89c71aca2d99245799dee73c4a048d05f860ecfd462d5577a34e3",
    ),
    "all_channels_mostly_unknown": (
        dict(N=4, K=80, M=4, mode=HI, seed=7, p_unknown=0.9, leader_count=2,
             leader_pupils=15, aligned_leader_brand=0, shop_counts=(1, 2, 1, 4),
             shop_teach_rate=3.0, max_sweeps=40),
        "0f867b25c7b5ccd5ea29fe346dfb1f846cd0cbd4c0f46f6e72bd69c00a1ebd12",
        "e481ece253de10e3001c6ff556136998d618dc07329f42e1218aa76ee6dd8535",
    ),
    "no_unknowns_record_every_3": (
        dict(N=2, K=60, M=3, mode=HI, seed=8, p_unknown=0.0, leader_count=1,
             leader_pupils=10, shop_counts=(3, 1), shop_teach_rate=1.5,
             max_sweeps=50, record_every=3),
        "a326e8b2cf3ecc168a5c18cb6e6b239df355bce407e05dbf8096a6ebcec34be3",
        "bf0dc68fa6ed2fbada82193a9255f06910f8e67a538cb52439d41b7603f685b4",
    ),
    "equality_to_consensus": (
        dict(N=2, K=8, M=2, mode=EQ, seed=9, max_sweeps=500),
        "dd8e190b53fe3d5771946168c202945b2931d7c772fdd0928547a8dc0231061a",
        "4bdd72837d8d83e2b37253d3f137fd040de514e29fe6fddd8c6648b98c2deb76",
    ),
}


_LEADERS_SHOPS = dict(N=3, K=30, M=3, mode=EQ, seed=13, p_copy=0.7, leader_count=2,
                      leader_pupils=4, shop_counts=(1, 2, 1), shop_teach_rate=0.5,
                      epsilon=0.02, max_sweeps=400)

# name: (config, runs, sha256 of emit_summary)
GOLDEN_ENSEMBLES = {
    "equality_k50_to_consensus": (
        dict(N=3, K=50, M=3, mode=EQ, seed=11, max_sweeps=5000),
        3,
        "ecbcf70583542762a910dc4f3e2b6fdcee49af66d87a7386258e534dc994c126",
    ),
    "hierarchy_frozen_max_sweeps": (
        dict(N=3, K=25, M=3, mode=HI, seed=12, p_copy=0.8, max_sweeps=300),
        3,
        "504bd020f84f0def92d73a5a9d541a0c75e39c2112e05a151bbf8112a6c2b9a2",
    ),
    "leaders_shops_record_every_1": (
        dict(_LEADERS_SHOPS, record_every=1),
        4,
        "313caede738bf291c3c601b96b69a67109ed231530a1c6ec37382ffebd900708",
    ),
    "leaders_shops_record_every_5": (
        dict(_LEADERS_SHOPS, record_every=5),
        4,
        "313caede738bf291c3c601b96b69a67109ed231530a1c6ec37382ffebd900708",
    ),
}


def run_hashes(config: dict) -> tuple[str, str]:
    result = run(SimConfig(**config))
    sink = io.StringIO()
    emit_csv(result.records, sink, n_brands=config["N"])
    csv_hash = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
    wish_hash = hashlib.sha256(result.final.wish_matrix.tobytes()).hexdigest()
    return csv_hash, wish_hash


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_matches_golden_hashes(name):
    config, csv_hash, wish_hash = GOLDEN[name]
    assert run_hashes(config) == (csv_hash, wish_hash)


def test_cases_reach_the_batched_applier():
    leader_events = max(
        c.get("leader_count", 0) * c.get("leader_pupils", 0) for c, _, _ in GOLDEN.values()
    )
    shop_events = max(
        sum(round(c.get("shop_teach_rate", 0.0) * s) for s in c.get("shop_counts", ()))
        for c, _, _ in GOLDEN.values()
    )
    assert leader_events >= _MIN_BATCH
    assert shop_events >= _MIN_BATCH


def summary_hash(config: dict, runs: int, parallel: int = 1) -> str:
    sink = io.StringIO()
    emit_summary(ensemble(SimConfig(**config), runs, parallel), sink)
    return hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_ENSEMBLES))
def test_ensemble_matches_golden_hash(name):
    config, runs, digest = GOLDEN_ENSEMBLES[name]
    assert summary_hash(config, runs) == digest


def test_parallel_ensemble_matches_golden_hash():
    config, runs, digest = GOLDEN_ENSEMBLES["leaders_shops_record_every_1"]
    assert summary_hash(config, runs, parallel=2) == digest
