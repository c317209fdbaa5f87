"""numpy's default stream against the pure-Python PCG64 of ``pcg64.py``.

The goldens hash the output, so a numpy that moves the stream fails them with a
bare hash mismatch.  When they fail and this passes, the stream held and the
cause lies elsewhere, such as a summation order; when this fails too, the
stream moved.
"""

import numpy as np

from brandsim import Mode, sweep
from brandsim.harness import derive_child_seed
from pcg64 import PCG64
from populations import make_population, rates

#: plain seeds at both ends of 64 bits and one wider, then an ensemble's child seeds
SEEDS = [0, 7, 2024, 2**64 - 1, 2**73 + 5] + [derive_child_seed(42, i) for i in range(3)]
DRAWS = 100
STRIDE = 16250  # 65 sweeps of 5K uniforms at K = 50
K = 50
SWEEPS = 20  # blocks of 1, 2, 4 and 8 sweeps, then 5 of a block of 16


def pcg_state(rng):
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


def test_numpy_stream_matches_pure_python_pcg64():
    for seed in SEEDS:
        rng, ref = np.random.default_rng(seed), PCG64(seed)
        assert pcg_state(rng) == (ref.state, ref.inc), seed
        assert rng.random(DRAWS).tolist() == [ref.random() for _ in range(DRAWS)], seed
        rng.bit_generator.advance(STRIDE)
        ref.advance(STRIDE)
        assert pcg_state(rng) == (ref.state, ref.inc), seed
        assert rng.random() == ref.random(), seed
    # pair-only sweeps draw their pair events in blocks ahead, rewind and advance;
    # each leaves the generator exactly 5K uniforms further on
    pop = make_population(np.random.default_rng(1), K=K, N=3, jmax=(2, 3, 1))
    rng, ref = np.random.default_rng(SEEDS[-1]), PCG64(SEEDS[-1])
    for _ in range(SWEEPS):
        sweep(pop, Mode.EQUALITY, rates(p_copy=0.7), rng)
    assert pop._pairs_ahead.sweeps == 16
    ref.advance(5 * K * SWEEPS)
    assert pcg_state(rng) == (ref.state, ref.inc)
    assert rng.random() == ref.random()
