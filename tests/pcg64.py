"""numpy's default stream, ``np.random.default_rng(seed)`` for an int seed, in pure
Python integers: ``SeedSequence``'s entropy pool and ``generate_state``, PCG64's
seeding and XSL-RR 128/64 output (O'Neill 2014, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms"), ``random()`` as the top 53 bits
of a 64-bit draw, and ``advance`` by LCG jump-ahead.  It shares no code with
numpy, so a test that compares the two tells a moved stream from any other
change of the output."""

MASK32 = 2**32 - 1
MASK64 = 2**64 - 1
MASK128 = 2**128 - 1
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier

# SeedSequence's hash constants; its pool holds 4 words of 32 bits
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16


class _Hash:
    """SeedSequence's multiplicative hash, whose constant moves on at every use."""

    def __init__(self, init, mult):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value ^= self.const
        self.const = (self.const * self.mult) & MASK32
        value = (value * self.const) & MASK32
        return value ^ (value >> XSHIFT)


def _mix(x, y):
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ (result >> XSHIFT)


def seed_words(seed, n_words):
    """``SeedSequence(seed).generate_state(n_words, np.uint64)`` for an int seed >= 0."""
    entropy = []
    while True:  # the seed's 32-bit words, least significant first, at least one
        entropy.append(seed & MASK32)
        seed >>= 32
        if not seed:
            break
    hashmix = _Hash(INIT_A, MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _Hash(INIT_B, MULT_B)
    words = [out(pool[i % POOL_SIZE]) for i in range(2 * n_words)]
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


class PCG64:
    """The PCG64 stream of ``np.random.default_rng(seed)``; ``state`` and ``inc`` are
    the 128-bit integers of numpy's ``bit_generator.state["state"]``."""

    def __init__(self, seed):
        s0, s1, i0, i1 = seed_words(seed, 4)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & MASK128
        self.state = 0
        self._step()
        self.state = (self.state + (s0 << 64 | s1)) & MASK128
        self._step()

    def _step(self):
        self.state = (self.state * MULTIPLIER + self.inc) & MASK128

    def next64(self):
        """Step, then the XSL-RR output of the new state."""
        self._step()
        rot = self.state >> 122
        x = ((self.state >> 64) ^ self.state) & MASK64
        return ((x >> rot) | (x << (64 - rot))) & MASK64

    def random(self):
        """A double in [0, 1), as ``Generator.random`` makes it."""
        return (self.next64() >> 11) * 2.0**-53

    def advance(self, delta):
        """Jump ``delta`` steps ahead in O(log delta) (Brown, "Random Number Generation
        with Arbitrary Strides", 1994): the composed step is x -> mult * x + plus."""
        mult, plus, acc_mult, acc_plus = MULTIPLIER, self.inc, 1, 0
        while delta:
            if delta & 1:
                acc_mult = (acc_mult * mult) & MASK128
                acc_plus = (acc_plus * mult + plus) & MASK128
            plus = ((mult + 1) * plus) & MASK128
            mult = (mult * mult) & MASK128
            delta >>= 1
        self.state = (acc_mult * self.state + acc_plus) & MASK128
