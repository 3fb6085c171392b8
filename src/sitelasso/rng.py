"""numpy's ``default_rng(seed)`` stream, bit for bit, for the two draws the package makes.

``make_splits`` draws each training set with ``choice(n, k, replace=False)``
and the collinearity filter breaks ties with ``integers(2)``. Both follow
numpy 2.x's ``np.random.default_rng(seed)``: ``SeedSequence`` seeding, the
PCG64 generator (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", HMC-CS-2014-0905:
a 128-bit LCG with the XSL-RR output) and Lemire's bounded integers ("Fast
Random Integer Generation in an Interval", ACM TOMACS 29(1), 2019). Importing
``numpy.random`` for them would load it, and through ``secrets`` and ``hmac``
OpenSSL, on every run; this copy costs a few ms of Python instead.
"""

from .errors import ConfigError

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed):
    """PCG64's 128-bit (state, sequence) seed from ``SeedSequence(seed)``.

    ``generate_state(4, uint64)`` gives four words; each pair is one 128-bit
    number, high word first. Seeds of any length are hashed in as 32-bit words.
    """
    entropy = [seed & _M32]  # 32-bit words, least significant first
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    u64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class DefaultRng:
    """The stream of ``np.random.default_rng(seed)``, for a seed >= 0."""

    def __init__(self, seed):
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        initstate, initseq = _seed_words(int(seed))
        self._inc = (initseq << 1 | 1) & _M128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _M128
        self._high = None  # high half of the last 64-bit draw, not yet used

    def _next64(self):
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self):
        if self._high is not None:
            high, self._high = self._high, None
            return high
        x = self._next64()
        self._high = x >> 32
        return x & _M32

    def _bounded(self, high):
        """Lemire's draw on [0, high]: 32-bit draws while ``high`` fits in 32 bits."""
        if high == 0:
            return 0
        draw, bits = (self._next32, 32) if high <= _M32 else (self._next64, 64)
        excl = high + 1
        mask = (1 << bits) - 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (1 << bits) % excl
            while m & mask < threshold:
                m = draw() * excl
        return m >> bits

    def integers(self, high):
        """``integers(high)``: one int in [0, high)."""
        return self._bounded(high - 1)

    def choice(self, n, k):
        """``choice(n, k, replace=False)``: k distinct ints in [0, n), in numpy's order."""
        if n > 10_000 and k > n // 50:
            # the last k entries of a Fisher-Yates shuffle stopped at n - k
            idx = list(range(n))
            self._shuffle(idx, max(n - k, 1))
            return idx[n - k:]
        # Floyd's algorithm, then a full shuffle of the sample
        idx = []
        seen = set()
        for j in range(n - k, n):
            value = self._bounded(j)
            if value in seen:
                value = j
            seen.add(value)
            idx.append(value)
        self._shuffle(idx, 1)
        return idx

    def _shuffle(self, data, first):
        """Swap each of data[len - 1], ..., data[first] with a draw at or below it."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]
