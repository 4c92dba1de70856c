"""Scrambled Sobol' points in up to three dimensions.

``Sobol(d, entropy)`` draws the same points as scipy's
``scipy.stats.qmc.Sobol(d, scramble=True, seed=rng)`` for numpy's
Generator ``rng = default_rng(entropy)``, bit for bit: Joe and Kuo's
direction numbers at 30 bits, a left linear matrix scramble of each of
them and a digital random shift (LMS + shift; Owen, "Scrambling Sobol' and
Niederreiter-Xing points", 1998).  Points are generated in Gray-code order.

The random bits are the ones scipy draws from that Generator, computed
here without numpy's random module: the child ``SeedSequence`` scipy
spawns, the PCG64 generator it seeds (XSL-RR 128/64; O'Neill, "PCG: a
family of simple fast space-efficient statistically good algorithms for
random number generation", 2014), and numpy's bounded draw of a 0 or 1,
which is the top bit of each 32-bit half of an output.
"""

import functools

import numpy as np

BITS = 30
# Joe and Kuo's primitive polynomials (leading and trailing bit included)
# and initial direction numbers; the first dimension is van der Corput's
POLYNOMIALS = (1, 3, 7)
INITIAL = ((), (1,), (1, 3))
MAXDIM = len(POLYNOMIALS)
# random bits per dimension: the digital shift, then the LMS matrix
DRAWS = BITS + BITS * BITS

MASK32 = (1 << 32) - 1
MASK128 = (1 << 128) - 1
# numpy's SeedSequence: pool size and hashmix / mix constants
POOL = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy):
    """Non-negative ints as 32-bit words, each least significant first."""
    words = []
    for v in entropy:
        if not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError(f"entropy must be non-negative integers, "
                             f"not {v!r}")
        v = int(v)
        words.append(v & MASK32)
        while v > MASK32:
            v >>= 32
            words.append(v & MASK32)
    return words


def _pcg_state(entropy):
    """PCG64's (state, increment) in ``default_rng(entropy).spawn(1)[0]``."""
    # the child's spawn key (0,) follows the run entropy, which a spawn key
    # pads with zeros to the pool size
    words = _entropy_words(entropy)
    words += [0] * (POOL - len(words)) + [0]
    h = INIT_A

    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * MULT_A & MASK32
        value = value * h & MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (MIX_L * x - MIX_R * y) & MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in words[:POOL]]
    for src in range(POOL):
        for dst in range(POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[POOL:]:
        for dst in range(POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(4, uint64): 8 words, read as little-endian uint64s
    h, state = INIT_B, 0
    for i in range(8):
        value = pool[i % POOL] ^ h
        h = h * MULT_B & MASK32
        value = value * h & MASK32
        state |= (value ^ value >> 16) << 32 * i
    u = [(state >> 64 * i) & ((1 << 64) - 1) for i in range(4)]
    seed, inc = u[0] << 64 | u[1], (u[2] << 65 | u[3] << 1 | 1) & MASK128
    # numpy's seeding: from state 0, step, add the seed, step
    return ((inc + seed) * PCG_MULT + inc) & MASK128, inc


@functools.cache
def _jumps():
    """(16, n) float: the 16-bit limbs of A_k (rows 0-7) and B_k (rows
    8-15), where k LCG steps take state s to A_k s + B_k inc, for the
    n = MAXDIM * DRAWS / 2 outputs the largest engine uses."""
    n = MAXDIM * DRAWS // 2
    a, b, out = 1, 0, []
    for _ in range(n):
        a, b = a * PCG_MULT & MASK128, (b * PCG_MULT + 1) & MASK128
        out.append(a.to_bytes(16, "little") + b.to_bytes(16, "little"))
    limbs = np.frombuffer(b"".join(out), "<u2").reshape(n, 16).T.astype(float)
    limbs.flags.writeable = False
    return limbs


def _shifted_words(x):
    """(8, 4) float: row i holds the 32-bit words of x 2^(16 i) mod 2^128."""
    raw = b"".join(((x << 16 * i) & MASK128).to_bytes(16, "little")
                   for i in range(8))
    return np.frombuffer(raw, "<u4").reshape(8, 4).astype(float)


def _bits(entropy, n):
    """The first n draws of ``integers(0, 2, dtype=np.uint32)`` from
    ``default_rng(entropy).spawn(1)[0]``.

    Each PCG64 output is two draws, its low 32-bit half first; Lemire's
    bounded draw for range 2 rejects nothing and returns the half's top
    bit.  All states A_k s + B_k inc come from one product of their 16-bit
    limbs with the 32-bit words of the shifted s and inc: every sum stays
    below 16 * 2^48, so float64 holds it exactly.
    """
    state, inc = _pcg_state(entropy)
    outputs = (n + 1) // 2
    coef = np.vstack([_shifted_words(state), _shifted_words(inc)])
    words = (coef.T @ _jumps()[:, :outputs]).astype(np.uint64)
    # carry each word's excess over 32 bits up; the cast to 32 bits then
    # drops it, and the top word's excess is the part past 2^128
    for i in range(3):
        words[i + 1] += words[i] >> 32
    lo, hi = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").T
    # XSL-RR: hi ^ lo rotated right by the top 6 bits of the state
    x, rot = hi ^ lo, hi >> 58
    out = (x >> rot | x << (-rot & 63)).astype("<u8", copy=False)
    return (out.view("<u4")[:n] >> 31).astype(np.uint32)


def _direction_numbers(d):
    """(d, BITS) direction numbers, the most significant of BITS bits first."""
    v = np.zeros((d, BITS), dtype=np.uint32)
    for k in range(d):
        p = POLYNOMIALS[k]
        deg = p.bit_length() - 1
        row = list(INITIAL[k]) if k else [1] * BITS
        # Bratley and Fox's recurrence, Algorithm 659
        for j in range(len(row), BITS):
            new = row[j - deg]
            for i in range(deg):
                if (p >> (deg - 1 - i)) & 1:
                    new ^= row[j - i - 1] << (i + 1)
            row.append(new)
        v[k] = [r << (BITS - 1 - j) for j, r in enumerate(row)]
    return v


@functools.cache
def _direction_bits(d):
    """(d, BITS, BITS) float: [k, p, j] is bit p, the most significant
    first, of direction number j of dimension k."""
    shifts = np.arange(BITS - 1, -1, -1, dtype=np.uint32)
    bits = ((_direction_numbers(d)[:, None, :] >> shifts[:, None]) & 1
            ).astype(float)
    bits.flags.writeable = False
    return bits


def _scramble(ltm):
    """The direction numbers mapped by the bit matrices ltm (d, BITS, BITS):
    bit p of number j of dimension k is the parity of row p of ltm[k] and
    the bits of the unscrambled number."""
    parity = (ltm @ _direction_bits(len(ltm))).astype(np.uint32) & 1
    return 2 ** np.arange(BITS - 1, -1, -1, dtype=np.uint32) @ parity


class Sobol:
    """Engine for scrambled Sobol' points in [0, 1)^d, d <= 3.

    ``entropy`` is a sequence of non-negative ints; the points are scipy's
    for numpy's Generator ``default_rng(entropy)``.  ``random`` and
    ``random_base2`` continue the sequence from the points drawn so far.
    """

    def __init__(self, d, entropy):
        if not 1 <= d <= MAXDIM:
            raise ValueError(f"Sobol' points are provided for 1 to {MAXDIM} "
                             f"dimensions, not {d}")
        bits = _bits(entropy, d * DRAWS)
        powers = 2 ** np.arange(BITS, dtype=np.uint32)
        self._shift = bits[:d * BITS].reshape(d, BITS) @ powers
        # lower triangular with a unit diagonal
        ltm = np.tri(BITS, k=-1) * bits[d * BITS:].reshape(d, BITS, BITS)
        self._v = _scramble(ltm + np.eye(BITS))
        self._quasi = self._shift
        self.num_generated = 0

    def random(self, n=1):
        """The next n points, as an (n, d) float array."""
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"the number of points must be a non-negative "
                             f"integer, not {n!r}")
        start = self.num_generated
        if start + n > 2 ** BITS:
            raise ValueError(f"at most 2**{BITS} points can be drawn")
        if n == 0:
            return np.empty((0, len(self._v)))
        i = np.arange(start, start + n)
        # point i is point i - 1 with direction number ctz(i) xor-ed in;
        # frexp(i & -i) returns ctz(i) + 1 as its exponent
        rows = self._v[:, np.frexp(i & -i)[1] - 1].T
        rows[0] = self._shift if start == 0 else rows[0] ^ self._quasi
        quasi = np.bitwise_xor.accumulate(rows, axis=0)
        self._quasi = quasi[-1]
        self.num_generated += n
        return quasi * 2.0 ** -BITS

    def random_base2(self, m):
        """The next 2**m points; the total drawn must stay a power of 2."""
        total = self.num_generated + 2 ** m
        if total & (total - 1):
            raise ValueError("random_base2 keeps the number of points drawn "
                             "a power of 2")
        return self.random(2 ** m)
