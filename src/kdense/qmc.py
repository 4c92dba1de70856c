"""Scrambled Sobol' points in up to three dimensions.

``Sobol(d, entropy)`` draws Joe and Kuo's Sobol' points at 30 bits with a
left linear matrix scramble of each direction number and a digital random
shift (LMS + shift; Owen, "Scrambling Sobol' and Niederreiter-Xing
points", 1998), in Gray-code order.  The bits of the scramble are drawn in
scipy's order, the shift (d, 30) then the matrices (d, 30, 30), so scipy's
``qmc.Sobol`` given the same bits draws the same points.

The bits come from SplitMix64 (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014), seeded by folding the
entropy's 64-bit words through its mix: one engine needs at most 44
outputs, one vectorized uint64 expression.
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

MASK64 = (1 << 64) - 1
# SplitMix64's increment (the golden ratio's 64 fractional bits) and mix
GAMMA = 0x9E3779B97F4A7C15
MIX_A, MIX_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(z):
    """SplitMix64's output function on a uint64 array."""
    z = (z ^ z >> 30) * MIX_A
    z = (z ^ z >> 27) * MIX_B
    return z ^ z >> 31


def _splitmix(state, n):
    """The first n outputs of SplitMix64 from state, as uint64: output k
    is mix(state + k GAMMA), k = 1, ..., n."""
    k = np.arange(1, n + 1, dtype=np.uint64)
    return _mix(np.uint64(state) + k * GAMMA)


def _bits(entropy, n):
    """n random bits, as 0/1 uint32s, of the entropy: a sequence of
    non-negative ints.  Each 64-bit word of an int, least significant
    first, is xor-ed into the next SplitMix64 step of one seed; the bits
    are those of the outputs from that seed, least significant first."""
    seed = np.zeros(1, dtype=np.uint64)
    for v in entropy:
        if not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError(f"entropy must be non-negative integers, "
                             f"not {v!r}")
        v = int(v)
        for shift in range(0, max(v.bit_length(), 1), 64):
            seed = _mix((seed + GAMMA) ^ (v >> shift & MASK64))
    words = _splitmix(seed[0], -(-n // 64)).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n].astype(
        np.uint32)


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

    ``entropy`` is a sequence of non-negative ints that seeds the scramble
    bits.  ``random`` and ``random_base2`` continue the sequence from the
    points drawn so far.
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
        if not isinstance(m, (int, np.integer)) or m < 0:
            raise ValueError(f"the base-2 exponent must be a non-negative "
                             f"integer, not {m!r}")
        total = self.num_generated + 2 ** m
        if total & (total - 1):
            raise ValueError("random_base2 keeps the number of points drawn "
                             "a power of 2")
        return self.random(2 ** m)
