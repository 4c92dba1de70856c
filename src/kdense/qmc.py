"""Scrambled Sobol' points in up to three dimensions.

``Sobol(d, seed)`` draws the same points as scipy's
``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)`` for a numpy Generator
``seed``, bit for bit: Joe and Kuo's direction numbers at 30 bits, a left
linear matrix scramble of each of them and a digital random shift (LMS +
shift; Owen, "Scrambling Sobol' and Niederreiter-Xing points", 1998),
with the random bits drawn in scipy's order from a Generator spawned from
``seed``.  Points are generated in Gray-code order.
"""

import numpy as np

BITS = 30
# Joe and Kuo's primitive polynomials (leading and trailing bit included)
# and initial direction numbers; the first dimension is van der Corput's
POLYNOMIALS = (1, 3, 7)
INITIAL = ((), (1,), (1, 3))
MAXDIM = len(POLYNOMIALS)


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


def _scramble(v, ltm):
    """Each v[k, j] mapped by the bit matrix ltm[k], most significant bit
    first: bit p of the result is the parity of row p of ltm[k] and v[k, j].
    """
    shifts = np.arange(BITS - 1, -1, -1, dtype=np.uint32)
    bits = (v[:, :, None] >> shifts) & 1
    out = (ltm @ bits.transpose(0, 2, 1)) & 1
    return np.bitwise_or.reduce(out << shifts[:, None], axis=1)


class Sobol:
    """Engine for scrambled Sobol' points in [0, 1)^d, d <= 3.

    ``seed`` is a numpy Generator; the engine draws its random bits from a
    child spawned from it, as scipy's does.  ``random`` and
    ``random_base2`` continue the sequence from the points drawn so far.
    """

    def __init__(self, d, seed):
        if not 1 <= d <= MAXDIM:
            raise ValueError(f"Sobol' points are provided for 1 to {MAXDIM} "
                             f"dimensions, not {d}")
        rng = seed.spawn(1)[0]
        powers = 2 ** np.arange(BITS, dtype=np.uint32)
        self._shift = rng.integers(0, 2, (d, BITS), dtype=np.uint32) @ powers
        ltm = np.tril(rng.integers(0, 2, (d, BITS, BITS), dtype=np.uint32))
        ltm[:, np.arange(BITS), np.arange(BITS)] = 1
        self._v = _scramble(_direction_numbers(d), ltm)
        self._quasi = self._shift
        self.num_generated = 0

    def random(self, n=1):
        """The next n points, as an (n, d) float array."""
        start = self.num_generated
        if start + n > 2 ** BITS:
            raise ValueError(f"at most 2**{BITS} points can be drawn")
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
