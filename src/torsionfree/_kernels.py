"""Prime-scan kernels: counts over the primes of a half-open range [lo, hi).

Both kernels draw their primes from the package's one sieve,
ntheory.progression_blocks: the class count sieves only the progressions
r + k n it counts, and the root count takes every prime from
ntheory.prime_blocks, which sieves the odd numbers as the progression 1 + 2k.
They work in int64 numpy, imported on first use. IMPLEMENTATION names the one
backend; benchmark records carry it as their backend stamp.
"""

from __future__ import annotations

from math import gcd

from .ntheory import is_prime, prime_blocks, progression_blocks

IMPLEMENTATION = "pure"

# int64 words in one root-count batch: a batch takes _BATCH_WORDS // d^2
# primes, so its d x d matrices stay the same size whatever the degree.
_BATCH_WORDS = 1 << 15

# Every prime is below 2^31, so a product of two residues stays below 2^62.
_PRIME_CAP = 1 << 31
_MAX_DEGREE = 63

# Sieved values r + k n are int64.
_VALUE_CAP = 1 << 62


def prime_count_in_classes(lo: int, hi: int, modulus: int = 1,
                           residues: tuple[int, ...] = ()) -> int:
    """Count primes p in [lo, hi) with p % modulus in residues; hi must be
    at most 2^62, so that every value fits in int64.

    modulus 1 counts every prime regardless of residues. Each distinct class
    r prime to the modulus is sieved on its own; a class sharing the factor
    g > 1 with the modulus holds no prime but g itself.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if hi > _VALUE_CAP:
        raise ValueError("range cap: values must be <= 2^62")
    if modulus == 1:
        return sum(len(block) for block in prime_blocks(lo, hi))
    total = 0
    for r in {r % modulus for r in residues}:
        g = gcd(r, modulus)
        if g == 1:
            total += sum(len(block) for block in
                         progression_blocks(lo, hi, modulus, r))
        else:
            total += g % modulus == r and lo <= g < hi and is_prime(g)
    return total


def poly_root_count_over_primes(coeffs: tuple[int, ...], lo: int, hi: int) -> int:
    """Sum over primes p in [lo, hi) of the number of distinct roots of f
    mod p. f = sum coeffs[i] x^i must be monic of degree 1..63, and hi at
    most 2^31."""
    d = len(coeffs) - 1
    if not 1 <= d <= _MAX_DEGREE:
        raise ValueError("degree out of range")
    if coeffs[-1] != 1:
        raise ValueError("monic polynomial required")
    if hi > _PRIME_CAP:
        raise ValueError("range cap: primes must be < 2^31")
    batch = max(1, _BATCH_WORDS // (d * d))
    total = 0
    for block in prime_blocks(lo, hi):
        if d == 1:
            total += len(block)
            continue
        for i in range(0, len(block), batch):
            total += int(_root_counts(coeffs, block[i : i + batch]).sum())
    return total


def _residues(c: int, P):
    """c mod p for every p in P, by Horner over 31-bit limbs of |c|."""
    import numpy as np

    r = np.zeros_like(P)
    m = abs(c)
    limbs = []
    while m:
        limbs.append(m & (_PRIME_CAP - 1))
        m >>= 31
    for limb in reversed(limbs):
        r = (r * _PRIME_CAP + limb) % P
    return -r % P if c < 0 else r


def _root_counts(coeffs: tuple[int, ...], P):
    """Distinct roots of f mod p for each prime p in P (int64 array), as
    d - rank of multiplication by x^p - x on F_p[x]/(f).

    A residue class mod f is a (d, len(P)) array: row i holds the
    coefficient of x^i for every prime of the batch.
    """
    import numpy as np

    d = len(coeffs) - 1
    F = np.stack([_residues(c, P) for c in coeffs[:d]])  # x^d = -F

    def times_x(a):
        out = np.empty_like(a)
        out[0] = 0
        out[1:] = a[:-1]
        return (out - a[-1] * F) % P

    def square(a):
        prod = np.zeros((2 * d - 1, len(P)), dtype=np.int64)
        for i in range(d):
            prod[i : i + d] = (prod[i : i + d] + a[i] * a) % P
        for k in range(2 * d - 2, d - 1, -1):
            prod[k - d : k] = (prod[k - d : k] - prod[k] * F) % P
        return prod[:d]

    # x^p mod f, left to right over the bits of p; above a prime's top bit
    # the accumulator stays 1
    acc = np.zeros((d, len(P)), dtype=np.int64)
    acc[0] = 1
    for bit in range(int(P.max()).bit_length() - 1, -1, -1):
        acc = square(acc)
        acc = np.where(((P >> bit) & 1) == 1, times_x(acc), acc)
    acc[1] = (acc[1] - 1) % P

    # rows g, g x, ..., g x^(d-1) of the multiplication matrix
    M = np.empty((d, d, len(P)), dtype=np.int64)
    M[0] = acc
    for i in range(1, d):
        M[i] = times_x(M[i - 1])
    return d - _rank_mod(M, P)


def _rank_mod(M, P):
    """Rank over F_p of each matrix M[:, :, b], p = P[b]. Gaussian
    elimination in lockstep: per column, every batch member that has a free
    row with a nonzero entry takes it as pivot and clears that column in its
    other free rows; a row is scaled by the pivot, never divided."""
    import numpy as np

    d = M.shape[0]
    batch = np.arange(len(P))
    free = np.ones((d, len(P)), dtype=bool)
    rank = np.zeros(len(P), dtype=np.int64)
    for c in range(d):
        col = M[:, c]
        cand = (col != 0) & free
        has = cand.any(axis=0)
        r = cand.argmax(axis=0)
        pivot = M[r, :, batch].T  # (d, len(P))
        free[r[has], batch[has]] = False
        cleared = (M * pivot[c] - col[:, None] * pivot) % P
        M = np.where((free & has)[:, None], cleared, M)
        rank += has
    return rank
