"""Prime-scan kernels: counts over the primes of a half-open range [lo, hi),
and the count of small-degree factors over a list of primes.

The range kernels draw their primes from the package's one sieve,
ntheory.progression_blocks, as (v, flags) segments: the class count sieves
only the members prime to 6 of the classes r mod n it counts, as
progressions mod lcm(n, 6) that share one table of base primes, and
popcounts the flags; the root count sieves the odd numbers as the
progression 1 + 2k. The two polynomial counts are the only numpy code in
the package: they work on int64 arrays in batches, importing numpy on
first use, so no other command loads it. IMPLEMENTATION names the one
backend; benchmark records carry it as their backend stamp.

Both polynomial counts rest on one core, _power_gcd_degrees: for a batch of
columns (p, e) it computes deg gcd(f, x^e - x) over F_p in lockstep. The
root count above sqrt(x) takes e = p. The factor count takes the rows
(p, p^j) for j <= J_p = min(d, floor(log_p x)): D(j) = deg gcd(f,
x^(p^j) - x) is the sum of deg g over the distinct irreducible factors g of
f mod p with deg g | j, so Moebius inversion gives the number N_j of those
of degree j, N_j = (D(j) - sum over i | j, i < j of i N_i) / j (Cohen,
GTM 138, 3.4.3). Every exponent is at most x < 2^31.

x^e mod f comes from square-and-multiply: a square adds the d shifted rows
a[i] a of its operand into a (2d - 1)-row product, and its top d - 1 rows
fold back top-down by x^d = -F, one reduced row at a time. Products are
summed lazily: with every residue at most m = max(P) - 1, k = (2^63 - 1 -
m) // m^2 products fit in one int64 sum on top of a residue, and each
addition puts at most one product into a row, so a square reduces mod P
once per k additions (k >= 63 below 33,000, k = 2 just below 2^31). The
largest array is the (2d - 1)-row product, so a batch takes
_BATCH_WORDS // d columns.

The gcd degree comes from Bernstein-Yang divsteps (Bernstein and Yang,
"Fast constant-time gcd computation and modular inversion", TCHES
2019(3)): 2d - 1 steps of the same shape in every column, on the reversed
pair, each a cross-multiplication h = f(0) g - g(0) f, a masked swap and
a shift g = h / x. Step n needs only the first min(d + 1, 2d - 1 - n)
rows, so the rows shrink over the last d steps. Each product of two
residues is below 2^62, so h stays inside int64 and a step reduces mod P
once. No inverse is taken and no degree is searched for.
"""
from __future__ import annotations

from math import gcd

from .ntheory import is_prime, progression_blocks

IMPLEMENTATION = "pure"

# int64 words in one residue array of a batch: a batch takes
# _BATCH_WORDS // d columns, so the (2d - 1, len(P)) product of a square,
# the largest array a batch builds, stays about the same size whatever the
# degree.
_BATCH_WORDS = 1 << 15

# Every prime is below 2^31, so a product of two residues stays below 2^62
# and at least two of them fit in one int64 sum (_lazy_terms).
_PRIME_CAP = 1 << 31
_INT64_MAX = (1 << 63) - 1
_MAX_DEGREE = 63

# The class count's range cap. Its values are Python ints and cannot
# overflow; the cap refuses at once a range whose base primes (up to
# sqrt(hi)) could never be listed.
_VALUE_CAP = 1 << 62

# Bytes of sieve flags read as one integer by the class count's popcount:
# a 64 KiB slice costs no more per byte than a whole 1 MiB segment and
# bounds the copy.
_POPCOUNT_BYTES = 1 << 16


def _class_count(lo: int, hi: int, n: int, classes: set[int]) -> int:
    """Number of primes p in [lo, hi) with p mod n in classes, each class
    prime to n.

    The members of a class that are prime to 6 fill the classes mod
    N = lcm(n, 6) above it that are prime to 6: two of the six above an n
    prime to 6, so no multiple of 2 or 3 is ever sieved (a wheel mod 6,
    Pritchard, Acta Inform. 17, 1982). 2 and 3 are counted apart. Every
    progression shares N and hi, so one base-prime table serves them all.
    A segment's flags are 0 or 1, so its prime count is the popcount of
    its bytes, read as integers of _POPCOUNT_BYTES bytes at most so that
    no copy of a whole segment is made."""
    N = n * 6 // gcd(n, 6)
    total = sum(lo <= q < hi and q % n in classes for q in (2, 3))
    for r in classes:
        for s in range(r, r + N, n):
            if gcd(s, 6) == 1:
                for _v, flags in progression_blocks(lo, hi, N, s):
                    view = memoryview(flags)
                    total += sum(
                        int.from_bytes(view[i : i + _POPCOUNT_BYTES],
                                       "little").bit_count()
                        for i in range(0, len(view), _POPCOUNT_BYTES))
    return total


def prime_count_in_classes(lo: int, hi: int, modulus: int = 1,
                           residues: tuple[int, ...] = ()) -> int:
    """Count primes p in [lo, hi) with p % modulus in residues; hi must be
    at most 2^62.

    modulus 1 counts every prime regardless of residues. The distinct
    classes prime to the modulus go to one _class_count, which builds one
    base-prime table for all of them; a class sharing the factor g > 1
    with the modulus holds no prime but g itself.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if hi > _VALUE_CAP:
        raise ValueError("range cap: values must be <= 2^62")
    classes = {r % modulus for r in residues} if modulus > 1 else {0}
    units = {r for r in classes if gcd(r, modulus) == 1}
    total = _class_count(lo, hi, modulus, units)
    for r in classes - units:
        g = gcd(r, modulus)
        total += g % modulus == r and lo <= g < hi and is_prime(g)
    return total


def _degree(coeffs: tuple[int, ...]) -> int:
    """deg f for a monic f = sum coeffs[i] x^i of degree 1..63."""
    d = len(coeffs) - 1
    if not 1 <= d <= _MAX_DEGREE:
        raise ValueError("degree out of range")
    if coeffs[-1] != 1:
        raise ValueError("monic polynomial required")
    return d


def poly_root_count_over_primes(coeffs: tuple[int, ...], lo: int, hi: int,
                                disc: int = 1,
                                dividing: list[int] | None = None) -> int:
    """Sum over primes p in [lo, hi) of the number of distinct roots of f
    mod p. f = sum coeffs[i] x^i must be monic of degree 1..63, and hi at
    most 2^31.

    When dividing is a list, the primes of the range that divide disc, the
    discriminant of f, are appended to it, ascending, read from the
    residues of disc on the same batches. A linear f has discriminant 1, so
    none is appended for it."""
    d = _degree(coeffs)
    if hi > _PRIME_CAP:
        raise ValueError("range cap: primes must be < 2^31")
    if d == 1:
        return _class_count(lo, hi, 1, {0})
    import numpy as np

    total = 0
    if lo <= 2 < hi:  # mod 2 the candidate roots are 0 and 1
        total = (coeffs[0] % 2 == 0) + (sum(coeffs) % 2 == 0)
        if dividing is not None and disc % 2 == 0:
            dividing.append(2)
    batch = max(1, _BATCH_WORDS // d)
    for v, flags in progression_blocks(lo, hi, 2, 1):
        block = v + 2 * np.flatnonzero(np.frombuffer(flags, np.uint8))
        for i in range(0, len(block), batch):
            P = block[i : i + batch]
            total += int(_power_gcd_degrees(coeffs, P, P).sum())
            if dividing is not None:
                dividing.extend(P[_residues(disc, P) == 0].tolist())
    return total


def poly_factor_count(coeffs: tuple[int, ...], primes, x: int) -> int:
    """Sum over the given primes p of the number of distinct irreducible
    factors g of f mod p with p^deg(g) <= x. f = sum coeffs[i] x^i must be
    monic of degree 1..63, the primes prime, and x below 2^31.

    At a prime p that does not divide [O : Z[theta]] this counts the prime
    ideals above p of norm at most x; for p > sqrt(x) it is the number of
    distinct roots of f mod p.
    """
    d = _degree(coeffs)
    if x >= _PRIME_CAP:
        raise ValueError("range cap: x must be < 2^31")
    primes = [p for p in primes if p <= x]
    if d == 1 or not primes:
        return len(primes)
    import numpy as np

    # the rows (p, p^j), j = 1 .. J_p, one prime after another
    levels, P, E = [], [], []
    for p in primes:
        e = p
        for j in range(1, d + 1):
            P.append(p)
            E.append(e)
            e *= p
            if e > x:
                break
        levels.append(j)
    P, E = np.array(P, dtype=np.int64), np.array(E, dtype=np.int64)
    batch = max(1, _BATCH_WORDS // d)
    D = np.concatenate([_power_gcd_degrees(coeffs, P[i : i + batch],
                                           E[i : i + batch])
                        for i in range(0, len(P), batch)]).tolist()
    total = row = 0
    for J in levels:
        N = [0] * (J + 1)
        for j in range(1, J + 1):
            N[j] = (D[row + j - 1] - sum(i * N[i] for i in range(1, j)
                                         if j % i == 0)) // j
        total += sum(N)
        row += J
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


def _lazy_terms(m: int) -> int:
    """How many products of two residues in [0, m] one int64 sum holds on
    top of one residue: the largest k with k m^2 + m <= 2^63 - 1. For
    m <= 2^31 - 2 that is at least 2."""
    return (_INT64_MAX - m) // (m * m)


def _power_gcd_degrees(coeffs: tuple[int, ...], P, E):
    """deg gcd(f, x^e - x) over F_p for each column (p, e) of the int64
    arrays P and E, p prime and 2 <= e < 2^31: for e = p that is the number
    of distinct roots of f mod p.

    A residue class mod f is a (d, len(P)) array: row i holds the
    coefficient of x^i for every column of the batch. A square adds the d
    shifted rows a[i] a into a (2d - 1, len(P)) product, then folds its top
    rows back top-down by x^d = -F: row r, reduced, adds its multiple of
    x^(r - d) (-F) to the d rows below it. Each addition puts at most one
    product of two residues into any row, so with k = _lazy_terms(max(P) -
    1), reducing the product after every k additions keeps every row
    within k products on top of one residue, inside int64. The product, one
    (d, len(P)) temporary and one row are allocated once per batch, and
    every step writes into them (ufunc out=). F and x^e - x mod f go to
    _gcd_degrees as they are.
    """
    import numpy as np

    d = len(coeffs) - 1
    k = _lazy_terms(int(P.max()) - 1)
    F = np.stack([_residues(c, P) for c in coeffs[:d]])  # f = x^d + F
    G = -F % P  # x^d mod f
    prod = np.empty((2 * d - 1, len(P)), dtype=np.int64)
    tmp = np.empty((d, len(P)), dtype=np.int64)
    row = np.empty(len(P), dtype=np.int64)

    def square(a):
        """a = a^2 mod f, in place."""
        np.multiply(a[0], a, out=prod[:d])
        prod[d:] = 0
        added = 1
        for i in range(1, d):
            np.multiply(a[i], a, out=tmp)
            prod[i : i + d] += tmp
            added += 1
            if added == k:
                np.remainder(prod, P, out=prod)
                added = 0
        for r in range(2 * d - 2, d - 1, -1):
            np.remainder(prod[r], P, out=row)
            np.multiply(row, G, out=tmp)
            prod[r - d : r] += tmp
            added += 1
            if added == k:
                np.remainder(prod[:r], P, out=prod[:r])
                added = 0
        np.remainder(prod[:d], P, out=a)

    def times_x(a, where):
        """a = x a mod f in the columns where is true, in place."""
        np.multiply(a[-1], G, out=tmp)
        tmp[1:] += a[:-1]
        np.remainder(tmp, P, out=tmp)
        np.copyto(a, tmp, where=where)

    # x^e mod f, left to right over the bits of e; above a column's top bit
    # the accumulator stays 1
    acc = np.zeros((d, len(P)), dtype=np.int64)
    acc[0] = 1
    for bit in range(int(E.max()).bit_length() - 1, -1, -1):
        square(acc)
        times_x(acc, ((E >> bit) & 1) == 1)
    acc[1] = (acc[1] - 1) % P
    return _gcd_degrees(F, acc, P)


def _gcd_degrees(F, b, P):
    """deg gcd(f, b) over F_p for each column, p = P[j], f = x^d + F: F and
    b are (d, len(P)) residue arrays, row i the coefficient of x^i.

    Bernstein-Yang divsteps (TCHES 2019(3)) on the reversed pair, f set to
    x^d f(1/x) and g to x^(d - 1) b(1/x), from delta = 1. A step forms
    h = f(0) g - g(0) f; when delta > 0 and g(0) != 0 it sets f to g and
    delta to 1 - delta, otherwise delta to 1 + delta; then g = h / x. (In
    the swap the paper takes -h; a unit factor moves no degree.) After
    2d - 1 steps delta is 2 deg gcd. Every step has the same shape
    in every column: no degree is searched for and nothing is gathered.
    Each step reads g(0) and drops one low coefficient of g, so what the
    steps after step n decide depends only on f and g mod x^(2d - 1 - n),
    and step n works on the first m = min(d + 1, 2d - 1 - n) rows alone
    (deg f <= d, deg g < d). f(0) is 1 or an earlier g(0), never 0. Both
    products stay below 2^62, so a step reduces mod P once.
    g_n is rows n .. n + m - 1 of one (2d - 1)-row array, so g = h / x is
    the next view, not a copy.
    """
    import numpy as np

    d = len(F)
    f = np.empty((d + 1, len(P)), dtype=np.int64)
    f[0] = 1
    f[1:] = F[::-1]
    g = np.zeros((2 * d - 1, len(P)), dtype=np.int64)
    g[:d] = b[::-1]
    tmp = np.empty_like(f)
    f0 = np.empty_like(P)
    delta = np.ones_like(P)
    for n in range(2 * d - 1):
        m = min(d + 1, 2 * d - 1 - n)
        gn = g[n : n + m]
        np.multiply(gn[0], f[:m], out=tmp[:m])
        swap = (delta > 0) & (gn[0] != 0)
        np.copyto(f0, f[0])
        np.copyto(f[:m], gn, where=swap)
        np.multiply(f0, gn, out=gn)
        gn -= tmp[:m]
        np.remainder(gn, P, out=gn)
        delta += 1
        np.subtract(2, delta, out=delta, where=swap)
    return delta >> 1
