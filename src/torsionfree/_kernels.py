"""Prime-scan kernels: counts over the primes of a half-open range [lo, hi),
and the count of small-degree factors over a list of primes.

The range kernels draw their primes from the package's one sieve,
ntheory.progression_blocks, as (v, flags) segments: the class count sieves
only the members prime to 6 of the classes r mod n it counts, as
progressions mod lcm(n, 6) that share one table of base primes, and
sums the 0/1 flags of each segment by Adler-32 checksums of chunks short
enough that the checksum's low half is the exact sum; the root count
sieves the odd numbers as the progression 1 + 2k. The two polynomial
counts are the only numpy code in the package: they work on int64 arrays
in batches, importing numpy on first use, so no other command loads it.
zlib, for the checksum, is imported on first use too. IMPLEMENTATION
names the one backend; benchmark records carry it as their backend stamp.

Both polynomial counts rest on one core, _power_gcd_degrees: for a batch of
columns (p, e) it computes deg gcd(f, x^e - x) over F_p in lockstep. The
root count above sqrt(x) takes e = p. The factor count takes the rows
(p, p^j) for j <= J_p = min(d, floor(log_p x)): D(j) = deg gcd(f,
x^(p^j) - x) is the sum of deg g over the distinct irreducible factors g of
f mod p with deg g | j, so Moebius inversion gives the number N_j of those
of degree j, N_j = (D(j) - sum over i | j, i < j of i N_i) / j (Cohen,
GTM 138, 3.4.3). Every exponent is at most x < 2^31. A generic field's
prime-ideal count is one pass: the root count puts the factor rows of
the primes up to sqrt(x) ahead of the primes of its first sieve segment,
and returns the sum of both counts; the factor count alone is the same
pass over an empty range.

x^e mod f comes from square-and-multiply (Cohen, GTM 138, 1.2). With
t = floor(log2 d), the top t bits of every exponent of a batch give a
power below d, a monomial, so the accumulator starts there and t squares
are skipped. A square puts a_i^2 on the even rows of a 2d-row product and
adds each a_i a_j with i < j once, doubled; where the exponent's bit is
set, the unreduced product moves up one row, which multiplies it by x;
then its top d rows fold back top-down by x^d = -F, one reduced row at a
time. Products are summed lazily: with every residue at most
m = max(P) - 1, k = (2^63 - 1 - m) // m^2 products fit in one int64 sum on
top of a residue; a doubled product counts as two, and the product is
reduced mod P before an addition that would pass k (k >= 63 below 33,000,
k = 2 just below 2^31). The 2d-row product and a 2d-row scratch array are
the largest arrays, so each sieve segment is cut into batches of
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
# _BATCH_WORDS // d columns, so the (2d, len(P)) product of a square, the
# largest array a batch builds, stays about the same size whatever the
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

# Bytes of sieve flags summed by one Adler-32 call in _flag_count. The low
# half of adler32 is 1 + (byte sum mod 65,521) (RFC 1950), so a chunk of at
# most 65,519 flags, whose sum is at most 65,519, reads exactly; an
# all-ones chunk of 65,520 bytes would read as -1.
_POPCOUNT_BYTES = 65_519


def _flag_count(flags) -> int:
    """The number of 1 bytes in a buffer of 0/1 bytes: the byte sum of each
    chunk of _POPCOUNT_BYTES, read off its Adler-32 checksum, so no copy of
    the buffer is made."""
    from zlib import adler32

    view = memoryview(flags)
    return sum((adler32(view[i : i + _POPCOUNT_BYTES]) & 0xFFFF) - 1
               for i in range(0, len(view), _POPCOUNT_BYTES))


def _class_count(lo: int, hi: int, n: int, classes: set[int]) -> int:
    """Number of primes p in [lo, hi) with p mod n in classes, each class
    prime to n.

    The members of a class that are prime to 6 fill the classes mod
    N = lcm(n, 6) above it that are prime to 6: two of the six above an n
    prime to 6, so no multiple of 2 or 3 is ever sieved (a wheel mod 6,
    Pritchard, Acta Inform. 17, 1982). 2 and 3 are counted apart. Every
    progression shares N and hi, so one base-prime table serves them all.
    A segment's flags are 0 or 1, so its prime count is their sum
    (_flag_count)."""
    N = n * 6 // gcd(n, 6)
    total = sum(lo <= q < hi and q % n in classes for q in (2, 3))
    for r in classes:
        for s in range(r, r + N, n):
            if gcd(s, 6) == 1:
                for _v, flags in progression_blocks(lo, hi, N, s):
                    total += _flag_count(flags)
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
                                dividing: list[int] | None = None, *,
                                factor_primes=()) -> int:
    """Sum over primes p in [lo, hi) of the number of distinct roots of f
    mod p, plus poly_factor_count(coeffs, factor_primes, hi - 1). f = sum
    coeffs[i] x^i must be monic of degree 1..63, and hi at most 2^31.

    Both counts run in one pass over the sieve segments of [lo, hi): the
    factor rows go ahead of the primes of the first segment, or stand
    alone when the sieve yields no segment, and each segment is cut
    into batches of _BATCH_WORDS // d columns. When dividing is a list,
    the primes of the range that divide disc, the discriminant of f, are
    appended to it, ascending, read from the residues of disc on the same
    batches. A linear f has discriminant 1, so none is appended for it."""
    d = _degree(coeffs)
    if hi > _PRIME_CAP:
        raise ValueError("range cap: primes must be < 2^31")
    if d == 1:
        return (_class_count(lo, hi, 1, {0})
                + sum(1 for p in factor_primes if p < hi))
    import numpy as np

    total = 0
    if lo <= 2 < hi:  # mod 2 the candidate roots are 0 and 1
        total = (coeffs[0] % 2 == 0) + (sum(coeffs) % 2 == 0)
        if dividing is not None and disc % 2 == 0:
            dividing.append(2)
    P, E, levels = _factor_rows(factor_primes, hi, d)
    rows = len(P)  # the factor rows, ahead of the first segment's primes
    P, E = np.array(P, dtype=np.int64), np.array(E, dtype=np.int64)
    size = max(1, _BATCH_WORDS // d)
    D: list[int] = []
    segments = progression_blocks(lo, hi, 2, 1)
    segment = next(segments, (1, b""))  # with no segment, the rows alone
    while segment:
        v, flags = segment
        roots = v + 2 * np.flatnonzero(np.frombuffer(flags, np.uint8))
        P = np.concatenate((P[:rows], roots))
        E = np.concatenate((E[:rows], roots))
        for i in range(0, len(P), size):
            degrees = _power_gcd_degrees(coeffs, P[i : i + size],
                                         E[i : i + size])
            n = max(0, rows - i)  # the factor rows of this batch
            D.extend(degrees[:n].tolist())
            total += int(degrees[n:].sum())
            if dividing is not None:
                roots = P[i + n : i + size]
                dividing.extend(roots[_residues(disc, roots) == 0].tolist())
        rows = 0
        segment = next(segments, None)
    return total + _moebius_count(D, levels)


def poly_factor_count(coeffs: tuple[int, ...], primes, x: int) -> int:
    """Sum over the given primes p of the number of distinct irreducible
    factors g of f mod p with p^deg(g) <= x. f = sum coeffs[i] x^i must be
    monic of degree 1..63, the primes prime, and x below 2^31.

    At a prime p that does not divide [O : Z[theta]] this counts the prime
    ideals above p of norm at most x; for p > sqrt(x) it is the number of
    distinct roots of f mod p. It is the root-count pass over the empty
    range [x + 1, x + 1), so the factor rows stand alone.
    """
    return poly_root_count_over_primes(coeffs, x + 1, x + 1,
                                       factor_primes=primes)


def _factor_rows(primes, hi: int, d: int):
    """The rows (p, p^j) with p^j < hi and j <= d, one prime after another,
    as the lists P and E, and for each prime with a row its number of rows
    J_p."""
    P, E, levels = [], [], []
    for p in primes:
        e, j = p, 0
        while j < d and e < hi:
            P.append(p)
            E.append(e)
            e *= p
            j += 1
        if j:
            levels.append(j)
    return P, E, levels


def _moebius_count(D: list[int], levels: list[int]) -> int:
    """The sum over the primes of _factor_rows of N_1 + ... + N_J, from the
    gcd degrees D of their rows: N_j = (D(j) - sum over i | j, i < j of
    i N_i) / j is the number of irreducible factors of degree j (Cohen,
    GTM 138, 3.4.3)."""
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
    coefficient of x^i for every column of the batch. x^e mod f comes from
    square-and-multiply over the bits of e, left to right. With
    t = floor(log2 d) and s the bit length of max(E) less t (at least 0),
    e >> s is below 2^t <= d, so x^(e >> s) is a monomial: the accumulator
    starts there, set by one scatter, and the first t squares are skipped.
    A square a^2 x^b, b the next bit of each column, works in one
    (2d, len(P)) product: a_i^2 goes to row 2i, each a_i a_j with i < j is
    added once, as (2 a_i) a_j, to row i + j; where b = 1 the unreduced
    product moves up one row; then rows 2d - 1 .. d fold back top-down by
    x^d = -F: row r, reduced, adds its multiple of x^(r - d) (-F) to the d
    rows below it. A doubled product counts as two products of residues,
    a fold addition as one. With k = _lazy_terms(max(P) - 1), the product
    is reduced mod P before an addition that would put more than k of them
    on top of one residue in a row, so every row stays inside int64. The
    product, a scratch array of its shape, one row and the bit arrays are
    allocated once per batch, and every step writes into them (ufunc
    out=). F and x^e - x mod f go to _gcd_degrees as they are.
    """
    import numpy as np

    d, C = len(coeffs) - 1, len(P)
    k = _lazy_terms(int(P.max()) - 1)
    F = np.stack([_residues(c, P) for c in coeffs[:d]])  # f = x^d + F
    G = -F % P  # x^d mod f
    prod = np.empty((2 * d, C), dtype=np.int64)
    # 2a and the fold's temporary, or the moving rows of the product
    spare = np.empty((2 * d, C), dtype=np.int64)
    twice, tmp = spare[:d], spare[d:]
    row = np.empty(C, dtype=np.int64)
    bit = np.empty_like(E)  # the next bit of each exponent, 0 or 1
    stay = np.empty_like(E)  # 1 - bit

    def square(a):
        """a = a^2 x^bit mod f, in place."""
        np.multiply(a, a, out=prod[: 2 * d - 1 : 2])
        prod[1::2] = 0
        np.add(a, a, out=twice)
        added = 1
        for i in range(d - 1):
            if added + 2 > k:
                np.remainder(prod, P, out=prod)
                added = 0
            n = d - 1 - i
            np.multiply(twice[i], a[i + 1 :], out=tmp[:n])
            prod[2 * i + 1 : i + d] += tmp[:n]
            added += 2
        # times x where the bit is set: row r becomes row r - 1 there
        np.multiply(prod[:-1], bit, out=spare[:-1])
        np.multiply(prod[:-1], stay, out=prod[:-1])
        prod[1:] += spare[:-1]
        for r in range(2 * d - 1, d - 1, -1):
            if added + 1 > k:
                np.remainder(prod[:r], P, out=prod[:r])
                added = 0
            np.remainder(prod[r], P, out=row)
            np.multiply(row, G, out=tmp)
            prod[r - d : r] += tmp
            added += 1
        np.remainder(prod[:d], P, out=a)

    s = max(int(E.max()).bit_length() - (d.bit_length() - 1), 0)
    acc = np.zeros((d, C), dtype=np.int64)
    acc[E >> s, np.arange(C)] = 1
    for b in range(s - 1, -1, -1):
        np.right_shift(E, b, out=bit)
        np.bitwise_and(bit, 1, out=bit)
        np.subtract(1, bit, out=stay)
        square(acc)
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
