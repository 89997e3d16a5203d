"""Elementary integer routines: primality, prime generation, factoring.

Everything here is exact and deterministic. Sizes are desk scale. is_prime
is proven correct below psi_13 = 3317044064679887385961981 (deterministic
Miller-Rabin witness sets); above it the answer comes from BPSW, which has
no known counterexample. Factoring is meant for numbers whose prime
factors are either small or few; Pollard rho runs within a fixed budget,
in steps charged by the size of the number, and raises ResourceCapError
beyond it, as does a cofactor above 4,096 bits that is no perfect power.

Primes come from one segmented sieve over an arithmetic progression r + k n
(progression_blocks), in pure Python on bytearray flags. primes_in_range
runs it on the odd numbers 1 + 2k, and the class-count kernel on the
members prime to 6 of the classes it counts. A base prime goes live in
the first segment that reaches its square; below the range it strikes
from that segment's first index, inside the range from its square. The
primes below a bound sit in a one-entry cache, which primes_upto copies
and a sieve's base table reads, so a count that lists the primes up to
sqrt(x) and then sieves up to x lists them once. The base primes of a
sieve and their inverses mod n sit in a one-entry cache too, so the
progressions of one class count, which share hi and n, build them once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import compress, islice, takewhile

from .errors import ResourceCapError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin witnesses, and (psi_k, k): the first k witnesses decide every
# n < psi_k, the least strong pseudoprime to all of them (Jaeschke 1993;
# Sorenson-Webster 2017).
_MR_WITNESSES = _SMALL_PRIMES + (41,)
_MR_BOUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
              (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
              (3825123056546413051, 9), (318665857834031151167461, 12))
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of n: proven for n < psi_13, BPSW above it."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    k = next((k for bound, k in _MR_BOUNDS if n < bound), 13)
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41, Selfridge's
    parameters: the first D in 5, -7, 9, -11, ... with (D / n) = -1, P = 1,
    Q = (1 - D) / 4 (Baillie-Wagstaff 1980)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would be found
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k, Q^k mod n for k running over the leading bits of d; P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U & 1 else U) >> 1
            V = (V + n if V & 1 else V) >> 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# Indices per segment: 2^20 flags (1 MB) stay in cache while every base
# prime strides over them.
_BLOCK = 1 << 20
# Zero bytes for striking: a stride of c flags takes _ZEROS[:c].
_ZEROS = memoryview(bytes(_BLOCK))


@lru_cache(maxsize=1)
def _primes_below(m: int) -> tuple[int, ...]:
    """The primes below m, ascending. One entry is kept, so a count that
    lists the primes up to sqrt(x) and then sieves up to x, whose base
    primes are the same, sieves them once."""
    return ((2,) if m > 2 else ()) + tuple(_odd_primes(3, m))


@lru_cache(maxsize=1)
def _base_table(m: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(the primes b < m that do not divide n, ascending; u_b = -1/n mod b
    for each). One entry is kept, so the progressions of one class count,
    which share m and n, build it once."""
    base = tuple(b for b in _primes_below(m) if n % b)
    return base, tuple(-pow(n, -1, b) % b for b in base)


def progression_blocks(lo: int, hi: int, n: int, r: int):
    """Yield (v, flags) for the progression r + k n over [lo, hi), one
    segment of at most _BLOCK consecutive indices at a time, ascending:
    flags is a bytearray with flags[i] == 1 exactly when v + i n is prime,
    and every other flag 0. gcd(r, n) must be 1.

    This is the package's one sieve: a segmented sieve of Eratosthenes over
    the progression alone (Bays-Hudson, BIT 17, 1977). A base prime
    l <= sqrt(hi - 1) that does not divide n hits the progression at the
    indices k = r u_l (mod l), u_l = -1/n mod l. It goes live in the
    first segment whose last value is at least l^2. A base prime below lo
    strikes from the first index of that segment: its multiples in the
    range are all composite, those below l^2 too. One at or above lo
    strikes from the first index whose value is at least l^2, so l itself
    survives. Each live base prime carries its next index from one
    segment to the next.
    """
    r %= n
    if math.gcd(r, n) != 1:
        raise ValueError("the progression needs gcd(r, n) = 1")
    lo = max(lo, 2)  # so 1 (and 0) are never flagged
    if hi <= lo:
        return
    k_lo, k_hi = -((r - lo) // n), -((r - hi) // n)
    base, u = _base_table(math.isqrt(hi - 1) + 1, n)
    below = bisect_left(base, lo)
    nxt: list[int] = []  # the next index each live base prime strikes
    for s in range(k_lo, k_hi, _BLOCK):
        e = min(s + _BLOCK, k_hi)
        # base[a:live] go live here: b^2 is at most the segment's last
        # value; base[a:m] lie below lo and base[m:live] do not
        a = len(nxt)
        live = bisect_right(base, math.isqrt(r + n * (e - 1)))
        m = min(live, max(a, below))
        nxt += [s + (r * ub - s) % b for b, ub in zip(base[a:m], u[a:m])]
        squares = [-((r - b * b) // n) for b in base[m:live]]
        nxt += [k + (r * ub - k) % b
                for b, ub, k in zip(base[m:live], u[m:live], squares)]
        flags = bytearray(b"\x01") * (e - s)
        out = []
        for b, k in zip(base, nxt):
            if k < e:
                c = (e - 1 - k) // b + 1
                flags[k - s :: b] = _ZEROS[:c]
                k += c * b
            out.append(k)
        nxt = out
        yield r + n * s, flags


def _odd_primes(a: int, b: int):
    """The odd primes p with a <= p < b, ascending, from the progression
    1 + 2k."""
    for v, flags in progression_blocks(a, b, 2, 1):
        yield from compress(range(v, v + 2 * len(flags), 2), flags)


def primes_in_range(a: int, b: int) -> list[int]:
    """Primes p with a <= p < b, ascending."""
    return ([2] if a <= 2 < b else []) + list(_odd_primes(a, b))


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending: a new list on every call, from the
    one-entry cache of _primes_below."""
    return list(_primes_below(n + 1))


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0 (exact integer Newton)."""
    if n < 0:
        raise ValueError("iroot expects n >= 0")
    if k == 1 or n < 2:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# Pollard-rho steps (a squaring and a product mod n each) that one
# factorize call may take on numbers of at most 256 bits: about 3 s on a
# 128-bit n (2 cores), enough to split off a prime factor up to about 1e12
# as a rule. The budget bounds time, not steps: a step costs about a
# constant plus a term in w^2, w the 64-bit words of n (0.42 us at 64 bits,
# 0.85 at 256, 2.0 at 512, 5.0 at 1024 and 16.8 at 2048 on one 2-core
# machine), so it is charged (48 + w^2) / 64 steps with w at least 4. That
# is 1 up to 256 bits, where every input that factored before still does,
# 4.75 at 1024 bits and 16.75 at 2048; a multiple of 1/64, so the budget's
# arithmetic is exact.
_RHO_BUDGET = 1 << 22


def _pollard_rho(n: int, budget: float) -> tuple[int, float]:
    """(a proper factor of n, the budget left). Brent's cycle variant with
    a deterministic parameter sweep; each step is charged by the size of n
    (_RHO_BUDGET), and ResourceCapError is raised when the budget runs out
    first."""
    if n % 2 == 0:
        return 2, budget
    cost = (48 + max(4, -(-n.bit_length() // 64)) ** 2) / 64
    for c in range(1, 50):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            budget -= 2 * r * cost  # the next two runs of r steps
            if budget < 0:
                raise ResourceCapError(
                    f"factoring a {n.bit_length()}-bit cofactor exceeds the "
                    f"Pollard-rho budget of {_RHO_BUDGET} steps at 256 bits")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget
    raise ValueError(f"failed to factor {n}")


# Trial division tries every prime below this bound.
_TRIAL_BOUND = 100000


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """({p: exponent} for the primes p < _TRIAL_BOUND dividing n >= 1, the
    cofactor C). C is 1 or has no prime factor below _TRIAL_BOUND; when
    the trial stops early at a prime above sqrt(C), C is 1 or prime."""
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < _TRIAL_BOUND:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    return out, n


# The largest cofactor, in bits, that is_prime is run on. One Miller-Rabin
# base costs about 0.11 s at 4,096 bits and 0.85 s at 8,192 (one 2-core
# machine), and a prime runs 13 bases plus a Lucas test, so a prime
# cofactor at the cap costs a few seconds, about what the rho budget
# allows a composite.
_PRIME_TEST_BITS = 4096


# Residue witnesses tried per exponent before a k-th root is taken.
_POWER_WITNESSES = 4


def _kth_root(m: int, k: int) -> int | None:
    """r with r^k == m, or None, for m with no prime factor below
    _TRIAL_BOUND. Such an m is prime to every prime q < _TRIAL_BOUND, so if
    it is a k-th power then m^((q-1)/k) = 1 mod q for each q = 1 (mod k);
    the first _POWER_WITNESSES such q are tried before iroot runs, and one
    failure proves m no k-th power. A random m passes one with probability
    about 1/k, so almost every k is settled without a root."""
    witnesses = (q for q in range(k + 1, _TRIAL_BOUND, k) if is_prime(q))
    for q in islice(witnesses, _POWER_WITNESSES):
        if pow(m, (q - 1) // k, q) != 1:
            return None
    r = iroot(m, k)
    return r if r**k == m else None


def _factor_cofactor(n: int, out: dict[int, int]) -> None:
    """Add the prime factorization of n > 1, which has no prime factor
    below _TRIAL_BOUND, to out: primality, perfect powers, then Pollard rho
    within _RHO_BUDGET steps in all, charged by size. A cofactor above
    _PRIME_TEST_BITS that is no perfect power raises ResourceCapError
    before any primality test.

    A perfect power is a perfect k-th power for a prime k, and every prime
    factor is at least _TRIAL_BOUND, so a cofactor m is tried only at the
    prime k with _TRIAL_BOUND^k <= m: about 240 of them at 24,700 bits,
    nearly all settled by _kth_root's residue test without a root."""
    budget = _RHO_BUDGET
    stack = [n]
    while stack:
        m = stack.pop()
        capped = m.bit_length() > _PRIME_TEST_BITS
        if not capped and is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # perfect powers first: cheap and common for discriminants
        # (2^16 < _TRIAL_BOUND, so every such k is below bits / 16)
        for k in takewhile(lambda k: _TRIAL_BOUND**k <= m,
                           primes_upto(m.bit_length() // 16)):
            r = _kth_root(m, k)
            if r is not None:
                stack.extend([r] * k)
                break
        else:
            if capped:
                raise ResourceCapError(
                    f"a {m.bit_length()}-bit cofactor exceeds the primality "
                    f"cap of {_PRIME_TEST_BITS} bits")
            d, budget = _pollard_rho(m, budget)
            stack.extend([d, m // d])


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1. Trial division up to
    1e5, perfect powers, then Pollard rho within _RHO_BUDGET steps in all
    (a step on a number above 256 bits charged more);
    a cofactor that needs more, or that is above _PRIME_TEST_BITS and no
    perfect power, raises ResourceCapError."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out, n = _trial_divide(n)
    if n > 1:
        _factor_cofactor(n, out)
    return dict(sorted(out.items()))

