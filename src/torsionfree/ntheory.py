"""Elementary integer routines: primality, prime generation, factoring.

Everything here is exact and deterministic. Sizes are desk scale: primality
up to ~3e24 (fixed Miller-Rabin witness set), factoring meant for numbers
whose prime factors are either small or few (discriminants of the fields
handled by this package are pure prime powers).

Primes come from one segmented sieve over an arithmetic progression r + k n
(progression_blocks). prime_blocks runs it on the odd numbers 1 + 2k for
every prime of a range, and the class-count kernel runs it on just the
classes it counts.
"""

from __future__ import annotations

import math

# Deterministic Miller-Rabin witnesses, valid for n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Indices per segment: 2^20 flags (1 MB) stay in cache while every base
# prime strides over them.
_BLOCK = 1 << 20


def progression_blocks(lo: int, hi: int, n: int, r: int):
    """Yield int64 numpy arrays of the primes p = r + k n in [lo, hi),
    ascending, one block of at most _BLOCK consecutive indices k at a time;
    gcd(r, n) must be 1.

    This is the package's one sieve: a segmented sieve of Eratosthenes over
    the progression alone (Bays-Hudson, BIT 17, 1977). A base prime
    l <= sqrt(hi - 1) that does not divide n hits the progression at the
    indices k = -r / n (mod l), and marks them from the first one whose value
    is at least l^2, so l itself survives. numpy is imported on first use, so
    code paths that never sieve do not load it.
    """
    import numpy as np

    r %= n
    if math.gcd(r, n) != 1:
        raise ValueError("the progression needs gcd(r, n) = 1")
    lo = max(lo, 2)  # so 1 (and 0) are never yielded
    if hi <= lo:
        return
    k_lo, k_hi = -((r - lo) // n), -((r - hi) // n)
    base = [b for block in prime_blocks(2, math.isqrt(hi - 1) + 1)
            for b in block.tolist() if n % b]
    step = np.array(base, dtype=np.int64)
    hit = np.array([-r * pow(n, -1, b) % b for b in base], dtype=np.int64)
    first = np.array([-((r - b * b) // n) for b in base], dtype=np.int64)
    for s in range(k_lo, k_hi, _BLOCK):
        e = min(s + _BLOCK, k_hi)
        live = int(np.searchsorted(first, e))
        start = np.maximum(first[:live], s)
        start += (hit[:live] - start) % step[:live]
        seg = np.ones(e - s, dtype=bool)
        for b, k in zip(base, (start - s).tolist()):
            seg[k::b] = False
        yield r + n * (s + np.flatnonzero(seg))


def prime_blocks(lo: int, hi: int):
    """Yield int64 numpy arrays of the primes in [lo, hi), ascending: 2 when
    lo <= 2 < hi, then the odd primes, sieved as the progression 1 + 2k.
    Every prime the package scans comes from here or progression_blocks."""
    if lo <= 2 < hi:
        import numpy as np

        yield np.array([2], dtype=np.int64)
    yield from progression_blocks(lo, hi, 2, 1)


def primes_in_range(a: int, b: int) -> list[int]:
    """Primes p with a <= p < b, ascending."""
    return [p for block in prime_blocks(a, b) for p in block.tolist()]


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending."""
    return primes_in_range(2, n + 1)


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


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant with deterministic parameter sweep.
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
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
            return g
    raise ValueError(f"failed to factor {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 100000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            # perfect powers first: cheap and common for discriminants
            done = False
            for k in range(2, m.bit_length()):
                r = iroot(m, k)
                if r > 1 and r**k == m:
                    stack.extend([r] * k)
                    done = True
                    break
            if not done:
                d = _pollard_rho(m)
                stack.extend([d, m // d])
    return dict(sorted(out.items()))
