"""Independent answers to check the program's outputs against.

None of this imports the program. Each check returns a list of error
strings; an empty list means the answer agrees with the independent route.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.nonzero(sieve)[0].tolist()


def order_up_to_sign(q: int, p: int) -> int:
    """Order of q in (Z/p)* / {+1, -1}: the inertia degree of an unramified
    prime q in Q(2cos 2pi/p)."""
    x, f = q % p, 1
    while x not in (1, p - 1):
        x = x * q % p
        f += 1
    return f


# ------------------------------------------------------------ cosine fields

def cosine_level(p: int) -> list[int]:
    """[norm, q, f, e] of the smallest torsion-free level of Q(2cos 2pi/p),
    from the abelian splitting law. p is totally ramified (e = (p-1)/2,
    norm p) and passes e <= p - 2; an unramified q needs e = 1 <= q - 2,
    so q = 2 never qualifies. Ties go to the smaller q."""
    best = [p, p, 1, (p - 1) // 2]
    for q in primes_upto(p - 1):
        if q == 2:
            continue
        norm = q ** order_up_to_sign(q, p)
        if norm < best[0]:
            best = [norm, q, order_up_to_sign(q, p), 1]
    return best


def check_cosine_level(p: int, level: list[int]) -> list[str]:
    want = cosine_level(p)
    if list(level) != want:
        return [f"p={p}: level {level} != abelian law {want}"]
    return []


def check_T(p: int, T: str, all_checks_pass: bool) -> list[str]:
    """2cos(3pi/p) < -2T < 2cos(2pi/p), at 50 digits, and the program's own
    five certification checks all true."""
    from mpmath import mp, mpf, workdps

    errors = []
    if not all_checks_pass:
        errors.append(f"p={p}: all_checks_pass() is false")
    t = Fraction(T)
    with workdps(50):
        q = -2 * mpf(t.numerator) / t.denominator
        lo = 2 * mp.cos(3 * mp.pi / p)
        hi = 2 * mp.cos(2 * mp.pi / p)
        if not lo < q < hi:
            errors.append(f"p={p}: T={T} violates 2cos(3pi/p) < -2T < "
                          "2cos(2pi/p)")
    return errors


def count_classes_pm1(X: int, moduli: list[int], block: int = 1 << 23) -> dict[int, int]:
    """For each p in moduli, the number of primes q <= X with q = +-1 mod p,
    by a segmented numpy sieve."""
    counts = {p: 0 for p in moduli}
    base = np.array(primes_upto(isqrt(X)), dtype=np.int64)
    for lo in range(0, X + 1, block):
        hi = min(lo + block, X + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base.tolist():
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            seg[start - lo::p] = False
        if lo == 0:
            seg[:2] = False
        primes = np.nonzero(seg)[0].astype(np.int64) + lo
        for p in moduli:
            r = primes % p
            counts[p] += int(np.count_nonzero((r == 1) | (r == p - 1)))
    return counts


def cosine_count(p: int, X: int, class_count: int) -> int:
    """Prime ideals of norm <= X in Q(2cos 2pi/p), by the splitting law:
    the ramified p gives one ideal of norm p; an unramified q splits into
    d/f ideals of norm q^f. Above sqrt(X) only f = 1 counts, and f = 1
    exactly when q = +-1 mod p; class_count is that number of primes up to X."""
    d = (p - 1) // 2
    total = 1 if p <= X else 0
    B = isqrt(X)
    small_pm1 = 0
    for q in primes_upto(B):
        if q == p:
            continue
        f = order_up_to_sign(q, p)
        if q ** f <= X:
            total += d // f
        if f == 1:
            small_pm1 += 1
    return total + d * (class_count - small_pm1)


def check_cosine_count(p: int, X: int, count: int, class_count: int) -> list[str]:
    want = cosine_count(p, X, class_count)
    if count != want:
        return [f"p={p}: count {count} != splitting-law count {want} at X={X}"]
    return []


# ----------------------------------------------------------- generic fields

def _sympy_splitting(coeffs: tuple[int, ...], q: int, disc: int):
    """[(e, f)] for q * O_K from the factorisation of f mod q, or None when
    q may divide the index (Dedekind's criterion fails)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import (gf_factor, gf_from_int_poly, gf_gcd,
                                         gf_mul, gf_quo)

    hf = list(reversed(coeffs))
    F = gf_from_int_poly(hf, q)
    _lc, factors = gf_factor(F, q, ZZ)
    shape = [(e, len(g) - 1) for g, e in factors]
    if disc % (q * q) == 0 and any(e > 1 for e, _ in shape):
        g = [1]
        for fac, _e in factors:
            g = gf_mul(g, fac, q, ZZ)
        h = gf_quo(F, g, q, ZZ)
        # (g h - f) / q with g, h lifted to [0, q)
        gh = _int_mul(g, h)
        diff = _int_sub(gh, hf)
        Fq = gf_from_int_poly([c // q for c in diff], q)
        common = gf_gcd(gf_gcd(Fq, g, q, ZZ), h, q, ZZ)
        if len(common) > 1:
            return None
    return shape


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _int_sub(a, b):
    n = max(len(a), len(b))
    a = [0] * (n - len(a)) + list(a)
    b = [0] * (n - len(b)) + list(b)
    return [x - y for x, y in zip(a, b)]


def _sympy_root_count(coeffs: tuple[int, ...], q: int) -> int:
    """Distinct roots of f mod q: the degree of gcd(x^q - x, f) over F_q."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import (gf_from_int_poly, gf_gcd, gf_pow_mod,
                                         gf_sub)

    F = gf_from_int_poly(list(reversed(coeffs)), q)
    xq = gf_pow_mod([1, 0], q, F, q, ZZ)
    return len(gf_gcd(gf_sub(xq, [1, 0], q, ZZ), F, q, ZZ)) - 1


def _disc(coeffs: tuple[int, ...]) -> int:
    from sympy import Poly, symbols

    x = symbols("x")
    return int(Poly(list(reversed(coeffs)), x).discriminant())


def check_irreducible(coeffs: tuple[int, ...]) -> list[str]:
    from sympy import Poly, symbols

    x = symbols("x")
    if not Poly(list(reversed(coeffs)), x).is_irreducible:
        return [f"{list(coeffs)}: not irreducible over Q"]
    return []


def generic_count(coeffs: tuple[int, ...], X: int) -> int:
    """Prime ideals of norm <= X, skipping primes that may divide the index,
    from sympy factorisation mod every prime q <= X."""
    disc = _disc(coeffs)
    B = isqrt(X)
    total = 0
    for q in primes_upto(X):
        if q <= B or disc % (q * q) == 0:
            shape = _sympy_splitting(coeffs, q, disc)
            if shape is None:
                continue
            total += sum(1 for _e, f in shape if q ** f <= X)
        else:
            total += _sympy_root_count(coeffs, q)
    return total


def generic_level(coeffs: tuple[int, ...], scan_cap: int = 10**6) -> list[int]:
    """[norm, q, f, e]: the smallest norm q^f over prime ideals with
    e <= q - 2, skipping primes that may divide the index."""
    disc = _disc(coeffs)
    best = None
    for q in primes_upto(scan_cap):
        if best is not None and q > best[0]:
            break
        shape = _sympy_splitting(coeffs, q, disc)
        if shape is None:
            continue
        for e, f in shape:
            if e <= q - 2:
                cand = [q ** f, q, f, e]
                if best is None or cand < best:
                    best = cand
    return best


def check_generic(coeffs, X: int, level: list[int], count: int) -> list[str]:
    errors = []
    want_level = generic_level(tuple(coeffs))
    if list(level) != want_level:
        errors.append(f"{list(coeffs)}: level {level} != sympy {want_level}")
    want_count = generic_count(tuple(coeffs), X)
    if count != want_count:
        errors.append(f"{list(coeffs)}: count {count} != sympy count "
                      f"{want_count} at X={X}")
    return errors


# ------------------------------------------------------------------ CLI

def strip_generated_by(text: str) -> str:
    return re.sub(r'"generated_by": "[^"]*"', '"generated_by": "X"', text)


def check_cli(name: str, code: int, stdout: str, golden_dir: Path) -> list[str]:
    """Exit 0 and stdout equal to the committed golden: JSON up to the
    generated_by stamp, CSV byte for byte."""
    if code != 0:
        return [f"{name}: exit code {code}"]
    want = (golden_dir / name).read_text()
    if name.endswith(".json"):
        same = strip_generated_by(stdout) == strip_generated_by(want)
    else:
        same = stdout == want
    return [] if same else [f"{name}: stdout differs from the golden"]
