"""Exact real root isolation via Sturm sequences and rational bisection.

Intervals are closed [lo, hi] with Fraction endpoints. A degenerate interval
lo == hi marks an exact rational root. For a squarefree input the returned
intervals are pairwise disjoint, ascending, each of width at most
2^-CELL_BITS, and each contains exactly one real root. Every sign is an
exact integer evaluation (_sign_at), and every bisection is one _halve
step; floats never decide anything here. The Sturm chain is evaluated once
per point, a root comparison evaluates f only for q inside the cell, and
the sign of a linear polynomial at a root is one comparison (sign_at_root).
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import NotSquarefreeError, PreconditionError
from .poly import IntPoly, subresultant_prs

Interval = tuple[Fraction, Fraction]

# every real-root cell, from isolate_real_roots or isolate_two_cos_roots,
# has width at most 2^-CELL_BITS
CELL_BITS = 20


def sturm_sequence(f: IntPoly) -> list[IntPoly]:
    """Sturm chain of f up to positive factors: the subresultant PRS of
    (f, f'), each element times its tracked sign."""
    df = f.derivative()
    if not df:
        return [f]
    chain, signs, _ = subresultant_prs(f, df)
    return [b if s > 0 else -b for b, s in zip(chain, signs)]


def _sign_at(f: IntPoly, x: Fraction) -> int:
    """Sign of f(x) for rational x = num/den, den > 0: the sign of
    den^deg f * f(num/den), computed by Horner over Z."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(f.coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _chain_at(seq, x: Fraction) -> tuple[int, int]:
    """(sign variations of seq at x, zeros skipped; sign of seq[0] at x)"""
    signs = [_sign_at(p, x) for p in seq]
    count = prev = 0
    for s in signs:
        if s:
            count += prev == -s
            prev = s
    return count, signs[0]


def root_bound(f: IntPoly) -> int:
    """Cauchy bound: all real roots lie strictly inside [-B, B]."""
    if f.degree < 1:
        raise PreconditionError("root bound needs degree >= 1")
    lc = abs(f.lc)
    m = max(abs(a) for a in f.coeffs[:-1]) if f.degree else 0
    return 1 + (m + lc - 1) // lc + 1


def _halve(f: IntPoly, lo: Fraction, hi: Fraction, s_lo: int) -> Interval:
    """One bisection step on [lo, hi], which holds one root of f in (lo, hi]
    while f has the sign s_lo != 0 at lo: the half that keeps the root, or
    (mid, mid) when the midpoint is the root. f has the sign s_lo at the
    new lo too."""
    mid = (lo + hi) / 2
    s = _sign_at(f, mid)
    if s == 0:
        return mid, mid
    return (lo, mid) if s != s_lo else (mid, hi)


def isolate_real_roots(f: IntPoly) -> list[Interval]:
    """Isolating intervals for all real roots of squarefree f, ascending,
    each of width at most 2^-CELL_BITS. The Sturm chain of f ends at
    gcd(f, f'), so a last element of positive degree refuses f. Each end
    of an interval carries the chain's variations and the sign of f there,
    so a midpoint costs one chain evaluation."""
    if f.degree < 0:
        raise PreconditionError("zero polynomial has no isolated roots")
    if f.degree == 0:
        return []
    if f.degree == 1:
        r = Fraction(-f[0], f[1])
        return [(r, r)]
    seq = sturm_sequence(f)
    if seq[-1].degree > 0:
        raise NotSquarefreeError("input polynomial has repeated roots")
    bound = root_bound(f)
    precision = Fraction(1, 1 << CELL_BITS)
    out: list[Interval] = []

    def split(lo: Fraction, hi: Fraction, at_lo, at_hi):
        (v_lo, s_lo), (v_hi, s_hi) = at_lo, at_hi
        n = v_lo - v_hi - (s_hi == 0)  # the caller emits a root at hi
        if n == 0:
            return
        if n == 1 and s_lo * s_hi == -1:
            while hi - lo > precision:
                lo, hi = _halve(f, lo, hi, s_lo)
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        at_mid = _chain_at(seq, mid)
        split(lo, mid, at_lo, at_mid)
        if at_mid[1] == 0:
            out.append((mid, mid))
        split(mid, hi, at_mid, at_hi)

    lo, hi = Fraction(-bound), Fraction(bound)
    split(lo, hi, _chain_at(seq, lo), _chain_at(seq, hi))
    return out


def sign_at_root(f: IntPoly, iv: Interval, g) -> int:
    """Exact sign of g = g[0] + g[1] x at the unique root r of f inside iv.

    g holds rational coefficients (anything Fraction accepts), lowest degree
    first, of degree at most 1. For g[1] != 0 the sign is sign(g[1]) times
    the side of -g[0]/g[1] on which r lies: one compare_root call. A zero
    g, g(r) = 0 and g of degree 2 or more are refused.
    """
    a, b, *rest = (*g, 0, 0)
    if any(rest):
        raise PreconditionError("sign_at_root takes g of degree at most 1")
    a, b = Fraction(a), Fraction(b)
    s = compare_root(f, iv, -a / b) if b else (a > 0) - (a < 0)
    if s == 0:
        raise PreconditionError("polynomial vanishes at the root")
    return s if b >= 0 else -s


def compare_root(f: IntPoly, iv: Interval, q: Fraction) -> int:
    """Sign of (root - q) for the unique root of squarefree f inside iv.

    Returns +1 if the root exceeds q, -1 if it is below, 0 if the root is
    exactly the rational q. A q outside [lo, hi] is decided from the ends,
    with no evaluation; for q in a non-degenerate [lo, hi], a root of f at
    lo is refused.
    """
    lo, hi = iv
    q = Fraction(q)
    if lo < hi and lo <= q <= hi:
        s_lo = _sign_at(f, lo)
        if s_lo == 0:
            raise PreconditionError("endpoint is a root; pass a degenerate interval")
        if lo < q and _sign_at(f, q) == 0:
            return 0
        while lo < q < hi:
            lo, hi = _halve(f, lo, hi, s_lo)
    if lo == hi:
        return (lo > q) - (lo < q)
    return 1 if q <= lo else -1
