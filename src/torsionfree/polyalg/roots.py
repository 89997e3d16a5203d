"""Exact real root isolation via Sturm sequences and rational bisection.

Intervals are closed [lo, hi] with Fraction endpoints. A degenerate interval
lo == hi marks an exact rational root. For a squarefree input the returned
intervals are pairwise disjoint, ascending, each of width at most the
requested precision, and each contains exactly one real root. Every sign is
an exact integer evaluation (_sign_at), and every bisection is one _halve
step; floats never decide anything here.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import NotSquarefreeError, PreconditionError
from .poly import IntPoly, clear_denominators, is_squarefree, poly_gcd

Interval = tuple[Fraction, Fraction]


def sturm_sequence(f: IntPoly) -> list[IntPoly]:
    """Sturm chain of f; remainders are scaled to primitive integer
    polynomials (positive scaling preserves the sign variation count)."""
    seq = [f, f.derivative()]
    while seq[-1].degree > 0:
        _, r = seq[-2].pseudo_divmod(seq[-1])
        # pseudo remainder = lc^k * true remainder; fix the sign when lc < 0
        # and the multiplier power is odd
        k = seq[-2].degree - seq[-1].degree + 1
        if seq[-1].lc < 0 and k % 2:
            r = -r
        r = -r.primitive()
        if r.is_zero():
            break
        seq.append(r)
    if seq[-1].is_zero():
        seq.pop()
    return seq


def _sign_at(f: IntPoly, x: Fraction) -> int:
    """Sign of f(x) for rational x = num/den, den > 0: the sign of
    den^deg f * f(num/den), computed by Horner over Z."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(f.coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _variations_at(seq, x: Fraction) -> int:
    """Sign variations of the chain seq at x, zeros skipped."""
    count = prev = 0
    for p in seq:
        s = _sign_at(p, x)
        if s:
            count += prev == -s
            prev = s
    return count


def root_bound(f: IntPoly) -> int:
    """Cauchy bound: all real roots lie strictly inside [-B, B]."""
    if f.degree < 1:
        raise PreconditionError("root bound needs degree >= 1")
    lc = abs(f.lc)
    m = max(abs(a) for a in f.coeffs[:-1]) if f.degree else 0
    return 1 + (m + lc - 1) // lc + 1


def count_roots_in(seq, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    return _variations_at(seq, lo) - _variations_at(seq, hi)


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


def _sign_at_lo(f: IntPoly, lo: Fraction) -> int:
    s = _sign_at(f, lo)
    if s == 0:
        raise PreconditionError("endpoint is a root; pass a degenerate interval")
    return s


def isolate_real_roots(f: IntPoly, precision: Fraction = Fraction(1, 2**20)) -> list[Interval]:
    """Isolating intervals for all real roots of squarefree f, ascending."""
    if f.degree < 0:
        raise PreconditionError("zero polynomial has no isolated roots")
    if f.degree == 0:
        return []
    if not is_squarefree(f):
        raise NotSquarefreeError("input polynomial has repeated roots")
    if precision <= 0:
        raise PreconditionError("precision must be positive")
    if f.degree == 1:
        r = Fraction(-f[0], f[1])
        return [(r, r)]
    seq = sturm_sequence(f)
    bound = root_bound(f)
    out: list[Interval] = []

    def split(lo: Fraction, hi: Fraction, n: int):
        if n == 0:
            return
        s_lo, s_hi = _sign_at(f, lo), _sign_at(f, hi)
        if n == 1 and s_lo * s_hi == -1:
            while hi - lo > precision:
                lo, hi = _halve(f, lo, hi, s_lo)
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        at_mid = 1 if _sign_at(f, mid) == 0 else 0
        n_left = count_roots_in(seq, lo, mid) - at_mid
        n_right = n - n_left - at_mid
        split(lo, mid, n_left)
        if at_mid:
            out.append((mid, mid))
        split(mid, hi, n_right)

    lo, hi = Fraction(-bound), Fraction(bound)
    split(lo, hi, count_roots_in(seq, lo, hi))
    return out


def sign_at_root(f: IntPoly, iv: Interval, g_coeffs) -> int:
    """Exact sign of g at the unique root r of f inside iv; requires g(r) != 0.

    g is given as rational coefficients (any iterable accepted by Fraction).
    The interval is bisected until g provably has constant nonzero sign on it:
    both endpoint signs agree and a Sturm count certifies g has no root inside.
    A non-degenerate iv must not have a root of f at lo. A common root of f
    and g in iv is refused before bisecting, since no bisection ends there
    when the root is irrational.
    """
    lo, hi = iv
    g_int, _den = clear_denominators([Fraction(c) for c in g_coeffs])
    if g_int.is_zero():
        raise PreconditionError("zero polynomial has no sign")
    if lo != hi:
        s_lo = _sign_at_lo(f, lo)
        gsf = g_int.exact_div(poly_gcd(g_int, g_int.derivative())) if g_int.degree > 0 else g_int
        h = poly_gcd(f, gsf)  # squarefree, as gsf is
        if h.degree > 0 and count_roots_in(sturm_sequence(h), lo, hi):
            raise PreconditionError("polynomial vanishes at the root")
        gseq = sturm_sequence(gsf) if gsf.degree > 0 else None
        while lo != hi:
            v = _sign_at(g_int, lo)
            if v and v == _sign_at(g_int, hi) and \
                    (gseq is None or count_roots_in(gseq, lo, hi) == 0):
                return v
            lo, hi = _halve(f, lo, hi, s_lo)
    v = _sign_at(g_int, lo)
    if v == 0:
        raise PreconditionError("polynomial vanishes at the root")
    return v


def compare_root(f: IntPoly, iv: Interval, q: Fraction) -> int:
    """Sign of (root - q) for the unique root of squarefree f inside iv.

    Returns +1 if the root exceeds q, -1 if it is below, 0 if the root is
    exactly the rational q. A non-degenerate iv must not have a root of f
    at lo.
    """
    lo, hi = iv
    q = Fraction(q)
    if lo != hi:
        s_lo = _sign_at_lo(f, lo)
        if lo < q <= hi and _sign_at(f, q) == 0:
            return 0
        while lo < q < hi:
            lo, hi = _halve(f, lo, hi, s_lo)
    if lo == hi:
        return (lo > q) - (lo < q)
    return 1 if q <= lo else -1
