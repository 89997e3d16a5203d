"""Distinct-degree factorization over prime fields.

Polynomials mod p are plain lists of ints in [0, p), lowest degree first,
trimmed. The pipeline is squarefree decomposition (each multiplicity read
by repeated exact division), then distinct-degree splitting (each step one
powering h -> h^p mod f*, about log2 p products mod f*), up to an optional
bound on the degree. That is all the splitting shape of a prime needs:
there is no equal-degree stage, no irreducible factor is ever separated,
and every step is deterministic. Intended scale: degree up to a few dozen,
p up to about 1e6 (larger p works, just slower).

The level scan, the one caller in the package, always passes a bound and
stops at the first degree with a factor. A walk with no bound is slower at
large p than one product per step with a Frobenius matrix (rows x^(ip)
mod f*) would be: on a 2-core x86 machine, degree 12 takes about
1.0 / 2.5 / 3.5 ms and degree 30 about 7.5 / 23.0 / 32.3 ms at
p = 101 / 65,537 / 999,983, against 0.6 / 1.2 / 1.4 and 4.8 / 8.4 / 9.8 ms
with the matrix (median of five random monic inputs).
"""

from __future__ import annotations

from ..errors import PreconditionError
from ..ntheory import is_prime
from .poly import IntPoly, _product


def gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def gf_sub(a, b, p):
    n = max(len(a), len(b))
    return gf_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def gf_mul(a, b, p):
    return gf_trim([c % p for c in _product(a, b)])


def gf_scale(a, c, p):
    c %= p
    return gf_trim([ai * c % p for ai in a])


def gf_monic(a, p):
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return gf_scale(a, inv, p)


def gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("mod-p division by zero polynomial")
    a = list(a)
    db = len(b) - 1
    low = b[:db]
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - db)
    # step k clears a[k + db] (never read again) from the lower entries
    for k in range(len(q) - 1, -1, -1):
        c = a[k + db] * inv % p
        if c:
            q[k] = c
            for i, bi in enumerate(low, k):
                a[i] = (a[i] - c * bi) % p
    return q, gf_trim(a[:db])


def gf_mod(a, b, p):
    return gf_divmod(a, b, p)[1]


def gf_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, gf_mod(a, b, p)
    return gf_monic(a, p)


def gf_powmod(a, e: int, f, p):
    """a^e mod f, left to right: one squaring per bit of e after the
    leading one, and one product by a per further set bit. Each step of
    _distinct_degree is one powering, mostly at small p in the level scan,
    where a spare squaring or a product by 1 would be a large share."""
    if not e:
        return [1]
    base = gf_mod(a, f, p)
    result = base
    for bit in bin(e)[3:]:
        result = gf_mod(gf_mul(result, result, p), f, p)
        if bit == "1":
            result = gf_mod(gf_mul(result, base, p), f, p)
    return result


def gf_deriv(a, p):
    return gf_trim([i * c % p for i, c in enumerate(a)][1:])


def _pth_root(a, p):
    # a is a polynomial in x^p over F_p; c^p = c, so just decimate exponents.
    return gf_trim([a[i] for i in range(0, len(a), p)])


def gf_squarefree_parts(f, p):
    """[(g, multiplicity)] with g monic squarefree pairwise coprime and
    f = lc * prod g^multiplicity.

    v = f / gcd(f, f') is the product of the irreducible factors whose
    multiplicity e is prime to p, and t = gcd(f, f') holds each of them
    e - 1 times. At step k, v holds the factors with e >= k and t each of
    them e - k times: when v divides t exactly, every e exceeds k and the
    quotient is the next t; otherwise gcd(v, t mod v) keeps the factors
    with e > k and the rest of v has multiplicity exactly k. So a step
    costs one division of t, and a gcd only where factors leave v.
    """
    f = gf_monic(f, p)
    out: list[tuple[list[int], int]] = []

    def walk(f, mult):
        while len(f) > 1:
            df = gf_deriv(f, p)
            if not df:
                f = _pth_root(f, p)
                mult *= p
                continue
            t = gf_gcd(f, df, p)
            v = gf_divmod(f, t, p)[0]
            k = 1
            while len(v) > 1:
                q, rem = gf_divmod(t, v, p)
                if rem:
                    w = gf_gcd(v, rem, p)
                    out.append((gf_divmod(v, w, p)[0], mult * k))
                    v = w
                    t = gf_divmod(t, w, p)[0]
                else:
                    t = q
                k += 1
            f = t  # leftover is a p-th power (or constant)

    walk(list(f), 1)
    return out


def _distinct_degree(f, p, top=None):
    """Yield (product_of_irreducibles_of_degree_d, d) for monic squarefree
    f, d ascending; with top, only the d <= top, and the walk stops there.

    Step d takes h = x^(p^(d-1)) to h^p mod f*, one powering of about
    log2 p products mod f*, and splits off gcd(h - x, f*), the product of
    the factors of degree d. h stays reduced mod the f* it was raised
    under, which every later f* divides.
    """
    if top is None:
        top = len(f) - 1
    h = [0, 1]  # x
    fstar = list(f)
    d = 0
    while len(fstar) - 1 >= 2 * (d + 1) and d < top:
        d += 1
        h = gf_powmod(h, p, fstar, p)
        g = gf_gcd(gf_sub(h, [0, 1], p), fstar, p)
        if len(g) > 1:
            yield g, d
            fstar = gf_divmod(fstar, g, p)[0]
    # f* has no factor of degree <= d: below 2(d + 1) it is irreducible
    if 1 < len(fstar) <= top + 1:
        yield fstar, len(fstar) - 1


def factor_mod_p(f: IntPoly, p: int,
                 top: int | None = None) -> list[tuple[IntPoly, int, int]]:
    """Distinct-degree factorization of f mod p as [(g, d, e)]: g is the
    monic product of the irreducible factors of f mod p that have degree d
    and multiplicity e, so it holds deg g / d of them.

    Each (d, e) occurs once; the g are IntPoly with coefficients in
    [0, p), sorted by (d, e), and the product of the g^e times (lc(f) mod p)
    reproduces f mod p.

    top is not a plain degree cut: with it, only the least pairs (d, e)
    with d <= top are returned, by the rule that numfield.dedekind_split
    states for its below. The squarefree parts are walked by ascending
    multiplicity, each up to its first degree with a factor, and top then
    drops below that degree.
    """
    if not is_prime(p):
        raise PreconditionError(f"modulus {p} is not prime")
    fp = gf_trim([c % p for c in f.coeffs])
    if not fp:
        raise PreconditionError("polynomial vanishes mod p")
    parts = []
    for part, e in sorted(gf_squarefree_parts(fp, p), key=lambda t: t[1]):
        for g, d in _distinct_degree(part, p, top):
            parts.append((g, d, e))
            if top is not None:
                top = d - 1
                break
    parts.sort(key=lambda t: (t[1], t[2]))
    return [(IntPoly(g), d, e) for g, d, e in parts]
