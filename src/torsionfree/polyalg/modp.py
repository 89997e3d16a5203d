"""Distinct-degree factorization over prime fields.

Polynomials mod p are plain lists of ints in [0, p), lowest degree first,
trimmed. The pipeline is squarefree decomposition (each multiplicity read
by repeated exact division), then distinct-degree splitting (h -> h^p as
one product with the Frobenius matrix, rows x^(ip) mod f, after the first
step), up to an optional bound on the degree. That is all the splitting
shape of a prime needs: there is no equal-degree stage, no irreducible
factor is ever separated, and every step is deterministic. Intended scale:
degree up to a few dozen, p up to about 1e6 (larger p works, just slower).
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
    result = [1]
    base = gf_mod(a, f, p)
    while e:
        if e & 1:
            result = gf_mod(gf_mul(result, base, p), f, p)
        base = gf_mod(gf_mul(base, base, p), f, p)
        e >>= 1
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

    Step d takes h = x^(p^(d-1)) to h^p and splits off gcd(h - x, f*), the
    product of the factors of degree d. The first step is one powering,
    h = x^p mod f*. Every later step is one product with the Frobenius
    matrix Q of the modulus g = f* at the second step, whose row i is
    x^(ip) mod g: since c^p = c in F_p, h^p = sum_i h_i x^(ip). The matrix
    is built only when a second step is needed; h stays reduced mod g,
    which every later f* divides.
    """
    if top is None:
        top = len(f) - 1
    h = [0, 1]  # x
    fstar = list(f)
    d = 0
    while len(fstar) - 1 >= 2 * (d + 1) and d < top:
        d += 1
        if d == 1:
            h = gf_powmod(h, p, fstar, p)
        else:
            if d == 2:
                h = gf_mod(h, fstar, p)
                frob = _frobenius_rows(h, fstar, p)
            h = _frobenius(h, frob, p)
        g = gf_gcd(gf_sub(h, [0, 1], p), fstar, p)
        if len(g) > 1:
            yield g, d
            fstar = gf_divmod(fstar, g, p)[0]
    # f* has no factor of degree <= d: below 2(d + 1) it is irreducible
    if 1 < len(fstar) <= top + 1:
        yield fstar, len(fstar) - 1


def _frobenius_rows(xp, g, p):
    """Rows x^(ip) mod g for 0 <= i < deg g, from xp = x^p mod g."""
    rows = [[1]]
    for _ in range(len(g) - 2):
        rows.append(gf_mod(gf_mul(rows[-1], xp, p), g, p))
    return rows


def _frobenius(h, rows, p):
    """h^p mod g as sum_i h_i x^(ip), with rows from _frobenius_rows."""
    out = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return gf_trim([v % p for v in out])


def factor_mod_p(f: IntPoly, p: int,
                 top: int | None = None) -> list[tuple[IntPoly, int, int]]:
    """Distinct-degree factorization of f mod p as [(g, d, e)]: g is the
    monic product of the irreducible factors of f mod p that have degree d
    and multiplicity e, so it holds deg g / d of them.

    Each (d, e) occurs once; the g are IntPoly with coefficients in
    [0, p), sorted by (d, e), and the product of the g^e times (lc(f) mod p)
    reproduces f mod p. With top, only the pairs with d <= top are
    returned, and the distinct-degree walk of each squarefree part stops
    there.
    """
    if not is_prime(p):
        raise PreconditionError(f"modulus {p} is not prime")
    fp = gf_trim([c % p for c in f.coeffs])
    if not fp:
        raise PreconditionError("polynomial vanishes mod p")
    parts = [(g, d, e) for part, e in gf_squarefree_parts(fp, p)
             for g, d in _distinct_degree(part, p, top)]
    parts.sort(key=lambda t: (t[1], t[2]))
    return [(IntPoly(g), d, e) for g, d, e in parts]
