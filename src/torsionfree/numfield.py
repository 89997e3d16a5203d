"""Number fields presented as Q[x]/(f) with f monic in Z[x].

Everything here is exact. A field element is a vector of integer numerators
over one positive denominator, with no common factor among them (Cohen, A
Course in Computational Algebraic Number Theory, GTM 138, 4.2); a product
multiplies the numerators in Z[x] and reduces by the monic f (mul_mod), and
no Fraction is built until .rep asks for the rational coefficients.

dedekind_split is the one answer to how a rational prime q splits, up to
an optional bound on the norm. The level scan asks it for every prime it
visits, and the abelian count for the primes dividing the conductor; the
count reads the other primes from the same inertia memo directly, one by
one up to cbrt(x) and once per residue class above.
In a field without a conductor it reads f mod q, away from the primes
that may divide [O : Z[theta]]. is_index_prime decides that for one prime
q where a caller visits it: q^2 must divide the polynomial discriminant
and Dedekind's criterion fail at q, and the answer is memoised per field,
so the criterion runs at most once per (field, q). Splitting, the level
scan and the generic count ask only at the primes they reach, so building
a field factors nothing; only dedekind_index_primes, for field_disc and
the report, factors the whole discriminant. Real embeddings are isolating
intervals, ordered by ascending embedding value.

Library-built cosine fields Q(2cos(2pi/n)) carry their conductor n and are
built once per conductor. Their real embeddings come from the closed form
2cos(2pi k/n) and are certified exactly, and every prime q, ramified or
not, splits by the abelian law instead of by factorisation mod q: a cosine
field's level scan and count factor nothing.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache
from math import floor, gcd, isqrt, lcm

from . import _kernels
from .errors import (NotSquarefreeError, PreconditionError, ResourceCapError,
                     TorsionfreeError)
from .ntheory import factorize, iroot, is_prime, primes_upto
from .polyalg import (
    IntPoly,
    discriminant,
    factor_mod_p,
    isolate_real_roots,
    isolate_two_cos_roots,
    minpoly_two_cos_conductor,
    sign_at_root,
    two_cos_discriminant,
)
from .polyalg.modp import (gf_divmod, gf_gcd, gf_mul, gf_squarefree_parts,
                           gf_trim)
from .polyalg.poly import _product

# Largest x (exclusive) for the class-sieve count of a cosine field; the
# generic route stops at 2^31, the range of the kernels it runs in.
ABELIAN_COUNT_CAP = 1 << 40


class NumberField:
    """Q(theta) for theta a root of the monic defining_poly, of the given
    degree: disc_poly is the discriminant of defining_poly, and
    real_embeddings the isolating cells (lo, hi] of its real roots,
    ascending. conductor is n for a field built by make_cosine_field, else
    None. Two fields are equal, and hash equally, when these five agree;
    the memo of index-prime answers takes no part."""

    __slots__ = ("defining_poly", "degree", "disc_poly", "real_embeddings",
                 "conductor", "_index_memo")

    def __init__(self, defining_poly: IntPoly, degree: int, disc_poly: int,
                 real_embeddings: tuple[tuple[Fraction, Fraction], ...],
                 conductor: int | None = None):
        self.defining_poly = defining_poly
        self.degree = degree
        self.disc_poly = disc_poly
        self.real_embeddings = real_embeddings
        self.conductor = conductor
        # is_index_prime's answers, q -> whether q may divide [O : Z[theta]]
        self._index_memo = {}

    def _key(self) -> tuple:
        return (self.defining_poly, self.degree, self.disc_poly,
                self.real_embeddings, self.conductor)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, NumberField)
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    @property
    def field_disc(self) -> int | None:
        """disc_poly when no prime may divide the index, else None. A field
        without a conductor factors disc_poly for it (dedekind_index_primes)."""
        return None if dedekind_index_primes(self) else self.disc_poly

    def element(self, coeffs) -> "FieldElement":
        c = [Fraction(x) for x in coeffs]
        if len(c) > self.degree:
            raise PreconditionError("representation degree exceeds field degree")
        den = lcm(*(a.denominator for a in c))
        num = [a.numerator * (den // a.denominator) for a in c]
        return FieldElement(self, num + [0] * (self.degree - len(c)), den)

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            return self.element([-self.defining_poly[0]])
        return self.element([0, 1])

    def to_json(self) -> dict:
        """The field report; its field_disc and monogenic keys both read the
        field_disc property."""
        field_disc = self.field_disc
        return {
            "poly": list(self.defining_poly.coeffs),
            "degree": self.degree,
            "disc_poly": str(self.disc_poly),
            "field_disc": None if field_disc is None else str(field_disc),
            "monogenic": field_disc is not None,
        }


def mul_mod(u, v, f) -> list[int]:
    """u * v reduced modulo the monic IntPoly f, whose coefficient tuple the
    fold reads directly, for integer coefficient vectors u, v of length
    deg f (lowest degree first); the result is integral too. The
    product is polyalg's one dense loop, so a sparse factor costs O(d) on
    either side."""
    d = len(u)
    fc = f.coeffs
    prod = _product(u, v)
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        if c:
            for j in range(d):
                prod[k - d + j] -= c * fc[j]
    return prod[:d]


class FieldElement:
    """(num[0] + num[1] theta + ... + num[d-1] theta^(d-1)) / den.

    The constructor requires den > 0 and divides out gcd(den, *num), so zero
    is (0, ..., 0) / 1 and equal elements have equal (num, den).
    """

    __slots__ = ("owner", "num", "den")

    def __init__(self, owner: NumberField, num, den: int):
        num = tuple(num)  # length = degree, coefficient of theta^i at i
        if len(num) != owner.degree:
            raise PreconditionError("representation length must equal degree")
        if den < 1:
            raise PreconditionError("denominator must be positive")
        g = gcd(den, *num)
        if g > 1:
            num, den = tuple(a // g for a in num), den // g
        self.owner = owner
        self.num = num
        self.den = den

    @property
    def rep(self) -> tuple[Fraction, ...]:
        """Rational coefficients of theta^0 .. theta^(d-1)."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def _same_field(self, other: "FieldElement") -> None:
        if self.owner is not other.owner and self.owner != other.owner:
            raise PreconditionError("elements of different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        s, t = other.den, self.den
        return FieldElement(self.owner,
                            tuple(a * s + b * t for a, b in zip(self.num, other.num)),
                            s * t)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + -other

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.owner, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.owner,
                                tuple(a * other.numerator for a in self.num),
                                self.den * other.denominator)
        self._same_field(other)
        return FieldElement(self.owner,
                            mul_mod(self.num, other.num, self.owner.defining_poly),
                            self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement) and self.owner == other.owner
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.owner.defining_poly, self.num, self.den))


def _dedekind_index_test(f: IntPoly, p: int) -> bool:
    """True when p does NOT divide the index [O : Z[theta]]."""
    fbar = [c % p for c in f.coeffs]
    gbar = [1]  # the radical of f mod p: the product of its squarefree parts
    for part, _e in gf_squarefree_parts(fbar, p):
        gbar = gf_mul(gbar, part, p)
    hbar, rem = gf_divmod(fbar, gbar, p)
    if gf_trim(list(rem)):
        raise TorsionfreeError(f"radical of f mod {p} does not divide f")
    g = IntPoly(tuple(gbar))
    h = IntPoly(tuple(hbar)) if hbar else IntPoly((1,))
    big = g * h - f
    if any(c % p for c in big.coeffs):
        raise TorsionfreeError(f"g * h - f is not divisible by {p}")
    F = [(c // p) % p for c in big.coeffs]
    d1 = gf_gcd(F, gbar, p)
    d2 = gf_gcd(d1, [c % p for c in h.coeffs], p)
    return len(d2) == 1


def is_index_prime(K: NumberField, q: int) -> bool:
    """True when the prime q may divide [O : Z[theta]]: q^2 divides
    disc_poly and Dedekind's criterion fails at q. Z[2cos(2pi/n)] is the
    maximal order (Washington, Introduction to Cyclotomic Fields, Prop.
    2.16), so a cosine field has none. The answer is memoised in K, so the
    criterion runs at most once per (field, q)."""
    if K.conductor is not None or K.disc_poly % (q * q):
        return False
    memo = K._index_memo
    if q not in memo:
        memo[q] = not _dedekind_index_test(K.defining_poly, q)
    return memo[q]


def dedekind_index_primes(K: NumberField) -> tuple[int, ...]:
    """Every prime that may divide [O : Z[theta]], ascending: the primes
    whose square divides disc_poly and that is_index_prime keeps. A field
    without a conductor factors all of disc_poly for them (factorize: trial
    division, then Pollard rho within its budget, with ResourceCapError past
    it); nothing but field_disc and the field report needs the whole set."""
    if K.conductor is not None:
        return ()
    return tuple(q for q, e in factorize(abs(K.disc_poly)).items()
                 if e >= 2 and is_index_prime(K, q))


def make_field(f: IntPoly | tuple[int, ...], conductor: int | None = None) -> NumberField:
    """Build a NumberField from a monic integer polynomial.

    Irreducibility is the caller's responsibility; visibly reducible input is
    rejected. A tuple's coefficients must be integers (operator.index), so a
    float, a string or a Fraction raises PreconditionError. The checks run
    in this order: degree >= 1 and monic; a zero discriminant (repeated
    factor) raises NotSquarefreeError; the real roots are isolated; a
    rational root, which for monic f is an integer inside its cell, raises
    PreconditionError. No prime is factored or tested here: is_index_prime
    decides each index prime where it is visited.

    conductor = n declares f the minimal polynomial of 2cos(2pi/n), which is
    checked; then the discriminant is two_cos_discriminant(n), and the cells
    and splitting come from closed forms.
    """
    if not isinstance(f, IntPoly):
        try:
            f = IntPoly(tuple(map(operator.index, f)))
        except TypeError as e:
            raise PreconditionError(
                f"integer coefficients expected: {e}") from None
    if conductor is not None and f != minpoly_two_cos_conductor(conductor):
        raise PreconditionError(
            f"polynomial is not the minimal polynomial of 2cos(2pi/{conductor})")
    if f.degree < 1:
        raise PreconditionError("defining polynomial must have degree >= 1")
    if not f.is_monic():
        raise PreconditionError("defining polynomial must be monic")
    disc = discriminant(f) if conductor is None else two_cos_discriminant(conductor)
    if disc == 0:
        raise NotSquarefreeError("defining polynomial has a repeated factor")
    cells = (isolate_real_roots(f) if conductor is None
             else isolate_two_cos_roots(conductor))
    # a cell (lo, hi] is narrower than 1, so the one integer it can hold is
    # floor(hi)
    if f.degree >= 2 and any(lo == hi or (floor(hi) > lo and f(floor(hi)) == 0)
                             for lo, hi in cells):
        raise PreconditionError("defining polynomial has a rational root")
    return NumberField(
        defining_poly=f,
        degree=f.degree,
        disc_poly=disc,
        real_embeddings=tuple(cells),
        conductor=conductor,
    )


@cache
def make_cosine_field(n: int) -> NumberField:
    """The field Q(2cos(2pi/n)) = Q(cos(2pi/n)), via its minimal polynomial.

    Built once per conductor: every caller shares the same field."""
    return make_field(minpoly_two_cos_conductor(n), conductor=n)


def _linear_parts(alpha: FieldElement) -> tuple[int, int]:
    """(a, b) with alpha = (a + b theta)/den; an element with a theta^2 or
    higher term is refused."""
    num = alpha.num
    if any(num[2:]):
        raise PreconditionError("only linear elements (a + b theta)/den")
    return num[0], num[1] if len(num) > 1 else 0


def element_charpoly(alpha: FieldElement) -> tuple[Fraction, ...]:
    """Characteristic polynomial of multiplication by the linear element
    alpha = (a + b theta)/den, monic of degree d, in closed form over Z
    (see _charpoly_linear)."""
    a, b = _linear_parts(alpha)
    return _charpoly_linear(alpha.owner.defining_poly, a, b, alpha.den)


def _charpoly_linear(f: IntPoly, a: int, b: int, den: int) -> tuple[Fraction, ...]:
    # the charpoly of (a + b*theta)/den is h(den*x)/den^d, where
    # h(y) = prod (y - a - b*r) over the roots r of f = b^d f((y - a)/b)
    # = sum f_i b^(d-i) (y - a)^i lies in Z[y]: Horner in y - a on a plain
    # int list, O(d^2) (for b = 0 it is (y - a)^d); so the coefficient of
    # x^k is h_k / den^(d-k)
    fc = f.coeffs
    d = len(fc) - 1
    h, bp = [1], 1
    for i in range(d - 1, -1, -1):
        bp *= b
        h.insert(0, fc[i] * bp)   # h <- h y + f_i b^(d-i), then - a h:
        if a:                     # ascending, h[k + 1] is still old h_k
            for k in range(len(h) - 1):
                h[k] -= a * h[k + 1]
    return tuple(Fraction(h[k], den ** (d - k)) for k in range(d + 1))


def dedekind_split(K: NumberField, p: int,
                   below: int | None = None) -> tuple[tuple[int, int], ...]:
    """Shape of p * O as (e_i, f_i) pairs ordered by (f_i, e_i), read from
    the defining polynomial mod p; with below, only the primes of norm
    p^f_i < below, and the distinct-degree walk stops at the largest j
    with p^j < below. An index prime of K, where that reading fails,
    raises PreconditionError.

    A cosine field factors nothing: every prime splits by the abelian law
    (Washington, Introduction to Cyclotomic Fields, Thm 2.13). With N the
    conductor n, or n/2 for n = 2 mod 4, write N = p^a m with p not
    dividing m. For m = 1, p is totally ramified, e = phi(p^a)/2 = d;
    otherwise e = phi(p^a) and f is the order of p in (Z/m)*/{+-1}, which
    _inertia_degree reads from p mod m. For a = 0 that is e = 1: p is
    unramified.
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if is_index_prime(K, p):
        raise PreconditionError(f"{p} may divide the index [O : Z[theta]]")
    top = None
    if below is not None:
        top, power = 0, p  # the largest top with p^top < below
        while power < below:
            top += 1
            power *= p
    n = K.conductor
    if n is None:
        return tuple((e, d) for g, d, e in factor_mod_p(K.defining_poly, p, top)
                     for _ in range(g.degree // d))
    if n % 4 == 2:
        n //= 2  # Q(zeta_n) = Q(zeta_(n/2)); then m = 1 or m >= 3
    m, pa = n, 1
    while m % p == 0:
        m //= p
        pa *= p
    if m == 1:
        e, f = K.degree, 1
    else:
        e, f = pa - pa // p, _inertia_degree(p % m, m)
    if top is not None and f > top:
        return ()
    return ((e, f),) * (K.degree // (e * f))


@cache
def _inertia_degree(c: int, n: int) -> int:
    """Inertia degree in Q(2cos(2pi/n)), n >= 3, of every prime q = c
    (mod n), gcd(c, n) = 1: the order of c in (Z/n)*/{+-1} (Washington,
    Introduction to Cyclotomic Fields, Thm 2.13). Memoised per conductor
    and residue class, so each class met is walked once. A class sharing
    a factor with n has no such order and raises PreconditionError."""
    if gcd(c, n) != 1:
        raise PreconditionError(f"{c} is not a unit mod {n}")
    x, f = c, 1
    while x != 1 and x != n - 1:
        x = x * c % n
        f += 1
    return f


def count_prime_ideals(K: NumberField, x: int,
                       unreliable_out: list[int] | None = None) -> int:
    """Exact number of prime ideals of norm <= x above no index prime of K.

    The index primes q <= x are appended, ascending, to unreliable_out
    instead of silently dropped. Library-built cosine fields count by the
    abelian splitting law and have no index prime; every other field counts
    in the batched kernels, distinct-degree counts of f mod p for
    p <= sqrt(x) and root counts above, with no factorisation mod p; both
    routes agree on their common domain. A generic field refuses x >= 2^31,
    and a degree above the kernels' 63, with ResourceCapError before any
    prime is scanned.
    """
    if x < 2:
        return 0
    if K.conductor is not None:
        return _count_abelian(K, x)
    return _count_generic(K, x, unreliable_out)


def _count_generic(K: NumberField, x: int,
                   unreliable_out: list[int] | None) -> int:
    """Counting route for a field without a conductor, in one pass of the
    batched root-count kernel: a prime p <= sqrt(x) adds its irreducible
    factors of f mod p with p^deg <= x, a prime above sqrt(x) its roots of
    f mod p.

    is_index_prime is asked for every p <= sqrt(x), and index primes stay
    out of the factor rows. Above sqrt(x) it is asked only for the primes
    that divide disc_poly, which the root-count kernel lists from the
    residues of disc_poly on its own batches; an index prime's roots are
    taken back out, by a second pass only when there is one."""
    if x + 1 > _kernels._PRIME_CAP:
        raise ResourceCapError("prime scan exceeds the kernel range (2^31)")
    if K.degree > _kernels._MAX_DEGREE:
        raise ResourceCapError(
            f"degree {K.degree} exceeds the kernel cap {_kernels._MAX_DEGREE}")
    f = K.defining_poly.coeffs
    B = isqrt(x)
    small, index = [], []
    for p in primes_upto(B):
        (index if is_index_prime(K, p) else small).append(p)
    dividing: list[int] = []
    total = _kernels.poly_root_count_over_primes(
        f, B + 1, x + 1, disc=K.disc_poly, dividing=dividing,
        factor_primes=small)
    large = [q for q in dividing if is_index_prime(K, q)]
    if unreliable_out is not None:
        unreliable_out.extend(index + large)
    if large:
        total -= _kernels.poly_factor_count(f, large, x)
    return total


def _count_abelian(K: NumberField, x: int) -> int:
    """Counting route for the real cyclotomic subfield of conductor n.

    A ramified prime (a divisor of n) goes through dedekind_split, which
    keeps the primes above it of norm at most x. An unramified q gives d/f
    prime ideals of norm q^f, f its inertia degree, which count when
    q^f <= x. Only a q <= cbrt(x) can count with f >= 3, so only those are
    read one by one from the inertia memo. The primes in (cbrt(x), sqrt(x)]
    are tallied by their class mod n: each class prime to n reads its f
    once and adds its tally times d/f when f <= 2.
    An unramified q above sqrt(x) counts only with inertia degree 1, that is
    for q = +-1 mod n, and then with d prime ideals; the class sieve counts
    those primes.
    """
    if x >= ABELIAN_COUNT_CAP:
        raise ResourceCapError("prime count exceeds the class sieve cap (2^40)")
    n, d = K.conductor, K.degree
    B = isqrt(x)
    total = 0
    for q in factorize(n):
        total += len(dedekind_split(K, q, x + 1))
    primes = primes_upto(B)
    cut = bisect_right(primes, iroot(x, 3))
    for q in primes[:cut]:
        if n % q:
            f = _inertia_degree(q % n, n)
            if f <= 2 or q**f <= x:
                total += d // f
    for c, k in Counter(q % n for q in primes[cut:]).items():
        if gcd(c, n) == 1:
            f = _inertia_degree(c, n)
            if f <= 2:
                total += k * (d // f)
    if x > B:
        total += d * _kernels.prime_count_in_classes(
            B + 1, x + 1, n, (1, n - 1))
    return total


def sign_at_embeddings(alpha: FieldElement) -> tuple[int, ...]:
    """Exact sign of the linear element alpha = (a + b theta)/den at every
    real embedding, ascending embedding order. a + b r is monotone in the
    root r, so the signs are a run of -up, then one of up (1 for b > 0,
    else -1; for b = 0 one run is empty): bisection finds the switch in
    ceil(log2(r + 1)) sign_at_root calls for r real embeddings."""
    if alpha.is_zero():
        raise PreconditionError("sign of the zero element")
    K = alpha.owner
    cells = K.real_embeddings
    if not cells:
        raise PreconditionError("field has no real embedding")
    g = _linear_parts(alpha)
    up = 1 if g[1] > 0 else -1
    lo, hi = 0, len(cells)  # the first cell with sign up lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if sign_at_root(K.defining_poly, cells[mid], g) == up:
            hi = mid
        else:
            lo = mid + 1
    return (-up,) * lo + (up,) * (len(cells) - lo)
