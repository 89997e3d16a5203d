"""Number fields presented as Q[x]/(f) with f monic in Z[x].

Everything here is exact. Splitting of rational primes is only trusted away
from index-dividing primes (Dedekind criterion); the monogenic_certified
flag records whether the full discriminant is known. Real embeddings are
isolating intervals, ordered by ascending embedding value.

Library-built cosine fields Q(2cos(2pi/n)) carry their conductor n. Their
real embeddings come from the closed form 2cos(2pi k/n) and are certified
exactly, and a prime q not dividing n splits by the abelian law instead of
by factorisation mod q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import _kernels
from .errors import (NotSquarefreeError, PreconditionError, ResourceCapError,
                     TorsionfreeError)
from .ntheory import factorize, is_prime, primes_upto
from .polyalg import (
    IntPoly,
    discriminant,
    factor_mod_p,
    isolate_real_roots,
    isolate_two_cos_roots,
    minpoly_two_cos_conductor,
    roots_mod_p,
    sign_at_root,
)
from .polyalg.modp import gf_divmod, gf_gcd, gf_trim
from .polyalg.poly import clear_denominators, q_trim

# Largest x (exclusive) for the class-sieve count of a cosine field; the
# generic route stops at 2^31, the root-count kernel's range.
ABELIAN_COUNT_CAP = 1 << 40


@dataclass(frozen=True)
class NumberField:
    defining_poly: IntPoly
    degree: int
    disc_poly: int
    field_disc: int | None          # None when monogenicity is not certified
    monogenic_certified: bool
    real_embeddings: tuple[tuple[Fraction, Fraction], ...]
    conductor: int | None = None    # set for fields built by make_cosine_field
    # primes q with q^2 | disc_poly; only these can divide the index
    sq_disc_primes: tuple[int, ...] = ()

    def element(self, coeffs) -> "FieldElement":
        c = [Fraction(x) for x in coeffs]
        if len(c) > self.degree:
            raise PreconditionError("representation degree exceeds field degree")
        c += [Fraction(0)] * (self.degree - len(c))
        return FieldElement(self, tuple(c))

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            return self.element([-self.defining_poly[0]])
        return self.element([0, 1])

    def to_json(self) -> dict:
        return {
            "poly": list(self.defining_poly.coeffs),
            "degree": self.degree,
            "disc_poly": str(self.disc_poly),
            "field_disc": None if self.field_disc is None else str(self.field_disc),
            "monogenic": self.monogenic_certified,
        }


@dataclass(frozen=True)
class FieldElement:
    owner: NumberField
    rep: tuple[Fraction, ...]  # length = degree, coefficient of theta^i at i

    def __post_init__(self):
        if len(self.rep) != self.owner.degree:
            raise PreconditionError("representation length must equal degree")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.rep)

    def _same_field(self, other: "FieldElement") -> None:
        if self.owner is not other.owner and self.owner != other.owner:
            raise PreconditionError("elements of different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        return FieldElement(self.owner,
                            tuple(a + b for a, b in zip(self.rep, other.rep)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        return FieldElement(self.owner,
                            tuple(a - b for a, b in zip(self.rep, other.rep)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.owner, tuple(-a for a in self.rep))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.owner, tuple(a * q for a in self.rep))
        self._same_field(other)
        d = self.owner.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.rep):
            if a:
                for j, b in enumerate(other.rep):
                    prod[i + j] += a * b
        f = self.owner.defining_poly
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(d):
                    prod[k - d + j] -= c * f[j]
        return FieldElement(self.owner, tuple(prod[:d]))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement) and self.owner == other.owner
                and self.rep == other.rep)

    def __hash__(self):
        return hash((self.owner.defining_poly, self.rep))


@dataclass(frozen=True)
class PrimeSplit:
    p: int
    factors: tuple[tuple[int, int], ...]  # (e_i, f_i), ordered by (f_i, e_i)
    index_divisible: bool

    def to_json(self) -> dict:
        return {
            "p": str(self.p),
            "factors": [[e, f] for e, f in self.factors],
            "index_divisible": self.index_divisible,
        }


def _has_rational_root(f: IntPoly) -> bool:
    # monic, so rational roots are integers dividing the constant term
    c0 = f[0]
    if c0 == 0:
        return True
    if abs(c0).bit_length() > 64:
        # cheap rejection only: don't factor huge constants
        return any(f(d) == 0 or f(-d) == 0
                   for d in range(1, 1001) if c0 % d == 0)
    divs = {1}
    for q, e in factorize(abs(c0)).items():
        divs = {d * q**k for d in divs for k in range(e + 1)}
        if len(divs) > 20000:
            break  # height guard; missing a root here only skips a cheap rejection
    return any(f(d) == 0 or f(-d) == 0 for d in divs)


def _dedekind_index_test(f: IntPoly, p: int) -> bool:
    """True when p does NOT divide the index [O : Z[theta]]."""
    factors = factor_mod_p(f, p)
    g = IntPoly((1,))
    for gi, _ in factors:
        g = g * gi
    fbar = [c % p for c in f.coeffs]
    gbar = [c % p for c in g.coeffs]
    hbar, rem = gf_divmod(fbar, gbar, p)
    if gf_trim(list(rem)):
        raise TorsionfreeError(f"radical of f mod {p} does not divide f")
    h = IntPoly(tuple(hbar)) if hbar else IntPoly((1,))
    big = g * h - f
    if any(c % p for c in big.coeffs):
        raise TorsionfreeError(f"g * h - f is not divisible by {p}")
    F = [(c // p) % p for c in big.coeffs]
    d1 = gf_gcd(F, gbar, p)
    d2 = gf_gcd(d1, [c % p for c in h.coeffs], p)
    return len(d2) == 1


def make_field(f: IntPoly | tuple[int, ...], conductor: int | None = None) -> NumberField:
    """Build a NumberField from a monic integer polynomial.

    Irreducibility is the caller's responsibility; visibly reducible input
    (rational root, repeated factor) is rejected. conductor = n declares f
    the minimal polynomial of 2cos(2pi/n), which is checked; it makes the
    closed-form embeddings and the abelian splitting law available.
    """
    if not isinstance(f, IntPoly):
        f = IntPoly(tuple(int(c) for c in f))
    if conductor is not None and f != minpoly_two_cos_conductor(conductor):
        raise PreconditionError(
            f"polynomial is not the minimal polynomial of 2cos(2pi/{conductor})")
    if f.degree < 1:
        raise PreconditionError("defining polynomial must have degree >= 1")
    if not f.is_monic():
        raise PreconditionError("defining polynomial must be monic")
    if f.degree >= 2 and _has_rational_root(f):
        raise PreconditionError("defining polynomial has a rational root")
    disc = discriminant(f)
    if disc == 0:
        raise NotSquarefreeError("defining polynomial has a repeated factor")
    sq_primes = tuple(sorted(q for q, e in factorize(abs(disc)).items() if e >= 2))
    certified = all(_dedekind_index_test(f, q) for q in sq_primes)
    return NumberField(
        defining_poly=f,
        degree=f.degree,
        disc_poly=disc,
        field_disc=disc if certified else None,
        monogenic_certified=certified,
        real_embeddings=(isolate_real_roots(f) if conductor is None
                         else isolate_two_cos_roots(conductor)),
        conductor=conductor,
        sq_disc_primes=sq_primes,
    )


def make_cosine_field(n: int) -> NumberField:
    """The field Q(2cos(2pi/n)) = Q(cos(2pi/n)), via its minimal polynomial."""
    return make_field(minpoly_two_cos_conductor(n), conductor=n)


def element_charpoly(alpha: FieldElement) -> tuple[Fraction, ...]:
    """Characteristic polynomial of multiplication by alpha, monic, degree d.

    Linear expressions in the generator take the closed form b^d f((x-a)/b);
    the general case finds the minimal polynomial by linear algebra and
    raises it to the power d/deg (multiplication acts block-diagonally on K
    viewed as a Q(alpha)-vector space).
    """
    K = alpha.owner
    d = K.degree
    rep = alpha.rep
    if all(c == 0 for c in rep[2:]):
        return _charpoly_linear(K.defining_poly, rep[0], rep[1] if d > 1 else Fraction(0))
    m = _minpoly_by_dependence(alpha)
    k = len(m) - 1
    if d % k != 0:
        raise PreconditionError("defining polynomial appears reducible")
    out = (Fraction(1),)
    for _ in range(d // k):
        out = _q_mul(out, m)
    return out


def _q_mul(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return tuple(prod)


def _charpoly_linear(f: IntPoly, a: Fraction, b: Fraction) -> tuple[Fraction, ...]:
    # charpoly of a + b*theta: product of (x - a - b*r) over roots r of f,
    # i.e. b^d f((x - a)/b); for b = 0 it degenerates to (x - a)^d
    d = f.degree
    if b == 0:
        out = (Fraction(1),)
        for _ in range(d):
            out = _q_mul(out, (-a, Fraction(1)))
        return out
    shift = (-a, Fraction(1))  # x - a
    out = [Fraction(0)] * (d + 1)
    powt = (Fraction(1),)
    for i in range(d + 1):
        ci = Fraction(f[i]) * b ** (d - i)
        if ci:
            for j, t in enumerate(powt):
                out[j] += ci * t
        if i < d:
            powt = _q_mul(powt, shift)
    return tuple(out)


def _minpoly_by_dependence(alpha: FieldElement) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of alpha by Gaussian elimination on its powers."""
    K = alpha.owner
    d = K.degree
    rows: list[list[Fraction]] = []
    pivots: list[int] = []
    combos: list[list[Fraction]] = []  # expression of each reduced row in powers
    cur = K.element([1])
    for k in range(d + 1):
        vec = list(cur.rep)
        combo = [Fraction(0)] * (d + 1)
        combo[k] = Fraction(1)
        for row, piv, cmb in zip(rows, pivots, combos):
            if vec[piv]:
                c = vec[piv] / row[piv]
                for i in range(d):
                    vec[i] -= c * row[i]
                for i in range(d + 1):
                    combo[i] -= c * cmb[i]
        piv = next((i for i, v in enumerate(vec) if v != 0), None)
        if piv is None:
            lead = combo[k]
            return tuple(c / lead for c in combo[: k + 1])
        rows.append(vec)
        pivots.append(piv)
        combos.append(combo)
        cur = cur * alpha
    raise AssertionError("no dependence among d+1 powers")


def norm(alpha: FieldElement) -> Fraction:
    cp = element_charpoly(alpha)
    d = alpha.owner.degree
    return cp[0] if d % 2 == 0 else -cp[0]


def dedekind_split(K: NumberField, p: int) -> PrimeSplit:
    """Shape of p * O via factoring the defining polynomial mod p.

    index_divisible = True marks the one unreliable case (p may divide
    [O : Z[theta]]); consumers skip such primes and report them. In a
    certified cosine field of conductor n, a prime p not dividing n is
    unramified with inertia degree the order of p in (Z/n)*/{+-1}
    (Washington, Introduction to Cyclotomic Fields, Thm 2.13), so no
    factorisation is needed.
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    n = K.conductor
    if n is not None and K.monogenic_certified and n % p:
        f = _order_up_to_sign(p, n)
        return PrimeSplit(p=p, factors=((1, f),) * (K.degree // f),
                          index_divisible=False)
    factors = factor_mod_p(K.defining_poly, p)
    efs = tuple(sorted(((e, g.degree) for g, e in factors),
                       key=lambda t: (t[1], t[0])))
    if p in K.sq_disc_primes and not _dedekind_index_test(K.defining_poly, p):
        return PrimeSplit(p=p, factors=efs, index_divisible=True)
    return PrimeSplit(p=p, factors=efs, index_divisible=False)


def _order_up_to_sign(q: int, n: int) -> int:
    """Order of q in (Z/n)*/{+-1}, for n >= 3 and q prime to n."""
    x, f = q % n, 1
    while x != 1 and x != n - 1:
        x = x * q % n
        f += 1
    return f


def count_prime_ideals(K: NumberField, x: int,
                       unreliable_out: list[int] | None = None) -> int:
    """Exact number of prime ideals of norm <= x.

    Primes whose splitting is unreliable (index-divisible) are excluded from
    the count and appended to unreliable_out instead of silently dropped.
    For library-built cosine fields the abelian splitting law replaces
    per-prime factorization; both routes agree on their common domain.
    """
    if x < 2:
        return 0
    if K.conductor is not None and K.monogenic_certified:
        return _count_abelian(K, x)
    return _count_generic(K, x, unreliable_out)


def _count_generic(K: NumberField, x: int,
                   unreliable_out: list[int] | None) -> int:
    B = isqrt(x)
    total = 0
    for p in primes_upto(B):
        sp = dedekind_split(K, p)
        if sp.index_divisible:
            if unreliable_out is not None:
                unreliable_out.append(p)
            continue
        total += sum(1 for e, f in sp.factors if p**f <= x)
    if x > B:
        if x + 1 > (1 << 31):
            raise ResourceCapError("prime scan exceeds the kernel range (2^31)")
        total += _kernels.poly_root_count_over_primes(K.defining_poly.coeffs, B + 1, x + 1)
        # the straight root count is only wrong at index-divisible primes;
        # those all divide disc to order >= 2
        for q in K.sq_disc_primes:
            if B < q <= x and not _dedekind_index_test(K.defining_poly, q):
                total -= len(roots_mod_p(K.defining_poly, q))
                if unreliable_out is not None:
                    unreliable_out.append(q)
    return total


def _count_abelian(K: NumberField, x: int) -> int:
    """Counting route for the real cyclotomic subfield of conductor n.

    dedekind_split takes every prime up to sqrt(x) and every ramified prime
    (a divisor of n) from the abelian law. An unramified q above sqrt(x)
    counts only with inertia degree 1, that is for q = +-1 mod n, and then
    with d prime ideals; the class sieve counts those primes.
    """
    if x >= ABELIAN_COUNT_CAP:
        raise ResourceCapError("prime count exceeds the class sieve cap (2^40)")
    n = K.conductor
    B = isqrt(x)
    total = 0
    for q in primes_upto(B) + [q for q in factorize(n) if B < q <= x]:
        sp = dedekind_split(K, q)
        if sp.index_divisible:
            raise TorsionfreeError(
                f"{q} divides the index of a certified cosine field")
        total += sum(1 for e, f in sp.factors if q**f <= x)
    if x > B:
        total += K.degree * _kernels.prime_count_in_classes(
            B + 1, x + 1, n, (1, n - 1))
    return total


def sign_at_embeddings(alpha: FieldElement) -> tuple[int, ...]:
    """Exact sign of alpha at every real embedding, ascending embedding order."""
    if alpha.is_zero():
        raise PreconditionError("sign of the zero element")
    K = alpha.owner
    if not K.real_embeddings:
        raise PreconditionError("field has no real embedding")
    g = q_trim(alpha.rep)
    return tuple(sign_at_root(K.defining_poly, iv, g) for iv in K.real_embeddings)
