"""Lattices in SO(2,1) with an order-p rotation and small volume.

The data is a ternary form x^2 + y^2 - c z^2 over Q(cos 2pi/p) with
c = T + cos(2pi/p) for a dyadic rational T. The interval condition on T
makes the form have signature (2,1) at exactly one real place, the 2-adic
condition certifies odd valuation of c at every place over 2 by a single
Newton-polygon slope (it does not certify anisotropy at 2), and the rotation

    M = [[0, -1], [1, 2w]],  w = cos(2pi/p)

is an exact isometry of the binary block [[1, w], [w, 1]] of order p.
Everything a returned construction claims is checked in exact arithmetic.
Floating point only guides: double values (math.cos) set the window of
numerators that choose_T tries at each denominator, and place the dyadic
cells around the real embeddings of the cosine field, which
make_cosine_field(p) builds once and every check reads. What decides is
exact: the interval certificate, the Newton slope, the certified cells,
signs by bisection over them, one root comparison per step, and integer
field arithmetic for the isometry and order checks. The reported volume
estimates are decimal values at report.PRECISION digits, computed when
they are read.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import ceil, cos, floor, pi

from .errors import PreconditionError, ResourceCapError, TorsionfreeError
from .ntheory import is_prime, primes_in_range
from .numfield import (FieldElement, NumberField, element_charpoly,
                       make_cosine_field, mul_mod, sign_at_embeddings)
from .polyalg import (compare_root, minpoly_two_cos_conductor,
                      two_cos_discriminant)
from .report import CONTEXT, analytic, number_str
from .torsion import mat_mul

# largest p that a construction or a sweep accepts; build_construction(503)
# takes about 0.08 s, its field build included (0.05 s without), in a fresh
# interpreter on a 2-core Intel Xeon (median of 11)
P_CAP = 503
PROBE_CANDIDATE_BITS = 30

CHECK_NAMES = ("interval_ok", "archimedean_ok", "two_adic_ok",
               "form_preserved", "order_verified")


class LatticeConstruction(namedtuple("LatticeConstruction", (
        "p", "field", "T", "c", "gram", "generator", "checks", "disc_used",
        "a_const", "b_const"))):
    """build_construction's result for the prime p: the field Q(2cos 2pi/p),
    the shift T and the element c it gives, the Gram matrix and the order-p
    generator, the named checks (CHECK_NAMES), the discriminant used and
    the volume constants a, b."""

    __slots__ = ()

    @property
    def log_volume_estimate(self):
        """log v_hat from log_volume, computed when read."""
        return log_volume(self.p, self.disc_used, self.a_const, self.b_const)

    def all_checks_pass(self) -> bool:
        return all(self.checks[name] for name in CHECK_NAMES)

    def to_json(self) -> dict:
        formula = CONTEXT.power(self.p, CONTEXT.divide(self.p - 2, 2))
        log_v_hat = self.log_volume_estimate
        exponent_matches = self.disc_used == self.p ** ((self.p - 3) // 2)
        discrepancies = [
            "published discriminant formula p^((p-2)/2) = "
            f"{number_str(formula)} differs from the computed field "
            f"discriminant {self.disc_used} = p^((p-3)/2)",
            "the shifted cosine is negative at every non-identity real "
            "embedding (definiteness needs that sign); the published sign "
            "sentence asserts positivity and is recorded, not implemented",
            "odd valuation over 2 is certified by the Newton slope, but the "
            "published inference from it to 2-adic anisotropy is unproven; "
            "the isotropy probe gathers evidence per p and has found "
            "primitive solutions mod 2^k for small p",
        ]
        return {
            "p": self.p,
            "field": self.field.to_json(),
            "T": str(self.T),
            "c": _element_json(self.c),
            "gram": [[_element_json(e) for e in row] for row in self.gram],
            "generator": [[_element_json(e) for e in row]
                          for row in self.generator],
            "checks": {name: self.checks[name] for name in CHECK_NAMES},
            "disc_used": str(self.disc_used),
            "disc_published_formula": number_str(formula),
            "disc_matches_published_formula": (
                (self.p - 2) % 2 == 0
                and self.disc_used == self.p ** ((self.p - 2) // 2)),
            "disc_matches_observed_exponent": exponent_matches,
            "log_volume_estimate": number_str(log_v_hat),
            "lower_bound_ratio": number_str(
                lower_bound_ratio(self.p, log_v_hat)),
            "paper_discrepancies": discrepancies,
        }


def _element_json(e: FieldElement) -> list[str]:
    return [str(fr) for fr in e.rep]


def _require_construction_prime(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise PreconditionError("p must be an odd prime >= 5")
    if p > P_CAP:
        raise ResourceCapError(f"p is capped at {P_CAP}")


def interval_certificate(p: int, T) -> bool:
    """Exact certificate that 2cos(3pi/p) < -2T < 2cos(2pi/p)."""
    _require_construction_prime(p)
    q = 2 * Fraction(T)
    K = make_cosine_field(p)
    # 2cos(2pi/p) is the largest root; 2cos(3pi/p) = -2cos(2pi k/p) with
    # k = (p - 3)/2, and 2cos(2pi k/p) is the second smallest root
    f, cells = K.defining_poly, K.real_embeddings
    return (compare_root(f, cells[1], q) == 1
            and compare_root(f, cells[-1], -q) == 1)


def _v2(x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    return (n & -n).bit_length() - (d & -d).bit_length()


def two_adic_condition(c: FieldElement) -> bool:
    """Odd valuation of c at every place over 2, all at once.

    The Newton polygon at 2 of the monic characteristic polynomial cp of
    degree d must be a single segment whose slope s = v2(cp_0)/d is an odd
    integer. A lower hull is one segment exactly when no point lies below
    the chord from (0, v2(cp_0)) to (d, 0), that is v2(cp_k) >= (d - k) s
    for every nonzero cp_k. Stricter than needed (slopes could differ per
    place and still all be odd) but it avoids any prime-by-prime valuation
    machinery.
    """
    if not c:
        raise PreconditionError("c must be nonzero")
    cp = element_charpoly(c)
    d = len(cp) - 1
    s, r = divmod(_v2(cp[0]), d)
    return r == 0 and s % 2 == 1 and all(
        _v2(a) >= (d - k) * s for k, a in enumerate(cp) if a)


def archimedean_ok(c: FieldElement) -> bool:
    """c is positive at the identity embedding (the one taking the generator
    to its largest real value) and negative at every other embedding."""
    *others, ident = sign_at_embeddings(c)
    return ident == 1 and all(s == -1 for s in others)


def _T_windows(p: int) -> tuple[int, list[range]]:
    """(last, windows): the last denominator exponent choose_T needs, and
    for each j <= last the numerators it tries over 2^j. Those are the ones
    that double values of the interval (lo, hi) = (-cos 2pi/p, -cos 3pi/p)
    put inside, with one more on each side as slack. A double is within
    1e-15 of lo and hi, and 2^last < p^2, so lo * 2^j and hi * 2^j are far
    closer than the one numerator of slack."""
    lo, hi = -cos(2 * pi / p), -cos(3 * pi / p)
    last = 3
    while 2**last * (hi - lo) <= 2:
        last += 2
    return last, [range(floor(lo * 2**j) - 1, ceil(hi * 2**j) + 2)
                  for j in range(last + 1)]


def choose_T(p: int, checks_out: dict | None = None) -> Fraction:
    """First T = a/2^j (j ascending, then |a| ascending, + before -) inside
    the cosine interval that also passes the 2-adic test.

    For each j only the numerators of _T_windows are tried, those that a
    double value of the interval puts inside plus one of slack on each side;
    interval_certificate and two_adic_condition still decide every
    candidate. Their verdicts on the returned T are written to checks_out,
    when given, under interval_ok and two_adic_ok: build_construction
    records them as its checks and does not evaluate them again.

    The search ends at the first odd j >= 3 with 2^j (hi - lo) > 2. That
    window holds two consecutive integers, so an odd a with a/2^j inside
    the interval; and since theta = 2cos(2pi/p) is a unit and 2 is
    unramified, c = (a + 2^(j-1) theta)/2^j has valuation -j, odd, at every
    place over 2, so the 2-adic test passes too.
    """
    _require_construction_prime(p)
    field = make_cosine_field(p)
    half = Fraction(1, 2)
    last, windows = _T_windows(p)
    for j, window in enumerate(windows):
        den = 1 << j
        # |T| < 1 always, the interval lies in (-1, 1)
        numerators = [a for a in window if a % 2 and abs(a) < den]
        for a in sorted(numerators, key=lambda a: (abs(a), a < 0)):
            T = Fraction(a, den)
            interval_ok = interval_certificate(p, T)
            two_adic_ok = interval_ok and two_adic_condition(
                field.element([T, half]))
            if two_adic_ok:
                if checks_out is not None:
                    checks_out.update(interval_ok=interval_ok,
                                      two_adic_ok=two_adic_ok)
                return T
    raise ResourceCapError(
        f"no feasible T with denominator <= 2^{last} for p = {p}")


# ---------------------------------------------------------------- isometry

def order_p_element(p: int, field: NumberField):
    """g = blockdiag([[0, -1], [1, 2w]], 1), an order-p isometry of the
    construction's gram matrix with entries in Z[2w]."""
    if not is_prime(p) or p == 2:
        raise PreconditionError("p must be an odd prime")
    if field.defining_poly != minpoly_two_cos_conductor(p):
        raise PreconditionError("field must be generated by 2cos(2pi/p)")
    zero, one = field.element([0]), field.element([1])
    theta = field.generator()
    return ((zero, -one, zero),
            (one, theta, zero),
            (zero, zero, one))


def _det(M):
    """det M for a 3 x 3 matrix: the six signed products of the Leibniz
    formula. A product with a zero factor is skipped, as in torsion.mat_mul:
    the generator of order_p_element takes two field products, not nine."""
    if len(M) != 3:
        raise PreconditionError("determinant implemented for 3 x 3 only")
    (a, b, c), (d, e, f), (g, h, i) = M
    zero = a - a  # of the entries' type

    def total(terms):
        return sum((x * y * z for x, y, z in terms if x and y and z), zero)

    return total(((a, e, i), (b, f, g), (c, d, h))) - total(
        ((c, e, g), (a, f, h), (b, d, i)))


def verify_order(g, p: int) -> bool:
    """g = blockdiag(M, 1) has exact order p, in exact field arithmetic.

    g must be a 3 x 3 matrix over K whose last row and column are (0, 0, 1);
    anything else is refused. Its 2 x 2 block M has characteristic
    polynomial chi = x^2 - t x + n with t = tr M and n = det M. Write
    x^p = q chi + r0 + r1 x in K[x]; by Cayley-Hamilton chi(M) = 0, so
    M^p = r0 I + r1 M. The remainder comes from left-to-right
    square-and-multiply in K[x]/(chi): folding x^2 = t x - n, the square
    of u0 + u1 x is (u0^2 - n u1^2) + u1 (2 u0 + t u1) x, and a step by x
    folds once. When n = 1, as for every generator order_p_element builds,
    the constant term is (u0 - u1)(u0 + u1), so the square takes two dense
    products and one by t. So g^p = I exactly when r0 I + r1 M = I, and
    since p is prime, g^p = I with g != I means g has order p (Cohen,
    GTM 138).
    """
    if not is_prime(p):
        raise PreconditionError("p must be prime")
    if len(g) != 3 or any(len(row) != 3 for row in g):
        raise PreconditionError("g must be a 3 x 3 matrix")
    field = g[0][0].owner
    zero, one = field.element([0]), field.element([1])
    if g[2][2] != one or any(e != zero for e in (*g[2][:2], g[0][2], g[1][2])):
        raise PreconditionError("g must be blockdiag(M, 1)")
    (a, b), (c, d) = g[0][:2], g[1][:2]
    t, n = a + d, a * d - b * c
    unit = n == one
    r0, r1 = zero, one    # x, the leading bit of p
    for bit in bin(p)[3:]:
        r0, r1 = ((r0 - r1) * (r0 + r1) if unit
                  else r0 * r0 - n * (r1 * r1)), r1 * (2 * r0 + t * r1)
        if bit == "1":
            r0, r1 = -(n * r1), r0 + t * r1
    return ((a, b, c, d) != (one, zero, zero, one)
            and (r0 + a * r1, b * r1, c * r1, r0 + d * r1)
            == (one, zero, zero, one))


def form_preservation_check(g, gram) -> bool:
    if len(g) != len(gram):
        raise PreconditionError("shape mismatch")
    n = len(g)
    gt = tuple(tuple(g[i][j] for i in range(n)) for j in range(n))
    field = g[0][0].owner
    return (mat_mul(mat_mul(gt, gram), g) == gram
            and _det(g) == field.element([1]))


# ------------------------------------------------------------------ volume

def _check_volume_inputs(p: int, disc: int, a_const, b_const) -> None:
    """Positive constants, and disc <= p^p: log disc <= p log p in integers."""
    if a_const <= 0 or b_const <= 0:
        raise PreconditionError("volume constants must be positive")
    if disc > p**p:
        raise TorsionfreeError(f"log disc exceeds p log p at p = {p}")


@analytic
def log_volume(p: int, disc: int, a_const, b_const):
    """log v_hat = log a + b log disc for the discriminant disc of the
    conductor-p field; refuses log disc > p log p."""
    _check_volume_inputs(p, disc, a_const, b_const)
    return Decimal(a_const).ln() + Decimal(b_const) * Decimal(disc).ln()


@analytic
def lower_bound_ratio(p: int, log_v_hat):
    """p log(log v) / log v: the index lower bound exhibited at volume v."""
    lv = Decimal(log_v_hat)
    if lv <= 1:
        raise PreconditionError("need log_v_hat > 1")
    return p * lv.ln() / lv


# ------------------------------------------------------------------- probe

def mod2k_isotropy_probe(c: FieldElement, k: int) -> Iterator[tuple]:
    """The primitive triples (x, y, z) with x^2 + y^2 = c z^2 mod 2^k, one
    at a time, in search order: z, then x, then y.

    Falsification probe: coordinates run over polynomials in the generator
    of degree < d with coefficients mod 2^k, primitive meaning not every
    coefficient even. Empty output for growing k is evidence for 2-adic
    anisotropy; any hit at large k flags the construction. The search
    visits 2^(3dk) candidate triples, and any k with 3dk above
    PROBE_CANDIDATE_BITS is refused with ResourceCapError before anything
    is built. The solutions are found from a table of the 2^(dk)
    coordinates by their square: for each z and x the y are the coordinates
    whose square is c z^2 - x^2. So memory grows with 2^(dk), not with the
    number of solutions.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if not c:
        raise PreconditionError("c must be nonzero")
    K = c.owner
    d = K.degree
    bits = 3 * d * k
    if bits > PROBE_CANDIDATE_BITS:
        raise ResourceCapError(
            f"2^{bits} candidate triples exceed the 2^{PROBE_CANDIDATE_BITS} "
            "search guard")
    mod = 1 << k
    den = c.den
    if den & (den - 1):
        raise PreconditionError("c must have power-of-two denominators")
    t = den.bit_length() // 2   # c * 4^t is integral and in the square class of c
    cc = tuple(a * 4 ** t // den % mod for a in c.num)
    f = K.defining_poly

    def pmul(u, v):
        return tuple(a % mod for a in mul_mod(u, v, f))

    coords = list(product(range(mod), repeat=d))
    squares = [pmul(u, u) for u in coords]
    odd = [any(a & 1 for a in u) for u in coords]
    roots: dict[tuple, list] = {}  # a square -> its roots, in search order
    for y, sy, oy in zip(coords, squares, odd):
        roots.setdefault(sy, []).append((y, oy))

    def solutions():
        for z, sz, oz in zip(coords, squares, odd):
            target = pmul(cc, sz)
            for x, sx, ox in zip(coords, squares, odd):
                key = tuple((a - b) % mod for a, b in zip(target, sx))
                for y, oy in roots.get(key, ()):
                    if oz or ox or oy:
                        yield x, y, z
    return solutions()


# ------------------------------------------------------------ full pipeline

def build_construction(p: int, a_const=1.0,
                       b_const=1.0) -> LatticeConstruction:
    _require_construction_prime(p)
    field = make_cosine_field(p)
    # Z[2cos(2pi/p)] is the maximal order, so disc_poly is the field's
    disc = field.disc_poly
    found = {}
    T = choose_T(p, found)
    half = Fraction(1, 2)
    omega = field.element([0, half])
    c = field.element([T, half])
    zero, one = field.element([0]), field.element([1])
    gram = ((one, omega, zero),
            (omega, one, zero),
            (zero, zero, -c))
    g = order_p_element(p, field)
    checks = {
        "interval_ok": found["interval_ok"],
        "archimedean_ok": archimedean_ok(c),
        "two_adic_ok": found["two_adic_ok"],
        "form_preserved": form_preservation_check(g, gram),
        "order_verified": verify_order(g, p),
    }
    _check_volume_inputs(p, disc, a_const, b_const)
    return LatticeConstruction(p=p, field=field, T=T, c=c, gram=gram,
                               generator=g, checks=checks, disc_used=disc,
                               a_const=a_const, b_const=b_const)


def sweep(pmax: int, a_const=1.0, b_const=1.0) -> list:
    """(p, disc, log_v_hat, ratio) for every prime 5 <= p <= pmax.

    Only the discriminant is certified: two_cos_discriminant(p), the
    discriminant of Q(2cos(2pi/p)), whose ring of integers is
    Z[2cos(2pi/p)] (Washington, Introduction to Cyclotomic Fields, Prop.
    2.16). No field is built and no prime is tested: no remainder sequence,
    root isolation, Dedekind test or T search."""
    if pmax < 5:
        raise PreconditionError("pmax must be >= 5")
    if pmax > P_CAP:
        raise ResourceCapError(f"pmax is capped at {P_CAP}")
    rows = []
    for p in primes_in_range(5, pmax + 1):
        disc = two_cos_discriminant(p)
        log_v_hat = log_volume(p, disc, a_const, b_const)
        rows.append((p, disc, log_v_hat, lower_bound_ratio(p, log_v_hat)))
    return rows
