import itertools
import json
import random
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest
from conftest import DATA

from torsionfree.errors import (NotSquarefreeError, PreconditionError,
                                ResourceCapError)
from torsionfree.ntheory import primes_in_range
from torsionfree.polyalg import (IntPoly, compare_root,
                                 discriminant, factor_mod_p,
                                 isolate_real_roots, isolate_two_cos_roots,
                                 minpoly_two_cos, minpoly_two_cos_conductor,
                                 resultant, sign_at_root,
                                 sturm_sequence, two_cos_discriminant)
from torsionfree.polyalg import cyclotomic, poly, roots


def poly_eval_mpf(coeffs, x):
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestIntPoly:
    def test_degree_and_trim(self):
        f = IntPoly((1, 2, 0))
        assert f.degree == 1
        assert tuple(f) == (1, 2)

    def test_zero(self):
        z = IntPoly((0, 0))
        assert z.degree == -1

    def test_monic(self):
        assert IntPoly((-2, 0, 1)).is_monic()
        assert not IntPoly((1, 2)).is_monic()


class TestResultantDiscriminant:
    def test_known_resultant(self):
        # res(x^2-2, x^2-3) = prod over roots a of x^2-2 of (a^2-3) = (-1)(-1)
        assert resultant(IntPoly((-2, 0, 1)), IntPoly((-3, 0, 1))) == 1

    def test_resultant_linear(self):
        # res(x-2, x-3) = 3-2 evaluated: g(2) = -1
        assert resultant(IntPoly((-2, 1)), IntPoly((-3, 1))) == -1

    def test_quadratic_discriminant_formula(self):
        rng = random.Random(7)
        for _ in range(100):
            b = rng.randint(-40, 40)
            c = rng.randint(-40, 40)
            assert discriminant(IntPoly((c, b, 1))) == b * b - 4 * c

    def test_known_discs(self):
        assert discriminant(IntPoly((-2, 0, 1))) == 8
        assert discriminant(IntPoly((-1, -1, 1))) == 5
        # x^3 - x^2 - 2x - 8, the classical index-2 cubic
        assert discriminant(IntPoly((-8, -2, -1, 1))) == -2012

    def test_disc_of_linear(self):
        assert discriminant(IntPoly((5, 1))) == 1

    def test_resultant_against_sympy(self):
        """Random pairs up to degree 40, both orders, leading coefficients
        of both signs, and pairs with a common factor. sympy.resultant(f, g)
        returns Res(g, f) when deg f < deg g and both degrees are odd (sympy
        1.14: it gives -1 for Res(x, x^3 + 1) = 1), so it is asked only
        with deg f >= deg g, and the swap sign is pinned by the Sylvester
        determinant on small pairs."""
        from sympy import Poly, symbols
        from sympy import resultant as sympy_resultant
        from sympy.polys.subresultants_qq_zz import sylvester
        x = symbols("x")

        def as_sympy(f):
            return Poly(list(reversed(f.coeffs)), x)

        def oracle(f, g):
            if f.degree < g.degree:
                return (-1) ** (f.degree * g.degree) * oracle(g, f)
            return int(sympy_resultant(as_sympy(f), as_sympy(g)))

        rng = random.Random(2026)
        swapped = 0
        for _ in range(80):
            f = _random_poly(rng, rng.randint(1, 40))
            g = _random_poly(rng, rng.randint(1, 40))
            swapped += f.degree < g.degree
            assert resultant(f, g) == oracle(f, g)
            h = _random_poly(rng, rng.randint(1, 5))
            assert resultant(f * h, g * h) == 0
        assert swapped > 20
        for _ in range(40):
            f = _random_poly(rng, rng.randint(1, 8))
            g = _random_poly(rng, rng.randint(1, 8))
            det = sylvester(as_sympy(f).as_expr(), as_sympy(g).as_expr(), x).det()
            assert resultant(f, g) == int(det)
        assert resultant(IntPoly((0, 1)), IntPoly((1, 0, 0, 1))) == 1
        assert resultant(IntPoly((1, 0, 0, 1)), IntPoly((0, 1))) == -1

    def test_trinomial_discriminant_closed_form(self):
        """disc(x^n + a x + b) = (-1)^(n(n-1)/2) (n^n b^(n-1)
        + (-1)^(n-1) (n-1)^(n-1) a^n), for 30-digit a and b."""
        rng = random.Random(150)
        for n in range(2, 151):
            a, b = (rng.choice((1, -1)) * rng.randrange(10**29, 10**30)
                    for _ in range(2))
            want = (-1) ** (n * (n - 1) // 2) * (
                n**n * b ** (n - 1) + (-1) ** (n - 1) * (n - 1) ** (n - 1) * a**n)
            assert discriminant(IntPoly([b, a] + [0] * (n - 2) + [1])) == want


def _q_divmod(a, b):
    """Reference long division over Q in exact Fractions: (quotient,
    remainder), both trimmed lists."""
    def trim(c):
        c = [Fraction(x) for x in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lc = 1 / b[-1]
    while len(a) >= len(b):
        coef = a[-1] * inv_lc
        k = len(a) - len(b)
        q[k] = coef
        for i, bi in enumerate(b):
            a[k + i] -= coef * bi
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
    return trim(q), a


def _random_poly(rng, degree):
    """Integer polynomial of exactly this degree; the leading coefficient is
    +-1 a third of the time, else any nonzero value in [-20, 20]."""
    coeffs = [rng.randint(-20, 20) for _ in range(degree)]
    lc = rng.choice((1, -1)) if rng.random() < 1 / 3 else rng.choice(
        [c for c in range(-20, 21) if c])
    return IntPoly(coeffs + [lc])


class TestDivision:
    def test_pseudo_rem_against_rational_division(self):
        rng = random.Random(4711)
        seen_lc = set()
        for _ in range(600):
            a = _random_poly(rng, rng.randint(0, 12))
            b = _random_poly(rng, rng.randint(0, 12))
            seen_lc.add((b.lc > 0, abs(b.lc) == 1))
            r = a.pseudo_rem(b)
            assert r.degree < b.degree
            k = max(0, a.degree - b.degree + 1)
            scaled = b.lc ** k * a
            # scaled - r is a multiple of b in Z[x] ...
            quo = (scaled - r).exact_div(b)
            assert quo * b + r == scaled
            # ... and r is lc^k times the remainder over Q
            q_ref, r_ref = _q_divmod(a, b)
            assert list(r) == [b.lc ** k * c for c in r_ref]
            assert list(quo) == [b.lc ** k * c for c in q_ref]
        assert seen_lc == {(True, True), (True, False), (False, True), (False, False)}

    def test_exact_div_round_trip(self):
        rng = random.Random(1729)
        for _ in range(600):
            a = _random_poly(rng, rng.randint(0, 12))
            b = _random_poly(rng, rng.randint(0, 12))
            assert (a * b).exact_div(b) == a
            q_ref, r_ref = _q_divmod(a * b, b)
            assert not r_ref and list(a) == q_ref
        assert IntPoly().exact_div(IntPoly((3, -2))) == IntPoly()

    def test_refusals(self):
        x = IntPoly((0, 1))
        # 2x divides x over Q but not over Z
        with pytest.raises(PreconditionError):
            x.exact_div(IntPoly((0, 2)))
        # x^2 + 1 = (x + 1)(x - 1) + 2
        with pytest.raises(PreconditionError):
            IntPoly((1, 0, 1)).exact_div(IntPoly((1, 1)))
        # a divisor of higher degree leaves the whole dividend as remainder
        with pytest.raises(PreconditionError):
            x.exact_div(IntPoly((1, 0, 1)))
        for op in (IntPoly.exact_div, IntPoly.pseudo_rem):
            with pytest.raises(ZeroDivisionError):
                op(x, IntPoly())
        # the subresultant chain's scalar divisions are checked by a raise,
        # which python -O keeps
        assert poly._exact_quo(-12, 4) == -3
        with pytest.raises(ArithmeticError):
            poly._exact_quo(7, 2)


class TestCosineMinimalPolynomials:
    def small_prime_irreducible(self, f):
        # cyclic Galois group guarantees inert rational primes exist
        from torsionfree.ntheory import primes_upto
        for q in primes_upto(1000):
            if f[f.degree] % q == 0:
                continue
            # f is monic, so irreducible mod q means one part of degree
            # deg f and multiplicity 1 that is f mod q itself
            fq = IntPoly(tuple(c % q for c in f.coeffs))
            if factor_mod_p(f, q) == [(fq, f.degree, 1)]:
                return True
        return False

    def test_degree_monic_irreducible(self):
        from torsionfree.ntheory import primes_upto
        for p in primes_upto(100):
            if p < 5:
                continue
            f = minpoly_two_cos(p)
            assert f.degree == (p - 1) // 2
            assert f.is_monic()
            assert self.small_prime_irreducible(f)
            with mp.workdps(40):
                # 2cos(2pi/p) is a root, up to the rounding of a 40-digit
                # Horner sum with terms of size at most |c_i| 2^i
                x = 2 * mp.cos(2 * mp.pi / p)
                size = poly_eval_mpf([abs(c) for c in f], 2)
                assert abs(poly_eval_mpf(tuple(f), x)) < mp.mpf("1e-30") * size

    def test_known_small_cases(self):
        assert tuple(minpoly_two_cos(5)) == (-1, 1, 1)
        assert tuple(minpoly_two_cos(7)) == (-1, -2, 1, 1)

    def test_discriminant_formula_matches_the_chain(self):
        conductors = [*range(3, 301), 401, 503]
        wrong = [n for n in conductors if two_cos_discriminant(n)
                 != discriminant(minpoly_two_cos_conductor(n))]
        assert wrong == []
        assert [two_cos_discriminant(n) for n in (5, 8, 12, 16, 9)] == \
            [5, 8, 12, 2**11, 3**4]
        with pytest.raises(PreconditionError):
            two_cos_discriminant(2)

    def test_palindromic_rewrite_gives_back_phi(self):
        # z^m Psi_n(z + 1/z) = sum_i c_i z^(m-i) (z^2 + 1)^i must be Phi_n,
        # which fixes Psi_n, for every 3 <= n < 400
        for n in range(3, 400):
            c = minpoly_two_cos_conductor(n).coeffs
            m = len(c) - 1
            acc, power = [0] * (2 * m + 1), [1]  # power = (z^2 + 1)^i
            for i, ci in enumerate(c):
                for j, pj in enumerate(power):
                    acc[m - i + j] += ci * pj
                power = [a + b for a, b in zip(power + [0, 0], [0, 0] + power)]
            assert IntPoly(acc) == cyclotomic.cyclotomic_poly(n), n

    def test_conductor_variant(self):
        # conductor 2p relates to conductor p by x -> -x up to sign
        f10 = minpoly_two_cos_conductor(10)
        assert tuple(f10) == (-1, -1, 1)
        f5 = minpoly_two_cos_conductor(5)
        assert tuple(f5) == (-1, 1, 1)


def mul_mod_p(a, b, p):
    """The product of coefficient tuples a and b (lowest first) mod p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def monic_irreducibles(p, maxdeg):
    """Every monic irreducible polynomial over F_p of degree <= maxdeg, as
    coefficient tuples, lowest first: the monic polynomials that are no
    product of two monic ones of lower degree."""
    monic = {n: [tuple(c) + (1,) for c in itertools.product(range(p), repeat=n)]
             for n in range(1, maxdeg + 1)}
    irreducible = []
    for n in range(1, maxdeg + 1):
        products = {mul_mod_p(a, b, p) for k in range(1, n // 2 + 1)
                    for a in monic[k] for b in monic[n - k]}
        irreducible += [g for g in monic[n] if g not in products]
    return irreducible


class TestFactorModP:
    def test_product_reconstructs(self):
        rng = random.Random(99)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 53, 71, 97]
        done = 0
        while done < 500:
            p = rng.choice(primes)
            deg = rng.randint(1, 8)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = IntPoly(tuple(coeffs))
            if f.degree < 1:
                continue
            parts = factor_mod_p(f, p)
            assert [(d, e) for _g, d, e in parts] == sorted(
                {(d, e) for _g, d, e in parts})
            prod = (f[f.degree] % p,)
            for g, d, e in parts:
                assert g.is_monic() and g.degree % d == 0
                assert all(0 <= c < p for c in g.coeffs)
                for _ in range(e):
                    prod = mul_mod_p(prod, tuple(g), p)
            assert prod == tuple(c % p for c in tuple(f))
            done += 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_enumerated_irreducibles(self, p):
        # products of known irreducibles with repeated factors, also of
        # multiplicity p and beyond, where the squarefree parts take p-th
        # roots; each part is the product of the chosen irreducibles of
        # its degree and multiplicity
        irreducible = monic_irreducibles(p, 4 if p == 2 else 3)
        assert len([g for g in irreducible if len(g) == 4]) == (p**3 - p) // 3
        rng = random.Random(p)
        for _ in range(150):
            want = {}
            f = (rng.randrange(1, p),)
            for g in rng.sample(irreducible, rng.randint(1, 4)):
                e = rng.choice([1, 1, 2, 3, p - 1, p, p + 1, 2 * p])
                key = (len(g) - 1, e)
                want[key] = mul_mod_p(want.get(key, (1,)), g, p)
                for _ in range(e):
                    f = mul_mod_p(f, g, p)
            got = factor_mod_p(IntPoly(f), p)
            assert [(tuple(g), d, e) for g, d, e in got] == [
                (g, d, e) for (d, e), g in sorted(want.items())]

    def test_linear_factors_match_roots(self):
        # the d = 1 parts hold one linear factor per root of f mod p
        rng = random.Random(123)
        for _ in range(200):
            p = rng.choice([3, 5, 7, 11, 13])
            deg = rng.randint(1, 6)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
            f = IntPoly(tuple(coeffs))
            linear = [g for g, d, _e in factor_mod_p(f, p) if d == 1]
            lin = {r for g in linear for r in range(p) if g(r) % p == 0}
            assert lin == {r for r in range(p) if f(r) % p == 0}
            assert sum(g.degree for g in linear) == len(lin)

    def test_degree_bound(self):
        # random products with squared and cubed factors, so the bound
        # applies to each squarefree part: the bounded factorization is the
        # unbounded one cut at d <= top
        rng = random.Random(37)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            f = (rng.randrange(1, p),)
            for _ in range(rng.randint(1, 4)):
                g = tuple(rng.randrange(p) for _ in range(rng.randint(1, 4)))
                for _ in range(rng.choice([1, 1, 2, 3])):
                    f = mul_mod_p(f, g + (1,), p)
            f = IntPoly(f)
            full = factor_mod_p(f, p)
            assert factor_mod_p(f, p, 0) == []
            for top in range(1, f.degree + 2):
                got = factor_mod_p(f, p, top)
                assert got == [t for t in full if t[1] <= top], (f, p, top)
            assert factor_mod_p(f, p, f.degree) == full


class TestSturmIsolation:
    def test_root_count_matches_sturm(self):
        """Root counts from the chain's signs at -+infinity, and sign
        variations at random rationals against sympy.sturm, on monic dense
        f, on f with a negative or non-unit leading coefficient, and on
        sparse f whose chain drops degree by 2 or more: those exercise the
        sign(lc)^(delta + 1) and sign(beta) factors of the tracked signs."""
        from sympy import Poly, Rational, sturm, symbols
        x = symbols("x")
        rng = random.Random(5)
        inputs = []
        while len(inputs) < 60:
            deg = rng.randint(1, 6)
            inputs.append(IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1]))
        for lc in (-1, 2, -3, -5):
            for _ in range(10):
                deg = rng.randint(2, 9)
                inputs.append(IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [lc]))
        inputs += [IntPoly((1, 0, -3, 0, 0, 0, 0, 1)),      # x^7 - 3x^2 + 1
                   IntPoly((-2, 0, 0, 0, 5, 0, 0, 0, 0, -1)),
                   IntPoly((1, 0, 0, 0, 0, -4, 0, 0, 0, 0, 0, 3))]
        for _ in range(20):
            deg = rng.randint(5, 12)
            coeffs = [0] * deg + [rng.choice((1, -1, 2, -3))]
            for i in rng.sample(range(deg), 3):
                coeffs[i] = rng.choice((1, -1)) * rng.randint(1, 9)
            inputs.append(IntPoly(coeffs))

        def variations(values):
            signs = [v for v in values if v]
            return sum(a * b < 0 for a, b in zip(signs, signs[1:]))

        checked = drops = negative_lc = 0
        for f in inputs:
            if f.degree < 1 or discriminant(f) == 0:
                continue
            ivs = isolate_real_roots(f)
            seq = sturm_sequence(f)
            # sign changes at -inf minus at +inf equals real root count
            at_minus = [g.lc * (-1) ** g.degree for g in seq]
            at_plus = [g.lc for g in seq]
            assert len(ivs) == variations(at_minus) - variations(at_plus)
            oracle = sturm(Poly(list(reversed(f.coeffs)), x))
            for _ in range(10):
                q = Fraction(rng.randint(-300, 300), rng.randint(1, 40))
                r = Rational(q.numerator, q.denominator)
                assert roots._chain_at(seq, q)[0] == \
                    variations([Fraction(str(g.eval(r))) for g in oracle])
            checked += 1
            drops += any(a.degree - b.degree >= 2 for a, b in zip(seq, seq[1:]))
            negative_lc += f.lc < 0
        assert checked >= 100 and drops >= 10 and negative_lc >= 15
        # the chain of (x - 1)^2 (x + 2) ends at gcd(f, f') = x - 1
        with pytest.raises(NotSquarefreeError):
            isolate_real_roots(IntPoly((2, -3, 0, 1)))

    def test_intervals_bracket_roots(self):
        f = minpoly_two_cos(11)
        ivs = isolate_real_roots(f)
        assert len(ivs) == 5
        def ev(q):
            return sum(Fraction(c) * Fraction(q) ** i for i, c in enumerate(tuple(f)))
        for lo, hi in ivs:
            if lo == hi:
                assert ev(lo) == 0
            else:
                assert ev(lo) * ev(hi) < 0
        # ascending and disjoint
        for (a, b), (c, d) in zip(ivs, ivs[1:]):
            assert b < c or (b == c and b != d and a != b)

    def test_compare_root(self):
        f = IntPoly((-2, 0, 1))
        ivs = isolate_real_roots(f)
        pos = ivs[-1]
        assert compare_root(f, pos, Fraction(1)) == 1
        assert compare_root(f, pos, Fraction(2)) == -1
        assert compare_root(f, pos, Fraction(141421356, 10**8)) == 1
        assert compare_root(f, pos, Fraction(141421357, 10**8)) == -1
        g = IntPoly((-1, 1))
        iv1 = isolate_real_roots(g)[0]
        assert compare_root(g, iv1, Fraction(1)) == 0
        # q at an end of, or outside, a non-degenerate interval
        lo, hi = pos
        assert lo < hi
        assert compare_root(f, pos, lo) == 1
        assert compare_root(f, pos, hi) == -1
        assert compare_root(f, pos, lo - 1) == 1
        assert compare_root(f, pos, hi + 1) == -1
        assert compare_root(f, ivs[0], Fraction(0)) == -1
        f = IntPoly((0, -1, 0, 1))  # x^3 - x, roots -1, 0, 1
        # 0 is the first midpoint of [-1/2, 1/2] and the second of [-3/4, 1/4]
        for iv in ((Fraction(-1, 2), Fraction(1, 2)),
                   (Fraction(-3, 4), Fraction(1, 4))):
            assert compare_root(f, iv, Fraction(0)) == 0
            assert compare_root(f, iv, Fraction(1, 8)) == -1
            assert compare_root(f, iv, Fraction(-1, 8)) == 1
        # a degenerate interval
        one = (Fraction(1), Fraction(1))
        assert compare_root(f, one, Fraction(1)) == 0
        assert compare_root(f, one, Fraction(0)) == 1
        assert compare_root(f, one, Fraction(2)) == -1
        # a root at hi is inside (lo, hi]
        assert compare_root(f, (Fraction(-1, 2), Fraction(0)), Fraction(-1, 4)) == 1
        assert compare_root(f, (Fraction(-1, 2), Fraction(0)), Fraction(0)) == 0
        # a root at lo must be passed as a degenerate interval when q lies
        # in the cell; a q above the cell is below every root it can hold
        for q in (Fraction(0), Fraction(1, 4)):
            with pytest.raises(PreconditionError):
                compare_root(f, (Fraction(0), Fraction(1, 2)), q)
        assert compare_root(f, (Fraction(0), Fraction(1, 2)), Fraction(1)) == -1

    def test_compare_outside_the_cell_evaluates_nothing(self, monkeypatch):
        """q outside [lo, hi] is decided from the ends, so even a cell with
        a root at lo answers; q in [lo, hi] still evaluates f and refuses
        that root, at q = lo and inside the cell alike."""
        calls = []
        sign_at = roots._sign_at

        def counted(f, x):
            calls.append(x)
            return sign_at(f, x)

        monkeypatch.setattr(roots, "_sign_at", counted)
        f = IntPoly((0, -1, 0, 1))  # x^3 - x, roots -1, 0, 1
        g = IntPoly((-2, 0, 1))
        for poly, iv in ((f, (Fraction(0), Fraction(1, 2))),
                         (g, isolate_real_roots(g)[-1])):
            calls.clear()
            lo, hi = iv
            assert compare_root(poly, iv, lo - Fraction(1, 3)) == 1
            assert compare_root(poly, iv, hi + Fraction(1, 3)) == -1
            assert compare_root(poly, iv, Fraction(-10**9)) == 1
            assert sign_at_root(poly, iv, (hi + 1, Fraction(1))) == 1
            assert sign_at_root(poly, iv, (hi + 1, Fraction(-1))) == 1
            assert calls == []
        for q in (Fraction(0), Fraction(1, 8), Fraction(1, 2)):
            calls.clear()
            with pytest.raises(PreconditionError):
                compare_root(f, (Fraction(0), Fraction(1, 2)), q)
            assert calls == [Fraction(0)]

    def test_frozen_cells(self):
        """isolate_real_roots reproduces, byte for byte, the cells frozen
        from the bisection that evaluated f and the Sturm chain separately
        at every point: random polynomials of degree 2-12, many with
        rational roots at dyadic midpoints, x^3 - x, cosine minimal
        polynomials, and degree-20 and degree-40 inputs with 30-digit
        coefficients."""
        rows = json.loads((DATA / "real_root_cells.json").read_text())
        assert len(rows) == 138
        assert max(len(coeffs) for coeffs, _ in rows) == 41
        exact = sum(lo == hi for coeffs, cells in rows if len(coeffs) > 2
                    for lo, hi in cells)
        assert exact == 28
        for coeffs, cells in rows:
            f = IntPoly([int(c) for c in coeffs])
            got = [[str(lo), str(hi)] for lo, hi in isolate_real_roots(f)]
            assert got == cells, coeffs

    def test_sign_at_root(self):
        # sign of theta - 1 at theta = sqrt(2): positive
        f = IntPoly((-2, 0, 1))
        pos = isolate_real_roots(f)[-1]
        assert sign_at_root(f, pos, (Fraction(-1), Fraction(1))) == 1
        neg = isolate_real_roots(f)[0]
        assert sign_at_root(f, neg, (Fraction(-1), Fraction(1))) == -1
        with pytest.raises(PreconditionError):
            sign_at_root(f, pos, (Fraction(0),))
        f = IntPoly((0, -1, 0, 1))  # x^3 - x
        iv = (Fraction(-1, 2), Fraction(1, 2))  # 0 is the midpoint
        assert sign_at_root(f, iv, (Fraction(-1, 8), Fraction(1))) == -1
        assert sign_at_root(f, iv, (Fraction(1, 8), Fraction(1))) == 1
        with pytest.raises(PreconditionError):
            sign_at_root(f, iv, (Fraction(0), Fraction(1)))  # g(0) = 0
        # a degenerate interval
        one = (Fraction(1), Fraction(1))
        assert sign_at_root(f, one, (Fraction(2), Fraction(-3))) == -1
        with pytest.raises(PreconditionError):
            sign_at_root(f, one, (Fraction(-1), Fraction(1)))
        # a root at hi is inside (lo, hi]; a root at lo is refused
        assert sign_at_root(f, (Fraction(-1, 2), Fraction(0)),
                            (Fraction(-1, 4), Fraction(1))) == -1
        with pytest.raises(PreconditionError):
            sign_at_root(f, (Fraction(0), Fraction(1, 2)),
                         (Fraction(-1, 4), Fraction(1)))

    def test_sign_at_common_root_is_refused(self):
        """A linear g that vanishes at the root of f in the interval is
        refused; one that vanishes at another root of f leaves the sign."""
        f = IntPoly((0, -1, 0, 1))  # x^3 - x
        # 0 is not a bisection midpoint of [-3/4, 1/8]
        with pytest.raises(PreconditionError):
            sign_at_root(f, (Fraction(-3, 4), Fraction(1, 8)),
                         (Fraction(0), Fraction(-5)))
        f3 = IntPoly((6, -2, -3, 1))  # (x^2 - 2)(x - 3)
        for iv in isolate_real_roots(f3)[:2]:
            assert sign_at_root(f3, iv, (Fraction(-3), Fraction(1))) == -1

    def test_sign_at_is_exact(self):
        rng = random.Random(11)
        for _ in range(300):
            f = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 9))])
            x = Fraction(rng.randint(-10**5, 10**5), rng.choice([1, 3, 2**20, 10**4]))
            if rng.random() < 0.2:  # make x a root
                f = f * IntPoly((-x.numerator, x.denominator))
            v = sum(c * x**i for i, c in enumerate(f.coeffs))
            assert roots._sign_at(f, x) == (v > 0) - (v < 0)
        assert roots._sign_at(IntPoly((5, -1)), 5) == 0

    def test_no_rational_horner(self, monkeypatch):
        """Every sign the root layer takes is an integer evaluation; the
        Fraction Horner of IntPoly.__call__ is never used."""
        def refuse(self, x):
            raise AssertionError("IntPoly.__call__ used")

        f = minpoly_two_cos_conductor(29)
        monkeypatch.setattr(IntPoly, "__call__", refuse)
        ivs = isolate_real_roots(f)
        assert len(ivs) == f.degree
        assert len(isolate_two_cos_roots(29)) == f.degree
        monkeypatch.setattr(cyclotomic, "_cells_certified", lambda *a: False)
        with pytest.raises(ResourceCapError):
            isolate_two_cos_roots(29)
        cubic = IntPoly((0, -1, 0, 1))
        assert isolate_real_roots(cubic)[1] == (0, 0)
        lo, hi = ivs[3]
        q = (lo + hi) / 2
        with mp.workdps(40):
            r = sorted(2 * mp.cos(2 * mp.pi * k / 29) for k in range(1, 15))[3]
            want = 1 if r > mp.mpf(q.numerator) / q.denominator else -1
        assert compare_root(f, ivs[3], q) == want
        assert compare_root(f, ivs[3], hi) == -1
        assert compare_root(cubic, (Fraction(-1, 2), Fraction(1, 2)), 0) == 0
        assert sign_at_root(f, ivs[0], (Fraction(1, 7), Fraction(-3))) == 1
        assert sign_at_root(cubic, (Fraction(-1, 2), Fraction(1, 2)),
                            (Fraction(-1, 8), Fraction(1))) == -1


# every conductor up to 120, and the even conductors 2p, p = 61..83,
# beyond it
TWO_COS_CONDUCTORS = list(range(3, 121)) + \
    [2 * p for p in primes_in_range(61, 84)]

# the double guide values are checked against 30-digit mpmath cells at every
# conductor up to 600 and every prime up to 1009; isolating the roots costs
# about p^3, 70 s over that range, so the whole isolation is compared on
# TWO_COS_CONDUCTORS and two large construction primes only
GUIDE_CONDUCTORS = list(range(5, 601)) + primes_in_range(601, 1010)


def mpmath_cells(n):
    """The cells of the roots of minpoly_two_cos_conductor(n) from 30-digit
    mpmath values: the oracle for the double guide values."""
    scale = 1 << cyclotomic.CELL_BITS
    with mp.workdps(30):
        return sorted(int(mp.floor(2 * mp.cos(2 * mp.pi * k / n) * scale))
                      for k in range(1, n // 2 + 1) if gcd(k, n) == 1)


def cells_as_intervals(cells):
    scale = 1 << cyclotomic.CELL_BITS
    return [(Fraction(m, scale), Fraction(m + 1, scale)) for m in cells]


class TestTwoCosRoots:
    @pytest.mark.parametrize("n", TWO_COS_CONDUCTORS)
    def test_overlaps_sturm_isolation(self, n):
        # the closed form certifies itself: cyclotomic has no Sturm route
        assert not hasattr(cyclotomic, "isolate_real_roots")
        f = minpoly_two_cos_conductor(n)
        want = isolate_real_roots(f)
        got = isolate_two_cos_roots(n)
        if f.degree > 1:
            assert got == cells_as_intervals(mpmath_cells(n))
        assert len(got) == len(want) == f.degree
        for (a, b), (c, d) in zip(got, want):
            assert max(a, c) <= min(b, d), (n, (a, b), (c, d))
        assert got == sorted(got)

    def test_wrong_guess_refused(self):
        f = minpoly_two_cos_conductor(11)
        k = cyclotomic.CELL_BITS
        cells = [iv[0] * 2**k for iv in isolate_two_cos_roots(11)]
        assert all(m.denominator == 1 for m in cells)
        cells = [int(m) for m in cells]
        assert cyclotomic._cells_certified(f, cells, k)
        shifted = cells[:2] + [cells[2] + 1] + cells[3:]
        assert not cyclotomic._cells_certified(f, shifted, k)
        assert not cyclotomic._cells_certified(f, cells[:-1], k)
        merged = cells[:1] + cells[:-1]
        assert not cyclotomic._cells_certified(f, merged, k)

    def test_guide_cells_match_mpmath(self):
        wrong = [n for n in GUIDE_CONDUCTORS
                 if cyclotomic._guide_cells(n) != mpmath_cells(n)]
        assert wrong == []

    @pytest.mark.parametrize("p", [401, 503])
    def test_large_prime_cells_are_the_mpmath_cells(self, p):
        assert isolate_two_cos_roots(p) == cells_as_intervals(mpmath_cells(p))

    def test_refused_guess_falls_back(self, monkeypatch):
        # cells that fail their exact check are refused, naming n and the
        # cell width
        monkeypatch.setattr(cyclotomic, "_cells_certified", lambda *a: False)
        with pytest.raises(ResourceCapError, match=r"conductor 13 .*CELL_BITS"):
            isolate_two_cos_roots(13)

    def test_degree_one_conductors_give_their_integer_root(self, monkeypatch):
        # 2cos(2pi/n) = -1, 0, 1 at n = 3, 4, 6, with no guided cells
        monkeypatch.setattr(cyclotomic, "_guide_cells", None)
        for n, r in ((3, -1), (4, 0), (6, 1)):
            assert minpoly_two_cos_conductor(n) == IntPoly((-r, 1))
            assert isolate_two_cos_roots(n) == [(Fraction(r), Fraction(r))]

