import random
import signal
from fractions import Fraction

import mpmath as mp
import pytest

from torsionfree.errors import PreconditionError
from torsionfree.ntheory import primes_in_range
from torsionfree.polyalg import (IntPoly, chebyshev_T, clear_denominators,
                                 compare_root, discriminant, factor_mod_p,
                                 isolate_real_roots, isolate_two_cos_roots,
                                 minpoly_cos, minpoly_two_cos,
                                 minpoly_two_cos_conductor, newton_polygon,
                                 padic_valuation, resultant, roots_mod_p,
                                 sign_at_root, sturm_sequence)
from torsionfree.polyalg import cyclotomic, roots


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


class TestChebyshev:
    def test_first_few(self):
        assert tuple(chebyshev_T(1)) == (0, 1)
        assert tuple(chebyshev_T(2)) == (-1, 0, 2)
        assert tuple(chebyshev_T(3)) == (0, -3, 0, 4)
        with pytest.raises(PreconditionError):
            chebyshev_T(0)

    def test_matches_cosine_identity(self):
        # T_n(cos t) = cos(n t) for 1000 random rational points in [-1, 1]
        rng = random.Random(20240817)
        with mp.workdps(40):
            for n in range(1, 51):
                tn = chebyshev_T(n)
                for _ in range(20):
                    q = Fraction(rng.randint(-10**6, 10**6), 10**6)
                    x = mp.mpf(q.numerator) / q.denominator
                    lhs = poly_eval_mpf(tuple(tn), x)
                    rhs = mp.cos(n * mp.acos(x))
                    assert abs(lhs - rhs) < mp.mpf("1e-9")


class TestCosineMinimalPolynomials:
    def small_prime_irreducible(self, f):
        # cyclic Galois group guarantees inert rational primes exist
        from torsionfree.ntheory import primes_upto
        for q in primes_upto(1000):
            if f[f.degree] % q == 0:
                continue
            factors = factor_mod_p(f, q)
            if len(factors) == 1 and factors[0][1] == 1 \
                    and factors[0][0].degree == f.degree:
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

    def test_known_small_cases(self):
        assert tuple(minpoly_two_cos(5)) == (-1, 1, 1)
        assert tuple(minpoly_two_cos(7)) == (-1, -2, 1, 1)

    def test_conductor_variant(self):
        # conductor 2p relates to conductor p by x -> -x up to sign
        f10 = minpoly_two_cos_conductor(10)
        assert tuple(f10) == (-1, -1, 1)
        f5 = minpoly_two_cos_conductor(5)
        assert tuple(f5) == (-1, 1, 1)

    def test_minpoly_cos_leading_power_of_two(self):
        for p in (5, 7, 11, 13, 17, 19):
            g = minpoly_cos(p)
            lead = g[g.degree]
            assert lead > 0 and lead & (lead - 1) == 0

    def test_minpoly_cos_root(self):
        with mp.workdps(40):
            for p in (5, 7, 11, 13):
                g = minpoly_cos(p)
                x = mp.cos(2 * mp.pi / p)
                assert abs(poly_eval_mpf(tuple(g), x)) < mp.mpf("1e-25")
                f = minpoly_two_cos(p)
                assert abs(poly_eval_mpf(tuple(f), 2 * x)) < mp.mpf("1e-25")


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
            factors = factor_mod_p(f, p)
            prod = [f[f.degree] % p]
            for g, mult in factors:
                assert g.is_monic()
                for _ in range(mult):
                    nxt = [0] * (len(prod) + g.degree)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(tuple(g)):
                            nxt[i + j] = (nxt[i + j] + a * b) % p
                    prod = nxt
            want = [c % p for c in tuple(f)]
            while prod and prod[-1] == 0:
                prod.pop()
            assert prod == want
            done += 1

    def test_linear_factors_match_roots(self):
        rng = random.Random(123)
        for _ in range(200):
            p = rng.choice([3, 5, 7, 11, 13])
            deg = rng.randint(1, 6)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
            f = IntPoly(tuple(coeffs))
            factors = factor_mod_p(f, p)
            lin = {(-g[0]) % p for g, _ in factors if g.degree == 1}
            assert lin == set(roots_mod_p(f, p))


class TestSturmIsolation:
    def test_root_count_matches_sturm(self):
        rng = random.Random(5)
        checked = 0
        while checked < 60:
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
            f = IntPoly(tuple(coeffs))
            if f.degree < 1 or discriminant(f) == 0:
                continue
            ivs = isolate_real_roots(f)
            seq = sturm_sequence(f)
            # sign changes at -inf minus at +inf equals real root count
            def signs_at_inf(sgn):
                out = []
                for g in seq:
                    lead = g[g.degree]
                    out.append(lead * (sgn ** (g.degree % 2)) if sgn < 0 else lead)
                changes = 0
                prev = 0
                for v in out:
                    if v == 0:
                        continue
                    s = 1 if v > 0 else -1
                    if prev and s != prev:
                        changes += 1
                    prev = s
                return changes
            assert len(ivs) == signs_at_inf(-1) - signs_at_inf(1)
            checked += 1

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
        # a root at lo must be passed as a degenerate interval
        for q in (Fraction(0), Fraction(1, 4), Fraction(1)):
            with pytest.raises(PreconditionError):
                compare_root(f, (Fraction(0), Fraction(1, 2)), q)

    def test_sign_at_root(self):
        # sign of theta - 1 at theta = sqrt(2): positive
        f = IntPoly((-2, 0, 1))
        pos = isolate_real_roots(f)[-1]
        assert sign_at_root(f, pos, (Fraction(-1), Fraction(1))) == 1
        neg = isolate_real_roots(f)[0]
        assert sign_at_root(f, neg, (Fraction(-1), Fraction(1))) == -1
        with pytest.raises(PreconditionError):
            sign_at_root(f, pos, (Fraction(0),))
        # x^2 - 2 + 10^-12 has a root 3.5e-13 from each root of f: the
        # interval must shrink far below its 2^-20 width
        g = (Fraction(-2) + Fraction(1, 10**12), Fraction(0), Fraction(1))
        assert sign_at_root(f, pos, g) == 1
        assert sign_at_root(f, neg, g) == 1
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
            sign_at_root(f, (Fraction(0), Fraction(1, 2)), (Fraction(1),))

    def test_sign_at_common_root_is_refused(self):
        """A g that vanishes at an irrational root of f is refused at once;
        bisection alone would never end."""
        def timeout(signum, frame):
            raise TimeoutError("sign_at_root ran for 2 s")

        f = IntPoly((-2, 0, 1))
        sqrt2 = isolate_real_roots(f)[-1]
        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(2)
        try:
            for g in ((-2, 0, 1), (0, -2, 0, 1)):  # x^2 - 2, x (x^2 - 2)
                with pytest.raises(PreconditionError):
                    sign_at_root(f, sqrt2, [Fraction(c) for c in g])
            # a common root outside the interval leaves the sign to find
            f3 = IntPoly((6, -2, -3, 1))  # (x^2 - 2)(x - 3)
            for iv in isolate_real_roots(f3)[:2]:
                assert sign_at_root(f3, iv, (Fraction(-3), Fraction(1))) == -1
            assert sign_at_root(f, sqrt2, (Fraction(-3), Fraction(0), Fraction(1))) == -1
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

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
        assert isolate_two_cos_roots(29) == ivs
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
        assert sign_at_root(f, ivs[0], (Fraction(1, 7), Fraction(-3), Fraction(1))) in (1, -1)
        assert sign_at_root(cubic, (Fraction(-1, 2), Fraction(1, 2)),
                            (Fraction(-1, 8), Fraction(1))) == -1


# every conductor up to 120, and the even conductors 2p, p = 61..83,
# beyond it
TWO_COS_CONDUCTORS = list(range(3, 121)) + \
    [2 * p for p in primes_in_range(61, 84)]


class TestTwoCosRoots:
    @pytest.mark.parametrize("n", TWO_COS_CONDUCTORS)
    def test_overlaps_sturm_isolation(self, n, monkeypatch):
        f = minpoly_two_cos_conductor(n)
        want = isolate_real_roots(f)
        if f.degree > 1:
            # the closed form must certify itself, without the Sturm fallback
            monkeypatch.setattr(cyclotomic, "isolate_real_roots", None)
        got = isolate_two_cos_roots(n)
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

    def test_refused_guess_falls_back(self, monkeypatch):
        monkeypatch.setattr(cyclotomic, "_cells_certified", lambda *a: False)
        f = minpoly_two_cos_conductor(13)
        assert isolate_two_cos_roots(13) == isolate_real_roots(f)


class TestNewtonPolygon:
    def test_known_polygons(self):
        np1 = newton_polygon(IntPoly((-6, 1)), 2)
        assert np1.slopes == ((Fraction(1), 1),)
        np2 = newton_polygon(IntPoly((-2, 0, 1)), 2)
        assert np2.slopes == ((Fraction(1, 2), 2),)
        assert np2.single_slope() == Fraction(1, 2)
        np3 = newton_polygon(IntPoly((8, 2, 1)), 2)
        assert np3.slopes == ((Fraction(1), 1), (Fraction(2), 1))
        assert np3.single_slope() is None

    def test_multiplicities_sum_to_degree(self):
        rng = random.Random(31)
        for _ in range(100):
            deg = rng.randint(1, 7)
            coeffs = [rng.randint(-50, 50) for _ in range(deg)] + [rng.randint(1, 50)]
            if coeffs[0] == 0:
                coeffs[0] = 1
            f = IntPoly(tuple(coeffs))
            for p in (2, 3, 5):
                np_ = newton_polygon(f, p)
                assert sum(m for _, m in np_.slopes) == f.degree

    def test_invariant_under_prime_free_scaling(self):
        f = IntPoly((8, 2, 1))
        g = IntPoly((8 * 15, 2 * 15, 15))
        assert newton_polygon(f, 2).slopes == newton_polygon(g, 2).slopes

    def test_rejections(self):
        with pytest.raises(PreconditionError):
            newton_polygon(IntPoly((0, 1)), 2)
        with pytest.raises(PreconditionError):
            newton_polygon(IntPoly((1, 1)), 4)
        with pytest.raises(PreconditionError):
            newton_polygon(IntPoly((0,)), 2)


class TestHelpers:
    def test_padic_valuation(self):
        assert padic_valuation(12, 2) == 2
        assert padic_valuation(Fraction(1, 8), 2) == -3
        assert padic_valuation(Fraction(9, 5), 3) == 2
        with pytest.raises(PreconditionError):
            padic_valuation(0, 2)

    def test_clear_denominators(self):
        poly, den = clear_denominators((Fraction(1, 2), Fraction(1, 3), Fraction(1)))
        assert den == 6
        assert tuple(poly) == (3, 2, 6)
        # scaling leaves newton slopes unchanged
        f = IntPoly((3, 2, 6))
        assert newton_polygon(f, 5).slopes == newton_polygon(IntPoly((15, 10, 30)), 5).slopes
