import json
import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

import mpmath as mp
import pytest
from conftest import DATA, factor_degrees_mod_p

from torsionfree.errors import (NotSquarefreeError, PreconditionError,
                                ResourceCapError)
from torsionfree import _kernels, ntheory, numfield
from torsionfree.polyalg import modp
from torsionfree.construct import build_construction, choose_T
from torsionfree.ntheory import factorize, primes_in_range, primes_upto
from torsionfree.numfield import (FieldElement, count_prime_ideals,
                                  dedekind_index_primes, dedekind_split,
                                  element_charpoly, make_cosine_field,
                                  make_field, sign_at_embeddings)
from torsionfree.polyalg import (IntPoly, isolate_real_roots,
                                 minpoly_two_cos_conductor, poly, resultant,
                                 roots, sign_at_root, two_cos_discriminant)
from torsionfree.selberg import find_congruence_level

# x^6 + 2x + 2, Eisenstein at 2
EISENSTEIN_6 = IntPoly((2, 2, 0, 0, 0, 0, 1))
# a prime above 2^32
BIG_PRIME = 2**32 + 15


def refuse_factoring(f, q, top=None):
    """Stands in for factor_mod_p where no prime may be factored."""
    raise AssertionError(f"{q} was factored")


class TestMakeField:
    def test_rejects_rational_root(self):
        with pytest.raises(PreconditionError):
            make_field(IntPoly((-6, 1, 1)))  # (x-2)(x+3)

    @pytest.mark.parametrize("f, hit", [
        # x^2 - N^2, N a prime above 2^32
        (IntPoly((-BIG_PRIME**2, 0, 1)), [False, False]),
        # x^3 - x: the root 0 is a bisection midpoint, -1 and 1 are not
        (IntPoly((0, -1, 0, 1)), [False, True, False]),
        # (x - 5)(x^2 - 7): the integer root is never a midpoint
        (IntPoly((-5, 1)) * IntPoly((-7, 0, 1)), [False, False, False]),
        # a linear factor times a cubic, the root a midpoint or not
        (IntPoly((5, 1)) * IntPoly((1, -3, 0, 1)), [True, False, False, False]),
        (IntPoly((-3, 1)) * IntPoly((-1, -1, 0, 1)), [False, False]),
    ])
    def test_rational_root_read_from_cells(self, f, hit):
        # hit: whether isolation lands on each real root as a midpoint
        assert [lo == hi for lo, hi in isolate_real_roots(f)] == hit
        with pytest.raises(PreconditionError, match="rational root"):
            make_field(f)

    def test_no_rational_root_accepted(self):
        # x^2 + 1 has no real cell at all; (x^2 - 2)(x^2 - 3) is reducible
        # but has no rational root, so the screen lets it through
        for f, real in ((IntPoly((1, 0, 1)), 0), (IntPoly((6, 0, -5, 0, 1)), 4)):
            assert len(make_field(f).real_embeddings) == real

    def test_repeated_rational_root_is_not_squarefree(self):
        # (x - 1)^2: the Sturm chain refuses it before any root test
        with pytest.raises(NotSquarefreeError):
            make_field(IntPoly((1, -2, 1)))

    def test_rejects_repeated_factor(self):
        # (x^2-2)^2 has no rational root but is not squarefree
        with pytest.raises(NotSquarefreeError):
            make_field(IntPoly((4, 0, -4, 0, 1)))

    def test_rejects_non_monic(self):
        with pytest.raises(PreconditionError):
            make_field(IntPoly((-2, 0, 2)))

    @pytest.mark.parametrize("coeffs", [(-2.7, 0, 1.0), (-2.0, 0, 1),
                                        ("-2", "0", "1"),
                                        (Fraction(-2), 0, 1)])
    def test_rejects_non_integer_coefficients(self, coeffs):
        with pytest.raises(PreconditionError, match="integer coefficients"):
            make_field(coeffs)

    def test_integer_coefficients_pass(self):
        K = make_field((-2, 0, 1))
        assert K.defining_poly == IntPoly((-2, 0, 1))
        assert make_field([-2, 0, 1]) == K

    def test_rejects_constant(self):
        with pytest.raises(PreconditionError):
            make_field(IntPoly((1,)))

    def test_wire_format(self, field_sqrt2):
        js = field_sqrt2.to_json()
        assert set(js) == {"poly", "degree", "disc_poly", "field_disc", "monogenic"}
        assert js["poly"] == [-2, 0, 1]
        assert js["degree"] == 2
        assert js["disc_poly"] == "8"
        assert js["field_disc"] == "8"
        assert js["monogenic"] is True

    def test_cosine_field_discs(self, cosine_fields):
        # field disc of the degree-(p-1)/2 real cyclotomic subfield is p^((p-3)/2)
        want = {5: 5, 7: 49, 11: 11**4, 13: 13**5}
        for p, K in cosine_fields.items():
            assert K.field_disc == want[p] == p ** ((p - 3) // 2)
            assert dedekind_index_primes(K) == ()
            assert K.conductor == p

    def test_fields_are_hashable(self, field_sqrt2):
        # a shared, memoised field holds no mutable list
        for K in (make_cosine_field(7), field_sqrt2):
            assert isinstance(K.real_embeddings, tuple)
            assert all(isinstance(iv, tuple) for iv in K.real_embeddings)
            assert hash(K) == hash(make_field(K.defining_poly,
                                              conductor=K.conductor))

    def test_wrong_conductor_hint_rejected(self):
        # x^2 - 2 is not the minimal polynomial of 2cos(2pi/5); trusting the
        # hint would count 163 prime ideals of norm <= 1000 instead of 167
        with pytest.raises(PreconditionError):
            make_field(IntPoly((-2, 0, 1)), conductor=5)
        with pytest.raises(PreconditionError):
            make_field(make_cosine_field(7).defining_poly, conductor=14)
        with pytest.raises(PreconditionError):
            make_field(IntPoly((-2, 0, 1)), conductor=2)
        assert count_prime_ideals(make_field(IntPoly((-2, 0, 1))), 1000) == 167

    def test_cosine_orders_pass_dedekind_at_the_conductor_primes(self):
        # Z[2cos(2pi/n)] is the maximal order (Washington, Prop. 2.16), so a
        # cosine field tests no prime. The check behind that: the only
        # primes of two_cos_discriminant(n) divide n, and each passes
        # Dedekind's criterion for the minimal polynomial, 3 <= n <= 600
        for n in range(3, 601):
            f = minpoly_two_cos_conductor(n)
            rest = abs(two_cos_discriminant(n))
            for q in factorize(n):
                while rest % q == 0:
                    rest //= q
                assert numfield._dedekind_index_test(f, q), (n, q)
            assert rest == 1, n

    def test_rationals(self, field_q):
        assert field_q.degree == 1
        assert field_q.field_disc == 1


class TestOneChain:
    """make_field reads the remainder sequence of (f, f') once: the
    discriminant computes it, and the Sturm chain reads it from the
    one-entry memo of subresultant_prs."""

    @staticmethod
    def eisenstein(rng, d):
        coeffs = [2 * rng.randint(-3, 3) for _ in range(d)] + [1]
        coeffs[0] = 2 * rng.choice((-1, 1, -3, 3))
        return IntPoly(coeffs)

    def test_make_field_computes_the_chain_once(self, monkeypatch):
        f = self.eisenstein(random.Random(42), 12)
        make_field(EISENSTEIN_6)  # the memo now holds another chain
        calls = []
        pseudo_rem = IntPoly.pseudo_rem

        def counted(a, b):
            calls.append(b)
            return pseudo_rem(a, b)

        monkeypatch.setattr(IntPoly, "pseudo_rem", counted)
        make_field(f)
        in_field = len(calls)
        calls.clear()
        poly.subresultant_prs.__wrapped__(f, f.derivative())
        assert in_field == len(calls) >= 11

    def test_memo_keeps_each_field_its_own(self, monkeypatch):
        from sympy import Poly, discriminant as sympy_discriminant, symbols
        from sympy import resultant as sympy_resultant
        x = symbols("x")

        def as_sympy(f):
            return Poly(list(reversed(f.coeffs)), x)

        rng = random.Random(7)
        f, g, h = (self.eisenstein(rng, d) for d in (30, 2, 17))
        fields = [make_field(k) for k in (f, g, f, h)]
        monkeypatch.setattr(roots, "subresultant_prs",
                            poly.subresultant_prs.__wrapped__)
        for k, K in zip((f, g, f, h), fields):
            assert K.disc_poly == int(sympy_discriminant(as_sympy(k)))
            assert K.real_embeddings == tuple(isolate_real_roots(k))
        # Res(b, a) reads the chain of Res(a, b) and flips its sign, since
        # both degrees are odd
        a, b = self.eisenstein(rng, 7), self.eisenstein(rng, 5)
        want = int(sympy_resultant(as_sympy(a), as_sympy(b)))
        assert resultant(a, b) == want
        assert resultant(b, a) == -want


class TestElements:
    def test_arithmetic(self, field_sqrt2):
        th = field_sqrt2.generator()
        two = th * th
        assert two == field_sqrt2.element([2])
        assert (th + th) - th == th
        assert (-th) + th == field_sqrt2.element([0])
        assert (th + th).rep == (Fraction(0), Fraction(2))

    def test_charpoly_and_norm(self, field_sqrt2):
        th = field_sqrt2.generator()
        cp = element_charpoly(th + field_sqrt2.element([1]))
        assert cp == (Fraction(-1), Fraction(-2), Fraction(1))
        # in even degree the norm is the constant term
        assert element_charpoly(th)[0] == -2

    def test_charpoly_of_rational(self, field_sqrt2):
        # rational r has charpoly (x - r)^d
        cp = element_charpoly(field_sqrt2.element([3]))
        assert cp == (Fraction(9), Fraction(-6), Fraction(1))

    def test_charpoly_cosine(self, cosine_fields):
        K = cosine_fields[7]
        th = K.generator()
        # (2cos t)^2 = 2cos 2t + 2, so theta + 2 is a conjugate of theta^2
        cp = element_charpoly(th + K.element([2]))
        assert cp == (Fraction(-1), Fraction(6), Fraction(-5), Fraction(1))

    def test_owner_mismatch_rejected(self, field_q, field_sqrt2):
        with pytest.raises(PreconditionError):
            field_q.generator() + field_sqrt2.generator()

    def test_nonlinear_element_refused(self, cosine_fields):
        # signs and charpolys are taken of (a + b theta)/den only
        K = cosine_fields[7]
        th = K.generator()
        sq = th * th
        for fn in (element_charpoly, sign_at_embeddings):
            with pytest.raises(PreconditionError, match="linear"):
                fn(sq)
        with pytest.raises(PreconditionError, match="degree"):
            sign_at_root(K.defining_poly, K.real_embeddings[0], sq.rep)

def _q_poly_mul(a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return prod


def _ref_mul(x, y, f):
    """x * y mod f on Fraction coefficient vectors: the reference product."""
    d = len(x)
    prod = _q_poly_mul(x, y)
    for k in range(2 * d - 2, d - 1, -1):
        c, prod[k] = prod[k], 0
        for j in range(d):
            prod[k - d + j] -= c * f[j]
    return tuple(prod[:d])


def _ref_charpoly_linear(f, a, b):
    """Charpoly of a + b*theta over Q: b^d f((x - a)/b), or (x - a)^d for
    b = 0, summed in Fractions as the reference."""
    d = f.degree
    shift = (-a, Fraction(1))
    if b == 0:
        out = [Fraction(1)]
        for _ in range(d):
            out = _q_poly_mul(out, shift)
        return tuple(out)
    out = [Fraction(0)] * (d + 1)
    powt = [Fraction(1)]
    for i in range(d + 1):
        ci = Fraction(f[i]) * b ** (d - i)
        for j, t in enumerate(powt):
            out[j] += ci * t
        powt = _q_poly_mul(powt, shift)
    return tuple(out)


@pytest.fixture(scope="module")
def rep_fields(field_q, field_sqrt2, cosine_fields):
    return (field_q, field_sqrt2, cosine_fields[7], make_field(EISENSTEIN_6))


def _is_normalised(e):
    return e.den > 0 and gcd(e.den, *e.num) == 1


class TestRepresentation:
    """Integer numerators over one denominator against Fraction formulas."""

    def test_arithmetic_matches_fraction_reference(self, rep_fields):
        rng = random.Random(1618)
        for K in rep_fields:
            f, d = K.defining_poly, K.degree
            for _ in range(150):
                x, y = ([Fraction(rng.randint(-40, 40),
                                  rng.choice((1, 2, 3, 4, 6, 9, 1024)))
                         for _ in range(d)] for _ in range(2))
                q = rng.choice((0, 1, -3, 7, Fraction(-5, 6), Fraction(4, 9)))
                X, Y = K.element(x), K.element(y)
                cases = (
                    (X + Y, [a + b for a, b in zip(x, y)]),
                    (X - Y, [a - b for a, b in zip(x, y)]),
                    (-X, [-a for a in x]),
                    (X * Y, _ref_mul(x, y, f)),
                    (X * q, [a * q for a in x]),
                    (q * X, [a * q for a in x]),
                    (X - X, [0] * d),
                )
                for got, want in cases:
                    assert got.rep == tuple(want)
                    assert _is_normalised(got)
                assert (X - X).num == (0,) * d and (X - X).den == 1

    def test_equal_values_have_equal_numerators(self, field_sqrt2):
        K = field_sqrt2
        a, b = K.element([Fraction(2, 4)]), K.element([Fraction(1, 2)])
        assert a == b and hash(a) == hash(b)
        assert (a.num, a.den) == ((1, 0), 2)
        # the constructor normalises as element() does
        c = FieldElement(K, (6, -4), 4)
        assert (c.num, c.den) == ((3, -2), 2)
        assert c == K.element([Fraction(3, 2), -1])
        assert FieldElement(K, (0, 0), 7) == K.element([0])
        for den in (0, -2):
            with pytest.raises(PreconditionError):
                FieldElement(K, (1, 0), den)

    def test_mul_mod_independent_of_operand_order(self):
        # over the p = 503 cosine polynomial (degree 251): the sparse theta,
        # a two-term vector, zero and two dense vectors, in both orders
        f = make_cosine_field(503).defining_poly
        d = f.degree
        rng = random.Random(503)
        theta, sparse, zero = ([0] * d for _ in range(3))
        theta[1], sparse[3], sparse[200] = 1, -7, 5
        dense = [[rng.randint(-10**6, 10**6) for _ in range(d)]
                 for _ in range(2)]
        vectors = [theta, sparse, zero, *dense]
        for u in vectors:
            for v in vectors:
                assert numfield.mul_mod(u, v, f) == numfield.mul_mod(v, u, f)
            # theta * u shifts u up and folds its top coefficient by f
            top = u[-1]
            assert numfield.mul_mod(u, theta, f) == [
                a - top * c for a, c in zip([0, *u[:-1]], f.coeffs)]

    def test_charpoly_linear_matches_reference(self, rep_fields):
        rng = random.Random(1414)
        for K in rep_fields:
            f = K.defining_poly
            triples = [(0, 0, 1), (5, 0, 3), (-7, 0, 4), (-3, 2, 1),
                       (-5, -7, 6), (1, 1, 1024)]
            triples += [(rng.randint(-50, 50), rng.randint(-50, 50),
                         rng.randint(1, 64)) for _ in range(20)]
            for a, b, den in triples:
                if K.degree == 1:
                    b = 0
                want = _ref_charpoly_linear(f, Fraction(a, den), Fraction(b, den))
                assert numfield._charpoly_linear(f, a, b, den) == want
                alpha = K.element([Fraction(a, den), Fraction(b, den)][:K.degree])
                assert element_charpoly(alpha) == want


class TestDedekindSplit:
    def test_known_splits_sqrt2(self, field_sqrt2):
        assert dedekind_index_primes(field_sqrt2) == ()
        assert dedekind_split(field_sqrt2, 7) == ((1, 1), (1, 1))
        assert dedekind_split(field_sqrt2, 5) == ((1, 2),)
        assert dedekind_split(field_sqrt2, 2) == ((2, 1),)

    def test_ramified_cosine(self, cosine_fields):
        for p, K in cosine_fields.items():
            assert dedekind_split(K, p) == (((p - 1) // 2, 1),)

    def test_sum_ef_equals_degree(self, field_q, field_sqrt2, cosine_fields):
        fields = [field_q, field_sqrt2] + list(cosine_fields.values())
        for K in fields:
            assert dedekind_index_primes(K) == ()
            for p in primes_upto(1000):
                assert sum(e * f for e, f in dedekind_split(K, p)) == K.degree

    @pytest.mark.parametrize("n", (5, 7, 9, 11, 12, 13, 15, 16, 20, 21, 24))
    def test_abelian_law_matches_factorisation(self, n, monkeypatch):
        # the conductor hint switches dedekind_split to the abelian law for
        # every q, ramified or not; without it every q is factored mod q
        K_ab = make_cosine_field(n)
        K_gen = make_field(K_ab.defining_poly)
        primes = primes_upto(2000)
        want = [dedekind_split(K_gen, q) for q in primes]

        monkeypatch.setattr(numfield, "factor_mod_p", refuse_factoring)
        assert [dedekind_split(K_ab, q) for q in primes] == want

    def test_ramified_law_matches_factorisation(self, monkeypatch):
        # every q | n for 3 <= n <= 200: n = 2 mod 4 at q = 2 (unramified),
        # powers of 2 and of odd primes (totally ramified), and composite
        # conductors (e = phi(q^a), f from q mod n/q^a). The generic side is
        # make_field(K.defining_poly) without the root isolation, which
        # splitting does not read
        cases = []
        for n in range(3, 201):
            K_ab = make_cosine_field(n)
            K_gen = numfield.NumberField(K_ab.defining_poly, K_ab.degree,
                                         K_ab.disc_poly, K_ab.real_embeddings)
            for q in factorize(n):
                f = dedekind_split(K_gen, q)[0][1]
                for below in (None, q**f, q**f + 1):
                    cases.append((K_ab, q, below,
                                  dedekind_split(K_gen, q, below)))

        monkeypatch.setattr(numfield, "factor_mod_p", refuse_factoring)
        for K_ab, q, below, want in cases:
            assert dedekind_split(K_ab, q, below) == want, \
                (K_ab.conductor, q, below)
        shapes = {(K.conductor, q): dedekind_split(K, q)
                  for K, q, _below, _want in cases}
        assert shapes[(6, 2)] == shapes[(6, 3)] == ((1, 1),)
        assert shapes[(30, 2)] == ((1, 4),)
        assert shapes[(128, 2)] == ((32, 1),)
        assert shapes[(125, 5)] == ((50, 1),)
        assert shapes[(60, 2)] == ((2, 4),)
        assert shapes[(63, 7)] == ((6, 3),)
        assert shapes[(91, 7)] == ((6, 6),)
        assert shapes[(39, 3)] == ((2, 3), (2, 3))

    def test_index_divisible_classical_cubic(self):
        # x^3 - x^2 - 2x - 8: 2 divides the index of Z[theta], and the
        # factorization mod 2 cannot be trusted, so it is refused
        K = make_field(IntPoly((-8, -2, -1, 1)))
        assert dedekind_index_primes(K) == (2,)
        with pytest.raises(PreconditionError, match="index"):
            dedekind_split(K, 2)
        assert dedekind_split(K, 3) == ((1, 3),)


class TestIndexPrimes:
    """is_index_prime decides a prime only where splitting, counting or the
    level search visits it, at most once per (field, q); building a field
    tests nothing."""

    # field, index_primes, primes up to 50 that dedekind_split refuses,
    # counts at x = 3 and 10^5 with their unreliable primes, and the level
    # norm
    CASES = {
        "cos13": (lambda: make_cosine_field(13), (), [], (0, []), (9591, []), 13),
        "eisenstein6": (lambda: make_field(EISENSTEIN_6), (), [], (1, []),
                        (9573, []), 5),
        "x2-8": (lambda: make_field(IntPoly((-8, 0, 1))), (2,), [2], (0, [2]),
                 (9600, [2]), 7),
        "x3-12": (lambda: make_field(IntPoly((-12, 0, 0, 1))), (2,), [2],
                  (1, [2]), (9608, [2]), 5),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_decided_at_most_once_where_visited(self, name, monkeypatch):
        build, index_primes, flagged, small, large, level_norm = self.CASES[name]
        calls = Counter()
        test = numfield._dedekind_index_test

        def counted_test(f, q):
            calls[q] += 1
            return test(f, q)

        def refused(q):
            try:
                dedekind_split(K, q)
            except PreconditionError:
                return True
            return False

        monkeypatch.setattr(numfield, "_dedekind_index_test", counted_test)
        K = build()
        assert not calls
        assert [q for q in primes_upto(50) if refused(q)] == flagged
        for x, (count, unreliable) in ((3, small), (10**5, large)):
            seen: list[int] = []
            assert count_prime_ideals(K, x, seen) == count
            assert seen == unreliable
        # every index prime here lies below the level norm, so the scan
        # passes, skips and reports each of them
        lvl = find_congruence_level(K, 3)
        assert lvl.norm == level_norm
        assert lvl.skipped_index_divisible == index_primes
        # the visits reached every square prime below 10^5 of a generic
        # field, and a cosine field tests none
        squares = [q for q in primes_upto(10**5) if K.disc_poly % (q * q) == 0]
        assert sorted(calls) == ([] if K.conductor else squares)
        assert dedekind_index_primes(K) == index_primes
        assert K.field_disc == (None if index_primes else K.disc_poly)
        js = K.to_json()
        assert js["field_disc"] == (None if index_primes else str(K.disc_poly))
        assert js["monogenic"] == (not index_primes)
        assert set(calls.values()) <= {1}

    def test_no_pollard_rho_where_visited(self, monkeypatch):
        # the generic-fields inputs of seeds 416, 792, 860 and 2001 include
        # discriminants that only Pollard rho splits; the count and the
        # level scan give the frozen answers without it, and so do the
        # fields whose index primes fall below and above sqrt(x)
        def no_rho(n, budget):
            raise AssertionError(f"Pollard rho on {n}")

        monkeypatch.setattr(ntheory, "_pollard_rho", no_rho)
        rows = json.loads((DATA / "generic_counts.json").read_text())
        rows = rows["rho_seeds"]
        assert len(rows) == 28
        for _seed, coeffs, x, count, unreliable, level in rows:
            K = make_field(coeffs)
            seen: list[int] = []
            assert count_prime_ideals(K, x, seen) == count, coeffs
            assert seen == unreliable, coeffs
            lvl = find_congruence_level(K, 3)
            assert [lvl.norm, lvl.rational_prime, lvl.inertia,
                    lvl.ramification,
                    list(lvl.skipped_index_divisible)] == level, coeffs
        for coeffs, level in (((-63, 0, 1), (7, (3,))),
                              ((-8, -2, -1, 1), (5, (2,)))):
            K = make_field(coeffs)
            lvl = find_congruence_level(K, 3)
            assert (lvl.norm, lvl.skipped_index_divisible) == level
            assert count_prime_ideals(K, 10**4) > 0
        # field analyze still splits the whole discriminant
        seed_2001_degree_12 = next(coeffs for seed, coeffs, *_ in rows
                                   if seed == 2001 and len(coeffs) == 13)
        with pytest.raises(AssertionError, match="Pollard rho"):
            dedekind_index_primes(make_field(seed_2001_degree_12))

    @pytest.mark.parametrize("coeffs, x, count, unreliable", [
        # x^2 - 63: the index prime 3 above sqrt(x) for x < 9, below after
        ((-63, 0, 1), 7, 2, [3]), ((-63, 0, 1), 8, 2, [3]),
        ((-63, 0, 1), 9, 2, [3]), ((-63, 0, 1), 10, 2, [3]),
        ((-63, 0, 1), 11, 2, [3]),
        # Dedekind's cubic: the index prime 2 above sqrt(x) for x < 4
        ((-8, -2, -1, 1), 2, 0, [2]), ((-8, -2, -1, 1), 3, 0, [2]),
        ((-8, -2, -1, 1), 4, 0, [2]), ((-8, -2, -1, 1), 5, 1, [2]),
        ((-8, -2, -1, 1), 6, 1, [2])])
    def test_frozen_at_the_square_of_an_index_prime(self, coeffs, x, count,
                                                    unreliable):
        seen: list[int] = []
        assert count_prime_ideals(make_field(coeffs), x, seen) == count
        assert seen == unreliable

    # p * q < 1e15 with p, q > 1e5: the cofactor left by trial division,
    # which only Pollard rho splits
    P, Q = 999983, 1000003

    @pytest.mark.parametrize("coeffs, disc_poly, index_primes, rho", [
        ((-63, 0, 1), 252, (3,), False),
        ((-20402, 0, 1), 81608, (101,), False),
        ((-27 * P * Q, 0, 1), 107998487994492, (3,), True),
        ((-3 * P * Q, 0, 1), 11999831999388, (), True)])
    def test_field_disc_and_monogenic_frozen(self, coeffs, disc_poly,
                                             index_primes, rho, monkeypatch):
        # frozen field_disc and monogenic values; the last two
        # discriminants leave the cofactor P * Q, which only rho splits
        pollard_rho, calls = ntheory._pollard_rho, []

        def counted_rho(n, budget):
            calls.append(n)
            return pollard_rho(n, budget)

        monkeypatch.setattr(ntheory, "_pollard_rho", counted_rho)
        K = make_field(coeffs)
        assert K.disc_poly == disc_poly
        assert dedekind_index_primes(K) == index_primes
        assert bool(calls) == rho
        field_disc = None if index_primes else disc_poly
        assert K.field_disc == field_disc
        js = K.to_json()
        assert js["field_disc"] == (None if field_disc is None
                                    else str(field_disc))
        assert js["monogenic"] == (field_disc is not None)

    def test_square_prime_that_passes_is_not_an_index_prime(self):
        # disc(x^3 - 12) = -3888 = -2^4 3^5; 3 passes Dedekind's criterion
        K = make_field(IntPoly((-12, 0, 0, 1)))
        assert K.disc_poly == -2**4 * 3**5
        assert numfield._dedekind_index_test(K.defining_poly, 3)
        assert not numfield._dedekind_index_test(K.defining_poly, 2)


class TestCounting:
    def test_rationals_match_sieve(self, field_q):
        for x in (2, 10, 100, 1000, 10**5):
            assert count_prime_ideals(field_q, x) == len(primes_upto(x))

    def test_frozen_counts(self, field_sqrt2, cosine_fields):
        assert count_prime_ideals(field_sqrt2, 10) == 4
        # 1 ramified + 2 inert of norm <= 100 + 11 split pairs
        assert count_prime_ideals(field_sqrt2, 100) == 25
        assert count_prime_ideals(cosine_fields[13], 100) == 19

    def test_frozen_multi_segment_count(self):
        # p = 23 at x = 6,073,790,416: each of the four progressions mod 138
        # that the class sieve runs spans 42 segments of 2^20 indices, a
        # path no benchmark workload reaches; under 1 s on a 2-core machine
        start = time.perf_counter()
        assert count_prime_ideals(make_cosine_field(23),
                                  6_073_790_416) == 282_827_154
        assert time.perf_counter() - start < 10

    def test_monotone(self, field_sqrt2):
        prev = 0
        for x in (2, 10, 50, 100, 500, 1000, 5000):
            cur = count_prime_ideals(field_sqrt2, x)
            assert cur >= prev
            prev = cur

    def test_abelian_generic_agree(self):
        # same minimal polynomial without the conductor hint runs the
        # kernel route; the counts must coincide, also where a
        # norm q^f or a square B^2 sits at x or just past it. Norms above
        # 2e4 are left out to keep the reference route short; the frozen
        # counts below cover large x.
        cap = 20_000
        for n in (5, 7, 11, 13, 15, 20, 21, 31):
            K_ab = make_cosine_field(n)
            K_gen = make_field(K_ab.defining_poly)
            assert K_gen.conductor is None
            xs = {2, 10, 100, 1000, 5000}
            for q in primes_upto(60):
                if n % q:
                    f = dedekind_split(K_ab, q)[0][1]
                    norms = [q**f] if f >= 3 else []
                else:  # the ramified prime and its powers
                    norms = [q**k for k in range(1, 20)]
                for N in norms:
                    if N <= cap:
                        xs |= {N - 1, N, N + 1}
                xs |= {q * q - 1, q * q, (q + 1)**2 - 1}
            for x in sorted(xs):
                assert count_prime_ideals(K_ab, x) == \
                    count_prime_ideals(K_gen, x), (n, x)

    def test_inertia_degrees_of_note(self):
        # classes of inertia degree >= 3 that the agreement test reaches
        for n, q, f in ((7, 2, 3), (7, 3, 3), (7, 5, 3), (31, 2, 5),
                        (31, 5, 3), (21, 2, 6), (13, 2, 6)):
            assert dedekind_split(make_cosine_field(n), q)[0] == (1, f)

    def test_inertia_degree_refuses_a_non_unit_class(self):
        # 2 mod 12 would cycle 2 -> 4 -> 8 -> 4 without reaching +-1
        for c, n in ((2, 12), (3, 12), (0, 12), (4, 12), (5, 15), (0, 7)):
            with pytest.raises(PreconditionError):
                numfield._inertia_degree(c, n)
        assert numfield._inertia_degree(11, 12) == 1
        assert numfield._inertia_degree(5, 12) == 2
        assert numfield._inertia_degree(2, 7) == 3

    def test_class_tally_matches_per_prime_loop_dense(self, monkeypatch):
        # every conductor 3 <= n <= 60 and every x <= 3000, against the
        # per-prime loop over all q <= sqrt(x). The class sieve above
        # sqrt(x) has its own tests; an exact count from a prime list
        # stands in for it on both sides, so the grid runs in seconds.
        primes = set(primes_upto(3001))

        @cache
        def below(n, residues):
            # below(n, residues)[v]: the primes q < v with q % n in residues
            out = [0]
            for v in range(3001):
                out.append(out[-1] + (v in primes and v % n in residues))
            return out

        def listed_class_count(lo, hi, n, residues):
            return below(n, residues)[hi] - below(n, residues)[lo]

        monkeypatch.setattr(_kernels, "prime_count_in_classes",
                            listed_class_count)
        for n in range(3, 61):
            K = make_cosine_field(n)
            got = [count_prime_ideals(K, x) for x in range(2, 3001)]
            want = [_per_prime_count(K, x) for x in range(2, 3001)]
            assert got == want, n

    def test_class_tally_at_the_cube_root_cut(self):
        # x = q^3 - 1, q^3, q^3 + 1 puts q on each side of the cbrt(x) cut
        xs = [q**3 + e for q in primes_upto(50) for e in (-1, 0, 1)]
        for n in range(3, 61):
            K = make_cosine_field(n)
            for x in xs:
                assert count_prime_ideals(K, x) == _per_prime_count(K, x), \
                    (n, x)

    def test_frozen_workload_counts(self):
        # taken from the route that split every prime below sqrt(x) with
        # dedekind_split
        assert count_prime_ideals(make_cosine_field(31), 103_212_455) == 5_934_181
        assert count_prime_ideals(make_cosine_field(79), 103_212_455) == 5_931_420

    @pytest.mark.parametrize("n", (5, 13, 15, 20, 21, 31, 60))
    def test_count_splits_only_ramified_primes(self, n, monkeypatch):
        # the abelian count reads unramified primes from the inertia memo:
        # dedekind_split runs only for the primes dividing the conductor
        want = count_prime_ideals(make_cosine_field(n), 10**6)
        split = numfield.dedekind_split
        seen = []

        def counting_split(K, q, below=None):
            seen.append(q)
            return split(K, q, below)

        monkeypatch.setattr(numfield, "dedekind_split", counting_split)
        assert count_prime_ideals(make_cosine_field(n), 10**6) == want
        assert sorted(seen) == [q for q in primes_upto(n) if n % q == 0]

    @pytest.mark.parametrize("p, x", [(5, 10**4), (13, 10**6 + 1),
                                      (31, 10**7)])
    def test_cosine_count_sieves_small_primes_once(self, p, x, monkeypatch):
        # the inertia loop and the class sieve's base table share one list
        # of the primes below sqrt(x) + 1
        want = count_prime_ideals(make_cosine_field(p), x)
        odd_primes = ntheory._odd_primes
        ranges = []

        def spy(a, b):
            ranges.append((a, b))
            return odd_primes(a, b)

        monkeypatch.setattr(ntheory, "_odd_primes", spy)
        ntheory._primes_below.cache_clear()
        ntheory._base_table.cache_clear()
        assert count_prime_ideals(make_cosine_field(p), x) == want
        B = isqrt(x)
        assert sum(1 for a, b in ranges if b == B + 1) == 1
        assert all(b <= B + 1 for a, b in ranges)

    def test_unreliable_reported_not_dropped(self):
        K = make_field(IntPoly((-8, -2, -1, 1)))
        seen: list[int] = []
        count_prime_ideals(K, 100, unreliable_out=seen)
        assert 2 in seen

    @pytest.mark.parametrize("x, count, unreliable", [
        (100, 25, []), (101, 25, [101]), (5000, 677, [101]),
        (10200, 1242, [101]), (10201, 1242, [101])])
    def test_index_prime_above_sqrt_x(self, x, count, unreliable):
        # x^2 - 20402 = x^2 - 2 * 101^2: the index prime 101 lies above
        # sqrt(x) up to x = 10200, so the root-count kernel counts it and the
        # count takes its roots off again; at 10201 = 101^2 it is a small
        # prime. The reference factors every prime up to x but 101 with
        # sympy.
        f = IntPoly((-20402, 0, 1))
        K = make_field(f)
        assert dedekind_index_primes(K) == (101,)
        want = sum(1 for p in primes_upto(x) if p != 101
                   for d in factor_degrees_mod_p(f.coeffs, p) if p**d <= x)
        seen: list[int] = []
        assert count_prime_ideals(K, x, seen) == want == count
        assert seen == unreliable

    @pytest.mark.parametrize("coeffs, index", [
        ((-63, 0, 1), (3,)), ((-8, -2, -1, 1), (2,))])
    def test_index_prime_below_and_above_sqrt_x(self, coeffs, index):
        # x^2 - 63 = x^2 - 3^2 7 and Dedekind's x^3 - x^2 - 2x - 8: the
        # index prime lies above sqrt(x) for the smallest x and below it
        # after; the reference splits every other prime up to x
        K = make_field(IntPoly(coeffs))
        assert dedekind_index_primes(K) == index
        for x in (*range(2, 40), 80, 81, 1000, 4096, 20_000):
            want = sum(1 for p in primes_upto(x) if p not in index
                       for _e, f in dedekind_split(K, p) if p**f <= x)
            assert count_prime_ideals(K, x) == want, x

    def test_frozen_generic_workload_counts(self):
        # Eisenstein fields of degree 6-12 (two with an index prime below
        # sqrt(x)), taken from the route that split every prime below
        # sqrt(x) with dedekind_split
        for coeffs, x, count in [
                ((2, -4, 0, -2, -4, 4, 4, 2, 1), 26949, 2961),
                ((-3, -6, -3, 3, 0, 6, -3, 6, -3, 6, 1), 23144, 2611),
                ((6, 3, -6, 0, 0, -6, 6, 1), 30362, 3295),
                ((-2, 4, -2, 2, -2, -2, 1), 32363, 3418),
                ((-10, 0, 0, -10, 10, -10, 10, 5, 0, 1), 24171, 2700),
                ((3, -3, -3, 6, 3, 3, 3, 0, 6, -3, -3, 1), 20510, 2383),
                ((2, 4, 2, -2, 4, -2, 2, -4, -4, -2, 2, 0, 1), 19441, 2217)]:
            assert count_prime_ideals(make_field(coeffs), x) == count

    def test_frozen_generic_counts_of_seeds_1_to_10(self):
        # the 70 generic-fields tasks of seeds 1-10, counts and unreliable
        # lists as frozen
        rows = json.loads((DATA / "generic_counts.json").read_text())
        assert len(rows["counts"]) == 70
        for coeffs, x, count, unreliable in rows["counts"]:
            seen: list[int] = []
            assert count_prime_ideals(make_field(coeffs), x, seen) == count
            assert seen == unreliable, coeffs

    @pytest.mark.parametrize("coeffs", [
        (-2, 0, 1), (6, 3, -6, 0, 0, -6, 6, 1), (-63, 0, 1)])
    def test_generic_count_factors_nothing(self, coeffs, monkeypatch):
        # the generic count runs in the kernels: no prime is split or
        # factored mod p
        K = make_field(IntPoly(coeffs))
        want = count_prime_ideals(K, 10**4)
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(numfield, "dedekind_split",
                            counted("split", numfield.dedekind_split))
        monkeypatch.setattr(numfield, "factor_mod_p",
                            counted("factor", numfield.factor_mod_p))
        monkeypatch.setattr(modp, "factor_mod_p",
                            counted("factor", modp.factor_mod_p))
        assert count_prime_ideals(K, 10**4) == want
        assert calls == []

    @pytest.mark.parametrize("p", (5, 31, 83))
    def test_cosine_task_factors_nothing(self, p, monkeypatch):
        # a whole cosine task, field to count, splits every prime by the
        # abelian law, the primes dividing the conductor included
        monkeypatch.setattr(numfield, "factor_mod_p", refuse_factoring)
        monkeypatch.setattr(modp, "factor_mod_p", refuse_factoring)
        K = make_cosine_field.__wrapped__(p)
        level = find_congruence_level(K, 3)
        con = build_construction(p)
        count = count_prime_ideals(K, 10**6)
        assert con.all_checks_pass() and level.norm > 0 and count > 0

    @pytest.mark.parametrize("n", (9, 15, 16, 20, 60))
    def test_cosine_scan_and_count_factor_nothing(self, n, monkeypatch):
        # the level scan and the count alone, at conductors with a prime
        # power or two primes, and with 2 | n
        K = make_cosine_field(n)
        want = (find_congruence_level(K, 3), count_prime_ideals(K, 10**6))

        monkeypatch.setattr(numfield, "factor_mod_p", refuse_factoring)
        monkeypatch.setattr(modp, "factor_mod_p", refuse_factoring)
        assert (find_congruence_level(K, 3), count_prime_ideals(K, 10**6)) \
            == want

    def test_scan_cap(self, field_sqrt2, cosine_fields):
        with pytest.raises(ResourceCapError):
            count_prime_ideals(field_sqrt2, (1 << 31) + 2)
        # the class sieve of a cosine field stops at 2^40, before any work
        for x in (numfield.ABELIAN_COUNT_CAP, 10**30):
            with pytest.raises(ResourceCapError):
                count_prime_ideals(cosine_fields[13], x)

    def test_generic_cap_before_any_work(self, monkeypatch):
        # x + 1 > 2^31, and a degree above the kernels' 63, are refused
        # before a prime is sieved, split or counted in a kernel
        K = make_field(EISENSTEIN_6)
        x63_plus_2 = make_field(IntPoly((2,) + (0,) * 62 + (1,)))
        assert count_prime_ideals(x63_plus_2, 1000) == 142
        x64_plus_2 = make_field(IntPoly((2,) + (0,) * 63 + (1,)))

        def no_work(*args):
            raise AssertionError("work started before the cap check")

        for name in ("poly_factor_count", "poly_root_count_over_primes"):
            monkeypatch.setattr(_kernels, name, no_work)
        monkeypatch.setattr(numfield, "dedekind_split", no_work)
        monkeypatch.setattr(numfield, "primes_upto", no_work)
        for x in (1 << 31, (1 << 31) + 2, 10**12):
            with pytest.raises(ResourceCapError):
                count_prime_ideals(K, x)
        with pytest.raises(ResourceCapError):
            count_prime_ideals(x64_plus_2, 1000)

    def test_small_x(self, field_sqrt2):
        assert count_prime_ideals(field_sqrt2, 1) == 0


class TestEmbeddings:
    def test_sign_examples(self, field_sqrt2, cosine_fields):
        th = field_sqrt2.generator()
        assert sign_at_embeddings(th) == (-1, 1)
        assert sign_at_embeddings(th * th - field_sqrt2.element([3])) == (-1, -1)
        K7 = cosine_fields[7]
        t = K7.generator()
        assert sign_at_embeddings(t + t + K7.element([1])) == (-1, 1, 1)

    def test_count_matches_embeddings(self, field_q, field_sqrt2, cosine_fields):
        for K in [field_q, field_sqrt2] + list(cosine_fields.values()):
            assert len(sign_at_embeddings(K.generator())) == len(K.real_embeddings)
            assert len(K.real_embeddings) == K.degree  # all test fields totally real

    def test_zero_rejected(self, field_sqrt2):
        with pytest.raises(PreconditionError):
            sign_at_embeddings(field_sqrt2.element([0]))

    def test_stable_under_refinement(self, cosine_fields):
        K = cosine_fields[11]
        f = K.defining_poly
        alpha = K.generator() - K.element([Fraction(1, 3)])
        before = sign_at_embeddings(alpha)
        # halve every cell 20 more times and recompute the signs
        refined = []
        for lo, hi in K.real_embeddings:
            s_lo = roots._sign_at(f, lo)
            for _ in range(20):
                lo, hi = roots._halve(f, lo, hi, s_lo)
            refined.append((lo, hi))
        after = tuple(sign_at_root(f, iv, alpha.rep[:2]) for iv in refined)
        assert before == after
        assert [before] == _oracle_signs(11, [alpha.rep[:2]])
        assert set(before) == {1, -1}

    @pytest.mark.parametrize("K", [
        *(make_cosine_field(p) for p in primes_in_range(3, 44)),
        make_field(IntPoly((-2, 0, 1))), make_field(IntPoly((-5, 0, 0, 1))),
        make_field(IntPoly((-1, -4, 0, 1))),
        make_field(IntPoly((1, 0, -5, 0, 1)))],
        ids=lambda K: (f"cos{K.conductor}" if K.conductor
                       else ",".join(map(str, K.defining_poly.coeffs))))
    def test_bisection_matches_every_cell(self, K, monkeypatch):
        # every (a + b theta)/den with |a| <= 6, |b| <= 3, den in {1, 2, 8}
        # against sign_at_root on each cell, in at most ceil(log2 r) + 1
        # sign_at_root calls for r real embeddings
        f, cells = K.defining_poly, K.real_embeddings
        bs = range(-3, 4) if K.degree > 1 else (0,)
        elements = [(a, b, den) for a in range(-6, 7) for b in bs
                    for den in (1, 2, 8) if a or b]
        want = [tuple(sign_at_root(f, iv, (Fraction(a, den), Fraction(b, den)))
                      for iv in cells) for a, b, den in elements]
        calls = []

        def counted(*args):
            calls.append(args)
            return sign_at_root(*args)

        monkeypatch.setattr(numfield, "sign_at_root", counted)
        bound = (len(cells) - 1).bit_length() + 1  # ceil(log2 r) + 1
        for (a, b, den), w in zip(elements, want):
            calls.clear()
            coeffs = [Fraction(a, den), Fraction(b, den)][:K.degree]
            assert sign_at_embeddings(K.element(coeffs)) == w, (a, b, den)
            assert 1 <= len(calls) <= bound, (a, b, den)

    def test_signs_match_oracle(self):
        # every construction prime up to 199, and P_CAP: the c of choose_T
        # and ten seeded random linear elements, against 2cos(2pi k/p) at
        # 50 digits
        rng = random.Random(4049)
        for p in primes_in_range(5, 200) + [503]:
            K = make_cosine_field(p)
            elements = [(choose_T(p), Fraction(1, 2))]
            elements += [(Fraction(rng.randint(-99, 99), rng.randint(1, 64)),
                          Fraction(rng.choice((-1, 1)) * rng.randint(1, 99),
                                   rng.randint(1, 64))) for _ in range(10)]
            got = [sign_at_embeddings(K.element(ab)) for ab in elements]
            assert got == _oracle_signs(p, elements), p


def _per_prime_count(K, x):
    """count_prime_ideals for the cosine field K by the earlier route: the
    primes dividing the conductor by dedekind_split, every other q <= sqrt(x)
    one by one with d/f prime ideals when q^f <= x, and d for each prime
    above sqrt(x) that is +-1 mod n."""
    n, d = K.conductor, K.degree
    B = isqrt(x)
    total = sum(q**f <= x for q in factorize(n)
                for _e, f in dedekind_split(K, q))
    for q in primes_upto(B):
        if n % q:
            f = numfield._inertia_degree(q % n, n)
            if f <= 2 or q**f <= x:
                total += d // f
    if x > B:
        total += d * _kernels.prime_count_in_classes(
            B + 1, x + 1, n, (1, n - 1))
    return total


def _oracle_signs(n, elements):
    """For each (a, b), the signs of a + b 2cos(2pi k/n), gcd(k, n) = 1,
    ascending in the root, from 50-digit values."""
    out = []
    with mp.workdps(50):
        rs = sorted(2 * mp.cos(2 * mp.pi * k / n)
                    for k in range(1, n // 2 + 1) if gcd(k, n) == 1)
        for a, b in elements:
            vals = [mp.mpf(a.numerator) / a.denominator
                    + mp.mpf(b.numerator) / b.denominator * r for r in rs]
            if min(abs(v) for v in vals) < mp.mpf(10) ** -40:
                raise AssertionError("oracle too close to zero")
            out.append(tuple(1 if v > 0 else -1 for v in vals))
    return out
