import random
from fractions import Fraction

import pytest

from torsionfree.errors import (NotSquarefreeError, PreconditionError,
                                ResourceCapError)
from torsionfree import numfield
from torsionfree.ntheory import primes_upto
from torsionfree.numfield import (count_prime_ideals, dedekind_split,
                                  element_charpoly, make_cosine_field,
                                  make_field, norm, sign_at_embeddings)
from torsionfree.polyalg import IntPoly, isolate_real_roots


class TestMakeField:
    def test_rejects_rational_root(self):
        with pytest.raises(PreconditionError):
            make_field(IntPoly((-6, 1, 1)))  # (x-2)(x+3)

    def test_rejects_repeated_factor(self):
        # (x^2-2)^2 has no rational root but is not squarefree
        with pytest.raises(NotSquarefreeError):
            make_field(IntPoly((4, 0, -4, 0, 1)))

    def test_rejects_non_monic(self):
        with pytest.raises(PreconditionError):
            make_field(IntPoly((-2, 0, 2)))

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
            assert K.monogenic_certified
            assert K.conductor == p

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

    def test_rationals(self, field_q):
        assert field_q.degree == 1
        assert field_q.field_disc == 1


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
        assert norm(th + field_sqrt2.element([1])) == -1
        assert norm(th) == -2

    def test_charpoly_of_rational(self, field_sqrt2):
        # rational r has charpoly (x - r)^d
        cp = element_charpoly(field_sqrt2.element([3]))
        assert cp == (Fraction(9), Fraction(-6), Fraction(1))

    def test_charpoly_cosine(self, cosine_fields):
        K = cosine_fields[7]
        th = K.generator()
        cp = element_charpoly(th * th)
        assert cp == (Fraction(-1), Fraction(6), Fraction(-5), Fraction(1))

    def test_norm_multiplicative(self, field_q, field_sqrt2, cosine_fields):
        rng = random.Random(2718)
        for K, pairs in ((field_q, 200), (field_sqrt2, 200),
                         (cosine_fields[5], 200), (cosine_fields[7], 100),
                         (cosine_fields[13], 25)):
            d = K.degree
            for _ in range(pairs):
                a = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(d)])
                b = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(d)])
                assert norm(a) * norm(b) == norm(a * b)

    def test_owner_mismatch_rejected(self, field_q, field_sqrt2):
        with pytest.raises(PreconditionError):
            field_q.generator() + field_sqrt2.generator()

    def test_reducible_algebra_detected(self):
        # (x^2-2)(x^2-3) passes the squarefree/rational-root screen, but the
        # element theta*(3 - theta^2) has minimal degree 3, which cannot
        # divide 4: the "field" is exposed as a product
        K = make_field(IntPoly((6, 0, -5, 0, 1)))
        th = K.generator()
        e = th * (K.element([3]) - th * th)
        with pytest.raises(PreconditionError):
            element_charpoly(e)


class TestDedekindSplit:
    def test_known_splits_sqrt2(self, field_sqrt2):
        assert dedekind_split(field_sqrt2, 7).factors == ((1, 1), (1, 1))
        assert dedekind_split(field_sqrt2, 5).factors == ((1, 2),)
        assert dedekind_split(field_sqrt2, 2).factors == ((2, 1),)
        assert not dedekind_split(field_sqrt2, 7).index_divisible

    def test_ramified_cosine(self, cosine_fields):
        for p, K in cosine_fields.items():
            sp = dedekind_split(K, p)
            assert sp.factors == (((p - 1) // 2, 1),)
            assert not sp.index_divisible

    def test_sum_ef_equals_degree(self, field_q, field_sqrt2, cosine_fields):
        fields = [field_q, field_sqrt2] + list(cosine_fields.values())
        for K in fields:
            for p in primes_upto(1000):
                sp = dedekind_split(K, p)
                if sp.index_divisible:
                    continue
                assert sum(e * f for e, f in sp.factors) == K.degree

    @pytest.mark.parametrize("n", (5, 7, 9, 11, 12, 13, 15, 16, 20, 21, 24))
    def test_abelian_law_matches_factorisation(self, n, monkeypatch):
        # the conductor hint switches dedekind_split to the abelian law for
        # q prime to n; without it every q is factored mod q
        K_ab = make_cosine_field(n)
        K_gen = make_field(K_ab.defining_poly)
        primes = primes_upto(2000)
        want = [dedekind_split(K_gen, q) for q in primes]
        factor = numfield.factor_mod_p

        def factor_only_ramified(f, q):
            assert n % q == 0, f"{q} was factored"
            return factor(f, q)

        monkeypatch.setattr(numfield, "factor_mod_p", factor_only_ramified)
        assert [dedekind_split(K_ab, q) for q in primes] == want

    def test_index_divisible_classical_cubic(self):
        # x^3 - x^2 - 2x - 8: 2 divides the index of Z[theta], and the
        # factorization mod 2 cannot be trusted
        K = make_field(IntPoly((-8, -2, -1, 1)))
        assert dedekind_split(K, 2).index_divisible
        assert not dedekind_split(K, 3).index_divisible
        assert dedekind_split(K, 3).factors == ((1, 3),)


class TestCounting:
    def test_rationals_match_sieve(self, field_q):
        for x in (2, 10, 100, 1000, 10**5):
            assert count_prime_ideals(field_q, x) == len(primes_upto(x))

    def test_frozen_counts(self, field_sqrt2, cosine_fields):
        assert count_prime_ideals(field_sqrt2, 10) == 4
        # 1 ramified + 2 inert of norm <= 100 + 11 split pairs
        assert count_prime_ideals(field_sqrt2, 100) == 25
        assert count_prime_ideals(cosine_fields[13], 100) == 19

    def test_monotone(self, field_sqrt2):
        prev = 0
        for x in (2, 10, 50, 100, 500, 1000, 5000):
            cur = count_prime_ideals(field_sqrt2, x)
            assert cur >= prev
            prev = cur

    def test_abelian_generic_agree(self, cosine_fields):
        # same minimal polynomial without the conductor hint runs the
        # factor-every-prime route; the counts must coincide
        for p in (5, 7, 11, 13):
            K_ab = cosine_fields[p]
            K_gen = make_field(K_ab.defining_poly)
            assert K_gen.conductor is None
            for x in (2, 10, 100, 1000, 5000):
                assert count_prime_ideals(K_ab, x) == count_prime_ideals(K_gen, x)

    def test_unreliable_reported_not_dropped(self):
        K = make_field(IntPoly((-8, -2, -1, 1)))
        seen: list[int] = []
        count_prime_ideals(K, 100, unreliable_out=seen)
        assert 2 in seen

    def test_scan_cap(self, field_sqrt2, cosine_fields):
        with pytest.raises(ResourceCapError):
            count_prime_ideals(field_sqrt2, (1 << 31) + 2)
        # the class sieve of a cosine field stops at 2^40, before any work
        for x in (numfield.ABELIAN_COUNT_CAP, 10**30):
            with pytest.raises(ResourceCapError):
                count_prime_ideals(cosine_fields[13], x)

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
        alpha = K.generator() * K.generator() - K.element([2])
        before = sign_at_embeddings(alpha)
        # isolate the roots again, far narrower, and recompute the signs
        from torsionfree.polyalg import sign_at_root
        from torsionfree.numfield import q_trim
        g = q_trim(alpha.rep)
        refined = isolate_real_roots(f, Fraction(1, 2**40))
        assert len(refined) == len(K.real_embeddings)
        for (a, b), (c, d) in zip(K.real_embeddings, refined):
            assert d - c < b - a
            assert max(a, c) <= min(b, d)  # the same root
        after = tuple(sign_at_root(f, iv, g) for iv in refined)
        assert before == after
        assert set(before) == {1, -1}
