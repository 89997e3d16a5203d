import random
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from torsionfree import construct, numfield
from torsionfree.construct import (CHECK_NAMES, P_CAP, archimedean_ok,
                                   build_construction, choose_T,
                                   form_preservation_check,
                                   interval_certificate, log_volume,
                                   lower_bound_ratio, mod2k_isotropy_probe,
                                   order_p_element, sweep,
                                   two_adic_condition, verify_order)
from torsionfree.errors import (PreconditionError, ResourceCapError,
                                TorsionfreeError)
from torsionfree.ntheory import primes_in_range
from torsionfree.numfield import (dedekind_split, make_cosine_field,
                                  make_field, sign_at_embeddings)
from torsionfree.polyalg import (IntPoly, compare_root, isolate_two_cos_roots,
                                 minpoly_two_cos_conductor)
from torsionfree.report import number_str
from torsionfree.torsion import mat_pow

PRIMES = (5, 7, 11, 13)
FROZEN_T = {5: Fraction(1, 8), 7: Fraction(-1, 2),
            11: Fraction(-21, 32), 13: Fraction(-7, 8)}
FROZEN_DISC = {5: 5, 7: 49, 11: 11**4, 13: 13**5}
# T for degrees 44 to 251 (p = 503 is P_CAP), where the first admissible
# denominator is 2^11 or 2^13
LARGE_T = {89: Fraction(-2037, 2048), 97: Fraction(-2039, 2048),
           151: Fraction(-2045, 2048), 193: Fraction(-8183, 8192),
           199: Fraction(-8183, 8192), 503: Fraction(-8191, 8192)}


@pytest.fixture(scope="module")
def constructions():
    return {p: build_construction(p) for p in PRIMES}


class TestChooseT:
    def test_frozen_values(self):
        for p in PRIMES:
            assert choose_T(p) == FROZEN_T[p]

    def test_interval_feasible_but_two_adic_fails(self, cosine_fields):
        # at p=5 the scan visits 1/4 before 1/8; 1/4 passes the interval
        # test yet fails the valuation test, so the chosen value is 1/8
        K = make_cosine_field(5)
        assert interval_certificate(5, Fraction(1, 4))
        c = K.element([Fraction(1, 4), Fraction(1, 2)])
        assert not two_adic_condition(c)
        assert choose_T(5) == Fraction(1, 8)

    @staticmethod
    def exhaustive_T(p, field, jmax=10):
        """The scan over every odd numerator, in choose_T's order."""
        half = Fraction(1, 2)
        for j in range(jmax + 1):
            den = 1 << j
            for a in range(1, den, 2):
                for T in (Fraction(a, den), Fraction(-a, den)):
                    if interval_certificate(p, T) and \
                            two_adic_condition(field.element([T, half])):
                        return T
        return None

    @pytest.mark.parametrize("p", primes_in_range(5, 84))
    def test_window_matches_exhaustive_scan(self, p):
        K = make_cosine_field(p)
        assert choose_T(p) == self.exhaustive_T(p, K)

    def test_p_above_cap_refused(self):
        p = 509  # the first prime above P_CAP
        assert P_CAP < p
        with pytest.raises(ResourceCapError):
            choose_T(p)
        with pytest.raises(ResourceCapError):
            build_construction(p)
        with pytest.raises(ResourceCapError):
            sweep(P_CAP + 1)
        # the prime check comes first
        with pytest.raises(PreconditionError):
            choose_T(511)

    @staticmethod
    def mpmath_windows(p):
        """last and the numerator windows from mpmath values of the interval
        at 30 + p.bit_length() digits: the oracle for construct._T_windows."""
        with mp.workdps(30 + p.bit_length()):
            lo, hi = -mp.cos(2 * mp.pi / p), -mp.cos(3 * mp.pi / p)
            last = 3
            while 2**last * (hi - lo) <= 2:
                last += 2
            return last, [range(int(mp.floor(lo * 2**j)) - 1,
                                int(mp.ceil(hi * 2**j)) + 2)
                          for j in range(last + 1)]

    def test_double_windows_match_mpmath(self):
        wrong = [p for p in primes_in_range(5, 1010)
                 if construct._T_windows(p) != self.mpmath_windows(p)]
        assert wrong == []

    def test_odd_composite_rejected(self):
        with pytest.raises(PreconditionError):
            choose_T(9)
        with pytest.raises(PreconditionError):
            choose_T(4)
        with pytest.raises(PreconditionError):
            choose_T(3)


class TestIntervalCertificate:
    def test_accepts_frozen(self):
        for p in PRIMES:
            assert interval_certificate(p, FROZEN_T[p])

    def test_rejects_outside(self):
        assert not interval_certificate(7, Fraction(1))
        assert not interval_certificate(5, Fraction(-1))

    @pytest.mark.parametrize("p", primes_in_range(5, 84))
    def test_matches_two_field_form(self, p):
        # reference: 2cos(3pi/p) as the second largest root of the
        # conductor-2p minimal polynomial, 2cos(2pi/p) as the largest root
        # of the conductor-p one
        f2p, iv2 = minpoly_two_cos_conductor(2 * p), isolate_two_cos_roots(2 * p)[-2]
        fp, ivp = minpoly_two_cos_conductor(p), isolate_two_cos_roots(p)[-1]

        def two_field(T):
            q = -2 * T
            return compare_root(f2p, iv2, q) == -1 and compare_root(fp, ivp, q) == 1

        Ts = [Fraction(a, den) for den in (1, 2, 4, 8, 64, 1024)
              for a in range(-den, den + 1)]
        # and the dyadics of denominator 2^40 on either side of each end
        with mp.workdps(40):
            for end in (-mp.cos(2 * mp.pi / p), -mp.cos(3 * mp.pi / p)):
                m = int(mp.floor(end * 2**40))
                Ts += [Fraction(m + d, 2**40) for d in (-1, 0, 1, 2)]
        got = [interval_certificate(p, T) for T in Ts]
        assert got == [two_field(T) for T in Ts]
        assert True in got and False in got


class TestTwoAdicCondition:
    def test_rational_examples(self, field_q):
        assert two_adic_condition(field_q.element([2]))
        assert not two_adic_condition(field_q.element([4]))
        assert two_adic_condition(field_q.element([8]))
        assert not two_adic_condition(field_q.element([3]))

    def test_half_integer_slope_rejected(self, field_sqrt2):
        # theta has charpoly x^2 - 2: slope 1/2, not an odd integer
        assert not two_adic_condition(field_sqrt2.generator())
        # x^2 + x + 4: the chord from (0, 2) to (2, 0) has the odd integer
        # slope 1, but (1, 0) lies below it, so the polygon has two slopes
        assert not two_adic_condition(make_field((4, 1, 1)).generator())

    @staticmethod
    def hull_reference(cp):
        """One lower-hull segment of odd integer slope, by monotone chain."""
        def v2(x):
            n, d, v = x.numerator, x.denominator, 0
            while n % 2 == 0:
                n, v = n // 2, v + 1
            while d % 2 == 0:
                d, v = d // 2, v - 1
            return v
        hull = []
        for pt in [(k, v2(a)) for k, a in enumerate(cp) if a]:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (x2 - x1) * (pt[1] - y1) > (pt[0] - x1) * (y2 - y1):
                    break
                hull.pop()
            hull.append(pt)
        if len(hull) != 2:
            return False
        (x0, y0), (x1, y1) = hull
        s = Fraction(y0 - y1, x1 - x0)
        return s.denominator == 1 and s.numerator % 2 == 1

    def test_chord_matches_lower_hull(self, monkeypatch, field_q):
        rng = random.Random(2023)
        polys = []
        for _ in range(20000):
            d = rng.randint(1, 7)
            s = rng.randint(-4, 4)
            cp = []
            for k in range(d):
                if k and rng.random() < 0.25:
                    cp.append(Fraction(0))
                    continue
                v = (d - k) * s + rng.choice((-2, -1, 0, 0, 0, 1, 2, 5))
                a = Fraction(rng.choice((1, -1, 3, -5, 7, 15)),
                             rng.choice((1, 3, 5, 9)))
                cp.append(a * Fraction(2) ** v)
            polys.append(tuple(cp) + (Fraction(1),))
        charpolys = iter(polys)
        monkeypatch.setattr(construct, "element_charpoly",
                            lambda _c: next(charpolys))
        one = field_q.element([1])
        got = [two_adic_condition(one) for _ in polys]
        assert got == [self.hull_reference(cp) for cp in polys]
        assert 1000 < sum(got) < len(got) - 1000

    def test_frozen_c_passes(self, cosine_fields):
        for p in PRIMES:
            K = cosine_fields[p]
            c = K.element([FROZEN_T[p], Fraction(1, 2)])
            assert two_adic_condition(c)


class TestArchimedean:
    def test_identity_positive_rest_negative(self, cosine_fields):
        for p in PRIMES:
            K = cosine_fields[p]
            c = K.element([FROZEN_T[p], Fraction(1, 2)])
            *others, ident = sign_at_embeddings(c)
            assert ident == 1
            assert all(s == -1 for s in others)
            assert archimedean_ok(c)

    def test_all_positive_fails(self, cosine_fields):
        K = cosine_fields[7]
        c = K.element([Fraction(1), Fraction(1, 2)])
        *others, ident = sign_at_embeddings(c)
        assert ident == 1
        assert all(s == 1 for s in others)
        assert not archimedean_ok(c)


class TestOrderElement:
    def test_has_order_p(self, cosine_fields):
        for p in PRIMES:
            g = order_p_element(p, cosine_fields[p])
            assert verify_order(g, p)

    def test_wrong_field_rejected(self, field_sqrt2):
        with pytest.raises(PreconditionError):
            order_p_element(5, field_sqrt2)

    def test_identity_fails_verify(self, cosine_fields):
        K = cosine_fields[5]
        one = K.element([1])
        zero = K.element([0])
        I3 = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        assert not verify_order(I3, 5)

    def test_matches_matrix_power(self):
        # the 3 x 3 power is the oracle: g^p = I and g != I. The generator
        # has det 1 and takes the two-product square; twice its block
        # (det 4) and [[theta, 1], [1, 0]] (det -1) take the general one
        for p in primes_in_range(5, 200):
            K = make_cosine_field(p)
            g = order_p_element(p, K)
            one, zero = K.element([1]), K.element([0])
            theta = K.generator()
            I3 = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
            doubled = tuple((2 * a, 2 * b, c) for a, b, c in g[:2]) + g[2:]
            flip = ((theta, one, zero), (one, zero, zero), g[2])
            for m in (g, doubled, flip):
                assert verify_order(m, p) == (mat_pow(m, p) == I3
                                              and m != I3)
            assert verify_order(g, p)

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_general_square_reaches_order_p(self, p):
        # a block of order p with det != 1 takes the general square to a
        # True answer: diag(zeta, 1) over Q(zeta_p) has det zeta (-1 at
        # p = 2); the swap [[0, 1], [1, 0]] has det -1 and order 2
        K = make_field(tuple([1] * p) if p > 2 else (1, 1))
        one, zero = K.element([1]), K.element([0])
        zeta = K.generator()
        I3 = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        diag = ((zeta, zero, zero), (zero, one, zero), (zero, zero, one))
        swap = ((zero, one, zero), (one, zero, zero), (zero, zero, one))
        for m in (diag, swap):
            assert verify_order(m, p) == (mat_pow(m, p) == I3 and m != I3)
        assert verify_order(diag, p)
        assert verify_order(swap, p) == (p == 2)

    def test_wrong_orders_fail(self):
        primes = primes_in_range(5, 212)    # 211 follows 199
        for p, q in zip(primes, primes[1:]):
            K = make_cosine_field(p)
            g = order_p_element(p, K)
            # diag(-M, 1) has order 2p
            neg = tuple((-row[0], -row[1], row[2]) for row in g[:2]) + g[2:]
            assert not verify_order(neg, p)
            assert not verify_order(g, q)
            # a shear: x^p = (1 - p) + p x mod (x - 1)^2, so only the
            # off-diagonal entry p of its p-th power tells it from I
            one, zero = K.element([1]), K.element([0])
            shear = ((one, one, zero), (zero, one, zero), g[2])
            assert not verify_order(shear, p)

    def test_not_block_diagonal_refused(self, cosine_fields):
        K = cosine_fields[5]
        g = order_p_element(5, K)
        one = K.element([1])
        for i, j in ((0, 2), (1, 2), (2, 0), (2, 1)):
            bad = [list(row) for row in g]
            bad[i][j] = one
            with pytest.raises(PreconditionError):
                verify_order(tuple(map(tuple, bad)), 5)
        corner = g[:2] + ((g[2][0], g[2][1], -one),)
        with pytest.raises(PreconditionError):
            verify_order(corner, 5)


class TestFormPreservation:
    def test_identity_preserves(self, cosine_fields):
        K = cosine_fields[5]
        one = K.element([1])
        zero = K.element([0])
        I3 = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        G = ((one, zero, zero), (zero, one, zero), (zero, zero, -one))
        assert form_preservation_check(I3, G)

    def test_scaling_fails(self, cosine_fields):
        K = cosine_fields[5]
        two = K.element([2])
        zero = K.element([0])
        M = ((two, zero, zero), (zero, two, zero), (zero, zero, two))
        one = K.element([1])
        G = ((one, zero, zero), (zero, one, zero), (zero, zero, -one))
        assert not form_preservation_check(M, G)


class TestDet:
    @staticmethod
    def cofactors(M):
        return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))

    def test_generator_takes_at_most_three_products(self, monkeypatch):
        K = make_cosine_field(31)
        g = order_p_element(31, K)
        mul, calls = numfield.FieldElement.__mul__, []

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(numfield.FieldElement, "__mul__", counted)
        assert construct._det(g) == K.element([1])
        assert 0 < len(calls) <= 3

    def test_matches_the_cofactor_expansion(self, cosine_fields):
        # dense matrices, matrices with zeros in every pattern the skips
        # read, and integer ones
        rng = random.Random(31)
        K = cosine_fields[13]
        d = K.degree

        def entry(zero_rate):
            if rng.random() < zero_rate:
                return K.element([0])
            return K.element([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                              for _ in range(d)])

        for zero_rate in (0, 0.3, 0.6, 1):
            for _ in range(40):
                M = tuple(tuple(entry(zero_rate) for _ in range(3))
                          for _ in range(3))
                assert construct._det(M) == self.cofactors(M)
        for _ in range(500):
            M = [[rng.choice((0, 0, 1, -2, 5)) for _ in range(3)]
                 for _ in range(3)]
            assert construct._det(M) == self.cofactors(M)


class TestBuildConstruction:
    def test_all_checks_pass(self, constructions):
        for p, con in constructions.items():
            assert set(con.checks) == set(CHECK_NAMES)
            assert con.all_checks_pass()

    def test_frozen_T_and_disc(self, constructions):
        for p, con in constructions.items():
            assert con.T == FROZEN_T[p]
            assert con.disc_used == FROZEN_DISC[p]

    def test_disc_matches_certified_field_disc(self, constructions):
        for p, con in constructions.items():
            assert con.disc_used == con.field.field_disc

    def test_gram_symmetric_nondegenerate(self, constructions):
        from torsionfree.construct import _det
        for con in constructions.values():
            G = con.gram
            for i in range(3):
                for j in range(3):
                    assert G[i][j] == G[j][i]
            assert _det(G)

    def test_generator_entries_dyadic(self, constructions):
        # matrix entries live in Z[theta, 1/2]
        for con in constructions.values():
            for row in con.generator:
                for entry in row:
                    for q in entry.rep:
                        den = q.denominator
                        assert den & (den - 1) == 0

    def test_serialization_round_trip_rechecks(self, constructions):
        from torsionfree.construct import _det
        for p, con in constructions.items():
            js = con.to_json()
            K2 = make_field(IntPoly(tuple(js["field"]["poly"])))
            def elem(strs):
                return K2.element([Fraction(s) for s in strs])
            g2 = tuple(tuple(elem(e) for e in row) for row in js["generator"])
            gram2 = tuple(tuple(elem(e) for e in row) for row in js["gram"])
            assert verify_order(g2, p)
            assert form_preservation_check(g2, gram2)

    def test_json_flags(self, constructions):
        for p, con in constructions.items():
            js = con.to_json()
            assert js["disc_matches_published_formula"] is False
            assert js["disc_matches_observed_exponent"] is True
            assert len(js["paper_discrepancies"]) == 3
            assert js["p"] == p
            assert set(js["checks"]) == set(CHECK_NAMES)
            assert all(js["checks"].values())

    def test_composite_rejected(self):
        with pytest.raises(PreconditionError):
            build_construction(9)


class TestEachCheckOnce:
    @pytest.mark.parametrize("p", (5, 7, 11, 43, 199))
    def test_construction_records_the_search_verdicts(self, p, monkeypatch):
        # build_construction takes interval_ok and two_adic_ok from the T
        # search: it evaluates them exactly as often as choose_T alone
        calls = []
        for name in ("interval_certificate", "two_adic_condition"):
            def spy(*args, _name=name, _check=getattr(construct, name)):
                calls.append(_name)
                return _check(*args)
            monkeypatch.setattr(construct, name, spy)
        T = choose_T(p)
        alone = sorted(calls)
        calls.clear()
        con = build_construction(p)
        assert sorted(calls) == alone
        assert con.T == T
        assert con.checks["interval_ok"] is con.checks["two_adic_ok"] is True


class TestLargePrimes:
    @pytest.mark.parametrize("p", sorted(LARGE_T))
    def test_frozen_T_and_all_checks(self, p):
        con = build_construction(p)
        assert con.T == LARGE_T[p]
        assert all(con.checks[name] is True for name in CHECK_NAMES)
        assert con.disc_used == p ** ((p - 3) // 2)

    def test_perturbed_generator_fails_order(self):
        p = 199
        K = make_cosine_field(p)
        g = order_p_element(p, K)
        assert verify_order(g, p)
        one = K.element([1])
        bad = (g[0], (g[1][0], g[1][1] + one, g[1][2]), g[2])
        assert not verify_order(bad, p)


class TestVolumeEstimate:
    def test_frozen_p5(self):
        log_v_hat = log_volume(5, 5, 1.0, 1.0)
        assert number_str(log_v_hat) == "1.6094379124341004"

    def test_log_v_hat_is_b_log_disc_plus_log_a(self):
        lv1 = log_volume(7, 49, 1.0, 1.0)
        lv2 = log_volume(7, 49, 2.0, 1.0)
        with mp.workdps(30):
            assert number_str(lv2 - lv1) == mp.nstr(mp.log(2), 17)

    def test_disc_growth_guard(self):
        # log 5^6 exceeds 5 log 5
        with pytest.raises(TorsionfreeError):
            log_volume(5, 5**6, 1.0, 1.0)

    @pytest.mark.parametrize("p", [5, 101, 503])
    def test_disc_growth_guard_boundary(self, p):
        """disc = p^p passes and p^p + 1 is refused. A 30-digit comparison
        of the logs accepted p^p + 1 at p = 101 and 503."""
        with mp.workdps(30):
            assert number_str(log_volume(p, p**p, 1.0, 1.0)) == \
                mp.nstr(p * mp.log(p), 17)
        with pytest.raises(TorsionfreeError):
            log_volume(p, p**p + 1, 1.0, 1.0)

    def test_estimate_computed_when_read(self, monkeypatch):
        con = build_construction(5, a_const=2.0)
        with mp.workdps(30):
            assert number_str(con.log_volume_estimate) == \
                mp.nstr(mp.log(2) + mp.log(5), 17)
        calls = []
        monkeypatch.setattr(construct, "log_volume",
                            lambda *args: calls.append(args) or 1)
        assert con.log_volume_estimate == 1
        assert calls == [(5, 5, 2.0, 1.0)]

    def test_domain(self):
        with pytest.raises(PreconditionError):
            log_volume(5, 5, -1.0, 1.0)

    def test_ratio_frozen(self):
        r = lower_bound_ratio(5, 100)
        assert number_str(r) == "0.23025850929940457"

    def test_ratio_domain(self):
        with pytest.raises(PreconditionError):
            lower_bound_ratio(5, 1)


class TestCosineFieldDisc:
    """The sweep certifies the discriminant without building the field;
    both routes give p^((p-3)/2)."""

    def test_frozen(self, constructions):
        for p in PRIMES:
            assert make_cosine_field(p).field_disc == FROZEN_DISC[p]
            assert constructions[p].disc_used == FROZEN_DISC[p]
        assert [(p, disc) for p, disc, _lv, _r in sweep(13)] == \
            sorted(FROZEN_DISC.items())

    def test_large_prime_fast(self):
        assert sweep(97)[-1][:2] == (97, 97**47)

    def test_agrees_with_certified(self):
        rows = sweep(97)
        assert [p for p, *_ in rows] == primes_in_range(5, 98)
        for p, disc, _lv, _r in rows:
            assert disc == make_cosine_field(p).field_disc == p ** ((p - 3) // 2)

    def test_cosine_path_computes_no_remainder_sequence(self, monkeypatch):
        """Cosine fields and the sweep take the discriminant from the
        conductor-discriminant formula and the cells from the closed form,
        so no pseudo-remainder, hence no subresultant chain, is computed."""
        def refuse(*args):
            raise AssertionError("remainder sequence on the cosine path")
        monkeypatch.setattr(IntPoly, "pseudo_rem", refuse)
        for p in (5, 13, 503):
            K = make_cosine_field.__wrapped__(p)
            assert K.disc_poly == K.field_disc == p ** ((p - 3) // 2)
        assert [disc for _p, disc, _lv, _r in sweep(13)] == \
            [FROZEN_DISC[p] for p in PRIMES]

    def test_cosine_path_tests_no_prime(self, monkeypatch):
        """Z[2cos(2pi/p)] is the maximal order, so neither the sweep nor a
        cosine field runs Dedekind's criterion or factors a discriminant
        for its index primes."""
        def refuse(*args):
            raise AssertionError("index test on the cosine path")
        monkeypatch.setattr(numfield, "_dedekind_index_test", refuse)
        monkeypatch.setattr(numfield, "factorize", refuse)
        assert [(p, disc) for p, disc, _lv, _r in sweep(13)] == \
            sorted(FROZEN_DISC.items())
        for p in (5, 13, 97):
            K = make_cosine_field.__wrapped__(p)
            assert K.field_disc == p ** ((p - 3) // 2)
            assert dedekind_split(K, p) == (((p - 1) // 2, 1),)


class TestFieldBuiltOnce:
    def test_construction_reads_the_shared_field(self):
        for p in PRIMES:
            K = make_cosine_field(p)
            assert make_cosine_field(p) is K
            assert build_construction(p).field is K


class TestIsotropyProbe:
    def test_rational_control_cases(self, field_q):
        # c = 3: x^2 + y^2 = 3 z^2 has no primitive 2-adic solution
        assert list(mod2k_isotropy_probe(field_q.element([3]), 3)) == []
        # c = 7 likewise
        assert list(mod2k_isotropy_probe(field_q.element([7]), 3)) == []
        # c = 1 is isotropic: (1, 0, 1) works
        sols = list(mod2k_isotropy_probe(field_q.element([1]), 3))
        assert ((1,), (0,), (1,)) in sols
        assert len(sols) == 64

    def test_construction_counts_grow(self, constructions):
        # the published inference would predict these to be empty;
        # the counts below document the observed behavior instead
        con = constructions[5]
        c5 = con.field.element([Fraction(1, 8), Fraction(1, 2)])
        assert len(list(mod2k_isotropy_probe(c5, 1))) == 15
        assert len(list(mod2k_isotropy_probe(c5, 2))) == 192

    def test_probe_matches_bruteforce(self, cosine_fields):
        # independent check of the meet-in-the-middle enumeration
        K = cosine_fields[5]
        c = K.element([Fraction(1, 8), Fraction(1, 2)])
        k = 2
        t = 2  # 4^2 clears the denominators of c
        cc = c * K.element([4**t])
        span = 1 << k
        brute = set()
        vecs = [K.element([a, b]) for a in range(span) for b in range(span)]
        for x in vecs:
            for y in vecs:
                lhs = x * x + y * y
                for z in vecs:
                    rhs = cc * z * z
                    diff = lhs - rhs
                    if all(Fraction(q).denominator == 1 and
                           int(q) % span == 0 for q in diff.rep):
                        xi = tuple(int(q) for q in x.rep)
                        yi = tuple(int(q) for q in y.rep)
                        zi = tuple(int(q) for q in z.rep)
                        if any(v & 1 for v in xi + yi + zi):
                            brute.add((xi, yi, zi))
        got = set(mod2k_isotropy_probe(c, k))
        assert got == brute
        assert len(got) == 192

    def test_caps(self, field_q, cosine_fields):
        with pytest.raises(ResourceCapError):
            mod2k_isotropy_probe(field_q.element([3]), 21)
        # 6 coordinates at 13 bits each exceeds the candidate budget
        K13 = make_cosine_field(13)
        c13 = K13.element([FROZEN_T[13], Fraction(1, 2)])
        with pytest.raises(ResourceCapError):
            mod2k_isotropy_probe(c13, 2)

    def test_candidate_guard_is_the_one_bound(self, cosine_fields,
                                              monkeypatch):
        # at p = 5 (d = 2) the 2^30 guard admits k <= 5 and refuses every
        # larger k before a coordinate is listed
        class Built(Exception):
            pass

        def refuse(*_args, **_kw):
            raise Built

        monkeypatch.setattr(construct, "product", refuse)
        c = cosine_fields[5].element([Fraction(1, 8), Fraction(1, 2)])
        for k in (6, 11, 21, 10**6):
            with pytest.raises(ResourceCapError, match=r"2\^30 search guard"):
                mod2k_isotropy_probe(c, k)
        with pytest.raises(Built):
            mod2k_isotropy_probe(c, 5)

    def test_non_dyadic_denominator_rejected(self, cosine_fields):
        K = cosine_fields[5]
        c = K.element([Fraction(1, 3), Fraction(1, 2)])
        with pytest.raises(PreconditionError):
            mod2k_isotropy_probe(c, 2)


class TestSweep:
    def test_rows_and_ratios(self):
        rows = sweep(97)
        assert len(rows) == 23
        assert [r[0] for r in rows][:4] == [5, 7, 11, 13]
        for p, disc, log_v_hat, ratio in rows:
            assert ratio >= Decimal("0.2")
            assert ratio > 1  # observed: comfortably above 1 with a=b=1

    def test_frozen_first_row(self):
        rows = sweep(13)
        assert len(rows) == 4
        p, disc, log_v_hat, ratio = rows[0]
        assert (p, disc) == (5, 5)
        assert number_str(ratio) == "1.4784198621473573"
