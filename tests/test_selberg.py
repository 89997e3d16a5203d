import json
import math
import random
import time
from decimal import Decimal, localcontext

import mpmath as mp
import pytest
from conftest import DATA

from torsionfree import numfield, selberg
from torsionfree.errors import PreconditionError, ResourceCapError
from torsionfree.ntheory import primes_upto
from torsionfree.numfield import (count_prime_ideals, dedekind_index_primes,
                                  dedekind_split, is_index_prime,
                                  make_cosine_field, make_field)
from torsionfree.polyalg import (IntPoly, minpoly_two_cos_conductor, modp,
                                 two_cos_discriminant)
from torsionfree.report import number_str
from torsionfree.selberg import (EULER_GAMMA, LI_2, find_congruence_level,
                                 generator_bound_pipeline, grh_error,
                                 grh_threshold, kionke_criterion,
                                 logarithmic_integral,
                                 unconditional_index_bound,
                                 volume_index_bound_grh)

FIELD_DISCS = {"q": 1, "sqrt2": 8, 5: 5, 7: 49, 11: 11**4, 13: 13**5}


def all_fields(field_q, field_sqrt2, cosine_fields):
    return [(field_q, 1), (field_sqrt2, 8)] + \
        [(K, FIELD_DISCS[p]) for p, K in cosine_fields.items()]


class TestKionke:
    def test_small_table(self):
        assert kionke_criterion(3, 1)
        assert not kionke_criterion(2, 1)
        assert kionke_criterion(5, 3)
        assert not kionke_criterion(5, 4)
        assert kionke_criterion(13, 6)

    def test_two_is_never_torsion_free(self):
        # e >= 1 always, and e <= q - 2 = 0 is impossible
        for e in range(1, 10):
            assert not kionke_criterion(2, e)


class TestFindCongruenceLevel:
    def test_rationals_skip_two(self, field_q):
        lvl = find_congruence_level(field_q, 3)
        assert lvl.rational_prime == 3
        assert lvl.norm == 3
        assert lvl.index_bound == 27
        assert lvl.torsion_free_certificate

    def test_sqrt2(self, field_sqrt2):
        lvl = find_congruence_level(field_sqrt2, 3)
        assert (lvl.rational_prime, lvl.inertia, lvl.ramification) == (7, 1, 1)
        assert lvl.norm == 7
        assert lvl.index_bound == 343

    def test_cosine_fields(self, cosine_fields):
        for p, K in cosine_fields.items():
            lvl = find_congruence_level(K, 3)
            assert lvl.rational_prime == p
            assert lvl.inertia == 1
            assert lvl.ramification == (p - 1) // 2
            assert lvl.norm == p
            assert lvl.index_bound == p**3

    def test_level_invariants(self, field_q, field_sqrt2, cosine_fields):
        for K, _ in all_fields(field_q, field_sqrt2, cosine_fields):
            for dim_G in (3, 8):
                lvl = find_congruence_level(K, dim_G)
                assert lvl.norm == lvl.rational_prime ** lvl.inertia
                assert lvl.index_bound == lvl.norm ** dim_G
                assert kionke_criterion(lvl.rational_prime, lvl.ramification)
                assert lvl.dim_G == dim_G

    def test_large_cosine_field_fast(self):
        # p = 193 is totally ramified of norm 193, and every unramified q < 193
        # has q^f > 193; the closed-form paths make this a sub-second job
        start = time.monotonic()
        lvl = find_congruence_level(make_cosine_field(193), 3)
        assert time.monotonic() - start < 2
        assert (lvl.norm, lvl.rational_prime, lvl.inertia,
                lvl.ramification) == (193, 193, 1, 96)

    def test_scan_cap(self, field_q):
        with pytest.raises(ResourceCapError):
            find_congruence_level(field_q, 3, scan_cap=2)
        assert find_congruence_level(field_q, 3, scan_cap=3).norm == 3
        # x^4 + 1: the answer 9 = 3^2 is found at q = 3, and returned
        # exactly when the cap admits its norm
        K = make_field(IntPoly((1, 0, 0, 0, 1)))
        assert find_congruence_level(K, 3, scan_cap=9).norm == 9
        with pytest.raises(ResourceCapError):
            find_congruence_level(K, 3, scan_cap=8)

    def test_dim_g_cap(self, field_q):
        lvl = find_congruence_level(field_q, selberg.EXPONENT_CAP)
        assert lvl.index_bound == 3 ** selberg.EXPONENT_CAP
        with pytest.raises(ResourceCapError):
            find_congruence_level(field_q, selberg.EXPONENT_CAP + 1)

    def test_json_round_trip(self, field_sqrt2):
        js = find_congruence_level(field_sqrt2, 3).to_json()
        assert js["norm"] == "7"
        assert js["index_bound"] == "343"
        assert js["torsion_free_certificate"] is True
        assert js["skipped_index_divisible"] == []


def level_tuple(lvl):
    return (lvl.norm, lvl.rational_prime, lvl.inertia, lvl.ramification,
            lvl.skipped_index_divisible)


def reference_level(K):
    """The level by splitting every prime with dedekind_split, index primes
    skipped, up to the best norm."""
    best, skipped, index = None, [], dedekind_index_primes(K)
    for q in primes_upto(10**4):
        if best is not None and q >= best[0]:
            break
        if q in index:
            skipped.append(q)
            continue
        for e, f in dedekind_split(K, q):
            cand = (q**f, q, f, e)
            if kionke_criterion(q, e) and (best is None or cand < best):
                best = cand
    return (*best, tuple(skipped))


class TestLevelScan:
    """The scan splits every prime it visits once, except 2 and the index
    primes, and asks dedekind_split only for the primes above it of norm
    below the best found so far, or at most scan_cap before there is one."""

    def test_generic_fields_frozen(self):
        # the generic-fields benchmark inputs of seeds 1-50, with the
        # answers of the scan that split every prime
        rows = json.loads((DATA / "generic_levels.json").read_text())
        assert len(rows) == 350
        for coeffs, norm, q, f, e, skipped in rows:
            lvl = find_congruence_level(make_field(coeffs), 3)
            assert level_tuple(lvl) == (norm, q, f, e, tuple(skipped)), coeffs

    @pytest.mark.parametrize("coeffs, want", [
        ((-63, 0, 1), (7, 7, 1, 2, (3,))),
        ((-8, -2, -1, 1), (5, 5, 1, 1, (2,))),
        # x^4 + 1 has no root mod 3, 5, 7 or 11: the least degree is 2 at
        # every small q, and 3^2 = 9 wins
        ((1, 0, 0, 0, 1), (9, 3, 2, 1, ())),
    ])
    def test_examples(self, coeffs, want):
        K = make_field(IntPoly(coeffs))
        assert level_tuple(find_congruence_level(K, 3)) == want
        assert reference_level(K) == want

    def test_random_fields_match_reference(self):
        rng = random.Random(21)
        for _ in range(40):
            d = rng.randint(1, 7)
            coeffs = tuple(rng.randint(-40, 40) for _ in range(d)) + (1,)
            try:
                K = make_field(coeffs)
            except PreconditionError:  # a rational root or a repeated factor
                continue
            assert level_tuple(find_congruence_level(K, 3)) == \
                reference_level(K), coeffs

    def test_cosine_fields_without_conductor(self):
        # the distinct-degree walk without the conductor agrees with the
        # abelian law for every conductor up to 61 of degree at most 15
        fields = 0
        for n in range(3, 62):
            f = minpoly_two_cos_conductor(n)
            if f.degree > 15:
                continue
            fields += 1
            generic = make_field(f)
            assert generic.conductor is None
            assert level_tuple(find_congruence_level(generic, 3)) == \
                level_tuple(find_congruence_level(make_cosine_field(n), 3)), n
        assert fields == 48

    @pytest.mark.parametrize("coeffs", [
        (-63, 0, 1), (-8, -2, -1, 1), (1, 0, 0, 0, 1),
        (2, -4, 0, -2, -4, 4, 4, 2, 1),
        (2, 4, 2, -2, 4, -2, 2, -4, -4, -2, 2, 0, 1)])
    def test_splits_each_visited_prime_once(self, coeffs, monkeypatch):
        # the scan visits the primes up to the answer's norm and splits
        # each once, never 2 or an index prime, always with a finite bound
        # of at most scan_cap + 1; every factorisation is one of those
        # splits
        K = make_field(IntPoly(coeffs))
        scan_cap = 10**4
        want = find_congruence_level(K, 3, scan_cap)
        factor, split = numfield.factor_mod_p, numfield.dedekind_split
        factored, splits = [], []

        def counted_factor(f, q, top=None):
            factored.append(q)
            return factor(f, q, top)

        def counted_split(K, q, below=None):
            splits.append((q, below))
            return split(K, q, below)

        monkeypatch.setattr(numfield, "factor_mod_p", counted_factor)
        monkeypatch.setattr(numfield, "dedekind_split", counted_split)
        monkeypatch.setattr(selberg, "dedekind_split", counted_split)
        assert find_congruence_level(K, 3, scan_cap) == want
        visited = [q for q, _below in splits]
        assert visited == [q for q in primes_upto(want.norm)
                           if q != 2 and not is_index_prime(K, q)]
        assert all(below is not None and below <= scan_cap + 1
                   for _q, below in splits)
        assert factored == visited

    def test_degree_90_scan_stops_at_the_cap(self, monkeypatch):
        # h^2 + 3r: 3 divides disc_poly, and f mod 3 has squarefree parts of
        # degree 45 and more; the first factorisation walks no degree q^j
        # above scan_cap, where the full one walks them all
        rng = random.Random(90)
        h = IntPoly(tuple(rng.randint(-9, 9) for _ in range(45)) + (1,))
        K = make_field(h * h + IntPoly(tuple(3 * rng.randint(-3, 3)
                                             for _ in range(90))))
        assert K.degree == 90 and K.disc_poly % 3 == 0
        factor, calls = numfield.factor_mod_p, []

        def counted_factor(f, q, top=None):
            calls.append((q, top))
            return factor(f, q, top)

        monkeypatch.setattr(numfield, "factor_mod_p", counted_factor)
        scan_cap = 10**6
        lvl = find_congruence_level(K, 3, scan_cap)
        assert level_tuple(lvl) == (5, 5, 1, 1, ())
        log3 = 0  # the largest j with 3^j <= scan_cap
        while 3 ** (log3 + 1) <= scan_cap:
            log3 += 1
        q, top = calls[0]
        assert q == 3 and top is not None and top <= log3 == 12

    def test_degree_90_first_split_stops_at_degree_1(self, monkeypatch):
        # f mod 3 has the simple root 0, and no later prime beats its norm
        # 3: the one split walks degree 1 and builds no Frobenius matrix,
        # which a degree-2 step would need
        rng = random.Random(90)
        K = make_field(tuple(rng.randint(-9, 9) for _ in range(90)) + (1,))
        assert K.degree == 90 and K.disc_poly % 3
        walk, walked = modp._distinct_degree, []

        def spy(f, q, top=None):
            for g, d in walk(f, q, top):
                walked.append((q, d))
                yield g, d

        def refuse(*_args):
            raise AssertionError("the walk reached degree 2")

        monkeypatch.setattr(modp, "_distinct_degree", spy)
        monkeypatch.setattr(modp, "_frobenius_rows", refuse)
        lvl = find_congruence_level(K, 3, 10**6)
        assert level_tuple(lvl) == (3, 3, 1, 1, ())
        assert walked == [(3, 1)]

    def test_dedekind_split_below(self):
        # against the full splitting cut at q^f < below, less the primes
        # that another prime of no larger e and f precedes, for every
        # bound up to q^(d+1): the cut moves only at below = q^j + 1, so 0
        # and q^j, q^j + 1 for j <= d + 1 reach every answer
        rng = random.Random(5)
        for _ in range(12):
            d = rng.randint(2, 8)
            coeffs = tuple(rng.randint(-20, 20) for _ in range(d)) + (1,)
            try:
                K = make_field(coeffs)
            except PreconditionError:
                continue
            for q in primes_upto(60):
                if is_index_prime(K, q):
                    with pytest.raises(PreconditionError):
                        dedekind_split(K, q, q)
                    continue
                full = dedekind_split(K, q)
                for below in {0, 1} | {q**j + k for j in range(1, d + 2)
                                       for k in (0, 1)}:
                    assert dedekind_split(K, q, below) == tuple(
                        (e, f) for e, f in full if q**f < below
                        and not any((e2, f2) != (e, f) and e2 <= e
                                    and f2 <= f for e2, f2 in full))
        K = make_cosine_field(13)  # inertia degree 6 at 2 and 3 at 3
        assert dedekind_split(K, 2) == ((1, 6),)
        assert dedekind_split(K, 2, 2**6) == ()
        assert dedekind_split(K, 2, 2**6 + 1) == ((1, 6),)
        assert dedekind_split(K, 3, 3**3 + 1) == ((1, 3),) * 2
        assert dedekind_split(K, 3, 3**3) == ()
        with pytest.raises(PreconditionError):
            dedekind_split(K, 9, 100)


class TestLogarithmicIntegral:
    def test_frozen_value(self):
        v = logarithmic_integral(10**6)
        assert number_str(v) == "78626.503995682064"

    def test_against_independent_quadrature(self):
        with mp.workdps(30):
            for x in (10, 1000, 78498, 10**6):
                mine = mp.mpf(str(logarithmic_integral(x)))
                oracle = mp.quad(lambda t: 1 / mp.log(t), [2, x])
                assert abs(mine - oracle) / oracle < mp.mpf("1e-6")

    def test_against_mpmath_li(self):
        # ints and doubles from 2.5 to 2^64, log-uniform, and both ends: the
        # printed digits agree, and the 30 kept are off by under 1e-28
        rng = random.Random(2024)
        xs = [2.5, 3, 2**64] + [
            2.5 * (2**64 / 2.5) ** rng.random() for _ in range(1500)] + [
            int(2 ** rng.uniform(2, 64)) for _ in range(1500)]
        bad = []
        with mp.workdps(40):
            for x in xs:
                mine, want = logarithmic_integral(x), mp.li(x, offset=True)
                if number_str(mine) != mp.nstr(want, 17) or \
                        abs(mp.mpf(str(mine)) / want - 1) > 1e-28:
                    bad.append(x)
        assert bad == []
        assert logarithmic_integral(2) == 0

    def test_constants_to_45_digits(self):
        with mp.workdps(60):
            tol = mp.mpf(10) ** -45
            assert abs(mp.mpf(str(EULER_GAMMA)) - mp.euler) < tol
            assert abs(mp.mpf(str(LI_2)) - mp.li(2)) < tol

    def test_against_prime_count(self):
        # pi(1e6) = 78498; Li overshoots by ~0.16%
        v = logarithmic_integral(10**6)
        assert abs(v - 78498) / 78498 < 0.005

    def test_surrogate_below(self):
        # the elementary surrogate x / log x stays below Li(x)
        for x in (100, 10**4, 10**6):
            assert x / math.log(x) < logarithmic_integral(x)

    def test_domain(self):
        for x in (1, float("inf"), float("nan")):
            with pytest.raises(PreconditionError):
                logarithmic_integral(x)

    def test_cache_determinism(self):
        a = logarithmic_integral(10**6)
        logarithmic_integral(12345)
        b = logarithmic_integral(10**6)
        assert a == b


class TestGrhMachinery:
    def test_error_term(self):
        v = grh_error(4, 1, 0)
        # 13 * 2 * log 4
        with mp.workdps(30):
            assert number_str(v) == mp.nstr(26 * mp.log(4), 17)

    def test_threshold_frozen(self):
        rep = grh_threshold(1, 0)
        assert rep.threshold_x == 9906725
        assert 10**6 < rep.threshold_x < 10**8
        assert number_str(rep.li_at_threshold) == "659128.7055786339"
        assert number_str(rep.err_at_threshold) == "659127.69013013276"

    # grh_threshold((p - 1) / 2, log two_cos_discriminant(p)) for the
    # cosine field of conductor p
    THRESHOLDS = {13: 1290160370, 23: 6073790416, 41: 27080980682,
                  101: 254699818433, 199: 1312951800299,
                  401: 6948265435520, 503: 11852692657767}

    @pytest.mark.parametrize("p", sorted(THRESHOLDS))
    def test_threshold_frozen_cosine_fields(self, p):
        log_D = Decimal(two_cos_discriminant(p)).ln()
        assert grh_threshold((p - 1) // 2, log_D).threshold_x == \
            self.THRESHOLDS[p]

    def test_threshold_crossing(self):
        rep = grh_threshold(1, 0)
        x = rep.threshold_x

        def margin(y):
            return logarithmic_integral(y) - grh_error(y, 1, 0) - 1
        assert margin(x) > 0
        assert margin(x - 1) <= 0

    @staticmethod
    def count_calls(monkeypatch):
        """The x of every call grh_threshold makes to Li and to Err."""
        li_xs, err_xs = [], []
        li, err = selberg.logarithmic_integral, selberg.grh_error

        def counted_li(x):
            li_xs.append(x)
            return li(x)

        def counted_err(x, d, log_D):
            err_xs.append(x)
            return err(x, d, log_D)
        monkeypatch.setattr(selberg, "logarithmic_integral", counted_li)
        monkeypatch.setattr(selberg, "grh_error", counted_err)
        return li_xs, err_xs

    def test_threshold_evaluates_each_x_once(self, monkeypatch):
        li_xs, err_xs = self.count_calls(monkeypatch)
        rep = grh_threshold(1, 0)
        # doubling 4 .. 2^24 (23 points), bisection of (2^23, 2^24]
        # (23 steps) and the half check; the report takes Li and Err at
        # the threshold from the bisection step that found it
        assert li_xs == err_xs
        assert len(li_xs) == len(set(li_xs)) == 47
        assert li_xs.count(9906725) == 1
        assert number_str(rep.li_at_threshold) == "659128.7055786339"
        assert number_str(rep.err_at_threshold) == "659127.69013013276"

    def test_threshold_on_the_doubling_grid(self, monkeypatch):
        # log D midway between the crossings at 2^24 - 1 and 2^24, so the
        # bisection never moves hi and the report keeps the doubling step's
        # Li and Err
        def crossing_log_D(x):
            with localcontext() as ctx:
                ctx.prec = 40
                xd = Decimal(x)
                return (logarithmic_integral(x) - 1) / (13 * xd.sqrt()) \
                    - xd.ln()
        x = 2**24
        log_D = (crossing_log_D(x - 1) + crossing_log_D(x)) / 2
        assert logarithmic_integral(x) > grh_error(x, 1, log_D) + 1
        assert logarithmic_integral(x - 1) <= grh_error(x - 1, 1, log_D) + 1
        li_xs, err_xs = self.count_calls(monkeypatch)
        rep = grh_threshold(1, log_D)
        assert rep.threshold_x == x
        assert li_xs == err_xs and li_xs.count(x) == 1
        assert rep.li_at_threshold == logarithmic_integral(x)
        assert rep.err_at_threshold == grh_error(x, 1, log_D)

    def test_norm_below_threshold_every_field(self, field_q, field_sqrt2,
                                              cosine_fields):
        for K, disc in all_fields(field_q, field_sqrt2, cosine_fields):
            rep = grh_threshold(K.degree, Decimal(disc).ln())
            lvl = find_congruence_level(K, 3)
            assert lvl.norm <= rep.threshold_x

    def test_threshold_monotone_in_degree(self):
        t1 = grh_threshold(1, 0).threshold_x
        t2 = grh_threshold(2, 0).threshold_x
        t3 = grh_threshold(3, 0).threshold_x
        assert t1 < t2 < t3

    def test_report_json(self):
        js = grh_threshold(1, 0).to_json()
        assert js["threshold_x"] == "9906725"
        assert js["config"]["err_constant"] == 13
        assert js["d"] == 1

    def test_enough_ideals_at_threshold(self, field_q, field_sqrt2,
                                        cosine_fields):
        # the point of the threshold: well beyond d^2 prime ideals exist
        for K, disc in all_fields(field_q, field_sqrt2, cosine_fields):
            rep = grh_threshold(K.degree, Decimal(disc).ln())
            n = count_prime_ideals(K, rep.threshold_x)
            assert n > K.degree**2

    def test_smallest_actual_prime_norm(self, field_q):
        rep = grh_threshold(1, 0, field=field_q)
        assert rep.smallest_actual_prime_norm == 3


class TestIndexBounds:
    def test_unconditional_grid(self):
        for d in range(1, 11):
            for dim_h in range(1, 21):
                assert unconditional_index_bound(d, dim_h) == 3 ** (d * dim_h)

    def test_unconditional_dominates_found_level(self, field_q):
        lvl = find_congruence_level(field_q, 3)
        assert unconditional_index_bound(field_q.degree, 3) >= lvl.index_bound

    def test_domain(self):
        with pytest.raises(PreconditionError):
            unconditional_index_bound(0, 3)

    def test_volume_bound_formula(self):
        v = volume_index_bound_grh(100, 3, 0.1, 1.0, 1.0, 1.0)
        assert number_str(v) == "1188329.2418552457"

    def test_volume_bound_rejects(self):
        with pytest.raises(PreconditionError):
            volume_index_bound_grh(100, 3, 0.1, -5.0, 1.0, 1.0)
        with pytest.raises(PreconditionError):
            volume_index_bound_grh(float("inf"), 3, 0.1, 1.0, 1.0, 1.0)

    def test_volume_bound_monotone(self):
        a = volume_index_bound_grh(100, 3, 0.1, 1.0, 1.0, 1.0)
        b = volume_index_bound_grh(200, 3, 0.1, 1.0, 1.0, 1.0)
        assert b > a

    def test_generator_bound_frozen(self):
        v = generator_bound_pipeline(10**6, 0.5, 1.0, f_form="power")
        assert number_str(v) == "0.0037195479807643145"

    def test_generator_bound_polylog(self):
        v = generator_bound_pipeline(10**6, 0.5, 1.0, f_form="polylog")
        assert v > 0

    def test_generator_bound_rejects(self):
        with pytest.raises(PreconditionError):
            generator_bound_pipeline(10**6, 0.5, 1.0, f_form="cubic")
        with pytest.raises(PreconditionError):
            generator_bound_pipeline(2, 0.5, 1.0)
