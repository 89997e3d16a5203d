import time

import mpmath as mp
import pytest

from torsionfree.errors import PreconditionError, ResourceCapError
from torsionfree.numfield import count_prime_ideals, make_cosine_field
from torsionfree.selberg import (find_congruence_level, generator_bound_pipeline,
                                 grh_error, grh_threshold, kionke_criterion,
                                 li_lower_surrogate, logarithmic_integral,
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

    def test_json_round_trip(self, field_sqrt2):
        js = find_congruence_level(field_sqrt2, 3).to_json()
        assert js["norm"] == "7"
        assert js["index_bound"] == "343"
        assert js["torsion_free_certificate"] is True
        assert js["skipped_index_divisible"] == []


class TestLogarithmicIntegral:
    def test_frozen_value(self):
        with mp.workdps(30):
            v = logarithmic_integral(10**6)
            assert mp.nstr(v, 17) == "78626.503995682064"

    def test_against_independent_quadrature(self):
        with mp.workdps(30):
            for x in (10, 1000, 78498, 10**6):
                mine = logarithmic_integral(x)
                oracle = mp.quad(lambda t: 1 / mp.log(t), [2, x])
                assert abs(mine - oracle) / oracle < mp.mpf("1e-6")

    def test_against_prime_count(self):
        # pi(1e6) = 78498; Li overshoots by ~0.16%
        with mp.workdps(30):
            v = logarithmic_integral(10**6)
            assert abs(v - 78498) / 78498 < 0.005

    def test_surrogate_below(self):
        with mp.workdps(30):
            for x in (100, 10**4, 10**6):
                assert li_lower_surrogate(x) < logarithmic_integral(x)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            logarithmic_integral(1)

    def test_cache_determinism(self):
        with mp.workdps(30):
            a = logarithmic_integral(10**6)
            logarithmic_integral(12345)
            b = logarithmic_integral(10**6)
            assert a == b


class TestGrhMachinery:
    def test_error_term(self):
        with mp.workdps(30):
            v = grh_error(4, 1, mp.mpf(0))
            # 13 * 2 * log 4
            assert mp.nstr(v, 12) == mp.nstr(26 * mp.log(4), 12)

    def test_threshold_frozen(self):
        rep = grh_threshold(1, mp.mpf(0))
        assert rep.threshold_x == 9906725
        assert 10**6 < rep.threshold_x < 10**8
        with mp.workdps(30):
            assert mp.nstr(rep.li_at_threshold, 17) == "659128.7055786339"
            assert mp.nstr(rep.err_at_threshold, 17) == "659127.69013013276"

    def test_threshold_crossing(self):
        rep = grh_threshold(1, mp.mpf(0))
        x = rep.threshold_x
        with mp.workdps(30):
            def margin(y):
                return logarithmic_integral(y) - grh_error(y, 1, mp.mpf(0)) - 1
            assert margin(x) > 0
            assert margin(x - 1) <= 0

    def test_norm_below_threshold_every_field(self, field_q, field_sqrt2,
                                              cosine_fields):
        for K, disc in all_fields(field_q, field_sqrt2, cosine_fields):
            with mp.workdps(30):
                rep = grh_threshold(K.degree, mp.log(disc))
            lvl = find_congruence_level(K, 3)
            assert lvl.norm <= rep.threshold_x

    def test_threshold_monotone_in_degree(self):
        with mp.workdps(30):
            t1 = grh_threshold(1, mp.mpf(0)).threshold_x
            t2 = grh_threshold(2, mp.mpf(0)).threshold_x
            t3 = grh_threshold(3, mp.mpf(0)).threshold_x
        assert t1 < t2 < t3

    def test_report_json(self):
        js = grh_threshold(1, mp.mpf(0)).to_json()
        assert js["threshold_x"] == "9906725"
        assert js["config"]["err_constant"] == 13
        assert js["d"] == 1

    def test_enough_ideals_at_threshold(self, field_q, field_sqrt2,
                                        cosine_fields):
        # the point of the threshold: well beyond d^2 prime ideals exist
        for K, disc in all_fields(field_q, field_sqrt2, cosine_fields):
            with mp.workdps(30):
                rep = grh_threshold(K.degree, mp.log(disc))
            n = count_prime_ideals(K, rep.threshold_x)
            assert n > K.degree**2

    def test_smallest_actual_prime_norm(self, field_q):
        rep = grh_threshold(1, mp.mpf(0), field=field_q)
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
        with mp.workdps(30):
            v = volume_index_bound_grh(100, 3, 0.1, 1.0, 1.0, 1.0)
            assert mp.nstr(v, 17) == "1188329.2418552457"

    def test_volume_bound_monotone(self):
        with mp.workdps(30):
            a = volume_index_bound_grh(100, 3, 0.1, 1.0, 1.0, 1.0)
            b = volume_index_bound_grh(200, 3, 0.1, 1.0, 1.0, 1.0)
            assert b > a

    def test_generator_bound_frozen(self):
        with mp.workdps(30):
            v = generator_bound_pipeline(10**6, 0.5, 1.0, f_form="power")
            assert mp.nstr(v, 17) == "0.0037195479807643145"

    def test_generator_bound_polylog(self):
        with mp.workdps(30):
            v = generator_bound_pipeline(10**6, 0.5, 1.0, f_form="polylog")
            assert v > 0

    def test_generator_bound_rejects(self):
        with pytest.raises(PreconditionError):
            generator_bound_pipeline(10**6, 0.5, 1.0, f_form="cubic")
        with pytest.raises(PreconditionError):
            generator_bound_pipeline(2, 0.5, 1.0)
