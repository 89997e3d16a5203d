"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Each test re-derives its expected values from an independent route where
one exists (exhaustive splitting oracle, mpmath quadrature, sieve counts,
naive order enumeration) rather than trusting the code under test.
"""
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import DATA, run_cli
from torsionfree.construct import build_construction, choose_T, sweep
from torsionfree.ntheory import primes_upto
from torsionfree.numfield import make_cosine_field, make_field
from torsionfree.polyalg import IntPoly
from torsionfree.selberg import (find_congruence_level, grh_error,
                                 grh_threshold, kionke_criterion,
                                 logarithmic_integral,
                                 unconditional_index_bound)
from torsionfree.torsion import (finite_subgroup_bound, matrix_order_is,
                                 max_torsion_order, naive_max_order,
                                 witness_matrix)


def totient_min_violation(limit: int) -> int:
    """Smallest l in [1, limit] with 2*phi(l)^2 < l, or 0 if none."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # untouched so far: prime
            phi[p::p] -= phi[p::p] // p
    bad = np.nonzero(2 * phi * phi < np.arange(limit + 1, dtype=np.int64))[0]
    bad = bad[bad >= 1]
    return int(bad[0]) if len(bad) else 0


@contextmanager
def criterion(num, label, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget_s:
        print(f"ACCEPTANCE {num} {label}: FAIL (over budget: {elapsed:.1f}s)")
        raise AssertionError(f"budget {budget_s}s exceeded: {elapsed:.1f}s")
    print(f"ACCEPTANCE {num} {label}: PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------- splitting oracle

def _gf_divmod(num, den, q):
    num = list(num)
    dn = len(den) - 1
    inv = pow(den[-1], -1, q)
    quo = [0] * (len(num) - dn) if len(num) > dn else [0]
    for i in range(len(num) - 1, dn - 1, -1):
        c = (num[i] * inv) % q
        if c:
            quo[i - dn] = c
            for j, b in enumerate(den):
                num[i - dn + j] = (num[i - dn + j] - c * b) % q
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quo, num


def _oracle_factor(coeffs, q):
    """Complete factorization of a monic poly of degree <= 6 mod q by trial
    division over monic polynomials of ascending degree <= 3."""
    f = [c % q for c in coeffs]
    assert f[-1] == 1
    out = []
    deg = 1
    while len(f) - 1 > 0 and deg <= 3:
        found = False
        for idx in range(q ** deg):
            rest, g = idx, [0] * deg + [1]
            for i in range(deg):
                g[i] = rest % q
                rest //= q
            while len(f) - 1 >= deg:
                quo, rem = _gf_divmod(f, g, q)
                if rem == [0]:
                    out.append(tuple(g))
                    f = quo
                    found = True
                else:
                    break
            if len(f) - 1 < deg:
                break
        deg += 1
    if len(f) - 1 > 0:
        out.append(tuple(f))  # no factor of degree <= 3: remainder irreducible
    return out


def _oracle_min_norm(K):
    """Smallest prime-ideal norm admitting a torsion-free level, from scratch."""
    best = None
    for q in primes_upto(200):
        if best is not None and q > best:
            break
        facs = _oracle_factor(tuple(K.defining_poly), q)
        mult: dict[tuple, int] = {}
        for g in facs:
            mult[g] = mult.get(g, 0) + 1
        for g, e in mult.items():
            if e <= q - 2:
                cand = q ** (len(g) - 1)
                if best is None or cand < best:
                    best = cand
    return best


# ------------------------------------------------------------------ criteria

@pytest.fixture(scope="module")
def fields():
    out = {"q": make_field(IntPoly((-1, 1))),
           "sqrt2": make_field(IntPoly((-2, 0, 1)))}
    for p in (5, 7, 11, 13):
        out[p] = make_cosine_field(p)
    return out


DISCS = {"q": 1, "sqrt2": 8, 5: 5, 7: 49, 11: 11**4, 13: 13**5}


def test_criterion_1_congruence_levels(fields):
    with criterion(1, "congruence-level pipeline", 5):
        lvl = find_congruence_level(fields["q"], 3)
        assert lvl.rational_prime == 3
        assert lvl.index_bound == 27
        # level 2 impossible: e = 1 > q - 2 = 0
        assert not kionke_criterion(2, 1)
        for key, K in fields.items():
            got = find_congruence_level(K, 3).norm
            assert got == _oracle_min_norm(K), key


def test_criterion_2_grh_analytics(fields):
    with criterion(2, "GRH analytics", 30):
        mine = logarithmic_integral(10**6)
        with mp.workdps(30):
            quad = mp.quad(lambda t: 1 / mp.log(t), [2, 10**6])
            assert abs(mp.mpf(str(mine)) - quad) / quad < mp.mpf("1e-6")
        pi6 = len(primes_upto(10**6))
        assert pi6 == 78498
        assert abs(mine - pi6) / pi6 < 0.005
        rep = grh_threshold(1, 0)
        assert 10**6 < rep.threshold_x < 10**8
        x = rep.threshold_x
        assert logarithmic_integral(x) > grh_error(x, 1, 0) + 1
        assert logarithmic_integral(x - 1) <= grh_error(x - 1, 1, 0) + 1
        for key, K in fields.items():
            t = grh_threshold(K.degree, Decimal(DISCS[key]).ln()).threshold_x
            assert find_congruence_level(K, 3).norm <= t, key


def test_criterion_3_unconditional_grid():
    with criterion(3, "unconditional index bound", 5):
        for d in range(1, 11):
            for dim_h in range(1, 21):
                assert unconditional_index_bound(d, dim_h) == 3 ** (d * dim_h)


def test_criterion_4_torsion_table():
    with criterion(4, "torsion table", 60):
        want = (2, 6, 6, 12, 12, 30)
        for n, expect in zip(range(1, 7), want):
            prof = max_torsion_order(n, 1)
            assert prof.exact_max_order == expect
            assert naive_max_order(n, 1) == expect
            if n <= 4:
                M = witness_matrix(prof.witness_orders, n)
                assert matrix_order_is(M, expect)
        for n in range(1, 13):
            for d in range(1, 13):
                if n * d > 12:
                    continue
                prof = max_torsion_order(n, d)
                assert prof.exact_max_order <= 2 * (n * d) ** (2 * n)
        assert totient_min_violation(10**6) == 0


def test_criterion_5_constructions():
    with criterion(5, "lattice constructions", 60):
        discs = {5: 5, 7: 49, 11: 11**4, 13: 13**5}
        for p in (5, 7, 11, 13):
            con = build_construction(p)
            assert con.all_checks_pass(), p
            assert con.checks["order_verified"]
            assert con.checks["form_preserved"]
            assert con.disc_used == discs[p]
            assert con.disc_used == con.field.field_disc
            js = con.to_json()
            assert js["disc_matches_published_formula"] is False
            assert js["paper_discrepancies"]
            with mp.workdps(30):
                # log(disc) <= 1 * p * log p held by construction
                assert mp.log(con.disc_used) <= p * mp.log(p)


def test_criterion_6_lower_bound_ratio():
    with criterion(6, "lower-bound ratio sweep", 30):
        rows = sweep(97)
        assert [r[0] for r in rows] == [q for q in primes_upto(97) if q >= 5]
        for p, _disc, _lv, ratio in rows:
            assert ratio >= Decimal("0.2"), p
        # every row is a construction that exists: choose_T raises
        # ResourceCapError when its search finds no T
        for p, _disc, _lv, _ratio in rows:
            choose_T(p)


def test_criterion_7_cross_module():
    with criterion(7, "cross-module consistency", 30):
        for p in (5, 7, 11, 13):
            con = build_construction(p)
            v_hat = con.log_volume_estimate.exp()
            bound = finite_subgroup_bound(v_hat, 3, 60, 1.0, 1.0)
            assert p <= bound, p


def test_criterion_8_determinism():
    with criterion(8, "byte-identical reports", 60):
        cases = [
            ["level", "find", str(DATA / "sqrt2.poly"), "--dimg", "3"],
            ["grh", "threshold", "--d", "1", "--logd", "0"],
            ["torsion", "table", "--nmax", "6", "--d", "1"],
            ["construct", "--p", "7"],
            ["construct", "sweep", "--pmax", "13"],
            ["field", "analyze", str(DATA / "q.poly")],
            ["apply", "generators", "--v", "1000000", "--alpha", "0.5",
             "--c", "1.0"],
            ["bound", "grh", "--v", "100", "--dimh", "3"],
            ["bound", "unconditional", "--d", "1", "--dimh", "3"],
        ]
        for args in cases:
            c1, out1, _ = run_cli(*args)
            c2, out2, _ = run_cli(*args)
            assert c1 == c2 == 0
            assert out1 == out2, args
