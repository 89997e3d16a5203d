import random
from fractions import Fraction
from math import lcm

import mpmath as mp
import pytest

from torsionfree.errors import PreconditionError, ResourceCapError
from torsionfree.numfield import FieldElement
from torsionfree.report import number_str
from torsionfree.torsion import (ND_CAP, companion_matrix, finite_subgroup_bound,
                                 mat_mul, mat_pow, matrix_order_is,
                                 max_torsion_order,
                                 naive_max_order, paper_order_bounds, totient,
                                 witness_matrix)


class TestTotient:
    def test_small_values(self):
        assert totient(1) == 1
        assert totient(2) == 1
        assert totient(12) == 4
        assert totient(13) == 12
        assert totient(2**10) == 2**9


# (order, witness) at each budget n*d up to ND_CAP, frozen
FROZEN_BY_BUDGET = {
    1: (2, (2,)),
    2: (6, (6,)),
    3: (6, (6,)),
    4: (12, (3, 4)),
    5: (12, (3, 4)),
    6: (30, (5, 6)),
    7: (30, (5, 6)),
    8: (60, (3, 4, 5)),
    9: (60, (3, 4, 5)),
    10: (120, (3, 5, 8)),
    11: (120, (3, 5, 8)),
    12: (210, (5, 6, 7)),
    13: (210, (5, 6, 7)),
    14: (420, (3, 4, 5, 7)),
    15: (420, (3, 4, 5, 7)),
    16: (840, (3, 5, 7, 8)),
    17: (840, (3, 5, 7, 8)),
    18: (1260, (4, 5, 7, 9)),
    19: (1260, (4, 5, 7, 9)),
    20: (2520, (5, 7, 8, 9)),
    21: (2520, (5, 7, 8, 9)),
    22: (2520, (5, 7, 8, 9)),
    23: (2520, (5, 7, 8, 9)),
    24: (5040, (5, 7, 9, 16)),
    25: (5040, (5, 7, 9, 16)),
    26: (9240, (3, 5, 7, 8, 11)),
    27: (9240, (3, 5, 7, 8, 11)),
    28: (13860, (4, 5, 7, 9, 11)),
    29: (13860, (4, 5, 7, 9, 11)),
    30: (27720, (5, 7, 8, 9, 11)),
    31: (27720, (5, 7, 8, 9, 11)),
    32: (32760, (5, 7, 8, 9, 13)),
    33: (32760, (5, 7, 8, 9, 13)),
    34: (55440, (5, 7, 9, 11, 16)),
    35: (55440, (5, 7, 9, 11, 16)),
    36: (65520, (5, 7, 9, 13, 16)),
    37: (65520, (5, 7, 9, 13, 16)),
    38: (120120, (3, 5, 7, 8, 11, 13)),
    39: (120120, (3, 5, 7, 8, 11, 13)),
    40: (180180, (4, 5, 7, 9, 11, 13)),
    41: (180180, (4, 5, 7, 9, 11, 13)),
    42: (360360, (5, 7, 8, 9, 11, 13)),
    43: (360360, (5, 7, 8, 9, 11, 13)),
    44: (360360, (5, 7, 8, 9, 11, 13)),
    45: (360360, (5, 7, 8, 9, 11, 13)),
    46: (720720, (5, 7, 9, 11, 13, 16)),
    47: (720720, (5, 7, 9, 11, 13, 16)),
    48: (720720, (5, 7, 9, 11, 13, 16)),
    49: (720720, (5, 7, 9, 11, 13, 16)),
    50: (942480, (5, 7, 9, 11, 16, 17)),
    51: (942480, (5, 7, 9, 11, 16, 17)),
    52: (1113840, (5, 7, 9, 13, 16, 17)),
    53: (1113840, (5, 7, 9, 13, 16, 17)),
    54: (2042040, (3, 5, 7, 8, 11, 13, 17)),
    55: (2042040, (3, 5, 7, 8, 11, 13, 17)),
    56: (3063060, (4, 5, 7, 9, 11, 13, 17)),
    57: (3063060, (4, 5, 7, 9, 11, 13, 17)),
    58: (6126120, (5, 7, 8, 9, 11, 13, 17)),
    59: (6126120, (5, 7, 8, 9, 11, 13, 17)),
    60: (6846840, (5, 7, 8, 9, 11, 13, 19)),
    61: (6846840, (5, 7, 8, 9, 11, 13, 19)),
    62: (12252240, (5, 7, 9, 11, 13, 16, 17)),
    63: (12252240, (5, 7, 9, 11, 13, 16, 17)),
    64: (13693680, (5, 7, 9, 11, 13, 16, 19)),
}


class TestMaxTorsionOrder:
    def test_frozen_table_every_budget(self):
        for n in range(1, ND_CAP + 1):
            for d in range(1, ND_CAP // n + 1):
                prof = max_torsion_order(n, d)
                assert (prof.exact_max_order, prof.witness_orders) == \
                    FROZEN_BY_BUDGET[n * d]

    def test_frozen_orders_dim1(self):
        want = {1: 2, 2: 6, 3: 6, 4: 12, 5: 12, 6: 30}
        for n, order in want.items():
            prof = max_torsion_order(n, 1)
            assert prof.exact_max_order == order

    def test_frozen_witnesses_dim1(self):
        want = {1: (2,), 2: (6,), 3: (6,), 4: (3, 4), 5: (3, 4), 6: (5, 6)}
        for n, orders in want.items():
            assert max_torsion_order(n, 1).witness_orders == orders

    def test_frozen_orders_dim2(self):
        want = {1: 6, 2: 12, 3: 30, 4: 60}
        for n, order in want.items():
            assert max_torsion_order(n, 2).exact_max_order == order

    def test_against_naive_oracle(self):
        for n in range(1, 13):
            for d in range(1, 13):
                if n * d > 12:
                    continue
                assert max_torsion_order(n, d).exact_max_order == \
                    naive_max_order(n, d)

    def test_naive_oracle_every_budget_to_32(self):
        for budget in range(1, 33):
            assert max_torsion_order(budget, 1).exact_max_order == \
                naive_max_order(budget, 1)

    def test_large_budget(self):
        prof = max_torsion_order(64, 1)
        assert prof.exact_max_order == 13693680
        assert prof.exact_max_order == lcm(5, 7, 9, 11, 13, 16, 19)

    def test_monotone_in_n(self):
        prev = 0
        for n in range(1, 13):
            cur = max_torsion_order(n, 1).exact_max_order
            assert cur >= prev
            prev = cur

    def test_monotone_in_d(self):
        for n in (1, 2, 3):
            prev = 0
            for d in range(1, 5):
                cur = max_torsion_order(n, d).exact_max_order
                assert cur >= prev
                prev = cur

    def test_witness_invariants(self):
        for n in range(1, 9):
            prof = max_torsion_order(n, 1)
            ws = prof.witness_orders
            assert lcm(*ws) == prof.exact_max_order
            assert sum(totient(w) for w in ws) <= n
            assert len(set(ws)) == len(ws)
            assert all(w >= 2 for w in ws)

    def test_budget_cap(self):
        with pytest.raises(ResourceCapError):
            max_torsion_order(65, 1)
        with pytest.raises(ResourceCapError):
            max_torsion_order(13, 5)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            max_torsion_order(0, 1)
        with pytest.raises(PreconditionError):
            max_torsion_order(1, 0)


class TestStatedBounds:
    def test_formulas(self):
        for n in (1, 2, 3):
            for d in (1, 2):
                prof = max_torsion_order(n, d)
                assert prof.paper_bound_stated == 2 * (n * d) ** (2 * n)
                assert prof.paper_bound_proof == 4 * (n * d) ** (2 * n)

    def test_stated_bound_holds_on_grid(self):
        # exact values stay below the stated bound everywhere we can check
        for n in range(1, 13):
            for d in range(1, 13):
                if n * d > 12:
                    continue
                prof = max_torsion_order(n, d)
                assert prof.exact_max_order <= prof.paper_bound_stated

    def test_frozen_stated_values(self):
        want = {1: 2, 2: 32, 3: 1458, 4: 131072, 5: 19531250, 6: 4353564672}
        for n, v in want.items():
            assert max_torsion_order(n, 1).paper_bound_stated == v

    def test_json(self):
        js = max_torsion_order(4, 1).to_json()
        assert js["exact_max_order"] == "12"
        assert js["witness_orders"] == [3, 4]
        assert js["paper_bound_stated"] == "131072"
        assert js["paper_bound_proof"] == "262144"


class TestMatrixWitnesses:
    def test_companion(self):
        from torsionfree.polyalg import IntPoly
        M = companion_matrix(IntPoly((1, 0, 1)))  # x^2 + 1
        assert matrix_order_is(M, 4)

    def test_witness_orders_realized(self):
        for n in range(1, 5):
            prof = max_torsion_order(n, 1)
            for w in prof.witness_orders:
                M = witness_matrix((w,), totient(w))
                assert matrix_order_is(M, w)

    def test_block_witness(self):
        prof = max_torsion_order(4, 1)
        M = witness_matrix(prof.witness_orders, 4)
        assert matrix_order_is(M, prof.exact_max_order)

    def test_order_is_exact_not_multiple(self):
        M = witness_matrix((3,), 2)
        assert matrix_order_is(M, 3)
        assert not matrix_order_is(M, 6)
        assert not matrix_order_is(M, 2)
        assert not matrix_order_is(M, 1)
        # the identity, given as lists, has order 1 and not a prime order
        I2 = [[1, 0], [0, 1]]
        assert matrix_order_is(I2, 1)
        assert not matrix_order_is(I2, 3)

    def test_identity_padding(self):
        M = witness_matrix((2,), 3)
        assert len(M) == 3
        assert matrix_order_is(M, 2)


class TestMatPow:
    def test_rejects_exponent_below_one(self):
        for e in (0, -1):
            with pytest.raises(PreconditionError):
                mat_pow(((2,),), e)

    def test_int_product_matches_sums(self):
        A = ((1, 2, 0), (0, -1, 3), (4, 0, 1))
        B = ((2, 0, -1), (1, 1, 0), (0, 5, 2))
        assert mat_mul(A, B) == tuple(
            tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
            for i in range(3))

    def test_matches_repeated_products(self, cosine_fields):
        K = cosine_fields[7]
        th, half = K.generator(), K.element([Fraction(1, 2)])
        zero, one = K.element([0]), K.element([1])
        over_ints = ((1, 2, 0), (0, -1, 3), (4, 0, 1))
        over_field = ((th, half, zero), (-one, th * th, half), (zero, one, th))
        as_lists = [list(row) for row in over_ints]  # the result is row tuples
        for M in (over_ints, as_lists, over_field):
            acc = tuple(map(tuple, M))
            for e in range(1, 40):
                assert mat_pow(M, e) == acc
                acc = mat_mul(acc, M)


class TestZeroSkip:
    @pytest.mark.parametrize("size", (3, 5))
    def test_sparse_int_products_match_dense(self, size):
        rng = random.Random(size)

        def sparse():
            # at least half the entries are zero
            cells = rng.sample(range(size * size), (size * size) // 2)
            M = [[rng.randint(-9, 9) for _ in range(size)]
                 for _ in range(size)]
            for c in cells:
                M[c // size][c % size] = 0
            return M

        for _ in range(200):
            A, B = sparse(), sparse()
            assert mat_mul(A, B) == tuple(
                tuple(sum(A[i][k] * B[k][j] for k in range(size))
                      for j in range(size)) for i in range(size))

    def test_no_product_with_a_zero_factor(self):
        products = []

        class Counted(int):
            def __mul__(self, other):
                products.append((int(self), int(other)))
                return Counted(int(self) * int(other))

            def __add__(self, other):
                return Counted(int(self) + int(other))

        A = [[Counted(v) for v in row]
             for row in ((1, 0, 2), (0, 0, 3), (4, 0, 0))]
        B = [[Counted(v) for v in row]
             for row in ((0, 5, 0), (6, 0, 0), (0, 0, 7))]
        C = [[Counted(0)] * 3 for _ in range(3)]
        assert mat_mul(A, B) == ((0, 5, 14), (0, 0, 21), (0, 20, 0))
        # four nonzero terms, and one zero product each for the five
        # entries with no nonzero term
        assert sorted(p for p in products if 0 not in p) == \
            [(1, 5), (2, 7), (3, 7), (4, 5)]
        assert len(products) == 4 + 5
        products.clear()
        assert mat_mul(C, A) == ((0,) * 3,) * 3
        assert len(products) == 9

    def test_zero_field_products_keep_the_field_type(self, cosine_fields):
        K = cosine_fields[7]
        zero, th = K.element([0]), K.generator()
        assert not zero and th and not (th - th)
        A = ((th, zero), (zero, zero))
        B = ((zero, zero), (zero, th))
        for prod in (mat_mul(A, B), mat_mul(B, A),
                     mat_mul(((zero, zero), (zero, zero)), A)):
            for e in (e for row in prod for e in row):
                assert isinstance(e, FieldElement) and e == K.element([0])


class TestVolumeBounds:
    # finite_subgroup_bound(v, 1, 1, c1, c2) is the order bound c1 (log v)^c2
    def test_volume_bound_formula(self):
        v = finite_subgroup_bound(100, 1, 1, 1.0, 1.0)
        with mp.workdps(30):
            assert number_str(v) == mp.nstr(mp.log(mp.mpf(100)), 17)

    def test_monotone(self):
        assert finite_subgroup_bound(200, 1, 1, 1.0, 2.0) > \
            finite_subgroup_bound(100, 1, 1, 1.0, 2.0)

    def test_domain(self):
        for v in (2, float("nan"), float("inf")):
            with pytest.raises(PreconditionError):
                finite_subgroup_bound(v, 1, 1, 1.0, 1.0)
        # (300 log 10)^(10^18) is beyond decimal's exponent range
        with pytest.raises(ResourceCapError):
            finite_subgroup_bound(1e300, 10**18, 1, 1.0, 1.0)

    def test_finite_subgroup_bound(self):
        v = finite_subgroup_bound(100, 3, 60, 1.0, 1.0)
        with mp.workdps(30):
            want = 60 * mp.log(mp.mpf(100)) ** 3
            assert number_str(v) == mp.nstr(want, 17)

    def test_jordan_scaling(self):
        a = finite_subgroup_bound(100, 3, 60, 1.0, 1.0)
        b = finite_subgroup_bound(100, 3, 120, 1.0, 1.0)
        assert number_str(b / a) == "2.0"


class TestPaperOrderBounds:
    def test_matches_profile(self):
        stated, proof = paper_order_bounds(5, 2)
        prof = max_torsion_order(5, 2)
        assert stated == prof.paper_bound_stated
        assert proof == prof.paper_bound_proof
