"""Maximal torsion orders in GL_n over a degree-d field, exactly, plus the
closed-form bounds they are compared against.

The order maximizes lcm over sets of prime powers m_i, at most one per
prime, with sum of phi(m_i) within the degree budget n*d. That relaxation
is exact for d = 1 and an upper bound for every degree-d field (the
cyclotomic degree over k divides phi(m) but never exceeds it). It depends
on the budget alone: a grouped 0/1 knapsack over the odd prime powers, and
the budget left over buys the largest 2-part. A factor 2 rides free on any
odd witness since phi(2m) = phi(m) for odd m.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from functools import reduce
from math import lcm
from operator import add

from .errors import PreconditionError, ResourceCapError
from .ntheory import factorize, primes_upto
from .polyalg import IntPoly, cyclotomic_poly
from .report import E, analytic

ND_CAP = 64


class TorsionProfile(namedtuple("TorsionProfile", (
        "n", "d", "exact_max_order", "witness_orders", "paper_bound_stated",
        "paper_bound_proof"))):
    """max_torsion_order's answer for (n, d): the largest order its search
    finds, the pairwise coprime orders whose product it is, ascending, and
    the paper's bounds 2 (nd)^(2n) as stated and 4 (nd)^(2n) as proved."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "exact_max_order": str(self.exact_max_order),
            "witness_orders": list(self.witness_orders),
            "paper_bound_stated": str(self.paper_bound_stated),
            "paper_bound_proof": str(self.paper_bound_proof),
        }


def totient(m: int) -> int:
    if m < 1:
        raise PreconditionError("totient needs m >= 1")
    out = m
    for q in factorize(m):
        out -= out // q
    return out


def paper_order_bounds(n: int, d: int) -> tuple[int, int]:
    """The statement constant (2) and the proof constant (4), both emitted."""
    if n < 1 or d < 1:
        raise PreconditionError("n and d must be >= 1")
    base = (n * d) ** (2 * n)
    return 2 * base, 4 * base


def max_torsion_order(n: int, d: int) -> TorsionProfile:
    """Largest finite element order under the degree budget n*d."""
    if n < 1 or d < 1:
        raise PreconditionError("n and d must be >= 1")
    budget = n * d
    if budget > ND_CAP:
        raise ResourceCapError(f"n*d = {budget} exceeds the search cap {ND_CAP}")
    # best[c]: the largest product of odd prime powers r^k, at most one per
    # prime r, whose totients sum to at most c (a grouped 0/1 knapsack)
    best = [1] * (budget + 1)
    for r in primes_upto(budget + 1)[1:]:
        group = []
        cost, power = r - 1, r
        while cost <= budget:
            group.append((cost, power))
            cost, power = cost * r, power * r
        best = [max([b] + [best[c - cost] * power
                           for cost, power in group if cost <= c])
                for c, b in enumerate(best)]
    # the budget left over buys the 2-part 2^t: phi(2^t) = 2^(t-1) <= rem,
    # and a lone 2 rides free on an odd part since phi(2m) = phi(m)
    order = 0
    for c, b in enumerate(best):
        rem = budget - c
        t = rem.bit_length() if rem >= 2 else int(rem == 1 or b > 1)
        order = max(order, b << t)
    t = (order & -order).bit_length() - 1
    witness = sorted(q**e for q, e in factorize(order >> t).items())
    if t == 1 and witness:
        witness[0] *= 2
    elif t:
        witness.append(1 << t)
    stated, proof = paper_order_bounds(n, d)
    return TorsionProfile(n=n, d=d, exact_max_order=order,
                          witness_orders=tuple(sorted(witness)),
                          paper_bound_stated=stated, paper_bound_proof=proof)


def naive_max_order(n: int, d: int, m_cap: int = 200) -> int:
    """Independent brute-force oracle: enumerate multisets of distinct
    m <= m_cap with total phi within budget, no prime-power structure used."""
    budget = n * d
    costs = [(m, totient(m)) for m in range(2, m_cap + 1)]
    best = 1

    def rec(idx: int, rem: int, cur: int) -> None:
        nonlocal best
        best = max(best, cur)
        for k in range(idx, len(costs)):
            m, c = costs[k]
            if c <= rem:
                nl = lcm(cur, m)
                if nl > cur:
                    rec(k + 1, rem - c, nl)

    rec(0, budget, 1)
    return best


# ------------------------------------------------------- matrix realization

def companion_matrix(f: IntPoly) -> list[list[int]]:
    if not f.is_monic() or f.degree < 1:
        raise PreconditionError("monic polynomial of degree >= 1 required")
    k = f.degree
    M = [[0] * k for _ in range(k)]
    for i in range(1, k):
        M[i][i - 1] = 1
    for i in range(k):
        M[i][k - 1] = -f[i]
    return M


def witness_matrix(witness_orders: tuple[int, ...], size: int) -> list[list[int]]:
    """Block diagonal of companion matrices of the m-th cyclotomic
    polynomials: an integer matrix of the witnessed order inside GL_size."""
    blocks = [companion_matrix(cyclotomic_poly(m)) for m in witness_orders]
    used = sum(len(b) for b in blocks)
    if used > size:
        raise PreconditionError("witness degrees exceed the matrix size")
    M = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                M[at + i][at + j] = v
        at += len(b)
    for i in range(at, size):
        M[i][i] = 1
    return M


def mat_mul(A, B) -> tuple[tuple, ...]:
    """A B for square matrices over any ring: ints or field elements.
    Terms with a zero factor are skipped; an entry whose terms all have one
    is its first product, so a zero keeps the operands' type, never the
    int 0."""
    cols = tuple(zip(*B))
    return tuple(tuple(_dot(row, col) for col in cols) for row in A)


def _dot(row, col):
    return reduce(add, [a * b for a, b in zip(row, col) if a and b]
                  or [row[0] * col[0]])


def mat_pow(A, e: int) -> tuple[tuple, ...]:
    """A^e for e >= 1 by binary exponentiation, with no identity needed; a
    tuple of row tuples."""
    if e < 1:
        raise PreconditionError("matrix power needs e >= 1")
    A = tuple(map(tuple, A))
    out = None
    while True:
        if e & 1:
            out = A if out is None else mat_mul(out, A)
        e >>= 1
        if not e:
            return out
        A = mat_mul(A, A)


def matrix_order_is(M, ell: int) -> bool:
    """Exactly order ell: M^ell = I and M^(ell/q) != I for every prime q | ell."""
    n = len(M)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if mat_pow(M, ell) != ident:
        return False
    return all(mat_pow(M, ell // q) != ident for q in factorize(ell))


# ------------------------------------------------------------ volume bounds

@analytic
def finite_subgroup_bound(v, n: int, jordan_index, c1, c2):
    """jordan_index * (c1 (log v)^c2)^n: abelian-diagonalizable bound times
    the Jordan index."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if jordan_index < 1:
        raise PreconditionError("jordan_index must be >= 1")
    vd = Decimal(v)
    if not vd.is_finite() or vd <= E:
        raise PreconditionError("need a finite v > e so that log v > 1")
    return Decimal(jordan_index) * (Decimal(c1) * vd.ln() ** Decimal(c2)) ** n
