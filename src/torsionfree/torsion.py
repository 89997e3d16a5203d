"""Maximal torsion orders in GL_n over a degree-d field, exactly, plus the
closed-form bounds they are compared against.

The search maximizes lcm over multisets of distinct prime powers m_i with
sum of phi(m_i) within the degree budget n*d. That relaxation is exact for
d = 1 and an upper bound for every degree-d field (the cyclotomic degree
over k divides phi(m) but never exceeds it). A factor 2 rides free on any
odd witness since phi(2m) = phi(m) for odd m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import lcm
from operator import add, mul

from .errors import PreconditionError, ResourceCapError
from .ntheory import factorize, primes_upto
from .polyalg import IntPoly, cyclotomic_poly

ND_CAP = 64


@dataclass(frozen=True)
class TorsionProfile:
    n: int
    d: int
    exact_max_order: int
    witness_orders: tuple[int, ...]
    paper_bound_stated: int   # 2 (nd)^(2n)
    paper_bound_proof: int    # 4 (nd)^(2n)

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


def totient_sqrt_inequality(ell: int) -> bool:
    """phi(l) >= sqrt(l/2), checked without floating point."""
    if ell < 1:
        raise PreconditionError("need l >= 1")
    t = totient(ell)
    return 2 * t * t >= ell


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
    # odd prime powers r^k with phi(r^k) <= budget, grouped by prime
    odd_choices: list[list[tuple[int, int]]] = []  # per prime: [(cost, r^k)]
    for r in primes_upto(budget + 1):
        if r == 2:
            continue
        group = []
        cost, power = r - 1, r
        while cost <= budget:
            group.append((cost, power))
            cost, power = cost * r, power * r
        if group:
            odd_choices.append(group)

    best_order = 0
    best_witness: tuple[int, ...] = ()

    def two_part(rem: int, has_odd: bool) -> tuple[int, int]:
        # returns (factor, two_power_witness); witness 0 means "merged"
        if rem >= 2:
            k = rem.bit_length()  # largest 2^(k-1) <= rem < 2^k
            return 1 << k, 1 << k
        if has_odd:
            return 2, 0
        if rem >= 1:
            return 2, 2
        return 1, 0

    def finish(rem: int, order: int, picks: list[int]) -> None:
        nonlocal best_order, best_witness
        factor, tw = two_part(rem, bool(picks))
        total = order * factor
        if total <= best_order:
            return
        witness = sorted(picks)
        if tw:
            witness.append(tw)
        elif factor == 2:
            witness[0] *= 2  # phi(2m) = phi(m) for odd m: the 2 rides free
        best_order = total
        best_witness = tuple(sorted(witness))

    def dfs(i: int, rem: int, order: int, picks: list[int]) -> None:
        finish(rem, order, picks)
        for j in range(i, len(odd_choices)):
            for cost, power in odd_choices[j]:
                if cost <= rem:
                    picks.append(power)
                    dfs(j + 1, rem - cost, order * power, picks)
                    picks.pop()

    dfs(0, budget, 1, [])
    stated, proof = paper_order_bounds(n, d)
    return TorsionProfile(n=n, d=d, exact_max_order=best_order,
                          witness_orders=best_witness,
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
    """A B for square matrices over any ring: ints or field elements. Each
    sum starts from its first product, not from the int 0."""
    cols = tuple(zip(*B))
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in cols)
                 for row in A)


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

def torsion_order_volume_bound(v, c1, c2):
    """c1 (log v)^c2, the order bound at volume v."""
    from mpmath import mp, mpf, workdps
    with workdps(30):
        vm = mpf(v)
        if vm <= mp.e:
            raise PreconditionError("need v > e so that log v > 1")
        return mpf(c1) * mp.log(vm) ** mpf(c2)


def finite_subgroup_bound(v, n: int, jordan_index, c1, c2):
    """jordan_index * (c1 (log v)^c2)^n: abelian-diagonalizable bound times
    the Jordan index."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if jordan_index < 1:
        raise PreconditionError("jordan_index must be >= 1")
    from mpmath import mp, mpf, workdps
    with workdps(30):
        vm = mpf(v)
        if vm <= mp.e:
            raise PreconditionError("need v > e so that log v > 1")
        return mpf(jordan_index) * (mpf(c1) * mp.log(vm) ** mpf(c2)) ** n
