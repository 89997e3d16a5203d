"""Cyclotomic and cosine minimal polynomials.

The minimal polynomial of 2cos(2pi/N) is obtained from the cyclotomic
polynomial Phi_N through the palindromic rewrite

    Phi_N(z) = z^(phi(N)/2) * Psi_N(z + 1/z),      N >= 3,

using the monic basis V_k (V_k(z + 1/z) = z^k + z^-k, V_0 = 2, V_1 = x,
V_{k+1} = x V_k - V_{k-1}).  Psi_N is monic with integer coefficients of
degree phi(N)/2, and 2cos(2pi k/N) for gcd(k, N) = 1 are exactly its roots.

Those roots are known in closed form, so isolate_two_cos_roots places an
isolating interval around each from a floating-point value (math.cos) and
then certifies the intervals in exact arithmetic; the float only guides, the
exact check decides, and a failed check is refused (ResourceCapError), with
no second route. The discriminant is a closed form too
(two_cos_discriminant).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import cos, floor, gcd, pi, prod

from ..errors import PreconditionError, ResourceCapError
from ..ntheory import factorize
from .poly import IntPoly
from .roots import CELL_BITS, Interval


@functools.cache
def cyclotomic_poly(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial Phi_n, exact over Z."""
    if n < 1:
        raise PreconditionError("cyclotomic_poly expects n >= 1")
    if n == 1:
        return IntPoly([-1, 1])
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d
    num = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = num.exact_div(cyclotomic_poly(d))
    return num


@functools.cache
def minpoly_two_cos_conductor(n: int) -> IntPoly:
    """Minimal polynomial of 2cos(2pi/n) for n >= 3, monic of degree phi(n)/2."""
    if n < 3:
        raise PreconditionError("conductor must be >= 3")
    phi = cyclotomic_poly(n)
    m = phi.degree // 2
    # palindromic: phi coefficients a_k with a_k == a_{deg-k}, so
    # Psi_N = a_m + sum_k a_{m+k} V_k, summed on plain int lists
    a = phi.coeffs
    acc, v_prev, v = [a[m]] + [0] * m, [2], [0, 1]
    for k in range(1, m + 1):
        for i, c in enumerate(v):
            acc[i] += a[m + k] * c
        # V_{k+1} = x V_k - V_{k-1}
        v_prev, v = v, [c - e for c, e in zip([0] + v, v_prev + [0, 0])]
    out = IntPoly(acc)
    if not out.is_monic() or out.degree != m:
        raise AssertionError("cosine minimal polynomial construction failed")
    return out


def two_cos_discriminant(n: int) -> int:
    """Discriminant of Q(2cos(2pi/n)) and of minpoly_two_cos_conductor(n),
    n >= 3, by the conductor-discriminant formula (Washington, ch. 3-4)."""
    if n < 3:
        raise PreconditionError("conductor must be >= 3")
    fac = factorize(n // 2 if n % 4 == 2 else n)  # Q(zeta_n) = Q(zeta_(n/2))
    (p, a), *more = fac.items()
    if more:  # Q(zeta_n) is unramified over it: sqrt|disc Q(zeta_n)|
        phi = prod(q ** (e - 1) * (q - 1) for q, e in fac.items())
        return prod(q ** ((e * phi - phi // (q - 1)) // 2) for q, e in fac.items())
    if p == 2:
        return 2 ** ((a - 1) * 2 ** (a - 2) - 1)
    return p ** ((a * p ** (a - 1) * (p - 1) - p ** (a - 1) - 1) // 2)


def _cells_certified(f: IntPoly, cells: list[int], k: int) -> bool:
    """True when the cells [m, m + 1] / 2^k, m in cells, hold one root of f
    each: there are deg f of them, their interiors are disjoint, and f is
    nonzero with opposite signs at the two ends of every cell. Each cell
    then holds an odd number of roots, and deg f cells leave room for one.

    The sign of f at an end m / 2^k is that of the integer
    2^(kd) f(m / 2^k) = sum_i (f_i 2^(k(d - i))) m^i, d = deg f: Horner in m
    on the coefficients shifted once, a product and a sum per step."""
    d = f.degree
    if len(cells) != d or any(b <= a for a, b in zip(cells, cells[1:])):
        return False
    shifted = [c << k * (d - i) for i, c in enumerate(f.coeffs)][::-1]
    signs = {}
    for end in {*cells, *(m + 1 for m in cells)}:
        acc = 0
        for c in shifted:
            acc = acc * end + c
        signs[end] = (acc > 0) - (acc < 0)
    return all(signs[m] * signs[m + 1] == -1 for m in cells)


def _guide_cells(n: int) -> list[int]:
    """The m with 2cos(2pi k/n) in [m, m + 1] / 2^CELL_BITS by a double
    value, for gcd(k, n) = 1, ascending. A guess: the root sits about 1e-15
    from its double, so only a root that close to a cell end can be placed in
    the wrong cell, and _cells_certified then refuses the cells."""
    scale = 1 << CELL_BITS
    return sorted(floor(2 * cos(2 * pi * k / n) * scale)
                  for k in range(1, n // 2 + 1) if gcd(k, n) == 1)


def isolate_two_cos_roots(n: int) -> list[Interval]:
    """Isolating intervals for the roots 2cos(2pi k/n), gcd(k, n) = 1, of
    minpoly_two_cos_conductor(n), ascending, as isolate_real_roots returns
    them.

    The degree-1 conductors n = 3, 4, 6 have the integer root r = -1, 0, 1,
    returned as the degenerate cell (r, r). Every other root gets the dyadic
    cell [m, m + 1] / 2^CELL_BITS of _guide_cells, and _cells_certified
    checks the cells in exact arithmetic. Should that check fail, n is
    refused with ResourceCapError: an uncertified interval is never
    returned.
    """
    f = minpoly_two_cos_conductor(n)
    if f.degree == 1:
        r = Fraction(-f[0])
        return [(r, r)]
    scale = 1 << CELL_BITS
    cells = _guide_cells(n)
    if not _cells_certified(f, cells, CELL_BITS):
        raise ResourceCapError(
            f"the guided root cells of conductor {n} failed their exact check "
            f"at CELL_BITS = {CELL_BITS}")
    return [(Fraction(m, scale), Fraction(m + 1, scale)) for m in cells]
