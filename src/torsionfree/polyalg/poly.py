"""Dense integer polynomials with exact arithmetic.

Representation: a polynomial is an IntPoly wrapping a tuple of Python ints,
lowest degree first, with no trailing zeros; the zero polynomial is the
empty tuple. All operations are exact. Resultants use the primitive
pseudo-remainder sequence with exact rational bookkeeping, so no floating
point enters any algebraic result.

Division is over Z. pseudo_rem scales the dividend by the divisor's leading
coefficient instead of dividing by it, and exact_div divides each top
coefficient by it and refuses when a remainder is left.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import PreconditionError


def _trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class IntPoly:
    """Immutable dense polynomial over Z, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        for a in coeffs:
            if not isinstance(a, int):
                raise PreconditionError(f"integer coefficient expected, got {a!r}")
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __iter__(self):
        # indexing past the degree reads as 0, so iteration must stop itself
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-a for a in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([other * a for a in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    # -- evaluation and calculus ------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction, works for mpf too."""
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * a for i, a in enumerate(self.coeffs)][1:])

    # -- content and divisibility ------------------------------------------

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for a in self.coeffs:
            g = math.gcd(g, a)
            if g == 1:
                break
        return g

    def primitive(self) -> "IntPoly":
        """Primitive part with the sign of the leading coefficient kept."""
        g = self.content()
        if g <= 1:
            return self
        return IntPoly([a // g for a in self.coeffs])

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def pseudo_rem(self, other: "IntPoly") -> "IntPoly":
        """Pseudo remainder r: lc(other)^(da-db+1) * self = q*other + r with
        deg r < deg other, for some q in Z[x] that is never formed; self
        itself when da < db."""
        if other.is_zero():
            raise ZeroDivisionError("pseudo division by zero polynomial")
        da, db = self.degree, other.degree
        if da < db:
            return self
        lc_b = other.lc
        rem = list(self.coeffs)
        for k in range(da - db, -1, -1):
            # scale remaining dividend, then cancel the top term
            for i in range(k + db):
                rem[i] *= lc_b
            coef = rem[k + db]
            rem[k + db] = 0
            for i, b in enumerate(other.coeffs[:-1]):
                rem[k + i] -= coef * b
        return IntPoly(rem)

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient over Z; PreconditionError unless other divides self
        in Z[x]."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db, lc_b = other.degree, other.lc
        rem = list(self.coeffs)
        quo = [0] * max(0, len(rem) - db)
        for k in range(len(quo) - 1, -1, -1):
            # a top coefficient not divisible by lc_b stays behind in rem
            quo[k] = coef = rem[k + db] // lc_b
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= coef * b
        if any(rem):
            raise PreconditionError("non-exact polynomial division")
        return IntPoly(quo)


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) over Z, exact (primitive PRS with rational bookkeeping)."""
    if f.is_zero() or g.is_zero():
        return 0
    a, b = f, g
    acc = Fraction(1)
    if a.degree < b.degree:
        if (a.degree * b.degree) % 2:
            acc = -acc
        a, b = b, a
    while True:
        m, n = a.degree, b.degree
        if n == 0:
            val = acc * Fraction(b.lc) ** m
            break
        r = a.pseudo_rem(b)
        if r.is_zero():
            return 0
        cont = r.content()
        rp = IntPoly([c // cont for c in r.coeffs])
        # Res(a,b) = (-1)^(mn) lc(b)^(m - deg r - n(m-n+1)) cont^n Res(b, rp)
        if (m * n) % 2:
            acc = -acc
        acc *= Fraction(b.lc) ** (m - r.degree - n * (m - n + 1))
        acc *= Fraction(cont) ** n
        a, b = b, rp
    if val.denominator != 1:
        raise AssertionError("resultant bookkeeping produced a non-integer")
    return int(val)


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f); degree 1 gives 1."""
    d = f.degree
    if d < 1:
        raise PreconditionError("discriminant needs degree >= 1")
    if d == 1:
        return 1
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    res = resultant(f, f.derivative())
    if res % f.lc:
        raise AssertionError("Res(f, f') not divisible by lc(f)")
    return sign * (res // f.lc)
