"""Dense integer polynomials with exact arithmetic.

Representation: a polynomial is an IntPoly wrapping a tuple of Python ints,
lowest degree first, with no trailing zeros; the zero polynomial is the
empty tuple. All operations are exact; no floating point enters any
algebraic result. One loop, _product, multiplies coefficient sequences:
IntPoly, the mod-p layer and number-field elements each add only their own
reduction.

Division is over Z. pseudo_rem scales the dividend by the divisor's leading
coefficient instead of dividing by it, and exact_div divides each top
coefficient by it and refuses when a remainder is left. One remainder
sequence, the subresultant PRS, serves the resultant and the Sturm chain;
it takes no content gcd, and every scalar division in it is checked exact.
Its one-entry memo lets the discriminant and the Sturm chain of the same
polynomial share one run.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import PreconditionError


def _trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _product(a, b) -> list[int]:
    """The coefficients of a * b, lowest degree first, for coefficient
    sequences a and b, untrimmed (all zeros when either is empty). The outer
    loop runs over the factor with fewer nonzero coefficients and skips its
    zeros, so a sparse factor costs O(len) on either side."""
    if sum(map(bool, b)) < sum(map(bool, a)):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


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
        return IntPoly(_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    # -- evaluation and calculus ------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for int and Fraction."""
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * a for i, a in enumerate(self.coeffs)][1:])

    # -- divisibility ------------------------------------------------------

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def pseudo_rem(self, other: "IntPoly") -> "IntPoly":
        """Pseudo remainder r: lc(other)^(da-db+1) * self = q*other + r with
        deg r < deg other, for some q in Z[x] that is never formed; self
        itself when da < db."""
        if not other:
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
        if not other:
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


def _exact_quo(a: int, b: int) -> int:
    """a / b, which must be an integer; ArithmeticError otherwise."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} / {b} is not exact")
    return q


@lru_cache(maxsize=1)
def subresultant_prs(a: IntPoly, b: IntPoly) -> tuple[list[IntPoly], list[int], int]:
    """(chain, signs, h) for deg a >= deg b >= 0, b != 0 (Cohen, GTM 138,
    Alg. 3.3.1 and 3.3.7). chain: b_0 = a, b_1 = b, b_(i+1) =
    prem(b_(i-1), b_i) / (g h^delta_i) up to the last nonzero element, where
    delta_i = deg b_(i-1) - deg b_i, and then g = lc(b_i) and
    h = g^delta_i / h^(delta_i - 1), from g = h = 1; each division is checked.
    signs[i] b_i is a positive multiple of S_i, S_(i+1) = -rem(S_(i-1), S_i).
    h, updated for the last element too, is +-Res(a, b) if that is constant.

    One entry is kept, so the discriminant and the Sturm chain of one f,
    which both ask for the chain of (f, f'), compute it once. A repeated
    call returns the same lists: callers read them and never mutate them."""
    chain, signs = [a, b], [1, 1]
    g = h = 1
    while True:
        prev, cur = chain[-2], chain[-1]
        delta = prev.degree - cur.degree
        beta = g * h ** delta
        g = cur.lc
        if delta:
            h = _exact_quo(g ** delta, h ** (delta - 1))
        r = prev.pseudo_rem(cur) if cur.degree > 0 else IntPoly()
        if not r:
            return chain, signs, h
        chain.append(IntPoly([_exact_quo(c, beta) for c in r.coeffs]))
        # prem(b_(i-1), b_i) = g^(delta + 1) rem(b_(i-1), b_i), so S_(i+1) =
        # -rem has the sign -signs[-2] sign(beta) sign(g)^(delta + 1)
        s = -signs[-2] if beta > 0 else signs[-2]
        signs.append(-s if g < 0 and delta % 2 == 0 else s)


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) over Z: the signed last h of the subresultant PRS, 0 when
    the chain ends at a common factor of positive degree."""
    if not f or not g:
        return 0
    if f.degree < g.degree:
        return (-1) ** (f.degree * g.degree) * resultant(g, f)
    chain, _, h = subresultant_prs(f, g)
    if chain[-1].degree > 0:
        return 0
    odd = sum(a.degree * b.degree % 2 for a, b in zip(chain, chain[1:]))
    return (-1) ** odd * h


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f); degree 1 gives 1."""
    d = f.degree
    if d < 1:
        raise PreconditionError("discriminant needs degree >= 1")
    return (-1) ** (d * (d - 1) // 2) * _exact_quo(resultant(f, f.derivative()), f.lc)
