"""Torsion-free congruence level selection and the analytic index bounds.

The congruence-level search is exact; the GRH threshold and the volume
bounds are numeric, at report.PRECISION significant digits: Li by its
series on scaled integers, the rest in the standard library's decimal. No
unstated constant is invented: the error term's 13 and the unconditional
level 3 are the only fixed numbers, and everything configurable defaults to
documented illustrative values supplied by the caller.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal

from .errors import PreconditionError, ResourceCapError, TorsionfreeError
from .ntheory import is_prime
from .numfield import NumberField, dedekind_split, is_index_prime
from .report import E, analytic, number_str

_THRESHOLD_CAP = 1 << 64
# the largest prime norm a level scan accepts unless told otherwise; the
# config key prime_scan_cap defaults to it
PRIME_SCAN_CAP = 10**6
ERR_CONSTANT = 13
# cap on the exponent of an index bound: d * dim H of 3^(d dim H), whose
# decimal form then has at most 3909 digits, and dim_G of norm^dim_G
EXPONENT_CAP = 8192


class CongruenceLevel(namedtuple("CongruenceLevel", (
        "rational_prime", "inertia", "ramification", "norm",
        "torsion_free_certificate", "index_bound", "dim_G",
        "skipped_index_divisible"))):
    """The level find_congruence_level chose: the prime ideal above
    rational_prime of inertia degree inertia, ramification index
    ramification and norm norm, and index_bound = norm^dim_G.
    skipped_index_divisible holds the index primes below norm that the scan
    passed over, ascending."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "rational_prime": str(self.rational_prime),
            "inertia": self.inertia,
            "ramification": self.ramification,
            "norm": str(self.norm),
            "torsion_free_certificate": self.torsion_free_certificate,
            "index_bound": str(self.index_bound),
            "dim_G": self.dim_G,
            "skipped_index_divisible": [str(q) for q in self.skipped_index_divisible],
        }


class GrhReport(namedtuple("GrhReport", (
        "d", "log_D", "threshold_x", "li_at_threshold", "err_at_threshold",
        "smallest_actual_prime_norm", "config"))):
    """grh_threshold's answer for degree d and log_D: the threshold x, the
    Decimal values li(x) and err(x) there, the smallest prime-ideal norm of
    the field when one was given (else None) and the constants used."""

    __slots__ = ()

    def to_json(self) -> dict:
        norm = self.smallest_actual_prime_norm
        return {
            "d": self.d,
            "log_D": number_str(self.log_D),
            "threshold_x": str(self.threshold_x),
            "li_at_threshold": number_str(self.li_at_threshold),
            "err_at_threshold": number_str(self.err_at_threshold),
            "smallest_actual_prime_norm": None if norm is None else str(norm),
            "config": dict(self.config),
        }


def kionke_criterion(q: int, e: int) -> bool:
    """Level-q torsion-freeness for a prime ideal of ramification e.

    The level kills torsion iff its (p-1)-th power divides no p*O; only
    p = q can fail, which happens exactly when e >= q - 1.
    """
    if not is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if e < 1:
        raise PreconditionError("ramification index must be >= 1")
    return e <= q - 2


def find_congruence_level(K: NumberField, dim_G: int,
                          scan_cap: int = PRIME_SCAN_CAP) -> CongruenceLevel:
    """Smallest-norm prime ideal giving a torsion-free congruence level.

    Scans rational primes q while q is below the best norm so far (no
    prime ideal above q has a smaller norm), and keeps the minimal passing
    norm; ties go to smaller q, then smaller inertia.
    Index primes of K are skipped, not split, and reported; is_index_prime
    decides each q the scan reaches, and no other. q = 2 never passes
    (kionke_criterion(2, e) fails for every e >= 1) and is passed over.
    Every other prime is split once by dedekind_split, which returns only
    the least primes above q of norm below the best so far, or of norm at
    most scan_cap while there is none. Least primes suffice: a prime above
    q passes exactly when e <= q - 2, and among those above q a smaller f,
    then a smaller e, wins; so a prime whose e and f are both no smaller
    than another's never wins, for when it passes so does the other. An
    answer is returned exactly when its norm is at most scan_cap, so that
    first bound drops nothing; a dim_G above EXPONENT_CAP is refused before
    the scan.
    """
    if dim_G < 1:
        raise PreconditionError("dim_G must be >= 1")
    if dim_G > EXPONENT_CAP:
        raise ResourceCapError(f"dim_G = {dim_G} exceeds the cap {EXPONENT_CAP}")
    best: tuple[int, int, int, int] | None = None  # (norm, q, f, e)
    skipped: list[int] = []
    for q in filter(is_prime, range(2, scan_cap + 1)):
        if best is not None and q >= best[0]:
            break
        if is_index_prime(K, q):
            skipped.append(q)
            continue
        if q == 2:
            continue
        for e, f in dedekind_split(
                K, q, scan_cap + 1 if best is None else best[0]):
            cand = (q**f, q, f, e)
            if kionke_criterion(q, e) and (best is None or cand < best):
                best = cand
    if best is None:
        raise ResourceCapError(
            f"prime scan cap {scan_cap} exceeded without a final answer")
    norm_, q, f, e = best
    return CongruenceLevel(
        rational_prime=q, inertia=f, ramification=e, norm=norm_,
        torsion_free_certificate=True, index_bound=norm_**dim_G, dim_G=dim_G,
        skipped_index_divisible=tuple(skipped))


# ---------------------------------------------------------------- analytics

# Euler's constant gamma and li(2), the offset of Li, to 50 digits
EULER_GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")
LI_2 = Decimal("1.04516378011749278484458888919461313652261557815120")
# Li is summed on integers scaled by 2^_BITS. 2^-150 < 1e-45, so the floors,
# a few hundred per value, stay far below the 30 digits kept (the tests hold
# Li to 28 digits from 2.5 to 2^64).
_BITS = 150
_ONE = 1 << _BITS


def _finite(name: str, value) -> Decimal:
    """value (an int, float, str or Decimal) as an exact Decimal;
    PreconditionError when it is nan or infinite."""
    vd = Decimal(value)
    if not vd.is_finite():
        raise PreconditionError(f"{name} must be finite, got {value}")
    return vd


def _scaled(value: Decimal) -> int:
    """value * 2^_BITS, floored."""
    num, den = value.as_integer_ratio()
    return (num << _BITS) // den


def _atanh(z: int) -> int:
    """atanh(z / 2^_BITS), scaled, for 0 <= z <= 2^_BITS / 3: the sum of
    z^(2k+1) / (2k+1), up to the first power that floors to zero."""
    z2 = z * z >> _BITS
    total = power = z
    k = 1
    while power:
        power = power * z2 >> _BITS
        k += 2
        total += power // k
    return total


_LN_2 = 2 * _atanh(_ONE // 3)
_LI_OFFSET = _scaled(EULER_GAMMA) - _scaled(LI_2)


def _ln(v: int) -> int:
    """ln(v / 2^_BITS), scaled, for v > 0: j ln 2 + 2 atanh((r - 1)/(r + 1))
    with r = v / 2^(j + _BITS) in [1, 2)."""
    j = v.bit_length() - 1 - _BITS
    r = v >> j if j >= 0 else v << -j
    return j * _LN_2 + 2 * _atanh(((r - _ONE) << _BITS) // (r + _ONE))


@analytic
def logarithmic_integral(x):
    """Li(x) = integral from 2 to x of dt/log t = li(x) - li(2), at
    report.PRECISION significant digits, with li(x) = gamma + ln L + the sum
    over k >= 1 of L^k / (k k!), L = ln x. Every step runs on integers
    scaled by 2^_BITS; the terms are positive, and the sum stops when
    L^k / k! floors to zero. One decimal division rounds the result."""
    xd = _finite("x", x)
    if xd < 2:
        raise PreconditionError("Li is taken from 2; need x >= 2")
    if xd == 2:
        return Decimal(0)
    L = _ln(_scaled(xd))
    total = _LI_OFFSET + _ln(L) + L
    power = L  # L^k / k!
    k = 1
    while power:
        k += 1
        power = (power * L >> _BITS) // k
        total += power // k
    return Decimal(total) / _ONE


@analytic
def grh_error(x, d: int, log_D):
    """Err(x) = 13 sqrt(x) (log D + d log x)."""
    if x < 2:
        raise PreconditionError("need x >= 2")
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    xd = Decimal(x)
    return ERR_CONSTANT * xd.sqrt() * (Decimal(log_D) + d * xd.ln())


def _grh_terms(x, d, log_D):
    """(Li(x), Err(x)) when Li(x) > Err(x) + d^2, else None."""
    li, err = logarithmic_integral(x), grh_error(x, d, log_D)
    return (li, err) if li > err + d * d else None


@analytic
def grh_threshold(d: int, log_D, field: NumberField | None = None,
                  scan_cap: int = PRIME_SCAN_CAP) -> GrhReport:
    """Smallest integer x with Li(x) > Err(x) + d^2, by doubling then
    bisection; the doubling-grid half point is re-checked to fail.

    When a field is supplied, its actual minimal torsion-free prime norm is
    attached for the empirical comparison norm <= threshold.
    """
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    log_D = _finite("log_D", log_D)
    if log_D < 0:
        raise PreconditionError("log_D must be >= 0")
    x = 4
    while (at_hi := _grh_terms(x, d, log_D)) is None:
        x *= 2
        if x > _THRESHOLD_CAP:
            raise ResourceCapError("GRH threshold exceeds 2^64")
    lo, hi = x // 2, x  # predicate false at lo (or lo < 4), true at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        terms = _grh_terms(mid, d, log_D)
        if terms is not None:
            hi, at_hi = mid, terms  # the report's pair: Li and Err at hi
        else:
            lo = mid
    if _grh_terms(hi // 2, d, log_D) is not None:
        raise TorsionfreeError("no crossing at half the GRH threshold")
    norm_ = None
    if field is not None:
        norm_ = find_congruence_level(field, 1, scan_cap=scan_cap).norm
    return GrhReport(
        d=d, log_D=log_D, threshold_x=hi,
        li_at_threshold=at_hi[0], err_at_threshold=at_hi[1],
        smallest_actual_prime_norm=norm_,
        config={"err_constant": ERR_CONSTANT, "margin": "d^2"})


def unconditional_index_bound(d: int, dim_H: int) -> int:
    """3^(d dim H): the level-3 congruence subgroup is always torsion-free.

    Raises ResourceCapError when d dim H exceeds EXPONENT_CAP.
    """
    if d < 1 or dim_H < 1:
        raise PreconditionError("d and dim_H must be >= 1")
    if d * dim_H > EXPONENT_CAP:
        raise ResourceCapError(
            f"d * dim_H = {d * dim_H} exceeds the cap "
            f"{EXPONENT_CAP} on the exponent of 3")
    return 3 ** (d * dim_H)


@analytic
def volume_index_bound_grh(v, dim_H: int, epsilon, prasad_c1, prasad_c2, lemma_C):
    """lemma_C * ((c1 + c2) log v)^((2 + eps) dim H), the volume-only form."""
    if dim_H < 1:
        raise PreconditionError("dim_H must be >= 1")
    vd = _finite("v", v)
    if vd <= E:
        raise PreconditionError("need v > e so that log v > 1")
    base = (_finite("prasad_c1", prasad_c1)
            + _finite("prasad_c2", prasad_c2)) * vd.ln()
    if base <= 0:
        raise PreconditionError("need prasad_c1 + prasad_c2 > 0")
    return _finite("lemma_C", lemma_C) * \
        base ** ((2 + _finite("epsilon", epsilon)) * dim_H)


@analytic
def generator_bound_pipeline(v, alpha, c, f_form: str = "power"):
    """(f(v log^c v) + log log v) / v with f(u) = u^(1-alpha) or (log u)^alpha."""
    vd = _finite("v", v)
    if vd <= E ** E:
        raise PreconditionError("need v > e^e so that log log v > 1")
    alpha, c = _finite("alpha", alpha), _finite("c", c)
    u = vd * vd.ln() ** c
    if f_form == "power":
        fu = u ** (1 - alpha)
    elif f_form == "polylog":
        fu = u.ln() ** alpha
    else:
        raise PreconditionError(f"unsupported f_form: {f_form!r}")
    return (fu + vd.ln().ln()) / vd
