"""Torsion-free congruence level selection and the analytic index bounds.

The congruence-level search is exact; the GRH threshold and the volume
bounds are numeric (mpmath at report.MP_DPS significant digits, imported
by the functions that compute them, so a level search never loads it). No
unstated constant is invented: the error term's 13 and the unconditional
level 3 are the only fixed numbers, and everything configurable defaults to
documented illustrative values supplied by the caller.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PreconditionError, ResourceCapError, TorsionfreeError
from .ntheory import is_prime
from .numfield import (NumberField, dedekind_split, is_index_prime,
                       least_inertia_degree)
from .report import MP_DPS

_THRESHOLD_CAP = 1 << 64
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
    mpf values li(x) and err(x) there, the smallest prime-ideal norm of the
    field when one was given (else None) and the constants used."""

    __slots__ = ()

    def to_json(self) -> dict:
        from .report import mpf_str
        norm = self.smallest_actual_prime_norm
        return {
            "d": self.d,
            "log_D": mpf_str(self.log_D),
            "threshold_x": str(self.threshold_x),
            "li_at_threshold": mpf_str(self.li_at_threshold),
            "err_at_threshold": mpf_str(self.err_at_threshold),
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
                          scan_cap: int = 10**6) -> CongruenceLevel:
    """Smallest-norm prime ideal giving a torsion-free congruence level.

    Scans rational primes q while q is below the best norm so far (no
    prime ideal above q has a smaller norm), and keeps the minimal passing
    norm; ties go to smaller q, then smaller inertia.
    Index primes of K are skipped, not split, and reported; is_index_prime
    decides each q the scan reaches, and no other. q = 2 never passes
    (kionke_criterion(2, e) fails for every e >= 1) and is passed over.
    A prime dividing disc_poly is split by dedekind_split, which
    supplies its ramification indices. Every other prime is unramified, so
    only its least inertia degree can win, and only with a norm below the
    best so far: least_inertia_degree looks for it up to that bound and no
    further. An answer is returned exactly when its norm is at most
    scan_cap; a dim_G above EXPONENT_CAP is refused before the scan.
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
        if K.disc_poly % q:
            f = least_inertia_degree(
                K, q, None if best is None else _degree_below(q, best[0]))
            splits = () if f is None else ((1, f),)
        else:
            splits = dedekind_split(K, q)
        for e, f in splits:
            cand = (q**f, q, f, e)
            if kionke_criterion(q, e) and (best is None or cand < best):
                best = cand
    if best is None or best[0] > scan_cap:
        raise ResourceCapError(
            f"prime scan cap {scan_cap} exceeded without a final answer")
    norm_, q, f, e = best
    return CongruenceLevel(
        rational_prime=q, inertia=f, ramification=e, norm=norm_,
        torsion_free_certificate=True, index_bound=norm_**dim_G, dim_G=dim_G,
        skipped_index_divisible=tuple(skipped))


def _degree_below(q: int, norm: int) -> int:
    """The largest j >= 0 with q^j < norm."""
    j, power = 0, q
    while power < norm:
        j += 1
        power *= q
    return j


# ---------------------------------------------------------------- analytics

def logarithmic_integral(x):
    """Li(x) = integral from 2 to x of dt/log t (mpmath's offset li), at
    MP_DPS significant digits."""
    if x < 2:
        raise PreconditionError("Li is taken from 2; need x >= 2")
    from mpmath import mp, mpf, workdps
    with workdps(MP_DPS):
        return mp.li(mpf(x), offset=True)


def _finite(name: str, value):
    """value as an mpf; PreconditionError when it is nan or infinite."""
    from mpmath import mp, mpf
    vm = mpf(value)
    if not mp.isfinite(vm):
        raise PreconditionError(f"{name} must be finite, got {value}")
    return vm


def grh_error(x, d: int, log_D):
    """Err(x) = 13 sqrt(x) (log D + d log x)."""
    if x < 2:
        raise PreconditionError("need x >= 2")
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    from mpmath import mp, mpf, workdps
    with workdps(MP_DPS):
        xm = mpf(x)
        return ERR_CONSTANT * mp.sqrt(xm) * (mpf(log_D) + d * mp.log(xm))


def _grh_holds(x, d, log_D) -> bool:
    return logarithmic_integral(x) > grh_error(x, d, log_D) + d * d


def grh_threshold(d: int, log_D, field: NumberField | None = None,
                  scan_cap: int = 10**6) -> GrhReport:
    """Smallest integer x with Li(x) > Err(x) + d^2, by doubling then
    bisection; the doubling-grid half point is re-checked to fail.

    When a field is supplied, its actual minimal torsion-free prime norm is
    attached for the empirical comparison norm <= threshold.
    """
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    from mpmath import mpf, workdps
    with workdps(MP_DPS):
        if _finite("log_D", log_D) < 0:
            raise PreconditionError("log_D must be >= 0")
        x = 4
        while not _grh_holds(x, d, log_D):
            x *= 2
            if x > _THRESHOLD_CAP:
                raise ResourceCapError("GRH threshold exceeds 2^64")
        lo, hi = x // 2, x  # predicate false at lo (or lo < 4), true at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _grh_holds(mid, d, log_D):
                hi = mid
            else:
                lo = mid
        if _grh_holds(hi // 2, d, log_D):
            raise TorsionfreeError("no crossing at half the GRH threshold")
        norm_ = None
        if field is not None:
            norm_ = find_congruence_level(field, 1, scan_cap=scan_cap).norm
        return GrhReport(
            d=d, log_D=mpf(log_D), threshold_x=hi,
            li_at_threshold=logarithmic_integral(hi),
            err_at_threshold=grh_error(hi, d, log_D),
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


def volume_index_bound_grh(v, dim_H: int, epsilon, prasad_c1, prasad_c2, lemma_C):
    """lemma_C * ((c1 + c2) log v)^((2 + eps) dim H), the volume-only form."""
    if dim_H < 1:
        raise PreconditionError("dim_H must be >= 1")
    from mpmath import mp, workdps
    with workdps(MP_DPS):
        vm = _finite("v", v)
        if vm <= mp.e:
            raise PreconditionError("need v > e so that log v > 1")
        base = (_finite("prasad_c1", prasad_c1)
                + _finite("prasad_c2", prasad_c2)) * mp.log(vm)
        return _finite("lemma_C", lemma_C) * \
            base ** ((2 + _finite("epsilon", epsilon)) * dim_H)


def generator_bound_pipeline(v, alpha, c, f_form: str = "power"):
    """(f(v log^c v) + log log v) / v with f(u) = u^(1-alpha) or (log u)^alpha."""
    from mpmath import mp, workdps
    with workdps(MP_DPS):
        vm = _finite("v", v)
        if vm <= mp.e ** mp.e:
            raise PreconditionError("need v > e^e so that log log v > 1")
        alpha, c = _finite("alpha", alpha), _finite("c", c)
        u = vm * mp.log(vm) ** c
        if f_form == "power":
            fu = u ** (1 - alpha)
        elif f_form == "polylog":
            fu = mp.log(u) ** alpha
        else:
            raise PreconditionError(f"unsupported f_form: {f_form!r}")
        return (fu + mp.log(mp.log(vm))) / vm
