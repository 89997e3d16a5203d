"""Deterministic report serialization, and the decimal arithmetic behind
every number a report prints.

Every command emits one JSON document built here so the bytes are stable:
keys sorted, real numbers printed by number_str at a fixed 17 significant
digits, big integers as decimal strings. The analytic estimates are
computed with the standard library's decimal module at PRECISION
significant digits, in CONTEXT, whose exponent range is the largest decimal
allows; the functions that compute them are marked with @analytic.
"""

from __future__ import annotations

import json
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal,
                     Overflow, localcontext)
from functools import wraps

from . import __version__
from .errors import ResourceCapError

GENERATED_BY = f"torsionfree {__version__}"
PRECISION = 30
CONTEXT = Context(prec=PRECISION, Emax=MAX_EMAX, Emin=MIN_EMIN)
E = CONTEXT.exp(1)  # e at PRECISION digits, where log v > 1 begins
_SHOWN = Context(prec=17, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)


def analytic(func):
    """Run func in a copy of CONTEXT, so its operators round to PRECISION
    digits whatever the caller's context; a result whose exponent is beyond
    MAX_EMAX raises ResourceCapError."""
    @wraps(func)
    def run(*args, **kwargs):
        with localcontext(CONTEXT):
            try:
                return func(*args, **kwargs)
            except Overflow:
                raise ResourceCapError(f"{func.__name__}: a value exceeds "
                                       f"10^{MAX_EMAX}") from None
    return run


def number_str(x) -> str:
    """x (an int, float or Decimal, converted exactly) rounded half up to 17
    significant digits, trailing zeros stripped but one fractional digit
    kept. Fixed notation when the leading digit's exponent e has
    -5 < e < 17, else d.ddde+N or d.ddde-N."""
    d = _SHOWN.plus(Decimal(x))
    if not d:
        return "0.0"
    sign, digits, _ = d.as_tuple()
    digits = "".join(map(str, digits)).rstrip("0")
    e = d.adjusted()
    head = "-" if sign else ""
    if -5 < e < 17:
        if e < 0:
            whole, frac = "0", "0" * (-e - 1) + digits
        else:
            digits = digits.ljust(e + 1, "0")
            whole, frac = digits[:e + 1], digits[e + 1:]
        return f"{head}{whole}.{frac or '0'}"
    return f"{head}{digits[0]}.{digits[1:] or '0'}e{e:+d}"


def envelope(report: dict) -> dict:
    return {"report": report, "generated_by": GENERATED_BY}


def dumps_report(report: dict) -> str:
    return json.dumps(envelope(report), indent=2, sort_keys=True) + "\n"
