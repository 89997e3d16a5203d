"""Deterministic report serialization.

Every command emits one JSON document built here so the bytes are stable:
keys sorted, floats printed through mpmath at a fixed 17 significant digits,
big integers as decimal strings. mpmath is imported by the first number
printed, so a report without one never loads it. MP_DPS is the working
precision of every mpmath computation in the package.
"""

from __future__ import annotations

import json

from . import __version__

GENERATED_BY = f"torsionfree {__version__}"
MP_DPS = 30


def mpf_str(x) -> str:
    from mpmath import mpf, nstr, workdps
    with workdps(MP_DPS):
        return nstr(mpf(x), 17)


def envelope(report: dict) -> dict:
    return {"report": report, "generated_by": GENERATED_BY}


def dumps_report(report: dict) -> str:
    return json.dumps(envelope(report), indent=2, sort_keys=True) + "\n"
