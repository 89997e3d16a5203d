"""Configuration of the constants no published value pins down.

Every constant here except prime_scan_cap is an illustrative default: the
asymptotic statements leave c1, c2, a, b, the lemma constant C and the
epsilon margin unspecified, so silent defaults would launder invented
numbers into results. Loading gives one warning line per defaulted
constant, which a command prints when it reads that constant; a config file
(JSON object, same keys) or the TORSIONFREE_CONFIG env var overrides. Every
value must be finite and positive, and prime_scan_cap an integer (3.0 is
read as 3). A config path that does not exist is bad input, not a reason
to fall back on the defaults.
"""

from __future__ import annotations

import json
import os
from math import isfinite

from .errors import PreconditionError
from .selberg import PRIME_SCAN_CAP

ENV_VAR = "TORSIONFREE_CONFIG"

ILLUSTRATIVE = ("prasad_c1", "prasad_c2", "belolipetsky_a", "belolipetsky_b",
                "epsilon", "lemma_C")

_DEFAULTS = {"prasad_c1": 1.0, "prasad_c2": 1.0, "belolipetsky_a": 1.0,
            "belolipetsky_b": 1.0, "epsilon": 0.1,
            "prime_scan_cap": PRIME_SCAN_CAP, "lemma_C": 1.0}
KEYS = tuple(_DEFAULTS)


class Config:
    """The constants of one run, one attribute per key of KEYS. Each value
    is checked on construction: numeric and not bool, finite and positive;
    prime_scan_cap is stored as an int, and a fractional one is refused."""

    __slots__ = KEYS

    def __init__(self, **values):
        unknown = values.keys() - _DEFAULTS.keys()
        if unknown:
            raise TypeError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for name in KEYS:
            v = values.get(name, _DEFAULTS[name])
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise PreconditionError(f"{name} must be numeric")
            if isinstance(v, float) and not isfinite(v):
                raise PreconditionError(f"{name} must be finite")
            if v <= 0:
                raise PreconditionError(f"{name} must be positive")
            setattr(self, name, v)
        if int(self.prime_scan_cap) != self.prime_scan_cap:
            raise PreconditionError("prime_scan_cap must be an integer")
        self.prime_scan_cap = int(self.prime_scan_cap)


def load_config(path: str | None = None
                ) -> tuple[Config, list[str], dict[str, str]]:
    """Config, the notes about the config file the caller should print to
    stderr, and a warning line for each illustrative constant left at its
    default, keyed by name."""
    notes: list[str] = []
    source = path or os.environ.get(ENV_VAR)
    data: dict = {}
    if source:
        if not os.path.exists(source):
            raise PreconditionError(f"config file {source} not found")
        with open(source) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise PreconditionError(
                    f"config file {source} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise PreconditionError("config file must hold a JSON object")
    else:
        notes.append("no config file given; defaults in effect")
    unknown = sorted(set(data) - set(KEYS))
    if unknown:
        raise PreconditionError(f"unknown config keys: {', '.join(unknown)}")
    cfg = Config(**data)
    defaulted = {name: f"warning: {name} = {getattr(cfg, name)} is an "
                       "illustrative default, not a published value"
                 for name in ILLUSTRATIVE if name not in data}
    return cfg, notes, defaulted
