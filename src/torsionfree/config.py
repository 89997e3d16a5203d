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
from dataclasses import dataclass, fields
from math import isfinite

from .errors import PreconditionError

ENV_VAR = "TORSIONFREE_CONFIG"

ILLUSTRATIVE = ("prasad_c1", "prasad_c2", "belolipetsky_a", "belolipetsky_b",
                "epsilon", "lemma_C")


@dataclass(frozen=True)
class Config:
    prasad_c1: float = 1.0
    prasad_c2: float = 1.0
    belolipetsky_a: float = 1.0
    belolipetsky_b: float = 1.0
    epsilon: float = 0.1
    prime_scan_cap: int = 10**6
    lemma_C: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise PreconditionError(f"{f.name} must be numeric")
            if isinstance(v, float) and not isfinite(v):
                raise PreconditionError(f"{f.name} must be finite")
            if v <= 0:
                raise PreconditionError(f"{f.name} must be positive")
        if int(self.prime_scan_cap) != self.prime_scan_cap:
            raise PreconditionError("prime_scan_cap must be an integer")
        object.__setattr__(self, "prime_scan_cap", int(self.prime_scan_cap))


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
    known = {f.name for f in fields(Config)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise PreconditionError(f"unknown config keys: {', '.join(unknown)}")
    cfg = Config(**data)
    defaulted = {name: f"warning: {name} = {getattr(cfg, name)} is an "
                       "illustrative default, not a published value"
                 for name in ILLUSTRATIVE if name not in data}
    return cfg, notes, defaulted
