"""Workload inputs drawn from a seed, and the tasks that run them.

Input generation uses only the standard library, so the same seed gives the
same inputs whatever the program under test does. The task functions import
the program lazily; the worker imports it first so that the import cost is
counted in set-up, not in the first task.
"""

from __future__ import annotations

import importlib.util
import random
import subprocess
from pathlib import Path

WORKLOADS = ("cosine-fields", "generic-fields", "cli-cold")

# Modules a fresh interpreter imports before its first task, per workload.
PROGRAM_MODULES = {
    "cosine-fields": ("torsionfree.numfield", "torsionfree.selberg",
                      "torsionfree.construct"),
    "generic-fields": ("torsionfree.numfield", "torsionfree.selberg"),
    "cli-cold": ("torsionfree.cli",),
}

# One prime is drawn from each stratum. Primes in a stratum cost about the
# same through the whole pipeline (pure backend on 2 cores, nominal seconds:
# 1.1-1.4, 1.7-1.8, 4.7, 5.0, 6.5, 7.6-8.1), so the seed changes the inputs
# but barely the total work, and the median task lies between the p = 67 and
# p = 71 ones. p = 71 and 73 differ by 1.3 s, too much to share a stratum.
# p = 89 and 97 are left out: their T search raises ResourceCapError at the
# default cap.
COSINE_STRATA = ((31, 37), (41, 43), (67,), (71,), (73,), (79, 83))
COSINE_X = (95_000_000, 105_000_000)

# One Eisenstein polynomial per degree; X shrinks with the degree so that
# each root-count scan costs about the same.
GENERIC_DEGREES = (6, 7, 8, 9, 10, 11, 12)
GENERIC_X = {6: 32_000, 7: 29_000, 8: 27_000, 9: 25_000, 10: 23_000,
             11: 21_000, 12: 20_000}
GENERIC_X_JITTER = 0.05
EISENSTEIN_PRIMES = (2, 3, 5)

LEVEL_DIM_G = 3


def cosine_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"cosine-fields/{seed}")
    primes = [rng.choice(stratum) for stratum in COSINE_STRATA]
    rng.shuffle(primes)
    X = rng.randint(*COSINE_X)
    return [{"p": p, "X": X} for p in primes]


def eisenstein_poly(rng: random.Random, degree: int) -> tuple[int, tuple[int, ...]]:
    """(r, coefficients lowest degree first) of a monic r-Eisenstein
    polynomial: every lower coefficient divisible by r, the constant term
    not by r^2. Such a polynomial is irreducible over Q."""
    r = rng.choice(EISENSTEIN_PRIMES)
    coeffs = [r * rng.randint(-2, 2) for _ in range(degree)]
    coeffs[0] = r * rng.choice([u for u in range(-3, 4) if u % r])
    return r, tuple(coeffs) + (1,)


def generic_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"generic-fields/{seed}")
    tasks = []
    for d in GENERIC_DEGREES:
        r, coeffs = eisenstein_poly(rng, d)
        jitter = 1 + rng.uniform(-GENERIC_X_JITTER, GENERIC_X_JITTER)
        tasks.append({"coeffs": list(coeffs), "eisenstein_prime": r,
                      "X": int(GENERIC_X[d] * jitter)})
    rng.shuffle(tasks)
    return tasks


def load_golden_cases(root: Path) -> dict[str, list[str]]:
    """The golden CLI commands, as tests/golden/regenerate.py lists them."""
    path = root / "tests" / "golden" / "regenerate.py"
    spec = importlib.util.spec_from_file_location("_golden_regenerate", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: list(args) for name, args in module.CASES.items()}


def cli_inputs(seed: int, root: Path) -> list[dict]:
    cases = load_golden_cases(root)
    names = sorted(cases)
    random.Random(f"cli-cold/{seed}").shuffle(names)
    return [{"name": name, "args": cases[name]} for name in names]


def make_inputs(workload: str, seed: int, root: Path) -> list[dict]:
    """The tasks of one pass, in order."""
    if workload == "cosine-fields":
        return cosine_inputs(seed)
    if workload == "generic-fields":
        return generic_inputs(seed)
    if workload == "cli-cold":
        return cli_inputs(seed, root)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- tasks

def _level_json(lvl) -> list[int]:
    return [lvl.norm, lvl.rational_prime, lvl.inertia, lvl.ramification]


def run_cosine(task: dict) -> dict:
    """The paper's per-p pipeline: field, level, construction, count."""
    from torsionfree.construct import build_construction
    from torsionfree.numfield import count_prime_ideals, make_cosine_field
    from torsionfree.selberg import find_congruence_level

    p = task["p"]
    K = make_cosine_field(p)
    lvl = find_congruence_level(K, LEVEL_DIM_G)
    con = build_construction(p)
    count = count_prime_ideals(K, task["X"])
    return {"p": p, "level": _level_json(lvl), "T": str(con.T),
            "all_checks_pass": con.all_checks_pass(), "count": count}


def run_generic(task: dict) -> dict:
    from torsionfree.numfield import count_prime_ideals, make_field
    from torsionfree.selberg import find_congruence_level

    K = make_field(tuple(task["coeffs"]))
    lvl = find_congruence_level(K, LEVEL_DIM_G)
    count = count_prime_ideals(K, task["X"])
    return {"level": _level_json(lvl), "count": count}


def run_cli(task: dict, argv_prefix: list[str], env: dict, cwd: Path) -> dict:
    """One golden command in a fresh interpreter."""
    proc = subprocess.run([*argv_prefix, *task["args"]], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    return {"code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}
