import os
import subprocess
import sys
from pathlib import Path

import pytest

import torsionfree
from torsionfree.numfield import make_cosine_field, make_field
from torsionfree.polyalg import IntPoly

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

CONSTRUCTION_PRIMES = (5, 7, 11, 13)

# The directory that holds the imported torsionfree package, whether it is
# installed or only on PYTHONPATH.
PACKAGE_PARENT = str(Path(torsionfree.__file__).resolve().parent.parent)


@pytest.fixture(scope="session")
def field_q():
    return make_field(IntPoly((-1, 1)))


@pytest.fixture(scope="session")
def field_sqrt2():
    return make_field(IntPoly((-2, 0, 1)))


@pytest.fixture(scope="session")
def cosine_fields():
    return {p: make_cosine_field(p) for p in CONSTRUCTION_PRIMES}


def factor_degrees_mod_p(coeffs, p):
    """The degrees of the distinct irreducible factors of f mod p, f given
    by its coefficients lowest first, from sympy's factorisation over F_p:
    an oracle that shares no code with the program's distinct-degree
    factorization."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_from_int_poly
    _lc, factors = gf_factor(gf_from_int_poly(list(reversed(coeffs)), p),
                             p, ZZ)
    return [len(g) - 1 for g, _e in factors]


def child_env(**extra):
    """Environment for a child interpreter that imports this torsionfree.

    Starts from os.environ without TORSIONFREE_CONFIG, puts PACKAGE_PARENT
    first on PYTHONPATH, then applies ``extra``.
    """
    env = os.environ.copy()
    env.pop("TORSIONFREE_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_PARENT, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def run_cli(*args, env_extra=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "torsionfree.cli", *args],
                          capture_output=True, text=True,
                          env=child_env(**(env_extra or {})))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="session")
def cli():
    return run_cli
