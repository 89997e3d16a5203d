"""Exact polynomial arithmetic: Z[x] basics, cyclotomic and cosine minimal
polynomials, factorization mod p, real root isolation."""

from .poly import (
    IntPoly,
    discriminant,
    resultant,
)
from .cyclotomic import (
    cyclotomic_poly,
    isolate_two_cos_roots,
    minpoly_two_cos_conductor,
    two_cos_discriminant,
)
from .modp import factor_mod_p
from .roots import (
    compare_root,
    isolate_real_roots,
    root_bound,
    sign_at_root,
    sturm_sequence,
)

__all__ = [
    "IntPoly",
    "compare_root",
    "cyclotomic_poly",
    "discriminant",
    "factor_mod_p",
    "isolate_real_roots",
    "isolate_two_cos_roots",
    "minpoly_two_cos_conductor",
    "resultant",
    "root_bound",
    "sign_at_root",
    "sturm_sequence",
    "two_cos_discriminant",
]
