import random
import subprocess
import sys
from math import isqrt

import numpy as np
import pytest

from torsionfree import _kernels, ntheory
from torsionfree._kernels import (IMPLEMENTATION, poly_root_count_over_primes,
                                  prime_count_in_classes)
from torsionfree.ntheory import (is_prime, prime_blocks, primes_in_range,
                                 primes_upto, progression_blocks)
from torsionfree.polyalg import IntPoly, roots_mod_p


def brute_root_count(coeffs, lo, hi):
    f = IntPoly(tuple(coeffs))
    return sum(len(roots_mod_p(f, q)) for q in primes_in_range(lo, hi))


def brute_class_count(lo, hi, modulus, residues):
    """The class count by trial primality, one integer at a time."""
    classes = {r % modulus for r in residues}
    return sum(1 for q in range(max(lo, 0), hi) if is_prime(q)
               and (modulus == 1 or q % modulus in classes))


def plain_sieve(hi):
    """Primes below hi from one unsegmented sieve over every integer."""
    flags = np.ones(hi, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(hi - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


class TestPrimeCounts:
    def test_range_against_sieve(self):
        assert prime_count_in_classes(2, 100, 1, ()) == 25
        assert prime_count_in_classes(2, 10**5, 1, ()) == 9592
        assert prime_count_in_classes(100, 200, 1, ()) == \
            len(primes_in_range(100, 200))
        assert prime_count_in_classes(10, 10, 1, ()) == 0

    def test_half_open_convention(self):
        # 97 prime, 98 not: [2, 97) excludes 97
        assert len(primes_in_range(2, 97)) == 24
        assert prime_count_in_classes(2, 97, 1, ()) == 24
        assert prime_count_in_classes(2, 98, 1, ()) == 25
        assert prime_count_in_classes(97, 98, 1, ()) == 1

    def test_classes(self):
        # primes = 1 or 12 mod 13 below 1000
        want = sum(1 for q in primes_upto(999) if q % 13 in (1, 12))
        assert prime_count_in_classes(2, 1000, 13, (1, 12)) == want
        # a class sharing the factor g with the modulus holds g alone, when g
        # is prime and in the class
        assert prime_count_in_classes(2, 100, 13, (0,)) == 1
        cases = [
            (14, 100, 13, (0,)), (2, 13, 13, (0,)),
            (2, 100, 12, (2,)), (2, 100, 12, (3, 8, 10)),
            # odd moduli: 2 is a base prime, or even values survive
            (2, 3000, 3, (1,)), (2, 3000, 3, (2,)), (2, 5000, 13, (1,)),
            # base primes dividing the modulus mark nothing
            (2, 10**4, 210, (1, 11, 13, 209)),
            # base primes (3, 7, 13, 17, 23) inside the classes count
            (2, 1000, 10, (3, 7)),
            # negative residues, residues >= the modulus, repeats
            (2, 1000, 13, (-1, 1, 14, 25, 12, -12)),
            (50, 10, 13, (1,)), (-5, 100, 4, (1, 3)), (0, 3, 2, (0, 1)),
        ]
        for lo, hi, modulus, residues in cases:
            assert prime_count_in_classes(lo, hi, modulus, residues) == \
                brute_class_count(lo, hi, modulus, residues)

    @pytest.mark.parametrize("block", [None, 5, 64])
    def test_against_primality(self, block, monkeypatch):
        """Random ranges and classes against trial primality; small blocks
        put many segment boundaries inside each range."""
        if block is not None:
            monkeypatch.setattr(ntheory, "_BLOCK", block)
        rng = random.Random(7)
        for _ in range(300):
            lo = rng.choice([rng.randint(0, 40), rng.randint(0, 3000),
                             rng.randint(10**6, 2 * 10**6)])
            hi = lo + rng.randint(-20, 2000)
            n = rng.randint(1, 200)
            residues = tuple(rng.randint(-n, 2 * n)
                             for _ in range(rng.randint(0, 4)))
            assert primes_in_range(lo, hi) == \
                [q for q in range(max(lo, 0), hi) if is_prime(q)]
            assert prime_count_in_classes(lo, hi, n, residues) == \
                brute_class_count(lo, hi, n, residues)

    def test_hi_at_square_of_base_prime(self):
        # l^2 is the first value l marks: hi = l^2 leaves l out of the base
        # primes, hi = l^2 + 1 must still strike l^2
        for l in (2, 3, 5, 7, 11, 97, 101):
            for hi in (l * l, l * l + 1, l * l + 2):
                assert primes_in_range(0, hi) == \
                    [q for q in range(hi) if is_prime(q)]
                for n in (3, 4, 12, 13, 20):
                    residues = ((l * l) % n, (l * l + 2) % n)
                    assert prime_count_in_classes(2, hi, n, residues) == \
                        brute_class_count(2, hi, n, residues)

    def test_long_range(self):
        # more than 2 _BLOCK indices, odd and mod 3, against a plain sieve
        hi = 6 * ntheory._BLOCK + 1001
        want = plain_sieve(hi)
        blocks = list(prime_blocks(2, hi))
        assert blocks[0].tolist() == [2] and len(blocks) > 3
        for a, b in zip(blocks, blocks[1:]):
            assert a.dtype == np.int64 and np.all(np.diff(a) > 0)
            assert len(b) == 0 or len(a) == 0 or a[-1] < b[0]
        assert np.array_equal(np.concatenate(blocks), want)
        for r in (1, 2):
            assert prime_count_in_classes(2, hi, 3, (r,)) == \
                int(np.count_nonzero(want % 3 == r))
        lo = 2 * ntheory._BLOCK + 17
        assert prime_count_in_classes(lo, hi, 1, ()) == \
            int(np.count_nonzero(want >= lo))

    def test_prime_blocks_yields_two_first(self):
        assert [b.tolist() for b in prime_blocks(2, 3)] == [[2]]
        assert [b.tolist() for b in prime_blocks(-7, 12)][0] == [2]
        assert 2 not in primes_in_range(3, 50)
        assert list(prime_blocks(3, 3)) == [] and list(prime_blocks(9, 4)) == []

    def test_rejections(self):
        with pytest.raises(ValueError):
            prime_count_in_classes(2, (1 << 62) + 1, 13, (1, 12))
        with pytest.raises(ValueError):
            prime_count_in_classes(2, 100, 0, (1,))
        with pytest.raises(ValueError):
            next(progression_blocks(2, 100, 12, 2))

    def test_modulus_one_counts_all(self):
        assert prime_count_in_classes(2, 1000, 1, (0,)) == \
            len(primes_in_range(2, 1000))

    def test_one_backend(self):
        assert IMPLEMENTATION == "pure"


class TestRootCounts:
    def test_against_bruteforce(self):
        rng = random.Random(404)
        for _ in range(20):
            deg = rng.randint(1, 12)
            coeffs = [rng.randint(-30, 30) for _ in range(deg)] + [1]
            got = poly_root_count_over_primes(tuple(coeffs), 2, 2000)
            assert got == brute_root_count(coeffs, 2, 2000)

    def test_large_coefficients(self):
        # coefficients far beyond int64 are reduced limb by limb
        coeffs = (-(3**80) + 7, 5**70, -(2**100), 1)
        got = poly_root_count_over_primes(coeffs, 2, 1500)
        assert got == brute_root_count(coeffs, 2, 1500)

    def test_range_spanning_several_batches(self):
        coeffs = (3, -1, 0, 2, 1, 0, 0, -5, 0, 0, 1, 7, 1)
        batch = _kernels._BATCH_WORDS // 12**2
        assert len(primes_in_range(1000, 9000)) > 3 * batch
        got = poly_root_count_over_primes(coeffs, 1000, 9000)
        assert got == brute_root_count(coeffs, 1000, 9000)

    def test_primes_just_below_cap(self):
        lo, hi = (1 << 31) - 400, 1 << 31
        coeffs = (-2, 0, 1)  # x^2 - 2: two roots exactly when p = +-1 mod 8
        primes = primes_in_range(lo, hi)
        assert primes and primes[-1] == (1 << 31) - 1
        want = sum(2 for q in primes if q % 8 in (1, 7))
        assert poly_root_count_over_primes(coeffs, lo, hi) == want
        coeffs = (-5, 11, 0, -7, 2, 0, 3, 1)
        assert poly_root_count_over_primes(coeffs, lo, hi) == \
            brute_root_count(coeffs, lo, hi)

    def test_repeated_root(self):
        # (x - 1)^2 (x + 2) has the distinct roots 1 and -2, which collide
        # mod 3 only
        coeffs = (2, -3, 0, 1)
        n = len(primes_in_range(2, 500))
        assert poly_root_count_over_primes(coeffs, 2, 500) == 2 * n - 1

    def test_linear_counts_every_prime(self):
        # x - 1 has exactly one root mod every prime
        n = len(primes_in_range(2, 5000))
        assert poly_root_count_over_primes((-1, 1), 2, 5000) == n

    def test_rejections(self):
        with pytest.raises(ValueError):
            poly_root_count_over_primes((1, 2), 2, 100)  # not monic
        with pytest.raises(ValueError):
            poly_root_count_over_primes(tuple([0] * 64 + [1]), 2, 100)
        with pytest.raises(ValueError):
            poly_root_count_over_primes((1,), 2, 100)  # constant
        with pytest.raises(ValueError):
            poly_root_count_over_primes((-2, 0, 1), 2, (1 << 31) + 1)


def test_cli_import_leaves_numpy_unloaded():
    from conftest import child_env
    code = ("import sys, torsionfree.cli; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class TestNtheory:
    def test_is_prime(self):
        assert is_prime(2) and is_prime(97) and is_prime(2**31 - 1)
        assert not is_prime(1) and not is_prime(561) and not is_prime(2**32)

    def test_primes_upto(self):
        ps = primes_upto(100)
        assert len(ps) == 25 and ps[0] == 2 and ps[-1] == 97
        assert primes_upto(1) == [] and primes_upto(2) == [2]

    def test_primes_in_range_matches(self):
        assert primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]
        assert primes_in_range(30, 10) == []

    def test_sieve_against_primality(self):
        lo, hi = 10**9, 10**9 + 2000
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi) if is_prime(n)]
        assert all(type(p) is int for p in primes_in_range(lo, hi))

    def test_factorize(self):
        from torsionfree.ntheory import factorize
        assert factorize(2**5 * 3**2 * 97) == {2: 5, 3: 2, 97: 1}
        assert factorize(1) == {}
