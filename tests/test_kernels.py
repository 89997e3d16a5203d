import functools
import itertools
import json
import random
import subprocess
import sys
import time
from itertools import compress
from math import gcd, isqrt

import numpy as np
import pytest
from conftest import DATA, child_env, factor_degrees_mod_p

from torsionfree import _kernels, ntheory
from torsionfree.errors import ResourceCapError
from torsionfree._kernels import (IMPLEMENTATION, poly_factor_count,
                                  poly_root_count_over_primes,
                                  prime_count_in_classes)
from torsionfree.ntheory import (factorize, is_prime, primes_in_range,
                                 primes_upto, progression_blocks)
from torsionfree.polyalg import IntPoly, discriminant
from torsionfree.polyalg.modp import (gf_gcd, gf_mul, gf_powmod, gf_sub,
                                      gf_trim)


def brute_root_count(coeffs, lo, hi):
    """The distinct roots of f mod q, summed over the primes q in [lo, hi),
    each as deg gcd(f, x^q - x) over F_q in list arithmetic."""
    total = 0
    for q in primes_in_range(lo, hi):
        f = gf_trim([c % q for c in coeffs])
        xq = gf_powmod([0, 1], q, f, q)
        total += len(gf_gcd(f, gf_sub(xq, [0, 1], q), q)) - 1
    return total


def brute_factor_count(coeffs, primes, x):
    """The distinct irreducible factors g of f mod p with p^deg(g) <= x,
    summed over the given primes, from sympy's factorisation mod p."""
    return sum(1 for p in primes for d in factor_degrees_mod_p(coeffs, p)
               if p**d <= x)


def product(*factors):
    """The coefficients of the product of the given coefficient tuples."""
    f = IntPoly((1,))
    for g in factors:
        f = f * IntPoly(g)
    return f.coeffs


def brute_class_count(lo, hi, modulus, residues):
    """The class count by trial primality, one integer at a time."""
    classes = {r % modulus for r in residues}
    return sum(1 for q in range(max(lo, 0), hi)
               if (modulus == 1 or q % modulus in classes) and is_prime(q))


def progression_primes(lo, hi, n, r):
    """The primes of progression_blocks(lo, hi, n, r) as one list, after
    checking that its segments are consecutive and at most _BLOCK long."""
    out, k = [], None
    for v, flags in progression_blocks(lo, hi, n, r):
        assert type(flags) is bytearray and 0 < len(flags) <= ntheory._BLOCK
        assert k is None or v == k
        assert set(flags) <= {0, 1}
        out.extend(compress(range(v, v + n * len(flags), n), flags))
        k = v + n * len(flags)
    return out


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

    @pytest.mark.parametrize("block", [None, 5, 64])
    def test_wheel_edges(self, block, monkeypatch):
        """Moduli on the mod-6 wheel (3 does not divide n: two progressions
        mod lcm(n, 6) per class) and off it, against trial primality:
        classes holding 2 or 3, ranges from below 4, and ends within 2 of
        a value of a progression. With a small block every progression
        spans at least two segments."""
        if block is not None:
            monkeypatch.setattr(ntheory, "_BLOCK", block)
        segments = []

        def spy(lo, hi, n, r):
            blocks = list(progression_blocks(lo, hi, n, r))
            segments.append(len(blocks))
            return blocks

        monkeypatch.setattr(_kernels, "progression_blocks", spy)
        rng = random.Random(28)
        for n in (3, 9, 21, 105, 1, 2, 4, 13, 101, 199):
            N = n * 6 // gcd(n, 6)
            classes = [r for r in range(n) if gcd(r, n) == 1]
            for _ in range(12):
                r = rng.choice(classes)
                residues = {r, rng.choice(classes)}
                residues |= set(rng.sample([2 % n, 3 % n], rng.randint(0, 2)))
                # a value of one progression mod N of the class r
                s = next(q for q in range(r, r + N, n) if gcd(q, 6) == 1)
                lo = rng.choice([0, 1, 2, 3, rng.randint(4, 5 * N)])
                steps = rng.randint(2 * (block or 1) + 2, 3 * (block or 5))
                hi = s + N * (lo // N + steps) + rng.randint(-2, 2)
                segments.clear()
                assert prime_count_in_classes(lo, hi, n, residues) == \
                    brute_class_count(lo, hi, n, residues), (lo, hi, n)
                if block is not None:
                    assert segments and min(segments) >= 2

    def test_wheel_sieves_values_prime_to_6(self, monkeypatch):
        """With 3 not dividing n, no flag sits on a multiple of 3 (nor of
        2), the class count sieves at most about 2/3 of the odd members of
        its classes, and it builds its base-prime table once."""
        flagged = []

        def spy(lo, hi, n, r):
            for v, flags in progression_blocks(lo, hi, n, r):
                flagged.append((v, n, len(flags)))
                yield v, flags

        built = []
        table = ntheory._base_table
        build = table.__wrapped__

        def counted(m, n):
            built.append(n)
            return build(m, n)

        monkeypatch.setattr(_kernels, "progression_blocks", spy)
        monkeypatch.setattr(ntheory, "_base_table",
                            functools.lru_cache(**table.cache_parameters())(
                                counted))
        for n, lo, hi in [(1, 0, 30_000), (2, 5, 20_000), (4, 3, 40_001),
                          (13, 2, 100_003), (101, 10**5, 10**6),
                          (199, 447, 200_000)]:
            flagged.clear()
            built.clear()
            residues = (1, n - 1) if n > 2 else (1,)
            assert prime_count_in_classes(lo, hi, n, residues) == \
                brute_class_count(lo, hi, n, residues)
            N = n * 6 // gcd(n, 6)
            assert built.count(N) == 1
            for v, m, length in flagged:
                assert m == N
                assert all(q % 2 and q % 3 for q in range(v, v + m * length, m))
            odd = sum(1 for q in range(max(lo, 2), hi)
                      if q % 2 and q % n in {r % n for r in residues})
            sieved = sum(length for _v, _m, length in flagged)
            assert sieved <= 2 * odd / 3 + 2 * len(residues)

    def test_frozen_grh_rows(self):
        """The classes +-1 mod n over (sqrt x, x] at x = 2 10^10, for n =
        101 and 199."""
        x = 2 * 10**10
        for n, want in ((101, 17_644_146), (199, 8_912_879)):
            assert prime_count_in_classes(isqrt(x) + 1, x + 1, n,
                                          (1, n - 1)) == want

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
        assert len(list(progression_blocks(2, hi, 2, 1))) > 3
        assert primes_in_range(2, hi) == want.tolist()
        assert [2] + progression_primes(2, hi, 2, 1) == want.tolist()
        for r in (1, 2):
            assert prime_count_in_classes(2, hi, 3, (r,)) == \
                int(np.count_nonzero(want % 3 == r))
        lo = 2 * ntheory._BLOCK + 17
        assert prime_count_in_classes(lo, hi, 1, ()) == \
            int(np.count_nonzero(want >= lo))

    def test_primes_in_range_puts_two_first(self):
        assert primes_in_range(2, 3) == [2]
        assert primes_in_range(-7, 12) == [2, 3, 5, 7, 11]
        assert 2 not in primes_in_range(3, 50)
        assert primes_in_range(3, 3) == [] and primes_in_range(9, 4) == []
        assert list(progression_blocks(3, 3, 2, 1)) == []
        assert list(progression_blocks(9, 4, 2, 1)) == []

    @pytest.mark.parametrize("n", [2, 13])
    def test_ranges_on_block_boundaries(self, n):
        """Ranges that start or end on a _BLOCK boundary of the indices k,
        or one index either side of it: absolute boundaries j _BLOCK, and
        the segment boundary _BLOCK indices past the first."""
        B = ntheory._BLOCK
        want = plain_sieve(n * 3 * B + n)
        for r in {1, n - 1}:
            in_class = want[want % n == r]
            for k0 in (B - 1, B, B + 1):
                for k1 in (k0 + B - 1, k0 + B, k0 + B + 1,
                           2 * B - 1, 2 * B, 2 * B + 1):
                    lo, hi = r + n * k0, r + n * k1
                    got = in_class[(in_class >= lo) & (in_class < hi)]
                    assert progression_primes(lo, hi, n, r) == got.tolist()
                    assert prime_count_in_classes(lo, hi, n, (r,)) == len(got)

    def test_base_prime_inside_range_survives(self):
        # lo <= l < l^2 < hi for a base prime l in the progression: l is
        # kept and l^2 struck
        for lo, hi, n, r, l in [(5, 200, 2, 1, 13), (3, 200, 4, 3, 11),
                                (40, 3000, 13, 1, 53),
                                (100, 11000, 13, 12, 103)]:
            assert l % n == r and lo <= l and l * l < hi
            got = progression_primes(lo, hi, n, r)
            assert l in got and l * l not in got
            assert got == [q for q in range(lo, hi)
                           if q % n == r and is_prime(q)]

    def test_rejections(self):
        with pytest.raises(ValueError):
            prime_count_in_classes(2, (1 << 62) + 1, 13, (1, 12))
        with pytest.raises(ValueError):
            prime_count_in_classes(2, 100, 0, (1,))
        with pytest.raises(ValueError):
            next(progression_blocks(2, 100, 12, 2))

    @pytest.mark.parametrize("size", [1, 7, 4096])
    def test_popcount_in_slices(self, size, monkeypatch):
        # each segment is read in slices of `size` bytes, shorter than the
        # segment, with a short last slice: the counts are those of reads
        # in one slice per segment
        cases = [(2, 3 * 10**6, 1, ()), (10**5, 4 * 10**6 + 3, 13, (1, 12)),
                 (0, 10**6, 101, (1, 100)), (5, 60, 7, (3,))]
        want = [prime_count_in_classes(*case) for case in cases]
        assert want[0] == len(primes_in_range(2, 3 * 10**6))
        lengths = []

        def spy(lo, hi, n, r):
            for v, flags in progression_blocks(lo, hi, n, r):
                lengths.append(len(flags))
                yield v, flags

        monkeypatch.setattr(_kernels, "progression_blocks", spy)
        monkeypatch.setattr(_kernels, "_POPCOUNT_BYTES", size)
        assert [prime_count_in_classes(*case) for case in cases] == want
        assert max(lengths) > size
        assert size == 1 or any(n % size for n in lengths)

    @pytest.mark.parametrize("block", [None, 5, 64])
    def test_base_primes_at_the_range_edge(self, block, monkeypatch):
        """A base prime b at lo + 1, lo or lo - 1, with hi = b^2 + 1 so that
        b is the largest base prime and b^2 the last value: inside the
        range b survives and b^2 is struck; below it, b strikes from the
        first index of the segment where it goes live."""
        if block is not None:
            monkeypatch.setattr(ntheory, "_BLOCK", block)
        prime = [is_prime(q) for q in range(211 * 211 + 2)]
        for b in primes_upto(211):
            hi = b * b + 1
            for lo in (b - 1, b, b + 1):
                want = [q for q in range(lo, hi) if prime[q]]
                assert primes_in_range(lo, hi) == want, (b, lo)
                for n in (1, 4, 13, 30):
                    classes = {b % n, (b * b) % n}
                    assert prime_count_in_classes(lo, hi, n, tuple(classes)) \
                        == sum(1 for q in want
                               if n == 1 or q % n in classes), (b, lo, n)

    @pytest.mark.parametrize("n, r", [(2, 1), (78, 7)])
    def test_base_primes_go_live_at_their_squares(self, n, r, monkeypatch):
        """Over a range far above sqrt(hi), a base prime strikes nothing
        before the segment that holds its square: a segment makes at most
        one strike per base prime b with b^2 at most its last value. A
        base prime live from the first segment would loop in every one."""
        lo, hi = 10**4 + 1, 10**6
        # built, and cached, before the spy counts strikes
        base, _u = ntheory._base_table(isqrt(hi - 1) + 1, n)
        monkeypatch.setattr(ntheory, "_BLOCK", 64)
        strikes = [0]

        def counting(*args):
            # a strike's source is bytearray(c); the flags come from
            # bytearray(b"\x01")
            if len(args) == 1 and type(args[0]) is int:
                strikes[-1] += 1
            return bytearray(*args)

        monkeypatch.setattr(ntheory, "bytearray", counting, raising=False)
        segments = 0
        for v, flags in progression_blocks(lo, hi, n, r):
            last = v + n * (len(flags) - 1)
            assert strikes[-1] <= sum(1 for b in base if b * b <= last)
            strikes.append(0)
            segments += 1
        assert segments > 100 and sum(strikes) > 0

    @pytest.mark.parametrize("block", [64, 1000])
    def test_each_segment_stands_alone(self, block, monkeypatch):
        """No state passes from one segment to the next: every segment of
        a range is the one segment of the range it covers, and its flags
        are is_prime on its values, with lo below, among or above the
        base primes."""
        monkeypatch.setattr(ntheory, "_BLOCK", block)
        rng = random.Random(45)
        multi = 0  # ranges of three segments or more
        for _ in range(100):
            n = rng.choice([1, 2, 6, 13, 30, 78, rng.randint(1, 200)])
            r = rng.choice([r for r in range(n) if gcd(r, n) == 1])
            hi = rng.randint(100, 40_000)
            root = isqrt(hi - 1)
            lo = rng.choice([rng.randint(0, 2), rng.randint(3, root),
                             rng.randint(root + 1, hi)])
            segments = list(progression_blocks(lo, hi, n, r))
            multi += len(segments) > 2
            for v, flags in segments:
                end = v + n * len(flags)
                assert list(progression_blocks(v, end, n, r)) == \
                    [(v, flags)], (lo, hi, n, r, v)
                assert flags == bytearray(
                    is_prime(q) for q in range(v, end, n)), (lo, hi, n, r, v)
        assert multi > 20

    @pytest.mark.parametrize("length", [0, 1, 32_768, 65_519, 3 * 65_519 + 7])
    def test_flag_count_all_ones(self, length):
        # a chunk of at most 65,519 ones sums below the Adler-32 modulus
        # 65,521 less 1, so its checksum's low half reads exactly
        assert _kernels._flag_count(bytearray(b"\x01") * length) == length
        assert _kernels._flag_count(bytearray(length)) == 0

    def test_flag_count_random(self):
        rng = random.Random(36)
        low_bit = bytes(i & 1 for i in range(256))
        for length in (1, 2, 1000, 65_518, 65_519, 65_520, 131_039,
                       ntheory._BLOCK, ntheory._BLOCK + 3):
            flags = bytearray(rng.randbytes(length).translate(low_bit))
            assert _kernels._flag_count(flags) == sum(flags), length

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

    def test_range_spanning_several_batches(self, monkeypatch):
        # a batch of 200 columns, so the 955 primes run in 5 batches
        monkeypatch.setattr(_kernels, "_BATCH_WORDS", 12 * 200)
        coeffs = (3, -1, 0, 2, 1, 0, 0, -5, 0, 0, 1, 7, 1)
        batch = _kernels._BATCH_WORDS // 12
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

    def test_frozen_powers_just_below_cap(self):
        # x^e mod f for random e < 2^31, e = p and e = (p + 1)/2 at the
        # primes where a square sums two products at a time: the degrees
        # stay as frozen, with the products written into per-batch buffers
        data = json.loads((DATA / "power_gcd_boundary.json").read_text())
        P = np.array(data["primes"], dtype=np.int64)
        assert _kernels._lazy_terms(int(P.max()) - 1) == 2
        assert [len(row["coeffs"]) - 1 for row in data["rows"]] == [2, 5, 12, 30]
        for row in data["rows"]:
            E = np.array(row["exponents"], dtype=np.int64)
            got = _kernels._power_gcd_degrees(tuple(row["coeffs"]), P, E)
            assert got.tolist() == row["degrees"]

    @pytest.mark.parametrize("coeffs, lo, hi", [
        ((-20402, 0, 1), 2, 20_000),            # disc 2^3 101^2
        ((-(2**31 - 1), 0, 1), 2**31 - 400, 2**31),
        ((3, -1, 0, 2, 1, 0, 0, -5, 0, 0, 1, 7, 1), 2, 9000),
        ((1, 1, 1, 1, 1, 1), 3, 5000)])        # x^6 - 1 over x - 1
    def test_primes_dividing_disc(self, coeffs, lo, hi, monkeypatch):
        # the primes of the range that divide disc(f), read on the kernel's
        # own batches (200 columns here), and the same root count as
        # without the list
        monkeypatch.setattr(_kernels, "_BATCH_WORDS", 200 * (len(coeffs) - 1))
        disc = discriminant(IntPoly(coeffs))
        dividing: list[int] = []
        got = poly_root_count_over_primes(coeffs, lo, hi, disc=disc,
                                          dividing=dividing)
        assert got == poly_root_count_over_primes(coeffs, lo, hi)
        assert dividing == [p for p in primes_in_range(lo, hi) if disc % p == 0]
        assert dividing

    def test_lazy_terms_fit_int64(self):
        # k products of residues <= m plus one residue stay in int64, and
        # k + 1 would not
        for m in (2, 3, 180, 32_999, 1 << 20, (1 << 31) - 2):
            k = _kernels._lazy_terms(m)
            assert k >= 1
            assert k * m * m + m <= 2**63 - 1 < (k + 1) * m * m + m
        # one reduction per square below the workload's 33,000; chunks of
        # two terms just below the cap
        assert _kernels._lazy_terms(32_999) >= _kernels._MAX_DEGREE
        assert _kernels._lazy_terms((1 << 31) - 2) == 2

    @pytest.mark.parametrize("d", [20, 63])
    def test_high_degree_just_below_cap(self, d):
        # (x - 1)(x + 2)(x - 5) g with g random: at least three roots mod
        # every prime here, each square summed two products at a time
        rng = random.Random(d)
        f = IntPoly((-1, 1)) * IntPoly((2, 1)) * IntPoly((-5, 1)) * IntPoly(
            tuple(rng.randint(-10**6, 10**6) for _ in range(d - 3)) + (1,))
        lo, hi = (1 << 31) - 240, 1 << 31
        got = poly_root_count_over_primes(f.coeffs, lo, hi)
        assert got == brute_root_count(f.coeffs, lo, hi)
        assert got >= 3 * len(primes_in_range(lo, hi))

    def test_degree_63_small_primes(self):
        rng = random.Random(63)
        coeffs = tuple(rng.randint(-99, 99) for _ in range(63)) + (1,)
        assert poly_root_count_over_primes(coeffs, 2, 600) == \
            brute_root_count(coeffs, 2, 600)

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
        # x(x - 1)(x - 2)(x - 3)(x + 1)(x + 2) has six distinct roots mod
        # every p > 5, so x^p = x mod f and the gcd starts finished; mod 2,
        # 3 and 5 the roots collide to 2, 3 and 5 of them
        f = IntPoly((0, 1))
        for r in (1, 2, 3, -1, -2):
            f = f * IntPoly((-r, 1))
        assert poly_root_count_over_primes(f.coeffs, 2, 5000) == \
            2 + 3 + 5 + 6 * (n - 3) == 4006

    def test_rejections(self):
        with pytest.raises(ValueError):
            poly_root_count_over_primes((1, 2), 2, 100)  # not monic
        with pytest.raises(ValueError):
            poly_root_count_over_primes(tuple([0] * 64 + [1]), 2, 100)
        with pytest.raises(ValueError):
            poly_root_count_over_primes((1,), 2, 100)  # constant
        with pytest.raises(ValueError):
            poly_root_count_over_primes((-2, 0, 1), 2, (1 << 31) + 1)


def brute_power_gcd(coeffs, p, e):
    """deg gcd(f, x^e - x) over F_p in list arithmetic."""
    f = gf_trim([c % p for c in coeffs])
    b = gf_sub(gf_powmod([0, 1], e, f, p), [0, 1], p)
    return len(gf_gcd(f, b, p)) - 1


# the four largest primes below 2^31, where a sum holds two products
_TOP_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)


class TestPowerGcdDegrees:
    """_power_gcd_degrees column by column against gf_powmod and gf_gcd:
    exponents whose top t = floor(log2 d) bits, which start the power as a
    monomial, take every value, next to shorter exponents in the same
    batch."""

    @staticmethod
    def exponents(rng, d, bits):
        t = d.bit_length() - 1
        s = bits - t
        out = [max(2, v << s | rng.getrandbits(s)) for v in range(1 << t)]
        out += [1 << (b - 1) | rng.getrandbits(b - 1) for b in range(2, bits)]
        return out + [2, 3]

    @staticmethod
    def check(coeffs, primes, exponents):
        P = np.array([primes[i % len(primes)]
                      for i in range(len(exponents))], dtype=np.int64)
        E = np.array(exponents, dtype=np.int64)
        got = _kernels._power_gcd_degrees(tuple(coeffs), P, E).tolist()
        assert got == [brute_power_gcd(coeffs, p, e)
                       for p, e in zip(P.tolist(), exponents)]

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 15, 16, 63])
    def test_against_powmod(self, d):
        rng = random.Random(1000 + d)
        bits = 12 if d == 63 else 16
        exponents = self.exponents(rng, d, bits)
        assert max(exponents).bit_length() == bits
        assert len({e >> (bits - d.bit_length() + 1) for e in exponents}) \
            == 1 << d.bit_length() - 1
        # x - 1, x + 1 and x planted next to random factors; residues p - 1
        # in F (the coefficients -1) and in -F (the coefficients 1)
        planted = [(-1, 1), (1, 1), (0, 1)][: min(d, 3)]
        rest = tuple(rng.randint(-10**6, 10**6) for _ in range(d - 3)) + (1,)
        polys = [product(*planted, rest), (-1,) * d + (1,), (1,) * (d + 1)]
        for coeffs in polys if d < 63 else polys[:1]:
            assert len(coeffs) == d + 1 and coeffs[-1] == 1
            for primes in ((2, 3, 5, 7, 11, 101, 65_537), _TOP_PRIMES):
                self.check(coeffs, primes, exponents)

    @pytest.mark.parametrize("d", [4, 16, 63])
    def test_exponents_below_the_monomial_bits(self, d):
        # every exponent has at most t bits: the start is x^e itself and
        # no square runs
        rng = random.Random(d)
        coeffs = tuple(rng.randint(-99, 99) for _ in range(d)) + (1,)
        t = d.bit_length() - 1
        exponents = list(range(2, 1 << t))
        self.check(coeffs, (3, 13, (1 << 31) - 1), exponents)

    @pytest.mark.parametrize("d", [2, 6, 12, 20])
    @pytest.mark.parametrize("digits", [1, 30])
    def test_coefficient_sizes(self, d, digits):
        # |coefficient| <= 15, where each fold row multiplies the bound by
        # at most 16, so below 2^16 a fold reduces few rows or none, and
        # 30-digit coefficients, where |x^d mod f| reaches p - 1 and every
        # fold row reduces; at small primes, primes just below 33,000 and
        # the top primes
        rng = random.Random(100 * d + digits)
        top = 15 if digits == 1 else 10**30
        coeffs = tuple(rng.randint(-top, top) for _ in range(d)) + (1,)
        exponents = self.exponents(rng, d, 31)
        for primes in ((2, 3, 5, 7, 11, 13, 101),
                       tuple(primes_in_range(32_900, 33_000)), _TOP_PRIMES):
            self.check(coeffs, primes, exponents + list(primes))

    def test_every_reduce_branch_under_a_lower_int64_cap(self, monkeypatch):
        # with _INT64_MAX at 2^40 - 1 the bounds reach it sooner: near 2^15
        # the fold reduces a row and the divsteps their arrays; near
        # 741,000 only two products fit on a residue (_lazy_terms is 2),
        # so the cross products and the fold's rows below row r reduce too.
        # Each answer still matches the oracle.
        monkeypatch.setattr(_kernels, "_INT64_MAX", (1 << 40) - 1)
        calls, fmod = set(), np.fmod

        def spy(x, y, out):
            caller = sys._getframe(1).f_code.co_name
            calls.add((caller, out.shape[0] if out.ndim == 2 else None))
            return fmod(x, y, out=out)

        monkeypatch.setattr(np, "fmod", spy)
        rng = random.Random(40)
        d = 12
        near_cap = tuple(primes_in_range(741_300, 741_455))
        assert _kernels._lazy_terms(near_cap[-1] - 1) == 2
        for primes in (tuple(primes_in_range(32_700, 32_768)), near_cap):
            for top in (15, 10**30):
                coeffs = tuple(rng.randint(-top, top) for _ in range(d)) + (1,)
                self.check(coeffs, primes,
                           self.exponents(rng, d, 31) + list(primes))
        square = {rows for caller, rows in calls if caller == "square"}
        assert {None, 2 * d} <= square  # a fold row, the cross products
        assert any(d < rows < 2 * d for rows in square if rows)  # below r
        divsteps = {rows for caller, rows in calls if caller == "_gcd_degrees"}
        assert None in divsteps and len(divsteps) > 1  # g(0), f and g


def random_monic(rng, k, p):
    return [rng.randrange(p) for _ in range(k)] + [1]


class TestGcdDegrees:
    """_gcd_degrees on its own, column by column against the degree of
    gf_gcd: each column is a prime p, a monic f of degree d and a b of
    degree below d."""

    @staticmethod
    def check(columns, d, signed=False):
        P = np.array([p for p, _f, _b in columns], dtype=np.int64)
        F = np.array([f[:d] for _p, f, _b in columns], dtype=np.int64).T % P
        B = np.array([b + [0] * (d - len(b)) for _p, _f, b in columns],
                     dtype=np.int64).T % P
        if signed:  # 0 as -p, p - 1 as itself, any other r as r or r - p
            lift = np.random.default_rng(d).integers(0, 2, (2, d, len(P)))
            for A, up in zip((F, B), lift):
                A -= np.where(A == 0, 1, np.where(A == P - 1, 0, up)) * P
            assert (B >= -P).all() and (B < P).all()
        got = _kernels._gcd_degrees(F, B, P).tolist()
        want = [len(gf_gcd(gf_trim([c % p for c in f]),
                           gf_trim([c % p for c in b]), p)) - 1
                for p, f, b in columns]
        assert got == want
        return got

    @pytest.mark.parametrize("d", [1, 2, 5, 12, 30, 63])
    def test_planted_common_factor(self, d):
        # f = g h and b = g r with g monic of every degree k = 0 .. d, so
        # deg gcd >= k (more when h and r share a factor by chance)
        rng = random.Random(d)
        primes = [2, 3, 5, 7, 101, 65_537, 1_000_003, (1 << 31) - 1]
        columns, planted = [], []
        for k in range(d + 1):
            for p in primes:
                g = random_monic(rng, k, p)
                f = gf_mul(g, random_monic(rng, d - k, p), p)
                r = [rng.randrange(p) for _ in range(d - k)]
                columns.append((p, f, gf_mul(g, gf_trim(r), p)))
                planted.append(k)
        got = self.check(columns, d)
        assert all(k <= n <= d for k, n in zip(planted, got))

    @pytest.mark.parametrize("d", [1, 2, 5, 12, 30, 63])
    def test_zero_and_constant_b(self, d):
        # b = 0 leaves all of f, so the answer is d; a nonzero constant b
        # is a unit, so it is 0
        rng = random.Random(100 + d)
        columns = [(p, random_monic(rng, d, p), b)
                   for p in (2, 3, 5, 97, (1 << 31) - 1)
                   for b in ([], [1], [p - 1])]
        assert self.check(columns, d) == [d, 0, 0] * 5

    def test_repeated_factors(self):
        # f = g^3 h^2 s, b = g^2 h t: the gcd keeps only what b holds
        rng = random.Random(7)
        for p in (2, 3, 5, 13, 10_007, (1 << 31) - 1):
            columns = []
            for _ in range(20):
                g, h = random_monic(rng, 2, p), random_monic(rng, 1, p)
                f = gf_mul(gf_mul(gf_mul(g, g, p), gf_mul(g, h, p), p),
                           gf_mul(h, random_monic(rng, 3, p), p), p)
                b = gf_mul(gf_mul(g, g, p), gf_mul(h, [rng.randrange(p)
                                                      for _ in range(4)], p), p)
                columns.append((p, f, b))
            assert len(columns[0][1]) == 12
            self.check(columns, 11)
        # (x - 1)^6 and x - 1 times every power of it below 6
        p = 3
        f = [1]
        for _ in range(6):
            f = gf_mul(f, [p - 1, 1], p)
        b, columns = [1], []
        for _ in range(6):
            columns.append((p, f, b))
            b = gf_mul(b, [p - 1, 1], p)
        assert self.check(columns, 6) == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_pair_over_small_fields(self, p):
        # every monic f of degree 3 and every b of degree below 3
        columns = [(p, list(f) + [1], list(b))
                   for f in itertools.product(range(p), repeat=3)
                   for b in itertools.product(range(p), repeat=3)]
        self.check(columns, 3)

    @pytest.mark.parametrize("d", [1, 2, 5, 12, 30, 63])
    def test_int64_extreme(self, d):
        # every residue p - 1 at the largest primes below 2^31: each
        # product (p - 1)^2 is just below 2^62
        primes = [q for q in range(1 << 31, (1 << 31) - 200, -1)
                  if is_prime(q)][:4]
        columns = [(p, [p - 1] * d + [1], [p - 1] * d) for p in primes]
        columns += [(p, [p - 1] * d + [1], [p - 1] * (d - 1)) for p in primes]
        self.check(columns, d)

    @pytest.mark.parametrize("d", [1, 2, 5, 12, 30, 63])
    def test_signed_residues(self, d):
        # F and b as signed residues in [-p, p), as _power_gcd_degrees
        # hands them in: -p and p - 1 at the top primes, where 2 m (m + 1)
        # is just below 2^63, next to random pairs with a planted factor
        rng = random.Random(300 + d)
        columns = []
        for p in (2, 3, 5, 97, 32_987, *_TOP_PRIMES):
            columns += [(p, [0] * d + [1], []), (p, [0] * d + [1], [1]),
                        (p, [p - 1] * d + [1], [p - 1] * d),
                        (p, [0] * d + [1], [p - 1] * d),
                        (p, [p - 1] * d + [1], [0] * (d - 1) + [1])]
            for k in range(d + 1):
                g = random_monic(rng, k, p)
                f = gf_mul(g, random_monic(rng, d - k, p), p)
                r = [rng.randrange(p) for _ in range(d - k)]
                columns.append((p, f, gf_mul(g, gf_trim(r), p)))
        got = self.check(columns, d, signed=True)
        assert got[:5] == [d, 0, 0, 0, 0]


class TestFactorCounts:
    def test_repeated_factors_at_2_and_3(self):
        # Eisenstein at 2 and at 3: f = x^d mod p, one factor of degree 1
        # with multiplicity d; then squares of irreducible factors mod 2
        # and mod 3 next to simple ones
        cases = [(2, 2, 0, 0, 0, 0, 1), (3, -3, 6, 0, 3, 1),
                 product((1, 1, 1), (1, 1, 1), (1, 1, 0, 1), (3, 0, 1)),
                 product((1, 0, 1), (1, 0, 1), (1, 0, 1), (2, 2, 0, 1),
                         (2, 2, 0, 1)),
                 product((-2, 1), (-2, 1), (-2, 1), (-2, 1), (1, 1, 0, 0, 1))]
        for coeffs in cases:
            for x in (2, 3, 8, 9, 30, 81, 1000, 10**5):
                for primes in ([2], [3], [2, 3], primes_upto(50)):
                    assert poly_factor_count(coeffs, primes, x) == \
                        brute_factor_count(coeffs, primes, x), (coeffs, x)

    @pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
    def test_every_irreducible_of_one_degree(self, p, k):
        # f is the product of all monic irreducibles of degree k mod p (for
        # k <= 3, those without a root), times x - 1: N_k is their number,
        # large enough that the Moebius step must subtract i N_i for every
        # proper divisor i of j, not N_i or nothing
        irreducibles = [
            (*c, 1) for c in itertools.product(range(p), repeat=k)
            if all(sum(a * r**i for i, a in enumerate((*c, 1))) % p
                   for r in range(p))]
        coeffs = product((-1, 1), *irreducibles)
        for j in range(1, 13):
            for x in (p**j - 1, p**j):
                if 2 <= x < 1 << 31:
                    assert poly_factor_count(coeffs, [p], x) == \
                        brute_factor_count(coeffs, [p], x), x
        assert poly_factor_count(coeffs, [p], p**k) == 1 + len(irreducibles)

    def test_x_at_prime_powers(self):
        # x = p^j counts the factors of degree j at p, x = p^j - 1 does not
        rng = random.Random(8)
        for _ in range(3):
            coeffs = tuple(rng.randint(-20, 20) for _ in range(8)) + (1,)
            for p in (2, 3, 5, 7):
                for j in range(1, 9):
                    for x in (p**j - 1, p**j):
                        if not 2 <= x <= 10**5:
                            continue
                        primes = primes_upto(isqrt(x))
                        assert poly_factor_count(coeffs, primes, x) == \
                            brute_factor_count(coeffs, primes, x), (coeffs, x)

    def test_against_bruteforce(self):
        rng = random.Random(405)
        for _ in range(30):
            deg = rng.randint(2, 12)
            coeffs = tuple(rng.randint(-30, 30) for _ in range(deg)) + (1,)
            x = rng.choice([10, 100, 2000, 30_000, 10**6])
            primes = primes_upto(min(x, 400))
            assert poly_factor_count(coeffs, primes, x) == \
                brute_factor_count(coeffs, primes, x), (coeffs, x)

    def test_root_count_above_sqrt_x(self):
        # every prime above sqrt(x) counts its roots only
        coeffs = (3, -1, 0, 2, 1, 0, 0, -5, 0, 0, 1, 7, 1)
        assert poly_factor_count(coeffs, primes_in_range(101, 9000), 10**4) == \
            poly_root_count_over_primes(coeffs, 101, 9000)

    def test_linear(self):
        # over Q every prime p <= x is one prime ideal of norm p
        assert poly_factor_count((-1, 1), primes_upto(100), 50) == \
            len(primes_upto(50))
        assert poly_factor_count((7, 1), [2, 3, 5], 4) == 2

    def test_degree_20_just_below_cap(self):
        # exponents up to 2^20 at 2 and 2^31 - 1 itself; residues near 2^31
        # sum two products at a time
        rng = random.Random(20)
        f = IntPoly((-1, 1)) * IntPoly((1, 1, 1)) * IntPoly(
            tuple(rng.randint(-10**6, 10**6) for _ in range(17)) + (1,))
        x = (1 << 31) - 1
        primes = [2, 3, 5, 7, 46337, 46349, (1 << 31) - 19, (1 << 31) - 1]
        assert all(is_prime(p) for p in primes)
        got = poly_factor_count(f.coeffs, primes, x)
        assert got == brute_factor_count(f.coeffs, primes, x)
        assert got >= len(primes)

    def test_no_primes(self):
        assert poly_factor_count((-2, 0, 1), [], 100) == 0
        assert poly_factor_count((-2, 0, 1), [101, 103], 100) == 0

    def test_rejections(self):
        with pytest.raises(ValueError):
            poly_factor_count((1, 2), [3], 100)  # not monic
        with pytest.raises(ValueError):
            poly_factor_count((1,), [3], 100)  # constant
        with pytest.raises(ValueError):
            poly_factor_count((-2, 0, 1), [3], 1 << 31)


class TestOnePass:
    """poly_root_count_over_primes with factor_primes: the factor rows ride
    in the root batches, and the result is the factor count plus the root
    count."""

    @staticmethod
    def both(coeffs, lo, hi, primes, **kwargs):
        got = poly_root_count_over_primes(coeffs, lo, hi,
                                          factor_primes=primes, **kwargs)
        assert got == poly_factor_count(coeffs, primes, hi - 1) + \
            poly_root_count_over_primes(coeffs, lo, hi)
        return got

    def test_linear(self):
        for coeffs in ((-1, 1), (7, 1)):
            assert self.both(coeffs, 11, 1000, primes_upto(10)) == \
                len(primes_upto(999))

    def test_empty_root_range(self):
        coeffs = (3, -1, 0, 2, 1, 0, 0, -5, 0, 0, 1, 7, 1)
        for x in range(4):
            self.both(coeffs, isqrt(x) + 1, x + 1, primes_upto(isqrt(x)))
        # rows alone, and a prime above hi that gives none
        assert self.both(coeffs, 50, 50, primes_upto(7) + [53]) == \
            brute_factor_count(coeffs, primes_upto(7), 49)

    @pytest.mark.parametrize("batch", [5, 40, 300])
    def test_several_batches(self, batch, monkeypatch):
        coeffs = (3, -1, 0, 2, 1, 0, 0, -5, 0, 0, 1, 7, 1)
        monkeypatch.setattr(_kernels, "_BATCH_WORDS", 12 * batch)
        x = 2000
        small = primes_upto(isqrt(x))
        got = self.both(coeffs, isqrt(x) + 1, x + 1, small)
        assert got == brute_factor_count(coeffs, small, x) + \
            brute_root_count(coeffs, isqrt(x) + 1, x + 1)

    @pytest.mark.parametrize("coeffs, x", [((-63, 0, 1), 30),
                                           ((-20402, 0, 1), 5000)])
    def test_dividing(self, coeffs, x, monkeypatch):
        monkeypatch.setattr(_kernels, "_BATCH_WORDS", 2 * 16)
        disc = discriminant(IntPoly(coeffs))
        lo, hi = isqrt(x) + 1, x + 1
        dividing: list[int] = []
        self.both(coeffs, lo, hi, primes_upto(lo - 1), disc=disc,
                  dividing=dividing)
        assert dividing == [p for p in primes_in_range(lo, hi)
                            if disc % p == 0]
        assert dividing

    @pytest.mark.parametrize("batch", [7, 50, 1000])
    def test_one_kernel_call_per_batch(self, batch, monkeypatch):
        # m root columns and r factor rows fill ceil((m + r) / batch)
        # kernel calls, every one full but the last
        d, x = 3, 3000
        monkeypatch.setattr(_kernels, "_BATCH_WORDS", d * batch)
        kernel, sizes = _kernels._power_gcd_degrees, []

        def counted(coeffs, P, E):
            sizes.append(len(P))
            return kernel(coeffs, P, E)

        monkeypatch.setattr(_kernels, "_power_gcd_degrees", counted)
        B = isqrt(x)
        small = primes_upto(B)
        r = sum(min(d, max(j for j in range(1, 13) if p**j <= x))
                for p in small)
        m = len(primes_in_range(B + 1, x + 1))
        poly_root_count_over_primes((1, 1, 0, 1), B + 1, x + 1,
                                    factor_primes=small)
        calls = -(-(m + r) // batch)
        assert sizes == [batch] * (calls - 1) + [m + r - batch * (calls - 1)]

    @pytest.mark.parametrize("block", [5, 64])
    @pytest.mark.parametrize("coeffs", [
        (3, -1, 0, 2, 1, 0, 0, -5, 0, 0, 1, 7, 1),
        (-(101 * 1009 * 1999), 0, 1)])
    def test_across_sieve_segments(self, coeffs, block, monkeypatch):
        # [sqrt(x) + 1, x] spans many sieve segments; the factor rows lead
        # the kernel calls, and no call passes the batch width
        monkeypatch.setattr(ntheory, "_BLOCK", block)
        kernel, calls = _kernels._power_gcd_degrees, []

        def recorded(coeffs, P, E):
            calls.append((P.tolist(), E.tolist()))
            return kernel(coeffs, P, E)

        monkeypatch.setattr(_kernels, "_power_gcd_degrees", recorded)
        x = 2000
        B = isqrt(x)
        small = primes_upto(B)
        disc = discriminant(IntPoly(coeffs))
        dividing: list[int] = []
        got = poly_root_count_over_primes(coeffs, B + 1, x + 1,
                                          factor_primes=small, disc=disc,
                                          dividing=dividing)
        assert got == brute_factor_count(coeffs, small, x) + \
            brute_root_count(coeffs, B + 1, x + 1)
        roots = primes_in_range(B + 1, x + 1)
        assert dividing == [p for p in roots if disc % p == 0]
        width = _kernels._BATCH_WORDS // (len(coeffs) - 1)
        assert all(len(P) <= width for P, _E in calls)
        rows = [(p, p**j) for p in small
                for j in range(1, len(coeffs)) if p**j <= x]
        columns = [c for P, E in calls for c in zip(P, E)]
        assert columns == rows + [(p, p) for p in roots]


def test_cli_import_leaves_numpy_unloaded():
    code = ("import sys, torsionfree.cli; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_zlib_unloaded():
    # -S, since site can import zlib itself (through the .pth files of an
    # installation); the class count imports it on first use
    code = ("import sys, torsionfree.cli; "
            "print('zlib' in sys.modules, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False False"


# Only the root-count kernel loads numpy: every command and count that
# sieves but counts no roots above sqrt(x) runs without it.
_NUMPY_CHECKS = {
    "torsion table": "cli:torsion table --nmax 6 --d 1",
    "construct sweep": "cli:construct sweep --pmax 13",
    "level find": f"cli:level find {DATA / 'q.poly'} --dimg 3",
    "cosine count": ("from torsionfree.numfield import count_prime_ideals, "
                     "make_cosine_field; "
                     "count_prime_ideals(make_cosine_field(13), 10**6)"),
}


@pytest.mark.parametrize("name", sorted(_NUMPY_CHECKS))
def test_sieving_leaves_numpy_unloaded(name):
    work = _NUMPY_CHECKS[name]
    if work.startswith("cli:"):
        # a check that raises, not an assert, so that the command also
        # runs under python -O
        work = (f"from torsionfree.cli import entrypoint; "
                f"entrypoint({work[4:].split()!r}) == 0 or sys.exit(1)")
    code = f"import sys; {work}; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_generic_root_count_loads_numpy():
    code = ("import sys; from torsionfree.numfield import count_prime_ideals, "
            "make_field; from torsionfree.polyalg import IntPoly; "
            "count_prime_ideals(make_field(IntPoly((-2, 0, 1))), 10**4); "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


class TestNtheory:
    def test_is_prime(self):
        assert is_prime(2) and is_prime(97) and is_prime(2**31 - 1)
        assert not is_prime(1) and not is_prime(561) and not is_prime(2**32)

    def test_is_prime_against_trial_division(self):
        # every witness count from 1 upward decides some n here
        def trial(n):
            return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))
        assert [n for n in range(-3, 20000) if is_prime(n)] == \
            [n for n in range(-3, 20000) if trial(n)]
        rng = random.Random(17)
        for bound, _k in ntheory._MR_BOUNDS[:5]:
            for n in [*range(bound - 50, bound + 50),
                      *(rng.randrange(bound // 2, bound) for _ in range(50))]:
                if n < 10**10:
                    assert is_prime(n) == trial(n), n

    def test_strong_pseudoprimes_to_the_witnesses_used(self):
        # psi_k is a strong pseudoprime to the first k witnesses, so the
        # witness count at psi_k must be larger
        for bound, _k in ntheory._MR_BOUNDS:
            assert not is_prime(bound)

    def test_psi_13(self):
        # the least strong pseudoprime to all 13 witnesses (2..41)
        psi13 = 3317044064679887385961981
        assert not is_prime(psi13)
        assert factorize(psi13) == {1287836182261: 1, 2575672364521: 1}
        assert is_prime(2**89 - 1) and is_prime(2**127 - 1)
        assert not is_prime((2**89 - 1) * (2**61 - 1))
        assert not is_prime((2**89 - 1) ** 2)

    def test_strong_lucas(self):
        # strong Lucas pseudoprimes (Selfridge parameters) pass, strong
        # pseudoprimes to base 2 fail, and so does a square
        for n in (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199):
            assert ntheory._strong_lucas(n)
        for n in (2047, 3277, 4033, 4681, 8321, 1763**2):
            assert not ntheory._strong_lucas(n)
        assert all(ntheory._strong_lucas(q) for q in primes_in_range(43, 5000))

    def test_base_table_inverts_mod_n(self):
        # u_b from the inverse of b mod n is -1/n mod b, for every n up to
        # 1000 and every base prime below 2000
        primes = primes_upto(2000)
        for n in range(1, 1001):
            base, u = ntheory._base_table(2001, n)
            assert base == tuple(b for b in primes if n % b)
            assert u == tuple(-pow(n, -1, b) % b for b in base), n

    def test_primes_upto(self):
        ps = primes_upto(100)
        assert len(ps) == 25 and ps[0] == 2 and ps[-1] == 97
        assert primes_upto(1) == [] and primes_upto(2) == [2]
        # a new list on every call, though the primes are cached
        ps.append(101)
        assert primes_upto(100) == ps[:-1] and primes_upto(100) is not ps

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

    def test_factorize_rho_budget(self):
        # two prime factors near 1e10 split within the budget; the 39-digit
        # product of the first primes above 1e19 and 1e19 + 1e6 does not
        p, q = 10**10 + 19, 2 * 10**10 + 89
        assert is_prime(p) and is_prime(q)
        assert factorize(p * q) == {p: 1, q: 1}
        p, q = 10**19 + 51, 10**19 + 10**6 + 27
        assert is_prime(p) and is_prime(q)
        with pytest.raises(ResourceCapError):
            factorize(p * q)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 12])
    def test_prime_powers_above_trial_bound(self, k):
        assert factorize(100003**k) == {100003: k}

    def test_perfect_power_exponents_are_prime(self, monkeypatch):
        # a 2,013-bit composite with no factor below 1e5: the prime k with
        # 1e5^k <= n, 2 .. 113, are all that is tried before rho
        n = (2**127 - 1) * (2**607 - 1) * (2**1279 - 1)
        kth_root, tried = ntheory._kth_root, []

        def counted(m, k):
            tried.append(k)
            return kth_root(m, k)

        class Rho(Exception):
            pass

        def rho(m, budget):
            raise Rho

        monkeypatch.setattr(ntheory, "_kth_root", counted)
        monkeypatch.setattr(ntheory, "_pollard_rho", rho)
        with pytest.raises(Rho):
            factorize(n)
        assert tried == [k for k in primes_upto(121) if 10**(5 * k) <= n]
        assert len(tried) <= len(primes_upto(121))

    @staticmethod
    def huge_cofactor():
        """A 14,400-bit odd n with no factor below 1e5 and no perfect power."""
        n = random.Random(14400).getrandbits(14400) | 1 << 14399 | 1
        while ntheory._trial_divide(n)[1] != n:
            n += 2
        assert n.bit_length() == 14400
        return n

    def test_primality_cap_refuses_a_huge_cofactor_at_once(self):
        # refused before any primality test or rho step
        n = self.huge_cofactor()
        start = time.monotonic()
        with pytest.raises(ResourceCapError, match="14400-bit"):
            factorize(n)
        assert time.monotonic() - start < 2

    def test_power_residues_settle_the_exponents(self, monkeypatch):
        # 150 prime exponents are tried on the huge cofactor; a k-th power
        # residue test mod a few primes q = 1 (mod k) rules out all but a
        # handful before a root is taken (milliseconds each, against
        # microseconds for a residue test)
        n = self.huge_cofactor()
        iroot, rooted = ntheory.iroot, []

        def counted(m, k):
            rooted.append(k)
            return iroot(m, k)

        monkeypatch.setattr(ntheory, "iroot", counted)
        with pytest.raises(ResourceCapError):
            factorize(n)
        assert len(rooted) <= 3
        # a k-th power passes every residue test and is still rooted
        p = 100003
        for k in (2, 3, 113):
            rooted.clear()
            assert ntheory._kth_root(p**k, k) == p and rooted == [k]
            assert ntheory._kth_root(p**k * 100019, k) is None

    def test_perfect_power_above_the_primality_cap(self):
        p = 100003
        k = ntheory._PRIME_TEST_BITS // 16 + 1  # p > 2^16
        assert (p**k).bit_length() > ntheory._PRIME_TEST_BITS
        assert factorize(7 * p**k) == {7: 1, p: k}

    def test_rho_cap_names_the_bit_length(self):
        # a cofactor above the default int-to-str limit of 4,300 digits is
        # named by its bit length, so the cap raises ResourceCapError
        n = 3**9101
        assert n > 10**4300
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        lift = getattr(sys, "set_int_max_str_digits", lambda n: None)
        lift(4300)
        try:
            with pytest.raises(ResourceCapError, match=f"{n.bit_length()}-bit"):
                ntheory._pollard_rho(n, 0)
        finally:
            lift(limit)
