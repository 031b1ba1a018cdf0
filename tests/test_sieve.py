import math
import random

import numpy as np
import pytest

import oracles
from friable import sieve
from friable.errors import ArgumentError, ResourceError


# ---------------------------------------------------------------------------
# conventions and examples
# ---------------------------------------------------------------------------


def test_build_conventions_small_segment():
    t = sieve.build_factor_sieve(0, 12)
    assert t.largest(12) == 3 and t.smallest(12) == 2 and t.mobius(12) == 0
    assert t.largest(1) == 1 and t.largest(0) == 0
    assert t.smallest(1) == math.inf and t.smallest(0) == 0
    assert t.mobius(0) == 0 and t.mobius(1) == 1


def test_build_prime_in_offset_segment():
    t = sieve.build_factor_sieve(90, 100)
    assert t.largest(97) == t.smallest(97) == 97
    assert t.mobius(97) == -1


def test_tables_match_trial_division():
    t = sieve.build_factor_sieve(0, 2000)
    for n in range(0, 2001):
        assert t.largest(n) == oracles.lpf(n), n
        assert t.smallest(n) == oracles.spf(n), n
        assert t.mobius(n) == oracles.mu(n), n


def test_prime_invariants_in_segment():
    t = sieve.build_factor_sieve(2, 5000)
    ns = np.arange(2, 5001)
    prime = t.lpf == ns
    assert np.array_equal(prime, t.spf == ns)
    assert np.all(t.mu[prime] == -1)
    comp = ~prime
    assert np.all(t.spf[comp] <= t.lpf[comp])
    assert np.all(t.spf[comp] ** 2 <= ns[comp])
    assert np.all(ns[comp] % t.spf[comp] == 0)


def test_largest_prime_factor_scalars():
    assert oracles.lpf(0) == 0
    assert oracles.lpf(-1) == 1
    assert oracles.lpf(1) == 1
    assert oracles.lpf(100) == 5
    assert oracles.lpf(-97) == 97


def test_smallest_prime_factor_scalars():
    assert oracles.spf(1) == math.inf
    assert oracles.spf(-1) == math.inf
    assert oracles.spf(0) == 0
    assert oracles.spf(15) == 3
    assert oracles.spf(49) == 7


def test_is_friable():
    mask = sieve.build_factor_sieve(0, 12).friable_mask
    assert mask(2)[8]
    assert not mask(3)[10]
    assert mask(2)[0]  # P+(0) = 0
    assert mask(1.5)[1]
    assert np.array_equal(mask(3), [oracles.lpf(n) <= 3 for n in range(13)])


def test_psi_examples():
    assert sieve.psi_count(50, 50) == 50
    assert sieve.psi_count(10, 2) == 4  # {1, 2, 4, 8}
    assert sieve.psi_count(10**5, 10) == oracles.psi_count(10**5, 10.0)


def _sifted_pairs(limit: int, y: float) -> list[tuple[int, int]]:
    ks, mus = sieve.sifted_squarefree_arrays(limit, y)
    return list(zip(ks.tolist(), mus.tolist()))


def test_enumerate_sifted_examples():
    assert _sifted_pairs(10, 2) == [(1, 1), (3, -1), (5, -1), (7, -1)]
    assert _sifted_pairs(7, 50) == [(1, 1)]
    expected = [
        (1, 1), (3, -1), (5, -1), (7, -1), (11, -1), (13, -1), (15, 1),
        (17, -1), (19, -1), (21, 1), (23, -1), (29, -1), (31, -1), (33, 1), (35, 1),
    ]
    assert _sifted_pairs(35, 2.5) == expected


def test_enumerate_sifted_matches_oracle():
    for limit, y in [(200, 3.0), (500, 7.0), (1000, 31.0)]:
        assert _sifted_pairs(limit, y) == oracles.sifted_squarefree(limit, y)


# ---------------------------------------------------------------------------
# invariants and properties
# ---------------------------------------------------------------------------


def test_lpf_multiplicativity():
    t = sieve.build_factor_sieve(0, 10**4)
    rng = random.Random(20240911)
    for _ in range(300):
        m = rng.randint(1, 10**4)
        n = rng.randint(1, 10**4)
        mn = sieve.build_factor_sieve(m * n, m * n)  # a one-entry segment far from 0
        assert mn.largest(m * n) == max(t.largest(m), t.largest(n))


def test_psi_monotonicity():
    ys = [2.0, 3.0, 7.0, 20.0, 100.0]
    ns = [10, 100, 1000, 5000]
    vals = {(n, y): sieve.psi_count(n, y) for n in ns for y in ys}
    for y in ys:
        counts = [vals[(n, y)] for n in ns]
        assert counts == sorted(counts)
    for n in ns:
        counts = [vals[(n, y)] for y in ys]
        assert counts == sorted(counts)
        assert sieve.psi_count(n, n) == n
        assert sieve.psi_count(n, 2 * n) == n


def test_psi_oracle_grid():
    for n in (500, 2000):
        for y in (2.0, 5.0, 11.0, math.sqrt(n), n / 2):
            assert sieve.psi_count(n, y) == oracles.psi_count(n, y)


def test_sifted_divisor_bound():
    # number of sifted squarefree divisors of n <= N is at most 2^u
    rng = random.Random(7)
    for N, u in [(10**4, 2), (10**4, 3), (10**5, 2)]:
        y = N ** (1.0 / u)
        for _ in range(200):
            n = rng.randint(1, N)
            divisors = [
                k
                for k in range(1, n + 1)
                if n % k == 0 and oracles.mu(k) != 0 and oracles.spf(k) > y
            ]
            assert len(divisors) <= 2**u, (n, divisors)


def test_segment_independence():
    one = sieve.build_factor_sieve(0, 30000, segment_size=1 << 22)
    many = sieve.build_factor_sieve(0, 30000, segment_size=977)
    assert np.array_equal(one.lpf, many.lpf)
    assert np.array_equal(one.spf, many.spf)
    assert np.array_equal(one.mu, many.mu)


def test_streaming_matches_block_build():
    whole = sieve.build_factor_sieve(0, 5000)
    parts = list(sieve.iter_factor_segments(0, 5000, segment_size=600))
    lpf = np.concatenate([p.lpf for p in parts])
    assert np.array_equal(lpf, whole.lpf)


def test_threaded_psi_deterministic():
    for threads in (1, 4, 8):
        assert sieve.psi_count(10**5, 50.0, segment_size=4096, threads=threads) == sieve.psi_count(
            10**5, 50.0
        )


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_argument_errors():
    with pytest.raises(ArgumentError):
        sieve.build_factor_sieve(10, 5)
    with pytest.raises(ArgumentError):
        sieve.build_factor_sieve(-1, 5)
    with pytest.raises(ArgumentError):
        sieve.psi_count(0, 2.0)
    with pytest.raises(ArgumentError):
        sieve.psi_count(10, 0.5)
    with pytest.raises(ArgumentError):
        sieve.sifted_squarefree_arrays(0, 2.0)


def test_resource_errors():
    with pytest.raises(ResourceError):
        sieve.build_factor_sieve(0, 10**7, max_entries=10**6)
    with pytest.raises(ResourceError):
        sieve.psi_count(2**41, 10.0)


def test_segment_index_errors():
    t = sieve.build_factor_sieve(10, 20)
    with pytest.raises(ArgumentError):
        t.largest(9)
    with pytest.raises(ArgumentError):
        t.mobius(21)
