import functools
import math
import random
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from friable import config, sieve
from friable.errors import ArgumentError, ResourceError


# ---------------------------------------------------------------------------
# conventions and examples
# ---------------------------------------------------------------------------


def test_build_conventions_small_segment():
    t = sieve.build_factor_sieve(0, 12)
    assert t.lpf[12] == 3 and t.spf[12] == 2 and t.mu[12] == 0
    assert t.lpf[1] == 1 and t.lpf[0] == 0
    assert t.spf[1] == sieve.SPF_INFINITY and t.spf[0] == 0
    assert t.mu[0] == 0 and t.mu[1] == 1


def test_build_prime_in_offset_segment():
    t = sieve.build_factor_sieve(90, 100)
    assert t.lpf[97 - 90] == t.spf[97 - 90] == 97
    assert t.mu[97 - 90] == -1


def test_tables_match_trial_division():
    t = sieve.build_factor_sieve(0, 2000)
    for n in range(0, 2001):
        spf = oracles.spf(n)
        assert t.lpf[n] == oracles.lpf(n), n
        assert t.spf[n] == (sieve.SPF_INFINITY if spf == math.inf else spf), n
        assert t.mu[n] == oracles.mu(n), n
    # the shortest segments, where rem keeps primes as small as 2
    for hi in range(10):
        t = sieve.build_factor_sieve(0, hi)
        assert t.lpf.tolist() == [oracles.lpf(n) for n in range(hi + 1)]
        assert t.mu.tolist() == [oracles.mu(n) for n in range(hi + 1)]


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
    mask = sieve.friable_masks(12, [2, 3, 1.5])
    assert mask[2][8]
    assert not mask[3][10]
    assert mask[2][0]  # P+(0) = 0
    assert mask[1.5][1]
    assert np.array_equal(mask[3], [oracles.lpf(n) <= 3 for n in range(13)])


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
    assert _sifted_pairs(10, 1) == [(1, 1), (2, -1), (3, -1), (5, -1), (6, 1), (7, -1), (10, 1)]
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
        assert mn.lpf[0] == max(t.lpf[m], t.lpf[n])


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


def test_segment_independence(monkeypatch):
    monkeypatch.setattr(config, "DEFAULT_SEGMENT_SIZE", 1 << 22)
    one = sieve.build_factor_sieve(0, 30000)
    monkeypatch.setattr(config, "DEFAULT_SEGMENT_SIZE", 977)
    many = sieve.build_factor_sieve(0, 30000)
    assert np.array_equal(one.lpf, many.lpf)
    assert np.array_equal(one.spf, many.spf)
    assert np.array_equal(one.mu, many.mu)


def test_factor_sieve_peak_is_the_result_plus_one_segment(monkeypatch):
    # 17 bytes per entry of result; sixteen 2^16-entry segments add little
    monkeypatch.setattr(config, "DEFAULT_SEGMENT_SIZE", 1 << 16)
    n = 1 << 20
    tracemalloc.start()
    try:
        table = sieve.build_factor_sieve(0, n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == n
    assert peak < 24 * n, peak / n


def test_streaming_matches_block_build():
    # psi_count counts without a table; friable_masks holds [0, 5000] whole
    ys = [2, 7, 70, 71, 5000]
    masks = sieve.friable_masks(5000, ys)
    for y in ys:
        assert sieve.psi_count(5000, y) == int(np.count_nonzero(masks[y][1:]))


def test_prime_pi_table_published_values():
    published = [4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534]
    for k, pi in enumerate(published, 1):
        small, large = sieve._prime_pi_table(10**k)
        assert large[1] == pi, k
    small, large = sieve._prime_pi_table(10**6)
    primes = sieve.primes_up_to(10**6)
    assert np.array_equal(small, np.searchsorted(primes, np.arange(1001), side="right"))
    ks = np.arange(1, 1001)
    assert np.array_equal(large[1:], np.searchsorted(primes, 10**6 // ks, side="right"))


def test_psi_count_at_the_harper_size():
    assert sieve.psi_count(10**7, 1015) == 2043438
    # README's harper ladder, confirmed there by the segmented sieve
    assert sieve.psi_count(10**8, 2536) == 19199267
    assert sieve.psi_count(10**9, 6757) == 188831647


@given(st.integers(1, 3 * 10**6))
# the dense/sparse boundary N^(1/3): cubes and their neighbours (97^3 = 912673)
@example(1)
@example(2)
@example(7)
@example(8)
@example(9)
@example(26)
@example(27)
@example(28)
@example(124)
@example(125)
@example(126)
@example(1330)
@example(1331)
@example(1332)
@example(912672)
@example(912673)
@example(912674)
@example(10**6)
@settings(max_examples=40, deadline=None)
def test_prime_pi_table_matches_the_primes(N):
    small, large = sieve._prime_pi_table(N)
    r = math.isqrt(N)
    primes = sieve.primes_up_to(N)
    assert np.array_equal(small, np.searchsorted(primes, np.arange(r + 1), side="right"))
    assert large[0] == 0
    ks = np.arange(1, r + 1)
    assert np.array_equal(large[1:], np.searchsorted(primes, N // ks, side="right"))


def test_prime_pi_table_sparse_pass_is_blocked():
    # the sparse primes' (k, p) pairs, about 5.2*10^5 at 10^10, run in
    # blocks of at most isqrt(N) + 1; in one block the peak is 14 tables
    N = 10**10
    sieve.primes_up_to(math.isqrt(N))  # the shared prime cache is not part of the table
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        small, large = sieve._prime_pi_table(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert large[1] == 455052511
    assert peak <= 8 * 8 * (math.isqrt(N) + 1), peak / (8 * (math.isqrt(N) + 1))


# ---------------------------------------------------------------------------
# the two kernels against trial division (hypothesis)
# ---------------------------------------------------------------------------

_LIMIT = 3 * 10**4
_PRIMES = [p for p in range(2, 2 * _LIMIT + 1) if oracles.lpf(p) == p]


@functools.cache
def _oracle_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """oracles.lpf / spf / mu for 0 <= n <= _LIMIT, spf(1) as SPF_INFINITY."""
    ns = range(_LIMIT + 1)
    spf = [oracles.spf(n) for n in ns]
    return (
        np.array([oracles.lpf(n) for n in ns], dtype=np.int64),
        np.array([sieve.SPF_INFINITY if s == math.inf else s for s in spf], dtype=np.int64),
        np.array([oracles.mu(n) for n in ns], dtype=np.int8),
    )


@st.composite
def _psi_inputs(draw):
    N = draw(st.integers(1, _LIMIT))
    root = math.isqrt(N)
    p = draw(st.sampled_from([p for p in _PRIMES if p <= 2 * N] or [2]))
    y = draw(
        st.one_of(
            st.floats(1.0, 2.0 * N, exclude_min=True),
            st.sampled_from([float(p), p - 1e-9, root + 0.5]),
            st.integers(root, root + 3).map(float),
        )
    )
    assume(1.0 < y <= 2.0 * N)
    return N, y


@given(_psi_inputs())
@settings(max_examples=60, deadline=None)
def test_psi_count_matches_trial_division_and_factor_table(args):
    N, y = args
    psi = sieve.psi_count(N, y)
    lpf = _oracle_tables()[0]
    assert psi == int(np.count_nonzero(lpf[1 : N + 1] <= y))  # = oracles.psi_count(N, y)
    table = sieve.build_factor_sieve(0, N)
    assert psi == int(np.count_nonzero(table.lpf[1:] <= y))


def test_psi_count_small_cases_direct_oracle():
    for N, y in [(1, 1.0), (2, 1.0), (97, 7.0), (120, 10.999999999), (360, 19.0), (1000, 31.0)]:
        assert sieve.psi_count(N, y) == oracles.psi_count(N, y), (N, y)


@st.composite
def _psi_edges(draw):
    N = draw(st.integers(1, 2 * 10**5))
    y = draw(
        st.one_of(
            st.floats(1.0, 2.0, exclude_max=True),  # y < 2: n = 1 alone
            st.sampled_from(
                [N ** (1 / 3), math.isqrt(N) + 0.5, math.isqrt(N) + 1.0, float(N), 2.0 * N]
            ),
            st.integers(2, 60).map(float),  # small y: listed when few n are friable
            st.floats(1.0, 2.0 * N),
        )
    )
    return N, y


@given(_psi_edges())
@settings(max_examples=80, deadline=None)
def test_psi_count_matches_masks(args):
    N, y = args
    assert sieve.psi_count(N, y) == int(np.count_nonzero(sieve.friable_masks(N, [y])[y][1:]))


@st.composite
def _segments(draw):
    p = draw(st.sampled_from([p for p in _PRIMES if p * p <= _LIMIT]))
    powers = [p**k for k in range(2, 16) if p**k <= _LIMIT]
    hi = draw(st.sampled_from(powers))
    lo = draw(st.one_of(st.just(0), st.just(1), st.integers(max(2, hi - 3000), hi)))
    return lo, hi


@given(_segments())
@settings(max_examples=60, deadline=None)
def test_sieve_segment_matches_trial_division(bounds):
    lo, hi = bounds
    seg = sieve._sieve_segment(lo, hi, sieve.primes_up_to(math.isqrt(hi)))
    lpf, spf, mu = (t[lo : hi + 1] for t in _oracle_tables())
    assert np.array_equal(seg.lpf, lpf)
    assert np.array_equal(seg.spf, spf)
    assert np.array_equal(seg.mu, mu)
    assert seg.lpf.dtype == seg.spf.dtype == np.int64


def test_sieve_segment_across_two_to_the_31():
    # the int64 path, which the segments above never reach: rem, lpf and spf
    # run in int64 once hi >= 2^31
    lo, hi = 2**31 - 64, 2**31 + 64
    seg = sieve._sieve_segment(lo, hi, sieve.primes_up_to(math.isqrt(hi)))
    ns = range(lo, hi + 1)
    assert seg.lpf.tolist() == [oracles.lpf(n) for n in ns]
    assert seg.spf.tolist() == [oracles.spf(n) for n in ns]
    assert seg.mu.tolist() == [oracles.mu(n) for n in ns]
    assert seg.lpf.dtype == seg.spf.dtype == np.int64


@given(st.integers(0, _LIMIT))
@example(0)
@example(1)
@example(3)
@example(4)
@example(_LIMIT)
@settings(max_examples=30, deadline=None)
def test_leaf_table_matches_trial_division(n):
    assert np.array_equal(sieve._largest_prime_factors(n), _oracle_tables()[0][: n + 1])


def test_psi_count_keeps_no_factor_tables():
    sieve.primes_up_to(1000)  # the shared prime cache is not part of the count
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        psi = sieve.psi_count(10**6, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    table = sieve.build_factor_sieve(0, 10**6)
    assert psi == int(np.count_nonzero(table.lpf[1:] <= 100))


# ---------------------------------------------------------------------------
# friability masks and the sifted kernel against trial division (hypothesis)
# ---------------------------------------------------------------------------


@st.composite
def _mask_inputs(draw):
    N = draw(st.integers(1, _LIMIT))
    root = math.isqrt(N)
    threshold = st.one_of(
        st.just(1),
        st.integers(max(1, root - 2), root + 2),
        st.integers(N, 2 * N),
        st.integers(1, N),
        st.floats(1.0, 2.0 * N),
    )
    ys = draw(st.lists(threshold, min_size=1, max_size=3))
    ys += draw(st.lists(st.sampled_from(ys), max_size=1))  # a duplicate, sometimes
    return N, draw(st.permutations(ys))


@given(_mask_inputs())
@settings(max_examples=60, deadline=None)
def test_friable_masks_match_trial_division(args):
    N, ys = args
    masks = sieve.friable_masks(N, ys)
    lpf = _oracle_tables()[0][: N + 1]
    assert set(masks) == set(ys)
    for y in ys:
        assert masks[y].dtype == bool
        assert np.array_equal(masks[y], lpf <= y), y


def test_friable_masks_across_segments_and_threads(monkeypatch):
    N = config.DEFAULT_SEGMENT_SIZE + 12345
    root = math.isqrt(N)
    ys = [2, 1000, root, root + 1, 2 * 10**5, N]
    lpf = sieve.build_factor_sieve(0, N).lpf
    runs = [sieve.friable_masks(N, ys, threads=t) for t in (1, 2, 4)]
    # many small segments on more threads than cores, switching often
    monkeypatch.setattr(config, "DEFAULT_SEGMENT_SIZE", 4099)
    monkeypatch.setattr(config, "usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs.append(sieve.friable_masks(N, ys, threads=8))
    finally:
        sys.setswitchinterval(interval)
    for y in ys:
        assert np.array_equal(runs[0][y], lpf <= y), y
        for other in runs[1:]:
            assert np.array_equal(other[y], runs[0][y]), y


def test_friable_masks_pool_is_capped_by_the_usable_cpus(monkeypatch):
    N = 50000
    ys = [2, 100, math.isqrt(N), N]
    serial = sieve.friable_masks(N, ys, threads=1)
    monkeypatch.setattr(config, "usable_cpus", lambda: 2)
    monkeypatch.setattr(config, "DEFAULT_SEGMENT_SIZE", 1000)  # 51 segments
    seen = set()
    kernel = sieve._remainder_kernel

    def spy(*args):
        seen.add(threading.get_ident())
        return kernel(*args)

    monkeypatch.setattr(sieve, "_remainder_kernel", spy)
    capped = sieve.friable_masks(N, ys, threads=64)
    assert 1 <= len(seen) <= 2
    for y in ys:
        assert np.array_equal(capped[y], serial[y]), y


def test_friable_masks_keep_no_factor_tables():
    N = 10**6
    sieve.primes_up_to(1000)  # the shared prime cache is not part of the masks
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        masks = sieve.friable_masks(N, [1000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the mask (1 byte) and one int32 remainder per entry; the factor table takes 17
    assert peak < 6 * (N + 1), peak
    assert int(np.count_nonzero(masks[1000][1:])) == sieve.psi_count(N, 1000)


def _sifted_oracle(limit: int, y: float) -> list[tuple[int, int]]:
    """oracles.sifted_squarefree(limit, y), read off the trial-division tables."""
    _, spf, mu = (t[1 : limit + 1] for t in _oracle_tables())
    ks = np.flatnonzero((mu != 0) & (spf > y)) + 1
    return list(zip(ks.tolist(), mu[ks - 1].tolist()))


@st.composite
def _sifted_inputs(draw):
    limit = draw(st.integers(2, 2 * 10**4))
    root = math.isqrt(limit)
    y = draw(
        st.one_of(
            st.floats(1.0, 2.0 * limit, exclude_min=True),
            st.integers(root - 1, root + 2).map(float),
            st.floats(root + 1.0, float(limit)),  # leftover primes q in (sqrt(limit), y]
            st.sampled_from([p for p in _PRIMES if p <= 2 * limit]).map(float),
        )
    )
    assume(1.0 < y <= 2.0 * limit)
    segment_size = draw(st.integers(256, 4096).filter(lambda s: limit % s != 0))
    return limit, y, segment_size


@given(_sifted_inputs())
@example((1000, 100.0, 300))  # sqrt(limit) < y < limit
@settings(max_examples=60, deadline=None)
def test_sifted_squarefree_matches_trial_division(args):
    limit, y, segment_size = args
    with mock.patch.object(config, "DEFAULT_SEGMENT_SIZE", segment_size):
        ks, mus = sieve.sifted_squarefree_arrays(limit, y)
    assert ks.dtype == mus.dtype == np.int64
    pairs = list(zip(ks.tolist(), mus.tolist()))
    assert pairs == _sifted_oracle(limit, y)
    if limit <= 2000:
        assert pairs == oracles.sifted_squarefree(limit, y)


# ---------------------------------------------------------------------------
# integer friability thresholds
# ---------------------------------------------------------------------------


def test_friable_bound_at_prime_powers():
    for p in [p for p in _PRIMES if p <= 2000]:
        for u in (2, 3, 4, 5):
            assert sieve.friable_bound(p**u, u) == p, (p, u)
            assert sieve.friable_bound(p**u - 1, u) == p - 1, (p, u)
        assert sieve.friable_bound(p**3, 1.5) == p * p
    assert sieve.friable_bound(97**3, 3.0) == 97 > float(97**3) ** (1.0 / 3.0)
    assert sieve.friable_bound(1, 3) == sieve.friable_bound(7, 3) == 1
    assert sieve.friable_bound(10**6, 0.001) == 10**6000  # past float range
    assert sieve.friable_bound(10**6, 1.7320508) == 2911  # N^b past float range
    for bad in (0.0, -1.0, 1e-4, math.nan, math.inf):
        with pytest.raises(ArgumentError):
            sieve.friable_bound(10, bad)


def test_friable_bound_large_u_is_immediate():
    # the root is 1 once N < 2^a; a Newton step from 2 would square a 10^12-bit integer
    start = time.perf_counter()
    assert sieve.friable_bound(10**7, 1e12) == 1
    assert sieve.friable_bound(10**7, 1e9) == 1
    assert time.perf_counter() - start < 1.0


def test_psi_at_prime_power_threshold():
    assert sieve.psi_count(97**3, sieve.friable_bound(97**3, 3)) == 68454
    for p in (5, 7, 11):
        N = p**3
        assert sieve.psi_count(N, sieve.friable_bound(N, 3)) == oracles.psi_count(N, p)


def test_psi_count_y_one():
    for N in (1, 2, 10, 10**5):
        assert sieve.psi_count(N, 1) == 1  # only n = 1, as P+(1) = 1
    assert sieve.psi_count(10, 1.5) == 1


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
        sieve.psi_count(10, math.nan)
    with pytest.raises(ArgumentError):
        sieve.sifted_squarefree_arrays(0, 2.0)
    with pytest.raises(ArgumentError):
        sieve.sifted_squarefree_arrays(10, 0.5)
    for N, ys in [(0, [2]), (10, [0.5]), (10, [2, math.nan])]:
        with pytest.raises(ArgumentError):
            sieve.friable_masks(N, ys)


def test_resource_errors():
    with pytest.raises(ResourceError):
        sieve.build_factor_sieve(0, config.DEFAULT_MAX_TABLE)  # 2^26 + 1 entries
    with pytest.raises(ResourceError):
        sieve.psi_count(2**41, 10.0)
    with pytest.raises(ResourceError):
        sieve.friable_masks(config.DEFAULT_MAX_TABLE, [2])  # 2^26 + 1 entries
