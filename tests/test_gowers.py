import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from friable import config, correlate, gowers
from friable.errors import ArgumentError, ResourceError

# Regression value of the balanced-friable interval norm at N = 4096, u = 2,
# recorded from the first run verified against the N = 256 autocorrelation
# oracle below; it must stay bit-stable.
U2_BALANCED_4096 = 0.14142615602497782


def _random_bounded(rng, M, real=False):
    f = rng.uniform(-1.0, 1.0, M)
    if not real:
        f = f + 1j * rng.uniform(-1.0, 1.0, M)
    return f / np.max(np.abs(f))


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


def test_norm_of_constant_one():
    for k in (2, 3, 4):
        assert gowers.gowers_norm_cyclic(np.ones(64 if k < 4 else 16), k) == 1.0


def test_single_character_has_full_u2_norm():
    M = 64
    f = np.exp(2j * np.pi * np.arange(M) / M)
    assert gowers.gowers_norm_cyclic(f, 2) == pytest.approx(1.0, abs=1e-12)


def test_point_mass_u2_norm():
    M = 32
    f = np.zeros(M)
    f[0] = 1.0
    assert gowers.gowers_norm_cyclic(f, 2) == pytest.approx(M ** (-0.75), abs=1e-14)


def test_parity_character_bruteforce():
    f = np.array([(-1.0) ** n for n in range(16)])
    assert oracles.gowers_norm_bruteforce(f, 2) == pytest.approx(1.0, abs=1e-12)
    assert oracles.gowers_norm_bruteforce(np.ones(16), 3) == pytest.approx(1.0, abs=1e-12)


def test_interval_norm_constants():
    assert gowers.gowers_norm_interval(np.ones(101), 2) == pytest.approx(1.0, abs=1e-12)
    assert gowers.gowers_norm_interval(np.zeros(101), 2) == 0.0


# ---------------------------------------------------------------------------
# oracle equivalence and properties
# ---------------------------------------------------------------------------


def _literal_gowers_power(f, k):
    """||f||_{U^k(Z_M)}^(2^k) by the plain nested loop over (n, h_1, ..., h_k)."""
    M = len(f)
    total = 0j
    for n, *hs in itertools.product(range(M), repeat=k + 1):
        term = 1 + 0j
        for bits in itertools.product((0, 1), repeat=k):
            v = f[(n + sum(b * h for b, h in zip(bits, hs))) % M]
            term *= v.conjugate() if sum(bits) % 2 else v
        total += term
    return total.real / M ** (k + 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bruteforce_oracle_matches_the_literal_sum(k):
    rng = np.random.default_rng(40 + k)
    for M in range(1, 7):
        f = _random_bounded(rng, M)
        assert oracles.gowers_norm_bruteforce(f, k) ** 2**k == pytest.approx(
            _literal_gowers_power(f.tolist(), k), abs=1e-12
        )


def test_bruteforce_equivalence_sample():
    rng = np.random.default_rng(20240901)
    # complex and real f, odd and even moduli for each k
    cases = [(64, 2, 10), (63, 2, 4), (32, 3, 4), (31, 3, 2), (16, 4, 1), (15, 4, 1)]
    for real, (M, k, samples) in itertools.product((False, True), cases):
        for _ in range(samples):
            f = _random_bounded(rng, M, real)
            assert gowers.gowers_norm_cyclic(f, k) == pytest.approx(
                oracles.gowers_norm_bruteforce(f, k), abs=1e-10
            )


def test_norm_nesting():
    rng = np.random.default_rng(5)
    for _ in range(12):
        f = _random_bounded(rng, 64)
        u2 = gowers.gowers_norm_cyclic(f, 2)
        u3 = gowers.gowers_norm_cyclic(f, 3)
        u4 = gowers.gowers_norm_cyclic(f, 4)
        assert u2 <= u3 + 1e-10
        assert u3 <= u4 + 1e-10


def test_shift_invariance():
    rng = np.random.default_rng(11)
    f = _random_bounded(rng, 48)
    for k in (2, 3):
        base = gowers.gowers_norm_cyclic(f, k)
        for shift in (1, 7, 23):
            assert gowers.gowers_norm_cyclic(np.roll(f, shift), k) == pytest.approx(
                base, abs=1e-10
            )


def test_modulation_invariance_u2():
    rng = np.random.default_rng(13)
    M = 64
    f = _random_bounded(rng, M)
    base = gowers.gowers_norm_cyclic(f, 2)
    for xi in (1, 5, 31):
        mod = f * np.exp(2j * np.pi * xi * np.arange(M) / M)
        assert gowers.gowers_norm_cyclic(mod, 2) == pytest.approx(base, abs=1e-10)


def test_homogeneity_and_nonnegativity():
    rng = np.random.default_rng(17)
    f = _random_bounded(rng, 32)
    base = gowers.gowers_norm_cyclic(f, 3)
    assert base >= 0.0
    for c in (0.37, 0.5 + 0.25j):
        assert gowers.gowers_norm_cyclic(c * f, 3) == pytest.approx(
            abs(c) * base, abs=1e-10
        )


def test_embedding_stability():
    rng = np.random.default_rng(3)
    f = rng.uniform(-1.0, 1.0, 101)

    def at_modulus(vals, k, M):
        emb = np.zeros(M, dtype=complex)
        emb[: len(vals)] = vals
        ind = np.zeros(M, dtype=complex)
        ind[: len(vals)] = 1.0
        return gowers.gowers_norm_cyclic(emb, k) / gowers.gowers_norm_cyclic(ind, k)

    for k in (2, 3):
        base = gowers.gowers_norm_interval(f, k)
        for factor in (2, 4):
            bigger = at_modulus(f, k, factor * 2**k * 101)
            assert abs(bigger - base) <= 1e-10


def _bruteforce_on_old_embedding(vals, k):
    """U^k[N] by the direct sum on Z_M with M = 2^k (N + 1)."""
    M = 2**k * len(vals)
    emb = np.zeros(M, dtype=complex)
    emb[: len(vals)] = vals
    ind = np.zeros(M, dtype=complex)
    ind[: len(vals)] = 1.0
    return oracles.gowers_norm_bruteforce(emb, k) / oracles.gowers_norm_bruteforce(ind, k)


_OLD_EMBEDDING_CASES = [
    (11, 2),  # 2N + 1 = 23 is prime: M = 24
    (12, 2),  # 2N + 1 = 25: M = 25
    (9, 3),  # 19 is prime: M = 20
    (7, 3),  # 15: M = 15
    (1, 4),  # 3: M = 3 (the direct sum runs on the old M = 32)
]


@pytest.mark.parametrize(
    "N, k, real",
    [pytest.param(N, k, False, id=f"{N}-{k}") for N, k in _OLD_EMBEDDING_CASES]
    + [pytest.param(N, k, True, id=f"{N}-{k}-real") for N, k in _OLD_EMBEDDING_CASES],
)
def test_interval_norm_matches_bruteforce_on_old_embedding(N, k, real):
    rng = np.random.default_rng(100 * k + N)
    f = _random_bounded(rng, N + 1, real)
    assert gowers.gowers_norm_interval(f, k) == pytest.approx(
        _bruteforce_on_old_embedding(f, k), abs=1e-10
    )


@pytest.mark.parametrize("k", [2, 3, 4])
def test_indicator_denominator_is_the_configuration_count(k):
    # C_k(N) / M^(k+1) against the FFT recursion and the direct sum on the
    # indicator of [0, N] in Z_M, M = _fft_length(2N + 1)
    for N in range(0, 7 if k == 4 else 13):
        M = gowers._check_k_and_size(k, N + 1, interval=True)
        ind = np.zeros(M)
        ind[: N + 1] = 1.0
        exact = gowers._indicator_pow(N + 1, k, M)
        assert exact == pytest.approx(gowers._uk_pow(ind.astype(complex), k), rel=1e-14)
        assert exact == pytest.approx(oracles.gowers_norm_bruteforce(ind, k) ** 2**k, rel=1e-12)
    assert gowers._indicator_pow(1, k, 1) == 1.0  # N = 0: the single point


@pytest.mark.parametrize(
    "M, real",
    [pytest.param(M, False, id=f"{M}") for M in (15, 16, 33, 34)]
    + [pytest.param(M, True, id=f"{M}-real") for M in (15, 16, 33, 34)],
)
def test_half_shift_sum_equals_full_sum(M, real):
    f = _random_bounded(np.random.default_rng(M), M, real).astype(complex)

    def full(vals, k):  # the recursion over every h in Z_M and every frequency
        if k == 2:
            return float(np.sum(np.abs(np.fft.fft(vals, norm="forward")) ** 4))
        return sum(full(np.roll(vals, -h) * np.conj(vals), k - 1) for h in range(M)) / M

    for k in (2, 3, 4):
        assert gowers._uk_pow(f, k) == pytest.approx(full(f, k), rel=1e-12)


def _fft_row_kinds(monkeypatch):
    """Record "f" for every real FFT the kernel runs and "c" for every complex one."""
    kinds = []
    for name, kind in (("rfft", "f"), ("fft", "c")):
        def spy(*args, _fft=getattr(np.fft, name), _kind=kind, **kwargs):
            kinds.append(_kind)
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return kinds


@pytest.mark.parametrize("M", [15, 16, 33, 34])
def test_real_path_agrees_with_the_complex_kernel(M, monkeypatch):
    kinds = _fft_row_kinds(monkeypatch)
    f = _random_bounded(np.random.default_rng(7 * M), M, real=True)
    for k in (2, 3, 4):
        expected = oracles.gowers_pow_complex(f, k)
        kinds.clear()
        assert gowers._uk_pow(f.astype(complex), k) == pytest.approx(expected, rel=1e-12)
        assert kinds and set(kinds) == {"f"}
        # a float array and a complex one with zero imaginary part share every bit
        assert gowers._uk_pow(f, k) == gowers._uk_pow(f.astype(complex), k)
    h = correlate.balanced_friable(255, 2.0).values
    assert gowers._uk_pow(h.astype(complex), 3) == pytest.approx(
        oracles.gowers_pow_complex(h, 3), rel=1e-12
    )


@pytest.mark.parametrize(
    "M, k, real",
    [pytest.param(34, 3, real, id=str(real)) for real in (False, True)]
    + [
        pytest.param(M, 4, real, id=f"{M}-4" + ("-real" if real else ""))
        for M in (33, 34)
        for real in (False, True)
    ],
)
def test_row_blocks_reuse_their_work_arrays(M, k, real, monkeypatch):
    # blocks of 5 rows: at k = 3, the rows h = 0..17 of M = 34 in blocks of
    # 5, 5, 5 and 3; at k = 4, the 153 (M = 33) or 171 (M = 34) pairs
    # h1 <= h2 in 31 or 35 blocks, the last ones holding rows of several h1;
    # on the interval, f[:17] embedded in M = 36, blocks of 4 rows.  Four
    # usable CPUs, so three threads run three workers at k = 4
    f = _random_bounded(np.random.default_rng(9), M, real).astype(complex)
    expected = oracles.gowers_pow_complex(f, k)
    monkeypatch.setattr(gowers, "_BLOCK_ENTRIES", 5 * M)
    monkeypatch.setattr(config, "usable_cpus", lambda: 4)
    serial = gowers._uk_pow(f, k)
    assert serial == pytest.approx(expected, rel=1e-12)
    cyclic = gowers.gowers_norm_cyclic(f, k)
    interval = gowers.gowers_norm_interval(f[:17], k)
    for threads in (2, 3):
        assert gowers._uk_pow(f, k, threads) == serial
        assert gowers.gowers_norm_cyclic(f, k, threads=threads) == cyclic
        assert gowers.gowers_norm_interval(f[:17], k, threads=threads) == interval


@pytest.mark.parametrize("M, power", [(64, "0x1.0a613d16d0226p-15"), (100, "0x1.9d0e1c17567a1p-19")])
def test_real_and_complex_rows_are_summed_apart(M, power, monkeypatch):
    # one imaginary entry: Delta_0 f = |f|^2 takes real blocks, every other
    # derivative complex ones; each kind's block totals are added in block
    # order, then the two kinds.  The bits were recorded from the serial
    # kernel before the blocks had workers; one running sum over all blocks
    # moves them
    monkeypatch.setattr(gowers, "_BLOCK_ENTRIES", 5 * M)
    monkeypatch.setattr(config, "usable_cpus", lambda: 4)
    rng = np.random.default_rng(M)
    f = rng.uniform(-1.0, 1.0, M).astype(complex)
    f /= np.max(np.abs(f))
    f[M // 3] = 0.5j
    for threads in (1, 3):
        assert gowers._uk_pow(f, 4, threads) == float.fromhex(power)


def test_worker_pool_is_bounded(monkeypatch):
    # 35 blocks of 5 rows (k = 4, M = 34) and three usable CPUs: any thread
    # count above three runs three workers, the calling thread and two
    # started threads, each with one set of work arrays, allocated in the
    # calling thread (a worker thread's allocations stay in its own malloc
    # arena)
    monkeypatch.setattr(config, "usable_cpus", lambda: 3)
    monkeypatch.setattr(gowers, "_BLOCK_ENTRIES", 5 * 34)
    sets, started = [], []

    class CountedArrays(gowers._WorkArrays):
        def __init__(self, *args):
            sets.append(threading.get_ident())
            super().__init__(*args)

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(gowers, "_WorkArrays", CountedArrays)
    monkeypatch.setattr(gowers, "Thread", CountedThread)
    f = _random_bounded(np.random.default_rng(10), 34, real=True)
    serial = gowers._uk_pow(f, 4)
    assert (len(sets), started) == (1, [])  # one worker runs in the calling thread
    sets.clear()
    assert gowers._uk_pow(f, 4, 100_000) == serial
    assert (sets, len(started)) == ([threading.get_ident()] * 3, 2)
    assert gowers._workers(100_000, 10**6) == 3
    assert gowers._workers(2, 10**6) == 2
    assert gowers._workers(100_000, 5) == 2  # two blocks per worker at least
    assert gowers._workers(100_000, 3) == gowers._workers(8, 1) == 1


def _spy_on_blocks(monkeypatch, before_block):
    """Record (thread, block) for every block total, calling
    ``before_block(thread, nth block of that thread)`` first; returns the
    records and the plans of blocks as ``_derivative_sum`` cut them."""
    taken, plans = [], []
    total, block_plan = gowers._WorkArrays.total, gowers._block_plan
    lock = threading.Lock()

    def spied_total(self, block):
        me = threading.get_ident()
        with lock:
            nth = sum(1 for thread, _ in taken if thread == me)
            taken.append((me, block))
        before_block(me, nth)
        return total(self, block)

    def spied_plan(sources, chunk):
        plans.append(block_plan(sources, chunk))
        return plans[-1]

    monkeypatch.setattr(gowers._WorkArrays, "total", spied_total)
    monkeypatch.setattr(gowers, "_block_plan", spied_plan)
    return taken, plans


@pytest.mark.parametrize("M, k", [(4096, 3), (256, 4)])
def test_a_stalled_worker_takes_fewer_blocks(M, k, monkeypatch):
    # the started worker sleeps 20 ms on its first block; the calling thread
    # takes the free blocks meanwhile, so more than a fixed half share, every
    # block runs once, and the bits are the serial ones (33 blocks at U^3, 9
    # at U^4)
    monkeypatch.setattr(config, "usable_cpus", lambda: 2)
    f = correlate.balanced_friable(M - 1, 2.0).values
    serial = gowers._uk_pow(f, k, 1)
    caller = threading.get_ident()

    def stall(thread, nth):
        if thread != caller and nth == 0:
            time.sleep(0.02)

    taken, plans = _spy_on_blocks(monkeypatch, stall)
    assert gowers._uk_pow(f, k, 2) == serial
    blocks = [id(block) for plan in plans for block in plan]
    assert sorted(id(block) for _, block in taken) == sorted(blocks)
    mine = sum(1 for thread, _ in taken if thread == caller)
    assert {thread for thread, _ in taken} - {caller}, "the started worker took no block"
    assert mine > (len(blocks) + 1) // 2, (mine, len(blocks))  # more than every other block


def test_block_counter_under_thread_switches(monkeypatch):
    # eight workers on two cores, 5-row blocks and a 1 us switch interval:
    # a lost update of the shared block counter would run a block twice or
    # skip one, and move the bits
    monkeypatch.setattr(config, "usable_cpus", lambda: 8)
    monkeypatch.setattr(gowers, "_BLOCK_ENTRIES", 5 * 64)
    f = _random_bounded(np.random.default_rng(11), 64)
    serial = gowers._uk_pow(f, 4, 1)
    taken, plans = _spy_on_blocks(monkeypatch, lambda thread, nth: None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            taken.clear()
            plans.clear()
            assert gowers._uk_pow(f, 4, 8) == serial
            blocks = [id(block) for plan in plans for block in plan]
            assert sorted(id(block) for _, block in taken) == sorted(blocks)
    finally:
        sys.setswitchinterval(interval)


def test_an_error_in_a_worker_thread_reaches_the_caller(monkeypatch):
    # the calling thread holds any block it takes until the started worker
    # has raised on its own; the error surfaces in the caller, no further
    # block is handed out, and every started thread has ended
    monkeypatch.setattr(config, "usable_cpus", lambda: 2)
    f = correlate.balanced_friable(4095, 2.0).values
    caller = threading.get_ident()
    raised = threading.Event()

    class BlockError(Exception):
        pass

    def fail(thread, nth):
        if thread == caller:
            raised.wait(10.0)
        else:
            raised.set()
            raise BlockError

    taken, plans = _spy_on_blocks(monkeypatch, fail)
    before = threading.active_count()
    with pytest.raises(BlockError):
        gowers.gowers_norm_cyclic(f, 3, threads=2)
    assert threading.active_count() == before
    # at most the failed block and the one the calling thread held
    assert len(taken) <= 2 < len(plans[0])
    assert {thread for thread, _ in taken} != {caller}


def test_uk_pow_returns_a_python_float():
    for real in (False, True):
        f = _random_bounded(np.random.default_rng(4), 16, real)
        for k in (2, 3, 4):
            assert type(gowers._uk_pow(gowers._as_sequence(f), k)) is float


def test_u3_cyclic_peak_is_bounded(monkeypatch):
    # M = 4096 in 33 blocks of _BLOCK_ENTRIES row entries, 5 MB of work
    # arrays per worker, at one and two workers; whole-row blocks of 2^22
    # entries peaked at 80 MB
    monkeypatch.setattr(config, "usable_cpus", lambda: 2)
    h = correlate.balanced_friable(4095, 2.0).values
    for threads in (1, 2):
        tracemalloc.start()
        try:
            gowers.gowers_norm_cyclic(h, 3, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, threads


@pytest.mark.parametrize("M", [15, 16])
def test_one_imaginary_entry_takes_the_complex_path(M, monkeypatch):
    kinds = _fft_row_kinds(monkeypatch)
    f = _random_bounded(np.random.default_rng(M), M, real=True).astype(complex)
    f[M // 3] = 0.5j
    for k in (2, 3, 4):
        expected = oracles.gowers_norm_bruteforce(f, k)
        kinds.clear()
        assert gowers.gowers_norm_cyclic(f, k) == pytest.approx(expected, abs=1e-10)
        # at k = 4 the derivative at h = 0, |f|^2, is real and may go real
        assert set(kinds) == ({"c"} if k < 4 else {"c", "f"})


def test_balanced_friable_regression_and_autocorrelation_oracle():
    h256 = correlate.balanced_friable(256, 2.0)
    fast = gowers.gowers_norm_interval(h256.values, 2)
    brute = oracles.u2_interval_autocorrelation(h256.values)
    assert fast == pytest.approx(brute, abs=1e-10)
    h = correlate.balanced_friable(4096, 2.0)
    assert gowers.gowers_norm_interval(h.values, 2) == pytest.approx(
        U2_BALANCED_4096, abs=1e-12
    )


# ---------------------------------------------------------------------------
# guardrails
# ---------------------------------------------------------------------------


def test_k_out_of_range():
    with pytest.raises(ArgumentError):
        gowers.gowers_norm_cyclic(np.ones(8), 5)
    with pytest.raises(ArgumentError):
        gowers.gowers_norm_cyclic(np.ones(8), 1)


def test_cost_guardrails():
    with pytest.raises(ResourceError):
        gowers.gowers_norm_cyclic(np.ones(2**15), 3)
    with pytest.raises(ResourceError):
        gowers.gowers_norm_cyclic(np.ones(2**10), 4)
    with pytest.raises(ResourceError):
        # ambient modulus _fft_length(2N + 1) = 16875 > 2^14; at N = 2^13 - 1 it is 2^14
        gowers.gowers_norm_interval(np.ones(2**13 + 1), 3)


def test_bruteforce_guardrail():
    with pytest.raises(ResourceError):
        oracles.gowers_norm_bruteforce(np.ones(2000), 2)


def test_boundedness_enforced():
    with pytest.raises(ArgumentError):
        gowers.gowers_norm_cyclic(2.0 * np.ones(16), 2)
    with pytest.raises(ArgumentError):
        gowers.gowers_norm_interval(np.ones(16) * 1.5, 2)


def test_array_input():
    bad = [np.zeros((2, 2)), np.zeros(0), [0.5, np.nan], [0.5, np.inf], [0.5j, complex(0, np.nan)]]
    ramp = np.arange(5) / 10.0
    for norm in (gowers.gowers_norm_cyclic, gowers.gowers_norm_interval):
        for f in bad:
            with pytest.raises(ArgumentError):
                norm(f, 2)
        # a list, an integer array and a float array give the same norm
        assert norm(ramp.tolist(), 2) == norm(ramp, 2) > 0.0
        assert norm(np.ones(5, dtype=int), 2) == norm(np.ones(5), 2)
