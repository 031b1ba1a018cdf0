"""Exact factorization primitives over integer segments.

Everything here is integer-exact.  ``psi_count`` counts without sieving
``[1, N]``: Buchstab's identity on the largest prime factor, over a table
of prime counts ``pi(N // k)`` (Lucy's recursion), with the small
arguments read off a largest-prime-factor table.  The friability masks
over ``[0, N]`` come from one segment kernel that divides small primes
out of a remainder array, one mask per threshold.  The sifted squarefree
sums get a slice pass of their own over a Mobius array, and the full
largest/smallest prime factor and Mobius tables serve ``friable sieve``.
Conventions for the degenerate inputs are fixed once and used
package-wide:

    P+(0) = 0,  P+(+-1) = 1          (so 0 and 1 are y-friable for every y)
    P-(0) = 0,  P-(+-1) = +infinity  (so 1 is y-sifted for every y)

Inside tables the infinite value is stored as the int64 sentinel
``SPF_INFINITY``.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import config
from .errors import ArgumentError, ResourceError

SPF_INFINITY = np.iinfo(np.int64).max


# ---------------------------------------------------------------------------
# base primes
# ---------------------------------------------------------------------------

_prime_cache: dict = {"limit": 0, "primes": np.zeros(0, dtype=np.int64)}


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (simple Eratosthenes, cached).

    Raises ResourceError, before allocating, when n exceeds the table
    budget ``config.DEFAULT_MAX_TABLE``; the cache never grows past it.
    """
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    if n > config.DEFAULT_MAX_TABLE:
        raise ResourceError(
            f"primes up to {n} exceed the table budget of {config.DEFAULT_MAX_TABLE}"
        )
    if n > _prime_cache["limit"]:
        size = min(max(n, 2 * _prime_cache["limit"], 1 << 16), config.DEFAULT_MAX_TABLE)
        flags = np.ones(size + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(size) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        _prime_cache["primes"] = np.nonzero(flags)[0].astype(np.int64)
        _prime_cache["limit"] = size
    primes = _prime_cache["primes"]
    return primes[: int(np.searchsorted(primes, n, side="right"))]


# ---------------------------------------------------------------------------
# friability thresholds
# ---------------------------------------------------------------------------


def _iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for integers x >= 1, k >= 1: Newton's method from above."""
    if x.bit_length() <= k:  # x < 2^k, so the root is 1
        return 1
    log_root = math.log(x) / k
    if log_root < 700.0:  # exp stays finite; its relative error is far below 1e-9
        r = int(math.exp(log_root) * (1.0 + 1e-9)) + 1
    else:
        r = 1 << -(-x.bit_length() // k)  # 2^ceil(bits / k) > x^(1/k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def friable_bound(N: int, u: float) -> int:
    """The largest integer y with y^u <= N: the threshold of N^(1/u)-friability.

    ``u`` is read as the rational ``Fraction(u).limit_denominator(1000)``
    = a/b, and y^a <= N^b is decided in integers, so N = p^u gives
    exactly p where ``float(N) ** (1 / u)`` may round just below it.
    A finite ``u >= 1/1000`` is needed, so that a/b > 0.
    """
    if N < 1 or not (math.isfinite(u) and u >= 1e-3):
        raise ArgumentError(f"need N >= 1 and finite u >= 0.001, got N = {N}, u = {u}")
    q = Fraction(u).limit_denominator(1000)
    return _iroot(N**q.denominator, q.numerator)


# ---------------------------------------------------------------------------
# factor tables
# ---------------------------------------------------------------------------


@dataclass
class FactorSieve:
    """Per-integer factor data for the segment [lo, hi] (inclusive).

    lpf[i], spf[i], mu[i] describe n = lo + i.  Immutable after
    construction; safe to share read-only across threads.
    """

    lo: int
    hi: int
    lpf: np.ndarray  # int64, largest prime factor (conventions above)
    spf: np.ndarray  # int64, smallest prime factor, SPF_INFINITY for +-1
    mu: np.ndarray   # int8, Mobius value in {-1, 0, +1}

    def __len__(self) -> int:
        return self.hi - self.lo + 1


def _power_slices(lo: int, hi: int, p: int) -> list[slice]:
    """Index slices of the segment [lo, hi] for the multiples of p, p^2, ...

    Entry k selects the multiples of p^(k+1) in [max(lo, 1), hi]; the
    list stops at the first power with no multiple there (0 is never
    selected).
    """
    slices = []
    q = p
    while q <= hi:
        first = -(-max(lo, 1) // q) * q
        if first > hi:
            break
        slices.append(slice(first - lo, None, q))
        q *= p
    return slices


def _sieve_segment(lo: int, hi: int, base_primes: np.ndarray) -> FactorSieve:
    """Sieve one contiguous segment; pure integer arithmetic, no trial division.

    Every prime p <= sqrt(hi) is divided out of ``rem`` through strided
    slices, one per power of p.  The writes in ascending order of p leave
    the largest small prime in ``lpf``, those in descending order the
    smallest in ``spf``.  What stays in ``rem`` is 1 or a single prime
    above sqrt(hi): the largest prime factor is the maximum of ``lpf`` and
    ``rem``, and such a prime flips mu.  ``spf`` starts as n itself, which
    only the n with no prime factor <= sqrt(hi) keep.  ``rem``, ``lpf`` and
    ``spf`` run in ``int32`` below 2^31, as in ``_remainder_kernel``, and
    are cast once to the ``int64`` tables.
    """
    n = hi - lo + 1
    rem = np.arange(lo, hi + 1, dtype=np.int32 if hi < 2**31 else np.int64)
    lpf = np.zeros(n, dtype=rem.dtype)
    spf = rem.copy()
    mu = np.ones(n, dtype=np.int8)
    small = base_primes[: int(np.searchsorted(base_primes, math.isqrt(hi), side="right"))]
    strides = [(p, _power_slices(lo, hi, p)) for p in small.tolist()]
    for p, slices in strides:
        for k, s in enumerate(slices):
            rem[s] //= p
            if k == 0:
                lpf[s] = p
                mu[s] *= -1
            elif k == 1:
                mu[s] = 0
    for p, slices in reversed(strides):
        if slices:
            spf[slices[0]] = p
    np.maximum(lpf, rem, out=lpf)
    mu *= 1 - 2 * (rem > 1).view(np.int8)
    lpf, spf = lpf.astype(np.int64, copy=False), spf.astype(np.int64, copy=False)
    if lo <= 0 <= hi:
        i = 0 - lo
        lpf[i], spf[i], mu[i] = 0, 0, 0
    if lo <= 1 <= hi:
        i = 1 - lo
        lpf[i], spf[i], mu[i] = 1, SPF_INFINITY, 1
    return FactorSieve(lo, hi, lpf, spf, mu)


def _check_bounds(lo: int, hi: int, max_n: int) -> None:
    if lo < 0 or lo > hi:
        raise ArgumentError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
    if hi > max_n:
        raise ResourceError(f"hi = {hi} exceeds configured maximum {max_n}")


def build_factor_sieve(lo: int, hi: int) -> FactorSieve:
    """Build lpf/spf/mu tables for [lo, hi], sieving in cache-sized segments
    copied into the preallocated result, so the peak is the result plus one
    segment.

    Raises ResourceError, before allocating, when the table would exceed
    the budget ``config.DEFAULT_MAX_TABLE`` entries, and ArgumentError for
    an empty or negative range.
    """
    segment_size = config.DEFAULT_SEGMENT_SIZE
    _check_bounds(lo, hi, config.DEFAULT_MAX_SIEVE_N)
    total = hi - lo + 1
    if total > config.DEFAULT_MAX_TABLE:
        raise ResourceError(
            f"segment of {total} entries exceeds memory budget of {config.DEFAULT_MAX_TABLE}"
        )
    base = primes_up_to(math.isqrt(hi))
    table = FactorSieve(
        lo, hi, np.empty(total, np.int64), np.empty(total, np.int64), np.empty(total, np.int8)
    )
    for a in range(lo, hi + 1, segment_size):
        part = _sieve_segment(a, min(a + segment_size - 1, hi), base)
        at = slice(a - lo, part.hi - lo + 1)
        table.lpf[at], table.spf[at], table.mu[at] = part.lpf, part.spf, part.mu
    return table


# ---------------------------------------------------------------------------
# counts and enumerations
# ---------------------------------------------------------------------------


def _remainder_kernel(
    a: int, b: int, primes: list[int], levels: list[tuple[int, int]], outs: list[np.ndarray]
) -> None:
    """The friability kernel on the segment [a, b]: writes outs[i] = (rem <= bound_i).

    ``rem`` starts as the integers a..b.  ``levels`` is ascending: for
    level i = (k_i, bound_i), the first k_i of ``primes`` are divided out
    of ``rem``, once per power, before ``outs[i]`` is written.
    """
    rem = np.arange(a, b + 1, dtype=np.int32 if b < 2**31 else np.int64)
    done = 0
    for (k, bound), out in zip(levels, outs):
        for p in primes[done:k]:
            for s in _power_slices(a, b, p):
                rem[s] //= p
        done = k
        np.less_equal(rem, bound, out=out)


def _remainder_plan(N: int, ys: Sequence[float]) -> tuple[list[int], list[tuple[int, int]]]:
    """(primes, levels) of the kernel over a range ending at N, thresholds ``ys``.

    One level (k, bound) per distinct bound = floor(min(y, N)), ascending;
    k counts the primes <= min(bound, sqrt(N)).
    """
    for y in ys:
        if not y >= 1:
            raise ArgumentError(f"friability bound must be >= 1, got {y}")
    root = math.isqrt(N)
    bounds = sorted({math.floor(min(y, N)) for y in ys})
    primes = primes_up_to(min(max(bounds, default=1), root)).tolist()
    return primes, [(bisect.bisect_right(primes, min(bound, root)), bound) for bound in bounds]


def _prime_pi_table(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(small, large): small[v] = pi(v) for 0 <= v <= r and large[k] = pi(N // k)
    for 1 <= k <= r, with r = isqrt(N); both int64 arrays of r + 1 entries.

    Lucy's recursion.  Once the primes below p are sifted out, S(v)
    counts the n in [2, v] that are prime or have no prime factor below
    p; it starts as v - 1.  Sifting out a prime p <= sqrt(N) removes the
    composite n with smallest prime factor p, n = p m with m in
    [p, v // p] free of primes below p:

        S(v) -= S(v // p) - S(p - 1)     for every v >= p^2,

    all at once on the old values, since v // p < v.  For v = N // k,
    v // p = N // (k p) is again in the table: large[k p] while
    k p <= r, else small[N // (k p)].  Once every prime <= sqrt(N) is
    out, S(v) = pi(v).

    The dense primes p <= c = iroot(N, 3) take one step each.  The
    sparse primes c < p <= r then go in one pass, ``_sparse_primes_pass``:
    p^3 > N makes their steps independent.  Each reads S(N // (k p)) with
    N // (k p) <= N / p < p^2 < N^(2/3); that entry changes only under
    primes q with q^2 <= N / p, all dense, so it is final.  Each writes
    only large[k] with k <= N // p^2 < N^(1/3), whose N // k > N^(2/3)
    no sparse step reads, and never small, as p^2 > r.
    """
    r = math.isqrt(N)
    c = _iroot(N, 3)
    idx = np.arange(r + 1, dtype=np.int64)
    small = np.maximum(idx - 1, 0)
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = N // idx[1:] - 1
    primes = primes_up_to(r)
    dense = int(np.searchsorted(primes, c, side="right"))
    for p in primes[:dense].tolist():
        below = small[p - 1]
        top = min(r, N // (p * p))  # large[k] with N // k >= p^2
        inner = min(top, r // p)  # k p <= r
        large[1 : inner + 1] -= large[p : p * inner + 1 : p] - below
        large[inner + 1 : top + 1] -= small[N // (idx[inner + 1 : top + 1] * p)] - below
        if p * p <= r:
            small[p * p :] -= small[idx[p * p :] // p] - below
    del idx
    _sparse_primes_pass(N, primes[dense:], small, large)
    return small, large


def _sparse_primes_pass(N: int, sparse: np.ndarray, small: np.ndarray, large: np.ndarray) -> None:
    """Lucy's steps of the primes ``sparse``, all with p^3 > N, in one pass
    over the table the smaller primes left, where each S it reads is final:

        large[k] -= sum_{p : p^2 <= N // k} (S(N // (k p)) - pi(p - 1))

    The primes of k are a prefix of ``sparse``, n_k long, as ``sparse``
    ascends.  The (k, p) pairs run in blocks of at most r + 1, in order
    of k, so a block is whole prefixes; each prefix sum of S is one
    ``np.add.reduceat`` segment, and the pi(p - 1) are summed once.
    """
    if not sparse.size:
        return
    r = small.size - 1
    tops = N // (sparse * sparse)  # descending; p serves k <= tops[p]
    K = int(tops[0])
    ks = np.arange(1, K + 1, dtype=np.int64)
    counts = np.searchsorted(-tops, -ks, side="right")  # n_k = #{p : tops[p] >= k}
    below = np.zeros(sparse.size + 1, dtype=np.int64)
    np.cumsum(small[sparse - 1], out=below[1:])
    large[1 : K + 1] += below[counts]
    ends = np.cumsum(counts)
    a = 0
    while a < K:
        # k = a + 1 .. b: the longest run with at most r + 1 pairs, at least
        # one k, as n_k <= sparse.size <= r
        b = int(np.searchsorted(ends, ends[a] - counts[a] + r + 1, side="right"))
        large[a + 1 : b + 1] -= _prefix_sums(N, sparse, ks[a:b], counts[a:b], small, large)
        a = b


def _prefix_sums(
    N: int, sparse: np.ndarray, ks: np.ndarray, n: np.ndarray, small: np.ndarray, large: np.ndarray
) -> np.ndarray:
    """sum_{j < n_k} S(N // (k p_j)) for each k of ``ks``, p_j = sparse[j], n_k = ``n``.

    Its block temporaries, a few arrays of n.sum() entries, are freed on return.
    """
    r = small.size - 1
    starts = np.cumsum(n) - n
    j = np.arange(int(n.sum()))
    j -= np.repeat(starts, n)
    v = sparse[j]
    del j
    v *= np.repeat(ks, n)  # k p
    np.floor_divide(N, v, out=v)  # v = N // (k p)
    # v > r only where k p <= r; then S(v) = large[N // v], as N // (N // v) = v
    big = v > r
    s = small.take(v, mode="clip")
    s[big] = large[N // v[big]]
    return np.add.reduceat(s, starts)


def _largest_prime_factors(n: int) -> np.ndarray:
    """P+(m) for 0 <= m <= n, as int32: ``_sieve_segment``'s lpf alone, n < 2^31.

    Every prime p <= sqrt(n) is divided out of ``rem``, once per power,
    and written on its multiples in ascending order, so ``lpf`` holds the
    largest of them.  What stays in ``rem`` is 1 or a prime above them
    all; the maximum of the two is P+(m), with P+(0) = 0 and P+(1) = 1.
    """
    rem = np.arange(n + 1, dtype=np.int32)
    lpf = np.zeros(n + 1, dtype=np.int32)
    for p in primes_up_to(math.isqrt(n)).tolist():
        for s in _power_slices(0, n, p):
            rem[s] //= p
        lpf[p::p] = p
    return np.maximum(lpf, rem, out=lpf)


def _listed_psi(N: int, z: int, limit: int) -> int | None:
    """#{1 <= n <= N : P+(n) <= z} by listing those n, or None past ``limit`` of them.

    After the primes p_1 < ... < p_j the list holds every p_j-friable
    n <= N once; the next prime p multiplies it by p, p^2, ... while the
    products stay <= N.
    """
    friable = np.ones(1, dtype=np.int64)
    for p in primes_up_to(z).tolist():
        parts = [friable]
        while parts[-1].size:
            parts.append(parts[-1][parts[-1] <= N // p] * p)
        friable = np.concatenate(parts)
        if friable.size > limit:
            return None
    return friable.size


def psi_count(N: int, y: float, *, threads: int = 1) -> int:
    """Psi(N, y) = #{1 <= n <= N : P+(n) <= y}, exact, counted without a sieve.

    With z = floor(min(y, N)), Psi(N, y) = N - T(N, z), where
    T(m, q) = #{n <= m : P+(n) > q}.  Grouping n by its largest prime
    factor r > q, n = r k with k <= m // r and P+(k) <= r, gives
    Buchstab's identity

        T(m, q) = sum_{q < r <= s} (m // r - T(m // r, r))
                  + sum_{k=1}^{m // (A+1)} (pi(m // k) - pi(A)),

    with s = isqrt(m), A = max(q, s) and r running over primes.  In the
    second sum r > A >= s, so k <= m // r < r and all m // r cofactors
    count; summing m // r over the primes r in (A, m] by k counts, for
    each k, the primes in (A, m // k].  Every m met is N // d, so every
    m // k is N // (d k) and its pi is one lookup in ``_prime_pi_table(N)``.
    When z >= isqrt(N) the root has no first sum, and pi(z) is small[z]
    at z = isqrt(N), else one more table, ``_prime_pi_table(z)``.

    The children with m // r <= leaf = min(N^(3/5), one segment) are
    counted together from a largest-prime-factor table up to ``leaf``:
    their T(m // r, r) sum to #{(r, n) : n r <= m, P+(n) > r}, and for
    each n the primes r in (lo, s] with r <= m // n and r < P+(n) number
    pi(min(s, m // n, P+(n) - 1)) - pi(lo) when positive, with
    lo = max(q, m // (leaf + 1)); the primes r in (q, lo] have
    m // r > leaf and recurse one by one.  When at most ``leaf`` of the
    n <= N are z-friable, ``_listed_psi`` lists them instead.

    The prime-count table takes about N^(3/4) / log N array updates where
    a sieve of [1, N] took N, in one numpy step per prime p <= N^(1/3)
    and one blocked pass for the primes above: p^3 > N makes every entry
    such a p reads, S(N // (k p)) with N // (k p) < p^2, final once the
    smaller primes are out, and none of them writes an entry another
    reads.  ``y = 1`` counts n = 1 alone, the P+(1) = 1 convention.
    ``threads`` has no effect: the count runs in one thread.
    """
    if N < 1:
        raise ArgumentError(f"N must be >= 1, got {N}")
    if N > config.DEFAULT_MAX_SIEVE_N:
        raise ResourceError(f"N = {N} exceeds configured maximum {config.DEFAULT_MAX_SIEVE_N}")
    if not y >= 1:
        raise ArgumentError(f"friability bound must be >= 1, got {y}")
    z = math.floor(min(y, N))
    if z == N:
        return N
    root = math.isqrt(N)
    leaf = min(_iroot(N**3, 5), config.DEFAULT_SEGMENT_SIZE)
    if z <= root:
        count = _listed_psi(N, z, leaf)
        if count is not None:
            return count
    small, large = _prime_pi_table(N)
    ks = np.arange(1, max(root, leaf) + 1, dtype=np.int64)

    def pi_sum(m: int, K: int) -> int:
        """sum_{k=1}^{K} pi(m // k), every m // k > root read from ``large``."""
        v = m // ks[:K]
        big = min(K, m // (root + 1))
        return int(large[N // v[:big]].sum() + small[v[big:]].sum())

    if z >= root:  # no prime r with z < r <= sqrt(N): only the second sum
        K = N // (z + 1)
        pi_z = small[z] if z == root else _prime_pi_table(z)[1][1]
        return N - pi_sum(N, K) + K * int(pi_z)

    primes = primes_up_to(root)
    prime_list = primes.tolist()
    lpf = _largest_prime_factors(leaf)

    def rough(m: int, q: int) -> int:
        """T(m, q) for m = N // d and q <= root."""
        s = math.isqrt(m)
        total = 0
        if q < s:
            lo = min(max(q, m // (leaf + 1)), s)
            for r in prime_list[small[q] : small[lo]]:
                total += m // r - rough(m // r, r)
            leaves = primes[small[lo] : small[s]]
            if leaves.size:
                n_top = m // (lo + 1)
                top = np.minimum(m // ks[:n_top], s)
                np.minimum(top, lpf[1 : n_top + 1] - 1, out=top)
                excess = small[top] - small[lo]
                total += int((m // leaves).sum()) - int(excess[excess > 0].sum())
        A = max(q, s)
        K = m // (A + 1)
        return total + pi_sum(m, K) - K * int(small[A])

    return N - rough(N, z)


def friable_masks(N: int, ys: Sequence[float], *, threads: int = 1) -> dict[float, np.ndarray]:
    """{y: mask} for each distinct y in ``ys``, mask[n] = (P+(n) <= y) on 0 <= n <= N.

    One pass of ``_remainder_kernel`` over [0, N], split into segments that
    min(``threads``, usable CPUs) workers fill.  ``rem`` starts as the
    integers themselves; the primes are divided out in ascending order,
    once per power, and the mask of y is the snapshot ``rem <= y`` taken
    once every prime <= z = min(y, sqrt(N)) is out.  Proof, with r = rem[n]:

    * every prime <= y is <= sqrt(N): r is 1 or has only prime factors
      above y, so r <= y iff r = 1 iff P+(n) <= y;
    * some prime <= y exceeds sqrt(N): r has no prime factor <= sqrt(N)
      and r <= n <= N, so r is 1 or a single prime q > sqrt(N); then
      P+(n) <= y iff r = 1 or q <= y, iff r <= y.

    rem[0] = 0 makes n = 0 friable, as P+(0) = 0, and ``y = 1`` divides
    nothing, so n = 1 alone is friable among n >= 1.  Thresholds with the
    same floor(min(y, N)) share one array.  Raises ResourceError, before
    allocating, when N + 1 entries exceed the table budget
    ``config.DEFAULT_MAX_TABLE``.
    """
    if N < 1:
        raise ArgumentError(f"N must be >= 1, got {N}")
    if N + 1 > config.DEFAULT_MAX_TABLE:
        raise ResourceError(
            f"masks of {N + 1} entries exceed the table budget of {config.DEFAULT_MAX_TABLE}"
        )
    primes, levels = _remainder_plan(N, ys)
    masks = [np.empty(N + 1, dtype=bool) for _ in levels]
    segment_size = config.DEFAULT_SEGMENT_SIZE

    def fill(a: int) -> None:
        b = min(a + segment_size - 1, N)
        _remainder_kernel(a, b, primes, levels, [m[a : b + 1] for m in masks])

    starts = range(0, N + 1, segment_size)
    workers = min(threads, config.usable_cpus(), len(starts))
    if workers <= 1:
        for a in starts:
            fill(a)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))  # consumed, so a worker's exception propagates
    by_bound = {bound: m for (_, bound), m in zip(levels, masks)}
    return {y: by_bound[math.floor(min(y, N))] for y in ys}


def sifted_squarefree_arrays(limit: int, y: float) -> tuple[np.ndarray, np.ndarray]:
    """(k, mu(k)) arrays for squarefree k <= limit with P-(k) > y, ascending.

    Each segment keeps a Mobius array ``mu`` and a remainder ``rem``, and
    every prime p <= sqrt(limit) writes slices: p <= y zeroes mu on its
    multiples; p > y flips mu and divides rem on its multiples and zeroes
    mu on the multiples of p^2.  A k whose mu is still nonzero is then
    squarefree over the primes <= sqrt(limit), none of them <= y, and
    rem[k] <= limit is 1 or a single prime q > sqrt(limit): q flips mu,
    and zeroes it when q <= y too, so mu is multiplied by
    (rem == 1) - (rem > y), with y >= 1.

    ``y = 1`` sifts nothing out: every squarefree k <= limit is kept.
    """
    if limit < 1:
        raise ArgumentError(f"limit must be >= 1, got {limit}")
    if not y >= 1:
        raise ArgumentError(f"sifting bound must be >= 1, got {y}")
    _check_bounds(1, limit, config.DEFAULT_MAX_SIEVE_N)
    segment_size = config.DEFAULT_SEGMENT_SIZE
    primes = primes_up_to(math.isqrt(limit)).tolist()
    ks: list[np.ndarray] = []
    mus: list[np.ndarray] = []
    for a in range(1, limit + 1, segment_size):
        b = min(a + segment_size - 1, limit)
        mu = np.ones(b - a + 1, dtype=np.int8)
        rem = np.arange(a, b + 1, dtype=np.int32 if b < 2**31 else np.int64)
        for p in primes:
            slices = _power_slices(a, b, p)[:2]
            if not slices:
                continue
            if p <= y:
                mu[slices[0]] = 0
                continue
            mu[slices[0]] *= -1
            rem[slices[0]] //= p
            if len(slices) == 2:
                mu[slices[1]] = 0
        mu *= (rem == 1).view(np.int8) - (rem > y).view(np.int8)
        keep = np.flatnonzero(mu)
        ks.append(keep + a)
        mus.append(mu[keep].astype(np.int64))
    return np.concatenate(ks), np.concatenate(mus)
