"""Exact factorization primitives over integer segments.

Everything here is integer-exact: largest/smallest prime factor tables,
Mobius values, friable counting, and enumeration of sifted squarefree
integers.  Conventions for the degenerate inputs are fixed once and used
package-wide:

    P+(0) = 0,  P+(+-1) = 1          (so 0 and 1 are y-friable for every y)
    P-(0) = 0,  P-(+-1) = +infinity  (so 1 is y-sifted for every y)

Inside tables the infinite value is stored as the int64 sentinel
``SPF_INFINITY``; the scalar API surfaces it as ``math.inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from ._parallel import ordered_map
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

    def _index(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise ArgumentError(f"{n} outside sieve segment [{self.lo}, {self.hi}]")
        return n - self.lo

    def largest(self, n: int) -> int:
        return int(self.lpf[self._index(n)])

    def smallest(self, n: int) -> int | float:
        v = self.spf[self._index(n)]
        return math.inf if v == SPF_INFINITY else int(v)

    def mobius(self, n: int) -> int:
        return int(self.mu[self._index(n)])

    def friable_mask(self, y: float) -> np.ndarray:
        """Boolean mask over the segment: P+(n) <= y."""
        return self.lpf <= y

    def sifted_mask(self, y: float) -> np.ndarray:
        """Boolean mask over the segment: P-(n) > y (n = 0 is never sifted)."""
        return self.spf > y


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
    above sqrt(hi), which is then the largest prime factor.
    """
    n = hi - lo + 1
    lpf = np.zeros(n, dtype=np.int64)
    spf = np.zeros(n, dtype=np.int64)
    mu = np.ones(n, dtype=np.int8)
    rem = np.arange(lo, hi + 1, dtype=np.int64)
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
    big = rem > 1
    lpf[big] = rem[big]
    mu[big] *= -1
    unset = spf == 0
    spf[unset] = rem[unset]
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


def build_factor_sieve(
    lo: int,
    hi: int,
    *,
    segment_size: int | None = None,
    max_entries: int | None = None,
) -> FactorSieve:
    """Build lpf/spf/mu tables for [lo, hi], sieving in cache-sized segments.

    Raises ResourceError when the table would exceed ``max_entries``
    (default 2**26) and ArgumentError for an empty or negative range.
    """
    segment_size = segment_size or config.DEFAULT_SEGMENT_SIZE
    max_entries = max_entries or config.DEFAULT_MAX_TABLE
    _check_bounds(lo, hi, config.DEFAULT_MAX_SIEVE_N)
    total = hi - lo + 1
    if total > max_entries:
        raise ResourceError(
            f"segment of {total} entries exceeds memory budget of {max_entries}"
        )
    base = primes_up_to(math.isqrt(hi))
    parts = [
        _sieve_segment(a, min(a + segment_size - 1, hi), base)
        for a in range(lo, hi + 1, segment_size)
    ]
    if len(parts) == 1:
        return parts[0]
    return FactorSieve(
        lo,
        hi,
        np.concatenate([s.lpf for s in parts]),
        np.concatenate([s.spf for s in parts]),
        np.concatenate([s.mu for s in parts]),
    )


def iter_factor_segments(lo: int, hi: int, segment_size: int | None = None):
    """Yield FactorSieve segments covering [lo, hi] in order (streaming)."""
    segment_size = segment_size or config.DEFAULT_SEGMENT_SIZE
    _check_bounds(lo, hi, config.DEFAULT_MAX_SIEVE_N)
    base = primes_up_to(math.isqrt(hi))
    for a in range(lo, hi + 1, segment_size):
        yield _sieve_segment(a, min(a + segment_size - 1, hi), base)


# ---------------------------------------------------------------------------
# counts and enumerations
# ---------------------------------------------------------------------------


def psi_count(
    N: int,
    y: float,
    *,
    segment_size: int | None = None,
    threads: int = 1,
    max_n: int | None = None,
) -> int:
    """Psi(N, y) = #{1 <= n <= N : P+(n) <= y}, exact by segmented sieving.

    Each segment keeps one array, ``rem``, starting as the integers
    themselves.  Every prime p <= z = min(y, sqrt(N)) is divided out of
    it, once per power of p, so ``rem[n]`` ends as n stripped of its
    primes <= z; then n is y-friable iff ``rem[n] <= y``.  Proof, with
    r = rem[n]:

    * every prime <= y is <= sqrt(N): r is 1 or has only prime factors
      above y, so r <= y iff r = 1 iff P+(n) <= y;
    * some prime <= y exceeds sqrt(N): r has no prime factor <= sqrt(N)
      and r <= n <= N, so r is 1 or a single prime q > sqrt(N); then
      P+(n) <= y iff r = 1 or q <= y, iff r <= y.

    ``y = 1`` divides nothing and counts n = 1 alone, the P+(1) = 1
    convention.  No lpf, spf or Mobius table is built.
    """
    if N < 1:
        raise ArgumentError(f"N must be >= 1, got {N}")
    if not y >= 1:
        raise ArgumentError(f"friability bound must be >= 1, got {y}")
    max_n = max_n or config.DEFAULT_MAX_SIEVE_N
    if N > max_n:
        raise ResourceError(f"N = {N} exceeds configured maximum {max_n}")
    segment_size = segment_size or config.DEFAULT_SEGMENT_SIZE
    bound = int(min(y, N))
    base = primes_up_to(min(bound, math.isqrt(N))).tolist()
    dtype = np.int32 if N < 2**31 else np.int64
    bounds = [(a, min(a + segment_size - 1, N)) for a in range(1, N + 1, segment_size)]

    def count_one(ab: tuple[int, int]) -> int:
        a, b = ab
        rem = np.arange(a, b + 1, dtype=dtype)
        for p in base:
            for s in _power_slices(a, b, p):
                rem[s] //= p
        return int(np.count_nonzero(rem <= bound))

    return sum(ordered_map(count_one, bounds, threads))


def sifted_squarefree_arrays(
    limit: int, y: float, *, segment_size: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(k, mu(k)) arrays for squarefree k <= limit with P-(k) > y, ascending.

    ``y = 1`` sifts nothing out: every squarefree k <= limit is kept.
    """
    if limit < 1:
        raise ArgumentError(f"limit must be >= 1, got {limit}")
    if not y >= 1:
        raise ArgumentError(f"sifting bound must be >= 1, got {y}")
    ks: list[np.ndarray] = []
    mus: list[np.ndarray] = []
    for seg in iter_factor_segments(1, limit, segment_size):
        keep = (seg.mu != 0) & seg.sifted_mask(y)
        ks.append(np.arange(seg.lo, seg.hi + 1, dtype=np.int64)[keep])
        mus.append(seg.mu[keep].astype(np.int64))
    return np.concatenate(ks), np.concatenate(mus)
