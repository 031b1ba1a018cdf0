"""Gowers uniformity norms U^k on cyclic groups and on integer intervals.

The cyclic norm is computed by the derivative recursion

    ||f||_{U^k(Z_M)}^(2^k) = E_h ||Delta_h f||_{U^(k-1)(Z_M)}^(2^(k-1)),
    Delta_h f(n) = f(n + h) * conj(f(n)),

with the U^2 base case evaluated through the Fourier identity
||f||_{U^2}^4 = sum_xi |fhat(xi)|^4 (one FFT), giving O(M^(k-1) log M)
instead of the O(M^(k+1)) direct sum, which the test suite keeps as its
oracle.  Since Delta_{-h} f(n) = conj(Delta_h f(n - h)), and U^j norms do
not change under shifts and conjugation, the terms at h and -h are equal
(for complex f too): the sum runs over h = 0..floor(M/2), with weight 1 at
h = 0 and h = M/2 (M even) and 2 elsewhere.

At k = 4 the recursion is taken two levels at once,

    ||f||_{U^4}^16 = M^-2 sum_{h1, h2} w(h1) w(h2) ||Delta_{h2} Delta_{h1} f||_{U^2}^4,

with h1, h2 in 0..floor(M/2) and w the weights above.  Since
Delta_{h2} Delta_{h1} f(n) = f(n + h1 + h2) conj(f(n + h1)) conj(f(n + h2)) f(n)
is symmetric in (h1, h2), the sum runs over the pairs h1 <= h2 only, with
weight w(h1) w(h2) on the diagonal and 2 w(h1) w(h2) off it: about half
the rows of a U^3 norm taken at each h1.  Each derivative Delta_{h1} f
whose imaginary part is identically 0 (|f|^2 at h1 = 0) takes the real
path below.

The derivative rows of U^3 and U^4 are transformed in blocks of
``_BLOCK_ENTRIES`` = 2^18 row entries (at least one row), a block
holding rows of consecutive h2 and, at k = 4, of several h1.  The blocks
are independent, and numpy's FFTs release the interpreter lock, so W
workers share them: the calling thread and W - 1 started threads, each
taking the next block not yet taken until none is left, so a worker
slowed by a busy CPU takes fewer.  W is ``threads``, at most the usable
CPUs and one per ``_BLOCKS_PER_WORKER`` = 2 blocks, and at least 1.  The
real and the complex rows of U^4 are summed apart, each kind by its own
blocks and workers.  Each worker reuses one set of work arrays (rows,
spectrum and fourth powers: 5 MB for real rows and 6 MB for complex
ones, whatever M), allocated by the calling thread.  Each block total is
one float, and the calling thread adds them in block order, then the two
kinds, so the norm has the same bits for every W and whichever worker
took a block.  Speed-up of 2 workers over 1 on balanced friable
functions, 2-vCPU host, medians of two sweeps of 20 interleaved runs:
U^3 at M = 4096 (33 blocks) 1.65x and 1.79x, U^4 at M = 256 (9 blocks)
1.43x and 1.47x.  With a fixed share of the blocks per worker, U^3 at
M = 1024 (3 blocks) ran 0.78-1.11x cyclic and 0.74-0.91x as the interval
norm at N = 511, hence the floor; M = 1280 (4 blocks) 1.01-1.15x,
1536 (5) 1.00-1.37x, 2048 (9) 1.39-1.51x.

A real f has real derivatives Delta_h f(n) = f(n + h) f(n) and a
Hermitian spectrum, |fhat(-xi)| = |fhat(xi)|, so the same folding applies
to frequencies: sum_xi |fhat(xi)|^4 runs over xi = 0..floor(M/2) of one
real FFT, with weight 1 at xi = 0 and xi = M/2 (M even) and 2 elsewhere.
A sequence is a plain 1-d array, float64 when real and complex128 when
complex.  A float array takes this path, and so does a complex one whose
imaginary part is identically zero; any other complex array takes the
full FFT.

The interval norm U^k[N] embeds f * 1_[0,N] into Z_M with M the first
5-smooth length >= 2N + 1, and normalizes by the embedded indicator:

    ||f||_{U^k[N]} = ||f 1_[0,N]||_{U^k(Z_M)} / ||1_[0,N]||_{U^k(Z_M)}.

Any M >= 2N + 1 gives the integer sums.  A parallelepiped n + w.h whose
2^k vertices all fall in [0, N] mod M lifts to one with n in [0, N] and
each h_i in [-N, N] (the lift is unique, as M > 2N); every other vertex
is v1 + v2 - v3 of three vertices of lower order already in [0, N], so it
lies in [-N, 2N], and such an integer falls in [0, N] mod M only if it
lies in [0, N].  So the configurations mod M that the embedded support
sees are exactly the integer ones, for every k.

The denominator is therefore a count.  An integer configuration (n, h)
has all its vertices in [0, N] iff n runs over N + 1 - ||h||_1 > 0
values (the vertices span max - min = ||h||_1), and the h in Z^k with
exactly j nonzero entries and ||h||_1 = s number 2^j binom(k, j)
binom(s - 1, j - 1).  Summing N + 1 - s over s gives

    ||1_[0,N]||_{U^k(Z_M)}^(2^k) = C_k(N) / M^(k+1),
    C_k(N) = sum_{j=0..k} 2^j binom(k, j) binom(N + 1, j + 1).
"""

from __future__ import annotations

import math
from threading import Lock, Thread

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import config
from .errors import ArgumentError, NumericError, ResourceError
from .forms import _fft_length

_CYCLIC_GUARDRAIL = {2: 1 << 22, 3: 1 << 14, 4: 1 << 9}
_BLOCK_ENTRIES = 1 << 18  # derivative-row entries per block, sized for cache
_BLOCKS_PER_WORKER = 2  # fewer blocks per worker: no gain on two cores (module docstring)


def _as_sequence(f) -> np.ndarray:
    """f as a 1-d array: float64 when real, complex128 when complex.

    On Z_M the domain is {0, ..., M-1}; as an interval function it is
    {0, ..., N} with N = len(f) - 1.  Raises ArgumentError for an empty or
    multi-dimensional input and for a non-finite entry.
    """
    vals = np.asarray(f)
    vals = np.ascontiguousarray(vals, dtype=np.complex128 if vals.dtype.kind == "c" else np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise ArgumentError("a sequence is a nonempty 1-d array")
    if not np.isfinite(vals).all():
        raise ArgumentError("sequence entries must be finite")
    return vals


def _check_bounded(vals: np.ndarray) -> None:
    sup = float(np.max(np.abs(vals)))
    if sup > 1.0 + 1e-12:
        raise ArgumentError(
            f"uniformity norms expect |f| <= 1; this sequence has sup {sup:.6g}"
        )


def _half_weights(M: int) -> np.ndarray:
    """Weights of the indices 0..floor(M/2) that fold a sum over Z_M onto its
    half by the x <-> -x symmetry: 1 at 0 and at M/2 (M even), 2 elsewhere."""
    weights = np.full(M // 2 + 1, 2.0)
    weights[0] = 1.0
    if M % 2 == 0:
        weights[-1] = 1.0
    return weights


def _fourth_powers(fh: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|fh|^4 entrywise, formed in place (in ``out`` when given)."""
    mag = np.abs(fh, out=out)
    mag *= mag
    mag *= mag
    return mag


def _u2_rows(rows: np.ndarray, spectrum, mag) -> np.ndarray:
    """||r||_{U^2}^4 = sum_xi |rhat(xi)|^4, rhat(xi) = E_n r(n) e(-xi n / M),
    of each row r of ``rows`` (1-d or 2-d), the FFT written to ``spectrum``
    and its fourth powers to ``mag`` (new arrays where None).  Float rows
    fold the half spectrum of one real FFT by ``_half_weights``; complex
    rows take the full FFT."""
    if rows.dtype.kind == "f":
        fh = np.fft.rfft(rows, axis=-1, norm="forward", out=spectrum)
        return _fourth_powers(fh, mag) @ _half_weights(rows.shape[-1])
    fh = np.fft.fft(rows, axis=-1, norm="forward", out=spectrum)
    return np.sum(_fourth_powers(fh, mag), axis=-1)


class _WorkArrays:
    """One worker's arrays for blocks of up to ``chunk`` derivative rows of one
    dtype, reused from block to block: the rows (complex ones transformed in
    place), their spectra, fourth powers and weights, and a doubled copy of g
    whose windows are the shifts g(n + h), plus conj(g) for a complex g."""

    def __init__(self, M: int, dtype, chunk: int):
        self.rows = np.empty((chunk, M), dtype=dtype)
        real = self.rows.dtype.kind == "f"
        self.spectrum = np.empty((chunk, M // 2 + 1), dtype=np.complex128) if real else self.rows
        self.mag = np.empty(self.spectrum.shape)
        self.weights = np.empty(chunk)
        self.doubled = np.empty(2 * M, dtype=self.rows.dtype)
        self.shifted = sliding_window_view(self.doubled, M)  # row h: g(n + h)
        self.conj = None if real else np.empty(M, dtype=self.rows.dtype)

    def total(self, block: list[tuple]) -> float:
        """sum_r w_r ||r||_{U^2}^4 over the rows r of ``block``."""
        M = self.rows.shape[1]
        filled = 0
        for g, h, weights in block:
            self.doubled[:M] = g
            self.doubled[M:] = g
            conj = self.doubled[:M] if self.conj is None else np.conjugate(g, out=self.conj)
            stop = filled + weights.size
            np.multiply(self.shifted[h : h + weights.size], conj, out=self.rows[filled:stop])
            self.weights[filled:stop] = weights
            filled = stop
        u2 = _u2_rows(self.rows[:filled], self.spectrum[:filled], self.mag[:filled])
        return float(self.weights[:filled] @ u2)


def _block_plan(sources: list[tuple], chunk: int) -> list[list[tuple]]:
    """The derivative rows of ``sources`` cut, in order, into blocks of
    ``chunk`` rows, the last one shorter.  A source (g, h, weights) stands
    for the rows Delta_{h + i} g with weights[i], i = 0..len(weights) - 1;
    a block is a list of such pieces and may hold rows of several sources."""
    blocks: list[list[tuple]] = [[]]
    filled = 0
    for g, h, weights in sources:
        done = 0
        while done < weights.size:
            if filled == chunk:
                blocks.append([])
                filled = 0
            n = min(chunk - filled, weights.size - done)
            blocks[-1].append((g, h + done, weights[done : done + n]))
            filled += n
            done += n
    return blocks


def _workers(threads: int, blocks: int) -> int:
    """Worker threads for ``blocks`` derivative blocks: ``threads``, at most
    the usable CPUs and one per ``_BLOCKS_PER_WORKER`` blocks, at least 1."""
    return max(1, min(threads, config.usable_cpus(), blocks // _BLOCKS_PER_WORKER))


def _derivative_sum(sources: list[tuple], M: int, threads: int) -> float:
    """sum_r w_r ||r||_{U^2}^4 over the rows of ``sources``, all of one
    dtype, in blocks of ``_BLOCK_ENTRIES`` row entries (at least one row).
    Each of the W workers takes the next free block until none is left;
    the block totals are then added in block order from 0.0, so the sum
    does not depend on W or on which worker took which block.  If a block
    raises, no further block is handed out and, once every worker has
    stopped, the first error is raised here."""
    chunk = min(max(1, _BLOCK_ENTRIES // M), sum(w.size for _, _, w in sources))
    blocks = _block_plan(sources, chunk)
    workers = _workers(threads, len(blocks))
    # allocated in this thread: what a worker thread allocates stays in that
    # thread's malloc arena after it ends (14 MB more peak RSS over repeated
    # count_gowers campaigns on a 2-vCPU host)
    work = [_WorkArrays(M, sources[0][0].dtype, chunk) for _ in range(workers)]
    totals = [0.0] * len(blocks)
    lock = Lock()
    taken = 0
    errors: list[BaseException] = []

    def run(arrays: _WorkArrays) -> None:
        nonlocal taken
        while True:
            with lock:
                if errors or taken == len(blocks):
                    return
                i = taken
                taken += 1
            try:
                totals[i] = arrays.total(blocks[i])
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    started = [Thread(target=run, args=(arrays,)) for arrays in work[1:]]
    for thread in started:
        thread.start()
    try:
        run(work[0])  # the calling thread is worker 0
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    total = 0.0
    for block_total in totals:
        total += block_total
    return total


def _uk_pow(vals: np.ndarray, k: int, threads: int = 1) -> float:
    """||f||_{U^k}^(2^k) by the derivative recursion with FFT base case,
    summed over h = 0..floor(M/2) by the h <-> -h symmetry and, at k = 4,
    over pairs h1 <= h2 by the (h1, h2) symmetry.  A complex f or
    derivative Delta_{h1} f whose imaginary part is identically 0 runs on
    its real part.  ``threads`` bounds the workers of ``_derivative_sum``."""
    if vals.dtype.kind == "c" and not vals.imag.any():
        vals = vals.real
    if k == 2:
        return float(_u2_rows(vals, None, None))
    M = vals.size
    half = _half_weights(M)
    if k == 3:
        return _derivative_sum([(vals, 0, half)], M, threads) / M
    derivatives = sliding_window_view(np.concatenate((vals, vals)), M)[: half.size] * np.conj(vals)
    by_kind: dict[str, list[tuple]] = {}  # real and complex derivatives, in order of h1
    for h1, g in enumerate(derivatives):
        if g.dtype.kind == "c" and not g.imag.any():
            g = g.real  # as |f|^2 at h1 = 0
        weights = (2.0 * half[h1]) * half[h1:]  # the pairs (h1, h2) and (h2, h1)
        weights[0] = half[h1] * half[h1]  # the diagonal pair, once
        by_kind.setdefault(g.dtype.kind, []).append((g, h1, weights))
    return sum(_derivative_sum(sources, M, threads) for sources in by_kind.values()) / (M * M)


def _root(power: float, k: int) -> float:
    """Nonnegative 2^k-th root; tiny negative power is floating noise."""
    if power < 0.0:
        if power < -1e-12:
            raise NumericError(f"U^{k} power {power:.3g} is significantly negative")
        power = 0.0
    return power ** (1.0 / 2.0**k)


def _check_k_and_size(k: int, length: int, *, interval: bool) -> int:
    """The modulus M of the U^k norm of ``length`` entries: ``length`` on Z_M,
    _fft_length(2N + 1) on an interval {0, ..., N}.  Raises ArgumentError
    for k outside 2..4 and ResourceError over the guardrail; a caller that
    builds its sequence checks first, so a refused input allocates nothing.
    """
    if k not in (2, 3, 4):
        raise ArgumentError(f"only U^2..U^4 are supported, got k = {k}")
    M = _fft_length(2 * length - 1) if interval else length
    if M > _CYCLIC_GUARDRAIL[k]:
        raise ResourceError(
            f"modulus {M} exceeds the U^{k} cost guardrail {_CYCLIC_GUARDRAIL[k]}"
        )
    return M


def _indicator_pow(length: int, k: int, M: int) -> float:
    """||1_[0,N]||_{U^k(Z_M)}^(2^k) for N = length - 1 and M >= 2N + 1: the
    count C_k(N) of the module docstring over M^(k+1), both exact integers."""
    count = sum(2**j * math.comb(k, j) * math.comb(length, j + 1) for j in range(k + 1))
    return count / M ** (k + 1)


def gowers_norm_cyclic(f, k: int, *, threads: int = 1) -> float:
    """||f||_{U^k(Z_M)} for f on Z_M, M = len(f); at k = 3, 4 up to
    ``threads`` workers transform the derivative blocks, with the same
    result for every ``threads``."""
    vals = _as_sequence(f)
    _check_k_and_size(k, vals.size, interval=False)
    _check_bounded(vals)
    return _root(_uk_pow(vals, k, threads), k)


def gowers_norm_interval(f, k: int, *, threads: int = 1) -> float:
    """||f||_{U^k[N]} for f on {0, ..., N}, N = len(f) - 1, ``threads`` as
    in ``gowers_norm_cyclic``.

    The guardrail applies to the ambient modulus M = _fft_length(2N + 1),
    which is what the FFTs actually run on.
    """
    vals = _as_sequence(f)
    n0 = vals.size
    M = _check_k_and_size(k, n0, interval=True)
    _check_bounded(vals)
    emb = np.zeros(M, dtype=vals.dtype)
    emb[:n0] = vals
    return _root(_uk_pow(emb, k, threads), k) / _root(_indicator_pow(n0, k, M), k)
