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
holding rows of consecutive h2 and, at k = 4, of several h1.  Its work
arrays (rows, spectrum and fourth powers) take 5 MB for real rows and
6 MB for complex ones, whatever M, and are reused from block to block.

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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError, NumericError, ResourceError
from .forms import _fft_length

_CYCLIC_GUARDRAIL = {2: 1 << 22, 3: 1 << 14, 4: 1 << 9}
_BLOCK_ENTRIES = 1 << 18  # derivative-row entries per block, sized for cache


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


class _DerivativeBlocks:
    """sum_r w_r ||r||_{U^2}^4 over derivative rows r = Delta_h g of one
    dtype, gathered in blocks of ``_BLOCK_ENTRIES`` row entries (at least
    one row) through work arrays reused from block to block; complex rows
    are transformed in place.  ``rows`` bounds the number of rows added.
    Each g is copied twice into one doubled buffer, whose windows are the
    shifts g(n + h), and a complex g's conjugate into one more."""

    def __init__(self, M: int, dtype, rows: int):
        chunk = min(max(1, _BLOCK_ENTRIES // M), rows)
        self.rows = np.empty((chunk, M), dtype=dtype)
        real = self.rows.dtype.kind == "f"
        self.spectrum = np.empty((chunk, M // 2 + 1), dtype=np.complex128) if real else self.rows
        self.mag = np.empty(self.spectrum.shape)
        self.weights = np.empty(chunk)
        self.doubled = np.empty(2 * M, dtype=self.rows.dtype)
        self.shifted = sliding_window_view(self.doubled, M)  # row h: g(n + h)
        self.conj = None if real else np.empty(M, dtype=self.rows.dtype)
        self.filled = 0
        self.total = 0.0

    def add(self, g: np.ndarray, h: int, weights: np.ndarray) -> None:
        """The rows Delta_{h + i} g with weights[i], i = 0..len(weights) - 1."""
        M = g.size
        self.doubled[:M] = g
        self.doubled[M:] = g
        conj = self.doubled[:M] if self.conj is None else np.conjugate(g, out=self.conj)
        chunk = self.weights.size
        done = 0
        while done < weights.size:
            n = min(chunk - self.filled, weights.size - done)
            stop = self.filled + n
            shifted = self.shifted[h + done : h + done + n]
            np.multiply(shifted, conj, out=self.rows[self.filled : stop])
            self.weights[self.filled : stop] = weights[done : done + n]
            self.filled = stop
            done += n
            if stop == chunk:
                self.flush()

    def flush(self) -> float:
        """Fold the rows added so far into ``total`` and return it."""
        n = self.filled
        if n:
            u2 = _u2_rows(self.rows[:n], self.spectrum[:n], self.mag[:n])
            self.total += float(self.weights[:n] @ u2)
            self.filled = 0
        return self.total


def _uk_pow(vals: np.ndarray, k: int) -> float:
    """||f||_{U^k}^(2^k) by the derivative recursion with FFT base case,
    summed over h = 0..floor(M/2) by the h <-> -h symmetry and, at k = 4,
    over pairs h1 <= h2 by the (h1, h2) symmetry.  A complex f or
    derivative Delta_{h1} f whose imaginary part is identically 0 runs on
    its real part."""
    if vals.dtype.kind == "c" and not vals.imag.any():
        vals = vals.real
    if k == 2:
        return float(_u2_rows(vals, None, None))
    M = vals.size
    half = _half_weights(M)
    if k == 3:
        rows = _DerivativeBlocks(M, vals.dtype, half.size)
        rows.add(vals, 0, half)
        return rows.flush() / M
    shifted = sliding_window_view(np.concatenate((vals, vals)), M)
    conj = np.conj(vals)
    pairs = half.size * (half.size + 1) // 2
    by_kind: dict[str, _DerivativeBlocks] = {}  # real and complex derivatives
    for h1 in range(half.size):
        g = shifted[h1] * conj
        if g.dtype.kind == "c" and not g.imag.any():
            g = g.real  # as |f|^2 at h1 = 0
        if g.dtype.kind not in by_kind:
            by_kind[g.dtype.kind] = _DerivativeBlocks(M, g.dtype, pairs)
        weights = (2.0 * half[h1]) * half[h1:]  # the pairs (h1, h2) and (h2, h1)
        weights[0] = half[h1] * half[h1]  # the diagonal pair, once
        by_kind[g.dtype.kind].add(g, h1, weights)
    return sum(rows.flush() for rows in by_kind.values()) / (M * M)


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


def gowers_norm_cyclic(f, k: int) -> float:
    """||f||_{U^k(Z_M)} for f on Z_M, M = len(f)."""
    vals = _as_sequence(f)
    _check_k_and_size(k, vals.size, interval=False)
    _check_bounded(vals)
    return _root(_uk_pow(vals, k), k)


def gowers_norm_interval(f, k: int) -> float:
    """||f||_{U^k[N]} for f on {0, ..., N}, N = len(f) - 1.

    The guardrail applies to the ambient modulus M = _fft_length(2N + 1),
    which is what the FFTs actually run on.
    """
    vals = _as_sequence(f)
    n0 = vals.size
    M = _check_k_and_size(k, n0, interval=True)
    _check_bounded(vals)
    emb = np.zeros(M, dtype=vals.dtype)
    emb[:n0] = vals
    return _root(_uk_pow(emb, k), k) / _root(_indicator_pow(n0, k, M), k)
