"""Balanced friable functions, truncated Mobius decomposition, correlations.

The balanced function of the friability level N^(1/u) is

    h(n) = 1[P+(n) <= N^(1/u)] - rho(u),    1 <= n <= N,

and Mobius inversion over sifted squarefree k splits it exactly as
h = h_tau + r, where

    h_tau(n) = sum_{k <= N^(1-tau), P-(k) > N^(1/u)} mu(k) (1[k|n] - 1/k),
    r(n)     = sum_{k >  N^(1-tau), P-(k) > N^(1/u)} mu(k) 1[k|n]
               + sum_{k <= N^(1-tau), P-(k) > N^(1/u)} mu(k)/k  -  rho(u).

Correlation sums against explicit polynomial/bracket phase sequences
(the concrete low-step stand-ins used throughout) therefore split as
Sigma_1 + Sigma_2 with the identity holding by construction.

All sequences are plain arrays on the index range 0..N: float64 for h
and h_tau, complex128 for phases.  Every sum runs over 1 <= n <= N, and
index 0 is fixed to 0 for the Mobius-built sequences (every k divides 0,
which would otherwise inject a meaningless O(#k) spike).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analytic, config, dickman, forms, sieve
from .errors import ArgumentError, ResourceError

GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0   # badly approximable
SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0

_SUBSET_POINT_BUDGET = 10**6
_HTAU_TERM_BUDGET = 10**7
_SCATTER_BLOCK = 1 << 20  # (k, multiple) pairs per np.add.at call
# k with this many multiples take a strided slice, not the scatter.  At
# N = 10^5, tau = 0.2, u = 1.5/2/3 (medians of 150 calls, 2-vCPU VM) the
# pass over k <= N^(1-tau) fell from 1.52/1.93/2.52 ms to 0.14/0.73/0.42 ms;
# a threshold of 8 took 0.90/1.22/1.44 ms there and doubled the pass over
# the k above (0.23/0.23/0.32 -> 0.48/0.49/0.65 ms), whose few multiples
# each cost a slice.
_DENSE_MULTIPLES = 128
_PHASE_BLOCK = 1 << 18  # phases computed per step of PhaseSequence.values


# ---------------------------------------------------------------------------
# phase sequences
# ---------------------------------------------------------------------------


_U64 = 1 << 64


def _frac_mod1(theta: float, k: np.ndarray) -> np.ndarray:
    """Exact fractional part of theta * k for the IEEE value of theta and
    every entry of an integer array k, as float64.

    theta = a / 2^s exactly, so theta * k mod 1 = (a k mod 2^s) / 2^s, in
    integers, rounded once: float rounding of a huge theta * k never leaks
    in.  For s <= 64 and a uint64 k, a k mod 2^s is (a mod 2^64) k in
    wrapping uint64 arithmetic, masked to s bits; the uint64 -> float64
    cast rounds correctly and dividing by 2^s is exact.  Any other input (s
    above 64, that is |theta| below about 2^-11, or an object array k) is
    computed in Python integers, whose true division rounds correctly too.
    """
    a, b = float(theta).as_integer_ratio()
    if b == 1:
        return np.zeros(k.size)
    if b > _U64 or k.dtype != np.uint64:
        return (k.astype(object) * a % b / b).astype(np.float64)
    x = k * np.uint64(a % _U64)
    x &= np.uint64(b - 1)
    return x.astype(np.float64) / b


def _floor_mul(phi: float, n: np.ndarray) -> np.ndarray:
    """floor(phi n), exactly, for a uint64 array n < 2^32.

    For 0 <= phi < 1 the result is uint64: phi = p / 2^q with p < 2^53; the
    product p n < 2^85 is held as H 2^32 + L with L < 2^32, from the 32-bit
    limbs of p, and shifted right by q.  For q < 32, p < 2^q, so p n < 2^64
    needs no limbs.  Any other phi gives Python integers in an object array.
    """
    p, b = phi.as_integer_ratio()
    if not 0.0 <= phi < 1.0:
        return n.astype(object) * p // b
    q = b.bit_length() - 1
    if q < 32:
        return (n * np.uint64(p)) >> np.uint64(q)
    lo = n * np.uint64(p & 0xFFFFFFFF)
    high = n * np.uint64(p >> 32) + (lo >> np.uint64(32))
    return high >> np.uint64(min(q - 32, 63))  # H < 2^54: a shift of 63 gives 0


@dataclass(frozen=True)
class PhaseSequence:
    """Explicit phase sequence n -> e(phase(n)) of step 0, 1 or 2.

    kinds:
      constant                 phase = theta0
      linear(theta, beta)      phase = theta n + beta
      quadratic(t2, t1, t0)    phase = t2 n^2 + t1 n + t0
      bracket(theta, phi)      phase = theta n floor(phi n)

    ``values`` computes the phases exactly for the IEEE parameters, in one
    array pass per block: in uint64 arithmetic, or in Python integers held
    in object arrays for a theta whose denominator exceeds 2^64 and for a
    bracket phi outside [0, 1).  Raises ArgumentError for a parameter that
    is not finite.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(p) for p in self.params):
            raise ArgumentError(f"{self.kind} phase parameters must be finite, got {self.params}")

    @staticmethod
    def constant(theta0: float = 0.0) -> "PhaseSequence":
        return PhaseSequence("constant", (float(theta0),))

    @staticmethod
    def linear(theta: float, beta: float = 0.0) -> "PhaseSequence":
        return PhaseSequence("linear", (float(theta), float(beta)))

    @staticmethod
    def quadratic(theta2: float, theta1: float = 0.0, theta0: float = 0.0) -> "PhaseSequence":
        return PhaseSequence("quadratic", (float(theta2), float(theta1), float(theta0)))

    @staticmethod
    def bracket(theta: float, phi: float) -> "PhaseSequence":
        return PhaseSequence("bracket", (float(theta), float(phi)))

    def values(self, N: int) -> np.ndarray:
        """e(phase(n)) for n = 0..N as a complex array.

        The result is filled ``_PHASE_BLOCK`` entries at a time, so the
        peak is the 16-byte-per-entry result plus one block's temporaries.
        Raises ResourceError, before allocating, when N + 1 entries exceed
        the table budget ``config.DEFAULT_MAX_TABLE``.
        """
        if N < 0:
            raise ArgumentError("N must be >= 0")
        if N + 1 > config.DEFAULT_MAX_TABLE:
            raise ResourceError(f"{N + 1} phases exceed the budget of {config.DEFAULT_MAX_TABLE}")
        if self.kind == "constant":
            return np.full(N + 1, np.exp(2j * np.pi * (self.params[0] % 1.0)))
        out = np.empty(N + 1, dtype=complex)
        for lo in range(0, N + 1, _PHASE_BLOCK):
            hi = min(lo + _PHASE_BLOCK, N + 1)
            phases = self._phases(np.arange(lo, hi, dtype=np.uint64))
            np.exp(2j * np.pi * phases, out=out[lo:hi])
        return out

    def _phases(self, n: np.ndarray) -> np.ndarray:
        """The fractional phase at every entry of a uint64 array n.

        The integer steps are exact (see ``_frac_mod1`` and ``_floor_mul``),
        and ``+ beta``, ``+ t0`` and ``mod 1`` are float steps in that
        order, so every value is a function of the IEEE parameters and n
        alone.
        """
        if self.kind == "linear":
            theta, beta = self.params
            return (_frac_mod1(theta, n) + beta) % 1.0
        if self.kind == "quadratic":
            t2, t1, t0 = self.params
            return (_frac_mod1(t2, n * n) + _frac_mod1(t1, n) + t0) % 1.0
        theta, phi = self.params
        m = _floor_mul(phi, n)
        return _frac_mod1(theta, (n if m.dtype == np.uint64 else n.astype(object)) * m)


PHASE_PRESETS = {
    "constant": PhaseSequence.constant(),
    "linear_golden": PhaseSequence.linear(GOLDEN_CONJUGATE),
    "linear_sqrt2": PhaseSequence.linear(SQRT2_MINUS_1),
    "quadratic_sqrt2": PhaseSequence.quadratic(SQRT2_MINUS_1),
    "bracket_golden": PhaseSequence.bracket(GOLDEN_CONJUGATE, GOLDEN_CONJUGATE),
}


def phase_preset(name: str) -> PhaseSequence:
    try:
        return PHASE_PRESETS[name]
    except KeyError:
        raise ArgumentError(
            f"unknown phase preset {name!r}; choose from {sorted(PHASE_PRESETS)}"
        ) from None


# ---------------------------------------------------------------------------
# balanced friable function
# ---------------------------------------------------------------------------


@dataclass
class BalancedFriable:
    """h(n) = 1[n is N^(1/u)-friable] - rho(u) on 0..N (0 is friable)."""

    rho_u: float
    values: np.ndarray


def balanced_friable(N: int, u: float) -> BalancedFriable:
    """Exact friable indicator from the sieve minus rho(u)."""
    if N < 2:
        raise ArgumentError(f"N must be >= 2, got {N}")
    if not 1.0 <= u <= 20.0:
        raise ArgumentError(f"u must lie in [1, 20], got {u}")
    y = sieve.friable_bound(N, u)
    friable = sieve.friable_masks(N, [y])[y]
    rho_u = float(dickman.rho(u))
    vals = friable.astype(np.float64) - rho_u
    return BalancedFriable(rho_u=rho_u, values=vals)


# ---------------------------------------------------------------------------
# truncated Mobius approximant and the correlation split
# ---------------------------------------------------------------------------


def default_tau(N: int) -> float:
    """(log log N)^(3/2) / log N.

    It lies in (1/log N, 0.41] for every N >= 16: above 1/log N because
    log log 16 > 1, and at most 1.5^1.5 e^(-1.5), its peak at log N = e^1.5.
    """
    if N < 16:
        raise ArgumentError(f"N must be >= 16, got {N}")
    logn = math.log(N)
    return math.log(logn) ** 1.5 / logn


def _admissible_k(N: int, u: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Sifted squarefree k <= N^(1-tau) with their Mobius values."""
    limit = max(analytic._cutoff(N, tau), 1)
    return sieve.sifted_squarefree_arrays(limit, sieve.friable_bound(N, u))


def _divisor_pass(N: int, ks: np.ndarray, mus: np.ndarray, start: float) -> np.ndarray:
    """start + sum_k mu(k) 1[k | n] for n = 0..N; index 0 is 0.

    A k with at least ``_DENSE_MULTIPLES`` multiples adds mu(k) by one
    strided slice ``out[k::k] += mu(k)``.  As N // k falls when k rises,
    these k are a prefix of the ascending ks.  The rest go through one
    ordered scatter: the pairs (k, j k), j = 1..N // k, are laid out k by k
    in ascending order, in blocks of about ``_SCATTER_BLOCK`` pairs, and
    ``np.add.at`` applies them in that order.  Each n thus receives its
    mu(k) in the same order as a strided loop over ascending k, so the
    sums are bit-identical to it.
    """
    out = np.full(N + 1, start, dtype=np.float64)
    counts = N // ks
    dense = int(np.count_nonzero(counts >= _DENSE_MULTIPLES))
    for k, m in zip(ks[:dense].tolist(), mus[:dense].tolist()):
        out[k::k] += m
    ks, mus, counts = ks[dense:], mus[dense:], counts[dense:]
    ends = np.cumsum(counts)
    lo = 0
    while lo < ks.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, base + _SCATTER_BLOCK, side="right")), lo + 1)
        reps = counts[lo:hi]
        first = np.repeat(ends[lo:hi] - reps - base, reps)  # position of each run's j = 1
        j = np.arange(1, int(ends[hi - 1]) - base + 1) - first
        np.add.at(out, np.repeat(ks[lo:hi], reps) * j, np.repeat(mus[lo:hi].astype(np.float64), reps))
        lo = hi
    out[0] = 0.0
    return out


def _truncated_mobius(N: int, ks: np.ndarray, mus: np.ndarray) -> tuple[np.ndarray, float]:
    """(h_tau on 0..N, its mean sum mu(k)/k) from the admissible k and mu(k)."""
    work = int(np.sum(N // ks))
    if work > _HTAU_TERM_BUDGET:
        raise ResourceError(
            f"h_tau sieve pass needs {work} updates, over budget {_HTAU_TERM_BUDGET}"
        )
    mean = analytic.exact_sum(mus / ks)
    return _divisor_pass(N, ks, mus, -mean), mean


def h_tau(N: int, u: float, tau: float) -> np.ndarray:
    """The truncated Mobius approximant on 0..N, as a float64 array.

    Built by one sieve pass per admissible k (add mu(k) on multiples of k,
    subtract mu(k)/k everywhere), not by per-n divisor scans.  Index 0 is
    set to 0: all sums over h_tau run over 1 <= n <= N.
    """
    if N < 2:
        raise ArgumentError(f"N must be >= 2, got {N}")
    return _truncated_mobius(N, *_admissible_k(N, u, tau))[0]


def _check_domain(N: int, g: np.ndarray) -> None:
    if g.size != N + 1:
        raise ArgumentError(f"domain mismatch: f on 0..{N}, g on 0..{g.size - 1}")


def correlation(f: np.ndarray, g: np.ndarray) -> complex:
    """N^-1 sum_{1 <= n <= N} f(n) conj(g(n)) for two arrays on 0..N."""
    N = f.size - 1
    _check_domain(N, g)
    return complex(np.sum(f[1:] * np.conj(g[1:])) / N)


@dataclass(frozen=True)
class SigmaSplit:
    """The two halves of sum h(n) conj(g(n)) under the Mobius truncation."""

    sigma1: complex
    sigma2: complex
    total: complex  # sum_{n<=N} h(n) conj(g(n)), computed directly

    @property
    def reconstruction_error(self) -> float:
        return abs(self.sigma1 + self.sigma2 - self.total)


def sigma_split(
    N: int,
    u: float,
    tau: float,
    phases: Sequence[np.ndarray],
) -> list[SigmaSplit]:
    """Sigma_1 = sum h_tau(n) conj(g(n)) and Sigma_2 = the tail remainder,
    one SigmaSplit per phase array g on 0..N in ``phases``, in order.

    Sigma_2 collects the divisor sum over admissible k > N^(1-tau), plus
    the constant (truncated Mobius mean - rho(u)), so Sigma_1 + Sigma_2
    equals the full balanced correlation sum identically.  h, the
    admissible k and both divisor passes depend only on (N, u, tau): they
    are built once and each phase is dotted against them.
    """
    h = balanced_friable(N, u)
    klim = analytic._cutoff(N, tau)
    ks, mus = sieve.sifted_squarefree_arrays(N, sieve.friable_bound(N, u))
    head = int(np.searchsorted(ks, klim, side="right"))
    ht, mean = _truncated_mobius(N, ks[:head], mus[:head])
    rest = _divisor_pass(N, ks[head:], mus[head:], mean - h.rho_u)
    ht, rest, hv = ht[1:], rest[1:], h.values[1:]
    splits = []
    for g in phases:
        _check_domain(N, g)
        cg = np.conj(g[1:])
        splits.append(SigmaSplit(
            sigma1=complex(np.sum(ht * cg)),
            sigma2=complex(np.sum(rest * cg)),
            total=complex(np.sum(hv * cg)),
        ))
    return splits


def sigma2_bound_scale(N: int, u: float, tau: float) -> float:
    """u N (tau u + rho(u) log(u+1) / log N), the scale of the bound on |Sigma_2|."""
    rho_u = float(dickman.rho(u))
    return u * N * (tau * u + rho_u * math.log(u + 1.0) / math.log(N))


# ---------------------------------------------------------------------------
# subset decomposition over a form system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport:
    """Exact numeric audit of the balanced-function subset decomposition.

    lhs = |count - Vol prod rho| must be at most the sum of the 2^t - 1
    subset correlation magnitudes plus the lattice-vs-volume boundary term
    |#points - Vol| * prod rho (an O(N^(d-1)) quantity); ``slack`` reports
    the margin.
    """

    count: int
    lattice_points: int
    volume: float
    main_term: float
    lhs: float
    subset_sums: dict[tuple[int, ...], float]
    subset_bound: float
    boundary_term: float
    slack: float
    holds: bool


def subset_decomposition_bound(
    system: forms.FormSystem, body: forms.ConvexBody, N: int, u: Sequence[float]
) -> DecompositionReport:
    """Evaluate every subset correlation sum exactly and check the bound.

    The sum of subset s is ``forms.lattice_sum`` of h_i = 1_i - rho(u_i)
    over the forms of s.  A body of more than ``_SUBSET_POINT_BUDGET``
    lattice points raises ResourceError; the inputs are otherwise validated
    as ``forms.count_friable_values`` validates them.
    """
    npoints = forms.lattice_point_count(body)
    if npoints > _SUBSET_POINT_BUDGET:
        raise ResourceError(
            f"{npoints} lattice points exceed the subset budget {_SUBSET_POINT_BUDGET}"
        )
    masks = forms._friable_masks(system, body, N, u, None)
    count = forms.lattice_sum(system, body, masks)
    rhos = [float(dickman.rho(ui)) for ui in u]
    hs = [mask - rho for mask, rho in zip(masks, rhos)]
    sums = {}
    for size in range(1, system.count + 1):
        for s in itertools.combinations(range(system.count), size):
            subsystem = forms.FormSystem(tuple(system.forms[i] for i in s))
            sums[s] = forms.lattice_sum(subsystem, body, [hs[i] for i in s])
    vol = float(forms.volume(body))
    prod_rho = float(np.prod(rhos))
    main = vol * prod_rho
    lhs = abs(count - main)
    subset_bound = sum(abs(v) for v in sums.values())
    boundary = abs(npoints - vol) * prod_rho
    slack = subset_bound + boundary - lhs
    holds = lhs <= subset_bound + boundary + 1e-6 * max(1.0, abs(main))
    return DecompositionReport(
        count=count,
        lattice_points=npoints,
        volume=vol,
        main_term=main,
        lhs=lhs,
        subset_sums=sums,
        subset_bound=subset_bound,
        boundary_term=boundary,
        slack=slack,
        holds=holds,
    )
