"""Saddle-point and singular-series constants, and sifted Mobius sums.

Implements the ingredients of the ternary friable asymptotic

    S0(alpha, y) * S1(alpha) * Psi(N, y)^3 / N,

where alpha = alpha(N, y) is the unique root of
sum_{p <= y} log p / (p^alpha - 1) = log N, together with the exact
partial sums sum mu(k)/k over sifted squarefree k that drive the
truncated Mobius-inversion error terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import sieve
from .errors import ArgumentError, NumericError, ResourceError

_SADDLE_LO = 1e-6
_SADDLE_HI = 8.0
_MERTENS_MAX_N = 100_000_000
# Below this many terms exact_sum hands the array to math.fsum.  Medians of
# 400 interleaved calls (2-vCPU VM): at 512 terms fsum took 14.7 us and the
# limb kernel 11.1 us over a 93-bit span of exponents, 25.5 us and 27.5 us
# over a 353-bit span; at 1024 terms 30.1/12.3 us and 51.3/32.9 us.
_EXACT_SUM_MIN = 1024


def exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()) of a 1-d float64 array, bit for bit, by array passes.

    Every term is an integer multiple of 2^lo, lo the exponent of the last
    bit of the smallest nonzero |x|, and below 2^hi.  Scaled by 2^(B - hi),
    the terms lie in (-2^B, 2^B); limbs of B = 62 - bitlen(n - 1) bits are
    peeled from the top by np.trunc, a subtraction and a multiplication by
    2^B, each exact, until the bits down to 2^lo are taken.  Each limb is
    summed in int64, which cannot overflow as n 2^B <= 2^62, and the limb
    sums make one Python integer I with sum x = I 2^(hi - L B) exactly for
    L limbs.  One integer division then rounds it once, half to even, as
    fsum does.  Short arrays, non-finite or all-zero ones, and those whose
    scaling is not exact (a factor 2^(B - hi) beyond the float range, or
    low bits that would fall below 2^-1074) or whose prefix sums could
    overflow in fsum go to math.fsum itself.
    """
    n = x.size
    if n < _EXACT_SUM_MIN:
        return math.fsum(x.tolist())
    B = 62 - (n - 1).bit_length()
    r = np.abs(x)
    top = float(r.max())
    if not 0.0 < top < math.inf:  # nan, inf or only zeros
        return math.fsum(x.tolist())
    low = float(r.min())
    if low == 0.0:
        low = float(np.min(r, where=r > 0.0, initial=math.inf))
    hi = math.frexp(top)[1]  # every |x| < 2^hi
    lo = max(math.frexp(low)[1] - 53, -1074)  # every x is a multiple of 2^lo
    if not B - 1022 <= hi <= 1021 - n.bit_length() or hi - lo > B + 1074:
        return math.fsum(x.tolist())
    np.multiply(x, 2.0 ** (B - hi), out=r)
    t = np.empty_like(r)
    limbs = -((lo - hi) // B)
    total = 0
    for j in range(limbs):
        np.trunc(r, out=t)
        total = (total << B) + int(np.add.reduce(t, dtype=np.int64))
        if j + 1 < limbs:
            r -= t
            r *= 2.0**B
    shift = limbs * B - hi
    return total / (1 << shift) if shift >= 0 else float(total << -shift)


@dataclass(frozen=True)
class SaddlePoint:
    """Root alpha of the saddle equation for (N, y), with its residual."""

    N: int
    y: float
    alpha: float
    residual: float  # |LHS(alpha) - log N|


def saddle_lhs(alpha, primes: np.ndarray) -> float:
    """sum over p of log p / (p^alpha - 1); strictly decreasing in alpha."""
    p = primes.astype(np.float64)
    return float(np.sum(np.log(p) / (np.power(p, alpha) - 1.0)))


def solve_saddle_alpha(N: int, y: float) -> SaddlePoint:
    """Bisection to width 1e-12 on (1e-6, 8], then one Newton polish.

    Raises ArgumentError unless N >= 2 and 2 <= y <= N, NumericError
    (reporting the bracket) when log N is not spanned, and when the
    polished root violates alpha in (0, 2] or the residual bound
    1e-10 * log N.
    """
    if N < 2:
        raise ArgumentError(f"N must be >= 2, got {N}")
    if not 2 <= y <= N:
        raise ArgumentError(f"need 2 <= y <= N, got y={y}, N={N}")
    primes = sieve.primes_up_to(int(math.floor(y)))
    target = math.log(N)
    lo, hi = _SADDLE_LO, _SADDLE_HI
    flo = saddle_lhs(lo, primes) - target
    fhi = saddle_lhs(hi, primes) - target
    if flo < 0 or fhi > 0:
        raise NumericError(
            f"no sign change on ({lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if saddle_lhs(mid, primes) - target > 0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    # one Newton step: f'(a) = -sum log^2 p * p^a / (p^a - 1)^2
    p = primes.astype(np.float64)
    pa = np.power(p, alpha)
    deriv = -float(np.sum(np.log(p) ** 2 * pa / (pa - 1.0) ** 2))
    f = saddle_lhs(alpha, primes) - target
    if deriv != 0.0:
        alpha -= f / deriv
    residual = abs(saddle_lhs(alpha, primes) - target)
    if not 0.0 < alpha <= 2.0:
        raise NumericError(f"saddle point {alpha:.6g} outside (0, 2] for N={N}, y={y}")
    if residual > 1e-10 * target:
        raise NumericError(f"saddle residual {residual:.3g} exceeds 1e-10 * log N")
    return SaddlePoint(N=N, y=float(y), alpha=float(alpha), residual=float(residual))


class SingularSeries0(NamedTuple):
    value: float
    tail_bound: float  # bound on sum_{p > p_max} 1/(p-1)^2, tail of the log


def singular_series_s0(alpha: float, y: float, p_max: int) -> SingularSeries0:
    """Euler product S0(alpha, y) truncated at p_max, with tail bracket.

    The factor for p <= y is 1 + (p - p^alpha)^3 / (p (p-1)^2 (p^(3a-1) - 1));
    for y < p <= p_max it is 1 - 1/(p-1)^2.  The returned tail_bound
    over-estimates sum_{p > p_max} 1/(p-1)^2 by 2/p_max, so the infinite
    product lies within a factor exp(+-2 * tail_bound) of value.
    """
    if not 0.0 < alpha <= 2.0:
        raise ArgumentError(f"alpha must lie in (0, 2], got {alpha}")
    if y < 2:
        raise ArgumentError(f"y must be >= 2, got {y}")
    if p_max < y:
        raise ArgumentError(f"p_max = {p_max} must be >= y = {y}")
    if abs(alpha - 1.0 / 3.0) < 1e-6:
        raise NumericError(
            "alpha within 1e-6 of 1/3: factor p^(3 alpha - 1) - 1 is singular"
        )
    primes = sieve.primes_up_to(p_max).astype(np.float64)
    small = primes[primes <= y]
    large = primes[primes > y]
    terms = []
    if small.size:
        num = (small - np.power(small, alpha)) ** 3
        den = small * (small - 1.0) ** 2 * (np.power(small, 3.0 * alpha - 1.0) - 1.0)
        terms.append(num / den)
    if large.size:
        terms.append(-1.0 / (large - 1.0) ** 2)
    factors = np.concatenate(terms) if terms else np.zeros(0)
    tail_bound = 2.0 / p_max
    if np.all(factors > -1.0):
        # exact sum of the log1p terms (exact_sum, equal to math.fsum): the
        # value does not depend on the order of the primes
        value = math.exp(exact_sum(np.log1p(factors)))
    else:
        value = float(np.prod(1.0 + factors))
    return SingularSeries0(value=value, tail_bound=tail_bound)


def singular_series_s1(alpha: float) -> float:
    """S1(alpha) = integral over {t1, t2 >= 0, t1 + t2 <= 1} of
    alpha^3 (t1 t2 (t1 + t2))^(alpha - 1), in closed form.

    With s = t1 + t2 and x = t1 / s (dt1 dt2 = s ds dx) the integral splits as
    alpha^3 int_0^1 s^(3 alpha - 2) ds * int_0^1 (x (1 - x))^(alpha - 1) dx,
    so S1(alpha) = alpha^3 B(alpha, alpha) / (3 alpha - 1).  It diverges
    for alpha <= 1/3.
    """
    if not 0.0 < alpha <= 2.0:
        raise ArgumentError(f"alpha must lie in (0, 2], got {alpha}")
    if alpha <= 1.0 / 3.0 + 1e-9:
        raise NumericError(
            f"S1({alpha}) diverges: the simplex integral needs alpha > 1/3"
        )
    a = float(alpha)
    return a**3 * math.gamma(a) ** 2 / ((3.0 * a - 1.0) * math.gamma(2.0 * a))


class HarperPrediction(NamedTuple):
    alpha: float
    saddle_residual: float
    s0: float
    s0_tail_bound: float
    s1: float
    psi: int
    prediction: float  # s0 * s1 * psi^3 / N
    psi_squared: int  # psi^2, the trivial bound on the ternary count
    within_trivial_bound: bool  # prediction <= psi_squared


def harper_prediction(N: int, y: float) -> HarperPrediction:
    """S0(alpha, y) * S1(alpha) * Psi(N, y)^3 / N with alpha = alpha(N, y),
    returned with the terms it is built from.

    The S0 product is truncated at p_max = max(y, 10^6); Psi is exact.
    ``solve_saddle_alpha`` refuses N < 2 and y outside [2, N].  The
    ternary count is at most Psi(N, y)^2, as x1 and x2 are both y-friable
    in [1, N]; near alpha = 1/3, where S1 diverges and S0 blows up, the
    prediction can exceed that, and ``within_trivial_bound`` says whether
    it does.  Nothing is refused.
    """
    sp = solve_saddle_alpha(N, y)
    s0 = singular_series_s0(sp.alpha, y, p_max=max(int(y), 10**6))
    s1 = singular_series_s1(sp.alpha)
    psi = sieve.psi_count(N, y)
    prediction = s0.value * s1 * psi**3 / N
    return HarperPrediction(
        alpha=sp.alpha,
        saddle_residual=sp.residual,
        s0=s0.value,
        s0_tail_bound=s0.tail_bound,
        s1=s1,
        psi=psi,
        prediction=prediction,
        psi_squared=psi**2,
        within_trivial_bound=prediction <= psi**2,
    )


def _cutoff(N: int, tau: float) -> int:
    """The truncation point floor(N^(1-tau)) of the Mobius split, in integers.

    ``tau`` is read as ``Fraction(tau).limit_denominator(1000)`` = a/b, as
    ``sieve.friable_bound`` reads ``u``, and the floor of N^((b-a)/b) is
    an integer root: 32 at tau = 0.4 gives 8, where
    ``float(32) ** 0.6`` is just below it.
    """
    if N < 2:
        raise ArgumentError(f"N must be >= 2, got {N}")
    if not 1.0 / math.log(N) < tau < 1.0:
        raise ArgumentError(f"tau must lie in (1/log N, 1), got {tau}")
    q = Fraction(tau).limit_denominator(1000)
    return sieve._iroot(N ** (q.denominator - q.numerator), q.denominator)


def sifted_sums(N: int, u: float, tau: float | None = None) -> tuple[float, float | None]:
    """From one sieve pass over the squarefree k <= N with P-(k) > N^(1/u):
    sum mu(k)/k, and, when tau is given, sum mu(k)^2/k over those k > N^(1-tau)
    (None otherwise).

    Each is summed by ``exact_sum``, which equals math.fsum bit for bit, so
    it is the correctly rounded value of the exact sum of the floating-point
    terms.
    """
    if N < 2:
        raise ArgumentError(f"N must be >= 2, got {N}")
    if u < 1:
        raise ArgumentError(f"u must be >= 1, got {u}")
    if N > _MERTENS_MAX_N:
        raise ResourceError(f"N = {N} exceeds enumeration budget {_MERTENS_MAX_N}")
    if tau is not None:
        cutoff = _cutoff(N, tau)
        if tau * u >= 1.0:
            raise ArgumentError(f"need tau * u < 1, got tau * u = {tau * u}")
    ks, mus = sieve.sifted_squarefree_arrays(N, sieve.friable_bound(N, u))
    tail = None if tau is None else exact_sum(1.0 / ks[ks > cutoff])
    return exact_sum(mus / ks), tail
