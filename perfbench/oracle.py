"""Reference values for the job checks, computed without ``friable``.

Nothing here imports the package under test: the factor tables, the
Dickman function, the saddle point, the singular series, the Gowers norms
and the phase sequences are all re-derived from their definitions, by
methods that differ from the library's where a different method exists.
Friability thresholds are exact: ``n`` is ``N^(1/u)``-friable iff
``P+(n)^u <= N``, compared in integers.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import hyp2f1

# ---------------------------------------------------------------------------
# exact thresholds
# ---------------------------------------------------------------------------


def _iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for integers x >= 0, k >= 1."""
    if x < 2:
        return x
    r = int(round(x ** (1.0 / k)))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def friable_bound(N: int, u) -> int:
    """The largest integer t with t^u <= N, for a rational exponent u > 0."""
    q = Fraction(u).limit_denominator(1000)
    return _iroot(N**q.denominator, q.numerator)


def power_bound(N: int, e) -> int:
    """The largest integer k with k <= N^e, for a rational exponent e > 0."""
    q = Fraction(e).limit_denominator(1000)
    return _iroot(N**q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# factor tables (multiple marking, not the library's division sieve)
# ---------------------------------------------------------------------------


def primes_up_to(n: int) -> np.ndarray:
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return np.flatnonzero(flags)


def lpf_table(n: int) -> np.ndarray:
    """P+(m) for m = 0..n, with P+(0) = 0 and P+(1) = 1 (int32)."""
    lpf = np.zeros(n + 1, dtype=np.int32)
    if n >= 1:
        lpf[1] = 1
    for p in primes_up_to(n).tolist():
        lpf[p::p] = p  # ascending primes: the largest divisor is written last
    return lpf


def spf_mu_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """P-(m) (0 for m = 0, -1 for m = 1 standing for +infinity) and mu(m)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_up_to(n)[::-1].tolist():
        spf[p::p] = p  # descending primes: the smallest divisor is written last
        mu[p::p] *= -1
        if p * p <= n:
            mu[p * p :: p * p] = 0
    if n >= 1:
        spf[1] = -1
    return spf, mu


def friable_mask(lpf: np.ndarray, N: int, u) -> np.ndarray:
    """int64 indicator over 0..len-1 of P+(m)^u <= N."""
    return (lpf <= friable_bound(N, u)).astype(np.int64)


def psi(lpf: np.ndarray, N: int, y: int) -> int:
    """#{1 <= n <= N : P+(n) <= y} for an integer y."""
    return int(np.count_nonzero(lpf[1 : N + 1] <= y))


def sifted_squarefree(spf, mu, limit: int, y_int: int) -> tuple[np.ndarray, np.ndarray]:
    """Squarefree k <= limit with P-(k) > y_int (k = 1 included), and mu(k)."""
    k = np.arange(1, limit + 1)
    s = spf[1 : limit + 1]
    keep = (mu[1 : limit + 1] != 0) & ((s == -1) | (s > y_int))
    return k[keep], mu[1 : limit + 1][keep]


# ---------------------------------------------------------------------------
# exact lattice counts by integer convolution of friable masks
# ---------------------------------------------------------------------------


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # float64 convolution is exact here: every partial sum is an integer < 2^53
    return np.rint(np.convolve(a.astype(np.float64), b.astype(np.float64))).astype(np.int64)


def count(kind: str, lpf: np.ndarray, N: int, us) -> int:
    """Exact friable count for the bodies and form systems the workloads use.

    simplex2      x1, x2 >= 1, x1 + x2 <= N;        forms x1, x2, x1+x2
    hpoly_x1_2x2  x1, x2 >= 1, x1 + 2 x2 <= N;      forms x1, x2, x1+2x2
    simplex3      x1, x2, x3 >= 1, sum <= N;        forms x1, x2, x3, sum
    box2          1 <= x1, x2 <= N;                 forms x1, x2
    """
    masks = [friable_mask(lpf[: N + 1], N, u) for u in us]
    for m in masks:
        m[0] = 0  # every coordinate is >= 1
    if kind == "box2":
        return int(masks[0].sum()) * int(masks[1].sum())
    if kind == "simplex2":
        inner = _conv(masks[0], masks[1])
    elif kind == "hpoly_x1_2x2":
        stretched = np.zeros(N + 1, dtype=np.int64)
        stretched[0 : N + 1 : 2] = masks[1][: N // 2 + 1]
        inner = _conv(masks[0], stretched)
    elif kind == "simplex3":
        inner = _conv(_conv(masks[0], masks[1]), masks[2])
    else:
        raise ValueError(f"no count oracle for {kind!r}")
    outer = masks[-1]
    return int(np.dot(inner[: N + 1], outer[: N + 1]))


def volume(kind: str, N: int) -> Fraction:
    return {
        "simplex2": Fraction((N - 2) ** 2, 2),
        "hpoly_x1_2x2": Fraction((N - 3) ** 2, 4),
        "simplex3": Fraction((N - 3) ** 3, 6),
        "box2": Fraction((N - 1) ** 2),
    }[kind]


# ---------------------------------------------------------------------------
# Dickman rho by Taylor series at each unit interval's right end
# ---------------------------------------------------------------------------

_RHO_TERMS = 120


@lru_cache(maxsize=1)
def _rho_pieces(k_max: int = 20) -> np.ndarray:
    """Row k-1 holds a_i with rho(u) = sum a_i t^i, t = k + 1 - u, u in [k, k+1].

    From u rho'(u) = -rho(u-1): (k+1-t) a'(t) = b(t), b the previous piece,
    so a_{i+1} = (b_i + i a_i) / ((k+1)(i+1)).  a_0 = rho(k+1) follows from
    (k+1) rho(k+1) = integral_k^{k+1} rho, i.e. k a_0 = sum_{i>=1} a_i/(i+1),
    a sum of positive terms (no cancellation).  On [1, 2] rho = 1 - log u.
    """
    rows = []
    with localcontext() as ctx:
        ctx.prec = 60
        two = Decimal(2)
        a = [1 - two.ln()] + [1 / (Decimal(i) * two**i) for i in range(1, _RHO_TERMS)]
        rows.append(a)
        for k in range(2, k_max):
            b = rows[-1]
            a = [Decimal(0)] * _RHO_TERMS
            for i in range(_RHO_TERMS - 1):
                a[i + 1] = (b[i] + i * a[i]) / ((k + 1) * (i + 1))
            a[0] = sum(a[i] / (i + 1) for i in range(1, _RHO_TERMS)) / k
            rows.append(a)
    return np.array([[float(c) for c in row] for row in rows])


def rho(u) -> np.ndarray | float:
    """Dickman rho on [0, 20] to about 1e-15 relative."""
    pieces = _rho_pieces()
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if np.any(arr < 0) or np.any(arr > 20.0):
        raise ValueError("reference rho covers [0, 20]")
    out = np.ones_like(arr)
    k = np.clip(np.ceil(arr).astype(np.int64) - 1, 1, len(pieces))
    above = arr > 1.0
    t = k + 1 - arr
    acc = np.zeros_like(arr)
    for i in range(pieces.shape[1] - 1, -1, -1):
        acc = acc * t + pieces[k - 1, i]
    out[above] = acc[above]
    return float(out[0]) if np.ndim(u) == 0 else out


# ---------------------------------------------------------------------------
# saddle point and singular series
# ---------------------------------------------------------------------------


def saddle_alpha(N: int, y: int) -> float:
    logp = np.log(primes_up_to(y).astype(np.float64))
    target = math.log(N)

    def f(a):
        return float(np.sum(logp / np.expm1(a * logp))) - target

    return brentq(f, 1e-3, 4.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def s0(alpha: float, y: int, p_max: int) -> float:
    p = primes_up_to(p_max).astype(np.float64)
    small, large = p[p <= y], p[p > y]
    num = (small - small**alpha) ** 3
    den = small * (small - 1.0) ** 2 * (small ** (3.0 * alpha - 1.0) - 1.0)
    logs = np.concatenate([np.log1p(num / den), np.log1p(-1.0 / (large - 1.0) ** 2)])
    return math.exp(float(np.sum(logs)))


def s1(alpha: float) -> float:
    """2 a^3/(3a - 1) * integral_0^1 w^(a-1) (1+w)^(-2a) dw, the integral as 2F1/a."""
    a = float(alpha)
    return 2.0 * a**3 / (3.0 * a - 1.0) * hyp2f1(2.0 * a, a, a + 1.0, -1.0) / a


def harper(N: int, y: int, psi_value: int) -> dict:
    alpha = saddle_alpha(N, y)
    p_max = max(y, 10**6)
    v0, v1 = s0(alpha, y, p_max), s1(alpha)
    return {"alpha": alpha, "s0": v0, "s1": v1, "s0_tail_bound": 2.0 / p_max,
            "psi": psi_value, "prediction": v0 * v1 * psi_value**3 / N}


# ---------------------------------------------------------------------------
# phase sequences (exact integer arithmetic on the IEEE parameters)
# ---------------------------------------------------------------------------


def _frac(theta: float, k: int) -> float:
    a, b = float(theta).as_integer_ratio()
    return (a * k % b) / b if b > 1 else 0.0


def phase_values(kind: str, params, N: int) -> np.ndarray:
    if kind == "linear":
        theta, beta = params
        ph = [(_frac(theta, n) + beta) % 1.0 for n in range(N + 1)]
    elif kind == "quadratic":
        t2, t1, t0 = params
        ph = [(_frac(t2, n * n) + _frac(t1, n) + t0) % 1.0 for n in range(N + 1)]
    elif kind == "bracket":
        theta, phi = params
        p, q = float(phi).as_integer_ratio()
        ph = [_frac(theta, n * (p * n // q)) for n in range(N + 1)]
    else:
        raise ValueError(kind)
    return np.exp(2j * np.pi * np.array(ph, dtype=np.float64))


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PRESETS = {
    "linear_golden": ("linear", (GOLDEN, 0.0)),
    "quadratic_sqrt2": ("quadratic", (math.sqrt(2.0) - 1.0, 0.0, 0.0)),
    "bracket_golden": ("bracket", (GOLDEN, GOLDEN)),
}


# ---------------------------------------------------------------------------
# balanced friable function, truncated Mobius approximant, correlations
# ---------------------------------------------------------------------------


def balanced(lpf: np.ndarray, N: int, u) -> np.ndarray:
    return friable_mask(lpf[: N + 1], N, u).astype(np.float64) - rho(float(u))


def divisor_sum(ks, mus, N: int) -> np.ndarray:
    """sum over the given k dividing n of mu(k), for n = 0..N (n = 0 set to 0)."""
    out = np.zeros(N + 1, dtype=np.float64)
    for k, m in zip(ks.tolist(), mus.tolist()):
        out[k::k] += m
    return out


def correlate_bracket(lpf, spf, mu, N: int, u, tau, theta, phi) -> dict:
    g = phase_values("bracket", (theta, phi), N)
    h = balanced(lpf, N, u)
    c = complex(np.sum(h[1:] * np.conj(g[1:])) / N)
    ks, mus = sifted_squarefree(spf, mu, power_bound(N, 1 - Fraction(tau)),
                                friable_bound(N, u))
    ht = divisor_sum(ks, mus, N) - math.fsum((mus / ks).tolist())
    ct = complex(np.sum(ht[1:] * np.conj(g[1:])) / N)
    return {"correlation_abs": abs(c), "correlation_re": c.real,
            "correlation_im": c.imag, "h_tau_correlation_abs": abs(ct)}


def default_tau(N: int) -> float:
    logn = math.log(N)
    raw = math.log(logn) ** 1.5 / logn
    return min(max(raw, math.nextafter(1.0 / logn, math.inf)), math.nextafter(0.5, 0.0))


def decompose_grid(lpf, spf, mu) -> list[dict]:
    """Sigma_2 and the total of the 'decompose' suite's 27 cases."""
    rows = []
    for N in (10**3, 10**4, 10**5):
        tau = default_tau(N)
        gs = {name: phase_values(kind, params, N) for name, (kind, params) in PRESETS.items()}
        for u in (1.5, 2.0, 3.0):
            rho_u = rho(u)
            ks, mus = sifted_squarefree(spf, mu, N, friable_bound(N, u))
            klim = int(math.floor(float(N) ** (1.0 - tau)))
            tail = ks > klim
            rest = divisor_sum(ks[tail], mus[tail], N)
            rest[1:] += math.fsum((mus[~tail] / ks[~tail]).tolist()) - rho_u
            h = balanced(lpf, N, u)
            scale = u * N * (tau * u + rho_u * math.log(u + 1.0) / math.log(N))
            for name, g in gs.items():
                cg = np.conj(g[1:])
                sigma2 = complex(np.sum(rest[1:] * cg))
                total = complex(np.sum(h[1:] * cg))
                rows.append({"N": N, "u": u, "phase": name, "total": total,
                             "fitted_C": abs(sigma2) / scale})
    return rows


# ---------------------------------------------------------------------------
# Gowers norms: autocorrelation form of the U^2 base case
# ---------------------------------------------------------------------------


def _u2_pow(rows: np.ndarray) -> np.ndarray:
    """||f||_{U^2(Z_M)}^4 = M^-3 sum_h |sum_x f(x+h) conj f(x)|^2, row-wise."""
    M = rows.shape[-1]
    spec = np.fft.fft(rows, axis=-1)
    auto = np.fft.ifft(spec * np.conj(spec), axis=-1)
    return np.sum(np.abs(auto) ** 2, axis=-1) / float(M) ** 3


def _uk_pow(f: np.ndarray, k: int) -> float:
    """E_h ||Delta_h f||_{U^(k-1)}^(2^(k-1)), down to the U^2 base case."""
    M = f.size
    if k == 2:
        return float(_u2_pow(f[None, :])[0])
    total = 0.0
    if k == 3:
        block = max(1, (1 << 20) // M)
        for start in range(0, M, block):
            hs = np.arange(start, min(start + block, M))
            rows = f[(np.arange(M)[None, :] + hs[:, None]) % M] * np.conj(f)
            total += float(np.sum(_u2_pow(rows)))
        return total / M
    for h in range(M):
        total += _uk_pow(np.roll(f, -h) * np.conj(f), k - 1)
    return total / M


def gowers_norm(f: np.ndarray, k: int, mode: str) -> float:
    f = np.asarray(f, dtype=np.complex128)
    if mode == "cyclic":
        return max(_uk_pow(f, k), 0.0) ** (1.0 / 2**k)
    M = 2**k * f.size
    emb = np.zeros(M, dtype=np.complex128)
    emb[: f.size] = f
    ind = np.zeros(M, dtype=np.complex128)
    ind[: f.size] = 1.0
    return (max(_uk_pow(emb, k), 0.0) / _uk_pow(ind, k)) ** (1.0 / 2**k)
