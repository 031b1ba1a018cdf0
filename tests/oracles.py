"""Independent oracles for the test suite.

Every function here recomputes a quantity by a route disjoint from the
implementation it checks: trial division instead of sieving, 150-point
Gauss-Legendre steps with barycentric interpolation instead of Chebyshev
collocation, Monte Carlo and qhull instead of exact geometry, long-double
bisection instead of double bisection + Newton, tanh-sinh quadrature
instead of the Beta closed form of S1, per-n divisor scans
instead of sieve passes, one strided slice per k instead of the ordered
divisor scatter, one Fraction floor and big-integer step per n instead of
the phase kernel's integer arrays, membership tests of every
bounding-box point instead of slab walks, one exactly rounded sum over
those points instead of the walker's run-by-run sums, the pair of rows
x_0 <= <c, x> <= x_0 instead of substituting x_0 = <c, x> out for the
range of <c, x>, O(M^2)
autocorrelation sums and direct (k+1)-fold Gowers sums instead of FFTs,
full complex FFTs instead of the real path's folded half spectrum, and
Python's csv module row by row instead of the blocked CSV writer.

It also holds two pieces of test-only code that are not disjoint oracles.
The builder of the Dickman table, ``build_rho_table``: the library reads
the table's pieces as shipped data (``friable._rho_pieces``), and the
tests rebuild them here to check the shipped bytes.  And the subset audit,
``subset_decomposition_bound``: it sums the paper's expansion of
prod_i (rho(u_i) + h_i) over subsets of the forms with the library's own
``forms.lattice_sum`` and sieve, and nothing in the library calls it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import BarycentricInterpolator
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from friable import dickman, forms, sieve
from friable.dickman import _DEGREE, DickmanTable
from friable.errors import ArgumentError, NumericError, PreconditionError, ResourceError
from friable.forms import AffineForm, ConvexBody, _eliminate
from friable.gowers import _check_bounded, _root


# ---------------------------------------------------------------------------
# factorization by trial division
# ---------------------------------------------------------------------------


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of |n| by plain trial division."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def lpf(n: int) -> int:
    fs = factorize(n)
    return fs[-1][0] if fs else abs(n)  # 0 -> 0, +-1 -> 1


def spf(n: int):
    if n == 0:
        return 0
    fs = factorize(n)
    return fs[0][0] if fs else math.inf


def mu(n: int) -> int:
    if n == 0:
        return 0
    fs = factorize(n)
    if any(e > 1 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def psi_count(N: int, y: float) -> int:
    """Psi(N, y) by factoring every n independently of any sieve."""
    return sum(1 for n in range(1, N + 1) if lpf(n) <= y)


def friable_flags(limit: int, N: int, u) -> np.ndarray:
    """flags[n] = (P+(n)^u <= N) for 0 <= n <= limit, by trial division.

    The threshold is compared exactly: with u = a/b in lowest terms,
    P+(n)^u <= N iff P+(n)^a <= N^b.  flags[0] is False.
    """
    q = Fraction(u)
    if q <= 0 or q.denominator > 1000:
        raise ValueError("u must be a positive rational with small denominator")
    bound = N**q.denominator
    flags = np.zeros(limit + 1, dtype=bool)
    for n in range(1, limit + 1):
        flags[n] = lpf(n) ** q.numerator <= bound
    return flags


def local_friable_density(N: int, u, top: int) -> np.ndarray:
    """delta[m] for 1 <= m <= top (index 0 unused): the exact proportion of
    N^(1/u)-friable integers in [max(m - h, 1), m + h], h = max(m // 8, 1).

    This is Psi(x, y)/x taken at the size of m itself, i.e. the friability
    density a form value near m actually sees, before it is replaced by
    rho(u).
    """
    m = np.arange(1, top + 1)
    h = np.maximum(m // 8, 1)
    lo = np.maximum(m - h, 1)
    hi = m + h
    flags = friable_flags(int(hi[-1]), N, u)
    prefix = np.concatenate(([0], np.cumsum(flags)))  # prefix[k] = #friable < k
    delta = np.zeros(top + 1)
    delta[1:] = (prefix[hi + 1] - prefix[lo]) / (hi - lo + 1)
    return delta


def ternary_local_density_sum(N: int, u) -> float:
    """D = sum over x1, x2 >= 1, x1 + x2 <= N of
    delta_1(x1) * delta_2(x2) * delta_3(x1 + x2).

    The count of (x1, x2, x1+x2) friable on that simplex predicted by
    treating the three friability events as independent, each at the
    local density of its own value (see local_friable_density).  Summed
    by one convolution over s = x1 + x2.
    """
    d1, d2, d3 = (local_friable_density(N, ui, N) for ui in u)
    inner = np.convolve(d1, d2)[: N + 1]  # inner[s] = sum_{x1+x2=s} d1 d2
    return math.fsum((inner[2:] * d3[2:]).tolist())


def sifted_squarefree(limit: int, y: float) -> list[tuple[int, int]]:
    out = []
    for k in range(1, limit + 1):
        m = mu(k)
        if m != 0 and spf(k) > y:
            out.append((k, m))
    return out


def sifted_mu2_tail(N: int, u: float, tau: float) -> float:
    """sum mu(k)^2 / k over N^(1-tau) < k <= N with P-(k) > N^(1/u), the
    bounds as floats."""
    ks = [k for k, _ in sifted_squarefree(N, N ** (1 / u)) if k > N ** (1 - tau)]
    return math.fsum(1.0 / k for k in ks)


# ---------------------------------------------------------------------------
# lattice points by membership tests
# ---------------------------------------------------------------------------


def evaluate(form: AffineForm, point) -> int:
    """Exact form value at an integer point; rejects results beyond 64 bits."""
    if len(point) != form.dimension:
        raise ArgumentError(
            f"point has {len(point)} coordinates, form expects {form.dimension}"
        )
    value = form.constant + sum(c * int(x) for c, x in zip(form.coeffs, point))
    if abs(value) > 2**63 - 1:
        raise OverflowError(f"form value {value} exceeds 64-bit range")
    return value


def enumerate_lattice_points(body: ConvexBody, N: int) -> list[tuple[int, ...]]:
    """The integer points of the body in lexicographic order: every point of
    its integer bounding box, kept when it meets each integer constraint
    row.  Raises PreconditionError when the body leaves [-N, N]^d."""
    if body.is_empty():
        return []
    bounds = body.coordinate_bounds()
    for j, (lo, hi) in enumerate(bounds):
        if lo < -N or hi > N:
            raise PreconditionError(
                f"body coordinate x{j + 1} range [{lo}, {hi}] leaves [-{N}, {N}]"
            )
    points = itertools.product(*(range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in bounds))
    return [
        p for p in points if all(sum(c * x for c, x in zip(cs, p)) <= r for cs, r in body.rows)
    ]


def lattice_sum(system, body: ConvexBody, N: int, weights) -> float:
    """sum over the lattice points n of prod_i weights[i][F_i(n)], one point
    at a time from ``enumerate_lattice_points``, added by ``math.fsum``."""
    return math.fsum(
        math.prod(float(w[evaluate(f, p)]) for f, w in zip(system.forms, weights))
        for p in enumerate_lattice_points(body, N)
    )


def contains(body: ConvexBody, point) -> bool:
    """Membership of a rational point: it meets every integer constraint row."""
    pt = [Fraction(x) for x in point]
    if len(pt) != body.dimension:
        raise ArgumentError("point dimension mismatch")
    return all(sum(c * x for c, x in zip(a, pt)) <= b for a, b in body.rows)


def translate(body: ConvexBody, v) -> ConvexBody:
    """The body shifted by the integer vector v."""
    return ConvexBody.halfspaces(
        [coeffs for coeffs, _ in body.rows],
        [rhs + sum(c * s for c, s in zip(coeffs, v)) for coeffs, rhs in body.rows],
    )


def pairing_range(body: ConvexBody, coeffs) -> tuple[Fraction, Fraction]:
    """Exact [min, max] of <coeffs, x> over a bounded nonempty body with
    x_0 = <coeffs, x> entered as the pair of rows x_0 - <coeffs, x> <= 0
    and <coeffs, x> - x_0 <= 0, then all d coordinates eliminated."""
    rows = [((0, *a), b) for a, b in body.rows]
    rows += [((1, *(-c for c in coeffs)), 0), ((-1, *coeffs), 0)]
    top = _eliminate(rows, body.dimension + 1)[0][1]
    lo = max(Fraction(b, a[0]) for a, b in top if a[0] < 0)
    hi = min(Fraction(b, a[0]) for a, b in top if a[0] > 0)
    return lo, hi


# ---------------------------------------------------------------------------
# the subset audit of the balanced-function decomposition
# ---------------------------------------------------------------------------

_SUBSET_POINT_BUDGET = 10**6


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
    system: forms.FormSystem, body: ConvexBody, N: int, u: Sequence[float]
) -> DecompositionReport:
    """Evaluate every subset correlation sum exactly and check the bound.

    The sum of subset s is ``forms.lattice_sum`` of h_i = 1_i - rho(u_i)
    over the forms of s.  A body of more than ``_SUBSET_POINT_BUDGET``
    lattice points raises ResourceError, and one on which some form leaves
    [0, N] raises PreconditionError, as ``forms.count_friable_values`` does.
    """
    npoints = forms.lattice_point_count(body)
    if npoints > _SUBSET_POINT_BUDGET:
        raise ResourceError(
            f"{npoints} lattice points exceed the subset budget {_SUBSET_POINT_BUDGET}"
        )
    if not forms.validate_domain(system, body, N):
        raise PreconditionError(f"some form leaves [0, {N}] on this body")
    ys = [sieve.friable_bound(N, ui) for ui in u]
    by_y = sieve.friable_masks(N, ys)
    masks = [by_y[y] for y in ys]
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


# ---------------------------------------------------------------------------
# the builder of the shipped Dickman table
# ---------------------------------------------------------------------------

_MAX_PICARD = 500
_TOL = 1e-10  # |table - rho| <= _TOL * max(rho, 1), see build_rho_table


def _piece_definite_integral(coeffs: np.ndarray, left_knot: int, a, b):
    """integral_a^b of the piece on [left_knot, left_knot + 1], exactly."""
    anti = chebyshev.chebint(coeffs)
    sa = 2.0 * (np.asarray(a, dtype=float) - (left_knot + 0.5))
    sb = 2.0 * (np.asarray(b, dtype=float) - (left_knot + 0.5))
    # dt = ds / 2 under s = 2 (t - (left_knot + 0.5))
    return 0.5 * (chebyshev.chebval(sb, anti) - chebyshev.chebval(sa, anti))


def _chebyshev_fitter(x: np.ndarray):
    """``chebyshev.chebfit(x, ., _DEGREE)`` on fixed nodes x: the same
    column-scaled least squares with the same rcond, its matrix built once,
    so the coefficients are chebfit's bit for bit."""
    lhs = chebyshev.chebvander(x, _DEGREE).T
    scl = np.sqrt(np.square(lhs).sum(1))  # no column vanishes on distinct nodes
    design = lhs.T / scl
    rcond = len(x) * np.finfo(x.dtype).eps
    return lambda y: np.linalg.lstsq(design, y, rcond)[0] / scl


def build_rho_table(u_max: float = 20.0) -> DickmanTable:
    """rho on [0, u_max], the generator of ``friable._rho_pieces``.

    Integrating the delay equation u rho'(u) + rho(u - 1) = 0 gives the
    averaged form u rho(u) = integral_{u-1}^{u} rho(t) dt (u >= 1), which
    is iterated interval by interval: on [k, k+1] the values at 25
    Chebyshev nodes are obtained by fixed-point iteration of

        rho(x) = ( integral_{x-1}^{k} rho  +  integral_{k}^{x} rho ) / x,

    where the first integral reads the previous piece and the second
    integrates the current candidate exactly via its Chebyshev
    antiderivative.  The map is a contraction (factor (x-k)/x <= 1/2) and
    all quantities stay positive, so the pieces keep full relative
    accuracy far into the tail.  The iteration per interval stops once the
    relative change is below _TOL/100, so |table - rho| <= _TOL *
    max(rho, 1) on every piece (in practice the error is near machine
    precision in relative terms).  Each piece is built from the ones
    before it alone, so a piece does not depend on u_max.
    """
    if not 1.0 <= u_max <= 50.0:
        raise ArgumentError(f"u_max must lie in [1, 50], got {u_max}")
    pieces: list[np.ndarray] = []
    cheb_x = np.sort(np.cos(np.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1)))
    fit = _chebyshev_fitter(cheb_x)
    for k in range(1, math.floor(u_max) + 1):
        nodes = k + 0.5 + 0.5 * cheb_x
        if k == 1:
            # rho = 1 on [0, 1]: integral_{x-1}^{1} dt = 2 - x
            tail = 2.0 - nodes
        else:
            tail = _piece_definite_integral(pieces[-1], k - 1, nodes - 1.0, float(k))
        vals = tail / nodes  # ignore the (small) current-interval mass to start
        for _ in range(_MAX_PICARD):
            coeffs = fit(vals)
            head = _piece_definite_integral(coeffs, k, float(k), nodes)
            new_vals = (tail + head) / nodes
            change = float(np.max(np.abs(new_vals - vals)))
            scale = float(np.max(np.abs(new_vals)))
            vals = new_vals
            if change <= max(scale, 1e-300) * _TOL / 100.0:
                break
        else:
            raise NumericError(f"fixed point failed to converge on [{k}, {k + 1}]")
        pieces.append(fit(vals))
    return DickmanTable(u_max=float(u_max), pieces=pieces)


_RHO_PIECES_HEADER = '''"""Dickman rho on [1, 51]: the 50 pieces of the shipped table.

Generated by ``build_rho_table(50.0)`` of the test suite's oracles; do not
edit by hand.  Piece j, 25 little-endian float64 coefficients, is rho on
[j + 1, j + 2] in the local variable s = 2 (u - (j + 1.5)).  Rewrite this
file from the repository root with

    PYTHONPATH=src:tests python -c "import oracles; s = oracles.rho_pieces_module(); open('src/friable/_rho_pieces.py', 'w').write(s)"
"""

PIECES = bytes.fromhex(
'''


def rho_pieces_module() -> str:
    """The exact text of ``src/friable/_rho_pieces.py``: the pieces of
    ``build_rho_table(50.0)`` as one hex literal, five coefficients a line."""
    lines = [_RHO_PIECES_HEADER]
    for j, piece in enumerate(build_rho_table(50.0).pieces):
        lines.append(f"    # [{j + 1}, {j + 2}]\n")
        raw = np.asarray(piece, dtype="<f8").tobytes().hex()
        lines += [f'    "{raw[i : i + 80]}"\n' for i in range(0, len(raw), 80)]
    lines.append(")\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# Dickman rho by 150-point composite Gauss-Legendre steps
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(150)


def _gl_integral(f, a: float, b: float) -> float:
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.dot(_GL_WEIGHTS, f(x)))


def rho_quadrature(u: float) -> float:
    """rho(u) from rho(u) = rho(k) - integral_k^u rho(t-1)/t dt, stepped
    with one 150-point Gauss rule per evaluation and barycentric
    interpolation through the per-interval Gauss nodes.

    Completely disjoint from the production table (different integral
    form, nodes, and interpolation).  Absolute accuracy is limited by the
    cancellation inherent in the subtraction form, ~1e-13 near u = 10.
    """
    return rho_quadrature_at([u])[0]


def rho_quadrature_at(us) -> list[float]:
    """``rho_quadrature(u)`` for every u of ``us``, from one pass over the
    unit intervals up to the largest u."""
    if min(us) < 0:
        raise ValueError("u must be >= 0")
    out = [1.0] * len(us)
    prev = None  # interpolant of rho on [k-1, k]
    rho_knot = 1.0
    for k in range(1, math.ceil(max(us))):

        def integrand(t, _prev=prev, _k=k):
            tm1 = t - 1.0
            if _prev is None:
                vals = np.ones_like(tm1)
            else:
                vals = _prev(tm1)
            return vals / t

        xs = 0.5 * _GL_NODES + (k + 0.5)
        vals = np.array([rho_knot - _gl_integral(integrand, k, x) for x in xs])
        interp = BarycentricInterpolator(xs, vals)
        rho_next = rho_knot - _gl_integral(integrand, k, k + 1)
        for i, u in enumerate(us):
            if k < u < k + 1:
                out[i] = float(interp(u))
            elif u == k + 1:
                out[i] = float(rho_next)
        prev = interp
        rho_knot = rho_next
    return out


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------


def mc_volume(body, samples: int, seed: int) -> tuple[float, float]:
    """(estimate, standard_error) for the volume by bounding-box sampling."""
    bounds = [(float(lo), float(hi)) for lo, hi in body.coordinate_bounds()]
    rng = np.random.default_rng(seed)
    d = len(bounds)
    A = np.array([row for row, _ in body.rows], dtype=float)
    b = np.array([rhs for _, rhs in body.rows], dtype=float)
    box_vol = 1.0
    for lo, hi in bounds:
        box_vol *= hi - lo
    hits = 0
    chunk = 10**6
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        pts = rng.uniform(
            [lo for lo, _ in bounds], [hi for _, hi in bounds], size=(m, d)
        )
        inside = np.all(pts @ A.T <= b + 1e-12, axis=1)
        hits += int(np.count_nonzero(inside))
        remaining -= m
    p = hits / samples
    est = p * box_vol
    se = box_vol * math.sqrt(max(p * (1 - p), 1e-300) / samples)
    return est, se


def qhull_volume(body) -> float | None:
    """The volume by qhull: the vertices from scipy's halfspace intersection
    around the Chebyshev centre (found by linprog), then their convex hull.
    0 when the largest inscribed ball has radius below 1e-9 (a flat or
    empty body); None when the radius is below 1e-6 times the body's scale
    max |b| / |a|, where qhull's floating point is not to be trusted."""
    A = np.array([row for row, _ in body.rows], dtype=float)
    b = np.array([float(rhs) for _, rhs in body.rows])
    norms = np.linalg.norm(A, axis=1)
    d = A.shape[1]
    # maximise r subject to <a, x> + |a| r <= b and 0 <= r <= 1e6
    lp = linprog(
        [0.0] * d + [-1.0], A_ub=np.hstack([A, norms[:, None]]), b_ub=b,
        bounds=[(None, None)] * d + [(0, 1e6)],
    )
    if lp.status == 2 or -lp.fun < 1e-9:
        return 0.0
    if lp.status != 0:
        raise ValueError(f"linprog failed: {lp.message}")
    keep = norms > 0  # qhull refuses 0 <= b, which the LP has already met
    if -lp.fun < 1e-6 * np.max(np.abs(b[keep]) / norms[keep]):
        return None
    hs = HalfspaceIntersection(np.hstack([A, -b[:, None]])[keep], lp.x[:d])
    return float(ConvexHull(hs.intersections).volume)


def mc_simplex_integral(alpha: float, samples: int, seed: int) -> tuple[float, float]:
    """(estimate, standard_error) for S1(alpha) by uniform simplex sampling."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    chunk = 10**6
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        a = rng.uniform(0.0, 1.0, m)
        b = rng.uniform(0.0, 1.0, m)
        t1 = np.minimum(a, b)
        t2 = np.abs(a - b)  # (t1, t2) uniform on the simplex t1 + t2 <= 1
        vals = alpha**3 * (t1 * t2 * (t1 + t2)) ** (alpha - 1.0)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals**2))
        remaining -= m
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    # integral = mean * area, area = 1/2
    return 0.5 * mean, 0.5 * math.sqrt(var / samples)


# ---------------------------------------------------------------------------
# analytic oracles
# ---------------------------------------------------------------------------


def saddle_longdouble(N: int, y: float) -> float:
    """alpha(N, y) by pure bisection in extended (long double) precision."""
    import friable.sieve as fsieve

    primes = fsieve.primes_up_to(int(y)).astype(np.longdouble)
    logs = np.log(primes)
    target = np.longdouble(math.log(N))

    def lhs(a):
        return np.sum(logs / (np.power(primes, np.longdouble(a)) - 1))

    lo, hi = np.longdouble(1e-6), np.longdouble(8.0)
    for _ in range(120):
        mid = (lo + hi) / 2
        if lhs(mid) > target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def s0_direct_product(alpha: float, y: float, p_max: int) -> float:
    """Sequential plain-float product over primes (no log/fsum route)."""
    import friable.sieve as fsieve

    value = 1.0
    for p in fsieve.primes_up_to(p_max).tolist():
        if p <= y:
            value *= 1.0 + (p - p**alpha) ** 3 / (
                p * (p - 1) ** 2 * (p ** (3 * alpha - 1) - 1)
            )
        else:
            value *= 1.0 - 1.0 / (p - 1) ** 2
    return value


def s1_quad(alpha: float) -> float:
    """S1(alpha) by tanh-sinh quadrature at 30 digits of the one-axis form

        2 alpha^3 / (3 alpha - 1) * integral_0^1 w^(alpha-1) (1 + w)^(-2 alpha) dw

    (t1 <-> t2 symmetry and t2 = t1 w on the simplex), not the Beta identity.
    """
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        inner = mpmath.quad(lambda w: w ** (a - 1) * (1 + w) ** (-2 * a), [0, 1])
        return float(2 * a**3 / (3 * a - 1) * inner)


# ---------------------------------------------------------------------------
# correlation oracles
# ---------------------------------------------------------------------------


def _frac_mod1(theta: float, k: int) -> float:
    """theta * k mod 1 for the IEEE value theta = a / b: (a k mod b) / b."""
    a, b = float(theta).as_integer_ratio()
    return (a * k % b) / b if b > 1 else 0.0


def phase(g, n: int) -> float:
    """The fractional phase of the ``PhaseSequence`` g at n, one exact Python
    step per n: a ``Fraction`` floor and big-integer ``a k mod b``."""
    if g.kind == "constant":
        return g.params[0] % 1.0
    if g.kind == "linear":
        theta, beta = g.params
        return (_frac_mod1(theta, n) + beta) % 1.0
    if g.kind == "quadratic":
        t2, t1, t0 = g.params
        return (_frac_mod1(t2, n * n) + _frac_mod1(t1, n) + t0) % 1.0
    theta, phi = g.params
    m = math.floor(Fraction(phi) * n) if n else 0
    return _frac_mod1(theta, n * m)


def h_tau_per_n(N: int, u: float, tau: float) -> np.ndarray:
    """h_tau by per-n divisor scans over the admissible k list (index 0 = 0)."""
    y = N ** (1.0 / u)
    klim = int(math.floor(N ** (1.0 - tau)))
    adm = [(k, m) for k, m in sifted_squarefree(klim, y)]
    mean = math.fsum(m / k for k, m in adm)
    out = np.zeros(N + 1)
    for n in range(1, N + 1):
        s = sum(m for k, m in adm if n % k == 0)
        out[n] = s - mean
    return out


def divisor_pass_strided(N: int, ks: np.ndarray, mus: np.ndarray, start: float) -> np.ndarray:
    """start + sum_k mu(k) 1[k | n] on 0..N by one strided slice ``out[::k] += mu(k)``
    per k, in the order given; index 0 is 0."""
    out = np.full(N + 1, start, dtype=np.float64)
    for k, m in zip(ks.tolist(), mus.tolist()):
        out[::k] += m
    out[0] = 0.0
    return out


def u2_interval_autocorrelation(values: np.ndarray) -> float:
    """U^2[N] by direct O(M^2) autocorrelation sums on Z_M', M' = 4(N+1).

    ||g||_{U^2(Z_M)}^4 = E_h |E_n g(n) conj(g(n+h))|^2, evaluated with
    explicit rolls; no FFT anywhere.
    """
    n0 = len(values)
    M = 4 * n0

    def u2pow(vals):
        g = np.zeros(M, dtype=complex)
        g[:n0] = vals
        acc = 0.0
        for h in range(M):
            s = np.sum(g * np.conj(np.roll(g, -h))) / M
            acc += abs(s) ** 2
        return acc / M

    return (u2pow(values) / u2pow(np.ones(n0))) ** 0.25


_BRUTE_GUARDRAIL = 10**9


def gowers_norm_bruteforce(f, k: int) -> float:
    """Direct (k+1)-fold sum over all (n, h_1, ..., h_k); test oracle only.

    The innermost pair (n, h_k) is summed as |sum_n D f(n)|^2, where
    D f(n) = prod over the 2^(k-1) vertices w of conj^|w| f(n + w.h) is the
    multiplicative derivative in h_1..h_{k-1}: the h_k-shifted half of the
    cube is the conjugate of D f(n + h_k), and n + h_k runs over Z_M.  The
    h_{k-1} axis is one array dimension, the others are looped; every
    value is read from R[t, n] = f((n + t) mod M).  No FFT.  The sum has
    M^(k+1) terms, guarded at 10^9.
    """
    vals = np.ascontiguousarray(f, dtype=np.complex128)
    M = vals.size
    if k not in (2, 3, 4):
        raise ArgumentError(f"only U^2..U^4 are supported, got k = {k}")
    if M ** (k + 1) > _BRUTE_GUARDRAIL:
        raise ResourceError(f"brute force needs M^(k+1) = {M**(k+1)} > {_BRUTE_GUARDRAIL}")
    _check_bounded(vals)
    R = vals[np.add.outer(np.arange(M), np.arange(M)) % M]
    h = np.arange(M)
    total = 0.0
    for lead in itertools.product(range(M), repeat=k - 2):
        derivative = np.ones((M, M), dtype=complex)  # [h_{k-1}, n]
        for bits in itertools.product((0, 1), repeat=k - 1):
            w = R[(sum(b * s for b, s in zip(bits, lead)) + bits[-1] * h) % M]
            derivative *= np.conj(w) if sum(bits) % 2 else w
        total += float(np.sum(np.abs(derivative.sum(axis=1)) ** 2))
    return _root(total / M ** (k + 1), k)


def gowers_pow_complex(vals: np.ndarray, k: int) -> float:
    """||f||_{U^k(Z_M)}^(2^k) by the derivative recursion on complex rows,
    summed over h = 0..floor(M/2) by the h <-> -h symmetry, with the full
    FFT sum_xi |fhat(xi)|^4 as the U^2 base case, whatever f's imaginary
    part."""
    vals = np.asarray(vals, dtype=np.complex128)
    M = vals.size
    if k == 2:
        return float(np.sum(np.abs(np.fft.fft(vals, norm="forward")) ** 4))
    shifted = sliding_window_view(np.concatenate((vals, vals)), M)  # row h: f(n + h)
    weights = np.full(M // 2 + 1, 2.0)
    weights[0] = 1.0
    if M % 2 == 0:
        weights[-1] = 1.0
    return sum(
        w * gowers_pow_complex(shifted[h] * np.conj(vals), k - 1)
        for h, w in enumerate(weights.tolist())
    ) / M


# ---------------------------------------------------------------------------
# CSV tables row by row
# ---------------------------------------------------------------------------


def csv_table_bytes(header: list[str], columns: list) -> bytes:
    """A table of columns written row by row through ``csv.writer``, each
    float cell with 17 significant digits: the reference bytes of the
    chunks of ``friable.cli.csv_chunks``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([format(float(x), ".17g") if isinstance(x, float) else x for x in row])
    return buf.getvalue().encode("utf-8")
