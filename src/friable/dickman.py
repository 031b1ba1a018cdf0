"""High-precision evaluation of the Dickman function rho(u).

rho is the unique continuous solution of

    rho(u) = 1                       for 0 <= u <= 1,
    u * rho'(u) + rho(u - 1) = 0     for u > 1.

Integrating the delay equation gives the equivalent average form

    u * rho(u) = integral_{u-1}^{u} rho(t) dt        (u >= 1),

which the builder iterates interval by interval: on [k, k+1] the values at
25 Chebyshev nodes are obtained by fixed-point iteration of

    rho(x) = ( integral_{x-1}^{k} rho  +  integral_{k}^{x} rho ) / x,

where the first integral reads the previous interval's stored interpolant
and the second integrates the current candidate exactly via its Chebyshev
antiderivative.  The map is a contraction (factor (x-k)/x <= 1/2), and all
quantities stay positive, so the table keeps full relative accuracy down
to rho(20) ~ 2.5e-29.  The textbook subtraction form
rho(u) = rho(k) - integral_k^u rho(t-1)/t dt is algebraically identical
but cancels catastrophically in double precision past u ~ 10 and cannot
deliver positive, strictly decreasing values near u = 20.

Evaluation is O(1) per point: one degree-24 Chebyshev piece per unit
interval (error ~ (2 + sqrt 3)^-24 since rho is analytic on each piece).

Knot rule: for u > 1 the value is read from piece floor(u) - 1, the piece
on [floor(u), floor(u) + 1], so at an integer knot k the right-hand piece
is read.  A table on [0, u_max] holds floor(u_max) pieces, the right-hand
piece of its last integer knot included, and every piece is built from
the ones before it alone, so a value never depends on how far a table
reaches.  ``rho`` is the one reader the library uses.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev

from .errors import ArgumentError, NumericError

_DEGREE = 24
_MAX_PICARD = 500
_TOL = 1e-10  # |table - rho| <= _TOL * max(rho, 1), see build_rho_table


class DickmanTable:
    """Piecewise Chebyshev representation of rho on [0, u_max].

    ``pieces[j]`` holds the coefficients of rho on [j+1, j+2] in the local
    variable s = 2 (u - (j + 1.5)); the interval [0, 1] needs no piece.
    Immutable after construction; shared concurrent reads are safe.
    """

    def __init__(self, u_max: float, pieces: list[np.ndarray]):
        self.u_max = float(u_max)
        self.pieces = pieces

    def __repr__(self) -> str:
        return f"DickmanTable(u_max={self.u_max}, pieces={len(self.pieces)})"

    def eval(self, u):
        """rho(u) for scalar or array u in [0, u_max]; exactly 1 on [0, 1]."""
        arr = np.asarray(u, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= self.u_max)):  # NaN fails both
            raise ArgumentError(f"u outside table domain [0, {self.u_max}]")
        out = np.ones_like(arr)
        above = arr > 1.0
        idx = np.floor(arr).astype(int) - 1
        for k in np.unique(idx[above]).tolist():
            sel = above & (idx == k)
            s = 2.0 * (arr[sel] - (k + 1.5))
            out[sel] = chebyshev.chebval(s, self.pieces[k])
        return float(out) if np.isscalar(u) else out


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


def _grow(pieces: list[np.ndarray], n_intervals: int) -> list[np.ndarray]:
    """``pieces`` followed by the pieces on [k, k + 1] for
    k = len(pieces) + 1..n_intervals, each built from the one before it.

    The fixed-point iteration per interval stops once the relative change
    is below _TOL/100, so |table - rho| <= _TOL * max(rho, 1) on every
    piece (in practice the error is near machine precision in relative
    terms).
    """
    pieces = list(pieces)
    cheb_x = np.sort(np.cos(np.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1)))
    fit = _chebyshev_fitter(cheb_x)

    for k in range(len(pieces) + 1, n_intervals + 1):
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
    return pieces


def build_rho_table(u_max: float = 20.0) -> DickmanTable:
    """Iterate the averaged integral form of the delay equation up to u_max
    (see ``_grow``, which builds the pieces from none)."""
    if not 1.0 <= u_max <= 50.0:
        raise ArgumentError(f"u_max must lie in [1, 50], got {u_max}")
    return DickmanTable(u_max=float(u_max), pieces=_grow([], math.floor(u_max)))


# ---------------------------------------------------------------------------
# module-level evaluator on one shared table
# ---------------------------------------------------------------------------

_table: DickmanTable | None = None


def default_table() -> DickmanTable:
    """The shared table: built to config.DEFAULT_DICKMAN_UMAX on first use,
    and extended by ``rho``, with only the missing pieces built, when a
    larger u asks for it."""
    global _table
    if _table is None:
        from . import config

        _table = build_rho_table(config.DEFAULT_DICKMAN_UMAX)
    return _table


def rho(u):
    """rho(u) for scalar or array u in [0, 50], read from the shared table."""
    global _table
    arr = np.asarray(u, dtype=float)
    if not np.all(arr >= 0.0):  # NaN included
        raise ArgumentError("rho is only defined for u >= 0 (NaN is not)")
    top = float(np.max(arr)) if arr.size else 0.0
    if top > 50.0:
        raise ArgumentError(f"u = {top} beyond the supported range [0, 50]")
    table = default_table()
    if top > table.u_max:
        u_max = math.ceil(top)
        _table = table = DickmanTable(float(u_max), _grow(table.pieces, u_max))
    return table.eval(u)


def dde_residual_grid(
    table: DickmanTable, n_points: int, lo: float = 1.0, hi: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals |u rho'(u) + rho(u-1)| on a knot-avoiding grid of (lo, hi).

    rho' is estimated from the table by central differences with step 1e-5.
    The grid uses midpoint offsets so no sample sits on an integer knot,
    where rho'' jumps and the central-difference estimate of rho' is biased.
    Returns (grid, residuals).
    """
    hi = table.u_max if hi is None else hi
    if not (1.0 <= lo < hi <= table.u_max):
        raise ArgumentError(f"grid range [{lo}, {hi}] not inside (1, {table.u_max}]")
    h = 1e-5
    step = (hi - lo) / n_points
    grid = lo + (np.arange(n_points) + 0.5) * step
    grid = grid[(grid - h > lo) & (grid + h < hi)]
    deriv = (table.eval(grid + h) - table.eval(grid - h)) / (2.0 * h)
    residual = np.abs(grid * deriv + table.eval(grid - 1.0))
    return grid, residual
