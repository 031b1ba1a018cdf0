"""High-precision evaluation of the Dickman function rho(u).

rho is the unique continuous solution of

    rho(u) = 1                       for 0 <= u <= 1,
    u * rho'(u) + rho(u - 1) = 0     for u > 1.

The table is data: ``_rho_pieces`` ships its 50 pieces, which cover
[1, 51], as little-endian float64 generated once by the oracle builder
``build_rho_table`` of the test suite (``tests/oracles.py``).  That builder
iterates the averaged form u rho(u) = integral_{u-1}^{u} rho(t) dt of the
delay equation per unit interval, a positive contraction, so the pieces
keep full relative accuracy down to rho(20) ~ 2.5e-29 and beyond.  The
textbook subtraction form rho(u) = rho(k) - integral_k^u rho(t-1)/t dt is
algebraically identical but cancels catastrophically in double precision
past u ~ 10 and cannot deliver positive, strictly decreasing values near
u = 20.  No process builds or extends a table, and the test suite checks
that the shipped bytes are what the builder gives.

Evaluation is O(1) per point: one degree-24 Chebyshev piece per unit
interval (error ~ (2 + sqrt 3)^-24 since rho is analytic on each piece).
The piece is summed by Clenshaw's recurrence, taking the steps of numpy's
``chebval`` in its order, so every value has chebval's bits.  A scalar
runs it on Python floats; an array runs it in blocks of ``_BLOCK`` = 2^13
entries, each step gathering the entries' coefficients from one
(degree + 1, pieces) matrix, so the work arrays are O(block).

Knot rule: for u > 1 the value is read from piece floor(u) - 1, the piece
on [floor(u), floor(u) + 1], so at an integer knot k the right-hand piece
is read.  A table on [0, u_max] holds floor(u_max) pieces, the right-hand
piece of its last integer knot included, so the shared table on [0, 50]
reads rho(50) from the piece on [50, 51].  ``rho`` is the one reader the
library uses.
"""

from __future__ import annotations

import numpy as np

from ._rho_pieces import PIECES
from .errors import ArgumentError

_DEGREE = 24
_BLOCK = 1 << 13  # array entries per Clenshaw pass, sized for cache


class DickmanTable:
    """Piecewise Chebyshev representation of rho on [0, u_max].

    ``pieces[j]`` holds the coefficients of rho on [j+1, j+2] in the local
    variable s = 2 (u - (j + 1.5)); the interval [0, 1] needs no piece.
    Immutable after construction; shared concurrent reads are safe.
    """

    def __init__(self, u_max: float, pieces: list[np.ndarray]):
        self.u_max = float(u_max)
        self.pieces = pieces
        self._rows = [piece.tolist() for piece in pieces]
        self._by_degree = np.array(pieces).T.copy()  # row j: every piece's T_j coefficient

    def __repr__(self) -> str:
        return f"DickmanTable(u_max={self.u_max}, pieces={len(self.pieces)})"

    def eval(self, u):
        """rho(u) for scalar or array u in [0, u_max]; exactly 1 on [0, 1]."""
        if np.isscalar(u):
            x = float(u)
            if not 0.0 <= x <= self.u_max:  # NaN fails both
                raise ArgumentError(f"u outside table domain [0, {self.u_max}]")
            if x <= 1.0:
                return 1.0
            k = int(x) - 1
            return _clenshaw(2.0 * (x - (k + 1.5)), self._rows[k])
        arr = np.asarray(u, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= self.u_max)):  # NaN fails both
            raise ArgumentError(f"u outside table domain [0, {self.u_max}]")
        flat = arr.reshape(-1)
        out = np.ones(flat.shape)
        for start in range(0, flat.size, _BLOCK):
            x = flat[start : start + _BLOCK]
            above = x > 1.0
            if above.any():
                np.copyto(out[start : start + _BLOCK], self._block(x), where=above)
        return out.reshape(arr.shape)

    def _block(self, x: np.ndarray) -> np.ndarray:
        """``_clenshaw`` entrywise on the array x, each entry on its piece
        floor(x) - 1; an entry x <= 1 reads piece 0 and is discarded."""
        k = np.floor(x).astype(np.intp)
        k -= 1
        np.maximum(k, 0, out=k)
        s = x - (k + 1.5)
        s *= 2.0
        x2 = 2.0 * s
        c0 = self._by_degree[-2].take(k)
        c1 = self._by_degree[-1].take(k)
        tmp = np.empty_like(s)
        for row in self._by_degree[-3::-1]:
            row.take(k, out=tmp)
            tmp -= c1  # the new c0 = c[-i] - c1
            c1 *= x2
            c1 += c0  # the new c1 = c0 + c1 * x2
            c0, tmp = tmp, c0
        c1 *= s
        c1 += c0
        return c1


def _clenshaw(s: float, c: list[float]) -> float:
    """sum_j c[j] T_j(s) by the steps of numpy's ``chebval``, in its order."""
    x2 = 2.0 * s
    c0, c1 = c[-2], c[-1]
    for ci in c[-3::-1]:
        c0, c1 = ci - c1, c0 + c1 * x2
    return c0 + c1 * s


# ---------------------------------------------------------------------------
# module-level evaluator on one shared table
# ---------------------------------------------------------------------------

_table = DickmanTable(50.0, list(np.frombuffer(PIECES, "<f8").reshape(50, _DEGREE + 1)))


def default_table() -> DickmanTable:
    """The shared table on [0, 50], read from the shipped pieces."""
    return _table


def rho(u):
    """rho(u) for scalar or array u in [0, 50], read from the shared table."""
    return _table.eval(u)


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
