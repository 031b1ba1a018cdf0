"""Affine-linear form systems over convex bodies, and exact friable counts.

The headline quantity is the number of lattice points n of a convex body
K inside [-N, N]^d whose form values F_1(n), ..., F_t(n) are all friable
with per-form bounds N^(1/u_i), compared against Vol(K) * prod rho(u_i).

Geometry is exact: every body is an H-polytope whose rational rows are
scaled to integers once, when it is built.  One Fourier-Motzkin
elimination in integer arithmetic gives the slab bounds of the lattice
walk (integer floor and ceiling divisions) and decides emptiness.  An
equality enters only through one integer substitution step: the range of
<c, x> is one substitution of x_0 = <c, x> plus one elimination, and
Lasserre's recursion substitutes each facet to give the exact rational
volume of every bounded body.

Every sum over the lattice points is one ``lattice_sum`` of
prod_i w_i(F_i(n)), each w_i an array indexed by form i's values: the
friable masks over [0, N] for a count, float weights for criterion 2's
local-density sum and the test suite's subset audit.  Along one slab a
form's values are an arithmetic progression, so its weights are a strided
view, or one weight when the form does not depend on the innermost
coordinate.
Separable systems, such as (x1, x2, x1 + x2) on a simplex, are counted by
one FFT convolution of friable masks instead of slab by slab.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import dickman, sieve
from .errors import ArgumentError, NumericError, PreconditionError, ResourceError

_INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineForm:
    """Integer affine-linear form  x -> <coeffs, x> + constant."""

    coeffs: tuple[int, ...]
    constant: int = 0

    def __post_init__(self):
        if not self.coeffs or all(c == 0 for c in self.coeffs):
            raise ArgumentError("an affine form needs a nonzero coefficient vector")

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            parts.append(f"{sign}{'' if mag == 1 else mag}x{j + 1}")
        if self.constant:
            parts.append(f"{'+' if self.constant > 0 and parts else ''}{self.constant}")
        return "".join(parts) or "0"


@dataclass(frozen=True)
class FormSystem:
    """A system of t affine-linear forms over d shared variables."""

    forms: tuple[AffineForm, ...]

    def __post_init__(self):
        if not self.forms:
            raise ArgumentError("a form system needs at least one form")
        dims = {f.dimension for f in self.forms}
        if len(dims) != 1:
            raise ArgumentError(f"forms mix dimensions {sorted(dims)}")

    @property
    def dimension(self) -> int:
        return self.forms[0].dimension

    @property
    def count(self) -> int:
        return len(self.forms)


def check_pairwise_affine_independence(system: FormSystem) -> bool:
    """True iff no two coefficient vectors are rationally parallel.

    Constants are irrelevant: F_j = a F_i + b over Q exactly when the
    non-constant coefficient vectors are parallel.
    """
    vecs = [f.coeffs for f in system.forms]
    d = system.dimension
    for v, w in itertools.combinations(vecs, 2):
        # nonzero vectors are parallel iff every 2x2 minor vanishes
        if all(v[a] * w[b] == v[b] * w[a] for a in range(d) for b in range(a + 1, d)):
            return False
    return True


def parse_form(text: str, dimension: int | None = None) -> AffineForm:
    """Parse expressions like ``2x1+3x2-1`` or ``x1 - x2``."""
    s = text.replace(" ", "").lower()
    if not s:
        raise ArgumentError("empty form expression")
    tokens = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur:
            tokens.append(cur)
            cur = ch
        else:
            cur += ch
    tokens.append(cur)
    terms: dict[int, int] = {}
    constant = 0
    maxvar = 0
    for tok in tokens:
        body = tok.lstrip("+-")
        sign = -1 if tok.startswith("-") else 1
        if "x" in body:
            coef_s, _, idx_s = body.partition("x")
            try:
                idx = int(idx_s)
                coef = int(coef_s) if coef_s else 1
            except ValueError as exc:
                raise ArgumentError(f"cannot parse term {tok!r} in {text!r}") from exc
            if idx < 1:
                raise ArgumentError(f"variable index must be >= 1 in {tok!r}")
            terms[idx - 1] = terms.get(idx - 1, 0) + sign * coef
            maxvar = max(maxvar, idx)
        else:
            try:
                constant += sign * int(body)
            except ValueError as exc:
                raise ArgumentError(f"cannot parse term {tok!r} in {text!r}") from exc
    d = dimension if dimension is not None else maxvar
    if maxvar > d:
        raise ArgumentError(f"form {text!r} uses x{maxvar} beyond dimension {d}")
    coeffs = tuple(terms.get(j, 0) for j in range(d))
    return AffineForm(coeffs, constant)


def parse_form_system(text: str) -> FormSystem:
    """Parse ``;``-separated forms, e.g. ``x1; x2; x1+x2``."""
    parts = [p for p in (q.strip() for q in text.split(";")) if p]
    if not parts:
        raise ArgumentError("empty form system")
    dimension = 0
    for p in parts:
        f = parse_form(p)
        dimension = max(dimension, f.dimension)
    return FormSystem(tuple(parse_form(p, dimension) for p in parts))


# ---------------------------------------------------------------------------
# convex bodies
# ---------------------------------------------------------------------------

_Row = tuple[tuple[int, ...], int]  # <coeffs, x> <= rhs, integer entries


def _integer_row(coeffs: Iterable, rhs) -> _Row:
    """A rational row scaled by the lcm of its denominators."""
    entries = [Fraction(x) for x in (*coeffs, rhs)]
    scale = math.lcm(*(e.denominator for e in entries))
    ints = [int(e * scale) for e in entries]
    return tuple(ints[:-1]), ints[-1]


class ConvexBody:
    """The polytope {x : <a, x> <= b for every row (a, b)}, rows in integers.

    Every constructor scales its rational rows to integers once, without
    tightening them to the lattice, so the continuous body is the one
    given.  ``kind`` ("box" or "hpoly") names the constructor, and a box
    also keeps its rational ``bounds``; no computation reads either, and
    ``perfbench/worker.py`` keys its lattice-point counts by both.
    """

    def __init__(self, kind: str, rows: Iterable[tuple[Iterable, object]], bounds=None):
        self.kind = kind
        self.rows: tuple[_Row, ...] = tuple(_integer_row(a, b) for a, b in rows)
        self.bounds: tuple[tuple[Fraction, Fraction], ...] | None = bounds
        if not self.rows:
            raise ArgumentError("an H-polytope needs at least one constraint")
        if len({len(a) for a, _ in self.rows}) != 1:
            raise ArgumentError("constraint rows mix dimensions")
        self._slabs: list | None = None
        self._empty: bool | None = None
        self._ranges: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def box(bounds: Iterable[tuple]) -> "ConvexBody":
        bs = tuple((Fraction(lo), Fraction(hi)) for lo, hi in bounds)
        if not bs:
            raise ArgumentError("a box needs at least one coordinate")
        rows = []
        for j, (lo, hi) in enumerate(bs):
            if lo > hi:
                raise ArgumentError(f"box bound {lo} > {hi}")
            unit = [int(i == j) for i in range(len(bs))]
            rows += [([-c for c in unit], -lo), (unit, hi)]
        return ConvexBody("box", rows, bs)

    @staticmethod
    def halfspaces(A: Iterable[Iterable], b: Iterable) -> "ConvexBody":
        return ConvexBody("hpoly", zip(A, b))

    @staticmethod
    def simplex(dimension: int, lower, total) -> "ConvexBody":
        """{x : x_j >= lower for all j, sum x_j <= total}."""
        A = [[-int(i == j) for i in range(dimension)] for j in range(dimension)]
        b = [-Fraction(lower)] * dimension + [total]
        return ConvexBody.halfspaces(A + [[1] * dimension], b)

    # -- basics ------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.rows[0][0])

    # -- Fourier-Motzkin levels ---------------------------------------------

    def _slab_rows(self) -> list:
        """slabs[k] = (uppers, lowers) for k = 1..d: the rows of x_1..x_k
        with a positive / negative x_k coefficient, each as (head, |a_k|, b)
        with head = a_1..a_{k-1}.  Built once by ``_eliminate``, which also
        decides emptiness; raises ArgumentError when the body is nonempty
        and unbounded."""
        if self._slabs is None:
            d = self.dimension
            levels, unbounded = _eliminate(self.rows, d)
            empty = any(b < 0 for _, b in levels[0])
            if unbounded is not None and not empty:
                raise ArgumentError(f"polytope is unbounded in x{unbounded + 1}")
            self._empty = empty
            self._slabs = [None]
            for k in range(1, d + 1):
                rows = [(a[: k - 1], a[k - 1], b) for a, b in levels[k] if a[k - 1]]
                self._slabs.append((
                    [(head, c, b) for head, c, b in rows if c > 0],
                    [(head, -c, b) for head, c, b in rows if c < 0],
                ))
        return self._slabs

    def integer_slab(self, level: int, prefix: Sequence[int]) -> tuple[int, int] | None:
        """Integer range [lo, hi] of x_level given x_1..x_{level-1} = prefix, or None.

        The body is nonempty and the prefix lies in its projection, as in
        the slab walk.  Each row gives a floor (upper) or ceiling (lower)
        by integer division of its slack b - <head, prefix>.
        """
        uppers, lowers = self._slab_rows()[level]
        hi = min((b - sum(map(operator.mul, head, prefix))) // c for head, c, b in uppers)
        lo = max(-((b - sum(map(operator.mul, head, prefix))) // c) for head, c, b in lowers)
        return (lo, hi) if lo <= hi else None

    def is_empty(self) -> bool:
        """No interior test: True iff the continuous body is infeasible."""
        self._slab_rows()
        return self._empty

    def coordinate_bounds(self) -> list[tuple[Fraction, Fraction]]:
        """Exact [min, max] of each coordinate over the body (bounded check)."""
        d = self.dimension
        return [_functional_range(self, [int(i == j) for i in range(d)]) for j in range(d)]


def _eliminate(rows: Sequence[_Row], d: int) -> tuple[list[list[_Row]], int | None]:
    """Fourier-Motzkin elimination of x_d, ..., x_1 in integer arithmetic.

    levels[k] holds rows over x_1..x_k (coefficient vectors keep length d)
    and levels[0] rows 0 <= b, so the rows are infeasible iff some b there
    is negative.  Each pair of rows with opposite signs in x_k combines
    with positive integer weights into one row without x_k, so levels[k]
    is exactly the projection onto x_1..x_k.  Chernikov's rule bounds the
    growth: after s eliminations a combination of more than s + 1 given
    rows is a nonnegative combination of the others, and is dropped.  The
    rule counts given rows, so the rows fed on are not reduced; only the
    levels handed out are, by ``_tightest``.  The second result is the
    first variable eliminated without a row on each side, or None.
    """
    levels: list[list[_Row]] = [[] for _ in range(d + 1)]
    levels[d] = _tightest(rows)
    current = [(a, b, 1 << i) for i, (a, b) in enumerate(rows)]  # bit i: given row i used
    unbounded = None
    for v in range(d - 1, -1, -1):
        if v == 0:  # the last step feeds nothing on, so it may start reduced
            current = [(a, b, 0) for a, b in levels[1]]
        pos = [r for r in current if r[0][v] > 0]
        neg = [r for r in current if r[0][v] < 0]
        if unbounded is None and not (pos and neg):
            unbounded = v
        current = [r for r in current if r[0][v] == 0]
        for p, bp, up in pos:
            for q, bq, uq in neg:
                if (up | uq).bit_count() > d - v + 1:
                    continue
                a = tuple(-q[v] * x + p[v] * y for x, y in zip(p, q))
                b = -q[v] * bp + p[v] * bq
                g = math.gcd(*a, b) or 1
                current.append((tuple(x // g for x in a), b // g, up | uq))
        levels[v] = _tightest([(a, b) for a, b, _ in current])
    return levels, unbounded


def _tightest(rows: Iterable[_Row]) -> list[_Row]:
    """The rows divided by the gcd of their entries, keeping of each set of
    rows with positively parallel coefficients only the tightest."""
    best: dict[tuple[int, ...], tuple[int, int]] = {}  # a / g -> (b, g)
    for a, b in rows:
        g = math.gcd(*a) or 1
        key = tuple(x // g for x in a)
        if key not in best or b * best[key][1] < best[key][0] * g:
            best[key] = (b, g)
    out = []
    for key, (b, g) in best.items():
        h = math.gcd(g, b)
        out.append((tuple(x * (g // h) for x in key), b // h))
    return out


# ---------------------------------------------------------------------------
# geometry operations
# ---------------------------------------------------------------------------


def _substitute(rows: Iterable[_Row], a: Sequence[int], b: int, j: int) -> list[_Row]:
    """The rows with x_j substituted out of <a, x> = b (a_j != 0) and
    coordinate j dropped.  Each row is scaled by |a_j| first, so every
    entry stays an integer."""
    m, s = abs(a[j]), (1 if a[j] > 0 else -1)
    return [
        (
            tuple(m * x - s * ak[j] * y for k, (x, y) in enumerate(zip(ak, a)) if k != j),
            m * bk - s * ak[j] * b,
        )
        for ak, bk in rows
    ]


def _functional_range(body: ConvexBody, coeffs: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Exact [min, max] of <coeffs, x> over a bounded nonempty body: the
    range of x_0 once the first x_j with c_j != 0 is substituted out of
    x_0 = <coeffs, x> and the other d - 1 coordinates are eliminated.
    Kept on the body, so each range is eliminated once."""
    if body.is_empty():
        raise ArgumentError("cannot bound a functional over an empty polytope")
    key = tuple(coeffs)
    if key in body._ranges:
        return body._ranges[key]
    j = next((k for k, c in enumerate(coeffs) if c), None)
    if j is None:
        return Fraction(0), Fraction(0)
    rows = _substitute([((0, *a), b) for a, b in body.rows], (-1, *coeffs), 0, j + 1)
    top = _eliminate(rows, body.dimension)[0][1]
    lo = max(Fraction(b, a[0]) for a, b in top if a[0] < 0)
    hi = min(Fraction(b, a[0]) for a, b in top if a[0] > 0)
    body._ranges[key] = lo, hi
    return lo, hi


def validate_domain(system: FormSystem, body: ConvexBody, N: int) -> bool:
    """True iff every form maps the body into [0, N].

    Precondition body subset [-N, N]^d is checked exactly and raises
    PreconditionError on violation; an unbounded polytope raises
    ArgumentError.
    """
    if N < 1:
        raise ArgumentError(f"N must be >= 1, got {N}")
    if system.dimension != body.dimension:
        raise ArgumentError("system and body dimensions differ")
    if body.is_empty():
        return True  # vacuous: no points to violate the range
    for j, (lo, hi) in enumerate(body.coordinate_bounds()):
        if lo < -N or hi > N:
            raise PreconditionError(
                f"body coordinate x{j + 1} range [{lo}, {hi}] leaves [-{N}, {N}]"
            )
    for f in system.forms:
        lo, hi = _functional_range(body, f.coeffs)
        lo += f.constant
        hi += f.constant
        if lo < 0 or hi > N:
            return False
    return True


def volume(body: ConvexBody) -> Fraction:
    """Exact continuous volume of a bounded body (ArgumentError when it is
    nonempty and unbounded): ``_lasserre`` on the integer rows."""
    return Fraction(0) if body.is_empty() else _lasserre(body.rows, {})


def _lasserre(rows: Sequence[_Row], seen: dict) -> Fraction:
    """Volume of the bounded set {x : <a, x> <= b} by Lasserre's recursion
    (JOTA 1983) in its projected form

        vol_d(P) = (1/d) sum_i (b_i / |a_ij|) vol_{d-1}(pi_j F_i),

    F_i the facet on row i and pi_j dropping a coordinate with a_ij != 0;
    ``_substitute`` takes x_j out of every other row.  A row reduced to
    0 <= b is dropped, or empties the set when b < 0.  ``_tightest`` keeps
    one row of each positively parallel set, which would otherwise count
    its facet twice; a row with b_i = 0 adds nothing.  Empty and flat sets
    give 0: their facets are empty or flat, and a flat set's two opposite
    rows cancel.  ``seen`` maps each reduced row set above one dimension to
    its volume: a face is reached once per order of its facets, so a
    d-simplex costs at most 2^(d+1) subproblems instead of (d+1)!.
    """
    if any(b < 0 for a, b in rows if not any(a)):
        return Fraction(0)
    rows = _tightest((a, b) for a, b in rows if any(a))
    d = len(rows[0][0])
    if d == 1:
        hi = min(Fraction(b, a) for (a,), b in rows if a > 0)
        lo = max(Fraction(b, a) for (a,), b in rows if a < 0)
        return max(hi - lo, Fraction(0))
    key = frozenset(rows)
    if key not in seen:
        total = Fraction(0)
        for i, (a, b) in enumerate(rows):
            if b == 0:
                continue
            j = next(k for k, c in enumerate(a) if c)
            facet = _substitute(rows[:i] + rows[i + 1 :], a, b, j)
            total += Fraction(b, abs(a[j])) * _lasserre(facet, seen)
        seen[key] = total / d
    return seen[key]


# ---------------------------------------------------------------------------
# lattice enumeration and counting
# ---------------------------------------------------------------------------


def _iter_slabs(body: ConvexBody):
    """Yield (prefix, lo, hi): innermost-coordinate runs, lexicographic."""
    if body.is_empty():
        return
    d = body.dimension

    def walk(prefix: tuple[int, ...], level: int):
        rng = body.integer_slab(level, prefix)
        if rng is None:
            return
        lo, hi = rng
        if level == d:
            yield prefix, lo, hi
            return
        for x in range(lo, hi + 1):
            yield from walk(prefix + (x,), level + 1)

    yield from walk((), 1)


def lattice_point_count(body: ConvexBody) -> int:
    """Exact number of integer points (no [-N, N] restriction)."""
    return sum(hi - lo + 1 for _, lo, hi in _iter_slabs(body))


# The convolution runs only while every entry of the convolution stays far
# below 2^53, so float64 FFT rounding cannot reach 1/2; the asserted bound
# on the rounding error below catches what the headroom does not.
_CONVOLUTION_MAX_ENTRY = 2**40
_ROUNDING_TOL = 0.25
_BOOL, _FLOAT = np.dtype(bool), np.dtype(np.float64)  # the two kinds of weights


def count_friable_values(
    system: FormSystem,
    body: ConvexBody,
    N: int,
    u: Sequence[float] | None = None,
    *,
    ys: Sequence[int] | None = None,
) -> int:
    """#{n in K cap Z^d : P+(F_i(n)) <= y_i for every i}, exact.

    The thresholds are y_i = friable_bound(N, u_i), the largest integer y
    with y^(u_i) <= N, or, given in place of ``u``, the integers ``ys``.
    Form values equal to 0 or 1 count as friable (P+ convention).  The
    count is ``lattice_sum`` of the friable masks; the sieve and the sum
    both run in the calling thread, after every refusal: PreconditionError
    when some form leaves [0, N] on the body, ResourceError when a
    separable input is too large to convolve (``_separable_layout``).
    """
    if not check_pairwise_affine_independence(system):
        raise ArgumentError("two forms are affinely related")
    if (u is None) == (ys is None):
        raise ArgumentError("give exactly one of the exponents u and the thresholds ys")
    given = u if ys is None else ys
    if len(given) != system.count:
        raise ArgumentError(f"expected {system.count} exponents or thresholds, got {len(given)}")
    if any(g <= 0 for g in given):
        raise ArgumentError("friability exponents and thresholds must be positive")
    if not validate_domain(system, body, N):
        raise PreconditionError(f"some form leaves [0, {N}] on this body")
    _separable_layout(system, body)  # its ResourceError comes before sieving
    if ys is None:
        ys = [sieve.friable_bound(N, ui) for ui in u]
    masks = sieve.friable_masks(N, ys)
    return lattice_sum(system, body, [masks[y] for y in ys])


def lattice_sum(system: FormSystem, body: ConvexBody, weights: Sequence[np.ndarray]):
    """sum over the lattice points n of the body of prod_i weights[i][F_i(n)].

    ``weights[i]``, a 1-d array indexed by form i's values, must cover
    their integer range over the body (PreconditionError otherwise).  Bool
    weights give the exact ``int`` count, by one FFT convolution for a
    separable system (see ``_separable_layout``), else by the slab walker;
    float64 weights give a float, always by the walker.
    """
    if len(weights) != system.count or system.dimension != body.dimension:
        raise ArgumentError("give one weight array per form, and a body of the forms' dimension")
    if {(w.dtype, w.ndim) for w in weights} not in ({(_BOOL, 1)}, {(_FLOAT, 1)}):
        raise ArgumentError("weights must be 1-d arrays, all bool or all float64")
    exact = weights[0].dtype == _BOOL
    if body.is_empty():
        return 0 if exact else 0.0
    for f, w in zip(system.forms, weights):
        lo, hi = _functional_range(body, f.coeffs)
        if math.ceil(lo) + f.constant < 0 or math.floor(hi) + f.constant >= len(w):
            raise PreconditionError(f"form {f} has values beyond its {len(w)} weights")
    layout = _separable_layout(system, body) if exact else None
    if layout is None:
        return _walk(system, body, weights)
    return _count_by_convolution(system, layout, body, weights)


def _walk(system: FormSystem, body: ConvexBody, weights: Sequence[np.ndarray]):
    """The slab walker: ``lattice_sum`` one innermost-coordinate run at a time.

    Along the run x_d = lo..hi a form's values are base + a x, so its
    weights are the strided view ``w[base + a lo :: a][:hi - lo + 1]``
    (either sign of a; no gather), or the scalar ``w[base]`` when a = 0.
    Bool weights skip a run on a False scalar and count the AND of the
    views.  Float weights multiply in form order (a run of scalars is
    broadcast by ``np.full``) and add each run's ``np.sum`` in turn.
    """
    exact = weights[0].dtype == _BOOL
    terms = [(f.constant, f.coeffs[:-1], f.coeffs[-1], w) for f, w in zip(system.forms, weights)]
    total = 0 if exact else 0.0
    for prefix, lo, hi in _iter_slabs(body):
        n = hi - lo + 1
        acc = None
        for constant, head, a, w in terms:
            base = constant + sum(map(operator.mul, head, prefix))
            value = w[base + a * lo :: a][:n] if a else w[base]
            if not exact:
                acc = value if acc is None else acc * value
            elif a:
                acc = value if acc is None else acc & value
            elif not value:
                break
        else:
            if exact:
                total += n if acc is None else int(np.count_nonzero(acc))
            else:
                total += float(np.sum(acc if np.ndim(acc) else np.full(n, acc)))
    return total


class _Layout(NamedTuple):
    coordinate_forms: tuple[int, ...]      # index of the form x_j, for each j
    other: int | None                      # index of the form L = a.x + c, if any
    ranges: tuple[tuple[int, int], ...]    # integer range [l_j, h_j] of each x_j


def _separable_layout(system: FormSystem, body: ConvexBody) -> _Layout | None:
    """The layout of a separable system and body, or None.

    Separable: every coordinate x_j is one of the forms (coefficient 1,
    constant 0); at most one other form L = a.x + c, with every a_j >= 1;
    and the body is nonempty, each of its rows bounding one coordinate or a
    nonzero multiple of a.  Such a body is its coordinate box cut by the
    range of a.x, so the count is a convolution of the coordinate masks
    read against L's mask.  Raises ResourceError when an entry of that
    convolution could reach 2^40 or the number of points 2^63.
    """
    d = system.dimension
    unit = {tuple(int(i == j) for i in range(d)): j for j in range(d)}
    coordinate: dict[int, int] = {}
    others = []
    for i, f in enumerate(system.forms):
        if f.constant == 0 and f.coeffs in unit:
            coordinate[unit[f.coeffs]] = i
        else:
            others.append(i)
    if len(coordinate) != d or len(others) > 1:
        return None
    other = others[0] if others else None
    a = system.forms[other].coeffs if other is not None else None
    if a is not None and min(a) < 1:
        return None
    for coeffs, _ in body.rows:
        if sum(c != 0 for c in coeffs) == 1:
            continue
        if a is None or coeffs[0] == 0:
            return None
        if any(c * a[0] != coeffs[0] * aj for c, aj in zip(coeffs, a)):  # not parallel to a
            return None
    if body.is_empty():
        return None
    ranges = tuple((math.ceil(lo), math.floor(hi)) for lo, hi in body.coordinate_bounds())
    lengths = [max(hi - lo + 1, 0) for lo, hi in ranges]
    points = math.prod(lengths)
    if other is not None and points and (
        points // max(lengths) >= _CONVOLUTION_MAX_ENTRY or points > _INT64_MAX
    ):
        raise ResourceError(
            f"a coordinate box of {points} lattice points is too large to count: a "
            "convolution entry could reach 2^40 or the count 2^63"
        )
    return _Layout(tuple(coordinate[j] for j in range(d)), other, ranges)


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Linear convolution of float64 arrays by one real FFT.  An array
    passed more than once (the same object) is transformed once and its
    spectrum raised to that power."""
    size = sum(len(x) for x in arrays) - len(arrays) + 1
    n = _fft_length(size)
    spectrum = None
    for i, x in enumerate(arrays):
        if any(x is y for y in arrays[:i]):
            continue
        fx = np.fft.rfft(x, n)
        power = sum(x is y for y in arrays)
        factor = fx.copy() if power > 2 else fx  # at power 2, fx squares in place
        for _ in range(power - 1):
            factor *= fx
        if spectrum is None:
            spectrum = factor
        else:
            spectrum *= factor
    return np.fft.irfft(spectrum, n)[:size]


def _count_by_convolution(
    system: FormSystem, layout: _Layout, body: ConvexBody, form_masks: Sequence[np.ndarray]
) -> int:
    """Count a separable input as sum_n 1_L(n + c) * (conv of spread masks)(n).

    Mask j is cut to x_j's integer range [l_j, h_j] and spread onto the
    multiples of a_j, so the convolution at k counts the friable points
    with a.x = k + sum a_j l_j.  Raises NumericError when the FFT result is
    not the exact integer convolution.
    """
    ranges = layout.ranges
    if any(lo > hi for lo, hi in ranges):
        return 0
    cut = [form_masks[i][lo : hi + 1] for i, (lo, hi) in zip(layout.coordinate_forms, ranges)]
    popcounts = [int(np.count_nonzero(m)) for m in cut]
    if layout.other is None:
        return math.prod(popcounts)

    form = system.forms[layout.other]
    spread: dict[tuple[int, int, int, int], np.ndarray] = {}
    arrays = []
    for i, m, aj, (lo, _) in zip(layout.coordinate_forms, cut, form.coeffs, ranges):
        key = (id(form_masks[i]), lo, len(m), aj)  # equal keys spread equal masks
        if key not in spread:
            spread[key] = x = np.zeros(aj * (len(m) - 1) + 1)
            x[::aj] = m
        arrays.append(spread[key])
    conv = _convolve(arrays)
    exact = np.rint(conv)
    error = float(np.max(np.abs(conv - exact)))
    if error >= _ROUNDING_TOL:
        raise NumericError(f"FFT convolution is off an integer by {error:.3g}")
    exact = exact.astype(np.int64)
    if int(exact.sum()) != math.prod(popcounts):
        raise NumericError("FFT convolution does not sum to the product of the masks")

    base = sum(aj * lo for aj, (lo, _) in zip(form.coeffs, ranges))
    lo, hi = _functional_range(body, form.coeffs)
    k0 = max(math.ceil(lo) - base, 0)
    k1 = min(math.floor(hi) - base, len(exact) - 1)
    if k0 > k1:
        return 0
    shift = base + form.constant
    values_ok = form_masks[layout.other][k0 + shift : k1 + shift + 1]
    return int(exact[k0 : k1 + 1][values_ok].sum())


def main_term(vol: Fraction, u: Sequence[float]) -> float:
    """Vol(K) * prod_i rho(u_i), given the exact volume ``volume(K)``."""
    prod = 1.0
    for ui in u:
        prod *= float(dickman.rho(ui))
    return float(vol) * prod
