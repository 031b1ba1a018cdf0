import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from friable import criteria, forms, sieve
from friable.errors import ArgumentError, NumericError, PreconditionError, ResourceError

HARPER = forms.parse_form_system("x1; x2; x1+x2")


# ---------------------------------------------------------------------------
# forms and parsing
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    f = forms.AffineForm((2, 3), 1)
    assert oracles.evaluate(f, (1, 1)) == 6
    assert oracles.evaluate(forms.AffineForm((1, 1)), (3, 4)) == 7
    g = forms.AffineForm((5, -2), 17)
    assert oracles.evaluate(g, (0, 0)) == 17


def test_evaluate_overflow_and_dimension():
    f = forms.AffineForm((2**62,), 0)
    with pytest.raises(OverflowError):
        oracles.evaluate(f, (4,))
    with pytest.raises(ArgumentError):
        oracles.evaluate(f, (1, 2))


def test_form_needs_nonzero_coefficients():
    with pytest.raises(ArgumentError):
        forms.AffineForm((0, 0), 5)


def test_parse_forms():
    f = forms.parse_form("2x1+3x2-1")
    assert f.coeffs == (2, 3) and f.constant == -1
    assert forms.parse_form("x1 - x2 + 7").coeffs == (1, -1)
    system = forms.parse_form_system("x1; x2; x1+x2")
    assert system.count == 3 and system.dimension == 2
    with pytest.raises(ArgumentError):
        forms.parse_form("3y+1")
    with pytest.raises(ArgumentError):
        forms.parse_form_system(";;")


def test_affine_independence_examples():
    dep = forms.FormSystem((forms.AffineForm((1,)), forms.AffineForm((2,), 1)))
    assert not forms.check_pairwise_affine_independence(dep)
    assert forms.check_pairwise_affine_independence(HARPER)
    par = forms.FormSystem((forms.AffineForm((1, 1)), forms.AffineForm((2, 2), 5)))
    assert not forms.check_pairwise_affine_independence(par)


# ---------------------------------------------------------------------------
# convex bodies
# ---------------------------------------------------------------------------


def test_validate_domain_examples():
    N = 50
    sys2 = forms.parse_form_system("x1; x2")
    assert forms.validate_domain(sys2, forms.ConvexBody.box([(0, N), (0, N)]), N)
    shifted = forms.FormSystem((forms.AffineForm((1,), -N - 1),))
    assert not forms.validate_domain(shifted, forms.ConvexBody.box([(0, N)]), N)
    assert forms.validate_domain(HARPER, forms.ConvexBody.simplex(2, 1, N), N)


def test_validate_domain_precondition_and_unbounded():
    sys1 = forms.parse_form_system("x1")
    with pytest.raises(PreconditionError):
        forms.validate_domain(sys1, forms.ConvexBody.box([(0, 100)]), 10)
    half = forms.ConvexBody.halfspaces([[-1, 0], [0, -1], [0, 1]], [0, 0, 5])
    with pytest.raises(ArgumentError):
        forms.validate_domain(forms.parse_form_system("x1; x2"), half, 10)


@pytest.mark.parametrize(
    "text, body, ranges",
    [
        ("x1; x2; x1+x2", forms.ConvexBody.simplex(2, 1, 2000), 3),  # separable: x1, x2, x1 + x2
        ("x1; x2; x3; x1+x2+x3", forms.ConvexBody.simplex(3, 1, 60), 4),
        ("x1; x2; x1+2x2", forms.ConvexBody.halfspaces([[-1, 0], [0, -1], [1, 2]], [-1, -1, 900]), 3),
        ("x1; x1+x2; x1+2x2", forms.ConvexBody.halfspaces([[-1, 0], [0, -1], [1, 2]], [-1, -1, 900]), 4),
    ],
)
def test_count_eliminates_each_range_once(monkeypatch, text, body, ranges):
    # one elimination for the slab rows, then one per distinct range: the
    # coordinates' and each form's that is not a coordinate
    calls = []
    eliminate = forms._eliminate
    monkeypatch.setattr(forms, "_eliminate", lambda *a: calls.append(1) or eliminate(*a))
    system = forms.parse_form_system(text)
    N = body.rows[-1][1]
    forms.count_friable_values(system, body, N, (2.0,) * system.count)
    assert len(calls) == 1 + ranges


def test_volume_box_and_simplex():
    box = forms.volume(forms.ConvexBody.box([(0, 7), (0, 9)]))
    assert isinstance(box, Fraction) and box == 63
    assert forms.volume(forms.ConvexBody.simplex(2, 0, 10)) == 50
    assert forms.volume(forms.ConvexBody.simplex(2, 1, 10)) == 32
    assert forms.volume(forms.ConvexBody.simplex(3, 0, 6)) == 36
    assert forms.volume(forms.ConvexBody.simplex(3, Fraction(1, 2), 5)) == Fraction(343, 48)


def test_volume_closed_forms():
    # the cut triangle x1, x2 >= 1, x1 + x2 <= N, x1 - x2 <= 6666 at N = 2*10^4,
    # and the cube [1, 200]^3 cut by x1 + x2 + x3 <= 300
    cut = forms.ConvexBody.halfspaces([[-1, 0], [0, -1], [1, 1], [1, -1]], [-1, -1, 20000, 6666])
    assert forms.volume(cut) == 155524446
    A = [[s * int(i == j) for i in range(3)] for j in range(3) for s in (-1, 1)]
    cube = forms.ConvexBody.halfspaces(A + [[1, 1, 1]], [-1, 200] * 3 + [300])
    assert forms.volume(cube) == Fraction(7791499, 2)


def test_volume_meets_each_face_once(monkeypatch):
    # a face is reached once per order of its facets; remembering each
    # subproblem keeps a 7-simplex within 2^8 calls instead of 8! leaves
    calls = []
    inner = forms._lasserre
    monkeypatch.setattr(forms, "_lasserre", lambda rows, seen: calls.append(1) or inner(rows, seen))
    assert forms.volume(forms.ConvexBody.simplex(7, 1, 100)) == Fraction(93**7, math.factorial(7))
    assert len(calls) <= 2**8


def test_volume_exact_against_monte_carlo():
    body = forms.ConvexBody.halfspaces(
        [(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -2)], [2, 2, 3, 3, 3]
    )
    assert forms.volume(body) == Fraction(55, 4)
    mc, se = oracles.mc_volume(body, 10**6, seed=123)
    assert abs(mc - 55 / 4) <= 4 * se


@st.composite
def _bodies(draw):
    """2-4-D bodies: a simplex -x_j <= r_j, sum x_j <= s (bounded, possibly
    empty) cut by up to 8 random rows with rational right-hand sides, then
    maybe a positive multiple of one row (a duplicate facet) and the
    negation of one row (a flat or empty body)."""
    d = draw(st.integers(2, 4))
    rhs = st.builds(Fraction, st.integers(-6, 20), st.integers(1, 3))
    rows = [([-int(i == j) for i in range(d)], draw(st.integers(0, 6))) for j in range(d)]
    rows.append(([1] * d, draw(st.integers(-2, 15))))
    cut = st.tuples(st.lists(st.integers(-3, 3), min_size=d, max_size=d), rhs)
    rows += draw(st.lists(cut, max_size=11 - d))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows))
        k = draw(st.integers(1, 3))
        rows.append(([k * x for x in a], k * b))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows))
        rows.append(([-x for x in a], -b))
    rows = draw(st.permutations(rows))
    return forms.ConvexBody.halfspaces([a for a, _ in rows], [b for _, b in rows])


@settings(max_examples=120, deadline=None)
@given(_bodies())
def test_volume_matches_qhull(body):
    expected = oracles.qhull_volume(body)
    assume(expected is not None)  # too thin for qhull; flat bodies read 0
    assert forms.volume(body) == pytest.approx(expected, rel=1e-7, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(_bodies(), st.lists(st.integers(-9, 9), min_size=4, max_size=4), st.integers(2, 5))
def test_volume_under_translation_and_dilation(body, shift, t):
    vol = forms.volume(body)
    assert forms.volume(oracles.translate(body, shift[: body.dimension])) == vol
    dilated = forms.ConvexBody.halfspaces([a for a, _ in body.rows], [t * b for _, b in body.rows])
    assert forms.volume(dilated) == t**body.dimension * vol


def test_empty_and_degenerate_volume():
    empty = forms.ConvexBody.halfspaces([[1], [-1]], [-1, -1])
    assert forms.volume(empty) == 0
    flat = forms.ConvexBody.halfspaces([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1, 2, 0])
    assert forms.volume(flat) == 0
    # infeasible in x1 although x2 is free: empty, not unbounded
    assert forms.ConvexBody.halfspaces([[1, 0], [-1, 0]], [-1, -1]).is_empty()


def test_elimination_matches_linear_programming():
    # emptiness and the exact range of <c, x> from Fourier-Motzkin against
    # scipy's LP, up to 4-D with up to 14 rows, where Chernikov's rule drops rows
    rng = random.Random(5)
    nonempty = 0
    for _ in range(80):
        d = rng.randint(1, 4)
        A = [[s * int(i == j) for i in range(d)] for j in range(d) for s in (-1, 1)]
        b = [rng.randint(0, 9) for _ in A]
        for _ in range(rng.randint(0, 3 * d)):
            A.append([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)])
            b.append(Fraction(rng.randint(-12, 20), rng.randint(1, 3)))
        body = forms.ConvexBody.halfspaces(A, b)
        A_ub = [[float(x) for x in row] for row in A]
        b_ub = [float(x) for x in b]
        feasible = linprog([0] * d, A_ub=A_ub, b_ub=b_ub, bounds=(None, None))
        assert body.is_empty() == (feasible.status == 2)
        if body.is_empty():
            continue
        nonempty += 1
        c = [rng.randint(-3, 3) for _ in range(d)]
        lo, hi = forms._functional_range(body, c)
        low = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None))
        high = linprog([-x for x in c], A_ub=A_ub, b_ub=b_ub, bounds=(None, None))
        assert low.status == high.status == 0
        assert float(lo) == pytest.approx(low.fun, abs=1e-7)
        assert float(hi) == pytest.approx(-high.fun, abs=1e-7)
    assert 15 <= nonempty <= 65


@st.composite
def _range_queries(draw):
    """A body of ``_bodies``, maybe cut by one more row with rational
    coefficients, and a functional <c, x> with |c_j| <= 4 (zero included)."""
    body = draw(_bodies())
    d = body.dimension
    A, b = [a for a, _ in body.rows], [r for _, r in body.rows]
    if draw(st.booleans()):
        ratio = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
        A.append(draw(st.lists(ratio, min_size=d, max_size=d)))
        b.append(draw(st.builds(Fraction, st.integers(-6, 30), st.integers(1, 4))))
    c = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    return forms.ConvexBody.halfspaces(A, b), c


@settings(max_examples=150, deadline=None)
@given(_range_queries())
@example((forms.ConvexBody.box([(0, 7), (Fraction(1, 2), 9)]), [3, -2]))
@example((forms.ConvexBody.halfspaces([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1, 2, 0]), [0, 0]))
def test_functional_range_matches_pairing(case):
    # substituting x_0 = <c, x> out against entering it as a pair of rows
    body, c = case
    assume(not body.is_empty())
    assert forms._functional_range(body, c) == oracles.pairing_range(body, c)
    assert forms._functional_range(body, [0] * body.dimension) == (0, 0)


def _tangent_planes_64():
    """The 3-D body of 64 planes tangent to the sphere of radius 50 about
    (60, 60, 60): normals round(100 u_i) for the 64-point golden-angle
    sphere u_i, right-hand sides <n, (60, 60, 60)> + isqrt(2500 |n|^2) + 1."""
    golden = math.pi * (3 - math.sqrt(5))
    A, b = [], []
    for i in range(64):
        z = 1 - (2 * i + 1) / 64
        r = math.sqrt(1 - z * z)
        n = [round(100 * x) for x in (r * math.cos(golden * i), r * math.sin(golden * i), z)]
        A.append(n)
        b.append(60 * sum(n) + math.isqrt(2500 * sum(x * x for x in n)) + 1)
    return forms.ConvexBody.halfspaces(A, b)


def test_ranges_of_a_body_of_many_planes():
    body = _tangent_planes_64()
    assert body.coordinate_bounds()[0] == (Fraction(22274, 2785), Fraction(151707, 1363))
    assert forms.validate_domain(forms.parse_form_system("x1; x2; x3; x1+x2+x3"), body, 400)


def test_enumerate_examples():
    assert oracles.enumerate_lattice_points(forms.ConvexBody.box([(0, 2)]), 5) == [
        (0,),
        (1,),
        (2,),
    ]
    simplex = forms.ConvexBody.simplex(2, 1, 3)
    assert oracles.enumerate_lattice_points(simplex, 3) == [(1, 1), (1, 2), (2, 1)]
    empty = forms.ConvexBody.halfspaces([[1], [-1]], [-1, -1])
    assert oracles.enumerate_lattice_points(empty, 3) == []


def test_enumeration_matches_membership_filter():
    body = forms.ConvexBody.halfspaces(
        [(2, 1), (-1, 2), (-1, -1), (1, -3)], [25, 11, -3, 4]
    )
    walked = [prefix + (x,) for prefix, lo, hi in forms._iter_slabs(body) for x in range(lo, hi + 1)]
    brute = oracles.enumerate_lattice_points(body, 100)
    assert walked == brute
    assert forms.lattice_point_count(body) == len(brute)


def test_enumerate_bound_check():
    with pytest.raises(PreconditionError):
        oracles.enumerate_lattice_points(forms.ConvexBody.box([(0, 10)]), 5)


def test_body_membership_and_translate():
    simplex = forms.ConvexBody.simplex(2, 1, 10)
    assert oracles.contains(simplex, (1, 1)) and not oracles.contains(simplex, (9, 9))
    moved = oracles.translate(simplex, (3, -2))
    assert oracles.contains(moved, (4, -1)) and not oracles.contains(moved, (1, 1))
    box = oracles.translate(forms.ConvexBody.box([(0, 4)]), (5,))
    assert oracles.contains(box, (9,)) and not oracles.contains(box, (4,))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_count_reduces_to_psi():
    rng = random.Random(99)
    sys1 = forms.parse_form_system("x1")
    for _ in range(20):
        N = rng.randint(50, 10**5)
        u = rng.uniform(1.0, 4.0)
        body = forms.ConvexBody.box([(1, N)])
        assert forms.count_friable_values(sys1, body, N, (u,)) == sieve.psi_count(
            N, float(N) ** (1.0 / u)
        )


def test_count_at_prime_power_threshold():
    # N = 97^3 at u = 3: the bound is exactly 97; float(N) ** (1/3) rounds below it
    N = 97**3
    body = forms.ConvexBody.box([(1, N)])
    count = forms.count_friable_values(forms.parse_form_system("x1"), body, N, (3.0,))
    assert count == sieve.psi_count(N, 97) == 68454


def test_count_product_structure():
    N = 1000
    sys2 = forms.parse_form_system("x1; x2")
    body = forms.ConvexBody.box([(1, N), (1, N)])
    for u in (2.0, 3.0):
        psi = sieve.psi_count(N, float(N) ** (1.0 / u))
        assert forms.count_friable_values(sys2, body, N, (u, u)) == psi * psi


def test_count_u_equal_one_counts_points():
    body = forms.ConvexBody.simplex(2, 1, 60)
    count = forms.count_friable_values(HARPER, body, 60, (1.0, 1.0, 1.0))
    assert count == forms.lattice_point_count(body)


def test_count_zero_form_value_is_friable():
    # x1 - 1 hits 0 at the left edge; the convention P+(0) = 0 makes it count
    system = forms.FormSystem((forms.AffineForm((1,), -1),))
    body = forms.ConvexBody.box([(1, 9)])
    count = forms.count_friable_values(system, body, 9, (4.0,))
    # values 0..8 with y = 9^(1/4) ~ 1.73: friable values are 0 and 1
    assert count == 2


def test_translation_covariance():
    N = 120
    body = forms.ConvexBody.simplex(2, 1, 60)
    base = forms.count_friable_values(HARPER, body, N, (2.0, 2.0, 2.0))
    v = (7, 11)
    moved = oracles.translate(body, v)
    shifted_forms = forms.FormSystem(
        tuple(
            forms.AffineForm(f.coeffs, f.constant - sum(c * s for c, s in zip(f.coeffs, v)))
            for f in HARPER.forms
        )
    )
    assert forms.count_friable_values(shifted_forms, moved, N, (2.0, 2.0, 2.0)) == base


def test_count_monotone_in_u():
    body = forms.ConvexBody.simplex(2, 1, 300)
    counts = [
        forms.count_friable_values(HARPER, body, 300, (u, u, u))
        for u in (3.0, 2.5, 2.0, 1.5, 1.0)
    ]
    assert counts == sorted(counts)


def test_three_dimensional_counts():
    N = 100
    sys3 = forms.parse_form_system("x1; x2; x3")
    box = forms.ConvexBody.box([(1, N)] * 3)
    psi = sieve.psi_count(N, float(N) ** 0.5)
    assert forms.count_friable_values(sys3, box, N, (2.0, 2.0, 2.0)) == psi**3

    mixed = forms.parse_form_system("x1+x2; x2+x3; x1+x3")
    simplex = forms.ConvexBody.simplex(3, 1, 30)
    count = forms.count_friable_values(mixed, simplex, 60, (2.0, 2.0, 2.0))
    y = 60.0**0.5
    brute = 0
    for a, b, c in oracles.enumerate_lattice_points(simplex, 60):
        if all(
            oracles.lpf(v) <= y for v in (a + b, b + c, a + c)
        ):
            brute += 1
    assert count == brute


def _walker_triangle(N):
    """The simplex {x1, x2 >= 1, x1 + x2 <= N} cut by x1 - x2 <= N // 3; the
    last row is not a multiple of (1, 1), so the slab walker counts it."""
    return forms.ConvexBody.halfspaces(
        [[-1, 0], [0, -1], [1, 1], [1, -1]], [-1, -1, N, N // 3]
    )


def test_count_threads_deterministic():
    # threads split the mask sieve's segments; both counts then run in one thread
    for body in (forms.ConvexBody.simplex(2, 1, 400), _walker_triangle(400)):
        vals = {
            forms.count_friable_values(HARPER, body, 400, (2.0, 2.0, 2.0), threads=t)
            for t in (1, 4, 8)
        }
        assert len(vals) == 1


# ---------------------------------------------------------------------------
# convolution dispatch against the slab walker
# ---------------------------------------------------------------------------

U_CHOICES = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)


def slab_count(system, body, N, u):
    """The slab walker on the thresholds count_friable_values uses."""
    ys = [sieve.friable_bound(N, ui) for ui in u]
    masks = sieve.friable_masks(N, ys)
    return forms._walk(system, body, [masks[y] for y in ys])


@st.composite
def separable_inputs(draw):
    """(system, body, N, u): coordinate forms, at most one L = a.x + c with
    a_j >= 1, on a box or on an H-polytope of coordinate rows and multiples
    of a; every form value lies in [0, N]."""
    d = draw(st.integers(1, 3))
    N = draw(st.integers(20, 300 if d < 3 else 60))  # a.x >= sum a_j l_j reaches 18
    lows = [draw(st.integers(0, 2)) for _ in range(d)]
    nudges = [Fraction(draw(st.integers(0, 2)), 3) for _ in range(d)]  # fractional lower ends
    fs = [forms.AffineForm(tuple(int(i == j) for i in range(d))) for j in range(d)]
    kind = draw(st.sampled_from(["box", "hpoly"]))
    if d > 1 and draw(st.booleans()):
        a = [draw(st.integers(1, 3)) for _ in range(d)]
        floor_value = sum(aj * lo for aj, lo in zip(a, lows))
        c = draw(st.integers(0, N - floor_value))
        fs.append(forms.AffineForm(tuple(a), c))
        room = N - c - floor_value  # a.x may grow this much above its floor
        if kind == "box":
            bounds = []
            for aj, lo, nudge in zip(a, lows, nudges):
                extra = Fraction(draw(st.integers(0, math.floor(3 * room / aj))), 3)
                room -= aj * extra
                bounds.append((lo + min(nudge, extra), lo + extra))
            body = forms.ConvexBody.box(bounds)
        else:
            top = floor_value + Fraction(draw(st.integers(0, 3 * room)), 3)
            scale = draw(st.integers(1, 2))
            A = [[-int(i == j) for i in range(d)] for j in range(d)]
            b = [-lo - nudge for lo, nudge in zip(lows, nudges)]
            A.append([scale * aj for aj in a])
            b.append(scale * top)
            if draw(st.booleans()):  # a lower bound on a.x
                A.append([-aj for aj in a])
                b.append(-floor_value - draw(st.integers(0, room)))
            for j in range(d):
                if draw(st.booleans()):  # an upper bound on x_j
                    A.append([int(i == j) for i in range(d)])
                    b.append(lows[j] + Fraction(draw(st.integers(0, 3 * (N - lows[j]))), 3))
            body = forms.ConvexBody.halfspaces(A, b)
    else:
        highs = [lo + draw(st.integers(0, N - lo)) for lo in lows]
        if kind == "box":
            body = forms.ConvexBody.box(
                [(lo + min(nudge, hi - lo), hi) for lo, hi, nudge in zip(lows, highs, nudges)]
            )
        else:
            A = [[s * int(i == j) for i in range(d)] for j in range(d) for s in (-1, 1)]
            b = [v for lo, hi, nudge in zip(lows, highs, nudges) for v in (-lo - nudge, hi)]
            body = forms.ConvexBody.halfspaces(A, b)
    order = draw(st.permutations(range(len(fs))))
    system = forms.FormSystem(tuple(fs[i] for i in order))
    u = tuple(draw(st.sampled_from(U_CHOICES)) for _ in fs)
    return system, body, N, u


@settings(max_examples=150, deadline=None)
@given(separable_inputs())
@example(  # N = 5^3: a float cube root of 125 falls just below 5
    (forms.FormSystem((forms.AffineForm((1,)),)), forms.ConvexBody.box([(1, 125)]), 125, (3.0,))
)
def test_convolution_matches_slab_walker(case):
    system, body, N, u = case
    assert forms._separable_layout(system, body) is not None or body.is_empty()
    assert forms.count_friable_values(system, body, N, u) == slab_count(system, body, N, u)


BENCHMARK_SHAPES = [  # the count shapes of the benchmark, at small N
    ("x1; x2; x1+x2", "simplex", 2000),
    ("x1; x2; x1+2x2", "hpoly_x1_2x2", 1000),
    ("x1; x2; x3; x1+x2+x3", "simplex", 60),
    ("x1; x2", "box", 1000),
]


def _shape_body(kind, d, N):
    if kind == "simplex":
        return forms.ConvexBody.simplex(d, 1, N)
    if kind == "box":
        return forms.ConvexBody.box([(1, N)] * d)
    return forms.ConvexBody.halfspaces([[-1, 0], [0, -1], [1, 2]], [-1, -1, N])


@pytest.mark.parametrize("spec, kind, N", BENCHMARK_SHAPES)
def test_benchmark_shapes_take_the_convolution(spec, kind, N):
    system = forms.parse_form_system(spec)
    body = _shape_body(kind, system.dimension, N)
    assert forms._separable_layout(system, body) is not None
    for u in [(2.0,) * system.count, (1.5, 2.5, 3.0, 2.0)[: system.count]]:
        assert forms.count_friable_values(system, body, N, u) == slab_count(system, body, N, u)
    if spec == "x1; x2; x1+x2":  # the count the FFT and the walker gave before the dispatch
        assert forms.count_friable_values(system, body, N, (2.0, 2.0, 2.0)) == 174658


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(20, 400),
    st.integers(1, 3),
    st.sampled_from(U_CHOICES),
    st.sampled_from(U_CHOICES),
    st.booleans(),
)
def test_equal_coordinate_masks_match_slab_walker(d, N, a, u, v, equal_last):
    # x_1..x_d and a (x_1 + ... + x_d) on the simplex: coordinates with one
    # u share a spread mask, and so one spectrum, in the convolution
    N = N if d == 2 else min(N, 80)
    system = forms.FormSystem(
        tuple(forms.AffineForm(tuple(int(i == j) for i in range(d))) for j in range(d))
        + (forms.AffineForm((a,) * d),)
    )
    body = forms.ConvexBody.simplex(d, 1, N // a)
    us = (u,) * (d - 1) + ((u if equal_last else v), v)
    assert forms._separable_layout(system, body) is not None
    assert forms.count_friable_values(system, body, N, us) == slab_count(system, body, N, us)


def test_equal_coordinate_masks_take_one_spectrum(monkeypatch):
    calls = []
    rfft = np.fft.rfft

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    system = forms.parse_form_system("x1; x2; x1+x2")
    body = forms.ConvexBody.simplex(2, 1, 2000)
    assert forms.count_friable_values(system, body, 2000, (2.0, 2.0, 2.0)) == 174658
    assert len(calls) == 1  # and one irfft: two FFTs where distinct masks take three
    assert forms.count_friable_values(system, body, 2000, (2.0, 2.5, 2.0)) == slab_count(
        system, body, 2000, (2.0, 2.5, 2.0)
    )
    assert len(calls) == 3


def test_non_separable_inputs_take_the_walker():
    # a row x1 - x2 <= b, and a form with a negative coefficient
    N = 90
    y = N**0.5
    cases = [
        (HARPER, _walker_triangle(N)),
        (forms.parse_form_system(f"x1; x2; x1-x2+{N // 2}"), forms.ConvexBody.box([(1, N // 2)] * 2)),
    ]
    for system, body in cases:
        assert forms._separable_layout(system, body) is None
        brute = sum(
            all(oracles.lpf(oracles.evaluate(f, p)) <= y for f in system.forms)
            for p in oracles.enumerate_lattice_points(body, N)
        )
        assert forms.count_friable_values(system, body, N, (2.0,) * system.count) == brute


@st.composite
def walker_inputs(draw):
    """(system, body, N, u) that only the slab walker counts: d <= 3, form
    coefficients in [-3, 3] (an innermost 0 and negative magnitudes above 1
    included), a box with rational ends or an H-polytope with rational rows,
    and constants that keep every form value in [0, N], N <= 300."""
    d = draw(st.integers(1, 3))
    half = (12, 12, 5)[d - 1]  # coordinates in [-half, half]
    bounds = [
        (Fraction(draw(st.integers(-3 * half, 0)), 3), Fraction(draw(st.integers(0, 3 * half)), 3))
        for _ in range(d)
    ]
    if draw(st.booleans()):
        body = forms.ConvexBody.box(bounds)
    else:
        A = [[s * int(i == j) for i in range(d)] for j in range(d) for s in (-1, 1)]
        b = [v for lo, hi in bounds for v in (-lo, hi)]
        rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        for _ in range(draw(st.integers(1, 2))):
            A.append(draw(st.lists(rational, min_size=d, max_size=d).filter(any)))
            b.append(Fraction(draw(st.integers(-half, 6 * half)), draw(st.integers(1, 3))))
        body = forms.ConvexBody.halfspaces(A, b)
    vector = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    t = draw(st.integers(1, 3))
    vectors = draw(st.lists(vector, min_size=t, max_size=t, unique_by=tuple))
    empty = body.is_empty()
    ranges = [(0, 0) if empty else forms._functional_range(body, v) for v in vectors]
    N = draw(st.integers(max(12, max(math.ceil(hi - lo) for lo, hi in ranges) + 1), 300))
    system = forms.FormSystem(tuple(
        forms.AffineForm(tuple(v), draw(st.integers(math.ceil(-lo), math.floor(N - hi))))
        for v, (lo, hi) in zip(vectors, ranges)
    ))
    assume(forms.check_pairwise_affine_independence(system))
    assume(forms._separable_layout(system, body) is None)
    u = tuple(draw(st.sampled_from(U_CHOICES)) for _ in vectors)
    return system, body, N, u


@settings(max_examples=100, deadline=None)
@given(walker_inputs())
@example(  # x1 - 3x2 + 40 runs downwards along x2; 2x1 + 5 is constant on each run
    (forms.parse_form_system("x1-3x2+40; 2x1+5"), forms.ConvexBody.box([(0, 10), (1, 10)]), 80,
     (2.0, 1.5))
)
@example(  # 3-D, a rational row, and x1 + x2 constant on each run of x3
    (
        forms.parse_form_system("x1+x2; 3x2-x3+4; -2x1+x3+11"),
        forms.ConvexBody.halfspaces(
            [[-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, -1], [0, 0, 1],
             [Fraction(1, 2), 1, Fraction(-2, 3)]],
            [0, 5, 0, Fraction(9, 2), Fraction(1, 3), 4, Fraction(7, 3)],
        ),
        40,
        (2.0, 1.5, 3.0),
    )
)
@example(  # negative rational right-hand sides; many slab ends land exactly on integers
    (
        forms.parse_form_system("-x1+x2; x1+3x2; -2x1-x2+1"),
        forms.ConvexBody.halfspaces(
            [[Fraction(2, 7), 0], [Fraction(-1, 2), 0], [Fraction(1, 2), 1],
             [Fraction(-1, 6), Fraction(-1, 2)]],
            [Fraction(-30, 7), 12, Fraction(-3, 2), Fraction(-1, 2)],
        ),
        60,
        (1.5, 1.0, 1.5),  # 5 of the 12 points
    )
)
def test_walker_matches_trial_division(case):
    system, body, N, u = case
    assert forms._separable_layout(system, body) is None
    largest = [oracles.lpf(n) for n in range(N + 1)]
    exponents = [Fraction(ui) for ui in u]
    brute = sum(
        all(largest[oracles.evaluate(f, p)] ** q.numerator <= N**q.denominator
            for f, q in zip(system.forms, exponents))
        for p in oracles.enumerate_lattice_points(body, N)
    )
    assert forms.count_friable_values(system, body, N, u) == brute


@settings(max_examples=100, deadline=None)
@given(walker_inputs(), st.integers(0, 2**32 - 1))
def test_float_walk_matches_a_pointwise_sum(case, seed):
    system, body, N, _ = case
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-1.0, 1.0, N + 1) for _ in system.forms]
    got = forms._walk(system, body, weights)
    size = oracles.lattice_sum(system, body, N, [np.abs(w) for w in weights])
    assert abs(got - oracles.lattice_sum(system, body, N, weights)) <= 1e-12 * size


def test_unimodular_pair_takes_both_routes():
    # (a, b) = (x1 - x2, x2) maps {x2 >= 1, x1 - x2 >= 1, x1 <= N} onto the
    # simplex and x1; x2; x1 - x2 onto the ternary's x1 + x2; x2; x1, so the
    # walker and the convolution must agree
    N = 2000
    skew = forms.parse_form_system("x1; x2; x1-x2")
    body = forms.ConvexBody.halfspaces([[0, -1], [-1, 1], [1, 0]], [-1, -1, N])
    simplex = forms.ConvexBody.simplex(2, 1, N)
    assert forms._separable_layout(skew, body) is None
    assert forms._separable_layout(HARPER, simplex) is not None
    for u, expected in (((2.0, 2.0, 2.0), 174658), ((1.5, 2.0, 2.5), 189188)):
        assert forms.count_friable_values(skew, body, N, u) == expected
        assert forms.count_friable_values(HARPER, simplex, N, u[::-1]) == expected
    deltas = criteria.local_densities(N, (1.5, 2.0, 2.5))
    walked = forms.lattice_sum(skew, body, deltas[::-1])
    assert walked == pytest.approx(forms.lattice_sum(HARPER, simplex, deltas), rel=1e-12)


def test_lattice_sum_refuses_weights_short_of_the_values():
    body = forms.ConvexBody.simplex(2, 1, 50)
    masks = [np.ones(51, dtype=bool)] * 3
    assert forms.lattice_sum(HARPER, body, masks) == forms.lattice_point_count(body)
    with pytest.raises(PreconditionError):  # x1 + x2 reaches 50
        forms.lattice_sum(HARPER, body, masks[:2] + [np.ones(50, dtype=bool)])
    shifted = forms.parse_form_system("x1; x2; x1+x2-3")  # x1 + x2 - 3 reaches -1
    with pytest.raises(PreconditionError):
        forms.lattice_sum(shifted, body, [np.ones(51)] * 3)
    for weights in (masks[:2], masks[:2] + [np.ones(51)], [np.ones((51, 1), dtype=bool)] * 3):
        with pytest.raises(ArgumentError):
            forms.lattice_sum(HARPER, body, weights)


def test_convolution_guard_refuses_before_sieving(monkeypatch):
    # a convolution too large for exact float64 entries is refused, not
    # handed to the walker, and refused before any friable mask is sieved
    def refuse(*args, **kwargs):
        raise AssertionError("the guard should refuse before sieving")

    monkeypatch.setattr(forms, "_CONVOLUTION_MAX_ENTRY", 299)  # x1 and x2 take 299 values each
    monkeypatch.setattr(sieve, "friable_masks", refuse)
    with pytest.raises(ResourceError):
        forms.count_friable_values(HARPER, forms.ConvexBody.simplex(2, 1, 300), 300, (2.0,) * 3)
    monkeypatch.setattr(forms, "_CONVOLUTION_MAX_ENTRY", 300)
    with pytest.raises(AssertionError, match="before sieving"):
        forms.count_friable_values(HARPER, forms.ConvexBody.simplex(2, 1, 300), 300, (2.0,) * 3)


@pytest.mark.parametrize("offset", [0.3, 1.0])
def test_convolution_rounding_is_checked(monkeypatch, offset):
    # 0.3 is off an integer; 1.0 rounds cleanly but breaks the total
    convolve = forms._convolve

    def perturbed(arrays):
        out = convolve(arrays)
        out[len(out) // 2] += offset
        return out

    monkeypatch.setattr(forms, "_convolve", perturbed)
    with pytest.raises(NumericError):
        forms.count_friable_values(HARPER, forms.ConvexBody.simplex(2, 1, 300), 300, (2.0,) * 3)


def test_count_argument_errors():
    body = forms.ConvexBody.simplex(2, 1, 50)
    with pytest.raises(ArgumentError):
        forms.count_friable_values(HARPER, body, 50, (2.0, 2.0))
    with pytest.raises(ArgumentError):
        forms.count_friable_values(HARPER, body, 50, (2.0, -1.0, 2.0))
    # integer thresholds in place of the exponents: friable_bound(50, 2) = 7
    by_u = forms.count_friable_values(HARPER, body, 50, (2.0, 2.0, 2.0))
    assert forms.count_friable_values(HARPER, body, 50, ys=(7, 7, 7)) == by_u
    for kwargs in ({"u": (2.0,) * 3, "ys": (7,) * 3}, {}, {"ys": (7, 7)}, {"ys": (7, 0, 7)}):
        with pytest.raises(ArgumentError):
            forms.count_friable_values(HARPER, body, 50, **kwargs)
    related = forms.parse_form_system("x1; 2x1+1")
    with pytest.raises(ArgumentError):
        forms.count_friable_values(related, forms.ConvexBody.box([(1, 50), (1, 50)]), 50, (2.0, 2.0))
    bad_range = forms.FormSystem((forms.AffineForm((1,), -60),))
    with pytest.raises(PreconditionError):
        forms.count_friable_values(bad_range, forms.ConvexBody.box([(1, 50)]), 50, (2.0,))


# ---------------------------------------------------------------------------
# main term and the independence prediction
# ---------------------------------------------------------------------------


def test_main_term(rho_table):
    body = forms.ConvexBody.box([(0, 20), (0, 20)])
    assert forms.main_term(forms.volume(body), (1.0, 1.0)) == pytest.approx(400.0, abs=1e-9)
    expected = 400.0 * (1.0 - math.log(2.0)) ** 2
    assert forms.main_term(forms.volume(body), (2.0, 2.0)) == pytest.approx(expected, rel=1e-10)
    simplex = forms.ConvexBody.simplex(2, 0, 30)
    got = forms.main_term(forms.volume(simplex), (2.0, 2.0, 2.0))
    assert got == pytest.approx(450.0 * (1.0 - math.log(2.0)) ** 3, rel=1e-10)


def test_local_density_sum_matches_double_loop():
    # the vectorised oracle behind criterion 2 against a per-point loop that
    # rescans each window with exact rational arithmetic
    N = 60

    def delta(m, u):
        q = Fraction(u)
        h = max(m // 8, 1)
        window = range(max(m - h, 1), m + h + 1)
        hits = sum(1 for n in window if oracles.lpf(n) ** q.numerator <= N**q.denominator)
        return Fraction(hits, len(window))

    for u in ((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (1.5, 2.0, 2.5), (3.0, 3.0, 3.0)):
        loop = sum(
            delta(x1, u[0]) * delta(x2, u[1]) * delta(x1 + x2, u[2])
            for x1 in range(1, N)
            for x2 in range(1, N - x1 + 1)
        )
        assert oracles.ternary_local_density_sum(N, u) == pytest.approx(
            float(loop), rel=1e-12
        ), u
