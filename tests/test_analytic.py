import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from friable import analytic, sieve
from friable.errors import ArgumentError, NumericError, ResourceError


# ---------------------------------------------------------------------------
# saddle point
# ---------------------------------------------------------------------------


def test_saddle_closed_form_root():
    # log 2 / (2^alpha - 1) = log 2 forces alpha = 1
    sp = analytic.solve_saddle_alpha(2, 2)
    assert sp.alpha == pytest.approx(1.0, abs=1e-11)
    assert sp.residual <= 1e-10 * math.log(2)


def test_saddle_definitional_residual():
    # whenever N = round(exp(LHS(1/2))), the root sits near 1/2 by construction
    # (LHS(1) gives N ~ 0.56 y, below the domain y <= N)
    primes = sieve.primes_up_to(50)
    lhs = analytic.saddle_lhs(0.5, primes)
    N = round(math.exp(lhs))
    sp = analytic.solve_saddle_alpha(N, 50)
    assert abs(analytic.saddle_lhs(sp.alpha, primes) - math.log(N)) <= 1e-10 * math.log(N)


def test_saddle_longdouble_oracle():
    for N, y in [(10**4, 100.0), (10**3, 30.0), (10**6, 500.0)]:
        sp = analytic.solve_saddle_alpha(N, y)
        assert abs(sp.alpha - oracles.saddle_longdouble(N, y)) <= 1e-9


def test_saddle_lhs_strictly_decreasing():
    primes = sieve.primes_up_to(100)
    grid = np.linspace(0.05, 8.0, 60)
    vals = [analytic.saddle_lhs(a, primes) for a in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_saddle_monotone_in_N_and_y():
    ns = [10**3, 10**4, 10**5, 10**6, 10**7]
    ys = [20.0, 50.0, 100.0, 300.0, 1000.0]
    alphas = {(n, y): analytic.solve_saddle_alpha(n, y).alpha for n in ns for y in ys}
    for y in ys:
        col = [alphas[(n, y)] for n in ns]
        assert all(a >= b for a, b in zip(col, col[1:]))  # nonincreasing in N
    for n in ns:
        row = [alphas[(n, y)] for y in ys]
        assert all(a <= b for a, b in zip(row, row[1:]))  # nondecreasing in y


def test_saddle_argument_errors():
    with pytest.raises(ArgumentError):
        analytic.solve_saddle_alpha(1, 10)
    with pytest.raises(ArgumentError):
        analytic.solve_saddle_alpha(10, 1.5)
    with pytest.raises(ArgumentError):
        analytic.solve_saddle_alpha(10, 11.0)  # y > N


# ---------------------------------------------------------------------------
# singular series S0
# ---------------------------------------------------------------------------


def test_s0_vanishing_at_alpha_one():
    # (p - p^alpha)^3 = 0 at alpha = 1: only the sifted product remains
    got = analytic.singular_series_s0(1.0, 100.0, 10**5)
    primes = sieve.primes_up_to(10**5)
    big = primes[primes > 100].astype(float)
    expected = float(np.prod(1.0 - 1.0 / (big - 1.0) ** 2))
    assert got.value == pytest.approx(expected, rel=1e-12)
    assert analytic.singular_series_s0(1.0, 7.0, 7).value == 1.0


def test_s0_direct_product_oracle():
    got = analytic.singular_series_s0(0.8, 100.0, 10**6)
    direct = oracles.s0_direct_product(0.8, 100.0, 10**6)
    assert got.value == pytest.approx(direct, rel=1e-12)


def test_s0_order_independence():
    value = analytic.singular_series_s0(0.9, 200.0, 10**5).value
    primes = sieve.primes_up_to(10**5).astype(float)[::-1]  # reversed order
    acc = 1.0
    for p in primes:
        if p <= 200.0:
            acc *= 1.0 + (p - p**0.9) ** 3 / (p * (p - 1) ** 2 * (p ** (3 * 0.9 - 1) - 1))
        else:
            acc *= 1.0 - 1.0 / (p - 1) ** 2
    assert value == pytest.approx(acc, rel=1e-12)


def test_s0_tail_bound_shrinks():
    t1 = analytic.singular_series_s0(0.9, 100.0, 10**4).tail_bound
    t2 = analytic.singular_series_s0(0.9, 100.0, 10**6).tail_bound
    assert t2 < t1
    assert t2 == pytest.approx(2.0 / 10**6)
    # the discarded factors really do live inside the bracket
    v1 = analytic.singular_series_s0(0.9, 100.0, 10**4).value
    v2 = analytic.singular_series_s0(0.9, 100.0, 10**6).value
    assert math.exp(-2 * t1) * v1 <= v2 <= v1


def test_s0_singularity_guard():
    with pytest.raises(NumericError):
        analytic.singular_series_s0(1.0 / 3.0, 10.0, 100)
    with pytest.raises(NumericError):
        analytic.singular_series_s0(1.0 / 3.0 + 5e-7, 10.0, 100)
    with pytest.raises(ArgumentError):
        analytic.singular_series_s0(0.5, 10.0, 5)


# ---------------------------------------------------------------------------
# singular series S1
# ---------------------------------------------------------------------------


def test_s1_exact_values():
    assert analytic.singular_series_s1(1.0) == pytest.approx(0.5, abs=1e-12)
    t1, t2 = sympy.symbols("t1 t2", positive=True)
    integrand = 8 * t1 * t2 * (t1 + t2)
    exact = sympy.integrate(sympy.integrate(integrand, (t2, 0, 1 - t1)), (t1, 0, 1))
    assert analytic.singular_series_s1(2.0) == pytest.approx(float(exact), abs=1e-12)


def test_s1_monte_carlo_oracle():
    est, se = oracles.mc_simplex_integral(0.9, 10**8, seed=42)
    got = analytic.singular_series_s1(0.9)
    assert abs(got - est) <= 3.0 * se


@pytest.mark.parametrize("alpha", [0.34, 0.3868, 0.40, 0.5, 0.9, 1.5, 2.0])
def test_s1_matches_quadrature_oracle(alpha):
    assert analytic.singular_series_s1(alpha) == pytest.approx(
        oracles.s1_quad(alpha), rel=1e-10
    )


def test_s1_continuity_in_alpha():
    # steep but continuous towards the alpha = 1/3 divergence
    grid = np.linspace(0.5, 2.0, 32)
    vals = [analytic.singular_series_s1(a) for a in grid]
    diffs = np.abs(np.diff(vals))
    assert float(np.max(diffs)) < 0.1


def test_s1_arguments():
    with pytest.raises(ArgumentError):
        analytic.singular_series_s1(2.5)
    with pytest.raises(NumericError):
        analytic.singular_series_s1(0.3)  # divergent region


# ---------------------------------------------------------------------------
# Harper prediction
# ---------------------------------------------------------------------------


def test_harper_prediction_positive():
    p = analytic.harper_prediction(10**3, 50.0).prediction
    assert p > 0.0 and math.isfinite(p)


def test_harper_prediction_near_the_s1_divergence():
    # alpha(10^6, 20) = 0.3868..., near the alpha = 1/3 divergence of S1
    terms = analytic.harper_prediction(10**6, 20.0)
    assert 1.0 / 3.0 < terms.alpha < 0.4
    assert terms.s1 == pytest.approx(oracles.s1_quad(terms.alpha), rel=1e-10)


def test_harper_prediction_is_flagged_above_the_trivial_bound():
    # the ternary count is at most Psi^2; near alpha = 1/3 the prediction is not
    near = analytic.harper_prediction(10**6, 20.0)
    assert near.psi_squared == near.psi**2 == 8751**2
    assert near.prediction > near.psi_squared and near.within_trivial_bound is False
    # criterion 8's point
    ok = analytic.harper_prediction(10**4, 100.0)
    assert ok.psi_squared == ok.psi**2 == 3716**2
    assert ok.prediction <= ok.psi_squared and ok.within_trivial_bound is True


def test_harper_prediction_y_equals_N():
    N = 200
    sp = analytic.solve_saddle_alpha(N, float(N))
    s0 = analytic.singular_series_s0(sp.alpha, float(N), 10**6)
    s1 = analytic.singular_series_s1(sp.alpha)
    expected = s0.value * s1 * N**2  # Psi(N, N) = N
    terms = analytic.harper_prediction(N, float(N))
    assert terms.psi == N and terms.alpha == sp.alpha
    assert terms.prediction == pytest.approx(expected, rel=1e-12)


def test_harper_argument_errors():
    with pytest.raises(ArgumentError):
        analytic.harper_prediction(10, 11.0)
    with pytest.raises(ArgumentError):
        analytic.harper_prediction(1, 2.0)


# ---------------------------------------------------------------------------
# exact sums
# ---------------------------------------------------------------------------


def _sum_outcome(fn, x):
    """The bits of fn(x) (sign of zero and nan included), or the error it raises."""
    try:
        return float.hex(fn(x))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


@st.composite
def _sum_inputs(draw):
    # lengths on both sides of the fsum crossover; the terms come from a
    # seeded generator, as a drawn list of 3000 floats shrinks no better
    n = draw(st.one_of(st.integers(0, 3000), st.sampled_from([1023, 1024, 1025])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo, 300))
    x = rng.standard_normal(n) * np.exp2(rng.integers(lo, hi + 1, n))
    scale = draw(st.sampled_from(["plain", "some_tiny", "all_tiny", "huge", "zeros"]))
    if scale == "some_tiny":  # a few subnormal or barely normal terms beside the rest
        some = rng.random(n) < 0.05
        x[some] = np.ldexp(rng.standard_normal(n), rng.integers(-1074, -960, n))[some]
    elif scale == "all_tiny":  # every term below 2^-1000
        x = np.ldexp(rng.standard_normal(n), rng.integers(-1074, -1000, n))
    elif scale == "huge":  # b before -b near the overflow threshold: fsum raises
        half = np.ldexp(np.abs(rng.standard_normal(n // 2)), rng.integers(1010, 1021, n // 2))
        x = np.concatenate([half, -half, np.ones(n % 2)])
    elif scale == "zeros":
        x = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    if draw(st.booleans()):
        # exact cancellation: the k smallest terms stay, each of the rest
        # beside its negative, so the sum is that of the smallest terms
        x = x[np.argsort(np.abs(x))]
        k = draw(st.integers(0, 3))
        rest = x[k:k + (n - k) // 2]
        x = np.concatenate([x[:k], rest, -rest, np.zeros((n - k) % 2)])
        rng.shuffle(x)
    if draw(st.booleans()) and n:
        specials = np.array([math.inf, -math.inf, math.nan, 5e-324, -(2.0**-1050)])
        x[rng.integers(0, n, 2)] = rng.choice(specials, 2)
    return x


@settings(max_examples=400, deadline=None)
@given(x=_sum_inputs())
# 2^20 terms just under 2^B = 2^42, the top limb full in every term: the
# int64 limb sum, 2^20 (2^42 - 1) < 2^62, overflows if a limb takes 2 bits more
@example(x=np.full(1 << 20, 2.0**42 - 1.0))
def test_exact_sum_equals_fsum(x):
    assert _sum_outcome(analytic.exact_sum, x) == _sum_outcome(lambda a: math.fsum(a.tolist()), x)


def test_exact_sum_keeps_the_last_bit_at_every_span():
    # one term with its last bit set, whose sum it is, beside pairs b, -b
    # whose top bit lies d bits above that last bit, for d over more than two
    # limb widths (B = 51 at 1025 terms): no width leaves the last limb short
    for d in range(53, 53 + 2 * 51 + 3):
        last = (1.0 + 2.0**-52) * (-1) ** d
        big = np.full(512, 2.0 ** (d - 53))
        x = np.concatenate([[last], big, -big])
        assert analytic.exact_sum(x) == math.fsum(x.tolist()) == last, d


# ---------------------------------------------------------------------------
# sifted Mobius sums
# ---------------------------------------------------------------------------


def test_mobius_sum_u_one():
    assert analytic.sifted_sums(100, 1.0)[0] == 1.0
    assert analytic.sifted_sums(10**4, 1.0)[0] == 1.0


def test_mobius_sum_hand_enumeration():
    got = analytic.sifted_sums(100, 2.0)[0]
    expected = math.fsum(
        m / k for k, m in oracles.sifted_squarefree(100, 10.0)
    )
    assert got == pytest.approx(expected, abs=1e-15)


def test_mobius_sum_at_prime_power_threshold():
    # N = 5^3: the sifting bound N^(1/3) is exactly 5, so k = 5 is not sifted
    got = analytic.sifted_sums(125, 3.0)[0]
    expected = math.fsum(m / k for k, m in oracles.sifted_squarefree(125, 5.0))
    assert got == pytest.approx(expected, abs=1e-15)
    assert got != pytest.approx(expected - 1.0 / 5.0, abs=1e-3)


def test_mobius_sum_near_rho(rho_table):
    rho2 = rho_table.eval(2.0)
    got = analytic.sifted_sums(10**6, 2.0)[0]
    assert abs(got - rho2) <= 0.5 * rho2


def test_mu2_tail_examples():
    assert analytic.sifted_sums(10**4, 1.0, 0.2)[1] == 0.0
    got = analytic.sifted_sums(10**4, 2.0, 0.2)[1]
    assert got == pytest.approx(oracles.sifted_mu2_tail(10**4, 2.0, 0.2), abs=1e-15)


def test_cutoff_is_an_integer_root():
    assert analytic._cutoff(32, 0.4) == 8  # float(32) ** 0.6 is just below 8
    assert analytic._cutoff(3**5, 0.4) == 27
    assert analytic._cutoff(10**5, 0.2) == 10000
    assert analytic._cutoff(10**6, 0.2) == 63095
    with pytest.raises(ArgumentError):
        analytic._cutoff(100, 1.0)
    with pytest.raises(ArgumentError):
        analytic.sifted_sums(1, 2.0, 0.5)  # log N = 0: no tau is admissible


def test_mu2_tail_growth_constant():
    # value <= C * tau * u^2 with a uniformly bounded C across the grid
    u, tau = 2.0, 0.2
    for N in (10**4, 10**5, 10**6):
        val = analytic.sifted_sums(N, u, tau)[1]
        assert val <= 20.0 * tau * u * u


def test_mertens_argument_and_resource_errors():
    with pytest.raises(ArgumentError):
        analytic.sifted_sums(1, 2.0)
    with pytest.raises(ArgumentError):
        analytic.sifted_sums(100, 0.5)
    with pytest.raises(ResourceError):
        analytic.sifted_sums(2 * 10**8, 2.0)
    with pytest.raises(ArgumentError):
        analytic.sifted_sums(100, 2.0, 0.9)  # tau * u >= 1
    with pytest.raises(ArgumentError):
        analytic.sifted_sums(100, 2.0, 0.1)  # below 1/log N
