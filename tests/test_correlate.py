import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from friable import config, correlate, dickman, forms, sieve
from friable.errors import ArgumentError, PreconditionError, ResourceError

HARPER = forms.parse_form_system("x1; x2; x1+x2")


# ---------------------------------------------------------------------------
# balanced friable function
# ---------------------------------------------------------------------------


def test_balanced_u_one_vanishes():
    h = correlate.balanced_friable(500, 1.0)
    assert np.all(h.values == 0.0)


def test_balanced_indicator_structure():
    # u chosen so the friability bound lands just above 2
    u = 3.32
    h = correlate.balanced_friable(10, u)
    y = 10.0 ** (1.0 / u)
    assert 2.0 < y < 3.0
    assert h.values[8] == 1.0 - h.rho_u  # 8 = 2^3 is 2-friable
    assert h.values[7] == -h.rho_u
    assert h.values[0] == 1.0 - h.rho_u  # P+(0) = 0: 0 is friable
    assert np.all(np.abs(h.values) <= 1.0)
    shifted = h.values + h.rho_u
    assert set(np.round(shifted, 12).tolist()) <= {0.0, 1.0}


def test_balanced_at_prime_power_threshold():
    # N = 7^3 at u = 3: the bound is exactly 7, where float(N) ** (1/3) < 7
    h = correlate.balanced_friable(7**3, 3.0)
    assert h.values[7] == h.values[49] == 1.0 - h.rho_u
    assert h.values[11] == -h.rho_u


def test_balanced_sum_identity():
    for N, u in [(100, 2.0), (1000, 2.0), (1000, 3.0)]:
        h = correlate.balanced_friable(N, u)
        total = math.fsum(h.values[1:].tolist())
        psi = sieve.psi_count(N, float(N) ** (1.0 / u))
        assert total == pytest.approx(psi - N * h.rho_u, abs=1e-9)


def test_balanced_arguments():
    with pytest.raises(ArgumentError):
        correlate.balanced_friable(1, 2.0)
    with pytest.raises(ArgumentError):
        correlate.balanced_friable(100, 0.5)
    with pytest.raises(ArgumentError):
        correlate.balanced_friable(100, 25.0)


# ---------------------------------------------------------------------------
# truncated Mobius approximant
# ---------------------------------------------------------------------------


def test_h_tau_trivial_when_truncation_below_sifting():
    # N^(1/u) >= N^(1-tau): only k = 1 contributes, with a zero term
    ht = correlate.h_tau(100, 1.0, 0.4)
    assert np.all(ht == 0.0)


def test_h_tau_admissible_set_and_per_n_oracle():
    ks, _ = correlate._admissible_k(100, 2.0, 0.3)
    assert ks.tolist() == [1, 11, 13, 17, 19, 23]
    ht = correlate.h_tau(100, 2.0, 0.3)
    expected = oracles.h_tau_per_n(100, 2.0, 0.3)
    assert np.max(np.abs(ht - expected)) <= 1e-12


def test_h_tau_matches_oracle_on_grid():
    for N, u, tau in [(1000, 2.0, 0.25), (10000, 2.0, 0.2), (1000, 3.0, 0.3)]:
        ht = correlate.h_tau(N, u, tau)
        expected = oracles.h_tau_per_n(N, u, tau)
        assert np.max(np.abs(ht - expected)) <= 1e-10


def test_h_tau_sup_bound():
    N, u, tau = 10**4, 2.0, 0.2
    ht = correlate.h_tau(N, u, tau)
    ks, _ = correlate._admissible_k(N, u, tau)
    bound = 2.0 ** math.ceil(u) + math.fsum(1.0 / k for k in ks.tolist())
    assert float(np.max(np.abs(ht[1:]))) <= bound


def test_h_tau_divisor_count_bound():
    N, u, tau = 10**4, 2.0, 0.2
    ks, _ = correlate._admissible_k(N, u, tau)
    kl = ks.tolist()
    worst = 0
    for n in range(1, N + 1, 37):
        worst = max(worst, sum(1 for k in kl if n % k == 0))
    assert worst <= 2 ** math.ceil(u)


def test_h_tau_budget_bounds_the_head(monkeypatch):
    N, u, tau = 1000, 2.0, 0.3
    ks, _ = correlate._admissible_k(N, u, tau)
    monkeypatch.setattr(correlate, "_HTAU_TERM_BUDGET", int(np.sum(N // ks)) - 1)
    with pytest.raises(ResourceError):
        correlate.h_tau(N, u, tau)
    with pytest.raises(ResourceError):
        correlate.sigma_split(N, u, tau, [correlate.PhaseSequence.constant().values(N)])


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(1, 3000),
    data=st.data(),
    start=st.floats(-4.0, 4.0),
    block=st.one_of(st.none(), st.integers(1, 64)),
    dense=st.one_of(st.none(), st.integers(1, 64)),
)
def test_divisor_pass_equals_the_strided_loop_bit_for_bit(N, data, start, block, dense):
    # admissible (k, mu(k)): sifted squarefree k up to a random limit <= N;
    # a small block forces the scatter through several np.add.at calls, and
    # a small dense threshold moves the split between strided slices and
    # the scatter up through the k
    limit = data.draw(st.integers(1, N))
    y = data.draw(st.integers(1, N))
    ks, mus = sieve.sifted_squarefree_arrays(limit, y)
    expected = oracles.divisor_pass_strided(N, ks, mus, start)
    with mock.patch.object(correlate, "_SCATTER_BLOCK", block or correlate._SCATTER_BLOCK), \
            mock.patch.object(correlate, "_DENSE_MULTIPLES", dense or correlate._DENSE_MULTIPLES):
        assert _same_bits(correlate._divisor_pass(N, ks, mus, start), expected)


def test_divisor_pass_in_many_blocks(monkeypatch):
    N, u = 10**4, 2.0
    ks, mus = sieve.sifted_squarefree_arrays(N, sieve.friable_bound(N, u))
    expected = oracles.divisor_pass_strided(N, ks, mus, -0.3)
    # 16284 pairs: k = 1 takes a strided slice, the other 6284 go in 7 blocks
    monkeypatch.setattr(correlate, "_SCATTER_BLOCK", 1000)
    assert _same_bits(correlate._divisor_pass(N, ks, mus, -0.3), expected)


def test_h_tau_tau_validation():
    with pytest.raises(ArgumentError):
        correlate.h_tau(100, 2.0, 1.5)
    with pytest.raises(ArgumentError):
        correlate.h_tau(100, 2.0, 0.1)  # below 1/log N


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------


def test_correlation_of_zero_function():
    h = correlate.balanced_friable(200, 1.0)
    for name in correlate.PHASE_PRESETS:
        assert correlate.correlation(h.values, correlate.phase_preset(name).values(200)) == 0j


def test_correlation_with_constant_phase():
    N, u = 500, 2.0
    h = correlate.balanced_friable(N, u)
    c = correlate.correlation(h.values, correlate.PhaseSequence.constant().values(N))
    psi = sieve.psi_count(N, float(N) ** (1.0 / u))
    assert c.real == pytest.approx((psi - N * h.rho_u) / N, abs=1e-12)
    assert c.imag == pytest.approx(0.0, abs=1e-15)


def test_correlation_decay_trend():
    vals = {}
    for N in (10**3, 10**4, 10**5):
        h = correlate.balanced_friable(N, 2.0).values
        vals[N] = abs(correlate.correlation(h, correlate.phase_preset("linear_golden").values(N)))
    assert vals[10**5] < vals[10**4] < vals[10**3]
    for name in ("linear_sqrt2", "quadratic_sqrt2", "bracket_golden"):
        g = correlate.phase_preset(name)
        lo = abs(correlate.correlation(correlate.balanced_friable(10**3, 2.0).values, g.values(10**3)))
        hi = abs(correlate.correlation(correlate.balanced_friable(10**5, 2.0).values, g.values(10**5)))
        assert hi < lo, name


def test_correlation_domain_mismatch():
    h = correlate.balanced_friable(100, 2.0)
    g = correlate.phase_preset("linear_golden").values(50)
    with pytest.raises(ArgumentError):
        correlate.correlation(h.values, g)
    with pytest.raises(ArgumentError):
        correlate.sigma_split(100, 2.0, 0.3, [g])


# ---------------------------------------------------------------------------
# phase sequences
# ---------------------------------------------------------------------------


def test_phase_values_are_unimodular():
    for name, g in correlate.PHASE_PRESETS.items():
        vals = g.values(500)
        assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-12, name


def test_phase_exact_arithmetic():
    theta = correlate.GOLDEN_CONJUGATE
    g = correlate.PhaseSequence.linear(theta)
    n = 10**6 + 7
    a, b = theta.as_integer_ratio()
    expected = (a * n % b) / b
    assert oracles.phase(g, n) == expected
    assert g._phases(np.array([n], dtype=np.uint64))[0] == expected


def test_bracket_phase_definition():
    g = correlate.PhaseSequence.bracket(0.5, 0.75)
    # floor(0.75 * 3) = 2, phase = 0.5 * 3 * 2 mod 1 = 0
    assert oracles.phase(g, 3) == 0.0
    assert g._phases(np.arange(4, dtype=np.uint64))[3] == 0.0
    assert g.values(3)[3] == pytest.approx(1.0 + 0j)


def _phase_loop(g, N):
    """e(phase(n)) for n = 0..N, one exact Python step per n: the oracle."""
    phases = np.fromiter((oracles.phase(g, n) for n in range(N + 1)), dtype=float, count=N + 1)
    return np.exp(2j * np.pi * phases)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# negative values, values above 1, |x| < 2^-11 (denominators above 2^64),
# huge and subnormal magnitudes, short mantissas such as 0.75, integers, and
# values just below j/m, where a float product phi * m rounds up to j
PHASE_PARAMS = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-(2.0**-11), 2.0**-11),
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),
    st.builds(lambda a, s: a / 2**s, st.integers(-96, 96), st.integers(0, 6)),
    st.integers(2, 2000).flatmap(
        lambda m: st.integers(1, m - 1).map(lambda j: math.nextafter(j / m, 0.0))
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["linear", "quadratic", "bracket"]),
    params=st.lists(PHASE_PARAMS, min_size=3, max_size=3),
    N=st.integers(0, 2000),
)
def test_phase_values_match_the_phase_loop(kind, params, N):
    g = {
        "linear": lambda t, b, _: correlate.PhaseSequence.linear(t, b),
        "quadratic": correlate.PhaseSequence.quadratic,
        "bracket": lambda t, p, _: correlate.PhaseSequence.bracket(t, p),
    }[kind](*params)
    assert _same_bits(g.values(N), _phase_loop(g, N))


def test_phase_values_take_the_integer_kernel():
    # the presets, the benchmark's seed-1 bracket, and a phi just below 5/6
    # (the float product phi * 6 rounds up to 5), then inputs in Python
    # integers: a theta with denominator above 2^64 and a bracket phi outside
    # [0, 1); bit for bit at N = 10^5
    bench = correlate.PhaseSequence.bracket(0.07373202094529699, 0.13303531932366952)
    below = correlate.PhaseSequence.bracket(correlate.GOLDEN_CONJUGATE, math.nextafter(5 / 6, 0))
    cases = [g for g in correlate.PHASE_PRESETS.values() if g.kind != "constant"]
    big = [
        correlate.PhaseSequence.linear(2.0**-40 / 3),
        correlate.PhaseSequence.bracket(0.3, -0.2),
        correlate.PhaseSequence.bracket(0.3, 1.5),
        correlate.PhaseSequence.linear(1e-5),
        correlate.PhaseSequence.quadratic(1e-7, 0.3),
    ]
    for g in cases + [bench, below] + big:
        assert _same_bits(g.values(10**5), _phase_loop(g, 10**5)), g


def test_phase_values_are_the_same_block_by_block(monkeypatch):
    # blocks of 7 entries: a partial last block, on both the uint64
    # kernel and the Python-integer inputs
    monkeypatch.setattr(correlate, "_PHASE_BLOCK", 7)
    for g in [
        correlate.PhaseSequence.linear(correlate.GOLDEN_CONJUGATE, 0.25),
        correlate.PhaseSequence.quadratic(correlate.SQRT2_MINUS_1, 0.1, 0.2),
        correlate.PhaseSequence.bracket(0.3, 0.7),
        correlate.PhaseSequence.linear(2.0**-40 / 3),
        correlate.PhaseSequence.bracket(0.3, -0.2),
    ]:
        for N in (0, 6, 7, 100):
            assert _same_bits(g.values(N), _phase_loop(g, N)), (g, N)


def test_phase_values_peak_below_24_bytes_per_entry():
    # the complex result is 16 bytes per entry; one block of temporaries
    # may add little more at N = 2^22
    N = 1 << 22
    for g in (correlate.PhaseSequence.linear(0.3), correlate.PhaseSequence.quadratic(0.3)):
        tracemalloc.start()
        try:
            g.values(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * (N + 1), (g, peak / (N + 1))


def test_phase_values_in_python_integers_peak_below_32_bytes_per_entry(monkeypatch):
    # the object arrays of one block add a bounded amount, not one per entry.
    # N spans 16 blocks, as N = 2^22 does under the real 2^18-entry block,
    # so the peak per entry is the same (22.5, 23.3 and 27.5 bytes there);
    # the scaled block keeps tracemalloc's per-object cost to seconds
    monkeypatch.setattr(correlate, "_PHASE_BLOCK", 1 << 12)
    N = 1 << 16
    for g in (
        correlate.PhaseSequence.linear(1e-5),
        correlate.PhaseSequence.quadratic(1e-7, 0.3),
        correlate.PhaseSequence.bracket(0.3, -0.2),
    ):
        tracemalloc.start()
        try:
            g.values(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * (N + 1), (g, peak / (N + 1))


def test_phase_values_refuse_over_the_table_budget():
    for g in (correlate.PhaseSequence.constant(), correlate.PhaseSequence.linear(0.3)):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):  # 2^26 + 1 entries
                g.values(config.DEFAULT_MAX_TABLE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (g, peak)


def test_phase_preset_lookup():
    with pytest.raises(ArgumentError):
        correlate.phase_preset("nope")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_parameters_must_be_finite(bad):
    for make in (
        lambda: correlate.PhaseSequence.constant(bad),
        lambda: correlate.PhaseSequence.linear(bad),
        lambda: correlate.PhaseSequence.linear(0.3, bad),
        lambda: correlate.PhaseSequence.quadratic(0.3, bad),
        lambda: correlate.PhaseSequence.quadratic(0.3, 0.1, bad),
        lambda: correlate.PhaseSequence.bracket(bad, 0.5),
        lambda: correlate.PhaseSequence.bracket(0.3, bad),
    ):
        with pytest.raises(ArgumentError):
            make()


# ---------------------------------------------------------------------------
# sigma split
# ---------------------------------------------------------------------------


def test_sigma_split_trivial_case():
    (split,) = correlate.sigma_split(100, 1.0, 0.4, [correlate.PhaseSequence.constant().values(100)])
    assert split.sigma1 == 0j and split.sigma2 == 0j and split.total == 0j
    assert correlate.sigma_split(100, 2.0, 0.4, []) == []


def test_sigma_split_identity_grid():
    names = ("linear_golden", "quadratic_sqrt2", "bracket_golden")
    for N in (10**3, 10**4):
        tau = correlate.default_tau(N)
        phases = [correlate.phase_preset(name).values(N) for name in names]
        for u in (1.5, 2.0, 3.0):
            for split in correlate.sigma_split(N, u, tau, phases):
                scale = max(abs(split.total), 1e-12)
                assert split.reconstruction_error <= 1e-8 * scale


def test_sigma_split_of_many_phases_equals_one_phase_calls():
    N, u = 5000, 2.5
    tau = correlate.default_tau(N)
    kinds = list(correlate.PHASE_PRESETS.values()) + [correlate.PhaseSequence.bracket(0.07, 0.13)]
    phases = [g.values(N) for g in kinds]
    splits = correlate.sigma_split(N, u, tau, phases)
    assert len(splits) == len(phases)
    for g, split in zip(phases, splits):
        assert correlate.sigma_split(N, u, tau, [g]) == [split]


def test_default_tau():
    v = correlate.default_tau(10**6)
    assert v == pytest.approx(
        math.log(math.log(10**6)) ** 1.5 / math.log(10**6), rel=1e-12
    )
    assert v == pytest.approx(0.308, abs=1e-3)
    small = correlate.default_tau(16)
    assert 1.0 / math.log(16) < small < 0.5
    taus = [correlate.default_tau(N) for N in (100, 1000, 10**4, 10**5, 10**6)]
    assert all(a > b for a, b in zip(taus, taus[1:]))
    with pytest.raises(ArgumentError):
        correlate.default_tau(8)


# ---------------------------------------------------------------------------
# subset decomposition
# ---------------------------------------------------------------------------


def test_subset_decomposition_single_form():
    N, u = 400, 2.0
    system = forms.parse_form_system("x1")
    body = forms.ConvexBody.box([(1, N)])
    rep = oracles.subset_decomposition_bound(system, body, N, (u,))
    psi = sieve.psi_count(N, float(N) ** (1.0 / u))
    rho_u = float(dickman.rho(u))
    assert rep.subset_sums[(0,)] == pytest.approx(psi - N * rho_u, abs=1e-8)
    assert rep.holds


def test_subset_decomposition_u_one():
    body = forms.ConvexBody.simplex(2, 1, 100)
    rep = oracles.subset_decomposition_bound(HARPER, body, 100, (1.0, 1.0, 1.0))
    for value in rep.subset_sums.values():
        assert value == pytest.approx(0.0, abs=1e-9)
    assert rep.lhs <= rep.boundary_term + 1e-9


def test_subset_decomposition_harper_instance():
    body = forms.ConvexBody.simplex(2, 1, 1200)
    rep = oracles.subset_decomposition_bound(HARPER, body, 1200, (2.0, 2.0, 2.0))
    assert rep.holds
    assert rep.slack >= 0.0
    assert len(rep.subset_sums) == 7
    assert rep.count > 0 and rep.lattice_points == forms.lattice_point_count(body)


def test_subset_sums_match_a_pointwise_sum():
    # x1 is constant along each run of x2, so the walk broadcasts its flag;
    # x1 - 2x2 + 120 runs downwards
    system = forms.parse_form_system("x1; x1+x2; x1-2x2+120")
    body = forms.ConvexBody.halfspaces([[-1, 0], [0, -1], [1, 1], [0, 1]], [-1, -1, 150, 40])
    N, u = 300, (2.0, 2.5, 1.5)
    rep = oracles.subset_decomposition_bound(system, body, N, u)
    rhos = [float(dickman.rho(ui)) for ui in u]
    exps = [Fraction(ui) for ui in u]
    hs = [
        [
            float(oracles.lpf(oracles.evaluate(f, p)) ** q.numerator <= N**q.denominator) - r
            for f, q, r in zip(system.forms, exps, rhos)
        ]
        for p in oracles.enumerate_lattice_points(body, N)
    ]
    assert rep.count == sum(all(h > 0 for h in row) for row in hs)
    for subset, value in rep.subset_sums.items():
        expected = math.fsum(math.prod(row[i] for i in subset) for row in hs)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-9), subset


def test_subset_decomposition_refuses_a_form_outside_the_range():
    # the same refusal, and the same error, as count_friable_values
    body = forms.ConvexBody.simplex(2, 1, 100)
    system = forms.parse_form_system("x1; x2; x1+x2+1")
    with pytest.raises(PreconditionError):
        oracles.subset_decomposition_bound(system, body, 100, (2.0, 2.0, 2.0))
    with pytest.raises(PreconditionError):
        forms.count_friable_values(system, body, 100, (2.0, 2.0, 2.0))


def test_subset_decomposition_budget():
    body = forms.ConvexBody.simplex(2, 1, 3000)
    with pytest.raises(ResourceError):
        oracles.subset_decomposition_bound(HARPER, body, 3000, (2.0, 2.0, 2.0))
