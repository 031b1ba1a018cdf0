import math

import numpy as np
import pytest

import oracles
from friable import analytic, criteria, dickman, sieve
from friable.errors import ArgumentError


def test_local_density_sum_equals_oracle():
    # the window densities from the sieve and from trial division agree bit
    # for bit; D, summed run by run, agrees with the oracle's convolution
    for N in (500, 2000, 8000):
        for u in ((2.0, 2.0, 2.0), (1.5, 2.0, 2.5)):
            deltas = criteria.local_densities(N, u)
            for ui, delta in zip(u, deltas):
                assert np.array_equal(delta, oracles.local_friable_density(N, ui, N)), (N, ui)
            got = criteria.ternary_local_density_sum(N, u)
            assert got == pytest.approx(oracles.ternary_local_density_sum(N, u), rel=1e-12), (N, u)


def test_mertens_rejects_a_hard_inversion(monkeypatch):
    # one step grows by 20%: the old verify suite let a single inversion of
    # any size through, the acceptance test never did
    rho2 = float(dickman.rho(2.0))
    errors = {10**3: 1.0, 10**4: 1.2, 10**5: 0.5, 10**6: 0.01}
    monkeypatch.setattr(analytic, "sifted_sums", lambda N, u: (errors[N] + rho2, None))
    result, tables = criteria.mertens()
    assert result["passed"] is False
    header, columns = tables["errors"]
    assert columns[header.index("abs_error")] == pytest.approx(list(errors.values()))


def test_mertens_accepts_one_mild_inversion(monkeypatch):
    rho2 = float(dickman.rho(2.0))
    errors = {10**3: 0.05, 10**4: 0.052, 10**5: 0.02, 10**6: 0.01}
    monkeypatch.setattr(analytic, "sifted_sums", lambda N, u: (errors[N] + rho2, None))
    assert criteria.mertens()[0]["passed"] is True


def test_theorem1_refuses_a_ladder_below_three():
    with pytest.raises(ArgumentError):
        criteria.theorem1(11)


def test_harper_counts_at_the_threshold_it_predicts_at(monkeypatch):
    # at N = 10024 the exponent log N / log 100 gives the threshold 99, not
    # 100; no prime lies in (97, 100], so only the threshold itself shows it
    N = 10024
    assert sieve.friable_bound(N, math.log(N) / math.log(100)) == 99
    mask = sieve.build_factor_sieve(0, N).lpf <= 100
    expected = sum(  # x1, x2 >= 1, x1 + x2 <= N, all three values 100-friable
        int(np.count_nonzero(mask[1 : N - x1 + 1] & mask[x1 + 1 : N + 1]))
        for x1 in np.flatnonzero(mask[1:N]) + 1
    )
    thresholds = []
    friable_masks = sieve.friable_masks

    def spy(N, ys, **kwargs):
        thresholds.extend(sorted(set(ys)))
        return friable_masks(N, ys, **kwargs)

    monkeypatch.setattr(sieve, "friable_masks", spy)
    result, _ = criteria.harper(N)
    assert thresholds == [100]
    assert result["y"] == 100 and result["count"] == expected
