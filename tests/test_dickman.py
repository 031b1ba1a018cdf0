import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from friable import dickman
from friable.errors import ArgumentError

# Frozen values of the 150-point Gauss-Legendre oracle (oracles.rho_quadrature),
# recomputed live in test_oracle_stability below.
RHO_ORACLE = {
    2.5: 0.1303195618322508,
    3.0: 0.04860838829113168,
    5.0: 0.0003547247004561452,
    10.0: 2.7701764643235473e-11,
}


def test_exact_on_initial_interval(rho_table):
    assert rho_table.eval(0.0) == 1.0
    assert rho_table.eval(0.5) == 1.0
    assert rho_table.eval(1.0) == 1.0
    grid = np.linspace(0.0, 1.0, 257)
    assert np.all(rho_table.eval(grid) == 1.0)


def test_closed_form_on_second_interval(rho_table):
    # the delay equation forces rho(u) = 1 - log u on [1, 2]
    for u in (1.1, 1.5, 1.9, 2.0):
        assert rho_table.eval(u) == pytest.approx(1.0 - math.log(u), abs=1e-12)


def test_quadrature_oracle_agreement(rho_table):
    for u, expected in RHO_ORACLE.items():
        assert abs(rho_table.eval(u) - expected) <= 1e-10


def test_oracle_stability():
    for u, frozen in RHO_ORACLE.items():
        live = oracles.rho_quadrature(u)
        assert abs(live - frozen) <= 1e-12 * max(1.0, abs(frozen))


def test_dde_residual(rho_table):
    _, residuals = dickman.dde_residual_grid(rho_table, 1000, 1.0, 20.0)
    assert residuals.size >= 998
    assert float(np.max(residuals)) <= 1e-9


def test_continuity_at_knots(rho_table):
    # adjacent pieces evaluated at the same knot
    from numpy.polynomial.chebyshev import chebval

    assert len(rho_table.pieces) == 20  # [20, 21] holds rho at the knot 20
    assert abs(chebval(-1.0, rho_table.pieces[0]) - 1.0) <= 1e-10
    for k in range(2, 21):
        left = chebval(1.0, rho_table.pieces[k - 2])
        right = chebval(-1.0, rho_table.pieces[k - 1])
        assert abs(left - right) <= 1e-10


def test_strictly_positive_and_decreasing(rho_table):
    grid = np.linspace(1.0, 20.0, 4001)
    vals = rho_table.eval(grid)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    for u in (1.5, 2.0, 3.0, 7.5, 12.0, 19.5):
        assert 0.0 < rho_table.eval(u) < rho_table.eval(u - 1.0)


def test_both_sides_of_the_knots_match_the_quadrature_oracle(rho_table):
    # each side of a knot k, and k itself, reads a different piece of the
    # table than the other side: all three against one oracle pass
    us = [u for k in range(2, 11) for u in (k - 1e-3, float(k), k + 1e-3)]
    for u, expected in zip(us, oracles.rho_quadrature_at(us)):
        assert abs(rho_table.eval(u) - expected) <= 1e-10, u


def test_fit_matrix_built_once_gives_chebfits_bits():
    x = np.sort(np.cos(np.pi * (np.arange(dickman._DEGREE + 1) + 0.5) / (dickman._DEGREE + 1)))
    fit = oracles._chebyshev_fitter(x)
    rng = np.random.default_rng(2)
    for scale in (1.0, 1e-12, 1e-40):
        y = scale * rng.uniform(0.0, 1.0, x.size)
        assert np.array_equal(fit(y), np.polynomial.chebyshev.chebfit(x, y, dickman._DEGREE))


def test_fractional_u_max():
    t = oracles.build_rho_table(2.5)
    assert t.eval(2.5) == pytest.approx(RHO_ORACLE[2.5], abs=1e-10)
    with pytest.raises(ArgumentError):
        t.eval(2.6)


def test_module_level_rho_and_extension():
    assert dickman.rho(1.0) == 1.0
    assert dickman.rho(2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-10)
    assert dickman.rho(21.5) > 0.0  # past the fixture's extent
    assert dickman.rho(50.0) > 0.0  # the piece on [50, 51] holds the last knot
    arr = dickman.rho(np.array([0.5, 1.5, 3.0]))
    assert arr.shape == (3,)
    with pytest.raises(ArgumentError):
        dickman.rho(-0.5)
    with pytest.raises(ArgumentError):
        dickman.rho(50.5)


def test_shipped_pieces_equal_the_oracle_build():
    table = dickman.default_table()
    built = oracles.build_rho_table(50.0)
    assert table.u_max == built.u_max == 50.0
    assert len(table.pieces) == len(built.pieces) == 50
    for shipped, fresh in zip(table.pieces, built.pieces):
        assert np.array_equal(shipped, fresh)
        assert not shipped.flags.writeable
    # every u in [0, 50], the integer knots included, reads the builder's bits
    grid = np.concatenate((np.linspace(0.0, 50.0, 20001), np.arange(51.0)))
    assert np.array_equal(dickman.rho(grid), built.eval(grid))


def test_rho_does_not_depend_on_earlier_extensions():
    # one shared table serves every call, so no earlier call, however far
    # it reads, moves a value; the pieces on [20, 21] and [25, 26] read as
    # they did when the table grew on demand
    table = dickman.default_table()
    before = dickman.rho(20.0)
    assert before == 2.4617828287642925e-29
    at_25 = dickman.rho(25.0)
    assert at_25 == 1.6658044236711178e-39
    assert dickman.rho(20.0) == before
    assert dickman.rho(np.array([20.0, 25.0]))[0] == before
    assert dickman.rho(30.0) > 0.0
    assert dickman.rho(50.0) > 0.0
    assert dickman.rho(25.0) == at_25
    assert dickman.rho(20.0) == before
    assert dickman.default_table() is table
    assert table.u_max == 50.0


def test_rho_extends_the_shared_table_by_the_missing_pieces_only():
    # a piece depends only on the pieces below it: a build to a smaller
    # extent fits the shared table's first pieces bit for bit, so the
    # shared table is that build extended by the missing pieces alone
    table = dickman.default_table()
    for u_max in (20.0, 25.0):
        built = oracles.build_rho_table(u_max)
        assert built.u_max == u_max
        assert len(built.pieces) == int(u_max)
        for mine, fresh in zip(table.pieces, built.pieces):
            assert np.array_equal(mine, fresh)
        u = np.linspace(0.0, u_max, 2001)
        assert np.array_equal(dickman.rho(u), built.eval(u))


def test_shipped_pieces_module_is_the_generated_text():
    shipped = Path(dickman.__file__).with_name("_rho_pieces.py").read_text(encoding="ascii")
    assert shipped == oracles.rho_pieces_module()


def test_build_argument_errors():
    with pytest.raises(ArgumentError):
        oracles.build_rho_table(0.5)
    with pytest.raises(ArgumentError):
        oracles.build_rho_table(51.0)


def test_eval_domain_errors(rho_table):
    with pytest.raises(ArgumentError):
        rho_table.eval(-0.1)
    with pytest.raises(ArgumentError):
        rho_table.eval(20.1)
    # NaN passes neither bound check, and is refused with the rest
    for u in (math.nan, math.inf, np.array([2.0, math.nan])):
        with pytest.raises(ArgumentError):
            rho_table.eval(u)
        with pytest.raises(ArgumentError):
            dickman.rho(u)


def test_residual_grid_arguments(rho_table):
    with pytest.raises(ArgumentError):
        dickman.dde_residual_grid(rho_table, 100, 0.5, 5.0)
    with pytest.raises(ArgumentError):
        dickman.dde_residual_grid(rho_table, 100, 5.0, 25.0)


def _chebval_rho(u: np.ndarray) -> np.ndarray:
    """rho on the shared table's pieces by numpy's own ``chebval``."""
    from numpy.polynomial.chebyshev import chebval

    pieces = dickman.default_table().pieces
    out = np.ones_like(u)
    above = u > 1.0
    idx = np.floor(u).astype(int) - 1
    for k in np.unique(idx[above]).tolist():
        sel = above & (idx == k)
        out[sel] = chebval(2.0 * (u[sel] - (k + 1.5)), pieces[k])
    return out


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values).tolist()]


def test_rho_has_the_bits_of_chebval():
    # the Clenshaw steps are chebval's, in its order: random u, every knot
    # and its two neighbours, the ends, and a 10^6-point grid, which spans
    # many blocks
    knots = np.arange(1.0, 51.0)
    u = np.concatenate((
        np.random.default_rng(30).uniform(0.0, 50.0, 10**5),
        knots, np.nextafter(knots, 0.0), np.nextafter(knots[:-1], 51.0),
        [0.0, 1.0, 50.0], np.linspace(0.0, 50.0, 10**6),
    ))
    assert _hex(dickman.rho(u)) == _hex(_chebval_rho(u))
    # scalar, 0-d, 1-d and 2-d inputs keep their types and shapes
    few = u[: 10**5 : 997]
    for value in few.tolist()[:200] + [0.0, 1.0, 50.0, 2, np.float64(37.5)]:
        got = dickman.rho(value)
        assert type(got) is float
        assert got.hex() == _hex(_chebval_rho(np.array([float(value)])))[0]
    zero_d = dickman.rho(np.array(2.37))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert _hex(zero_d) == _hex(_chebval_rho(np.array([2.37])))
    square = few[:100].reshape(10, 10)
    assert dickman.rho(square).shape == (10, 10)
    assert _hex(dickman.rho(square)) == _hex(_chebval_rho(square))
    assert _hex(dickman.rho(list(few))) == _hex(_chebval_rho(few))
