"""Acceptance gate: one test per verification criterion, one line printed each.

Run with ``pytest -s tests/test_acceptance.py`` to see the status lines.
Criteria 1-8 are defined once, in ``friable.criteria``, and ``friable
verify`` runs the same functions; these tests assert their verdicts and add
what the library does not hold: the comparisons with independent oracles
(``tests/oracles.py``), the elapsed budgets, and criterion 9.  Criterion 2
checks the paper's asymptotic formula in its two steps; see README,
"Criterion 2 at desk scale".
"""

import time

import numpy as np

import oracles
from friable import config, correlate, criteria, dickman, forms, gowers, sieve


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _check(num: int, run, *, budget: float | None = None, extra: str = ""):
    """Run criterion ``num``, print its status line and assert its verdict."""
    start = time.perf_counter()
    result, tables = run()
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k}={_fmt(v)}" for k, v in result.items() if k != "passed")
    for name, (header, columns) in tables.items():
        rows = list(zip(*columns))
        if len(rows) > 6:  # keep the status line to one screen
            detail += f"; {name}: {len(rows)} rows"
            continue
        detail += f"; {name}: " + " | ".join(
            ", ".join(f"{h}={_fmt(v)}" for h, v in zip(header, row)) for row in rows
        )
    ok = result["passed"] and (budget is None or elapsed <= budget)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}{extra}; elapsed={elapsed:.1f}s")
    if budget is not None:
        assert elapsed <= budget
    assert result["passed"], detail


def test_criterion_1_hildebrand_consistency():
    _check(1, criteria.hildebrand, budget=60.0)


def test_criterion_2_ternary_count_window():
    # (a) Green-Tao: the three friability events are independent, so the
    # exact count matches D, the sum of products of local friable densities;
    # (b) replacing each local density by rho(u_i) converges only like
    # log(u+1)/log y, so the main-term ratio must approach 1 along the ladder.
    _check(2, criteria.theorem1, budget=120.0)


def test_criterion_3_product_cross_check():
    _check(3, criteria.product)


def test_criterion_4_dickman_precision():
    errs = {u: abs(float(dickman.rho(u)) - oracles.rho_quadrature(u)) for u in (3.0, 5.0, 10.0)}
    extra = "; " + ", ".join(f"oracle u={u}: {e:.2e}" for u, e in errs.items())
    _check(4, criteria.dickman, extra=extra)
    for u, e in errs.items():
        assert e <= criteria.RHO_ORACLE_TOL, u


def test_criterion_5_mertens_error_decay():
    _check(5, criteria.mertens)


def test_criterion_6_gowers_module():
    worst = max(
        abs(gowers.gowers_norm_cyclic(f, k) - oracles.gowers_norm_bruteforce(f, k))
        for f in criteria.gowers_samples()
        for k in (2, 3)
    )
    _check(6, criteria.gowers, extra=f"; max |fast-brute|={worst:.2e}")
    assert worst <= criteria.GOWERS_ORACLE_TOL


def test_criterion_7_decomposition_identity_and_tail_bound():
    _check(7, criteria.decompose)


def test_criterion_8_harper_soft_check():
    _check(8, criteria.harper)


def test_criterion_9_thread_determinism(monkeypatch):
    # the mask sieve runs in the calling thread; over 13 segments of 8191
    # entries its mask still counts Psi(N, y) exactly
    monkeypatch.setattr(config, "DEFAULT_SEGMENT_SIZE", 8191)
    mask = sieve.friable_masks(10**5, [316])[316]
    masks_ok = int(np.count_nonzero(mask[1:])) == sieve.psi_count(10**5, 316)
    # the U^3 norm of M = 4096 runs its 33 derivative blocks on the workers
    h = correlate.balanced_friable(4095, 2.0).values
    norms = {gowers.gowers_norm_cyclic(h, 3, threads=t) for t in (1, 2, 4)}
    ok = masks_ok and len(norms) == 1
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 9: friable mask at N = 10^5, "
        f"y = 316 over 13 segments counts psi_count: {masks_ok}, "
        f"U^3 norms at M = 4096 for 1, 2, 4 threads: {norms}"
    )
    assert ok
