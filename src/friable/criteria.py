"""Acceptance criteria 1-8, each defined once.

Every function runs one criterion and returns ``(result, tables)``: the
JSON-ready summary, whose ``passed`` entry is the verdict, and a map from
CSV name to ``(header, columns)``.  ``friable verify --suite NAME`` writes
both; the acceptance tests assert ``passed`` and add the comparisons with
independent oracles (trial division, quadrature, direct Gowers sums),
which stay out of the library.  The thresholds of those comparisons are
the ``*_ORACLE_TOL`` constants below.

All criteria take ``N=None``, meaning the criterion's default size; a
criterion without a size refuses any other ``N``.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic, correlate, forms, sieve
from . import dickman as _dickman
from . import gowers as _gowers
from .errors import ArgumentError

TERNARY = "x1; x2; x1+x2"
RHO_ORACLE_TOL = 1e-8       # criterion 4: rho against an independent quadrature
GOWERS_ORACLE_TOL = 1e-10   # criterion 6: FFT norms against the direct sums


def _table(header: list[str], rows: list[list]) -> tuple[list[str], list[list]]:
    """The CSV table ``(header, columns)`` of a list of rows."""
    return header, [[row[i] for row in rows] for i in range(len(header))]


def _no_size(name: str, N) -> None:
    if N is not None:
        raise ArgumentError(f"suite {name!r} has no size to set with --N")


def hildebrand(N=None):
    """Criterion 1: |Psi(N, N^(1/u)) / (N rho(u)) - 1| <= 3 u log(u+1) / log N."""
    N = 10**6 if N is None else N
    if N < 2:
        raise ArgumentError(f"hildebrand needs N >= 2 (its bound divides by log N), got {N}")
    header = ["u", "psi", "n_rho", "relative_deviation", "bound", "within"]
    rows = []
    for u in (1.5, 2.0, 2.5, 3.0):
        psi = sieve.psi_count(N, sieve.friable_bound(N, u))
        target = N * float(_dickman.rho(u))
        rel = psi / target - 1.0
        bound = 3.0 * u * math.log(u + 1.0) / math.log(N)
        rows.append([u, psi, target, rel, bound, abs(rel) <= bound])
    return {"N": N, "passed": all(row[-1] for row in rows)}, {"ratios": _table(header, rows)}


def local_densities(N: int, u) -> list[np.ndarray]:
    """delta_i on 0..N for each u_i: the exact share of N^(1/u_i)-friable
    integers in [max(m - h, 1), m + h], h = max(m // 8, 1), at m >= 1 (the
    density a form value near m sees before it is replaced by rho(u_i)),
    and 0 at m = 0."""
    m = np.arange(1, N + 1)
    h = np.maximum(m // 8, 1)
    lo = np.maximum(m - h, 1)
    hi = m + h
    ys = [sieve.friable_bound(N, ui) for ui in u]
    masks = sieve.friable_masks(int(hi[-1]), ys)
    deltas = []
    for y in ys:
        prefix = np.concatenate(([0], np.cumsum(masks[y])))
        delta = np.zeros(N + 1)
        delta[1:] = (prefix[hi + 1] - prefix[lo]) / (hi - lo + 1)
        deltas.append(delta)
    return deltas


def ternary_local_density_sum(N: int, u) -> float:
    """D = sum over x1, x2 >= 1, x1 + x2 <= N of delta_1(x1) delta_2(x2)
    delta_3(x1 + x2), one ``forms.lattice_sum`` of the ``local_densities``:
    the count of friable (x1, x2, x1+x2) on the simplex predicted by
    treating the three friability events as independent."""
    body = forms.ConvexBody.simplex(2, 1, N)
    return forms.lattice_sum(forms.parse_form_system(TERNARY), body, local_densities(N, u))


def theorem1(N=None):
    """Criterion 2: the paper's formula for (x1, x2, x1+x2) on the simplex,
    in the two steps of its proof.

    (a) Independence: count / D lies in [0.75, 1.25] at N.  (b) Main term:
    replacing the local densities by rho(u_i) converges only like
    log(u+1) / log y (criterion 1), so |count / (Vol prod rho) - 1| must
    shrink strictly over N // 4, N, 4 N rather than sit in the window.
    """
    N = 2000 if N is None else N
    if N // 4 < 3:
        raise ArgumentError(f"theorem1 needs N >= 12 (its ladder starts at N // 4), got {N}")
    system = forms.parse_form_system(TERNARY)
    triples = [(2.0, 2.0, 2.0), (1.5, 2.0, 2.5)]
    ladder = [N // 4, N, 4 * N]
    counts, main_ratios, ladder_rows = {}, {u: [] for u in triples}, []
    for M in ladder:
        body = forms.ConvexBody.simplex(2, 1, M)
        vol = forms.volume(body)
        for u in triples:
            count = forms.count_friable_values(system, body, M, u)
            main = forms.main_term(vol, u)
            counts[M, u] = count
            main_ratios[u].append(count / main)
            ladder_rows.append([*u, M, count, main, count / main])
    window = [0.75, 1.25]
    ratio_rows = []
    for u in triples:
        D = ternary_local_density_sum(N, u)
        ratio = counts[N, u] / D
        ratio_rows.append([*u, counts[N, u], D, ratio, window[0] <= ratio <= window[1]])
    in_window = all(row[-1] for row in ratio_rows)
    shrinking = all(
        abs(b - 1.0) < abs(a - 1.0) for rs in main_ratios.values() for a, b in zip(rs, rs[1:])
    )
    result = {
        "N": N,
        "ladder": ladder,
        "window": window,
        "count_over_D_in_window": in_window,
        "main_term_gap_shrinking": shrinking,
        "passed": in_window and shrinking,
    }
    tables = {
        "ratios": _table(
            ["u1", "u2", "u3", "count", "local_density_sum", "count_over_D", "in_window"],
            ratio_rows,
        ),
        "ladder": _table(["u1", "u2", "u3", "N", "count", "main_term", "main_ratio"], ladder_rows),
    }
    return result, tables


def product(N=None):
    """Criterion 3: the box count of (x1; x2) equals Psi(N, y)^2 exactly."""
    N = 10**3 if N is None else N
    system = forms.parse_form_system("x1; x2")
    body = forms.ConvexBody.box([(1, N), (1, N)])
    header = ["u", "count", "psi", "exact_match"]
    rows = []
    for u in (2.0, 3.0):
        count = forms.count_friable_values(system, body, N, (u, u))
        psi = sieve.psi_count(N, sieve.friable_bound(N, u))
        rows.append([u, count, psi, count == psi * psi])
    return {"N": N, "passed": all(row[-1] for row in rows)}, {"counts": _table(header, rows)}


def dickman(N=None):
    """Criterion 4: rho(2) = 1 - log 2 and the delay-equation residual, both to 1e-9."""
    _no_size("dickman", N)
    table = _dickman.default_table()
    closed = abs(table.eval(2.0) - (1.0 - math.log(2.0)))
    _, residuals = _dickman.dde_residual_grid(table, 1000, 1.0, 20.0)
    max_res = float(np.max(residuals))
    result = {
        "closed_form_error_at_2": closed,
        "max_dde_residual": max_res,
        "passed": bool(closed <= 1e-9 and max_res <= 1e-9),
    }
    return result, {}


def mertens(N=None):
    """Criterion 5: |sum mu(k)/k - rho(2)| decays over N = 10^3..10^6.

    At most one step may grow, by no more than 10%, and the last error
    must be within 2 u log(u+1) / log N * rho(u).
    """
    _no_size("mertens", N)
    u = 2.0
    rho_u = float(_dickman.rho(u))
    rows = []
    for N in (10**3, 10**4, 10**5, 10**6):
        s = analytic.sifted_sums(N, u)[0]
        rows.append([N, s, abs(s - rho_u)])
    errors = [row[2] for row in rows]
    inversions = [(a, b) for a, b in zip(errors, errors[1:]) if b > a]
    final_bound = 2.0 * u * math.log(u + 1.0) / math.log(10**6) * rho_u
    ok = (
        len(inversions) <= 1
        and all(b <= 1.1 * a for a, b in inversions)
        and errors[-1] <= final_bound
    )
    return (
        {"u": u, "final_bound": final_bound, "passed": ok},
        {"errors": _table(["N", "sum", "abs_error"], rows)},
    )


def gowers_samples() -> list[np.ndarray]:
    """The 50 seeded random 1-bounded sequences on Z_64 that criterion 6 uses."""
    rng = np.random.default_rng(60)
    out = []
    for _ in range(50):
        f = rng.uniform(-1.0, 1.0, 64) + 1j * rng.uniform(-1.0, 1.0, 64)
        out.append(f / np.max(np.abs(f)))
    return out


def gowers(N=None):
    """Criterion 6: U^2 <= U^3 on the samples, ||1|| = 1, and the U^2[N]
    norm of the balanced friable function decreasing over N = 2^10, 2^12, 2^14.
    """
    _no_size("gowers", N)
    nested = all(
        _gowers.gowers_norm_cyclic(f, 2) <= _gowers.gowers_norm_cyclic(f, 3) + 1e-10
        for f in gowers_samples()
    )
    ones = [_gowers.gowers_norm_cyclic(np.ones(64), k) for k in (2, 3)]
    rows = []
    for e in (10, 12, 14):
        h = correlate.balanced_friable(2**e, 2.0)
        rows.append([2**e, _gowers.gowers_norm_interval(h.values, 2)])
    decreasing = rows[0][1] > rows[1][1] > rows[2][1]
    result = {
        "nested": nested,
        "strictly_decreasing": decreasing,
        "norm_of_one_u2": ones[0],
        "norm_of_one_u3": ones[1],
        "passed": nested and decreasing and ones == [1.0, 1.0],
    }
    return result, {"norms": _table(["N", "u2_interval_norm"], rows)}


def decompose(N=None):
    """Criterion 7: Sigma_1 + Sigma_2 reproduces the correlation to 1e-8, and
    |Sigma_2| <= C u N (tau u + rho(u) log(u+1) / log N) with C <= 50."""
    _no_size("decompose", N)
    header = ["N", "u", "phase", "rel_identity_error", "fitted_C"]
    names = ("linear_golden", "quadratic_sqrt2", "bracket_golden")
    rows = []
    for N in (10**3, 10**4, 10**5):
        tau = correlate.default_tau(N)
        phases = [correlate.phase_preset(name).values(N) for name in names]
        for u in (1.5, 2.0, 3.0):
            scale = correlate.sigma2_bound_scale(N, u, tau)
            splits = correlate.sigma_split(N, u, tau, phases)
            for name, split in zip(names, splits):
                rel = split.reconstruction_error / max(abs(split.total), 1e-30)
                rows.append([N, u, name, rel, abs(split.sigma2) / scale])
    worst_rel = max(row[3] for row in rows)
    worst_c = max(row[4] for row in rows)
    result = {
        "cases": len(rows),
        "max_rel_identity_error": worst_rel,
        "max_fitted_C": worst_c,
        "passed": bool(worst_rel <= 1e-8 and worst_c <= 50.0),
    }
    return result, {"grid": _table(header, rows)}


def harper(N=None):
    """Criterion 8: the ternary count over S0 S1 Psi(N, y)^3 / N lies in
    [0.5, 2] at y = 100, with S1(1) = 1/2 and the saddle residual
    within 1e-10 log N."""
    N = 10**4 if N is None else N
    y = 100.0
    body = forms.ConvexBody.simplex(2, 1, N)
    count = forms.count_friable_values(forms.parse_form_system(TERNARY), body, N, ys=(int(y),) * 3)
    pred = analytic.harper_prediction(N, y)
    ratio = count / pred.prediction
    s1_error = abs(analytic.singular_series_s1(1.0) - 0.5)
    result = {
        "N": N,
        "y": y,
        "count": count,
        "prediction": pred.prediction,
        "ratio": ratio,
        "s1_at_one_error": s1_error,
        "saddle_residual": pred.saddle_residual,
        "passed": bool(
            0.5 <= ratio <= 2.0
            and s1_error <= 1e-10
            and pred.saddle_residual <= 1e-10 * math.log(N)
        ),
    }
    return result, {}


SUITES = {
    "hildebrand": hildebrand,
    "theorem1": theorem1,
    "product": product,
    "dickman": dickman,
    "mertens": mertens,
    "gowers": gowers,
    "decompose": decompose,
    "harper": harper,
}
