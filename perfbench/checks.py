"""Checks of every job's output files against ``oracle`` references.

``Checker(jobs)`` computes the references a workload needs once per run;
``check(job, outdir, peers)`` returns ``None`` for a correct output or a
one-line reason.  Tolerances are stated next to each comparison and hold
with margin on the seed commit.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle

REL_RHO = 1e-10       # Dickman values (the library reaches ~1e-12 on [0, 20])
REL_FLOAT = 1e-10     # quantities one float formula away from exact
REL_SERIES = 1e-9     # Euler products and predictions built on them
REL_GOWERS = 1e-9     # Gowers norms (two FFT routes agree to ~1e-14)
ABS_SUM = 1e-10       # normalized correlation sums and sifted Mobius sums
REL_IDENTITY = 1e-9   # |sigma1 + sigma2 - total| / |total| in the decompose suite
ABS_FITTED_C = 1e-9   # the decompose suite's fitted constants, O(1) numbers


class CheckFailed(Exception):
    pass


def _close(name, got, want, rel=0.0, abs_=0.0):
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise CheckFailed(f"{name}: expected a number, got {got!r}")
    if not abs(got - want) <= max(abs_, rel * abs(want)):
        raise CheckFailed(f"{name}: got {got!r}, reference {want!r}")


def _equal(name, got, want):
    if got != want:
        raise CheckFailed(f"{name}: got {got!r}, reference {want!r}")


def _result(outdir: Path, command: str) -> dict:
    path = outdir / f"{command}_result.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))["result"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"unreadable {path.name}: {exc}") from None


def _csv(outdir: Path, name: str) -> list[list[str]]:
    path = outdir / name
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"unreadable {name}: {exc}") from None


def _digest(outdir: Path, command: str) -> str | None:
    try:
        text = (outdir / f"{command}_manifest.json").read_text(encoding="utf-8")
        return json.loads(text)["output_digest"]
    except (OSError, ValueError, KeyError):
        return None


class Checker:
    """References for one workload's jobs, computed once, outside any timing."""

    def __init__(self, jobs):
        lpf_n, spf_n = 0, 0
        for job in jobs:
            p = job.params
            if job.kind in ("simplex2", "hpoly_x1_2x2", "simplex3", "box2",
                            "verify_harper", "harper", "verify_hildebrand",
                            "correlate_bracket", "gowers"):
                lpf_n = max(lpf_n, p["N"])
            if job.kind in ("mertens", "correlate_bracket"):
                spf_n = max(spf_n, p["N"])
            if job.kind == "sieve_csv":
                spf_n = max(spf_n, p["hi"])
                lpf_n = max(lpf_n, p["hi"])
            if job.kind == "verify_decompose":
                lpf_n, spf_n = max(lpf_n, 10**5), max(spf_n, 10**5)
        self.lpf = oracle.lpf_table(lpf_n) if lpf_n else None
        self.spf, self.mu = oracle.spf_mu_table(spf_n) if spf_n else (None, None)
        self.refs = {}
        for job in jobs:
            self.refs[job.id] = self._reference(job)

    # -- references ---------------------------------------------------------

    def _reference(self, job):
        p, lpf = job.params, self.lpf
        if job.kind in ("simplex2", "hpoly_x1_2x2", "simplex3", "box2"):
            N, us = p["N"], p["u"]
            ref = {"count": oracle.count(job.kind, lpf, N, us),
                   "volume": float(oracle.volume(job.kind, N)),
                   "main_term": float(oracle.volume(job.kind, N))
                   * math.prod(oracle.rho(u) for u in us)}
            if job.kind == "box2":
                ref["psi_squared"] = oracle.psi(lpf, N, oracle.friable_bound(N, us[0])) ** 2
            return ref
        if job.kind == "verify_harper":
            N, y = p["N"], p["y"]
            u = math.log(N) / math.log(y)
            ref = oracle.harper(N, y, oracle.psi(lpf, N, y))
            ref["count"] = oracle.count("simplex2", lpf, N, (u, u, u))
            return ref
        if job.kind == "harper":
            N, y = p["N"], p["y"]
            return oracle.harper(N, y, oracle.psi(lpf, N, y))
        if job.kind == "verify_hildebrand":
            N = p["N"]
            return {u: oracle.psi(lpf, N, oracle.friable_bound(N, u))
                    for u in (1.5, 2.0, 2.5, 3.0)}
        if job.kind == "mertens":
            N, u, tau = p["N"], p["u"], Fraction(p["tau"])
            ks, mus = oracle.sifted_squarefree(self.spf, self.mu, N, oracle.friable_bound(N, u))
            cutoff = oracle.power_bound(N, 1 - tau)
            return {"sum": math.fsum((mus / ks).tolist()), "rho_u": oracle.rho(u),
                    "mu2_tail": math.fsum((1.0 / ks[ks > cutoff]).tolist())}
        if job.kind == "sieve_csv":
            return {}
        if job.kind == "correlate_bracket":
            ref = oracle.correlate_bracket(self.lpf, self.spf, self.mu, p["N"], p["u"],
                                           p["tau"], p["theta"], p["phi"])
            ref["rho_u"] = oracle.rho(p["u"])
            return ref
        if job.kind == "gowers":
            f = oracle.balanced(lpf, p["N"], p["u"])
            return {"norm": oracle.gowers_norm(f, p["k"], p["mode"]), "length": p["N"] + 1}
        if job.kind == "verify_decompose":
            return {"rows": oracle.decompose_grid(self.lpf, self.spf, self.mu)}
        if job.kind in ("verify_dickman", "dickman_table"):
            return {}
        raise ValueError(f"no reference for job kind {job.kind!r}")

    # -- checks -------------------------------------------------------------

    def check(self, job, outdir: Path, peers: dict[str, Path]) -> str | None:
        """None when the output in ``outdir`` is correct, else the reason."""
        try:
            getattr(self, "_check_" + job.kind)(job, outdir, self.refs[job.id], peers)
        except CheckFailed as exc:
            return str(exc)
        return None

    def _check_count(self, job, outdir, ref, peers):
        r = _result(outdir, "count")
        _equal("count", r.get("count"), ref["count"])
        _close("volume", r.get("volume"), ref["volume"], rel=1e-15)
        _close("main_term", r.get("main_term"), ref["main_term"], rel=REL_RHO)
        _close("ratio", r.get("ratio"), ref["count"] / ref["main_term"], rel=REL_RHO)
        if "psi_squared" in ref:
            _equal("count vs Psi^2", r["count"], ref["psi_squared"])

    _check_simplex2 = _check_hpoly_x1_2x2 = _check_simplex3 = _check_box2 = _check_count

    def _check_harper(self, job, outdir, ref, peers):
        r = _result(outdir, "harper")
        _close("alpha", r.get("alpha"), ref["alpha"], rel=REL_FLOAT)
        _close("s0", r.get("s0"), ref["s0"], rel=REL_SERIES)
        _close("s1", r.get("s1"), ref["s1"], rel=REL_FLOAT)
        _equal("psi", r.get("psi"), ref["psi"])
        _close("prediction", r.get("prediction"), ref["prediction"], rel=REL_SERIES)
        _close("s0_tail_bound", r.get("s0_tail_bound"), ref["s0_tail_bound"], rel=1e-15)
        other = job.params.get("same_as")
        if other and other in peers:
            # identical results for every thread count: same digest, same fields
            _equal("digest vs " + other, _digest(outdir, "harper"), _digest(peers[other], "harper"))
            _equal("result vs " + other, r, _result(peers[other], "harper"))

    def _check_verify_harper(self, job, outdir, ref, peers):
        r = _result(outdir, "verify")
        _equal("count", r.get("count"), ref["count"])
        _close("prediction", r.get("prediction"), ref["prediction"], rel=REL_SERIES)
        ratio = ref["count"] / ref["prediction"]
        _close("ratio", r.get("ratio"), ratio, rel=REL_SERIES)
        _equal("passed", r.get("passed"), 0.5 <= ratio <= 2.0)

    def _check_verify_hildebrand(self, job, outdir, ref, peers):
        r = _result(outdir, "verify")
        rows = _csv(outdir, "verify_ratios.csv")
        _equal("header", rows[0] if rows else None,
               ["u", "psi", "n_rho", "relative_deviation", "bound", "within"])
        N, ok = job.params["N"], True
        _equal("rows", len(rows) - 1, len(ref))
        for row, (u, psi) in zip(rows[1:], ref.items()):
            _close("u", float(row[0]), u)
            _equal(f"psi(u={u})", int(row[1]), psi)
            target = N * oracle.rho(u)
            _close(f"n_rho(u={u})", float(row[2]), target, rel=REL_RHO)
            bound = 3.0 * u * math.log(u + 1.0) / math.log(N)
            within = abs(psi / target - 1.0) <= bound
            _equal(f"within(u={u})", row[5], str(within))
            ok = ok and within
        _equal("passed", r.get("passed"), ok)

    def _check_mertens(self, job, outdir, ref, peers):
        r = _result(outdir, "mertens")
        _close("sum", r.get("sum"), ref["sum"], abs_=ABS_SUM)
        _close("rho_u", r.get("rho_u"), ref["rho_u"], rel=REL_RHO)
        _close("abs_error", r.get("abs_error"), abs(ref["sum"] - ref["rho_u"]), abs_=ABS_SUM)
        _close("mu2_tail", r.get("mu2_tail"), ref["mu2_tail"], rel=REL_FLOAT)

    def _check_verify_dickman(self, job, outdir, ref, peers):
        r = _result(outdir, "verify")
        _close("closed_form_error_at_2", r.get("closed_form_error_at_2"), 0.0, abs_=1e-9)
        _close("max_dde_residual", r.get("max_dde_residual"), 0.0, abs_=1e-9)
        _equal("passed", r.get("passed"), True)

    def _check_dickman_table(self, job, outdir, ref, peers):
        rows = _csv(outdir, "dickman_table.csv")
        u_max, step = job.params["u_max"], job.params["step"]
        grid = np.arange(0.0, u_max + step / 2, step)
        _equal("header", rows[0] if rows else None, ["u", "rho"])
        _equal("rows", len(rows) - 1, grid.size)
        data = np.array(rows[1:], dtype=np.float64)
        if not np.array_equal(data[:, 0], grid):
            raise CheckFailed("u grid differs from arange(0, u_max, step)")
        want = oracle.rho(np.minimum(grid, u_max))
        rel = np.abs(data[:, 1] - want) / want
        worst = int(np.argmax(rel))
        if not rel[worst] <= REL_RHO:
            raise CheckFailed(f"rho({grid[worst]}) off by {rel[worst]:.3g} relative")

    def _check_sieve_csv(self, job, outdir, ref, peers):
        lo, hi = job.params["lo"], job.params["hi"]
        r = _result(outdir, "sieve")
        n = np.arange(lo, hi + 1)
        lpf, spf, mu = self.lpf[lo : hi + 1], self.spf[lo : hi + 1], self.mu[lo : hi + 1]
        _equal("entries", r.get("entries"), hi - lo + 1)
        _equal("primes", r.get("primes"), int(np.count_nonzero((lpf == n) & (n >= 2))))
        _equal("squarefree", r.get("squarefree"), int(np.count_nonzero(mu)))
        rows = _csv(outdir, "sieve_table.csv")
        _equal("header", rows[0] if rows else None, ["n", "lpf", "spf_or_minus1_for_inf", "mu"])
        data = np.array(rows[1:], dtype=np.int64)
        want = np.column_stack([n, lpf, spf, mu])
        if data.shape != want.shape or not np.array_equal(data, want):
            raise CheckFailed("sieve table differs from the reference factor table")

    def _check_correlate_bracket(self, job, outdir, ref, peers):
        r = _result(outdir, "correlate")
        for key in ("correlation_re", "correlation_im", "correlation_abs",
                    "h_tau_correlation_abs"):
            _close(key, r.get(key), ref[key], abs_=ABS_SUM)
        _close("rho_u", r.get("rho_u"), ref["rho_u"], rel=REL_RHO)

    def _check_gowers(self, job, outdir, ref, peers):
        r = _result(outdir, "gowers")
        _equal("length", r.get("length"), ref["length"])
        _close("norm", r.get("norm"), ref["norm"], rel=REL_GOWERS)

    def _check_verify_decompose(self, job, outdir, ref, peers):
        r = _result(outdir, "verify")
        rows = _csv(outdir, "verify_grid.csv")
        _equal("header", rows[0] if rows else None,
               ["N", "u", "phase", "rel_identity_error", "fitted_C"])
        _equal("cases", len(rows) - 1, len(ref["rows"]))
        worst_rel = worst_c = 0.0
        for row, want in zip(rows[1:], ref["rows"]):
            case = f"N={want['N']} u={want['u']} {want['phase']}"
            _equal(case, (int(row[0]), float(row[1]), row[2]),
                   (want["N"], want["u"], want["phase"]))
            rel, c = float(row[3]), float(row[4])
            _close(f"sigma1+sigma2 vs total ({case})", rel, 0.0, abs_=REL_IDENTITY)
            _close(f"fitted_C ({case})", c, want["fitted_C"], abs_=ABS_FITTED_C)
            worst_rel, worst_c = max(worst_rel, rel), max(worst_c, c)
        _equal("cases", r.get("cases"), len(ref["rows"]))
        _close("max_rel_identity_error", r.get("max_rel_identity_error"), worst_rel)
        _close("max_fitted_C", r.get("max_fitted_C"), worst_c)
        _equal("passed", r.get("passed"), worst_rel <= 1e-8 and worst_c <= 50.0)
