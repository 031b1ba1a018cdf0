"""The measured process: runs one workload's campaigns in-process.

Usage (started by ``run.py``, which pins the environment first):

    python3 perfbench/worker.py --probe ROOT     print one set-up time
    python3 perfbench/worker.py SPEC.json        run campaigns, write results

A campaign runs the workload's jobs back to back through
``friable.cli.run(argv)``; the next job starts only after the previous one
returned.  At least two campaigns run, and more while another one fits in
``seconds``.  A traced run alternates untraced and traced campaigns, so the
tracing overhead is measured in the same process.  The calibration loop
(``calibrate.py``) runs before the first job and after each job, outside the
jobs' timed regions, and gives each job's reference-speed time.  Nothing but
``friable.cli.run`` calls sits inside a timed region; per-job bytes and
lattice-point counts are taken after the campaign ends.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import REF_S, Calibration
from tracer import Tracer, self_times

SELF_TIMED = (
    "sieve.psi_count", "sieve.build_factor_sieve", "sieve.sifted_squarefree_arrays",
    "sieve.primes_up_to", "dickman.build_rho_table",
    "forms.count_friable_values", "forms.shared_factor_table", "forms.volume",
    "forms.main_term", "forms.validate_domain",
    "analytic.solve_saddle_alpha", "analytic.singular_series_s0",
    "analytic.singular_series_s1", "analytic.harper_prediction",
    "analytic.sifted_mobius_sum", "analytic.sifted_mu2_tail",
    "gowers.gowers_norm_cyclic", "gowers.gowers_norm_interval",
    "correlate.PhaseSequence.values", "correlate.balanced_friable", "correlate.h_tau",
    "correlate.sigma_split", "correlate.correlation", "cli.run",
)


def import_friable(root: Path):
    """Import ``friable.cli`` from ``root/src``, refusing any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import friable.cli  # noqa: F401  (binds the submodules on the package)
    import friable

    where = Path(friable.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"friable imported from {where}, not from {src}")
    return friable


def lazy_setup(friable) -> None:
    """What the first job of a fresh CLI process would otherwise build."""
    friable.dickman.default_table()
    friable.sieve.primes_up_to(2)


def probe(root: Path) -> float:
    start = time.perf_counter()
    friable = import_friable(root)
    lazy_setup(friable)
    return time.perf_counter() - start


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir()) if path.is_dir() else 0


class Campaigns:
    def __init__(self, friable, spec: dict, tracer: Tracer | None):
        self.friable = friable
        self.jobs = spec["jobs"]
        self.outdir = Path(spec["outdir"])
        self.tracer = tracer
        self.calibrate = Calibration()
        self.points: dict = {}

    def run_one(self, index: int, traced: bool) -> dict:
        run = self.friable.cli.run
        records, cpu = [], 0.0
        cal = [self.calibrate()]
        for job in self.jobs:
            out = self.outdir / f"c{index}" / job["id"]
            if traced:
                self.tracer.job = f"{index}:{job['id']}"
            c, t = time.process_time(), time.perf_counter()
            try:
                rc, error = run(["--out", str(out)] + job["argv"]), None
            except Exception:  # a crashing job is a failed job, not a failed run
                rc, error = None, traceback.format_exc(limit=4)
            seconds = time.perf_counter() - t
            cpu += time.process_time() - c
            cal.append(self.calibrate())
            records.append({"id": job["id"], "rc": rc, "error": error, "s": seconds,
                            "ref_s": seconds * REF_S / ((cal[-2] + cal[-1]) / 2)})
        for rec in records:
            rec["bytes"] = _dir_bytes(self.outdir / f"c{index}" / rec["id"])
        return {"index": index, "traced": traced,
                "wall_s": sum(rec["s"] for rec in records),
                "ref_s": sum(rec["ref_s"] for rec in records),
                "cpu_s": cpu, "calibration_s": statistics.median(cal), "jobs": records}

    def lattice_points(self, body) -> int:
        """Lattice points of a counted body, by the library's slab walker, untimed."""
        key = (body.kind, body.bounds if body.kind == "box" else body.rows)
        if key not in self.points:
            self.points[key] = self.friable.forms.lattice_point_count(body)
        return self.points[key]

    def layer_metrics(self, campaign: dict, spans) -> dict:
        """Per-layer metrics of one traced campaign plus the traced set-up."""
        selfs = self_times(spans)
        prefix = f"{campaign['index']}:"
        mine = [(s, st) for s, st in zip(spans, selfs)
                if s.job == "setup" or s.job.startswith(prefix)]
        by_name: dict[str, list] = {}
        for s, st in mine:
            by_name.setdefault(s.name, []).append((s, st))

        def spans_of(name):
            return [s for s, _ in by_name.get(name, [])]

        def total(name):
            return sum((s.end - s.start for s in spans_of(name)), 0.0)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        m = {f"{name}.self_s": sum((st for _, st in by_name.get(name, [])), 0.0)
             for name in SELF_TIMED}
        psi = spans_of("sieve.psi_count")
        m["sieve.psi_count.n_per_s"] = rate(sum(s.size[0] for s in psi), total("sieve.psi_count"))
        by_problem: dict = {}
        for s in psi:
            N, y, threads = s.size
            by_problem.setdefault((N, y), {}).setdefault(threads, 0.0)
            by_problem[(N, y)][threads] += s.end - s.start
        pairs = [t for t in by_problem.values() if 1 in t and 2 in t]
        m["sieve.psi_count.t2_speedup"] = rate(sum(t[1] for t in pairs),
                                               sum(t[2] for t in pairs))
        m["sieve.build_factor_sieve.entries"] = sum(s.size for s in spans_of("sieve.build_factor_sieve"))
        evals = spans_of("dickman.DickmanTable.eval")
        m["dickman.DickmanTable.eval.calls"] = len(evals)
        m["dickman.DickmanTable.eval.us_per_call"] = 1e6 * rate(
            total("dickman.DickmanTable.eval"), len(evals))
        m["dickman.rho.calls"] = len(spans_of("dickman.rho"))
        points = sum(self.lattice_points(s.size) for s in spans_of("forms.count_friable_values"))
        m["forms.count_friable_values.points"] = points
        m["forms.count_friable_values.points_per_s"] = rate(points, total("forms.count_friable_values"))
        m["forms.shared_factor_table.entries"] = sum(s.size for s in spans_of("forms.shared_factor_table"))
        m["gowers.modulus"] = sum(s.size for s in spans_of("gowers.gowers_norm_cyclic")
                                  + spans_of("gowers.gowers_norm_interval"))
        m["correlate.PhaseSequence.values.entries_per_s"] = rate(
            sum(s.size for s in spans_of("correlate.PhaseSequence.values")),
            total("correlate.PhaseSequence.values"))
        m["cli.output_bytes"] = sum(rec["bytes"] for rec in campaign["jobs"])
        for rec in campaign["jobs"]:
            m[f"cli.job.{rec['id']}.s"] = rec["s"]
        m["proc.cpu_s"] = campaign["cpu_s"]
        return m


def main(spec_path: Path) -> None:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    start = time.perf_counter()
    friable = import_friable(Path(spec["root"]))
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install(friable)
    lazy_setup(friable)
    setup_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()

    runner = Campaigns(friable, spec, tracer)
    campaigns, layers = [], []
    first = time.perf_counter()
    index = 0
    while True:
        traced = bool(tracer) and index % 2 == 1
        if traced:
            tracer.install(friable)
        campaign = runner.run_one(index, traced)
        if traced:
            tracer.uninstall()
            layers.append(runner.layer_metrics(campaign, tracer.spans))
        campaigns.append(campaign)
        index += 1
        # at least two campaigns; a further one starts only if one as long as
        # the last still fits
        elapsed = time.perf_counter() - first
        if index >= 2 and elapsed + campaign["wall_s"] > spec["seconds"]:
            break

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "campaigns": campaigns,
        "layers": {k: statistics.median(d[k] for d in layers) for k in layers[0]} if layers else {},
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    if tracer:
        spans = [[s.name, s.start, s.end, s.parent, s.job] for s in tracer.spans]
        Path(spec["spans"]).write_text(json.dumps(spans), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--probe":
        print(repr(probe(Path(sys.argv[2]))))
    elif len(sys.argv) == 2:
        main(Path(sys.argv[1]))
    else:
        sys.exit(__doc__)
