#!/usr/bin/env python3
"""Benchmark of the ``friable`` CLI: closed-loop verification campaigns.

    python3 perfbench/run.py --workload count_gowers --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  One client in one process runs a workload's
job list back to back through ``friable.cli.run(argv)`` (see ``worker.py``),
repeating the campaign at least twice and while another one fits in
``--seconds``.  Every job's output is then checked against references that do not use ``friable`` (see
``checks.py``).  With ``--trace 0`` the end-to-end metrics of BENCHMARK.json
are printed; with ``--trace 1`` the per-layer ones, from a run whose
campaigns alternate untraced and traced.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Provenance (machine, versions, commit, seed, every job's argv) and the
spans of a traced run go to ``.bench_runs/`` in the repository root.
"""

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# setup_s is the median of this many fresh processes, half timed before the
# campaigns and half after, so one burst of interference cannot cover them all
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150


def pin_environment() -> None:
    """Thread counts fixed at 1 before numpy loads; inherited by every child."""
    os.environ.pop("FRIABLE_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a job failing)."""


def _spec_metrics() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, jobs) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "replay": ["friable " + shlex.join(job.argv) for job in jobs],
    }


def _python(args, timeout):
    try:
        return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, text=True, check=True).stdout
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within {timeout} s") from None
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"{args[0]} exited with code {exc.returncode}") from None


def setup_times(count: int) -> list[float]:
    """Import-plus-lazy-set-up seconds of ``count`` fresh processes."""
    return [float(_python([WORKER, "--probe", ROOT], 60)) for _ in range(count)]


def tally(campaigns, jobs, checker, outdir: Path) -> tuple[int, list[dict]]:
    """Jobs attempted, and every failed one: raised, exited nonzero or wrong output."""
    by_id = {j.id: j for j in jobs}
    attempted, failures = 0, []
    for c in campaigns:
        peers = {rec["id"]: outdir / f"c{c['index']}" / rec["id"] for rec in c["jobs"]}
        for rec in c["jobs"]:
            attempted += 1
            if rec["error"] is not None:
                reason = "raised: " + rec["error"].strip().splitlines()[-1]
            elif rec["rc"] != 0:
                reason = f"exit code {rec['rc']}"
            else:
                reason = checker.check(by_id[rec["id"]], peers[rec["id"]], peers)
            if reason:
                failures.append({"campaign": c["index"], "job": rec["id"], "reason": reason})
    return attempted, failures


def run_workload(workload: str, seed: int, seconds: int, trace: bool, names: dict) -> dict:
    import checks

    if not (ROOT / "src" / "friable" / "cli.py").is_file():
        raise BenchError(f"no friable sources under {ROOT / 'src'}")
    jobs = workloads.build(workload, seed)
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    tmp = Path(tempfile.mkdtemp(prefix=stem + "-", dir=runs))
    try:
        probes = []
        if not trace:
            setup_times(1)  # fills the file cache and bytecode; not counted
            probes = setup_times(SETUP_PROBES // 2)
        spec = {"root": str(ROOT), "jobs": [{"id": j.id, "argv": list(j.argv)} for j in jobs],
                "seconds": seconds, "trace": trace, "outdir": str(tmp / "out"),
                "result": str(tmp / "worker.json"), "spans": str(runs / f"{stem}.spans.json")}
        (tmp / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        _python([WORKER, tmp / "spec.json"], WORKER_TIMEOUT_S)
        worker = json.loads((tmp / "worker.json").read_text(encoding="utf-8"))
        if not trace:
            probes += setup_times(SETUP_PROBES - len(probes))

        attempted, failures = tally(worker["campaigns"], jobs, checks.Checker(jobs), tmp / "out")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [c for c in worker["campaigns"] if not c["traced"]]
    walls = [c["wall_s"] for c in untraced]
    if trace:
        traced = [c["wall_s"] for c in worker["campaigns"] if c["traced"]]
        metrics = dict(worker["layers"])
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        metrics["proc.wall_s"] = statistics.median(walls)
        metrics["proc.calibration_s"] = statistics.median(c["calibration_s"] for c in untraced)
        for job_id in workloads.all_job_ids():
            metrics.setdefault(f"cli.job.{job_id}.s", 0.0)  # jobs of other workloads
        wanted = names["per_layer"]
    else:
        metrics = {
            "wall_ref_s": statistics.median(c["ref_s"] for c in untraced),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": worker["peak_rss_mb"],
            "ok_frac": (attempted - len(failures)) / attempted,
        }
        wanted = names["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    record = provenance(workload, seed, jobs)
    record.update(seconds=seconds, trace=trace, setup_probes_s=probes,
                  worker_setup_s=worker["setup_s"], failures=failures,
                  campaigns=[{k: c[k] for k in ("index", "traced", "wall_s", "ref_s", "cpu_s",
                                                "calibration_s")}
                             | {"jobs": {r["id"]: r["s"] for r in c["jobs"]},
                                "jobs_ref": {r["id"]: r["ref_s"] for r in c["jobs"]}}
                             for c in worker["campaigns"]])
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {"provenance": record, "attempted": attempted, "failures": failures,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def _report(workload: str, out: dict) -> None:
    p = out["provenance"]
    print(f"# {workload}: seed {p['seed']}, {p['nproc']} cpus ({p['cpu']}), python "
          f"{p['python']}, numpy {p['numpy']}, scipy {p['scipy']}, commit {p['commit']}")
    for line in p["replay"]:
        print(f"#   {line}")
    for f in out["failures"]:
        print(f"# FAILED campaign {f['campaign']} job {f['job']}: {f['reason']}")
    for name, m in out["metrics"].items():
        print(f"{workload} {name} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_environment()
    try:
        names = _spec_metrics()
        chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in chosen:
            results[w] = run_workload(w, args.seed, max(1, args.seconds), bool(args.trace), names)
            _report(w, results[w])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
