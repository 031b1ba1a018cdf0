"""Tests of the benchmark harness itself (not of ``friable``).

    python3 -m pytest -q perfbench
"""

import json
import math
import types

import pytest

import calibrate
import checks
import oracle
import run
import tracer
import worker
import workloads
from tracer import Span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, "j"),
        Span("a", 1.0, 4.0, 0, "j"),
        Span("b", 3.0, 6.0, 0, "j"),        # overlaps a (another thread)
        Span("a.child", 2.0, 3.0, 1, "j"),
        Span("late", 9.0, 12.0, 0, "j"),    # ends after its parent: clipped
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_self_time_of_a_leaf_is_its_duration():
    assert tracer.self_times([Span("x", 2.5, 4.0, None, "j")]) == [1.5]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv_and_seed_changes_only_values(workload):
    a, b = workloads.build(workload, 7), workloads.build(workload, 7)
    assert [j.argv for j in a] == [j.argv for j in b]
    other = workloads.build(workload, 8)
    assert [j.id for j in other] == [j.id for j in a]
    for x, y in zip(a, other):
        assert x.params.get("N") == y.params.get("N")
        assert len(x.argv) == len(y.argv)
    assert any(x.argv != y.argv for x, y in zip(a, other))


def test_benchmark_json_names_every_per_layer_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names))
    for job_id in workloads.all_job_ids():
        assert f"cli.job.{job_id}.s" in names
    assert {f"{n}.self_s" for n in worker.SELF_TIMED} <= set(names)


def test_reference_time_scales_each_job_by_the_calibrations_beside_it(tmp_path):
    cli = types.SimpleNamespace(run=lambda argv: 0)
    spec = {"jobs": [{"id": "a", "argv": []}, {"id": "b", "argv": []}],
            "outdir": str(tmp_path)}
    runner = worker.Campaigns(types.SimpleNamespace(cli=cli), spec, None)
    loop_times = iter([0.02, 0.04, 0.06])
    runner.calibrate = lambda: next(loop_times)
    campaign = runner.run_one(0, traced=False)
    a, b = campaign["jobs"]
    assert a["ref_s"] == pytest.approx(a["s"] * calibrate.REF_S / 0.03)
    assert b["ref_s"] == pytest.approx(b["s"] * calibrate.REF_S / 0.05)
    assert campaign["ref_s"] == pytest.approx(a["ref_s"] + b["ref_s"])
    assert campaign["wall_s"] == pytest.approx(a["s"] + b["s"])
    assert campaign["calibration_s"] == 0.04


def test_calibration_loop_is_timed_and_checked():
    loop = calibrate.Calibration()
    assert 0 < loop() < 10
    loop.expected = (0, 0, 0)
    with pytest.raises(RuntimeError):
        loop()


@pytest.fixture(scope="module")
def box_job_outputs(tmp_path_factory):
    """The box_product job run for real, once, in two campaign directories."""
    friable = worker.import_friable(run.ROOT)
    job = next(j for j in workloads.build("count_gowers", 3) if j.id == "box_product")
    out = tmp_path_factory.mktemp("out")
    for c in (0, 1):
        assert friable.cli.run(["--out", str(out / f"c{c}" / job.id)] + list(job.argv)) == 0
    return job, out


def _campaigns(job):
    return [{"index": c, "jobs": [{"id": job.id, "rc": 0, "error": None}]} for c in (0, 1)]


def test_correct_outputs_pass(box_job_outputs):
    job, out = box_job_outputs
    attempted, failures = run.tally(_campaigns(job), [job], checks.Checker([job]), out)
    assert (attempted, failures) == (2, [])


def test_corrupted_output_is_counted_as_failed(box_job_outputs, tmp_path):
    job, out = box_job_outputs
    bad = tmp_path / "out"
    for c in (0, 1):
        src, dst = out / f"c{c}" / job.id, bad / f"c{c}" / job.id
        dst.mkdir(parents=True)
        for f in src.iterdir():
            (dst / f.name).write_bytes(f.read_bytes())
    path = bad / "c1" / job.id / "count_result.json"
    doc = json.loads(path.read_text())
    doc["result"]["count"] += 1
    path.write_text(json.dumps(doc))
    campaigns = _campaigns(job)
    campaigns[0]["jobs"][0]["rc"] = 2        # a nonzero exit fails regardless of output
    attempted, failures = run.tally(campaigns, [job], checks.Checker([job]), bad)
    assert attempted == 2
    assert [(f["campaign"], f["reason"].split(":")[0]) for f in failures] == [
        (0, "exit code 2"), (1, "count")]


def test_exact_threshold_is_integer():
    assert oracle.friable_bound(97**3, 3.0) == 97
    assert oracle.friable_bound(97**3 - 1, 3.0) == 96
    assert oracle.friable_bound(10**6, 1.5) == 10**4
    assert oracle.power_bound(10**5, 0.8) == 10**4


def test_reference_rho_closed_forms():
    assert oracle.rho(1.5) == pytest.approx(1 - math.log(1.5), rel=1e-15)
    assert oracle.rho(3.0) == pytest.approx(0.048608388291131566, rel=1e-14)
    assert oracle.rho(0.5) == 1.0
