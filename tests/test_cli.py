import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import friable
import oracles
from friable import analytic, cli, config, correlate, criteria, dickman, forms, gowers, sieve
from friable.errors import ArgumentError


def run_cli(tmp_path, *argv):
    return cli.run(["--out", str(tmp_path / "out"), *argv])


def read_result(tmp_path, command):
    return json.loads((tmp_path / "out" / f"{command}_result.json").read_text())


def read_manifest(tmp_path, command):
    return json.loads((tmp_path / "out" / f"{command}_manifest.json").read_text())


def test_dickman_prints_value(tmp_path, capsys):
    assert run_cli(tmp_path, "dickman", "--u", "2") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("0.30685281944")
    payload = read_result(tmp_path, "dickman")
    assert abs(payload["result"]["rho"] - (1 - math.log(2))) < 1e-9


def test_dickman_table_csv(tmp_path):
    assert run_cli(tmp_path, "dickman", "--table", "3", "0.5") == 0
    rows = (tmp_path / "out" / "dickman_table.csv").read_text().strip().splitlines()
    assert rows[0] == "u,rho"
    assert len(rows) == 8  # u = 0, 0.5, ..., 3.0
    first = rows[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_count_pipeline(tmp_path):
    assert (
        run_cli(
            tmp_path,
            "count",
            "--forms",
            "x1;x2;x1+x2",
            "--body",
            "simplex:1,N",
            "--N",
            "300",
            "--u",
            "2,2,2",
        )
        == 0
    )
    payload = read_result(tmp_path, "count")
    system = forms.parse_form_system("x1;x2;x1+x2")
    body = forms.ConvexBody.simplex(2, 1, 300)
    expected = forms.count_friable_values(system, body, 300, (2.0, 2.0, 2.0))
    assert payload["result"]["count"] == expected
    assert payload["result"]["volume"] == 298**2 / 2 and "volume_exact" not in payload["result"]
    assert payload["result"]["ratio"] == pytest.approx(
        expected / payload["result"]["main_term"]
    )


def test_manifest_replay_digest(tmp_path):
    args = ("saddle", "--N", "1000", "--y", "50")
    assert run_cli(tmp_path, *args) == 0
    first = read_manifest(tmp_path, "saddle")
    assert run_cli(tmp_path, *args) == 0
    second = read_manifest(tmp_path, "saddle")
    assert first["output_digest"] == second["output_digest"]
    assert first["version"] == second["version"]
    assert list(first) == ["command", "params", "version", "threads", "wall_clock_s",
                           "peak_rss_mb", "output_digest", "output_files"]


def test_manifest_records_peak_memory_outside_the_digest(tmp_path):
    # the pinned digest of `dickman --u 2` (see test_fixed_outputs_are_unchanged)
    assert run_cli(tmp_path, "dickman", "--u", "2") == 0
    manifest = read_manifest(tmp_path, "dickman")
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0.0
    assert manifest["output_digest"] == (
        "68de92a9d32c6bcd60f9ed60efd64d32d0edc7697b36b12cfe3c260a27d5709a"
    )


def test_count_digest_stable_despite_elapsed(tmp_path):
    args = ("count", "--forms", "x1", "--body", "box:1,N", "--N", "500", "--u", "2")
    assert run_cli(tmp_path, *args) == 0
    d1 = read_manifest(tmp_path, "count")["output_digest"]
    assert run_cli(tmp_path, *args) == 0
    d2 = read_manifest(tmp_path, "count")["output_digest"]
    assert d1 == d2


def test_result_serialization_precision(tmp_path):
    assert run_cli(tmp_path, "saddle", "--N", "10000", "--y", "100") == 0
    text = (tmp_path / "out" / "saddle_result.json").read_text()
    # 17 significant digits for the root
    assert "0.72465913048446762" in text


def test_exit_codes(tmp_path, capsys):
    assert run_cli(tmp_path, "sieve", "--lo", "9", "--hi", "3") == 2
    assert run_cli(tmp_path, "count", "--forms", "x1;2x1+1", "--body", "box:1,N;1,N",
                   "--N", "50", "--u", "2,2") == 2
    assert run_cli(tmp_path, "sieve", "--lo", "0", "--hi", str(2**33)) == 3
    assert cli.run(["bogus"]) == 64
    assert cli.run(["count", "--badflag"]) == 64
    # dickman takes exactly one of --u and --table, and no tolerance
    assert run_cli(tmp_path, "dickman") == 64
    assert run_cli(tmp_path, "dickman", "--u", "3", "--table", "5", "1") == 64
    assert run_cli(tmp_path, "dickman", "--u", "3", "--tol", "1e-6") == 64
    assert run_cli(tmp_path, "verify", "--suite", "nope") == 2
    assert run_cli(tmp_path, "verify", "--suite", "dickman", "--N", "100") == 2
    assert run_cli(tmp_path, "harper", "--N", "10", "--y", "20") == 2  # y > N
    assert run_cli(tmp_path, "correlate", "--N", "100", "--u", "2", "--phase", "linear:abc") == 2
    assert run_cli(tmp_path, "gowers", "--input", "balanced:x:2", "--k", "2") == 2
    assert run_cli(tmp_path, "dickman", "--table", "20", "0") == 2
    assert run_cli(tmp_path, "dickman", "--table", "2", "-0.5") == 2
    assert run_cli(tmp_path, "dickman", "--table", "2", "nan") == 2
    assert run_cli(tmp_path, "dickman", "--table", "-1", "0.5") == 2
    assert run_cli(tmp_path, "dickman", "--table", "20", "1e-6") == 3  # 2e7 rows
    assert run_cli(tmp_path, "saddle", "--N", "10", "--y", "1e9") == 2  # y > N
    assert run_cli(tmp_path, "saddle", "--N", "10000000000", "--y", "1e9") == 3  # primes budget
    # non-finite numbers and unreadable files: one error line, no traceback
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("1\nnan\n0.5\n")
    wide_csv = tmp_path / "wide.csv"
    wide_csv.write_text("1,0,5\n0.5\n")
    capsys.readouterr()
    for argv in [
        ("dickman", "--u", "nan"),
        ("correlate", "--N", "1000", "--u", "2", "--phase", "linear:nan"),
        ("correlate", "--N", "1000", "--u", "2", "--phase", "quadratic:0.3,nan"),
        ("correlate", "--N", "1000", "--u", "2", "--phase", "linear:inf"),
        ("gowers", "--input", str(tmp_path), "--k", "2"),
        ("gowers", "--input", str(nan_csv), "--k", "2", "--mode", "cyclic"),
        ("gowers", "--input", str(wide_csv), "--k", "2"),
    ]:
        assert run_cli(tmp_path, *argv) == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


def test_gowers_csv_input(tmp_path):
    data = tmp_path / "seq.csv"
    data.write_text("1\n0.5,0.5\n-0.25\n0,1\n")
    assert run_cli(tmp_path, "gowers", "--input", str(data), "--k", "2", "--mode", "cyclic") == 0
    payload = read_result(tmp_path, "gowers")
    assert payload["result"]["length"] == 4
    assert 0.0 < payload["result"]["norm"] <= 1.0
    data.write_text("1\nabc\n")
    assert run_cli(tmp_path, "gowers", "--input", str(data), "--k", "2") == 2


def test_gowers_preset_input(tmp_path):
    assert run_cli(tmp_path, "gowers", "--input", "balanced:256:2", "--k", "2") == 0
    assert read_result(tmp_path, "gowers")["result"]["norm"] > 0
    # a linear phase has full interval U^2 norm: its second derivative is 1
    assert run_cli(tmp_path, "gowers", "--input", "linear_golden:512", "--k", "2") == 0
    assert read_result(tmp_path, "gowers")["result"]["norm"] == pytest.approx(1.0, abs=1e-9)
    assert run_cli(tmp_path, "gowers", "--input", "no_such_thing", "--k", "2") == 2


def test_correlate_and_decompose(tmp_path):
    assert run_cli(tmp_path, "correlate", "--N", "2000", "--u", "2", "--phase", "linear_golden") == 0
    c = read_result(tmp_path, "correlate")["result"]
    assert c["correlation_abs"] == pytest.approx(
        math.hypot(c["correlation_re"], c["correlation_im"])
    )
    assert run_cli(tmp_path, "decompose", "--N", "2000", "--u", "2", "--phase", "bracket_golden") == 0
    d = read_result(tmp_path, "decompose")["result"]
    total = complex(d["total"]["re"], d["total"]["im"])
    s = complex(d["sigma1"]["re"], d["sigma1"]["im"]) + complex(
        d["sigma2"]["re"], d["sigma2"]["im"]
    )
    assert abs(total - s) <= 1e-8 * max(abs(total), 1.0)


def test_verify_suite_writes_table(tmp_path):
    assert run_cli(tmp_path, "verify", "--suite", "theorem1", "--N", "200") == 0
    payload = read_result(tmp_path, "verify")
    assert "passed" in payload["result"]
    csv_text = (tmp_path / "out" / "verify_ratios.csv").read_text()
    assert csv_text.splitlines()[0].startswith("u1,u2,u3,count")


def test_verify_hildebrand_suite(tmp_path):
    assert run_cli(tmp_path, "verify", "--suite", "hildebrand") == 0
    payload = read_result(tmp_path, "verify")
    assert payload["result"]["passed"] is True
    rows = (tmp_path / "out" / "verify_ratios.csv").read_text().strip().splitlines()
    assert len(rows) == 5  # header + one row per u


def test_verify_mertens_suite(tmp_path):
    assert run_cli(tmp_path, "verify", "--suite", "mertens") == 0
    payload = read_result(tmp_path, "verify")
    assert payload["result"]["passed"] is True
    rows = (tmp_path / "out" / "verify_errors.csv").read_text().strip().splitlines()
    assert len(rows) == 5


def test_mertens_sifts_once(tmp_path, monkeypatch):
    calls = []
    sift = sieve.sifted_squarefree_arrays

    def spy(limit, y):
        calls.append((limit, y))
        return sift(limit, y)

    monkeypatch.setattr(sieve, "sifted_squarefree_arrays", spy)
    assert run_cli(tmp_path, "mertens", "--N", "100000", "--u", "2", "--tau", "0.2") == 0
    result = read_result(tmp_path, "mertens")["result"]
    assert calls == [(100000, 316)]
    assert result["sum"] == analytic.sifted_sums(100000, 2.0)[0]
    assert result["mu2_tail"] == analytic.sifted_sums(100000, 2.0, 0.2)[1]


def test_verify_product_suite(tmp_path):
    assert run_cli(tmp_path, "verify", "--suite", "product") == 0
    assert read_result(tmp_path, "verify")["result"]["passed"] is True


def test_verify_harper_suite_small(tmp_path):
    assert run_cli(tmp_path, "verify", "--suite", "harper", "--N", "2000") == 0
    result = read_result(tmp_path, "verify")["result"]
    assert result["count"] > 0 and result["prediction"] > 0
    assert "ratio" in result and "passed" in result


def test_sized_suites_at_small_sizes(tmp_path, capsys):
    # every size either runs or is refused with one error line and exit 2
    for suite in ("hildebrand", "theorem1", "product", "harper"):
        for n in [*range(-1, 14), 99, 100]:
            code = run_cli(tmp_path, "verify", "--suite", suite, "--N", str(n))
            err = capsys.readouterr().err
            assert code in (0, 2), (suite, n, code)
            if code == 2:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (suite, n, err)


def test_the_cli_imports_without_scipy():
    src = os.path.dirname(os.path.dirname(friable.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, friable.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [("dickman", "--u", "2"), ("dickman", "--table", "3", "0.5")])
def test_closed_stdout_exits_141_without_a_traceback(tmp_path, argv):
    # stdout is a pipe whose read end is closed before the CLI starts, as
    # after `friable ... | head -0`
    src = os.path.dirname(os.path.dirname(friable.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "friable", "--out", str(tmp_path / "out"), *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 141
    assert out.stderr == ""


def test_threads_flag_is_applied_and_validated(tmp_path, monkeypatch, capsys):
    sieved = []
    friable_masks = sieve.friable_masks

    def spy(N, ys):
        sieved.append(N)
        return friable_masks(N, ys)

    monkeypatch.setattr(sieve, "friable_masks", spy)
    count = ("count", "--forms", "x1; x2; x1+x2", "--body", "simplex:1,N",
             "--N", "5000", "--u", "2,2,2")
    # count runs in one thread: the manifest records T, the digest ignores it
    manifests = []
    for threads in ("1", "3"):
        assert run_cli(tmp_path, "--threads", threads, *count) == 0
        manifests.append(read_manifest(tmp_path, "count"))
    assert [m["threads"] for m in manifests] == [1, 3]
    assert manifests[0]["output_digest"] == manifests[1]["output_digest"]
    capsys.readouterr()
    for threads in ("0", "-1"):
        assert run_cli(tmp_path, "--threads", threads, *count) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: thread count must be >= 1"], err
    assert sieved == [5000, 5000]  # refused before any sieving
    assert run_cli(tmp_path, "--config", "f", *count) == 64
    # gowers: the flag reaches the norm, and the default is the usable CPUs
    norm_cyclic = gowers.gowers_norm_cyclic
    norm_threads = []

    def norm_spy(f, k, *, threads=1):
        norm_threads.append(threads)
        return norm_cyclic(f, k, threads=threads)

    monkeypatch.setattr(gowers, "gowers_norm_cyclic", norm_spy)
    u3 = ("gowers", "--input", "balanced:1023:2", "--k", "3", "--mode", "cyclic")
    assert run_cli(tmp_path, "--threads", "3", *u3) == 0
    assert read_manifest(tmp_path, "gowers")["threads"] == 3
    assert run_cli(tmp_path, *u3) == 0
    assert read_manifest(tmp_path, "gowers")["threads"] == config.usable_cpus()
    assert norm_threads == [3, config.usable_cpus()]
    for threads in ("0", "-1"):
        assert run_cli(tmp_path, "--threads", threads, *u3) == 2
    assert norm_threads == [3, config.usable_cpus()]
    # without an affinity mask the default is the CPU count, and 1 if unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert config.usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert config.usable_cpus() == 6


def test_one_parser_serves_every_run(tmp_path, monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    # a refused argv, half parsed into a subcommand, leaves the shared
    # parser as it was: the next run gives the pinned digest
    assert run_cli(tmp_path, "dickman", "--u", "2", "--table", "3", "1") == 64
    assert run_cli(tmp_path, "count", "--forms", "x1", "--N", "5") == 64
    assert run_cli(tmp_path, "dickman", "--u", "2") == 0
    assert read_manifest(tmp_path, "dickman")["output_digest"] == (
        "68de92a9d32c6bcd60f9ed60efd64d32d0edc7697b36b12cfe3c260a27d5709a"
    )
    # the --threads default is read on each run, not when the parser is built
    for cpus in (5, 1):
        monkeypatch.setattr(config, "usable_cpus", lambda: cpus)
        assert run_cli(tmp_path, "dickman", "--u", "2") == 0
        assert read_manifest(tmp_path, "dickman")["threads"] == cpus
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.run(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in cli._DISPATCH), out


def test_harper_reports_the_trivial_bound(tmp_path):
    assert run_cli(tmp_path, "harper", "--N", "1000000", "--y", "20") == 0
    result = read_result(tmp_path, "harper")["result"]
    assert result["psi_squared"] == result["psi"] ** 2
    assert result["within_trivial_bound"] is False


def _as_hpoly_spec(lows_highs):
    d = len(lows_highs)
    rows = []
    for j, (lo, hi) in enumerate(lows_highs):
        unit = [int(i == j) for i in range(d)]
        rows.append(",".join(str(-c) for c in unit) + f",-{lo}")
        rows.append(",".join(str(c) for c in unit) + f",{hi}")
    return "hpoly:" + ";".join(rows)


@pytest.mark.parametrize("d, bounds, N", [
    (2, [("1/2", "30"), ("2", "41/3")], 44),  # rational ends; x1 + x2 reaches 43 2/3
    (8, [("1", "50")] * 8, 400),              # the sum form reaches exactly 400
])
def test_box_written_as_hpoly_is_the_same_body(d, bounds, N):
    spec = "; ".join(f"x{j}" for j in range(1, d + 1)) + "; " + "+".join(
        f"x{j}" for j in range(1, d + 1))
    system = forms.parse_form_system(spec)
    box = cli.parse_body_spec("box:" + ";".join(f"{lo},{hi}" for lo, hi in bounds), d)
    hpoly = cli.parse_body_spec(_as_hpoly_spec(bounds), d)
    assert (box.kind, hpoly.kind) == ("box", "hpoly")
    assert forms.volume(box) == forms.volume(hpoly) == math.prod(
        Fraction(hi) - Fraction(lo) for lo, hi in bounds)
    for n in (N - 1, N):  # the sum form leaves [0, N - 1] on both
        valid = {forms.validate_domain(system, body, n) for body in (box, hpoly)}
        assert valid == {n == N}
    u = (2.0,) * system.count
    assert forms.count_friable_values(system, box, N, u) == forms.count_friable_values(
        system, hpoly, N, u
    )


def test_parse_helpers():
    body = cli.parse_body_spec("box:0,10;0,10", 2)
    assert body.kind == "box"
    body = cli.parse_body_spec("hpoly:1,0,5;-1,0,0;0,1,5;0,-1,0", 2)
    assert body.kind == "hpoly" and oracles.contains(body, (3, 3))
    with pytest.raises(ArgumentError):
        cli.parse_body_spec("box:0,10", 2)
    with pytest.raises(ArgumentError):
        cli.parse_body_spec("orb:1", 1)
    assert cli.parse_u_list("2,2.5,3") == [2.0, 2.5, 3.0]
    with pytest.raises(ArgumentError):
        cli.parse_u_list("2,x")
    p = cli.parse_phase_spec("quadratic:0.41")
    assert isinstance(p, correlate.PhaseSequence) and p.kind == "quadratic"
    with pytest.raises(ArgumentError):
        cli.parse_phase_spec("warp:1,2")


def test_dump_json_formats():
    text = cli.dump_json({"a": 1, "b": 0.1, "c": [True, None, "x\"y"]})
    parsed = json.loads(text)
    assert parsed["a"] == 1 and parsed["c"][0] is True and parsed["c"][2] == 'x"y'
    assert "0.10000000000000001" in text  # 17 significant digits


def _csv_sha256(tmp_path, name):
    return hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()


def test_fixed_outputs_are_unchanged(tmp_path):
    # refactor oracle: exact outputs of fast commands, pinned from the CLI itself
    assert run_cli(tmp_path, "sieve", "--lo", "0", "--hi", "100000", "--csv") == 0
    assert _csv_sha256(tmp_path, "sieve_table.csv") == (
        "4183960ed260f9f841032f8c5cec794c284ec56cd19f33f792c6c0ea17d7aabc"
    )
    # every other table producer: float columns, the knot rows u = 20 and
    # u = 3 (right-hand pieces), and the suites' mixed int/float/bool/text rows
    for argv, name, digest in [
        (("dickman", "--table", "20", "0.002"), "dickman_table.csv",
         "8755ec88c88e7e0da7637647663ce8b85247b0ae2ec07ebe83f7869586bfbd99"),
        (("dickman", "--table", "3", "0.01"), "dickman_table.csv",
         "39aa8b6add4bb840826650e458b3a023eed9aa53f2c0a3fd236415362395e815"),
        (("verify", "--suite", "hildebrand"), "verify_ratios.csv",
         "e8cd57cf8a712043414393f91248e54d55a257324761f6fbcb54f3c531af3683"),
        (("verify", "--suite", "decompose"), "verify_grid.csv",
         "c923d072871f234b1bb6778d71e8bfb643db4a3554dbbba2b45c7d5dd7f78748"),
        (("verify", "--suite", "gowers"), "verify_norms.csv",
         "cf85524c9352b1b6eca1f4d3f2d8ef15110847d58dc1c08ac126c35703883be4"),
    ]:
        assert run_cli(tmp_path, *argv) == 0
        assert _csv_sha256(tmp_path, name) == digest, argv
    # rho at knots inside and beyond the default table, Gowers norms of real
    # and complex presets, the correlations and the Sigma splits: the
    # manifests' output digests
    for argv, digest in [
        (("dickman", "--u", "2"),
         "68de92a9d32c6bcd60f9ed60efd64d32d0edc7697b36b12cfe3c260a27d5709a"),
        (("dickman", "--u", "20"),
         "f69659169b28731d6a9d099a2d44e4bd13c4c73d8a8c4c442e62b8fbcf93c47d"),
        (("dickman", "--u", "25"),
         "f2ec745a82321d13cae5a355704bc1231a23e3d4f976684df4bcefcf282c0092"),
        (("gowers", "--input", "balanced:262143:2", "--k", "2"),
         "2a09478e83e49a9ae2857bc388a79669630ab09475a2dc8388f7d730efa7d6dc"),
        (("gowers", "--input", "balanced:511:2", "--k", "3"),
         "0f8dc601ca6e97b227672921f4078475697c7ccfdd2542e441857db0a9d118a8"),
        (("gowers", "--input", "balanced:4095:2", "--k", "3", "--mode", "cyclic"),
         "597b65ab8cd702a3875ff2cee8897107996cee7b430e4fc4c178483a3c8e44d7"),
        (("gowers", "--input", "balanced:255:2", "--k", "4", "--mode", "cyclic"),
         "9db4b6d9bfda86875befb72ccc9d58df53ceb677ff9eda0b4351285e07fa752e"),
        (("gowers", "--input", "linear_golden:255", "--k", "4", "--mode", "cyclic"),
         "451bd0073f56964e3525156d422aa08f58903104bb4af51df087843ab4160680"),
        (("gowers", "--input", "quadratic_sqrt2:511", "--k", "3"),
         "c3557ce625388124bc16d69fcbfa82c8f6e634a7d19ff32e4e85bf93a33dad0e"),
        (("gowers", "--input", "bracket_golden:1000", "--k", "2"),
         "bd06c2d38823bb133e2a9815b1a0763ff4c1005a797c35f80a5375a09d11c018"),
        (("correlate", "--N", "100000", "--u", "2.0", "--tau", "0.2", "--phase", "bracket:0.3,0.7"),
         "cb68085e3467ad90ef417b182988d99548ea7ead69fa74908c86d9fc6a784708"),
        (("correlate", "--N", "20000", "--u", "1.5", "--phase", "quadratic_sqrt2"),
         "9340bfbaf9f9b11b80caf7dd8b8366a229cd99e0ce80f53aa193ebf1d687027d"),
        (("decompose", "--N", "100000", "--u", "2.5", "--phase", "linear_golden"),
         "84d79d1e26bfe63acf622c5e9bfe7ca07772dd4f858e5ca3bb440a1c8822892c"),
        (("decompose", "--N", "5000", "--u", "3", "--tau", "0.3", "--phase", "bracket:0.07,0.13"),
         "3e9e6284fd24bd3b809db99ce6d7c74590344fadd5a3f1182c35f9c99902c8d9"),
    ]:
        assert run_cli(tmp_path, *argv) == 0
        assert read_manifest(tmp_path, argv[0])["output_digest"] == digest, argv
    count = ("count", "--forms", "x1; x2; x1+x2", "--body", "simplex:1,N", "--N", "2000")
    assert run_cli(tmp_path, *count, "--u", "2,2,2") == 0
    assert read_result(tmp_path, "count")["result"]["count"] == 174658
    assert run_cli(tmp_path, "mertens", "--N", "1000000", "--u", "2", "--tau", "0.2") == 0
    result = read_result(tmp_path, "mertens")["result"]
    assert result["sum"] == 0.31075202760741483
    assert result["mu2_tail"] == 0.22286461551045639
    for u, total, tail in [
        ("1.5", 0.5957318476658879, 0.2228646155104564),
        ("2.5", 0.13954515793446468, 0.2660986708373564),
        ("3", 0.056020343628373444, 0.3334421073776131),
    ]:
        assert run_cli(tmp_path, "mertens", "--N", "1000000", "--u", u, "--tau", "0.2") == 0
        result = read_result(tmp_path, "mertens")["result"]
        assert (result["sum"], result["mu2_tail"]) == (total, tail), u
    assert analytic.harper_prediction(10**7, 1000).s0 == 1.0827729829009083
    # through the library: slab-walker counts (the cut triangle and a 4-term
    # progression x1 + j x2) and the subset audit's exact sums
    harper = forms.parse_form_system("x1; x2; x1+x2")
    cut = forms.ConvexBody.halfspaces([[-1, 0], [0, -1], [1, 1], [1, -1]], [-1, -1, 20000, 6666])
    assert forms.count_friable_values(harper, cut, 20000, (2.0, 2.5, 3.0)) == 1443284
    ap4 = forms.parse_form_system("x1; x1+x2; x1+2x2; x1+3x2")
    ap_body = forms.ConvexBody.halfspaces([[-1, 0], [0, -1], [1, 3]], [-1, -1, 4000])
    assert forms.count_friable_values(ap4, ap_body, 4000, (2.0,) * 4) == 104205
    audit = oracles.subset_decomposition_bound(
        harper, forms.ConvexBody.simplex(2, 1, 1200), 1200, (2.0, 2.0, 2.0)
    )
    assert audit.count == 63476
    assert list(audit.subset_sums.values()) == [
        127542.081694826, 127542.081694826, 18468.08169482603, 15808.970446274207,
        7263.634873878529, 7263.63487387853, 7624.413385191269,
    ]


def test_each_phase_is_built_once(tmp_path, monkeypatch):
    # criterion 7 needs the 3 phases at each of its 3 sizes, whatever u is;
    # correlate --tau dots h and h_tau against one phase array
    calls = []
    values = correlate.PhaseSequence.values

    def spy(self, N):
        calls.append((self.kind, N))
        return values(self, N)

    monkeypatch.setattr(correlate.PhaseSequence, "values", spy)
    criteria.decompose()
    assert len(calls) == len(set(calls)) == 9
    calls.clear()
    argv = ("correlate", "--N", "20000", "--u", "2", "--tau", "0.3", "--phase", "bracket_golden")
    assert run_cli(tmp_path, *argv) == 0
    assert calls == [("bracket", 20000)]


def test_count_reports_the_exact_volume_of_a_cut_triangle(tmp_path):
    argv = ("count", "--forms", "x1; x2; x1+x2", "--body", "hpoly:-1,0,-1;0,-1,-1;1,1,N;1,-1,6666",
            "--N", "20000", "--u", "2,2.5,3")
    assert run_cli(tmp_path, *argv) == 0
    result = read_result(tmp_path, "count")["result"]
    assert result["count"] == 1443284
    assert result["volume"] == 155524446.0


def test_count_refuses_an_oversized_convolution_before_sieving(tmp_path, monkeypatch):
    # at N = 10^6 this system counts in about a second; at 2*10^6 an entry
    # of its convolution could pass 2^40, and a slab walk would take about
    # 2*10^12 runs, so the count exits 3 before any mask is sieved
    def refuse(*args, **kwargs):
        raise AssertionError("the count should refuse before sieving")

    monkeypatch.setattr(sieve, "friable_masks", refuse)
    start = time.perf_counter()
    assert run_cli(tmp_path, "count", "--forms", "x1; x2; x3; x1+x2+x3", "--body",
                   "simplex:1,N", "--N", "2000000", "--u", "2,2,2,2") == 3
    assert time.perf_counter() - start < 5.0


def test_gowers_refuses_before_building(tmp_path):
    # the modulus is checked before the input sequence exists
    for spec, mode in [
        ("linear_golden:16000000", "interval"),
        ("linear_golden:16000000", "cyclic"),
        ("balanced:16000000:2", "interval"),
    ]:
        tracemalloc.start()
        try:
            code = run_cli(tmp_path, "gowers", "--input", spec, "--k", "2", "--mode", mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3, spec
        assert peak < 2 * 2**20, (spec, mode, peak)  # the sequences are 256 MB and 128 MB
    start = time.perf_counter()
    assert run_cli(tmp_path, "gowers", "--input", "linear_golden:1000000000", "--k", "2") == 3
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# the blocked CSV writer against csv.writer row by row
# ---------------------------------------------------------------------------


def csv_bytes(header, columns) -> bytes:
    return b"".join(cli.csv_chunks(header, columns))


_CELLS = {  # kind: (cells, numpy dtype of the column or None for a list)
    "int64": (st.integers(-(2**63), 2**63 - 1), np.int64),
    "uint64": (st.integers(0, 2**64 - 1), np.uint64),
    "float64": (st.floats(), np.float64),  # nan, +-inf, -0.0 and subnormals included
    "bool_": (st.booleans(), np.bool_),
    "float": (st.floats(), None),
    "bool": (st.booleans(), None),
    "int": (st.integers(), None),
    "text": (st.text(st.characters(codec="utf-8", blacklist_characters=',"\r\n\x00'),
                     min_size=1), None),
}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(*(_CELLS[k][0] for k in kinds)), max_size=20))
    columns = []
    for i, kind in enumerate(kinds):
        cells = [row[i] for row in rows]
        dtype = _CELLS[kind][1]
        columns.append(cells if dtype is None else np.array(cells, dtype=dtype))
    return [f"c{i}" for i in range(len(kinds))], columns


@settings(max_examples=200, deadline=None)
@given(_tables())
@example((["n"], [np.array([], dtype=np.int64)]))
@example((["x"], [np.array([0, -1, 9, -10, 2**63 - 1, -(2**63)], dtype=np.int64)]))
@example((["x"], [np.array([0, 2**63, 2**64 - 1, 10**19, 10**19 - 1], dtype=np.uint64)]))
@example((["f", "g"], [
    [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 2.2250738585072014e-308],
    np.array([1e300, -1.5, 0.1, 1 / 3, 2.0**-1074, -0.0, 1e16]),
]))
@example((["b", "t"], [np.array([True, False]), [True, "bracket_golden"]]))
# the 4-digit group boundaries, in the uint32 and the uint64 magnitude
@example((["x", "y"], [np.array([9999, 10**4, 10**8 - 1, 10**8, -9999, -(10**4), -(10**8)]),
                       np.array([10**8, 10**8 - 1, 10**4, 9999, 0, 1, 2**32 - 1])]))
@example((["x", "y"], [np.array([2**63 - 1, -(2**63 - 1), -(2**63)], dtype=np.int64),
                       np.array([2**64 - 1, 10**16, 9999], dtype=np.uint64)]))
@example((["x", "mu"], [np.array([-12345, 7, 99]), np.array([-1, 0, 1], dtype=np.int8)]))
@example((["n", "f", "t"], [np.array([], dtype=np.int64), np.array([]), []]))
@example((["n", "f", "t"], [np.array([-7]), np.array([0.5]), ["x"]]))
def test_csv_writer_matches_csv_module(table):
    header, columns = table
    assert csv_bytes(header, columns) == oracles.csv_table_bytes(header, columns)


@pytest.mark.parametrize("rows", [1, 7])
def test_csv_writer_bytes_do_not_depend_on_the_block(monkeypatch, rows):
    rng = np.random.default_rng(rows)
    n = 40
    header = ["n", "mu", "big", "f", "t", "b"]
    columns = [np.arange(-20, 20), rng.integers(-1, 2, n, dtype=np.int8),
               rng.integers(0, 2**64, n, dtype=np.uint64), rng.standard_normal(n) * 1e10,
               [f"row{i}" for i in range(n)], np.arange(n) % 3 == 0]
    monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
    chunks = list(cli.csv_chunks(header, columns))
    assert len(chunks) == 1 + -(-n // rows)  # the header, then one chunk per block
    assert b"".join(chunks) == oracles.csv_table_bytes(header, columns)


def test_csv_writer_holds_one_block():
    n = 2**20
    ns = np.arange(n)
    columns = [ns, 3 * ns - n, ns % 1000, (ns % 3 - 1).astype(np.int8)]
    tracemalloc.start()
    try:
        size = sum(len(chunk) for chunk in cli.csv_chunks(["a", "b", "c", "d"], columns))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 20 * 2**20  # the CSV itself is far above the bound
    assert peak < 8 * 2**20, peak


def test_refused_csv_cell_leaves_no_file(tmp_path):
    tables = {"ok": (["n"], [np.arange(3)]), "bad": (["name"], [["ok", "a,b", "c"]])}
    with pytest.raises(ValueError):
        cli._write_outputs(tmp_path / "out", "verify", {}, {}, 1, 0.0, tables)
    assert not list(tmp_path.rglob("*.csv"))
    assert not (tmp_path / "out").exists()  # every table is planned before any file


def test_csv_writer_refuses_cells_csv_would_quote():
    # a lone surrogate has no UTF-8 encoding
    for bad in ("a,b", 'say "x"', "line\r", "line\n", "", "\ud800"):
        with pytest.raises(ValueError):
            csv_bytes(["name"], [["ok", bad]])
        with pytest.raises(ValueError):
            csv_bytes(["ok", bad], [[1], [2]])
    with pytest.raises(ValueError):
        csv_bytes(["a", "b"], [np.arange(3), np.arange(4)])
    with pytest.raises(ValueError):
        csv_bytes(["a", "b"], [np.arange(3)])


def test_dickman_builds_no_table_up_to_the_default_extent(tmp_path, monkeypatch, capsys):
    # the table ships as data: no least-squares fit, so no Picard step, on any path
    fits = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        fits.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    assert dickman.default_table().u_max == 50.0
    assert criteria.dickman()[0]["passed"] is True
    for argv in [("--table", "20", "0.002"), ("--table", "3", "0.01"), ("--table", "0.5", "0.1"),
                 ("--table", "50", "0.25"), ("--u", "19.5"), ("--u", "20"), ("--u", "2"),
                 ("--u", "0.5")]:
        assert run_cli(tmp_path, "dickman", *argv) == 0, argv
    assert fits == []
    # the command prints what rho gives, bit for bit
    capsys.readouterr()
    for u in (2.0, 3.0, 19.5, 20.0, 25.0, 50.0):
        assert run_cli(tmp_path, "dickman", "--u", repr(u)) == 0
        assert float(capsys.readouterr().out.splitlines()[0]) == dickman.rho(u), u
    assert fits == []


def test_manifest_peak_is_the_process_own(tmp_path):
    # Linux hands a parent's ru_maxrss to the child through fork and exec;
    # the CLI, started from this process while it holds 256 MB, reports its
    # own peak
    held = np.ones(2**25)  # 256 MB, every page touched
    src = os.path.dirname(os.path.dirname(friable.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, "-m", "friable", "--out", str(tmp_path / "out"), "dickman", "--u", "2"],
        env=env, capture_output=True, check=True,
    )
    assert held.sum() == 2**25
    assert read_manifest(tmp_path, "dickman")["peak_rss_mb"] < 200.0
