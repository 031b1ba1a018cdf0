"""The benchmark's workloads: fixed lists of ``friable`` CLI jobs.

Each workload is a verification campaign that one researcher runs job after
job.  ``count_gowers`` is the ternary-count jobs followed by the
correlation and Gowers-norm jobs; ``psi_analytic`` is the streaming
``psi_count``, Dickman and analytic jobs.  The seed chooses input *values* (friability exponents, the Harper
``y``, phase parameters, a sieve window offset) and never input sizes, so
the cost of a campaign is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

U_CHOICES = (1.5, 2.0, 2.5, 3.0)

WORKLOADS = ("count_gowers", "psi_analytic")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``friable <argv>`` plus what its check needs."""

    id: str
    argv: tuple[str, ...]
    kind: str
    params: dict = field(default_factory=dict, compare=False)


def _num(x: float) -> str:
    return repr(float(x))


def _u_list(us) -> str:
    return ",".join(_num(u) for u in us)


def _count_job(job_id, kind, forms, body, N, us) -> Job:
    argv = ("--threads", "1", "count", "--forms", forms, "--body", body,
            "--N", str(N), "--u", _u_list(us))
    return Job(job_id, argv, kind, {"N": N, "u": tuple(us)})


def _ternary_count(rng: random.Random) -> list[Job]:
    def pick(k):
        return tuple(rng.choice(U_CHOICES) for _ in range(k))

    box_u = rng.choice(U_CHOICES)
    return [
        _count_job("ternary_simplex_a", "simplex2", "x1; x2; x1+x2",
                   "simplex:1,N", 20000, pick(3)),
        _count_job("ternary_simplex_b", "simplex2", "x1; x2; x1+x2",
                   "simplex:1,N", 20000, pick(3)),
        Job("verify_harper", ("--threads", "1", "verify", "--suite", "harper",
                              "--N", "10000"), "verify_harper", {"N": 10000, "y": 100}),
        _count_job("hpoly_triangle", "hpoly_x1_2x2", "x1; x2; x1+2x2",
                   "hpoly:-1,0,-1;0,-1,-1;1,2,N", 20000, pick(3)),
        _count_job("simplex3", "simplex3", "x1; x2; x3; x1+x2+x3",
                   "simplex:1,N", 250, pick(4)),
        _count_job("box_product", "box2", "x1; x2", "box:1,N;1,N", 5000,
                   (box_u, box_u)),
    ]


def _psi_analytic(rng: random.Random) -> list[Job]:
    y = rng.randint(900, 1100)
    u = rng.choice(U_CHOICES)
    lo = rng.randrange(0, 800_001)
    harper = ("harper", "--N", "10000000", "--y", str(y))
    return [
        Job("harper_t1", ("--threads", "1") + harper, "harper", {"N": 10**7, "y": y}),
        Job("harper_t2", ("--threads", "2") + harper, "harper",
            {"N": 10**7, "y": y, "same_as": "harper_t1"}),
        Job("verify_hildebrand", ("--threads", "1", "verify", "--suite", "hildebrand"),
            "verify_hildebrand", {"N": 10**6}),
        Job("mertens", ("mertens", "--N", "1000000", "--u", _num(u), "--tau", "0.2"),
            "mertens", {"N": 10**6, "u": u, "tau": "1/5"}),
        Job("verify_dickman", ("verify", "--suite", "dickman"), "verify_dickman"),
        Job("dickman_table", ("dickman", "--table", "20", "0.002"), "dickman_table",
            {"u_max": 20.0, "step": 0.002}),
        Job("sieve_csv", ("sieve", "--lo", str(lo), "--hi", str(lo + 200_000), "--csv"),
            "sieve_csv", {"lo": lo, "hi": lo + 200_000}),
    ]


def _correlate_gowers(rng: random.Random) -> list[Job]:
    theta = rng.uniform(0.05, 0.95)
    phi = rng.uniform(0.05, 0.95)
    return [
        Job("verify_decompose", ("verify", "--suite", "decompose"), "verify_decompose"),
        Job("correlate_bracket",
            ("correlate", "--N", "100000", "--u", "2.0", "--tau", "0.2",
             "--phase", f"bracket:{_num(theta)},{_num(phi)}"),
            "correlate_bracket",
            {"N": 100000, "u": 2.0, "tau": "1/5", "theta": theta, "phi": phi}),
        Job("gowers_u2_interval", ("gowers", "--input", "balanced:262143:2", "--k", "2"),
            "gowers", {"N": 262143, "u": 2.0, "k": 2, "mode": "interval"}),
        Job("gowers_u3_interval", ("gowers", "--input", "balanced:511:2", "--k", "3"),
            "gowers", {"N": 511, "u": 2.0, "k": 3, "mode": "interval"}),
        Job("gowers_u3_cyclic", ("gowers", "--input", "balanced:4095:2", "--k", "3",
                                 "--mode", "cyclic"),
            "gowers", {"N": 4095, "u": 2.0, "k": 3, "mode": "cyclic"}),
        Job("gowers_u4_cyclic", ("gowers", "--input", "balanced:255:2", "--k", "4",
                                 "--mode", "cyclic"),
            "gowers", {"N": 255, "u": 2.0, "k": 4, "mode": "cyclic"}),
    ]


def _count_gowers(rng: random.Random) -> list[Job]:
    return _ternary_count(rng) + _correlate_gowers(rng)


_BUILDERS = {
    "count_gowers": _count_gowers,
    "psi_analytic": _psi_analytic,
}


def build(workload: str, seed: int) -> list[Job]:
    """The job list of ``workload`` for ``seed``; the same seed gives the same argv."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def all_job_ids() -> list[str]:
    """Every job id of every workload, in workload order (seed-independent)."""
    return [job.id for w in WORKLOADS for job in build(w, 0)]
