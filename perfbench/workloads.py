"""The benchmark's experiment plans, one per workload.

Each workload is one fixed `gcirculant experiment` plan; only the ensemble
seed comes from the benchmark's `--seed`.  The plans are chosen so that each
stresses a different layer of the pipeline (see README.md for the measured
layer shares):

- cyclic-transform: a single 2^20 radix-2 axis; almost all of the run is
  `fourier` and the only statistic is one max|lambda| per trial.
- mixed-stats: Z_3 x (Z_2)^16 with the complex-plane KS against a
  two-component mixture (p2 = 1/3); `limits` dominates, and the sixteen
  Z_2 butterfly axes guard the Walsh-Hadamard path of the transform.
- prime-hermitian-csv: the only non-power-of-two axis (a dense 4099 x 4099
  kernel built in setup), Hermitian sampling, the real-line KS and the
  eigenvalue CSV writer.
- covariance-small: 2^6 with the O(N^2) covariance pair loop; the transform
  is under 1% of the run, so a transform change must not move it.

`seed_verdict` is the report's overall verdict at the seed commit, the same
on every seed tried.  `gate_verdict` is False only for covariance-small:
its covariance check fails on the correct model (a known miscalibration),
so its verdict is recorded but not gated.
"""

from __future__ import annotations

WORKLOADS = {
    "cyclic-transform": {
        "group": "1048576",
        "base": "gaussian",
        "alpha": 0.0,
        "beta": 1.0,
        "hermitian": False,
        "trials": 2,
        "checks": ("norm_curve",),
        "eigenvalue_csv": False,
        "seed_verdict": True,
        "gate_verdict": True,
    },
    "mixed-stats": {
        "group": "3,2^16",
        "base": "gaussian",
        "alpha": 0.5,
        "beta": 1.0,
        "hermitian": False,
        "trials": 20,
        "checks": ("limit_distance", "norm_curve", "lindeberg"),
        "eigenvalue_csv": False,
        "seed_verdict": True,
        "gate_verdict": True,
    },
    "prime-hermitian-csv": {
        "group": "4099",
        "base": "gaussian",
        "alpha": 0.5,
        "beta": 2.0,
        "hermitian": True,
        "trials": 100,
        "checks": ("limit_distance", "lindeberg"),
        "eigenvalue_csv": True,
        "seed_verdict": True,
        "gate_verdict": True,
    },
    "covariance-small": {
        "group": "2^6",
        "base": "gaussian",
        "alpha": 0.5,
        "beta": 2.0,
        "hermitian": True,
        "trials": 1000,
        "checks": ("covariance",),
        "eigenvalue_csv": False,
        "seed_verdict": False,
        "gate_verdict": False,
    },
}
