"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from gcirculant.cli import ExperimentPlan, run_experiment
from gcirculant.ensembles import EnsembleConfig, lindeberg_statistic, sample_entries
from gcirculant.groups import (
    GroupFunction,
    involution_count,
    involution_fraction,
    parse_group_spec,
)
from gcirculant.limits import (
    character_relation,
    distance_complex,
    empirical_eigen_covariance,
    ks_distance_real,
    limit_for,
    predicted_pair_moment,
)
from gcirculant.oracle import (
    character_from_index,
    dft_naive,
    eigen_residual,
    element_from_index,
    fft_fast,
    identity,
    involution_subgroup,
    is_real_character,
    mul,
    norm_ratio_curve,
    restrict_to_involutions,
)
from gcirculant.spectra import eigenvalues

TRANSFORM_GROUPS = ("12", "8,3", "2^6", "4,2,5")
COUNT_GROUPS = (
    "12", "4,2", "2^6", "9", "2", "3", "8,3", "4,2,5", "2^4,3", "16", "6,10", "5,7",
)
RESIDUAL_GROUPS = ("12", "8,3", "2^6", "4,2,5", "2^4,3")


def crit(number: int, passed: bool, detail: str) -> None:
    line = f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} {detail}"
    print(line)
    assert passed, line


def pooled_spectra(spec: str, cfg: EnsembleConfig, trials: int):
    g = parse_group_spec(spec)
    return g, [eigenvalues(sample_entries(g, cfg, t)) for t in range(trials)]


def test_criterion_01_transform_oracle():
    rng = np.random.default_rng(101)
    worst_dev = 0.0
    worst_parseval = 0.0
    for spec in TRANSFORM_GROUPS:
        g = parse_group_spec(spec)
        for _ in range(50):
            vals = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
            f = GroupFunction(g, vals)
            fast = fft_fast(f)
            naive = dft_naive(f)
            worst_dev = max(worst_dev, float(np.max(np.abs(fast.values - naive.values))))
            energy = float(np.sum(np.abs(vals) ** 2))
            hat_energy = float(np.sum(np.abs(fast.values) ** 2))
            worst_parseval = max(
                worst_parseval, abs(hat_energy - g.size * energy) / (g.size * energy)
            )
    crit(
        1,
        worst_dev < 1e-9 and worst_parseval < 1e-9,
        f"fast/naive dev {worst_dev:.2e}, parseval rel {worst_parseval:.2e} "
        f"(50 functions x {len(TRANSFORM_GROUPS)} groups)",
    )


def test_criterion_02_involution_real_character_counts():
    expected = {"12": 2, "4,2": 4, "2^6": 64, "9": 1}
    all_ok = True
    for spec in COUNT_GROUPS:
        g = parse_group_spec(spec)
        e = identity(g)
        by_mult = sum(
            1 for i in range(g.size) if mul(g, a := element_from_index(g, i), a) == e
        )
        real_chars = sum(
            is_real_character(g, character_from_index(g, t)) for t in range(g.size)
        )
        ok = by_mult == real_chars == involution_count(g)
        if spec in expected:
            ok = ok and by_mult == expected[spec]
        all_ok = all_ok and ok
    crit(
        2,
        all_ok and len(COUNT_GROUPS) >= 10,
        f"involution count == real-character count on {len(COUNT_GROUPS)} groups (exact)",
    )


def test_criterion_03_extension_counts():
    g42 = parse_group_spec("4,2")
    a = involution_subgroup(g42)
    counts: dict = {}
    for t in range(g42.size):
        key = restrict_to_involutions(g42, character_from_index(g42, t)).phases
        counts[key] = counts.get(key, 0) + 1
    focal_ok = len(a) == 4 and len(counts) == 4 and all(v == 2 for v in counts.values())

    all_ok = focal_ok
    for spec in COUNT_GROUPS:
        g = parse_group_spec(spec)
        assert g.size <= 256
        sub = involution_subgroup(g)
        seen: dict = {}
        for t in range(g.size):
            key = restrict_to_involutions(g, character_from_index(g, t)).phases
            seen[key] = seen.get(key, 0) + 1
        expected = g.size // len(sub)
        all_ok = all_ok and len(seen) == len(sub) and all(
            v == expected for v in seen.values()
        )
    crit(
        3,
        all_ok,
        "each realized restriction has exactly |G|/|A| extensions "
        f"(Z4xZ2 and {len(COUNT_GROUPS)} groups of size <= 256, exact)",
    )


def test_criterion_04_eigen_relation_oracle():
    bases = ("gaussian", "rademacher", "uniform")
    alphas = (0.0, 0.5, 1.0)
    betas = (0.5, 1.0, 2.0)
    worst = 0.0
    for spec in RESIDUAL_GROUPS:
        g = parse_group_spec(spec)
        combos = itertools.islice(
            itertools.product(bases, alphas, (False, True), betas), 20
        )
        for seed, (base, alpha, herm, beta) in enumerate(combos):
            cfg = EnsembleConfig(base=base, alpha=alpha, beta=beta, hermitian=herm, seed=seed)
            worst = max(worst, eigen_residual(sample_entries(g, cfg)))
    crit(
        4,
        worst < 1e-9,
        f"eigen residual {worst:.2e} over 20 ensembles x {len(RESIDUAL_GROUPS)} groups",
    )


def test_criterion_05_independent_complex_gaussian_eigenvalues():
    all_ok = True
    details = []
    for spec in ("4096", "2^12"):
        cfg = EnsembleConfig(base="gaussian", alpha=0.0, hermitian=False, seed=505)
        g, specs = pooled_spectra(spec, cfg, trials=20)
        law = limit_for(cfg, involution_fraction(g))
        pooled = np.concatenate([s.values for s in specs])
        rep = distance_complex(pooled, law)
        per_trial = [
            max(r.ks_re, r.ks_im)
            for r in (distance_complex(s.values, law) for s in specs)
        ]
        median = float(np.median(per_trial))
        ok = rep.ks_re < 0.01 and rep.ks_im < 0.01 and median < 0.026
        all_ok = all_ok and ok
        details.append(f"{spec}: re {rep.ks_re:.4f} im {rep.ks_im:.4f} med {median:.4f}")
    crit(5, all_ok, "pooled KS vs N(0,1/2) < 0.01; " + "; ".join(details))


def test_criterion_06_hermitian_gaussian_and_rademacher():
    g = parse_group_spec("4096")
    bound = 1e-9 * math.sqrt(g.size)

    cfg = EnsembleConfig(base="gaussian", alpha=0.0, beta=1.0, hermitian=True, seed=606)
    specs = [eigenvalues(sample_entries(g, cfg, t)) for t in range(20)]
    max_im = max(float(np.max(np.abs(s.values.imag))) for s in specs)
    law = limit_for(cfg, involution_fraction(g))
    pooled = np.concatenate([s.values.real for s in specs])
    ks_gauss = ks_distance_real(pooled, law)

    cfg_r = EnsembleConfig(base="rademacher", alpha=0.0, beta=1.0, hermitian=True, seed=607)
    specs_r = [eigenvalues(sample_entries(g, cfg_r, t)) for t in range(20)]
    pooled_r = np.concatenate([s.values.real for s in specs_r])
    ks_rad = ks_distance_real(pooled_r, law)

    crit(
        6,
        max_im < bound and ks_gauss < 0.01 and ks_rad < 0.02,
        f"max|Im| {max_im:.2e} < {bound:.2e}; KS vs N(0,1): gaussian {ks_gauss:.4f} "
        f"< 0.01, rademacher {ks_rad:.4f} < 0.02",
    )


def test_criterion_07_real_entry_complex_mixture():
    cfg = EnsembleConfig(base="rademacher", alpha=1.0, hermitian=False, seed=707)
    g, specs = pooled_spectra("4,2^9", cfg, trials=40)
    p2 = involution_fraction(g)
    assert p2 == 0.5
    law = limit_for(cfg, p2)
    pooled = np.concatenate([s.values for s in specs])
    rep = distance_complex(pooled, law)
    crit(
        7,
        rep.ks_re < 0.02 and rep.ks_im < 0.02,
        f"N=2048 p2=1/2: Re KS {rep.ks_re:.4f}, Im KS {rep.ks_im:.4f} vs "
        "(1/2) complex + (1/2) real Gaussian mixture, both < 0.02",
    )


def test_criterion_08_hermitian_mixture_at_one_third():
    cfg = EnsembleConfig(base="rademacher", alpha=1.0, beta=1.0, hermitian=True, seed=808)
    g, specs = pooled_spectra("3,2^10", cfg, trials=40)
    p2 = involution_fraction(g)
    assert p2 == Fraction(1, 3)
    law = limit_for(cfg, p2)
    np.testing.assert_allclose(law.weights, (2 / 3, 1 / 3))
    np.testing.assert_allclose(law.re_variances, (2 / 3, 5 / 3))
    pooled = np.concatenate([s.values.real for s in specs])
    ks = ks_distance_real(pooled, law)
    crit(
        8,
        ks < 0.02,
        f"N=3072 p2=1/3: KS {ks:.4f} vs (2/3)N(0,2/3)+(1/3)N(0,5/3) < 0.02",
    )


def test_criterion_09_covariance_structure():
    g = parse_group_spec("4,2")
    cfg = EnsembleConfig(base="gaussian", alpha=1.0, beta=1.0, hermitian=True, seed=909)
    trials = 20000
    specs = [eigenvalues(sample_entries(g, cfg, t)) for t in range(trials)]
    p2 = involution_fraction(g)
    chars = [character_from_index(g, i) for i in range(g.size)]
    worst_var = 0.0
    worst_pair = 0.0
    for i in range(g.size):
        for j in range(i, g.size):
            flags = character_relation(g, chars[i], chars[j])
            est = empirical_eigen_covariance(specs, i, j)
            # at i == j the flags are (same, conjugate iff real, same on the
            # involutions): the eigenvalue's own variance
            pred = predicted_pair_moment(
                same=flags.same,
                conjugate=flags.conjugate,
                same_on_involutions=flags.same_on_involutions,
                alpha=1.0,
                beta=1.0,
                p2=p2,
                hermitian=True,
            )
            if i == j:
                worst_var = max(worst_var, abs(est.estimate - pred))
            else:
                worst_pair = max(worst_pair, abs(est.estimate - pred))
    crit(
        9,
        worst_var < 0.05 and worst_pair < 0.05,
        f"Z4xZ2, 20000 trials: max var dev {worst_var:.4f}, "
        f"max cross-moment dev {worst_pair:.4f}, both < 0.05",
    )


def test_criterion_10_norm_ratio():
    cfg = EnsembleConfig(base="gaussian", alpha=0.0, hermitian=False, seed=1010)
    groups = [parse_group_spec(s) for s in ("256", "1024", "4096", "16384")]
    points = norm_ratio_curve(cfg, groups, trials=20)
    ok = all(0.8 <= p.mean_ratio <= 1.3 for p in points)
    detail = ", ".join(f"N={p.size}: {p.mean_ratio:.3f}" for p in points)
    crit(10, ok, f"mean ||M||/sqrt(ln N) in [0.8, 1.3]: {detail}")


def test_criterion_11_lindeberg_diagnostic():
    g = parse_group_spec("4096")
    rad = EnsembleConfig(base="rademacher", alpha=1.0, seed=1111)
    rad_stats = [
        lindeberg_statistic(sample_entries(g, rad, t).values, epsilon=0.5) for t in range(10)
    ]
    rad_ok = all(s == 0.0 for s in rad_stats)

    hits = 0
    for seed in range(100):
        gau = EnsembleConfig(base="gaussian", alpha=0.0, seed=seed)
        if lindeberg_statistic(sample_entries(g, gau).values, epsilon=1.0) < 1e-6:
            hits += 1
    crit(
        11,
        rad_ok and hits >= 95,
        f"rademacher eps=0.5 all exactly 0; gaussian eps=1 below 1e-6 in {hits}/100 seeds",
    )


def test_criterion_12_determinism(tmp_path):
    reports = {}
    csvs = {}
    for jobs in (1, 4):
        out = tmp_path / f"report-{jobs}.json"
        eig = tmp_path / f"eig-{jobs}.csv"
        plan = ExperimentPlan(
            group="3,2^4",
            cfg=EnsembleConfig(base="uniform", alpha=0.25, beta=1.5, hermitian=True, seed=1212),
            trials=12,
            checks=("limit_distance", "norm_curve", "lindeberg"),
            out=out,
            eigenvalue_csv=eig,
            jobs=jobs,
        )
        run_experiment(plan)
        report = json.loads(out.read_text())
        report.pop("timestamp")
        reports[jobs] = report
        csvs[jobs] = eig.read_text()
    crit(
        12,
        reports[1] == reports[4] and csvs[1] == csvs[4],
        "reports and eigenvalue CSVs identical for --jobs 1 vs 4 (timestamp excluded)",
    )
