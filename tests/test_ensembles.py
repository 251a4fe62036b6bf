import math

import numpy as np
import pytest

from gcirculant.ensembles import EnsembleConfig, lindeberg_statistic, sample_entries
from gcirculant.groups import inverse_permutation, make_group, parse_group_spec
from gcirculant.oracle import moment_check


class TestConfig:
    def test_defaults(self):
        cfg = EnsembleConfig()
        assert cfg.base == "gaussian" and cfg.alpha == 0.0 and not cfg.hermitian

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            EnsembleConfig(base="cauchy")

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            EnsembleConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            EnsembleConfig(alpha=1.5)

    def test_rejects_complex_alpha(self):
        with pytest.raises(ValueError):
            EnsembleConfig(alpha=0.5 + 0.1j)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            EnsembleConfig(beta=0.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            EnsembleConfig(beta=beta, hermitian=True)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            EnsembleConfig(seed=-1)
        assert EnsembleConfig(seed=0).seed == 0

    def test_digest_depends_on_fields(self):
        a = EnsembleConfig(seed=1)
        b = EnsembleConfig(seed=2)
        assert a.digest() != b.digest()
        assert a.digest() == EnsembleConfig(seed=1).digest()


class TestMoments:
    @pytest.mark.parametrize("base", ["gaussian", "rademacher", "uniform"])
    def test_pair_entry_moments(self, base):
        trials = 1_000_000
        tol = 4 / math.sqrt(trials)
        cfg = EnsembleConfig(base=base, alpha=0.5, seed=101)
        rep = moment_check(cfg, trials)
        assert abs(rep.mean) < tol
        assert abs(rep.abs_square_mean - 1.0) < tol
        assert abs(rep.square_mean - 0.5) < tol

    def test_alpha_one_is_real(self):
        g = make_group([8, 3])
        table = sample_entries(g, EnsembleConfig(alpha=1.0, seed=5))
        assert np.all(table.values.imag == 0.0)

    def test_involution_variance(self):
        cfg = EnsembleConfig(base="gaussian", alpha=0.0, beta=2.5, hermitian=True, seed=9)
        rep = moment_check(cfg, 1_000_000)
        assert rep.involution_square_mean is not None
        assert abs(rep.involution_square_mean - 2.5) < 2.5 * 4 / 1000.0

    def test_alpha_one_moment_report_is_real(self):
        rep = moment_check(EnsembleConfig(base="rademacher", alpha=1.0, seed=3), 5000)
        assert rep.mean.imag == 0.0
        assert rep.square_mean.imag == 0.0

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            moment_check(EnsembleConfig(), 10)


class TestSampling:
    def test_hermitian_symmetry_is_exact(self):
        g = parse_group_spec("8,3")
        cfg = EnsembleConfig(base="gaussian", alpha=0.3, beta=1.7, hermitian=True, seed=31)
        table = sample_entries(g, cfg)
        invp = inverse_permutation(g)
        assert np.array_equal(table.values[invp], np.conj(table.values))

    def test_involution_entries_real(self):
        g = parse_group_spec("4,2,5")
        cfg = EnsembleConfig(base="uniform", alpha=0.2, beta=0.5, hermitian=True, seed=33)
        table = sample_entries(g, cfg)
        invp = inverse_permutation(g)
        invol = invp == np.arange(g.size)
        assert np.all(table.values[invol].imag == 0.0)

    def test_rademacher_alpha_one_entries(self):
        g = parse_group_spec("2^5")
        cfg = EnsembleConfig(base="rademacher", alpha=1.0, beta=1.0, hermitian=True, seed=2)
        table = sample_entries(g, cfg)
        assert np.all(np.isin(table.values.real, (-1.0, 1.0)))
        assert np.all(table.values.imag == 0.0)

    def test_gue_analogue_moments(self):
        # hermitian, alpha=0, beta=1: involutions ~ real N(0,1), pairs complex
        g = parse_group_spec("4096")
        cfg = EnsembleConfig(base="gaussian", alpha=0.0, beta=1.0, hermitian=True, seed=71)
        invp = inverse_permutation(g)
        pair = invp != np.arange(g.size)
        pair_vals = np.concatenate(
            [sample_entries(g, cfg, t).values[pair] for t in range(8)]
        )
        n = pair_vals.size
        assert abs(np.mean(np.abs(pair_vals) ** 2) - 1.0) < 5 / math.sqrt(n)
        assert abs(np.mean(pair_vals.real**2) - 0.5) < 5 / math.sqrt(n)

    def test_reproducible(self):
        g = parse_group_spec("4,2,5")
        cfg = EnsembleConfig(base="gaussian", alpha=0.4, seed=12)
        a = sample_entries(g, cfg, trial=3)
        b = sample_entries(g, cfg, trial=3)
        assert np.array_equal(a.values, b.values)

    def test_trials_differ(self):
        g = parse_group_spec("4,2,5")
        cfg = EnsembleConfig(seed=12)
        a = sample_entries(g, cfg, trial=0)
        b = sample_entries(g, cfg, trial=1)
        assert not np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        g = parse_group_spec("4,2,5")
        a = sample_entries(g, EnsembleConfig(seed=1))
        b = sample_entries(g, EnsembleConfig(seed=2))
        assert not np.array_equal(a.values, b.values)


class TestLindeberg:
    def test_bounded_entries_give_zero(self):
        g = parse_group_spec("2^6")
        table = sample_entries(g, EnsembleConfig(base="rademacher", alpha=1.0, seed=4))
        assert lindeberg_statistic(table, 1.0) == 0.0

    def test_tiny_epsilon_gives_mean_square(self):
        g = parse_group_spec("8,3")
        table = sample_entries(g, EnsembleConfig(base="gaussian", seed=6))
        expected = float(np.mean(np.abs(table.values) ** 2))
        assert lindeberg_statistic(table, 1e-12) == pytest.approx(expected)

    def test_gaussian_large_group(self):
        g = parse_group_spec("4096")
        hits = 0
        for seed in range(20):
            table = sample_entries(g, EnsembleConfig(base="gaussian", seed=seed))
            if lindeberg_statistic(table, 1.0) < 1e-6:
                hits += 1
        assert hits == 20

    def test_rejects_bad_epsilon(self):
        g = parse_group_spec("2^3")
        table = sample_entries(g, EnsembleConfig(seed=0))
        with pytest.raises(ValueError):
            lindeberg_statistic(table, 0.0)
