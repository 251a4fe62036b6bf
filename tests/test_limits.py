import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gcirculant import limits, oracle, spectra
from gcirculant.ensembles import EnsembleConfig, sample_entries
from gcirculant.groups import involution_fraction, make_group, parse_group_spec
from gcirculant.limits import (
    LimitLaw,
    character_relation,
    complex_mixture,
    distance_complex,
    empirical_eigen_covariance,
    ks_block,
    ks_distance_real,
    limit_for,
    predicted_pair_moment,
    predicted_pair_moments,
    real_mixture,
)
from gcirculant.oracle import character, character_from_index
from gcirculant.spectra import eigenvalues


def normal_cdf(x, variance: float):
    """CDF of N(0, variance) as the one-component real mixture; variance 0 is a point mass."""
    return real_mixture([(1.0, variance)]).cdf_real(x)


def atom_mass(law: LimitLaw, part: str) -> float:
    """Mass at 0 of the law's "re" or "im" marginal: the weight of its zero-variance components."""
    variances = law.re_variances if part == "re" else law.im_variances
    return sum(w for w, v in zip(law.weights, variances) if v == 0.0)


def marginal(law: LimitLaw, part: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(weights, variances) of the law's "re" or "im" marginal, as ks_block takes them."""
    return law.weights, law.re_variances if part == "re" else law.im_variances


def second_moments(law: LimitLaw) -> tuple[float, float]:
    """(E Re^2, E Im^2) of a mixture."""
    return np.dot(law.weights, law.re_variances), np.dot(law.weights, law.im_variances)


class TestNormalCdf:
    def test_cdf_against_scipy(self):
        x = np.linspace(-8, 8, 2001)
        for v in (1.0, 0.5, 2.0, 5.0 / 3.0):
            oracle = scipy.stats.norm.cdf(x, scale=math.sqrt(v))
            assert np.max(np.abs(normal_cdf(x, v) - oracle)) < 1e-8

    def test_zero_variance_is_step(self):
        assert normal_cdf(-1e-12, 0.0) == 0.0
        assert normal_cdf(0.0, 0.0) == 1.0
        assert normal_cdf(2.0, 0.0) == 1.0

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            normal_cdf(0.0, -1.0)


class TestLimitLaw:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LimitLaw("real", (0.4, 0.4), (1.0, 2.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            LimitLaw("real", (1.0,), (1.0,), (0.5,))
        with pytest.raises(ValueError):
            LimitLaw("planar", (1.0,), (1.0,), (0.0,))

    def test_cdf_monotone_with_limits(self):
        law = real_mixture([(0.5, 0.25), (0.5, 2.0)])
        x = np.linspace(-10, 10, 801)
        cdf = law.cdf_real(x)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] < 1e-7 and cdf[-1] > 1 - 1e-7

    def test_atom_masses(self):
        law = complex_mixture([(0.5, 0.0), (0.5, 1.0)])
        assert limits._cdf_table(law.weights, law.im_variances)[2] == 0.5
        assert limits._cdf_table(law.weights, law.re_variances)[2] == 0.0


class TestLimitFor:
    def test_iid_real_mixture(self):
        # hermitian alpha=beta=1: (1-p) N(0,1-p) + p N(0,2-p)
        cfg = EnsembleConfig(base="rademacher", alpha=1.0, beta=1.0, hermitian=True)
        law = limit_for(cfg, Fraction(1, 2))
        assert law.kind == "real"
        assert law.weights == (0.5, 0.5)
        assert law.re_variances == (0.5, 1.5)

    def test_goe_style_mixture(self):
        # hermitian alpha=1, beta=2: (1-p) N(0,1) + p N(0,2)
        cfg = EnsembleConfig(alpha=1.0, beta=2.0, hermitian=True)
        law = limit_for(cfg, Fraction(1, 4))
        assert law.weights == (0.75, 0.25)
        assert law.re_variances == (1.0, 2.0)

    def test_one_third_mixture(self):
        cfg = EnsembleConfig(alpha=1.0, beta=1.0, hermitian=True)
        law = limit_for(cfg, Fraction(1, 3))
        np.testing.assert_allclose(law.weights, (2 / 3, 1 / 3))
        np.testing.assert_allclose(law.re_variances, (2 / 3, 5 / 3))

    def test_all_involutions_case(self):
        cfg = EnsembleConfig(alpha=1.0, beta=3.0, hermitian=True)
        law = limit_for(cfg, 1)
        assert law.weights == (1.0,)
        assert law.re_variances == (3.0,)

    def test_gue_style_reduces_to_standard_normal(self):
        cfg = EnsembleConfig(alpha=0.0, beta=1.0, hermitian=True)
        for p in (0, Fraction(1, 6), Fraction(1, 2), 1):
            law = limit_for(cfg, p)
            assert law.weights == (1.0,)
            assert law.re_variances == (1.0,)

    def test_uncorrelated_complex_case(self):
        cfg = EnsembleConfig(alpha=0.0)
        for p in (0, Fraction(1, 2), 1):
            law = limit_for(cfg, p)
            assert law.kind == "complex"
            assert law.weights == (1.0,)
            assert law.re_variances == (0.5,) and law.im_variances == (0.5,)

    def test_correlated_complex_mixture(self):
        cfg = EnsembleConfig(alpha=1.0)
        law = limit_for(cfg, Fraction(1, 2))
        assert law.kind == "complex"
        assert set(zip(law.weights, law.re_variances, law.im_variances)) == {
            (0.5, 0.5, 0.5),
            (0.5, 1.0, 0.0),
        }

    def test_rejects_impossible_hermitian_p(self):
        cfg = EnsembleConfig(alpha=1.0, beta=1.0, hermitian=True)
        with pytest.raises(ValueError):
            limit_for(cfg, Fraction(3, 4))
        limit_for(cfg, Fraction(1, 2))  # boundary is fine

    def test_rejects_p_out_of_range(self):
        with pytest.raises(ValueError):
            limit_for(EnsembleConfig(), 1.2)


def single_moment(chi_real, **params):
    """An eigenvalue's own second moments: its character paired with itself."""
    return predicted_pair_moment(same=True, conjugate=chi_real, same_on_involutions=True, **params)


class TestPredictedCovariance:
    def test_real_entries_real_character(self):
        cov = single_moment(True, alpha=1.0, beta=1.0, p2=0.5, hermitian=False)
        np.testing.assert_allclose(cov, np.diag([1.0, 0.0]))

    def test_uncorrelated_any_character(self):
        for chi_real in (False, True):
            cov = single_moment(chi_real, alpha=0.0, beta=1.0, p2=0.1, hermitian=False)
            np.testing.assert_allclose(cov, 0.5 * np.eye(2))

    def test_hermitian_variance(self):
        v = single_moment(True, alpha=1.0, beta=1.0, p2=Fraction(1, 2), hermitian=True)
        assert v == pytest.approx(1.5)
        v = single_moment(False, alpha=1.0, beta=1.0, p2=Fraction(1, 2), hermitian=True)
        assert v == pytest.approx(0.5)

    def test_gue_style_cross_moment(self):
        # hermitian alpha=0 beta=1: cross moment is the equality indicator
        for same in (True, False):
            m = predicted_pair_moment(
                same=same,
                conjugate=same,
                same_on_involutions=True,
                alpha=0.0,
                beta=1.0,
                p2=Fraction(1, 2),
                hermitian=True,
            )
            assert m == pytest.approx(1.0 if same else 0.0)

    def test_mixture_moments_match_weighted_variances(self):
        # second moments of limit_for equal the p-weighted per-character variances
        for alpha in (0.0, 0.3, 1.0):
            for beta in (0.5, 1.0, 2.0):
                for p in (Fraction(0), Fraction(1, 6), Fraction(1, 2), Fraction(1)):
                    cfg = EnsembleConfig(alpha=alpha, beta=beta, hermitian=True)
                    law = limit_for(cfg, p)
                    want = (1 - p) * single_moment(
                        False, alpha=alpha, beta=beta, p2=p, hermitian=True
                    ) + p * single_moment(
                        True, alpha=alpha, beta=beta, p2=p, hermitian=True
                    )
                    assert abs(second_moments(law)[0] - want) < 1e-12

    def test_complex_mixture_moments_match(self):
        for alpha in (0.0, 0.4, 1.0):
            for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
                cfg = EnsembleConfig(alpha=alpha)
                law = limit_for(cfg, p)
                pred_r = (1 - p) * single_moment(
                    False, alpha=alpha, beta=1.0, p2=p, hermitian=False
                ) + p * single_moment(
                    True, alpha=alpha, beta=1.0, p2=p, hermitian=False
                )
                re2, im2 = second_moments(law)
                assert abs(re2 - pred_r[0, 0]) < 1e-12
                assert abs(im2 - pred_r[1, 1]) < 1e-12

    def test_character_relation_flags(self):
        g = make_group([4, 2])
        chi1 = character(g, (1, 0))
        chi3 = character(g, (3, 0))
        flags = character_relation(g, chi1, chi3)
        assert flags.conjugate and not flags.same
        assert flags.same_on_involutions
        assert not flags.chi1_real and not flags.chi2_real
        flags2 = character_relation(g, chi1, character(g, (1, 1)))
        assert not flags2.same_on_involutions


class TestKsDistance:
    def test_all_zero_samples(self):
        law = real_mixture([(1.0, 1.0)])
        assert ks_distance_real(np.zeros(100), law) == pytest.approx(0.5)

    def test_single_sample(self):
        law = real_mixture([(1.0, 1.0)])
        assert ks_distance_real(np.zeros(1), law) == pytest.approx(0.5)

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            ks_distance_real(np.array([]), real_mixture([(1.0, 1.0)]))

    def test_wrong_kind(self):
        with pytest.raises(ValueError):
            ks_distance_real(np.zeros(3), complex_mixture([(1.0, 0.0)]))

    def test_samples_from_the_law(self):
        # 0.0255 is the ~99% null quantile at n=4096; allow one excursion in 20
        law = real_mixture([(2 / 3, 2 / 3), (1 / 3, 5 / 3)])
        n = 4096
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(808 + seed)
            comp = rng.random(n) < 1 / 3
            x = np.where(comp, math.sqrt(5 / 3), math.sqrt(2 / 3)) * rng.standard_normal(n)
            hits += ks_distance_real(x, law) < 0.0255
        assert hits >= 19

    def test_detects_wrong_law(self):
        rng = np.random.default_rng(809)
        x = rng.standard_normal(4096) * 2.0
        assert ks_distance_real(x, real_mixture([(1.0, 1.0)])) > 0.1

    def test_atom_law_with_exact_zeros(self):
        rng = np.random.default_rng(810)
        n = 4096
        x = rng.standard_normal(n) * math.sqrt(0.5)
        x[: n // 2] = 0.0
        law = real_mixture([(0.5, 0.5), (0.5, 0.0)])
        assert ks_distance_real(x, law) < 0.03

    def test_atom_law_misaligned_samples_fail(self):
        # continuous samples against a half point mass must be far
        rng = np.random.default_rng(811)
        x = rng.standard_normal(4096)
        law = real_mixture([(0.5, 1.0), (0.5, 0.0)])
        assert ks_distance_real(x, law) > 0.2


class TestDistanceComplex:
    def test_samples_from_standard_complex(self):
        rng = np.random.default_rng(900)
        z = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)) / math.sqrt(2)
        rep = distance_complex(z, complex_mixture([(1.0, 0.0)]))
        assert rep.ks_re < 0.026 and rep.ks_im < 0.026
        assert rep.corr_re_im < 0.05

    def test_degenerate_real_samples(self):
        rng = np.random.default_rng(901)
        z = rng.standard_normal(2048).astype(complex)
        law = complex_mixture([(1.0, 1.0)])  # real line as a planar law
        rep = distance_complex(z, law)
        assert rep.ks_im == 0.0
        assert rep.corr_re_im == 0.0
        assert rep.ks_re < 0.05

    def test_rotation_symmetry(self):
        rng = np.random.default_rng(902)
        z = (rng.standard_normal(1024) + 1j * rng.standard_normal(1024)) / math.sqrt(2)
        law = complex_mixture([(1.0, 0.0)])
        rep = distance_complex(z, law)
        rot = distance_complex(1j * z, law)
        assert rot.ks_re == pytest.approx(rep.ks_im, abs=1e-12)
        assert rot.ks_im == pytest.approx(rep.ks_re, abs=1e-12)

    def test_wrong_kind(self):
        with pytest.raises(ValueError):
            distance_complex(np.zeros(3, dtype=complex), real_mixture([(1.0, 1.0)]))


def reference_correlation(re, im):
    """Frozen copy of re_im_correlation through two np.std calls."""
    sr, si = np.std(re), np.std(im)
    if sr == 0.0 or si == 0.0:
        return 0.0
    return float(abs(np.mean((re - re.mean()) * (im - im.mean())) / (sr * si)))


def reference_full_correlation(re, im):
    """Frozen copy of re_im_correlation with two centered copies of the whole block."""
    if re.min() == re.max() or im.min() == im.max():
        return 0.0
    cr, ci = re - re.mean(), im - im.mean()
    srr, sii = np.vdot(cr, cr), np.vdot(ci, ci)
    if srr == 0.0 or sii == 0.0:
        return 0.0
    return float(abs(np.vdot(cr, ci)) / (math.sqrt(srr) * math.sqrt(sii)))


class TestReImCorrelation:
    @pytest.mark.parametrize("shape", [(1,), (2,), (4097,), (20, 3001)])
    @pytest.mark.parametrize("rho", [0.0, 0.3, -0.9, 1.0])
    def test_matches_std_formula(self, shape, rho):
        rng = np.random.default_rng(1700 + shape[-1])
        re = rng.standard_normal(shape) * 3.0 + 1.5
        im = rho * re + rng.standard_normal(shape)
        got = limits.re_im_correlation(re, im)
        assert got == pytest.approx(reference_correlation(re, im), abs=1e-12)

    def test_constant_part_gives_zero(self):
        x = np.random.default_rng(1710).standard_normal((3, 50))
        # 0.1 has an inexact mean, so its centered copy is not all 0
        for fill in (0.0, 0.5, -4.0, 0.1):
            const = np.full((3, 50), fill)
            assert limits.re_im_correlation(x, const) == 0.0
            assert limits.re_im_correlation(const, x) == 0.0
            assert limits.re_im_correlation(const, const) == 0.0
        assert limits.re_im_correlation(np.full(3, 0.1), np.array([1.0, 2.0, 4.0])) == 0.0
        with mock.patch.object(spectra, "_CHUNK", 7):
            for fill in (0.0, 0.1):
                assert limits.re_im_correlation(x, np.full((3, 50), fill)) == 0.0
                assert limits.re_im_correlation(np.full((3, 50), fill), x) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        chunk=st.integers(1, 64),
        chunks=st.integers(0, 5),
        rest=st.integers(1, 63),
        rho=st.floats(-1.0, 1.0),
        scale=st.floats(1e-3, 1e3),
        shift=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunked_sums_match_full_array(self, chunk, chunks, rest, rho, scale, shift, seed):
        # sizes that are not a multiple of the chunk (but for chunk 1), so the
        # last chunk is short
        size = chunk * chunks + min(rest, chunk - 1) + (chunk == 1)
        rng = np.random.default_rng(seed)
        re = rng.standard_normal(size) * scale + shift
        im = rho * (re - shift) + rng.standard_normal(size) * scale
        with mock.patch.object(spectra, "_CHUNK", chunk):
            got = limits.re_im_correlation(re, im)
        assert abs(got - reference_full_correlation(re, im)) <= 1e-15


class TestEmpiricalCovariance:
    def test_requires_enough_spectra(self):
        g = make_group([4])
        specs = [eigenvalues(sample_entries(g, EnsembleConfig(seed=0), t)) for t in range(5)]
        with pytest.raises(ValueError):
            empirical_eigen_covariance(specs, 0, 1)

    def test_uncorrelated_complex_single(self):
        g = make_group([12])
        cfg = EnsembleConfig(base="gaussian", alpha=0.0, seed=42)
        specs = [eigenvalues(sample_entries(g, cfg, t)) for t in range(3000)]
        est = empirical_eigen_covariance(specs, 1, 1)
        np.testing.assert_allclose(est.estimate, 0.5 * np.eye(2), atol=0.07)

    def test_real_entries_real_character_im_vanishes(self):
        g = make_group([4, 2])
        cfg = EnsembleConfig(base="rademacher", alpha=1.0, seed=44)
        specs = [eigenvalues(sample_entries(g, cfg, t)) for t in range(2000)]
        est = empirical_eigen_covariance(specs, 0, 0)  # trivial character is real
        assert abs(est.estimate[1, 1]) < 0.05  # Im-variance
        assert abs(est.estimate[0, 0] - 1.0) < 0.15

    def test_hermitian_matches_prediction(self):
        g = make_group([4, 2])
        cfg = EnsembleConfig(base="gaussian", alpha=1.0, beta=1.0, hermitian=True, seed=43)
        specs = [eigenvalues(sample_entries(g, cfg, t)) for t in range(4000)]
        p2 = involution_fraction(g)
        est = empirical_eigen_covariance(specs, 0, 0)  # trivial character, real
        pred = single_moment(True, alpha=1.0, beta=1.0, p2=p2, hermitian=True)
        assert abs(est.estimate - pred) < 5 * est.stderr + 0.05


def _ks_statistic_reference(samples, cdf, cdf_left, atom_points=()) -> float:
    """Frozen copy of the per-sample KS statistic the sorted-row kernel replaced."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    vals, counts = np.unique(x, return_counts=True)
    upto = np.cumsum(counts)
    below = upto - counts
    d = max(
        float(np.max(np.abs(upto / n - cdf(vals)))),
        float(np.max(np.abs(below / n - cdf_left(vals)))),
    )
    for p in atom_points:
        ecdf_at = np.searchsorted(x, p, side="right") / n
        ecdf_below = np.searchsorted(x, p, side="left") / n
        d = max(d, abs(ecdf_at - float(cdf(p))), abs(ecdf_below - float(cdf_left(p))))
    return d


def reference_ks(samples, law: LimitLaw, part: str = "re") -> float:
    """KS distance of one marginal of `law`, by the frozen reference."""
    variances = law.re_variances if part == "re" else law.im_variances
    cdf = law.cdf_real if part == "re" else law.cdf_imag
    atom = atom_mass(law, part)

    def cdf_left(x):
        # the same CDF with the point mass's step at 0 taken strictly
        arr = np.asarray(x, dtype=np.float64)
        return cdf(arr) - atom * (arr >= 0.0) + atom * (arr > 0.0)

    atoms = (0.0,) if any(v == 0.0 for v in variances) else ()
    return _ks_statistic_reference(samples, cdf, cdf_left, atoms)


def lattice_spectra(spec: str, trials: int, seed: int) -> tuple[np.ndarray, LimitLaw]:
    """(T, N) Rademacher alpha = 1 spectra: ties on Re, exact zeros on Im."""
    g = parse_group_spec(spec)
    cfg = EnsembleConfig(base="rademacher", alpha=1.0, seed=seed)
    block = np.stack([eigenvalues(sample_entries(g, cfg, t)).values for t in range(trials)])
    return block, limit_for(cfg, involution_fraction(g))


class TestKsKernelMatchesReference:
    def assert_complex_matches(self, z, law):
        rep = distance_complex(z, law)
        assert rep.ks_re == pytest.approx(reference_ks(z.real, law, "re"), abs=1e-12)
        assert rep.ks_im == pytest.approx(reference_ks(z.imag, law, "im"), abs=1e-12)

    def test_gaussian_samples(self):
        rng = np.random.default_rng(1200)
        x = rng.standard_normal(4096) * math.sqrt(5 / 3)
        for law in (real_mixture([(1.0, 1.0)]), real_mixture([(2 / 3, 2 / 3), (1 / 3, 5 / 3)])):
            assert ks_distance_real(x, law) == pytest.approx(reference_ks(x, law), abs=1e-12)
        z = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)) / math.sqrt(2)
        self.assert_complex_matches(z, complex_mixture([(1.0, 0.0)]))
        self.assert_complex_matches(z, complex_mixture([(0.5, 0.0), (0.5, 0.6)]))

    @pytest.mark.parametrize("spec", ["2^6", "4,2^3", "3,2^4"])
    def test_lattice_spectra_with_ties_and_atom(self, spec):
        block, law = lattice_spectra(spec, trials=12, seed=1201)
        assert atom_mass(law, "im") > 0
        assert np.count_nonzero(block.imag == 0.0) >= block.shape[0]
        for row in block:
            self.assert_complex_matches(row, law)
        self.assert_complex_matches(block.ravel(), law)

    def test_atom_law_with_and_without_zeros(self):
        rng = np.random.default_rng(1202)
        law = real_mixture([(0.5, 0.5), (0.5, 0.0)])
        x = rng.standard_normal(2048) * math.sqrt(0.5)
        for sample in (x, np.where(np.arange(x.size) % 2 == 0, 0.0, x), -np.abs(x)):
            assert ks_distance_real(sample, law) == pytest.approx(
                reference_ks(sample, law), abs=1e-12
            )

    @pytest.mark.parametrize("value", [0.0, -0.0, 0.3, -1.2])
    def test_single_point(self, value):
        for law in (real_mixture([(1.0, 1.0)]), real_mixture([(0.25, 0.0), (0.75, 2.0)])):
            x = np.array([value])
            assert ks_distance_real(x, law) == pytest.approx(reference_ks(x, law), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 100])
    def test_all_zero_samples(self, n):
        law = real_mixture([(1.0, 1.0)])
        got = ks_distance_real(np.zeros(n), law)
        assert got == pytest.approx(0.5)
        assert got == pytest.approx(reference_ks(np.zeros(n), law), abs=1e-12)
        atom_law = real_mixture([(0.4, 0.0), (0.6, 1.0)])
        assert ks_distance_real(np.zeros(n), atom_law) == pytest.approx(
            reference_ks(np.zeros(n), atom_law), abs=1e-12
        )


class TestKsBlock:
    def test_complex_rows_and_pool_match_sample_calls(self):
        block, law = lattice_spectra("4,2^3", trials=9, seed=1300)
        per_re, pooled_re = ks_block(block.real.copy(), *marginal(law, "re"))
        per_im, pooled_im = ks_block(block.imag.copy(), *marginal(law, "im"))
        reps = [distance_complex(row, law) for row in block]
        np.testing.assert_allclose(per_re, [r.ks_re for r in reps], rtol=0, atol=1e-12)
        np.testing.assert_allclose(per_im, [r.ks_im for r in reps], rtol=0, atol=1e-12)
        pooled = distance_complex(block.ravel(), law)
        assert pooled_re == pytest.approx(pooled.ks_re, abs=1e-12)
        assert pooled_im == pytest.approx(pooled.ks_im, abs=1e-12)

    def test_real_rows_and_pool_match_sample_calls(self):
        g = parse_group_spec("3,2^4")
        cfg = EnsembleConfig(base="rademacher", alpha=1.0, beta=1.0, hermitian=True, seed=1301)
        rows = [eigenvalues(sample_entries(g, cfg, t)).values.real for t in range(7)]
        law = limit_for(cfg, involution_fraction(g))
        per_row, pooled = ks_block(np.stack(rows), *marginal(law, "re"))
        np.testing.assert_allclose(
            per_row, [ks_distance_real(r, law) for r in rows], rtol=0, atol=1e-12
        )
        assert pooled == pytest.approx(ks_distance_real(np.concatenate(rows), law), abs=1e-12)

    def test_overwrites_block_with_flat_sorted_cdf(self):
        block = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, -2.0]])
        law = complex_mixture([(1.0, 0.0)])
        expected = np.sort(law.cdf_real(np.sort(block, axis=1)), axis=None).reshape(block.shape)
        ks_block(block, *marginal(law, "re"))
        assert np.array_equal(block, expected)

    def test_rejects_empty_or_flat_input(self):
        law = real_mixture([(1.0, 1.0)])
        with pytest.raises(ValueError):
            ks_block(np.zeros((3, 0)), *marginal(law, "re"))
        with pytest.raises(ValueError):
            ks_block(np.zeros(4), *marginal(law, "re"))
        # overwritten in place, so a view that reshape would copy is refused
        with pytest.raises(ValueError):
            ks_block(np.zeros((4, 3)).T, *marginal(law, "re"))


class TestNoBlockSizedTemporaries:
    def test_ks_block_and_correlation_peak_below_a_quarter_block(self):
        rng = np.random.default_rng(1800)
        re, im = rng.standard_normal((20, 3 * 2**12)), rng.standard_normal((20, 3 * 2**12))
        im[:, ::5] = 0.0  # zero runs, so the Im marginal's atom is read
        budget = 0.25 * re.nbytes
        marginals = {
            "re": (re, *marginal(ATOM_LAW, "re")),
            "im": (im, *marginal(ATOM_LAW, "im")),
        }
        for block, weights, variances in marginals.values():
            ks_block(block[:2].copy(), weights, variances)  # warm-up: the CDF tables are cached
        # the correlation reads the samples, so it runs before ks_block consumes them
        calls = {"re_im_correlation": lambda: limits.re_im_correlation(re, im)}
        for part, args in marginals.items():
            calls[f"ks_block {part}"] = functools.partial(ks_block, *args)
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < budget, f"{name} peaked at {peak / re.nbytes:.3f} x the block"


def reference_ks_sorted(x, f, atom):
    """Frozen copy of the whole-array _ks_sorted the chunked one replaced."""
    n = x.shape[-1]
    if n == 0:
        raise ValueError("empty sample")
    new_value = np.diff(x, axis=-1) != 0
    run_end = np.ones(x.shape, dtype=bool)
    run_end[..., :-1] = new_value
    run_start = np.ones(x.shape, dtype=bool)
    run_start[..., 1:] = new_value
    del new_value
    dev = np.arange(1, n + 1) / n - f
    np.abs(dev, out=dev)
    d = np.max(dev, axis=-1, where=run_end, initial=0.0)
    del run_end
    np.subtract(np.arange(n) / n, f, out=dev)
    if atom:
        np.add(dev, atom, out=dev, where=x == 0.0)
    np.abs(dev, out=dev)
    return np.maximum(d, np.max(dev, axis=-1, where=run_start, initial=0.0))


def reference_ks_block(block, cdf, atom):
    """Frozen copy of ks_block with the pooled statistic through a stable argsort."""
    block.sort(axis=1)
    f = cdf(block)
    per_row = reference_ks_sorted(block, f, atom)
    order = np.argsort(block, axis=None, kind="stable")
    x, f = block.ravel()[order], f.ravel()[order]
    return per_row, float(reference_ks_sorted(x, f, atom))


CHUNK = spectra._CHUNK
# (weights, variances) of marginals: one and two Gaussians, and point masses at 0
MIXTURES = [
    ((1.0,), (1.0,)),
    ((2 / 3, 1 / 3), (2 / 3, 5 / 3)),
    ((0.25, 0.75), (0.0, 2.0)),
    ((2 / 3, 1 / 3), (0.0, 0.25)),
    ((1.0,), (0.0,)),
]


def erfc_mixture_cdf(x, weights, variances):
    """The mixture CDF point by point from math.erfc, as an array of x's shape."""
    arr = np.asarray(x, dtype=np.float64)
    out = [
        sum(
            w * (float(t >= 0.0) if v == 0.0 else 0.5 * math.erfc(-t / math.sqrt(2.0 * v)))
            for w, v in zip(weights, variances)
        )
        for t in arr.ravel().tolist()
    ]
    return np.array(out).reshape(arr.shape)


class TestChunkedMixtureCdf:
    """Shape handling of the table CDF; values within its 8.2e-9 bound of math.erfc."""

    def test_scalar_and_zero_d_input(self):
        for x in (0.3, -1.5, 0.0, -0.0, 7, np.float64(0.7), np.array(-0.2), np.array(0.0)):
            for weights, variances in MIXTURES:
                got = limits._mixture_cdf(x, weights, variances)
                assert type(got) is np.float64
                assert got == limits._mixture_cdf(np.array([x]), weights, variances)[0]
                assert abs(got - erfc_mixture_cdf(x, weights, variances)) < 1e-8

    def test_two_d_and_strided_input(self):
        x = np.random.default_rng(1401).standard_normal((3, 2 * CHUNK + 5))
        x[:, ::3] = 0.0
        for arr in (x, x[:, ::2], x.T, x[1:2]):
            for weights, variances in MIXTURES:
                got = limits._mixture_cdf(arr, weights, variances)
                flat = limits._mixture_cdf(arr.ravel(), weights, variances)
                assert got.shape == arr.shape
                assert np.array_equal(got.ravel(), flat)
        for weights, variances in MIXTURES:
            got = limits._mixture_cdf(x[:, :200], weights, variances)
            ref = erfc_mixture_cdf(x[:, :200], weights, variances)
            assert np.max(np.abs(got - ref)) < 1e-8

    def test_law_methods_use_the_chunked_cdf(self):
        law = complex_mixture([(2 / 3, 0.0), (1 / 3, 0.5)])
        x = np.random.default_rng(1402).standard_normal(CHUNK + 3)
        ref_re = limits._mixture_cdf(x, law.weights, law.re_variances)
        ref_im = limits._mixture_cdf(x, law.weights, law.im_variances)
        assert np.array_equal(law.cdf_real(x), ref_re)
        assert np.array_equal(law.cdf_imag(x), ref_im)


# signed zeros, subnormals, far tails and infinities, among the sorted points
# of the CDF property test
EDGE_POINTS = [0.0, -0.0, 1e-17, -1e-17, 5e-324, -5e-324, 40.0, -40.0, math.inf, -math.inf]


class TestTableCdf:
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0, exclude_max=True),
        beta=st.floats(0.0, 1e6, exclude_min=True),
        p=st.sampled_from([Fraction(k, d) for k, d in ((0, 1), (1, 4), (1, 3), (1, 2), (1, 1))]),
        hermitian=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_limit_laws_monotone_bounded_and_accurate(self, alpha, beta, p, hermitian, seed):
        law = limit_for(EnsembleConfig(alpha=alpha, beta=beta, hermitian=hermitian), p)
        marginals = [(law.cdf_real, law.re_variances)]
        if law.kind == "complex":
            marginals.append((law.cdf_imag, law.im_variances))
        rng = np.random.default_rng(seed)
        for cdf, variances in marginals:
            scales = [math.sqrt(v) for v in variances if v > 0.0]
            x = np.sort(
                np.concatenate([EDGE_POINTS] + [rng.uniform(-10, 10, 200) * s for s in scales])
            )
            f = cdf(x)
            assert np.all(np.diff(f) >= 0.0)
            assert np.all((f >= 0.0) & (f <= 1.0))
            assert np.max(np.abs(f - erfc_mixture_cdf(x, law.weights, variances))) < 1e-8


# Im has a point mass 1/3 at 0, Re none
ATOM_LAW = complex_mixture([(2 / 3, 0.0), (1 / 3, 1.0)])


def ks_block_cases():
    """(name, block, law, part): Gaussian, tied, lattice and all-zero blocks."""
    rng = np.random.default_rng(1500)
    atom_law = complex_mixture([(2 / 3, 0.0), (1 / 3, 0.5)])
    gauss = rng.standard_normal((4, CHUNK + 9)) * 0.8
    with_zeros = gauss.copy()
    with_zeros[:, ::6] = 0.0
    with_zeros[:, 3::6] = -0.0
    lattice, lattice_law = lattice_spectra("3,2^4", trials=12, seed=1501)
    real_law = real_mixture([(2 / 3, 2 / 3), (1 / 3, 5 / 3)])
    # roundoff next to zeros: the CDF's left limit at 0 is rounded there
    tiny = [0.0, -0.0, 1e-17, -1e-17, 2e-17, 5e-324, -5e-324, 1.0, -1.0]
    roundoff = np.random.default_rng(1502).choice(tiny, (400, 7))
    return [
        ("gaussian", gauss, atom_law, "re"),
        ("signed-zeros-atom", with_zeros, atom_law, "im"),
        ("signed-zeros-no-atom", with_zeros, real_law, "re"),
        ("tied", rng.integers(-3, 4, size=(6, 50)) / 2.0, real_law, "re"),
        ("lattice-re", lattice.real, lattice_law, "re"),
        ("lattice-im", lattice.imag, lattice_law, "im"),
        ("all-zero", np.zeros((4, 9)), real_law, "re"),
        ("all-zero-atom", np.zeros((4, 9)), atom_law, "im"),
        ("one-point", np.array([[0.25]]), atom_law, "im"),
        ("signed-zeros-im-atom", with_zeros, ATOM_LAW, "im"),
        ("gaussian-im-atom", gauss, ATOM_LAW, "im"),
        ("roundoff-im-atom", roundoff, ATOM_LAW, "im"),
        ("roundoff-real-atom", roundoff, real_mixture([(0.4, 0.0), (0.6, 1.0)]), "re"),
    ]


def assert_ks_block_matches_reference(block, law, part):
    """ks_block on a copy of block equals reference_ks_block bit for bit."""
    cdf = law.cdf_real if part == "re" else law.cdf_imag
    atom = atom_mass(law, part)
    got_block, ref_block = block.copy(), block.copy()
    per_row, pooled = ks_block(got_block, *marginal(law, part))
    ref_rows, ref_pooled = reference_ks_block(ref_block, cdf, atom)
    assert np.array_equal(per_row, ref_rows)
    assert pooled == ref_pooled
    # the reference leaves the rows sorted; ks_block leaves their CDF values, sorted flat
    assert np.array_equal(got_block, np.sort(cdf(ref_block), axis=None).reshape(block.shape))


class TestKsBlockFlatSort:
    @pytest.mark.parametrize("name, block, law, part", ks_block_cases())
    def test_bit_identical_to_argsort_pool(self, name, block, law, part):
        assert_ks_block_matches_reference(block, law, part)


def straddling_rows(rng, n):
    """Sorted rows of n points with tie runs that cross, end at and start at
    the chunk edges, and one row whose run of zeros crosses the first edge."""
    rows = np.sort(rng.standard_normal((3, n)), axis=1)
    rows[0, CHUNK - 5 : CHUNK + 6] = rows[0, CHUNK - 5]
    rows[0, 2 * CHUNK - 1 : 2 * CHUNK + 1] = rows[0, 2 * CHUNK - 1]
    rows[1, CHUNK - 4 : CHUNK] = rows[1, CHUNK - 4]
    rows[1, CHUNK : CHUNK + 3] = rows[1, CHUNK]
    rows[2] = np.sort(
        np.concatenate([-np.abs(rows[2, : CHUNK - 3]), np.zeros(7), np.abs(rows[2, CHUNK + 4 :])])
    )
    rows[2, CHUNK - 3 : CHUNK + 4 : 2] = -0.0
    assert np.all(np.diff(rows, axis=1) >= 0)
    return rows


class TestChunkedKsKernel:
    @pytest.mark.parametrize("n", [2 * CHUNK + 1, 2 * CHUNK + 11, 3 * CHUNK])
    def test_tie_runs_across_chunk_edges(self, n):
        rows = straddling_rows(np.random.default_rng(1600 + n), n)
        for part in ("re", "im"):
            cdf = ATOM_LAW.cdf_real if part == "re" else ATOM_LAW.cdf_imag
            atom = atom_mass(ATOM_LAW, part)
            f = cdf(rows)
            lo, hi = np.sum(rows < 0.0, axis=1), np.sum(rows <= 0.0, axis=1)
            got = limits._ks_sorted(f, atom, lo, hi)
            assert np.array_equal(got, reference_ks_sorted(rows, f, atom))
            for k, (row, value) in enumerate(zip(rows, got)):
                assert limits._ks_sorted(cdf(row), atom, lo[k : k + 1], hi[k : k + 1]) == value
            assert_ks_block_matches_reference(rows, ATOM_LAW, part)

    @pytest.mark.parametrize("shape", [(20000, 3), (2, 3 * CHUNK + 7), (CHUNK + 1, 1)])
    def test_tall_and_wide_blocks(self, shape):
        rng = np.random.default_rng(1610 + shape[1])
        lattice = rng.integers(-4, 5, size=shape) / 4.0
        gauss = rng.standard_normal(shape)
        gauss[rng.random(shape) < 0.1] = 0.0
        for block in (lattice, gauss):
            for part in ("re", "im"):
                assert_ks_block_matches_reference(block, ATOM_LAW, part)

    def test_signed_zeros_among_roundoff(self):
        # signed zeros and roundoff-sized values around the table's grid point
        # at 0, where the CDF must not step down
        law = real_mixture([(1.0, 1.0)])
        assert law.cdf_real(0.0) <= law.cdf_real(1e-17)
        rng = np.random.default_rng(1620)
        block = rng.choice([0.0, -0.0, 1e-17, -1e-17, 2e-17], size=(5, 40))
        block[0, :3] = [1e-17, 1e-17, 1e-17]
        for case_law, part in ((law, "re"), (ATOM_LAW, "re"), (ATOM_LAW, "im")):
            assert_ks_block_matches_reference(block, case_law, part)

    @settings(max_examples=60, deadline=None)
    @given(
        chunk=st.sampled_from([1, 2, 3, 5, 8, 64]),
        trials=st.integers(1, 6),
        n=st.integers(1, 40),
        lattice=st.booleans(),
        law=st.sampled_from([ATOM_LAW, real_mixture([(2 / 3, 2 / 3), (1 / 3, 5 / 3)])]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_blocks_match_reference(self, chunk, trials, n, lattice, law, seed):
        rng = np.random.default_rng(seed)
        if lattice:
            block = rng.integers(-3, 4, size=(trials, n)) / 2.0
        else:
            block = rng.standard_normal((trials, n))
            block[rng.random(block.shape) < 0.2] = 0.0
        block[rng.random(block.shape) < 0.1] = -0.0
        with mock.patch.object(spectra, "_CHUNK", chunk):
            for part in ("re", "im") if law.kind == "complex" else ("re",):
                assert_ks_block_matches_reference(block, law, part)


class TestPairIndicators:
    """The character-pair indicators, as predicted_pair_moments reads them."""

    @pytest.mark.parametrize("spec", ["12", "8,3", "2^6", "4,2,5", "2^4,3", "6,10"])
    def test_match_character_relation(self, spec, monkeypatch):
        # each character's restriction is an exact oracle value; computing it
        # once per character keeps the all-pairs sweep fast on (Z_2)^6
        monkeypatch.setattr(
            oracle,
            "restrict_to_involutions",
            functools.lru_cache(maxsize=None)(oracle.restrict_to_involutions),
        )
        g = parse_group_spec(spec)
        p2 = involution_fraction(g)
        chars = [character_from_index(g, i) for i in range(g.size)]
        flags = {
            (i, j): character_relation(g, chars[i], chars[j])
            for i, j in itertools.product(range(g.size), repeat=2)
        }
        for hermitian, alpha, beta in itertools.product((True, False), (0.0, 0.5, 1.0), (0.5, 2.0)):
            cfg = EnsembleConfig(alpha=alpha, beta=beta, hermitian=hermitian)
            moments = predicted_pair_moments(g, cfg)
            assert len(moments) == (1 if hermitian else 2)
            assert all(m.shape == (g.size, g.size) for m in moments)
            for (i, j), f in flags.items():
                want = predicted_pair_moment(
                    same=f.same,
                    conjugate=f.conjugate,
                    same_on_involutions=f.same_on_involutions,
                    alpha=alpha,
                    beta=beta,
                    p2=p2,
                    hermitian=hermitian,
                )
                got = moments[0][i, j] if hermitian else np.diag([m[i, j] for m in moments])
                assert np.array_equal(got, want), (spec, cfg, i, j)


@st.composite
def moment_groups(draw):
    """Runs of order-2 factors and other orders 3..12 in any order, with size at
    most 256: the longest prefix that fits."""
    factors = st.one_of(st.integers(1, 4).map(lambda m: [2] * m), st.integers(3, 12).map(lambda d: [d]))
    orders = []
    for f in draw(st.lists(factors, min_size=1, max_size=5)):
        if math.prod(orders + f) > 256:
            break
        orders += f
    return make_group(orders or [2])


def moment_configs():
    return st.builds(
        EnsembleConfig,
        alpha=st.floats(0.0, 1.0),
        beta=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        hermitian=st.booleans(),
    )


class TestExactMoments:
    """predicted_pair_moments against the exact second moments of the run path."""

    @settings(max_examples=40, deadline=None)
    @given(g=moment_groups(), cfg=moment_configs())
    def test_predictions_are_exact(self, g, cfg):
        exact = oracle.exact_moments(g, cfg)
        predicted = predicted_pair_moments(g, cfg)
        assert len(exact) == (1 if cfg.hermitian else 3)
        # the moments scale with beta at the involutions, and their roundoff with them
        tol = 1e-12 * max(1.0, cfg.beta)
        for got, want in zip(exact, predicted):
            assert np.max(np.abs(got - want)) <= tol
        if not cfg.hermitian:
            assert np.max(np.abs(exact[2])) <= 1e-12  # E Re_i Im_j = 0

    @settings(max_examples=40, deadline=None)
    @given(g=moment_groups(), cfg=moment_configs())
    def test_diagonal_is_the_limit_mixture(self, g, cfg):
        # each character's variance is one of the law's components, taken by
        # a share of the characters equal to that component's weight
        try:
            law = limit_for(cfg, involution_fraction(g))
        except ValueError:
            reject()  # no mixture to match
        exact = oracle.exact_moments(g, cfg)
        diag = sorted(zip(*(np.diagonal(m) for m in exact[:2])))
        components = law.re_variances if cfg.hermitian else zip(law.re_variances, law.im_variances)
        want = []
        for w, variances in zip(law.weights, components):
            count = round(w * g.size)
            assert abs(count - w * g.size) < 1e-9
            want += [np.atleast_1d(variances)] * count
        assert len(want) == g.size
        tol = 1e-12 * max(1.0, cfg.beta)
        assert np.max(np.abs(np.array(diag) - np.array(sorted(map(tuple, want))))) <= tol
