import csv
import math

import numpy as np
import pytest

from gcirculant.ensembles import EnsembleConfig, sample_entries
from gcirculant.groups import GroupFunction, make_group, parse_group_spec
from gcirculant.oracle import (
    character_from_index,
    dense_matrix,
    eigen_residual,
    element_from_index,
    element_index,
    inv,
    is_real_character,
    mul,
    norm_ratio_curve,
)
from gcirculant.spectra import eigenvalues, spectral_norm, write_eigenvalue_csv


def write_one_row_csv(s, path):
    """The eigenvalue CSV of a one-row block: spectrum s as trial 0."""
    write_eigenvalue_csv(path, s.group, s.values.real[None], s.values.imag[None])


def table_of(g, values, hermitian=False):
    return GroupFunction(g, np.asarray(values, dtype=complex), hermitian=hermitian)


class TestEigenvalues:
    def test_constant_entries(self):
        g = make_group([4, 2, 5])
        s = eigenvalues(table_of(g, np.ones(40)))
        assert abs(s.values[0] - math.sqrt(40)) < 1e-12
        assert np.max(np.abs(s.values[1:])) < 1e-12

    def test_delta_entries(self):
        g = make_group([8, 3])
        vals = np.zeros(24)
        vals[0] = 1.0
        s = eigenvalues(table_of(g, vals))
        np.testing.assert_allclose(s.values, np.full(24, 1 / math.sqrt(24)), atol=1e-12)

    def test_hermitian_spectrum_is_real(self):
        g = make_group([6])
        cfg = EnsembleConfig(base="gaussian", alpha=0.3, beta=1.2, hermitian=True, seed=8)
        s = eigenvalues(sample_entries(g, cfg))
        assert np.max(np.abs(s.values.imag)) < 1e-10
        assert s.values.real.shape == (6,)

    @pytest.mark.parametrize("orders", [[12], [4099], [2] * 6, []], ids=str)
    def test_hermitian_imaginary_parts_are_plus_zero(self, orders):
        g = make_group(orders)
        cfg = EnsembleConfig(alpha=0.5, beta=2.0, hermitian=True, seed=32)
        for trial in range(3):
            im = eigenvalues(sample_entries(g, cfg, trial)).values.imag
            assert not im.any() and not np.signbit(im).any()

    def test_hermitian_flag_on_non_hermitian_table_raises(self):
        # a sampling fault must fail loudly, not have its Im zeroed away
        g = make_group([12])
        values = np.random.default_rng(3).standard_normal(12) + 0j
        with pytest.raises(ValueError, match="not real"):
            eigenvalues(table_of(g, values, hermitian=True))

    def test_hermitian_check_rejects_nan(self):
        g = make_group([6])
        with pytest.raises(ValueError, match="not real"):
            eigenvalues(table_of(g, [1.0, math.nan, 0, 0, 0, 0], hermitian=True))

    def test_metadata_carried(self):
        g = make_group([4, 2])
        cfg = EnsembleConfig(seed=77)
        s = eigenvalues(sample_entries(g, cfg, trial=5))
        assert s.trial == 5

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_table_and_spectrum_are_group_functions(self, hermitian):
        # an entry table and its spectrum are one type, on the same group
        g = make_group([4, 2])
        t = sample_entries(g, EnsembleConfig(hermitian=hermitian, seed=77), trial=5)
        s = eigenvalues(t)
        for f in (t, s):
            assert type(f) is GroupFunction
            assert f.group == g and f.hermitian == hermitian and f.trial == 5
            assert f.values.dtype == np.complex128 and f.values.shape == (g.size,)

    def test_parseval_bookkeeping(self):
        g = parse_group_spec("4,2,5")
        for seed in range(5):
            t = sample_entries(g, EnsembleConfig(base="uniform", alpha=0.6, seed=seed))
            s = eigenvalues(t)
            lhs = np.sum(np.abs(s.values) ** 2)
            rhs = np.sum(np.abs(t.values) ** 2)
            assert abs(lhs - rhs) < 1e-9 * rhs

    def test_permutation_consistency(self):
        # relabeling the coordinates permutes the spectrum as a multiset
        g = make_group([4, 3, 2])
        perm = (2, 0, 1)
        gp = make_group([g.orders[j] for j in perm])
        rng = np.random.default_rng(15)
        vals = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        transported = vals.reshape(4, 3, 2).transpose(perm).reshape(24)
        s1 = np.sort_complex(eigenvalues(table_of(g, vals)).values)
        s2 = np.sort_complex(eigenvalues(table_of(gp, transported)).values)
        assert np.max(np.abs(s1 - s2)) < 1e-9

    @pytest.mark.parametrize("spec", ["2", "12", "2^6", "trivial"])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_entry_values_never_written(self, spec, hermitian):
        g = make_group([]) if spec == "trivial" else parse_group_spec(spec)
        cfg = EnsembleConfig(base="gaussian", alpha=0.4, hermitian=hermitian, seed=9)
        t = sample_entries(g, cfg)
        before = t.values.copy()
        t.values.flags.writeable = False  # a write into the entries raises
        s = eigenvalues(t)
        assert np.array_equal(t.values, before)
        assert not np.shares_memory(s.values, t.values)


class TestDenseOracle:
    def test_z2_structure(self):
        g = make_group([2])
        m = dense_matrix(table_of(g, [2.0, 3.0]))
        np.testing.assert_allclose(m, np.array([[2.0, 3.0], [3.0, 2.0]]) / math.sqrt(2))

    def test_hermitian_matrix(self):
        g = make_group([8, 3])
        cfg = EnsembleConfig(base="gaussian", alpha=0.1, beta=2.0, hermitian=True, seed=3)
        m = dense_matrix(sample_entries(g, cfg))
        assert np.array_equal(m, np.conj(m).T)

    def test_rows_are_translates(self):
        g = make_group([4, 2])
        rng = np.random.default_rng(21)
        m = dense_matrix(table_of(g, rng.standard_normal(8)))
        for a in range(8):
            ea = element_from_index(g, a)
            for b in range(8):
                eb = element_from_index(g, b)
                src = element_index(g, mul(g, eb, inv(g, ea)))
                assert m[a, b] == m[0, src]

    def test_size_cap(self):
        g = parse_group_spec("2^10")
        t = sample_entries(g, EnsembleConfig(seed=0))
        with pytest.raises(ValueError):
            dense_matrix(t)
        with pytest.raises(ValueError):
            eigen_residual(t)


class TestEigenRelation:
    def test_gaussian_z12(self):
        g = make_group([12])
        for seed in range(5):
            t = sample_entries(g, EnsembleConfig(base="gaussian", alpha=0.5, seed=seed))
            assert eigen_residual(t) < 1e-9

    def test_zero_entries(self):
        g = make_group([4, 2])
        assert eigen_residual(table_of(g, np.zeros(8))) == 0.0

    def test_identity_delta(self):
        g = make_group([8, 3])
        vals = np.zeros(24)
        vals[0] = 1.0
        assert eigen_residual(table_of(g, vals)) < 1e-12

    def test_hermitian_ensembles(self):
        for spec in ("12", "4,2,5"):
            g = parse_group_spec(spec)
            cfg = EnsembleConfig(base="rademacher", alpha=1.0, beta=2.0, hermitian=True, seed=40)
            assert eigen_residual(sample_entries(g, cfg)) < 1e-9


class TestNorm:
    def test_constant_entries(self):
        g = make_group([4, 2, 5])
        assert spectral_norm(eigenvalues(table_of(g, np.ones(40))).values) == pytest.approx(
            math.sqrt(40)
        )

    def test_delta_entries(self):
        g = make_group([4, 2, 5])
        vals = np.zeros(40)
        vals[0] = 1.0
        assert spectral_norm(eigenvalues(table_of(g, vals)).values) == pytest.approx(
            1 / math.sqrt(40)
        )

    def test_block_is_one_norm_per_row(self):
        g = make_group([4, 2, 5])
        rows = [np.ones(40), np.arange(40.0)]
        block = np.array([eigenvalues(table_of(g, v)).values for v in rows])
        norms = spectral_norm(block)
        assert norms.shape == (2,)
        assert list(norms) == [spectral_norm(s) for s in block]

    def test_gaussian_norm_scale(self):
        g = parse_group_spec("4096")
        cfg = EnsembleConfig(base="gaussian", alpha=0.0, seed=55)
        hits = 0
        for trial in range(10):
            ratio = spectral_norm(eigenvalues(sample_entries(g, cfg, trial)).values) / math.sqrt(
                math.log(4096)
            )
            hits += 0.8 <= ratio <= 1.3
        assert hits >= 9

    def test_norm_ratio_curve(self):
        cfg = EnsembleConfig(base="gaussian", alpha=0.0, seed=60)
        groups = [parse_group_spec("256"), parse_group_spec("2^8")]
        points = norm_ratio_curve(cfg, groups, trials=10)
        assert [p.size for p in points] == [256, 256]
        for p in points:
            assert 0.5 < p.mean_ratio < 1.6
            assert p.stderr > 0

    def test_norm_ratio_needs_trials(self):
        with pytest.raises(ValueError):
            norm_ratio_curve(EnsembleConfig(), [make_group([4])], trials=5)

    def test_norm_ratio_stable_across_sizes(self):
        cfg = EnsembleConfig(base="gaussian", alpha=0.0, seed=61)
        small, large = norm_ratio_curve(
            cfg, [parse_group_spec("256"), parse_group_spec("16384")], trials=12
        )
        assert abs(small.mean_ratio - large.mean_ratio) < 0.3 * large.mean_ratio

    def test_norm_ratio_stable_across_distributions(self):
        g = parse_group_spec("4096")
        r_gauss = norm_ratio_curve(EnsembleConfig(base="gaussian", seed=62), [g], 12)[0]
        r_rad = norm_ratio_curve(EnsembleConfig(base="rademacher", seed=63), [g], 12)[0]
        assert 0.5 < r_gauss.mean_ratio / r_rad.mean_ratio < 2.0


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        g = make_group([4, 2])
        cfg = EnsembleConfig(base="gaussian", alpha=0.2, beta=1.0, hermitian=True, seed=2)
        s = eigenvalues(sample_entries(g, cfg))
        path = tmp_path / "spectrum.csv"
        write_one_row_csv(s, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert {r["character_index"] for r in rows} == {str(i) for i in range(8)}
        real_flags = [int(r["is_real_character"]) for r in rows]
        assert sum(real_flags) == 4  # involution count of Z4 x Z2
        for row, lam in zip(rows, s.values):
            assert float(row["re_lambda"]) == pytest.approx(lam.real)

    @pytest.mark.parametrize("spec", ["12", "4,2,5", "6,6,2"])
    def test_rows_match_per_index_loop(self, spec, tmp_path):
        g = parse_group_spec(spec)
        s = eigenvalues(sample_entries(g, EnsembleConfig(alpha=0.3, seed=23)))
        expected = [
            (i, float(lam.real), float(lam.imag),
             int(is_real_character(g, character_from_index(g, i))))
            for i, lam in enumerate(s.values)
        ]
        path = tmp_path / "spectrum.csv"
        write_one_row_csv(s, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows] == ["0"] * g.size  # the trial column
        # compared as the text the CSV writer emits
        assert [r[1:] for r in rows] == [list(map(repr, r)) for r in expected]

    def test_rows_match_values(self, tmp_path):
        g = make_group([9])
        s = eigenvalues(sample_entries(g, EnsembleConfig(seed=19)))
        path = tmp_path / "spectrum.csv"
        write_one_row_csv(s, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["character_index"]) for r in rows] == list(range(9))
        values = [complex(float(r["re_lambda"]), float(r["im_lambda"])) for r in rows]
        assert values == s.values.tolist()
        assert rows[0]["is_real_character"] == "1"  # trivial character is real
