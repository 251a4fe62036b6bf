import concurrent.futures
import csv
import hashlib
import io
import json
import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gcirculant import cli, fourier, limits, oracle
from gcirculant.cli import (
    ExperimentPlan,
    Thresholds,
    build_parser,
    histogram_rows,
    main,
    run_experiment,
)
from gcirculant.ensembles import BASE_DISTRIBUTIONS, EnsembleConfig, sample_entries
from gcirculant.groups import GroupFunction, involution_fraction, parse_group_spec
from gcirculant.oracle import character_from_index
from gcirculant.spectra import eigenvalues, write_eigenvalue_csv


def strip_timestamp(report: dict) -> dict:
    out = dict(report)
    out.pop("timestamp")
    return out


def pair_loop_deviations(g, cfg: EnsembleConfig, specs: list) -> tuple[float, float]:
    """Max diagonal and off-diagonal covariance deviations, one pair at a time.

    Rebuilds the covariance check from the scalar oracles: the exact
    character relation, the per-pair empirical moment and the predicted one.
    """
    p2 = involution_fraction(g)
    chars = [character_from_index(g, i) for i in range(g.size)]
    max_var = max_pair = 0.0
    for i in range(g.size):
        for j in range(i, g.size):
            flags = limits.character_relation(g, chars[i], chars[j])
            est = limits.empirical_eigen_covariance(specs, i, j)
            pred = limits.predicted_pair_moment(
                same=flags.same,
                conjugate=flags.conjugate,
                same_on_involutions=flags.same_on_involutions,
                alpha=cfg.alpha,
                beta=cfg.beta,
                p2=p2,
                hermitian=cfg.hermitian,
            )
            dev = float(np.max(np.abs(est.estimate - pred)))
            if i == j:
                max_var = max(max_var, dev)
            else:
                max_pair = max(max_pair, dev)
    return max_var, max_pair


class TestSelftest:
    def test_passes_on_fresh_build(self):
        ok, lines = oracle.selftest()
        assert ok
        assert all(line.startswith("PASS") for line in lines)

    def test_corrupted_fast_path_fails(self, monkeypatch):
        original = fourier.TransformPlan.forward

        def corrupted(plan, values):
            out = original(plan, values)
            if str(plan.group) == "12":
                out[5] += 0.25 + 0.25j  # fault injection
            return out

        monkeypatch.setattr(fourier.TransformPlan, "forward", corrupted)
        ok, lines = oracle.selftest()
        assert not ok
        assert any(line.startswith("FAIL transform oracle [12]") for line in lines)
        monkeypatch.undo()
        ok, _ = oracle.selftest()
        assert ok

    def test_z2_cube_counts(self):
        ok, lines = oracle.selftest(("2^6",))
        assert ok
        assert any("count [2^6]: 64" in line for line in lines)

    def test_cli_exit_code(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest: PASS" in out


class TestGroupInfo:
    def test_output(self, capsys):
        assert main(["group-info", "4,2"]) == 0
        out = capsys.readouterr().out
        assert "size: 8" in out
        assert "involutions: 4" in out
        assert "real_characters: 4" in out
        assert "p2: 1/2" in out

    def test_bad_spec(self, capsys):
        assert main(["group-info", "4,x"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_huge_exponent_is_an_error(self, capsys):
        assert main(["group-info", "2^100000000000000000000"]) == 2
        assert "error:" in capsys.readouterr().err


class TestPlanValidation:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ExperimentPlan("4096", EnsembleConfig(), trials=0, checks=("limit_distance",))

    def test_rejects_empty_checks(self):
        with pytest.raises(ValueError):
            ExperimentPlan("12", EnsembleConfig(), trials=5, checks=())

    def test_rejects_unknown_check(self):
        with pytest.raises(ValueError):
            ExperimentPlan("12", EnsembleConfig(), trials=5, checks=("spectre",))

    def test_covariance_needs_trials(self):
        with pytest.raises(ValueError):
            ExperimentPlan("4,2", EnsembleConfig(), trials=100, checks=("covariance",))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("lindeberg_epsilon", 0.0),
            ("lindeberg_epsilon", -0.0),
            ("lindeberg_epsilon", -1.0),
            ("pooled_ks", math.nan),
            ("pooled_ks", -0.01),
            ("corr_re_im", math.inf),
            ("per_trial_ks_median", math.nan),
            ("norm_ratio_low", -math.inf),
            ("lindeberg_max", -1e-9),
        ],
    )
    def test_rejects_bad_thresholds(self, name, value):
        with pytest.raises(ValueError, match=name):
            Thresholds(**{name: value})

    @pytest.mark.parametrize(
        "values, name",
        [
            ({"norm_ratio_low": 2.0, "norm_ratio_high": 1.0}, "norm_ratio_low"),
            ({"norm_ratio_low": 1.4}, "norm_ratio_low"),
            ({"lindeberg_fraction": 1.5}, "lindeberg_fraction"),
        ],
    )
    def test_rejects_thresholds_no_run_can_pass(self, values, name):
        with pytest.raises(ValueError, match=name):
            Thresholds(**values)

    def test_accepts_zero_and_default_thresholds(self):
        Thresholds()
        Thresholds(pooled_ks=0.0, per_trial_ks_median=0.0, lindeberg_max=0.0)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--lindeberg-epsilon", "0"),
            ("--lindeberg-epsilon", "-2"),
            ("--pooled-ks", "nan"),
            ("--pooled-ks", "-0.5"),
            ("--norm-ratio-high", "inf"),
            ("--lindeberg-fraction", "1.5"),
            ("--norm-ratio-low", "2 --norm-ratio-high 1"),
        ],
    )
    def test_bad_threshold_flag_exits_before_sampling(self, flag, value, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the thresholds were checked")

        monkeypatch.setattr(cli, "sample_block", no_sampling)
        monkeypatch.setattr(cli, "sample_entries", no_sampling)
        argv = ["experiment", "--group", "12", "--trials", "2"]
        checks = "limit_distance,norm_curve,lindeberg"
        assert main([*argv, "--checks", checks, flag, *value.split()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--alpha", "-1e-3"),
            ("--alpha", "-nan"),
            ("--beta", "-inf"),
            ("--beta", "-Infinity"),
            ("--pooled-ks", "-1E-5"),
            ("--lindeberg-max", "-.5e2"),
        ],
    )
    def test_negative_float_as_its_own_argument_reaches_the_plan(self, flag, value, capsys):
        # argparse alone takes "-1e-3" and "-inf" for options, not for values
        argv = ["experiment", "--group", "12", "--trials", "2", "--checks", "lindeberg"]
        assert main([*argv, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + flag[2:].replace("-", "_")) and err.count("\n") == 1
        assert main([*argv, f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("value", ["x", "1.5", "-inf", "1e3", ""])
    @pytest.mark.parametrize("flag", ["--trials", "--seed", "--jobs"])
    def test_bad_integer_flag_is_one_error_line(self, flag, value, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the flag was converted")

        monkeypatch.setattr(cli, "sample_block", no_sampling)
        monkeypatch.setattr(cli, "sample_entries", no_sampling)
        argv = ["experiment", "--group", "12", "--trials", "2", "--checks", "lindeberg"]
        line = f"error: {flag[2:]}: expected an integer, got {value!r}\n"
        assert main([*argv, flag, value]) == 2
        assert capsys.readouterr().err == line
        assert main([*argv, f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--alpha", "x", "alpha: could not convert string to float: 'x'"),
            ("--beta", "", "beta: could not convert string to float: ''"),
            ("--pooled-ks", "x", "pooled_ks: could not convert string to float: 'x'"),
            (
                "--per-trial-ks-median",
                "1,5",
                "per_trial_ks_median: could not convert string to float: '1,5'",
            ),
            ("--base", "bogus", f"base must be one of {BASE_DISTRIBUTIONS}, got 'bogus'"),
            # one leading "-": a value as its own argument, not an option
            ("--base", "-x", f"base must be one of {BASE_DISTRIBUTIONS}, got '-x'"),
            ("--hermitian", "maybe", "hermitian: expected a boolean, got 'maybe'"),
            ("--hermitian", "", "hermitian: expected a boolean, got ''"),
        ],
        ids=[
            "alpha",
            "beta",
            "pooled-ks",
            "per-trial-ks-median",
            "base",
            "base-single-dash",
            "hermitian",
            "hermitian-empty",
        ],
    )
    def test_bad_float_flag_is_one_error_line(self, flag, value, message, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the flag was converted")

        monkeypatch.setattr(cli, "sample_block", no_sampling)
        monkeypatch.setattr(cli, "sample_entries", no_sampling)
        argv = ["experiment", "--group", "12", "--trials", "2", "--checks", "lindeberg"]
        assert main([*argv, flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main([*argv, f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_integer_in_config_is_one_error_line(self, tmp_path, capsys):
        conf = tmp_path / "plan.cfg"
        conf.write_text("group = 12\ntrials = 2.0\n")
        assert main(["experiment", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == "error: trials: expected an integer, got '2.0'\n"

    @pytest.mark.parametrize("low_from_file", [False, True])
    def test_thresholds_are_checked_together(self, low_from_file, tmp_path):
        # a low bound above the default high one is fine when high moves too
        conf, out = tmp_path / "plan.conf", tmp_path / "report.json"
        conf.write_text("norm_ratio_low = 1.4\n" if low_from_file else "norm_ratio_high = 2\n")
        flags = ["--norm-ratio-high", "2"] if low_from_file else ["--norm-ratio-low", "1.4"]
        argv = ["experiment", "--config", str(conf), "--group", "12", "--trials", "2"]
        main([*argv, "--checks", "norm_curve", "--out", str(out), *flags])
        check = json.loads(out.read_text())["checks"]["norm_curve"]
        assert (check["low"], check["high"]) == (1.4, 2.0)

    def test_bad_threshold_in_config_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "plan.conf"
        conf.write_text("group = 12\ntrials = 2\npooled_ks = nan\n")
        assert main(["experiment", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == "error: pooled_ks must be finite and >= 0, got nan\n"

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                "norm_ratio_low = 2\nnorm_ratio_high = 1\n",
                "norm_ratio_low must be <= norm_ratio_high, got 2.0 > 1.0",
            ),
            ("lindeberg_fraction = 1.5\n", "lindeberg_fraction must be <= 1, got 1.5"),
        ],
    )
    def test_contradictory_threshold_in_config_exits_2(self, lines, message, tmp_path, capsys):
        conf = tmp_path / "plan.conf"
        conf.write_text("group = 12\ntrials = 2\nchecks = norm_curve,lindeberg\n" + lines)
        assert main(["experiment", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
    def test_infinite_beta_exits_before_sampling(self, from_file, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before beta was checked")

        monkeypatch.setattr(cli, "sample_block", no_sampling)
        monkeypatch.setattr(cli, "sample_entries", no_sampling)
        conf = tmp_path / "plan.conf"
        conf.write_text("group = 12\ntrials = 2\nhermitian = true\nbeta = inf\n")
        argv = ["experiment", "--group", "12", "--trials", "2", "--beta", "inf", "--hermitian"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["experiment", "--config", str(conf)] if from_file else argv) == 2
        assert caught == []
        assert capsys.readouterr().err == "error: beta must be finite and > 0, got inf\n"

    def test_beta_over_the_cap_exits_before_sampling(self, tmp_path, capsys, monkeypatch):
        # at beta = 1e308 the covariance moments overflowed, and the report held
        # Infinity and NaN, which JSON does not allow
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before beta was checked")

        monkeypatch.setattr(cli, "sample_block", no_sampling)
        monkeypatch.setattr(cli, "sample_entries", no_sampling)
        out = tmp_path / "r.json"
        argv = ["experiment", "--group", "2^6", "--trials", "1000", "--hermitian"]
        argv += ["--beta", "1e308", "--checks", "covariance", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        assert capsys.readouterr().err == "error: beta must be at most 1e+200, got 1e+308\n"
        assert not out.exists()

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
    def test_negative_seed_exits_before_sampling(self, from_file, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the seed was checked")

        monkeypatch.setattr(cli, "sample_block", no_sampling)
        monkeypatch.setattr(cli, "sample_entries", no_sampling)
        conf = tmp_path / "plan.conf"
        conf.write_text("group = 12\ntrials = 2\nseed = -1\n")
        argv = ["experiment", "--group", "12", "--trials", "2", "--seed", "-1"]
        assert main(["experiment", "--config", str(conf)] if from_file else argv) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "value", ["9" * 5001, "x" * 5000, "\u00e9" * 3000], ids=["digits", "ascii", "two-byte"]
    )
    @pytest.mark.parametrize(
        "flag", ["--seed", "--trials", "--group", "--alpha", "--base", "--hermitian", "--checks"]
    )
    def test_long_value_is_one_short_error_line(self, flag, value, capsys, monkeypatch):
        # a line that echoes the value keeps its two ends, cut between UTF-8 characters
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the flag was checked")

        monkeypatch.setattr(cli, "sample_block", no_sampling)
        monkeypatch.setattr(cli, "sample_entries", no_sampling)
        argv = ["experiment", "--group", "12", "--trials", "2", "--checks", "lindeberg"]
        assert main([*argv, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        assert len(err.encode()) < 200

    def test_trial_bytes_cap_rejects_the_plan(self, capsys):
        # only plans are built: 2 x 100 x 2^22 x 8 B = 6.25 GiB is never allocated
        with pytest.raises(ValueError, match="over the cap"):
            ExperimentPlan(
                group="2^22", cfg=EnsembleConfig(), trials=100, checks=("limit_distance",)
            )
        argv = ["experiment", "--group", "2^22", "--trials", "100", "--checks", "limit_distance"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: per-trial results take")
        # the (T,) arrays count as well: a norm_curve run keeps no block
        ExperimentPlan(group="12", cfg=EnsembleConfig(), trials=2**27, checks=("norm_curve",))
        with pytest.raises(ValueError, match="over the cap"):
            ExperimentPlan(
                group="12", cfg=EnsembleConfig(), trials=2**27 + 1, checks=("norm_curve",)
            )

    @pytest.mark.parametrize("trials", [2**27 + 1, 10**12, 10**30])
    def test_trial_bytes_cap_bounds_a_plan_that_keeps_no_array(
        self, trials, capsys, monkeypatch
    ):
        # a selftest-only run keeps no per-trial array but still samples every
        # trial; it counts 8 bytes a trial, as a norm_curve run does
        def refuse(*args, **kwargs):
            raise RuntimeError("sampled")

        monkeypatch.setattr(cli, "sample_block", refuse)
        monkeypatch.setattr(cli, "sample_entries", refuse)
        argv = ["experiment", "--group", "2", "--trials", str(trials), "--checks", "selftest"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: per-trial results take {8 * trials} bytes, over the cap {2**30}\n"
        ExperimentPlan(group="2", cfg=EnsembleConfig(), trials=2**27, checks=("selftest",))

    @pytest.mark.parametrize(
        "hermitian, trials, csv_only",
        [(False, 16, False), (True, 32, False), (True, 32, True)],
    )
    def test_trial_bytes_cap_counts_the_kept_blocks(self, hermitian, trials, csv_only, tmp_path):
        # at the cap exactly, and one trial over it; a Hermitian run keeps no Im block
        assert (8 if hermitian else 16) * trials * 2**22 == cli.TRIAL_BYTES_CAP
        checks = ("selftest",) if csv_only else ("limit_distance",)
        for t, ok in ((trials, True), (trials + 1, False)):
            plan = dict(
                group="2^22",
                cfg=EnsembleConfig(hermitian=hermitian),
                trials=t,
                checks=checks,
                eigenvalue_csv=tmp_path / "e.csv" if csv_only else None,
            )
            if ok:
                ExperimentPlan(**plan)
            else:
                with pytest.raises(ValueError, match="over the cap"):
                    ExperimentPlan(**plan)

    @pytest.mark.parametrize(
        "checks, csv",
        [
            (("limit_distance",), False),
            (("covariance", "norm_curve"), False),
            (("norm_curve", "lindeberg"), True),
            (("lindeberg",), False),
            (("selftest",), False),
            (("covariance",), False),
            (("norm_curve",), False),
        ],
    )
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_trial_results_fill_the_shapes_the_cap_counts(self, checks, csv, hermitian, tmp_path):
        plan = ExperimentPlan(
            group="2,3",
            cfg=EnsembleConfig(hermitian=hermitian, seed=3),
            trials=1000 if "covariance" in checks else 3,
            checks=checks,
            eigenvalue_csv=tmp_path / "e.csv" if csv else None,
        )
        g = parse_group_spec(plan.group)
        shapes = {name: a.shape for name, a in cli._trial_results(plan, g).items()}
        assert shapes == cli._trial_shapes(plan, g.size)

    @pytest.mark.parametrize("name", cli.CHECK_NAMES)
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_each_check_reads_only_the_arrays_it_declares(self, name, hermitian, monkeypatch):
        # a run of one check keeps only the arrays it declares, so reading any
        # other raises; the recorder also sees a read through arrays.get
        read = set()

        class Recorder(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        trial_results = cli._trial_results
        monkeypatch.setattr(cli, "_trial_results", lambda *a: Recorder(trial_results(*a)))
        plan = ExperimentPlan(
            group="2,3",
            cfg=EnsembleConfig(hermitian=hermitian, seed=3),
            trials=1000 if name == "covariance" else 3,
            checks=(name,),
        )
        assert set(run_experiment(plan)["checks"]) == {name}
        declared = set(cli._CHECKS[name][1])
        assert read <= declared
        assert set(cli._trial_shapes(plan, 6)) == declared - ({"im"} if hermitian else set())

    def test_invalid_limit_law_exits_before_sampling(self, capsys, monkeypatch):
        calls = []

        def counting(original):
            def count(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            return count

        monkeypatch.setattr(cli, "sample_block", counting(cli.sample_block))
        monkeypatch.setattr(cli, "sample_entries", counting(cli.sample_entries))
        # p2 = 1/2, so the Hermitian mixture's first variance is 1 + (beta - 2)/2 = 0
        flags = ["--hermitian", "--alpha", "1", "--beta", "1e-300"]
        assert main(["experiment", "--group", "4,2^4", "--trials", "20", *flags]) == 2
        err = "error: nonpositive mixture variance 0.0; invalid parameters\n"
        assert capsys.readouterr().err == err
        assert calls == []
        # the law is checked only for a run that asks for limit_distance
        cfg = EnsembleConfig(alpha=1.0, beta=1e-300, hermitian=True)
        ExperimentPlan(group="4,2^4", cfg=cfg, trials=20, checks=("lindeberg",))

    @pytest.mark.parametrize("flag", ["--out", "--eigenvalue-csv"])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_bad_output_path_exits_before_sampling(
        self, flag, where, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def counting(original):
            def count(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            return count

        monkeypatch.setattr(cli, "sample_block", counting(cli.sample_block))
        monkeypatch.setattr(cli, "sample_entries", counting(cli.sample_entries))
        path = tmp_path / "missing" / "r.out" if where == "missing_dir" else tmp_path
        argv = ["experiment", "--group", "12", "--trials", "5", flag, str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and str(path) in err
        assert calls == []
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "out, csv_path", [("x.json", "x.json"), ("x.json", "./x.json"), ("sub/../x.json", "x.json")]
    )
    def test_out_and_csv_at_one_path_exit_before_sampling(
        self, out, csv_path, tmp_path, capsys, monkeypatch
    ):
        # the CSV would be written, then replaced by the report
        def refuse(*args, **kwargs):
            raise RuntimeError("sampled")

        monkeypatch.setattr(cli, "sample_block", refuse)
        monkeypatch.setattr(cli, "sample_entries", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        argv = ["experiment", "--group", "4", "--trials", "2", "--checks", "norm_curve"]
        assert main(argv + ["--out", out, "--eigenvalue-csv", csv_path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: out and eigenvalue_csv are the same file: {out}\n"
        assert sorted(q.name for q in tmp_path.iterdir()) == ["sub"]
        assert list((tmp_path / "sub").iterdir()) == []


class TestMedian:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, np.nan, np.inf])),
            min_size=1,
            max_size=300,
        )
    )
    @example(values=[0.3])
    @example(values=[0.3, 0.1])
    @example(values=[0.1, 0.2, 0.7])
    @example(values=[0.4, np.nan])
    def test_median_is_np_median_bit_for_bit(self, values):
        # the per-trial KS median: odd T takes the middle value, even T the
        # mean of the two middle values, and a nan anywhere gives nan
        x = np.array(values)
        got = cli._median(x)
        assert x.tobytes() == np.array(values).tobytes()
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(np.median(x)).tobytes()


class TestExperiment:
    def test_small_run_report(self, tmp_path):
        out = tmp_path / "report.json"
        plan = ExperimentPlan(
            group="8,3",
            cfg=EnsembleConfig(base="gaussian", alpha=0.0, seed=5),
            trials=8,
            checks=("limit_distance", "norm_curve", "lindeberg"),
            out=out,
        )
        report = run_experiment(plan)
        assert report["group_size"] == 24
        assert report["p2"] == "1/12"
        assert set(report["checks"]) == {"limit_distance", "norm_curve", "lindeberg"}
        on_disk = json.loads(out.read_text())
        assert strip_timestamp(on_disk) == strip_timestamp(report)

    def test_limit_distance_record_schema(self):
        plan = ExperimentPlan(
            group="2^6",
            cfg=EnsembleConfig(base="gaussian", alpha=0.0, seed=3),
            trials=5,
            checks=("limit_distance",),
        )
        record = run_experiment(plan)["checks"]["limit_distance"]
        for key in (
            "group",
            "ensemble",
            "trials",
            "pooled_ks_re",
            "pooled_ks_im",
            "per_trial_ks_median",
            "corr_re_im",
            "p2",
            "limit_params",
        ):
            assert key in record

    def test_hermitian_real_law_path(self):
        plan = ExperimentPlan(
            group="3,2^4",
            cfg=EnsembleConfig(base="gaussian", alpha=0.0, beta=1.0, hermitian=True, seed=4),
            trials=6,
            checks=("limit_distance",),
        )
        record = run_experiment(plan)["checks"]["limit_distance"]
        assert record["pooled_ks_im"] == 0.0
        assert record["limit_params"]["kind"] == "real"

    def test_covariance_check_runs(self):
        plan = ExperimentPlan(
            group="4,2",
            cfg=EnsembleConfig(base="gaussian", alpha=1.0, beta=1.0, hermitian=True, seed=6),
            trials=1500,
            checks=("covariance",),
            thresholds=Thresholds(covariance_tol=0.2),
        )
        record = run_experiment(plan)["checks"]["covariance"]
        assert record["passed"]
        assert record["max_var_deviation"] < 0.2

    def test_covariance_size_cap(self):
        with pytest.raises(ValueError):
            plan = ExperimentPlan(
                group="4096",
                cfg=EnsembleConfig(seed=1),
                trials=1000,
                checks=("covariance",),
            )
            run_experiment(plan)

    def test_covariance_size_cap_rejects_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the size cap was checked")

        monkeypatch.setattr(cli, "sample_block", no_sampling)
        monkeypatch.setattr(cli, "sample_entries", no_sampling)
        with pytest.raises(ValueError, match="caps group size"):
            plan = ExperimentPlan(
                group="2^7", cfg=EnsembleConfig(seed=1), trials=1000, checks=("covariance",)
            )
            run_experiment(plan)

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_covariance_check_matches_pair_loop(self, hermitian):
        g = parse_group_spec("2^2,3")
        cfg = EnsembleConfig(base="gaussian", alpha=0.5, beta=2.0, hermitian=hermitian, seed=7)
        plan = ExperimentPlan(group="2^2,3", cfg=cfg, trials=1000, checks=("covariance",))
        record = run_experiment(plan)["checks"]["covariance"]
        specs = [eigenvalues(sample_entries(g, cfg, t)) for t in range(1000)]
        want_var, want_pair = pair_loop_deviations(g, cfg, specs)
        assert record["max_var_deviation"] == pytest.approx(want_var, abs=1e-12)
        assert record["max_pair_deviation"] == pytest.approx(want_pair, abs=1e-12)
        assert record["passed"] == (max(want_var, want_pair) <= record["tolerance"])

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_covariance_check_matches_pair_loop_on_planted_moments(self, hermitian):
        # synthetic spectra whose largest deviations sit in single entries of
        # the pair blocks, each of which the check must see
        g = parse_group_spec("4,3")
        cfg = EnsembleConfig(alpha=0.5, beta=2.0, hermitian=hermitian)
        rng = np.random.default_rng(8)
        values = rng.standard_normal((1000, g.size)) + 1j * rng.standard_normal((1000, g.size))
        values.imag[:, 2] += 3.0 * values.real[:, 9]  # E Im_2 Re_9: pair (2, 9), lower block
        values.real[:, 4] += 2.0 * values.real[:, 7]
        specs = [GroupFunction(g, row, hermitian=hermitian) for row in values]
        plan = ExperimentPlan(group="4,3", cfg=cfg, trials=1000, checks=("covariance",))
        arrays = {"re": values.real} if hermitian else {"re": values.real, "im": values.imag}
        record = cli._check_covariance(plan, g, arrays)
        want_var, want_pair = pair_loop_deviations(g, cfg, specs)
        assert record["max_var_deviation"] == pytest.approx(want_var, abs=1e-12)
        assert record["max_pair_deviation"] == pytest.approx(want_pair, abs=1e-12)

    def test_failing_threshold_gives_failed_report(self):
        plan = ExperimentPlan(
            group="8,3",
            cfg=EnsembleConfig(base="gaussian", alpha=0.0, seed=5),
            trials=5,
            checks=("limit_distance",),
            thresholds=Thresholds(pooled_ks=1e-9),
        )
        report = run_experiment(plan)
        assert not report["passed"]

    def test_default_thresholds_at_scale(self):
        # a criterion-sized pool passes the documented default thresholds
        plan = ExperimentPlan(
            group="2^12",
            cfg=EnsembleConfig(base="gaussian", alpha=0.0, seed=21),
            trials=20,
            checks=("limit_distance",),
        )
        report = run_experiment(plan)
        assert report["passed"]
        assert report["checks"]["limit_distance"]["pooled_ks_re"] < 0.02

    def test_hermitian_mixture_report(self):
        plan = ExperimentPlan(
            group="3,2^10",
            cfg=EnsembleConfig(base="rademacher", alpha=1.0, beta=1.0, hermitian=True, seed=22),
            trials=20,
            checks=("limit_distance",),
        )
        record = run_experiment(plan)["checks"]["limit_distance"]
        assert record["p2"] == "1/3"
        params = record["limit_params"]
        assert params["kind"] == "real"
        np.testing.assert_allclose(params["weights"], (2 / 3, 1 / 3))
        np.testing.assert_allclose(params["re_variances"], (2 / 3, 5 / 3))
        assert record["passed"]

    def test_determinism_across_jobs(self, tmp_path, monkeypatch):
        # 4,2,5 x 10 is two batches (trial 0, then 1-9); 2^12 x 14 is five
        # (trial 0, then four of at most 4 trials): 3 jobs take uneven shares,
        # and 8 jobs are more than the batches
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        for group, trials, jobs_list in (("4,2,5", 10, (1, 4)), ("2^12", 14, (1, 3, 8))):
            reports = {}
            csvs = {}
            for jobs in jobs_list:
                out = tmp_path / f"report{jobs}.json"
                eig = tmp_path / f"eig{jobs}.csv"
                plan = ExperimentPlan(
                    group=group,
                    cfg=EnsembleConfig(base="rademacher", alpha=1.0, seed=99),
                    trials=trials,
                    checks=("limit_distance", "norm_curve", "lindeberg"),
                    out=out,
                    eigenvalue_csv=eig,
                    jobs=jobs,
                )
                run_experiment(plan)
                reports[jobs] = strip_timestamp(json.loads(out.read_text()))
                csvs[jobs] = eig.read_text()
            for jobs in jobs_list[1:]:
                assert reports[jobs] == reports[1], (group, jobs)
                assert csvs[jobs] == csvs[1], (group, jobs)

    @pytest.mark.parametrize(
        "trials, cpus, pools",
        [(3, 4, [2]), (10, 4, [2]), (10, None, []), (1, 4, [])],
    )
    def test_thread_pool_is_bounded(self, monkeypatch, trials, cpus, pools):
        # a fake pool records its size and maps serially: no thread is started;
        # the unit of work is a batch, and on Z_6 the trials after trial 0 are one
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        plan = ExperimentPlan(
            group="6",
            cfg=EnsembleConfig(seed=8),
            trials=trials,
            checks=("norm_curve",),
            jobs=100_000,
        )
        report = run_experiment(plan)
        assert started == pools
        serial = run_experiment(replace(plan, jobs=1))
        assert strip_timestamp(report) == strip_timestamp(serial)

    @pytest.mark.parametrize(
        "trials, cpus, shares",
        [
            (14, 4, [[0], [1], [2], [3, 4]]),  # as many threads as CPUs
            (14, 8, [[0], [1], [2], [3], [4]]),  # one thread per batch
            (5, 8, [[0], [1]]),
            (14, 2, [[0, 1], [2, 3, 4]]),
        ],
    )
    def test_threads_take_contiguous_shares_of_batches(self, monkeypatch, trials, cpus, shares):
        # on 2^12 a batch is trial 0 alone or at most 4 trials; a fake pool
        # records each thread's share, as batch numbers, and maps serially
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                assert max_workers == len(shares)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                seen.extend([cli._batches(trials, 4).index(b) for b in share] for share in items)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        plan = ExperimentPlan(
            group="2^12",
            cfg=EnsembleConfig(seed=8),
            trials=trials,
            checks=("norm_curve",),
            jobs=100_000,
        )
        report = run_experiment(plan)
        assert seen == shares
        serial = run_experiment(replace(plan, jobs=1))
        assert strip_timestamp(report) == strip_timestamp(serial)

    def test_threads_fill_disjoint_rows(self, monkeypatch, tmp_path):
        # more threads than cores, switching as often as the interpreter
        # allows: a lost or misplaced row write changes the CSV or a record
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        cfg = EnsembleConfig(alpha=0.5, seed=17)
        checks = ("covariance", "limit_distance", "norm_curve", "lindeberg")
        texts = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for jobs in (1, 8):
                eig = tmp_path / f"eig{jobs}.csv"
                plan = ExperimentPlan(
                    group="4,2,5",
                    cfg=cfg,
                    trials=1000,
                    checks=checks,
                    eigenvalue_csv=eig,
                    jobs=jobs,
                )
                texts[jobs] = (strip_timestamp(run_experiment(plan)), eig.read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert texts[8] == texts[1]

    def test_peak_memory_within_block_budget(self):
        # the trial blocks are the run's one copy of the spectra, and the
        # checks that read them (limit_distance consumes them in place) make
        # no temporary of a block's size, so the traced peak stays near the
        # complex payload
        g = parse_group_spec("3,2^12")
        plan = ExperimentPlan(
            group="3,2^12",
            cfg=EnsembleConfig(alpha=0.5, seed=3),
            trials=20,
            checks=("limit_distance", "norm_curve", "lindeberg"),
        )
        run_experiment(plan)  # warm-up: the transform plan and the CDF table are cached
        tracemalloc.start()
        try:
            run_experiment(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = plan.trials * g.size * 16
        assert peak <= 1.6 * payload, f"peak {peak / payload:.2f} x the complex payload"

    # traced peak / complex payload, measured: 1.532 and 1.303 on both pairs,
    # where two buffers for a Hadamard plan read 1.751 and 1.503.  A batch
    # transforms in its one work buffer, the draw buffer too.  On N = 65536 a
    # batch is 1 trial (buffer 0.25) and trial 0's out-of-place path sets the
    # peak: table and spectrum, 0.25 each; spectral_norm's |lambda| array of a
    # row's size would add 0.125.  On N = 4096 a batch is 4 trials (buffer 0.2,
    # |lambda| 0.1) and sets the peak; a second buffer would add 0.2
    @pytest.mark.parametrize(
        "group, trials, budget",
        [("65536", 4, 1.56), ("4096", 20, 1.33), ("2^16", 4, 1.56), ("2^12", 20, 1.33)],
    )
    def test_batches_use_one_buffer(self, group, trials, budget):
        plan = ExperimentPlan(
            group=group,
            cfg=EnsembleConfig(alpha=0.5, seed=3),
            trials=trials,
            checks=("limit_distance", "norm_curve"),
        )
        run_experiment(plan)  # warm-up, as above
        tracemalloc.start()
        try:
            run_experiment(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = trials * parse_group_spec(group).size * 16
        assert peak <= budget * payload, f"peak {peak / payload:.3f} x the complex payload"


class TestReadersDoNotInterfere:
    """The checks and the CSV writer read the same trial blocks, and
    limit_distance overwrites them in place, so it must read them last."""

    CHECKS = ("covariance", "limit_distance", "norm_curve")

    @pytest.mark.parametrize("hermitian", [False, True], ids=["complex", "hermitian"])
    def test_each_reader_sees_the_sampled_blocks(self, tmp_path, capsys, hermitian):
        cfg = EnsembleConfig(alpha=0.5, beta=2.0, hermitian=hermitian, seed=13)
        flags = ["--group", "4,2,5", "--trials", "1000", "--seed", "13", "--alpha", "0.5"]
        flags += ["--beta", "2.0", "--hermitian" if hermitian else "--no-hermitian"]
        out, eig = tmp_path / "report.json", tmp_path / "eig.csv"
        code = main(
            ["experiment", *flags, "--checks", ",".join(self.CHECKS)]
            + ["--out", str(out), "--eigenvalue-csv", str(eig)]
        )
        report = json.loads(out.read_text())
        lines = capsys.readouterr().out.splitlines()
        verdicts = ["PASS" if report["checks"][c]["passed"] else "FAIL" for c in self.CHECKS]
        assert lines == [f"{v} {c}" for v, c in zip(verdicts, self.CHECKS)] + [
            f"experiment: {'PASS' if code == 0 else 'FAIL'}"
        ]

        for name in self.CHECKS:
            alone = tmp_path / f"{name}.json"
            run_experiment(
                ExperimentPlan(group="4,2,5", cfg=cfg, trials=1000, checks=(name,), out=alone)
            )
            assert report["checks"][name] == json.loads(alone.read_text())["checks"][name]
        unsorted = tmp_path / "unsorted.csv"
        plan = ExperimentPlan(
            group="4,2,5",
            cfg=cfg,
            trials=1000,
            checks=("covariance", "norm_curve"),
            eigenvalue_csv=unsorted,
        )
        run_experiment(plan)
        assert eig.read_bytes() == unsorted.read_bytes()


class TestHistogram:
    def test_constant_samples_single_bin(self):
        rows = histogram_rows(np.full(50, 3.0), bins=4)
        counts = [r[3] for r in rows if r[0] == "re"]
        assert sum(1 for c in counts if c > 0) == 1
        assert sum(counts) == 50

    def test_two_bins_split_exactly(self):
        rows = histogram_rows(np.array([-1.0, 1.0, -1.0, 1.0]), bins=2)
        assert [r[3] for r in rows] == [2, 2]

    def test_symmetric_tails_balance(self):
        rng = np.random.default_rng(44)
        rows = histogram_rows(rng.standard_normal(20000), bins=10)
        counts = [r[3] for r in rows]
        first, last = counts[0], counts[-1]
        assert abs(first - last) <= 5 * np.sqrt(first + last + 1)

    def test_imaginary_part_included_when_complex(self):
        z = np.array([1.0 + 1j, -1.0 - 1j, 0.5 + 0j])
        rows = histogram_rows(z, bins=2)
        assert {r[0] for r in rows} == {"re", "im"}

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram_rows(np.ones(3), bins=1)
        with pytest.raises(ValueError, match="bins must be in"):
            histogram_rows(np.ones(3), bins=cli.HISTOGRAM_BINS_CAP + 1)
        with pytest.raises(ValueError):
            histogram_rows(np.array([]), bins=2)

    def test_huge_bins_exit_before_reading(self, tmp_path, capsys):
        # the bin count is checked first, so the missing input is never opened
        missing = tmp_path / "missing.csv"
        assert main(["histogram", "--in", str(missing), "--bins", str(2**40)]) == 2
        assert capsys.readouterr().err == (
            f"error: bins must be in [2, {cli.HISTOGRAM_BINS_CAP}], got {2**40}\n"
        )

    @pytest.mark.parametrize("value", ["x", "1.5", "-inf", "nan"])
    def test_bad_integer_bins_is_one_error_line(self, value, tmp_path, capsys):
        # converted before the missing input would be opened
        missing = tmp_path / "missing.csv"
        assert main(["histogram", "--in", str(missing), "--bins", value]) == 2
        assert capsys.readouterr().err == f"error: bins: expected an integer, got {value!r}\n"

    def test_cli_round_trip(self, tmp_path, capsys):
        eig = tmp_path / "eig.csv"
        plan = ExperimentPlan(
            group="8,3",
            cfg=EnsembleConfig(seed=2),
            trials=3,
            checks=("limit_distance",),
            eigenvalue_csv=eig,
        )
        run_experiment(plan)
        out_csv = tmp_path / "hist.csv"
        assert main(["histogram", "--in", str(eig), "--bins", "6", "--out", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        re_counts = [int(r["count"]) for r in rows if r["part"] == "re"]
        assert sum(re_counts) == 72  # 3 trials x 24 eigenvalues

    def test_hermitian_csv_gives_re_rows_only(self, tmp_path):
        # Im is written as exactly 0.0 for a Hermitian ensemble, so no im part
        eig, out_csv = tmp_path / "eig.csv", tmp_path / "hist.csv"
        cfg = EnsembleConfig(alpha=0.5, beta=2.0, hermitian=True, seed=32)
        plan = ExperimentPlan(
            group="12", cfg=cfg, trials=3, checks=("norm_curve",), eigenvalue_csv=eig
        )
        run_experiment(plan)
        assert main(["histogram", "--in", str(eig), "--bins", "6", "--out", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["part"] for r in rows} == {"re"}
        assert sum(int(r["count"]) for r in rows) == 36

    @pytest.mark.parametrize(
        "header", ["trial,character_index\n0,0\n", "re_lambda,trial\n1.0,0\n", ""]
    )
    def test_missing_columns_is_an_error(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.csv"
        bad.write_text(header)
        assert main(["histogram", "--in", str(bad), "--bins", "4"]) == 2
        assert "missing column" in capsys.readouterr().err

    def test_short_row_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("re_lambda,im_lambda\n1.0,0.5\n2.0\n")
        assert main(["histogram", "--in", str(bad), "--bins", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body", ["re_lambda,im_lambda\n1.0,abc\n", "re_lambda,im_lambda\n1.0,0.5\n,2.0\n"]
    )
    def test_non_numeric_field_is_an_error(self, tmp_path, capsys, body):
        bad = tmp_path / "text.csv"
        bad.write_text(body)
        assert main(["histogram", "--in", str(bad), "--bins", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_header_only_is_an_error_without_warning(self, tmp_path, capsys):
        bad = tmp_path / "header.csv"
        bad.write_text("trial,character_index,re_lambda,im_lambda,is_real_character\r\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["histogram", "--in", str(bad), "--bins", "4"]) == 2
        assert caught == []
        assert capsys.readouterr().err == "error: empty input\n"


def reference_histogram_text(path, bins: int) -> str:
    """The histogram CSV from the csv.DictReader loop the loadtxt read replaced."""
    re_vals: list[float] = []
    im_vals: list[float] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh, restval=""):
            re_vals.append(float(row["re_lambda"]))
            im_vals.append(float(row["im_lambda"]))
    values = np.array(re_vals) + 1j * np.array(im_vals)
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(("part", "bin_left", "bin_right", "count"))
    writer.writerows(histogram_rows(values, bins))
    return out.getvalue()


class TestHistogramMatchesRowReader:
    @pytest.mark.parametrize(
        "spec, hermitian", [("4,2,5", False), ("4,2,5", True), ("8,3", False), ("4099", True)]
    )
    def test_eigenvalue_csv(self, tmp_path, spec, hermitian):
        eig = tmp_path / "eig.csv"
        cfg = EnsembleConfig(alpha=0.5, hermitian=hermitian, seed=31)
        plan = ExperimentPlan(
            group=spec, cfg=cfg, trials=4, checks=("norm_curve",), eigenvalue_csv=eig
        )
        run_experiment(plan)
        self.assert_same_histogram(tmp_path, eig)

    @pytest.mark.parametrize("spec", ["12", "2^6"])
    def test_spectrum_csv(self, tmp_path, spec):
        g = parse_group_spec(spec)
        path = tmp_path / "spectrum.csv"
        s = eigenvalues(sample_entries(g, EnsembleConfig(seed=32), 0))
        write_eigenvalue_csv(path, g, s.values.real[None], s.values.imag[None])  # one-row block
        self.assert_same_histogram(tmp_path, path)

    def test_reordered_and_repeated_columns(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text(
            "im_lambda,x,re_lambda,im_lambda\r\n"
            "9.0,a,0.25,-1.5\r\n9.0,b,-2.0,0.5\r\n9.0,c,1e-300,2.5\r\n"
        )
        self.assert_same_histogram(tmp_path, path)

    @staticmethod
    def assert_same_histogram(tmp_path, path):
        out = tmp_path / "hist.csv"
        assert main(["histogram", "--in", str(path), "--bins", "7", "--out", str(out)]) == 0
        assert out.read_bytes().decode() == reference_histogram_text(path, 7)


class TestEigenvalueCsv:
    # SHA-256 of the CSV bytes: values are written as repr(float), flags as 0/1
    @pytest.mark.parametrize(
        "group, cfg, digest",
        [
            (
                "4,2,5",
                EnsembleConfig(base="rademacher", alpha=1.0, seed=31),
                "348d4b7627484ff1f756f0f09a1891ffe271f2fca0b0251a42aa7378a7ae32dc",
            ),
            (
                "4,3",
                EnsembleConfig(base="gaussian", alpha=0.5, beta=2.0, hermitian=True, seed=32),
                "bd1b2fd07a1c4ab329651a3e2f9c6cf80eef7d4a208d2d752e56d60ded37d11b",
            ),
            (
                # the transform leaves roundoff in 3 of 12 Im parts per trial;
                # they are written as 0.0
                "12",
                EnsembleConfig(base="gaussian", alpha=0.5, beta=2.0, hermitian=True, seed=32),
                "d7485d497e2e08b8f232301d9ca27d776260c1c1cf839345998109a008adab6e",
            ),
        ],
        ids=["4,2,5", "4,3", "12"],
    )
    def test_golden_bytes(self, tmp_path, group, cfg, digest):
        eig = tmp_path / "eig.csv"
        plan = ExperimentPlan(
            group=group, cfg=cfg, trials=3, checks=("norm_curve",), eigenvalue_csv=eig
        )
        run_experiment(plan)
        assert hashlib.sha256(eig.read_bytes()).hexdigest() == digest


class TestReportDigest:
    """SHA-256 of each report as written, timestamp dropped, on small plans."""

    @pytest.mark.parametrize(
        "group, cfg, trials, checks, digest",
        [
            (
                "3,2^4",
                EnsembleConfig(base="gaussian", alpha=0.5, seed=41),
                6,
                ("limit_distance",),
                "888ed4b53dae3ff5443a6263053a2eaa885450b9409a4f177a99e49d3e4fc183",
            ),
            (
                "12",
                EnsembleConfig(base="gaussian", alpha=0.5, beta=2.0, hermitian=True, seed=42),
                1000,
                ("limit_distance", "covariance"),
                "cb74d0fd3576903108ec54fd02a624f1d6236b406d486d2f1b9187a7d7d2b8f3",
            ),
            (
                # alpha = 1: the Im marginal has a point mass p2 at 0
                "3,2^4",
                EnsembleConfig(base="rademacher", alpha=1.0, seed=43),
                6,
                ("limit_distance",),
                "35aadbdca9f7237a9630861bda47a65cad1e698e8dd750dc7f57c73d189f89bd",
            ),
            (
                "4,3",
                EnsembleConfig(base="gaussian", alpha=0.5, seed=44),
                1000,
                ("covariance",),
                "9f64b0bcd5cf13ae8d94dc327fb6a98706f1d882ebc320366632c2c652dc6d90",
            ),
            (
                "8,3",
                EnsembleConfig(base="uniform", alpha=0.25, seed=45),
                5,
                ("norm_curve", "lindeberg"),
                "c6a0d23fb125752364e629abd26a85ddcd1719902a04fbcbf35edd44340cb74e",
            ),
        ],
        ids=["complex-ks", "hermitian-ks-covariance", "atom-ks", "complex-covariance", "norms"],
    )
    def test_golden_bytes(self, tmp_path, group, cfg, trials, checks, digest):
        out = tmp_path / "report.json"
        run_experiment(ExperimentPlan(group=group, cfg=cfg, trials=trials, checks=checks, out=out))
        report = json.loads(out.read_text())
        text = json.dumps(strip_timestamp(report), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestConfigFile:
    def test_config_and_overrides(self, tmp_path, capsys):
        conf = tmp_path / "plan.cfg"
        out = tmp_path / "report.json"
        conf.write_text(
            "# demo plan\n"
            "group = 8,3\n"
            "base = gaussian\n"
            "alpha = 0.0\n"
            "seed = 11\n"
            "trials = 4\n"
            "checks = limit_distance,lindeberg\n"
            "pooled_ks = 0.5          # tiny pooled sample, loose thresholds\n"
            "per_trial_ks_median = 0.5\n"
            "corr_re_im = 0.5\n"
            f"out = {out}\n"
        )
        code = main(["experiment", "--config", str(conf), "--trials", "6"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["trials"] == 6  # flag overrides file
        assert report["ensemble"]["seed"] == 11
        assert report["checks"]["limit_distance"]["thresholds"]["pooled_ks"] == 0.5

    def test_unknown_config_key(self, tmp_path, capsys):
        conf = tmp_path / "plan.cfg"
        conf.write_text("group = 12\ntrials = 2\nflavor = spicy\n")
        assert main(["experiment", "--config", str(conf)]) == 2
        assert "flavor" in capsys.readouterr().err

    def test_missing_required(self, capsys):
        assert main(["experiment", "--trials", "3"]) == 2
        assert "group" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "in_file, flags, expected",
        [
            ("true", ["--no-hermitian"], False),
            ("false", ["--hermitian"], True),
            ("true", [], True),
            ("false", [], False),
            (None, [], False),
            (None, ["--hermitian"], True),
            (None, ["--hermitian=yes"], True),
            ("false", ["--hermitian", "on"], True),
            ("true", ["--hermitian=0"], False),
            ("false", ["--hermitian=false", "--hermitian"], True),
        ],
    )
    def test_hermitian_flag_and_file(self, tmp_path, capsys, in_file, flags, expected):
        conf = tmp_path / "plan.cfg"
        out = tmp_path / "report.json"
        hermitian_line = "" if in_file is None else f"hermitian = {in_file}\n"
        conf.write_text(
            f"group = 4,3\ntrials = 2\nchecks = norm_curve\n{hermitian_line}out = {out}\n"
        )
        assert main(["experiment", "--config", str(conf), *flags]) in (0, 1)
        assert json.loads(out.read_text())["ensemble"]["hermitian"] is expected

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("cannot allocate the block"), "error: cannot allocate the block\n"),
            (MemoryError(), "error: MemoryError\n"),
        ],
    )
    def test_memory_error_is_an_error_line(self, capsys, monkeypatch, exc, line):
        def exhausted(plan):
            raise exc

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        assert main(["experiment", "--group", "12", "--trials", "2"]) == 2
        assert capsys.readouterr().err == line

    def test_cli_flags_only(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "experiment",
                "--group",
                "2^6",
                "--base",
                "gaussian",
                "--alpha",
                "0.0",
                "--trials",
                "4",
                "--seed",
                "8",
                "--checks",
                "limit_distance",
                "--pooled-ks",
                "0.5",
                "--per-trial-ks-median",
                "0.5",
                "--corr-re-im",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["group"] == "2^6"

    # a valid value for every key, other than the one _build_plan gets without it
    KEY_VALUES = {
        "group": "4,3",
        "trials": "3",
        "checks": "norm_curve,lindeberg",
        "out": "r.json",
        "eigenvalue_csv": "e.csv",
        "jobs": "3",
        "base": "uniform",
        "alpha": "0.25",
        "beta": "2.5",
        "hermitian": "true",
        "seed": "11",
        "pooled_ks": "0.1",
        "per_trial_ks_median": "0.2",
        "corr_re_im": "0.3",
        "covariance_tol": "0.4",
        "norm_ratio_low": "0.7",
        "norm_ratio_high": "1.5",
        "lindeberg_epsilon": "0.9",
        "lindeberg_max": "1e-5",
        "lindeberg_fraction": "0.5",
    }

    @pytest.mark.parametrize("key", sorted(cli._KEYS))
    def test_every_key_is_one_flag_and_one_config_key(self, key, tmp_path):
        value = self.KEY_VALUES[key]
        flag = f"--{key.replace('_', '-')}"
        parser = build_parser()
        required = ["experiment", "--group", "12", "--trials", "2"]
        default = cli._build_plan(parser.parse_args(required))
        from_flag = cli._build_plan(parser.parse_args([*required, f"{flag}={value}"]))
        conf = tmp_path / "plan.cfg"
        conf.write_text(f"group = 12\ntrials = 2\n{key} = {value}\n")
        from_file = cli._build_plan(parser.parse_args(["experiment", "--config", str(conf)]))
        assert from_flag == from_file != default

    def test_experiment_help_lists_every_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert {f"--{key.replace('_', '-')}" for key in cli._KEYS} | {"--no-hermitian"} <= listed

    def test_parser_help_lists_subcommands(self):
        parser = build_parser()
        names = parser._subparsers._group_actions[0].choices.keys()
        assert {"selftest", "group-info", "experiment", "histogram"} <= set(names)


# text for a float flag: the edge values, any double, and words that are no number
FLOAT_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "-0.0", "0", "1e308", "-1e308", "0.5", "2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "-x", "--", "1,5", "0x1p-2"]),
    st.text(max_size=6),
)
BASE_TEXT = st.one_of(st.sampled_from(BASE_DISTRIBUTIONS), st.text(max_size=6))
BOOL_TEXT = st.one_of(
    st.sampled_from(["true", "yes", "1", "on", "false", "no", "0", "off", "maybe", "", "-x"]),
    st.text(max_size=6),
)


def flag_args(draw, flag: str, value: str) -> list[str]:
    # as its own argument, a value that starts with "--" reads as an option, and
    # one that starts with "-h" as the help flag
    if value.startswith(("--", "-h")) or draw(st.booleans()):
        return [f"{flag}={value}"]
    return [flag, value]


@st.composite
def experiment_argv(draw, tmp_path):
    orders = draw(st.lists(st.integers(2, 16), max_size=6))
    kept = [d for k, d in enumerate(orders) if math.prod(orders[: k + 1]) <= 64]
    checks = draw(
        st.lists(
            st.sampled_from(["limit_distance", "norm_curve", "lindeberg"]),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    argv = ["experiment", "--group", ",".join(map(str, kept)) or "2", "--checks", ",".join(checks)]
    argv += ["--trials", str(draw(st.integers(1, 40))), "--jobs", str(draw(st.integers(1, 4)))]
    argv += ["--seed", str(draw(st.integers(0, 2**32)))]
    argv += flag_args(draw, "--base", draw(BASE_TEXT))
    hermitian = draw(st.sampled_from(["default", "--hermitian", "--no-hermitian", "text"]))
    if hermitian == "text":
        argv += flag_args(draw, "--hermitian", draw(BOOL_TEXT))
    elif hermitian != "default":
        argv.append(hermitian)
    floats = ["alpha", "beta", *(f.name for f in fields(Thresholds))]
    for name in draw(st.lists(st.sampled_from(floats), max_size=4, unique=True)):
        argv += flag_args(draw, f"--{name.replace('_', '-')}", draw(FLOAT_TEXT))
    if draw(st.booleans()):
        argv += ["--out", str(tmp_path / "r.json")]
    if draw(st.booleans()):
        argv += ["--eigenvalue-csv", str(tmp_path / "e.csv")]
    return argv


def reject_constant(name: str):
    raise AssertionError(f"report holds {name}")


class TestMainProperty:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_every_argv_exits_cleanly(self, data, tmp_path, capsys):
        argv = data.draw(experiment_argv(tmp_path))
        report = tmp_path / "r.json"
        report.unlink(missing_ok=True)  # from an earlier example
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning on odd floats fails the property too
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse printed its usage text
                raise AssertionError(f"argparse exited with {exc.code}") from None
        assert code in (0, 1, 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            assert len(err.encode()) < 200
        else:
            assert err == ""
        if report.exists():  # RFC 8259 JSON: no NaN or Infinity
            json.loads(report.read_text(), parse_constant=reject_constant)
