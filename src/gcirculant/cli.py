"""Experiment driver: reproducible runs, report emission and histograms.

Each check is one `_CHECKS` entry: its function, the per-trial arrays it
reads and its place in the run order.  `_trial_results` fills those arrays
batch by batch: trial 0 alone, then batches of BATCH_POINTS // N trials,
each sampled into one draw buffer and transformed with one call, and each
array's rows for a batch come from one `_PER_TRIAL` call on its (B, N)
tables or spectra.  The `selftest` subcommand and check run
`oracle.selftest`, imported only when one of them is asked for.

Reports are JSON with sorted keys; the timestamp is the only
non-deterministic field and lives in its own key, so two runs of the same
plan and seed are byte-identical after dropping it, regardless of --jobs.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import limits, spectra
from .ensembles import (
    BASE_DISTRIBUTIONS,
    EnsembleConfig,
    lindeberg_statistic,
    sample_block,
    sample_entries,
)
from .groups import (
    GroupSpec,
    involution_count,
    involution_fraction,
    parse_group_spec,
)

COVARIANCE_SIZE_CAP = 64
# np.histogram and the row list take memory in proportion to the bin count
HISTOGRAM_BINS_CAP = 1 << 20
# bytes of the (T, N) blocks and (T,) arrays a run keeps: 1 GiB, 16 times a
# 3,2^16 x 20 complex run
TRIAL_BYTES_CAP = 1 << 30
# trials per batch are BATCH_POINTS // N (at least 1): small groups share one
# draw buffer and one transform call among many trials
BATCH_POINTS = 1 << 14
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Thresholds:
    """Pass/fail knobs with defaults matching the documented targets.

    The per-trial KS median default 2.5/sqrt(N) leaves room for the
    finite-size bias of lattice-valued entries; exact-law experiments
    should pin something nearer the null 99% quantile 1.63/sqrt(N).
    """

    pooled_ks: float = 0.02
    per_trial_ks_median: float | None = None  # defaults to 2.5/sqrt(N)
    corr_re_im: float = 0.05
    covariance_tol: float = 0.05
    norm_ratio_low: float = 0.8
    norm_ratio_high: float = 1.3
    lindeberg_epsilon: float = 1.0
    lindeberg_max: float = 1e-6
    lindeberg_fraction: float = 0.95

    def __post_init__(self) -> None:
        # checked here, so a bad value fails before any trial is sampled
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and >= 0, got {value}")
        if self.lindeberg_epsilon == 0:
            raise ValueError(f"lindeberg_epsilon must be > 0, got {self.lindeberg_epsilon}")
        # values no run can pass, even on the correct model
        if self.norm_ratio_low > self.norm_ratio_high:
            raise ValueError(
                f"norm_ratio_low must be <= norm_ratio_high, got {self.norm_ratio_low} > "
                f"{self.norm_ratio_high}"
            )
        if self.lindeberg_fraction > 1:
            raise ValueError(f"lindeberg_fraction must be <= 1, got {self.lindeberg_fraction}")


@dataclass
class ExperimentPlan:
    """Everything one experiment run depends on, seed included."""

    group: str
    cfg: EnsembleConfig
    trials: int
    checks: tuple[str, ...] = ("limit_distance",)
    out: Path | None = None
    eigenvalue_csv: Path | None = None
    jobs: int = 1
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.checks:
            raise ValueError("at least one check must be requested")
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks {sorted(unknown)}; valid: {CHECK_NAMES}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if "covariance" in self.checks and self.trials < 1000:
            raise ValueError("covariance check needs trials >= 1000")
        g = parse_group_spec(self.group)
        if "covariance" in self.checks and g.size > COVARIANCE_SIZE_CAP:
            raise ValueError(
                f"covariance check caps group size at {COVARIANCE_SIZE_CAP}, got {g.size}"
            )
        if "limit_distance" in self.checks:
            limits.limit_for(self.cfg, involution_fraction(g))  # raises on an invalid law
        # at least 8 bytes a trial, the bound a norm_curve run has: a plan that
        # keeps no per-trial array (selftest only) still runs every trial
        shapes = _trial_shapes(self, g.size).values()
        kept = 8 * max(self.trials, sum(math.prod(shape) for shape in shapes))
        if kept > TRIAL_BYTES_CAP:
            raise ValueError(
                f"per-trial results take {kept} bytes, over the cap {TRIAL_BYTES_CAP}"
            )


# each per-trial array: what it reads, the batch's (B, N) entry tables or their
# spectra, and how one call computes the batch's rows from that block; the names
# are looked up when a batch runs, so a patched module attribute is used
_PER_TRIAL = {
    "re": ("spectra", lambda plan, lam: lam.real),
    "im": ("spectra", lambda plan, lam: lam.imag),
    "norms": ("spectra", lambda plan, lam: spectra.spectral_norm(lam)),
    "lind": ("tables", lambda plan, t: lindeberg_statistic(t, plan.thresholds.lindeberg_epsilon)),
}


def _trial_shapes(plan: ExperimentPlan, n: int) -> dict[str, tuple[int, ...]]:
    """Shape of each float64 array _trial_results fills on a group of size n: those
    the checks read, plus both blocks for the eigenvalue CSV; no "im" if Hermitian,
    as spectra.eigenvalues has checked its roundoff."""
    t, reads = plan.trials, {a for name in plan.checks for a in _CHECKS[name][1]}
    if plan.eigenvalue_csv is not None:
        reads |= {"re", "im"}
    if plan.cfg.hermitian:
        reads.discard("im")
    return {a: (t, n) if a in ("re", "im") else (t,) for a in _PER_TRIAL if a in reads}


def _batches(trials: int, size: int) -> range:
    """Batch s runs trials max(s, 0) to min(s + size, trials) - 1: trial 0 alone, as
    1 - size <= 0, then runs of `size` from trial 1.  A range takes no memory."""
    return range(1 - size, trials, size)


def _trial_results(plan: ExperimentPlan, g: GroupSpec) -> dict[str, np.ndarray]:
    """Sample every trial into the arrays _trial_shapes keeps; row k is trial k's.

    Trials run in batches of BATCH_POINTS // N, each one draw buffer and one
    transform call.  The batches are split into contiguous shares, one per
    thread; a thread keeps one (B, N, 2) draw buffer for its whole share,
    samples each batch's tables into it, and `spectra.eigenvalue_block`
    overwrites them there with the spectra.  Each batch writes only its own
    rows.
    """
    arrays = {name: np.empty(shape) for name, shape in _trial_shapes(plan, g.size).items()}
    n, cfg, trials = g.size, plan.cfg, plan.trials
    size = max(1, BATCH_POINTS // n)
    batches = _batches(trials, size)

    def write(first: int, b: int, source: str, block: np.ndarray) -> None:
        for name, a in arrays.items():
            if _PER_TRIAL[name][0] == source:
                a[first : first + b] = _PER_TRIAL[name][1](plan, block)

    def trial_zero() -> None:
        # trial 0 runs alone through the per-trial names, looked up now: the
        # benchmark's worker takes trial 0's spectrum from the first
        # spectra.eigenvalues call and counts cli.sample_entries calls; once
        # it reads trial 0 another way, trial 0 can join the first batch
        table = sample_entries(g, cfg, 0)
        write(0, 1, "tables", table.values[None])
        write(0, 1, "spectra", spectra.eigenvalues(table).values[None])

    def run(share: range) -> None:
        if share[0] < 1:
            trial_zero()
            share = share[1:]
        # made once trial 0's arrays are freed so the allocator can reuse
        # their memory; the tables are read before the transform overwrites
        # them.  A share's first batch is its largest.
        draws = np.empty((min(size, trials - share[0]) if share else 0, n, 2))
        for first in share:
            b = min(size, trials - first)
            tables = sample_block(g, cfg, first, draws[:b])
            write(first, b, "tables", tables)
            write(first, b, "spectra", spectra.eigenvalue_block(g, tables, cfg.hermitian))

    # the pool starts a thread per submitted share up to max_workers, so bound it
    workers = min(plan.jobs, len(batches), os.cpu_count() or 1)
    if workers == 1:
        run(batches)
    else:
        # imported here: concurrent.futures loads logging, queue and traceback,
        # which a one-thread run never uses
        from concurrent.futures import ThreadPoolExecutor

        cut = [k * len(batches) // workers for k in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # re-raises a batch's exception
            list(pool.map(run, [batches[i:j] for i, j in zip(cut, cut[1:])]))
    return arrays


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty 1-d float array, bit for bit, without the numpy.ma
    import that np.median's NaN check makes.

    The partition also puts the largest value last; NaN sorts there, and any
    NaN makes the median NaN, as in np.median.
    """
    mid = len(x) // 2
    lo = mid - 1 if len(x) % 2 == 0 else mid
    part = np.partition(x, [lo, mid, -1])
    return float(part[-1] if np.isnan(part[-1]) else np.mean(part[lo : mid + 1]))


def _check_limit_distance(plan: ExperimentPlan, g: GroupSpec, arrays: dict) -> dict:
    thr, re, im = plan.thresholds, arrays["re"], arrays.get("im")
    p2 = involution_fraction(g)
    law = limits.limit_for(plan.cfg, p2)
    per_trial_thr = (
        thr.per_trial_ks_median
        if thr.per_trial_ks_median is not None
        else 2.5 / math.sqrt(g.size)
    )
    # ks_block overwrites the (T, N) blocks in place with their rows' sorted CDF
    # values, so the correlation comes first; a Hermitian run keeps no im block
    corr = 0.0 if im is None else limits.re_im_correlation(re, im)
    per_trial, pooled_ks_re = limits.ks_block(re, law.weights, law.re_variances)
    pooled_ks_im = 0.0
    if im is not None:
        per_im, pooled_ks_im = limits.ks_block(im, law.weights, law.im_variances)
        np.maximum(per_trial, per_im, out=per_trial)
    median = _median(per_trial)
    passed = (
        pooled_ks_re <= thr.pooled_ks
        and pooled_ks_im <= thr.pooled_ks
        and median <= per_trial_thr
        and corr <= thr.corr_re_im
    )
    return {
        "group": plan.group,
        "ensemble": plan.cfg.to_dict(),
        "trials": plan.trials,
        "p2": str(p2),
        "pooled_ks_re": pooled_ks_re,
        "pooled_ks_im": pooled_ks_im,
        "per_trial_ks_median": median,
        "corr_re_im": corr,
        "limit_params": law.to_dict(),
        "thresholds": {
            "pooled_ks": thr.pooled_ks,
            "per_trial_ks_median": per_trial_thr,
            "corr_re_im": thr.corr_re_im,
        },
        "passed": bool(passed),
    }


def _check_covariance(plan: ExperimentPlan, g: GroupSpec, arrays: dict) -> dict:
    """Every pair's second moments against limits.predicted_pair_moments, as (N, N) arrays.

    Entry (i, j) of each moment array is the trial mean of the product of
    eigenvalue parts at characters i and j; dev[i, j] is the largest
    deviation over the entries of that pair's predicted moment.
    """
    thr, re, im = plan.thresholds, arrays["re"], arrays.get("im")
    trials = len(re)

    def moment(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ti,tj->ij", a, b) / trials

    parts = (re,) if im is None else (re, im)
    predicted = limits.predicted_pair_moments(g, plan.cfg)
    devs = [np.abs(moment(a, a) - pred) for a, pred in zip(parts, predicted)]
    if im is not None:
        re_im = np.abs(moment(re, im))
        devs += [re_im, re_im.T]
    dev = np.maximum.reduce(devs)
    max_var_dev = float(np.max(np.diagonal(dev)))
    max_pair_dev = float(np.max(dev[np.triu_indices(g.size, 1)], initial=0.0))
    passed = max_var_dev <= thr.covariance_tol and max_pair_dev <= thr.covariance_tol
    return {
        "max_var_deviation": max_var_dev,
        "max_pair_deviation": max_pair_dev,
        "tolerance": thr.covariance_tol,
        "trials": plan.trials,
        "passed": bool(passed),
    }


def _check_norm_curve(plan: ExperimentPlan, g: GroupSpec, arrays: dict) -> dict:
    thr = plan.thresholds
    mean, stderr = spectra.norm_ratio_stats(g, arrays["norms"])
    passed = thr.norm_ratio_low <= mean <= thr.norm_ratio_high
    return {
        "mean_ratio": mean,
        "stderr": stderr,
        "low": thr.norm_ratio_low,
        "high": thr.norm_ratio_high,
        "passed": bool(passed),
    }


def _check_lindeberg(plan: ExperimentPlan, g: GroupSpec, arrays: dict) -> dict:
    thr, stats = plan.thresholds, arrays["lind"]
    fraction = int(np.count_nonzero(stats < thr.lindeberg_max)) / len(stats)
    passed = fraction >= thr.lindeberg_fraction
    return {
        "epsilon": thr.lindeberg_epsilon,
        "max_allowed": thr.lindeberg_max,
        "fraction_below": fraction,
        "required_fraction": thr.lindeberg_fraction,
        "worst": float(stats.max()),
        "passed": bool(passed),
    }


def _check_selftest(plan: ExperimentPlan, g: GroupSpec, arrays: dict) -> dict:
    from . import oracle  # loaded only by a run that asks for this check

    ok, lines = oracle.selftest()
    return {"lines": lines, "passed": ok}


# each check and the per-trial arrays it reads, in run order: limit_distance
# runs last, because ks_block overwrites the re and im blocks in place
_CHECKS = {
    "covariance": (_check_covariance, ("re", "im")),
    "norm_curve": (_check_norm_curve, ("norms",)),
    "lindeberg": (_check_lindeberg, ("lind",)),
    "selftest": (_check_selftest, ()),
    "limit_distance": (_check_limit_distance, ("re", "im")),
}
CHECK_NAMES = tuple(_CHECKS)


def _check_writable(path: Path) -> None:
    """Raise the OSError open(path, "w") would on a directory or a missing parent."""
    code = errno.EISDIR if path.is_dir() else 0 if path.parent.is_dir() else errno.ENOENT
    if code:
        raise OSError(code, os.strerror(code), str(path))


def run_experiment(plan: ExperimentPlan) -> dict:
    """Run the plan, write report (and optional eigenvalue CSV), return report."""
    g = parse_group_spec(plan.group)
    paths = [Path(p) for p in (plan.out, plan.eigenvalue_csv) if p is not None]
    for path in paths:  # before the first trial is sampled
        _check_writable(path)
    # the report would silently replace the CSV
    if len({path.resolve() for path in paths}) < len(paths):
        raise ValueError(f"out and eigenvalue_csv are the same file: {plan.out}")
    arrays = _trial_results(plan, g)
    if plan.eigenvalue_csv is not None:
        re, im = arrays["re"], arrays.get("im")
        spectra.write_eigenvalue_csv(plan.eigenvalue_csv, g, re, im)

    checks: dict[str, dict] = dict.fromkeys(plan.checks)  # keys in plan order
    for name, (check, _) in _CHECKS.items():
        if name in checks:
            checks[name] = check(plan, g, arrays)

    report = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "group": plan.group,
        "group_size": g.size,
        "p2": str(involution_fraction(g)),
        "ensemble": plan.cfg.to_dict(),
        "trials": plan.trials,
        "checks": checks,
        "passed": all(c["passed"] for c in checks.values()),
    }
    if plan.out is not None:
        Path(plan.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _check_bins(bins: int) -> None:
    if not 2 <= bins <= HISTOGRAM_BINS_CAP:
        raise ValueError(f"bins must be in [2, {HISTOGRAM_BINS_CAP}], got {bins}")


def histogram_rows(values: np.ndarray, bins: int) -> list[tuple[str, float, float, int]]:
    """Equal-width bin counts of the real part, and of the imaginary part
    when the input has any imaginary content."""
    _check_bins(bins)
    z = np.asarray(values)
    if z.size == 0:
        raise ValueError("empty input")
    rows = []
    parts = [("re", np.real(z))]
    if np.iscomplexobj(z) and np.any(np.imag(z) != 0.0):
        parts.append(("im", np.imag(z)))
    for name, data in parts:
        counts, edges = np.histogram(data, bins=bins)
        for k in range(bins):
            rows.append((name, float(edges[k]), float(edges[k + 1]), int(counts[k])))
    return rows


def _parse_config_file(path: str) -> dict:
    """Flat key = value plan file; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _convert(key: str, text: str, convert):
    """convert(text), with the key named in the error line."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_checks(text: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _parse_path(text: str) -> Path | None:
    return Path(text) if text else None


# a key's parser from text, by the field's annotation
_CONVERTERS = {
    "str": str,
    "int": _parse_int,
    "float": float,
    "float | None": float,
    "bool": _parse_bool,
    "tuple[str, ...]": _parse_checks,
    "Path | None": _parse_path,
}
# one flag and one config key per field, except the two built from their own keys
_KEYS = {
    f.name: _CONVERTERS[f.type]
    for cls in (ExperimentPlan, EnsembleConfig, Thresholds)
    for f in fields(cls)
    if f.name not in ("cfg", "thresholds")
}


def _build_plan(args: argparse.Namespace) -> ExperimentPlan:
    texts: dict[str, str] = {}
    if args.config:
        texts = _parse_config_file(args.config)
        unknown = set(texts) - set(_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)} in {args.config}")
    # flags override file values
    texts |= {key: str(v) for key, v in vars(args).items() if key in _KEYS and v is not None}
    for key, name in (("group", "a group spec"), ("trials", "a trial count")):
        if key not in texts:
            raise ValueError(f"{name} is required (--{key} or config '{key}')")
    values = {key: _convert(key, text, _KEYS[key]) for key, text in texts.items()}

    def build(cls, **built):
        # one construction, so values checked against each other are all seen at once
        return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values}, **built)

    return build(ExperimentPlan, cfg=build(EnsembleConfig), thresholds=build(Thresholds))


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import oracle

    ok, lines = oracle.selftest()
    for line in lines:
        print(line)
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_group_info(args: argparse.Namespace) -> int:
    g = parse_group_spec(args.spec)
    print(f"group: {g}")
    print(f"size: {g.size}")
    print(f"involutions: {involution_count(g)}")
    print(f"real_characters: {involution_count(g)}")
    print(f"p2: {involution_fraction(g)}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    plan = _build_plan(args)
    report = run_experiment(plan)
    for name, check in report["checks"].items():
        print(f"{'PASS' if check['passed'] else 'FAIL'} {name}")
    print("experiment:", "PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def _cmd_histogram(args: argparse.Namespace) -> int:
    bins = _convert("bins", args.bins, _parse_int)
    _check_bins(bins)  # before the input is read
    with open(args.infile, newline="") as fh:
        header = next(csv.reader(fh), [])
    # a repeated name resolves to its last column, as in csv.DictReader
    column = {name: k for k, name in enumerate(header)}
    missing = [c for c in ("re_lambda", "im_lambda") if c not in column]
    if missing:
        raise ValueError(f"{args.infile}: missing column(s) {', '.join(missing)}")
    with warnings.catch_warnings():
        # a table without rows is reported by histogram_rows as empty input
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(
            args.infile,
            delimiter=",",
            skiprows=1,
            usecols=(column["re_lambda"], column["im_lambda"]),
            ndmin=2,
            comments=None,
        )
    values = data[:, 0] + 1j * data[:, 1]
    rows = histogram_rows(values, bins)
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(("part", "bin_left", "bin_right", "count"))
        writer.writerows(rows)
    finally:
        if args.out is not None:
            out.close()
    return 0


# argparse takes a token with one leading "-" for an option unless this matches
# it; the subcommands have no short option but -h, which argparse matches first
# (and "-hx" as -h given "x"), so every other such token, "-1e-3", "-inf" and
# "-x" alike, is a value
_NEGATIVE_NUMBER = re.compile(r"^-(?!-)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcirculant",
        description="Random G-circulant spectra: experiments and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="run exact-count and transform-oracle checks")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("group-info", help="print size, p2 and involution data")
    p.add_argument("spec", help="group spec, e.g. '4,2,5' or '2^12'")
    p.set_defaults(func=_cmd_group_info)

    p = sub.add_parser("experiment", help="run a reproducible experiment plan")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("--config", help="plan file with key = value lines")
    helps = {
        "group": "group spec, e.g. '3,2^10'",
        "checks": "comma list from: " + ",".join(CHECK_NAMES),
        "out": "JSON report path",
        "eigenvalue_csv": "per-trial eigenvalue CSV",
        "jobs": "concurrent trials, at most the CPU count (default 1)",
        "base": "one of: " + ",".join(BASE_DISTRIBUTIONS),
    }
    for key in _KEYS:
        flag = "--" + key.replace("_", "-")
        if key == "hermitian":
            p.add_argument(flag, nargs="?", const="true", metavar="TEXT", help="true or false")
            p.add_argument("--no-hermitian", dest=key, action="store_const", const="false")
        else:
            # every value stays text until the plan is built, so a bad one gets one error line
            p.add_argument(flag, help=helps.get(key))
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("histogram", help="bin an eigenvalue CSV")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bins", required=True)  # text, converted in _cmd_histogram
    p.add_argument("--out")
    p.set_defaults(func=_cmd_histogram)

    return parser


def _error_line(message: str) -> str:
    """The line "error: <message>", cut in the middle to under 200 bytes: a
    message may echo a value of any length."""
    line = f"error: {message}"
    raw = line.encode(errors="backslashreplace")
    if len(raw) < 200:
        return line
    return raw[:130].decode(errors="ignore") + " ... " + raw[-60:].decode(errors="ignore")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a failed allocation often raises MemoryError with no message
        print(_error_line(str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
