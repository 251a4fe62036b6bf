"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --plan-seed S --out-dir DIR
        [--trace --spans PATH]

Builds the workload's ExperimentPlan, times the plan-building calls (setup)
and `run_experiment` (run), then checks the outputs outside the timed
region.  With --trace it also wraps the public call sites of each layer in
spans, takes a tracemalloc peak around `fourier.get_plan`, derives the
per-layer metrics and writes the spans to PATH.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gcirculant  # noqa: E402
from gcirculant import cli, fourier, groups, limits, spectra  # noqa: E402
from gcirculant.ensembles import EnsembleConfig, sample_entries  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ORACLE_RTOL = 1e-9
# Traced layer self times must account for the traced run_s to this share.
SELF_SUM_RTOL = 0.01
LAYERS = ("ensembles", "fourier", "spectra", "limits", "cli")
MIB = float(1 << 20)


def build_plan(name: str, plan_seed: int, out_dir: Path) -> cli.ExperimentPlan:
    w = WORKLOADS[name]
    cfg = EnsembleConfig(
        base=w["base"],
        alpha=w["alpha"],
        beta=w["beta"],
        hermitian=w["hermitian"],
        seed=plan_seed,
    )
    return cli.ExperimentPlan(
        group=w["group"],
        cfg=cfg,
        trials=w["trials"],
        checks=w["checks"],
        out=out_dir / "report.json",
        eigenvalue_csv=out_dir / "eigenvalues.csv" if w["eigenvalue_csv"] else None,
        jobs=1,
    )


def setup(plan: cli.ExperimentPlan, tracer: Tracer | None):
    """The public plan-building calls, timed; returns (group, setup_s, plan_alloc_bytes)."""

    def call(name, fn, *args):
        return tracer.call(name, fn, *args) if tracer else fn(*args)

    alloc = 0
    t0 = perf_counter()
    g = call("groups.parse_group_spec", groups.parse_group_spec, plan.group)
    if tracer:
        tracemalloc.start()
    call("fourier.get_plan", fourier.get_plan, g)
    if tracer:
        alloc = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    call("groups.inverse_permutation", groups.inverse_permutation, g)
    p2 = call("groups.involution_fraction", groups.involution_fraction, g)
    call("limits.limit_for", limits.limit_for, plan.cfg, p2)
    return g, perf_counter() - t0, alloc


def instrument(tracer: Tracer) -> None:
    """Wrap the call sites `run_experiment` reaches, one span per call."""

    def points(samples, *_):
        return int(np.size(samples))

    tracer.patch(cli, "sample_entries", "ensembles.sample_entries")
    tracer.patch(cli, "lindeberg_statistic", "ensembles.lindeberg_statistic")
    tracer.patch(spectra, "eigenvalues", "spectra.eigenvalues")
    tracer.patch(fourier.TransformPlan, "forward", "fourier.forward")
    tracer.patch(spectra, "spectral_norm", "spectra.spectral_norm")
    tracer.patch(limits, "distance_complex", "limits.distance_complex", points)
    tracer.patch(limits, "ks_distance_real", "limits.ks_distance_real", points)
    tracer.patch(limits, "character_relation", "limits.character_relation")
    tracer.patch(limits, "empirical_eigen_covariance", "limits.empirical_eigen_covariance")
    tracer.patch(limits, "predicted_pair_moment", "limits.predicted_pair_moment")


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _rel_dev(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


def capture_first_spectrum() -> tuple[list, Callable[[], None]]:
    """Keep the first spectrum `spectra.eigenvalues` returns; gives (box, undo).

    This one call-site wrapper stays on in untraced runs: the output check
    needs a spectrum the timed run produced, and recomputing one would cost
    another transform.
    """
    original = spectra.eigenvalues
    box: list = []

    @functools.wraps(original)
    def eigenvalues(t):
        s = original(t)
        if not box:
            box.append(s)
        return s

    def undo() -> None:
        spectra.eigenvalues = original

    spectra.eigenvalues = eigenvalues
    return box, undo


def check_outputs(
    name: str, plan: cli.ExperimentPlan, g, report: dict, first: list
) -> list[str]:
    """Output checks, run after the timed region; returns the failures found."""
    w = WORKLOADS[name]
    errors = []
    n = g.size
    # the run's trial 0 against an independent transform: numpy's inverse FFT times N
    entries = sample_entries(g, plan.cfg, 0)
    oracle = np.fft.ifftn(entries.values.reshape(g.orders)).ravel() * n / math.sqrt(n)
    if not first or first[0].trial != 0:
        errors.append("the run produced no spectrum for trial 0")
    else:
        dev = _rel_dev(first[0].values, oracle)
        if not dev <= ORACLE_RTOL:
            errors.append(f"trial 0 eigenvalues deviate from the ifftn oracle by {dev:.3e}")
    if plan.eigenvalue_csv is not None:
        with open(plan.eigenvalue_csv, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            head = [row for _, row in zip(range(n), reader)]
            rows = len(head) + sum(1 for _ in reader)
        if rows != plan.trials * n:
            errors.append(f"eigenvalue CSV has {rows} rows, expected {plan.trials * n}")
        if [(r[0], r[1]) for r in head] != [("0", str(i)) for i in range(n)]:
            errors.append("eigenvalue CSV does not start with trial 0 in character order")
        else:
            csv_vals = np.array([complex(float(r[2]), float(r[3])) for r in head])
            dev = _rel_dev(csv_vals, oracle)
            if not dev <= ORACLE_RTOL:
                errors.append(f"CSV trial 0 deviates from the ifftn oracle by {dev:.3e}")
    written = json.loads(Path(plan.out).read_text())
    if written != report:
        errors.append("report file differs from the returned report")
    for check in plan.checks:
        if check not in report["checks"]:
            errors.append(f"check {check} missing from the report")
        elif not _all_finite(report["checks"][check]):
            errors.append(f"check {check} has a non-finite statistic")
    if w["gate_verdict"] and report["passed"] != w["seed_verdict"]:
        errors.append(f"verdict {report['passed']} differs from the seed commit's")
    return errors


def layer_metrics(
    tracer: Tracer, root: int, run_s: float, plan: cli.ExperimentPlan, g, alloc: int
) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced repetition, from its spans."""
    spans = tracer.spans
    self_t = tracer.self_times()
    durations: dict[str, list[float]] = {}
    items: dict[str, int] = {}
    for span_name, start, end, _, count in spans:
        durations.setdefault(span_name, []).append(end - start)
        items[span_name] = items.get(span_name, 0) + (count or 0)

    def total(*span_names):
        return sum((sum(durations.get(s, ())) for s in span_names), 0.0)

    def calls(*span_names):
        return sum(len(durations.get(s, ())) for s in span_names)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i in range(root, len(spans)):
        layer_self[spans[i][0].split(".", 1)[0]] += self_t[i]
    errors = []
    self_sum = sum(layer_self.values())
    if abs(self_sum - run_s) > SELF_SUM_RTOL * run_s or min(self_t) < -1e-6:
        errors.append(f"layer self times sum to {self_sum:.6f} s, traced run_s {run_s:.6f} s")

    n = g.size
    forward = durations.get("fourier.forward", [])
    forward_s = sum(forward)
    flops = 5.0 * n * math.log2(n) * len(forward)
    eig_self = sum(
        self_t[i] for i in range(root, len(spans)) if spans[i][0] == "spectra.eigenvalues"
    )
    out_files = [plan.out, plan.eigenvalue_csv]
    report_bytes, csv_bytes = (Path(p).stat().st_size if p else 0 for p in out_files)
    metrics = {
        "groups.setup_s": total(
            "groups.parse_group_spec", "groups.inverse_permutation", "groups.involution_fraction"
        ),
        "fourier.plan_s": total("fourier.get_plan"),
        "fourier.plan_alloc_mb": alloc / MIB,
        "fourier.forward_s": forward_s,
        "fourier.forward_calls": len(forward),
        "fourier.forward_ms_p50": statistics.median(forward) * 1e3 if forward else 0.0,
        "fourier.gflops_nominal": flops / forward_s / 1e9 if forward_s > 0 else 0.0,
        "ensembles.sample_s": total("ensembles.sample_entries"),
        "ensembles.sample_calls": calls("ensembles.sample_entries"),
        "ensembles.lindeberg_s": total("ensembles.lindeberg_statistic"),
        "spectra.self_s": eig_self,
        "spectra.norm_s": total("spectra.spectral_norm"),
        "limits.ks_s": total("limits.distance_complex", "limits.ks_distance_real"),
        "limits.ks_calls": calls("limits.distance_complex", "limits.ks_distance_real"),
        "limits.ks_points": items.get("limits.distance_complex", 0)
        + items.get("limits.ks_distance_real", 0),
        "limits.cov_relation_s": total("limits.character_relation"),
        "limits.cov_estimate_s": total("limits.empirical_eigen_covariance"),
        "limits.cov_calls": calls("limits.empirical_eigen_covariance"),
        "cli.self_s": self_t[root],
        "cli.payload_mb": plan.trials * n * 16 / MIB,
        "cli.csv_bytes": csv_bytes,
        "cli.report_bytes": report_bytes,
        "trace.run_s": run_s,
        "trace.self_sum_frac": self_sum / run_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layer_self[layer] / run_s
    return metrics, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--plan-seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if not Path(gcirculant.__file__).resolve().is_relative_to(ROOT / "src"):
        where = gcirculant.__file__
        print(f"gcirculant imported from {where}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    plan = build_plan(args.workload, args.plan_seed, args.out_dir)
    tracer = Tracer() if args.trace else None
    g, setup_s, alloc = setup(plan, tracer)
    first, undo_capture = capture_first_spectrum()
    if tracer:
        instrument(tracer)
        root = len(tracer.spans)
    t0 = perf_counter()
    if tracer:
        report = tracer.call("cli.run_experiment", cli.run_experiment, plan)
    else:
        report = cli.run_experiment(plan)
    run_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()
    undo_capture()

    errors = check_outputs(args.workload, plan, g, report, first)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "eigenvalues": plan.trials * g.size,
        "peak_rss_mb": peak_rss_mb,
        "passed": report["passed"],
        "errors": errors,
    }
    if tracer:
        result["layers"], trace_errors = layer_metrics(tracer, root, run_s, plan, g, alloc)
        errors.extend(trace_errors)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
