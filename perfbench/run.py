"""gcirculant benchmark: runs one workload for a fixed time and prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gcirculant is imported from ./src.
The loop is closed: one experiment at a time, each repetition in a fresh
process with `jobs=1` (BLAS limited to the available cores), started only
after the previous one has ended.  Repetitions continue until
the next one would end after --seconds, with at least MIN_REPS of them.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates an untraced and a traced repetition on the same plan
seed and reports the per-layer metrics (medians over traced repetitions)
plus the tracing overhead.  Every repetition's outputs are checked; the
last line of stdout is the JSON result.  Metric names and units come from
BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
MIN_REPS = 2
# A run must end within 180 s: start no repetition expected to end after
# HARD_LIMIT_S, and kill one still running at DEADLINE_S.
HARD_LIMIT_S = 165.0
DEADLINE_S = 175.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_rep(workload: str, plan_seed: int, traced: bool, timeout: float) -> dict | None:
    """One repetition in a fresh process; None if it crashed or timed out."""
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload,
            "--plan-seed", str(plan_seed),
            "--out-dir", tmp,
        ]
        if traced:
            cmd += ["--trace", "--spans", str(OUT_ROOT / f"spans-{workload}-{plan_seed}.json")]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"repetition killed after {timeout:.0f} s", file=sys.stderr)
            return None
    if proc.returncode != 0:
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(k: int, plan_seed: int, rep: dict | None, label: str) -> str:
    if rep is None:
        return f"rep {k} plan_seed {plan_seed} {label}: crashed"
    verdict = "PASS" if rep["passed"] else "FAIL"
    return (
        f"rep {k} plan_seed {plan_seed} {label}: setup_s {rep['setup_s']:.6f} "
        f"run_s {rep['run_s']:.4f} peak_rss_mb {rep['peak_rss_mb']:.1f} "
        f"verdict {verdict} errors {rep['errors'] or 'none'}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "gcirculant" / "cli.py").is_file():
        print(f"no gcirculant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    OUT_ROOT.mkdir(exist_ok=True)

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    start = perf_counter()
    longest = 0.0
    k = 0
    while True:
        t0 = perf_counter()
        plan_seed = args.seed * 1000 + k
        sides = [(False, plain)] + ([(True, traced)] if args.trace else [])
        for is_traced, sink in sides:
            timeout = max(1.0, DEADLINE_S - (perf_counter() - start))
            rep = run_rep(args.workload, plan_seed, is_traced, timeout)
            attempted += 1
            print(describe(k, plan_seed, rep, "traced" if is_traced else "untraced"))
            if rep is None or rep["errors"]:
                failed += 1
            if rep is not None:
                sink.append(rep)
        k += 1
        longest = max(longest, perf_counter() - t0)
        elapsed = perf_counter() - start
        if elapsed + longest > HARD_LIMIT_S:
            break
        if k >= (1 if args.trace else MIN_REPS) and elapsed + longest > args.seconds:
            break

    if not plain or (args.trace and not traced):
        print("no repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        values = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name in per_layer
            if name != "trace.overhead_frac"
        }
        untraced_run_s = statistics.median(rep["run_s"] for rep in plain)
        values["trace.overhead_frac"] = values["trace.run_s"] / untraced_run_s - 1.0
        units = per_layer
    else:
        values = {
            "setup_s": statistics.median(rep["setup_s"] for rep in plain),
            "run_s": statistics.median(rep["run_s"] for rep in plain),
            "eigenvalues_per_s": statistics.median(
                rep["eigenvalues"] / rep["run_s"] for rep in plain
            ),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        }
        units = end_to_end
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
