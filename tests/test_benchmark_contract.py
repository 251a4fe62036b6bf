"""The benchmark's worker runs its workloads against this tree and finds no error.

Every repetition of `perfbench/worker.py` checks the run's trial 0 against an
`np.fft.ifftn` oracle of `sample_entries(g, cfg, 0)`, keeps the first spectrum
`spectra.eigenvalues` returns, and, traced, wraps the run's call sites by
module attribute.  A change to the sampler, to those names or to the order of
calls fails every repetition, so the suite runs the worker itself, in a fresh
process as the benchmark does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.mark.parametrize(
    "workload, trace",
    [
        ("cyclic-transform", False),
        ("covariance-small", False),
        ("covariance-small", True),
        ("prime-hermitian-csv", False),
        ("prime-hermitian-csv", True),
        ("mixed-stats", False),
    ],
    ids=[
        "cyclic-transform",
        "covariance-small",
        "covariance-small-traced",
        "prime-hermitian-csv",
        "prime-hermitian-csv-traced",
        "mixed-stats",
    ],
)
def test_worker_checks_pass(workload, trace, tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(WORKER), "--workload", workload, "--plan-seed", "7"]
    argv += ["--out-dir", str(out_dir)]
    if trace:
        argv += ["--trace", "--spans", str(spans)]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert record["errors"] == []
    assert record["eigenvalues"] > 0 and record["run_s"] > 0
    if trace:
        assert record["layers"]["ensembles.sample_calls"] > 0
        assert spans.stat().st_size > 0
    if trace and workload == "prime-hermitian-csv":
        # runs lindeberg: a block call under another name would read 0 here
        assert record["layers"]["ensembles.lindeberg_s"] > 0
        assert record["layers"]["fourier.forward_calls"] > 0
