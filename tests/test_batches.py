"""Trials in batches: a block's rows are the per-trial results, byte for byte.

`ensembles.sample_block`, `spectra.eigenvalue_block` and `cli._trial_results`
run B trials per call; `sample_entries` and `eigenvalues` are their one-trial
cases.  These properties hold the rows of any block, at any start and size,
to the one-trial results, with the signs of zeros compared too (the CSV
prints them).  The transform works in place in its caller's array, and
neither that buffer nor `spectral_norm`'s column chunks change a byte.
"""

import collections
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_ensembles import lindeberg_reference

from gcirculant import cli, ensembles, fourier, spectra
from gcirculant.cli import ExperimentPlan
from gcirculant.ensembles import (
    BASE_DISTRIBUTIONS,
    EnsembleConfig,
    sample_block,
    sample_entries,
)
from gcirculant.fourier import get_plan
from gcirculant.groups import inverse_pairs, make_group, parse_group_spec, real_character_mask
from gcirculant.spectra import eigenvalue_block, eigenvalues, spectral_norm

# the two ends, where the signed zeros of s1*X1 and s2*X2 matter, and any value between
ALPHAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
FACTORS = st.one_of(
    st.integers(1, 7).map(lambda m: [2] * m),  # a run of order-2 factors: Hadamard blocks
    st.sampled_from([3, 5, 9, 15]).map(lambda d: [d]),  # odd
    st.sampled_from([4, 6, 8, 12]).map(lambda d: [d]),  # even, not 2
    st.sampled_from([7, 11, 13]).map(lambda d: [d]),  # prime
)


@st.composite
def batch_groups(draw, max_size=2048):
    """Products of the FACTORS kinds with size <= max_size: the longest prefix that fits."""
    orders = []
    for factor in draw(st.lists(FACTORS, min_size=1, max_size=4)):
        if math.prod(orders + factor) > max_size:
            break
        orders += factor
    return make_group(orders or [2])


def configs():
    return st.builds(
        EnsembleConfig,
        base=st.sampled_from(BASE_DISTRIBUTIONS),
        alpha=ALPHAS,
        beta=st.floats(0.1, 5.0),
        hermitian=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )


def nan_rows(g, rows):
    """A (rows, N) complex128 buffer filled with nan: nothing may read a stale value."""
    return np.full((rows, g.size), complex(np.nan, np.nan))


class TestBlockRows:
    @settings(max_examples=80, deadline=None)
    @given(
        g=batch_groups(),
        cfg=configs(),
        first=st.integers(0, 2**20),
        b=st.integers(1, 7),
        spare=st.integers(0, 3),
    )
    # Rademacher at alpha = 1 on a group with a non-2 axis: every row is real,
    # so the transform zeroes Im at the real characters row by row
    @example(
        g=make_group([3, 2, 2]),
        cfg=EnsembleConfig(base="rademacher", alpha=1.0, seed=5),
        first=1,
        b=4,
        spare=1,
    )
    def test_rows_are_the_per_trial_bytes(self, g, cfg, first, b, spare):
        n = g.size
        buffer = nan_rows(g, b + spare)  # a run-long buffer may hold more rows
        draws = buffer[:b].view(np.float64).reshape(b, n, 2)
        tables = sample_block(g, cfg, first, draws)
        assert tables.shape == (b, n) and np.shares_memory(tables, buffer)
        kept = tables.copy()  # the transform overwrites the buffer
        lam = eigenvalue_block(g, tables, cfg.hermitian)
        assert lam is tables and np.isnan(buffer[b:]).all()
        for k in range(b):
            table = sample_entries(g, cfg, first + k)
            assert kept[k].tobytes() == table.values.tobytes()
            assert lam[k].tobytes() == eigenvalues(table).values.tobytes()

    # groups where pocketfft leaves rounding in Im at the real characters
    @pytest.mark.parametrize("orders", [[10], [12, 10], [6, 6, 2], [4099]])
    def test_real_zeroing_is_per_row(self, orders):
        # a block that mixes real and complex rows: only the real rows'
        # transforms are set to exactly 0 at the real characters
        g = make_group(orders)
        rng = np.random.default_rng(61)
        rows = rng.standard_normal((4, g.size)) + 0j
        rows[1] += 1j * rng.standard_normal(g.size)
        rows[3, 0] += 0.5j
        plan = get_plan(g)
        block = plan.forward(rows.copy())
        buffer = nan_rows(g, 6)
        buffer[:4] = rows
        assert plan.forward(buffer[:4]).tobytes() == block.tobytes()
        for k, row in enumerate(rows):
            assert block[k].tobytes() == plan.forward(row.copy()).tobytes()
        mask = real_character_mask(g)
        assert np.all(block[[0, 2]].imag[:, mask] == 0.0)
        assert np.all(block[[1, 3]].imag[:, mask] != 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        orders=st.sampled_from([[4, 3], [4099], [3] + [2] * 10]),
        beta=st.floats(-40.0, 200.0).map(lambda e: 10.0**e),
        fault=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
    )
    @example(orders=[4099], beta=1e20, fault=1e-6)  # an absolute bound fails the clean block
    @example(orders=[4099], beta=1.0, fault=1e-6)  # an absolute bound misses the fault
    @example(orders=[4, 3], beta=1.0, fault=0.1)
    def test_one_row_not_conjugate_symmetric_raises(self, orders, beta, fault):
        # the bound scales with each row's spectrum: a clean block passes at any
        # beta, and a conjugate pair broken by `fault` times the table's scale fails
        g = make_group(orders)
        cfg = EnsembleConfig(alpha=0.5, beta=beta, hermitian=True, seed=9)
        tables = sample_block(g, cfg, 0, np.empty((3, g.size, 2)))
        eigenvalue_block(g, tables.copy(), True)  # conjugate-symmetric: no error
        mirrored, _ = inverse_pairs(g)
        tables[1, mirrored[0]] += 1j * fault * np.abs(tables[1]).max()
        with pytest.raises(ValueError, match="spectrum is not real"):
            eigenvalue_block(g, tables.copy(), True)
        buffer = nan_rows(g, 4)
        buffer[:3] = tables
        with pytest.raises(ValueError, match="spectrum is not real"):
            eigenvalue_block(g, buffer[:3], True)

    @pytest.mark.parametrize("orders", [[4, 3], [2, 2, 2], [12, 10]])
    def test_hermitian_check_reports_max_abs_imag(self, orders):
        # max(max Im, -min Im) is max |Im|: the message's value is the same
        g = make_group(orders)
        cfg = EnsembleConfig(alpha=0.5, hermitian=True, seed=9)
        tables = np.stack([sample_entries(g, cfg, t).values for t in range(3)])
        tables[2, 1] -= 0.5j  # on (Z_2)^3, entry 1 is its own inverse and so must be real
        worst = np.abs((get_plan(g).forward(tables.copy()) / math.sqrt(g.size)).imag).max()
        with pytest.raises(ValueError, match=f"max \\|Im lambda\\| = {worst:.3e} >"):
            eigenvalue_block(g, tables, True)

    @pytest.mark.parametrize("orders", [[4, 3], [2, 2, 2], [6, 2]])
    @pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(0.0, np.nan)])
    def test_hermitian_check_fails_on_nan(self, orders, entry):
        # a nan in either part of one entry reaches Im of that row's spectrum
        g = make_group(orders)
        cfg = EnsembleConfig(alpha=0.5, hermitian=True, seed=9)
        tables = np.stack([sample_entries(g, cfg, t).values for t in range(3)])
        tables[1, 1] = entry
        with pytest.raises(ValueError, match="max \\|Im lambda\\| = nan"):
            eigenvalue_block(g, tables, True)


@st.composite
def plan_groups(draw):
    """(kind, group): pocketfft axes only, order-2 factors only (Hadamard steps), or
    both in any order, with size at most 4 * 13^2 * 2^5."""
    fft = draw(st.lists(st.sampled_from([3, 4, 5, 6, 9, 12, 13]), min_size=1, max_size=2))
    two = [2] * draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["pocketfft", "hadamard", "mixed"]))
    orders = {"pocketfft": fft, "hadamard": two, "mixed": draw(st.permutations(fft + two))}
    return kind, make_group(orders[kind])


def forward_two_buffers(g, values):
    """The transform as first stepped through two buffers, frozen: each Hadamard
    step's np.matmul writes a fresh array.  The byte reference of the scratch slices."""
    x = np.array(values, dtype=np.complex128).reshape(-1, g.size)
    b = x.shape[0]
    real_rows = ~x.imag.any(axis=1)
    pre, post = b, g.size
    for d, h in fourier._axis_steps(g):
        post //= d
        x3 = x.reshape(pre, d, post)
        if h is None:
            x = np.fft.ifft(x3, axis=1, norm="forward")
        else:
            x = np.matmul(h, x3.view(np.float64)).view(np.complex128)
        x = x.reshape(b, g.size)
        pre *= d
    if any(d != 2 for d in g.orders):
        x.imag[np.ix_(real_rows, real_character_mask(g))] = 0.0
    return x


@st.composite
def hadamard_groups(draw):
    """A run of 1-12 order-2 factors, alone or with up to two other factors in any
    order, with size at most 2^13: other factors that do not fit are dropped."""
    orders = [2] * draw(st.integers(1, 12))
    orders += draw(st.lists(st.sampled_from([3, 5, 6, 9]), max_size=2))
    while math.prod(orders) > 1 << 13:
        orders.pop()
    return make_group(draw(st.permutations(orders)))


class TestWorkBuffers:
    @settings(max_examples=60, deadline=None)
    @given(
        case=plan_groups(),
        b=st.integers(1, 4),
        spare=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        real=st.booleans(),
        in_buffer=st.booleans(),
    )
    def test_buffers_change_no_byte(self, case, b, spare, seed, real, in_buffer):
        _, g = case
        plan = get_plan(g)
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((b, g.size)) + 0j
        if not real:
            rows.imag = rng.standard_normal((b, g.size))
        want = plan.forward(rows.copy())

        buffer = nan_rows(g, b + spare)
        buffer[:b] = rows
        # the batch path transforms a buffer's first rows
        x = buffer[:b] if in_buffer else rows.copy()
        got = plan.forward(x)
        assert got is x and got.tobytes() == want.tobytes()
        assert np.isnan(buffer[b:]).all()  # rows past the block are never written
        one = plan.forward(rows[0].copy())
        assert one.shape == (g.size,) and one.tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("spec", ["12", "2^3", "3,2^2"])
    def test_forward_works_in_its_argument_or_raises(self, spec):
        # pocketfft only, Hadamard only and mixed
        g = parse_group_spec(spec)
        plan = get_plan(g)
        rng = np.random.default_rng(71)
        rows = rng.standard_normal((3, g.size)) + 1j * rng.standard_normal((3, g.size))
        want = plan.forward(rows.copy())
        x = rows.copy()
        assert plan.forward(x) is x and x.tobytes() == want.tobytes()
        one = rows[1].copy()
        assert plan.forward(one) is one and one.tobytes() == want[1].tobytes()
        # the first rows of a larger nan-filled buffer: the bytes of a fresh copy
        buffer = nan_rows(g, 5)
        buffer[:3] = rows
        assert plan.forward(buffer[:3]).tobytes() == want.tobytes()
        assert np.isnan(buffer[3:]).all()
        wide = np.repeat(rows, 2, axis=1)
        for bad in (
            rows.real.copy(),  # float64
            wide[:, ::2],  # not contiguous
            rows[:, :-1].copy(),  # wrong length
            rows.reshape(1, 3, g.size),  # 3-D
        ):
            kept = bad.copy()
            with pytest.raises(ValueError, match="C-contiguous complex128"):
                plan.forward(bad)
            assert bad.tobytes() == kept.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        g=hadamard_groups(),
        b=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        real=st.booleans(),
        floats=st.sampled_from([1, 2, 7, 64, fourier._SCRATCH_FLOATS]),
        grain=st.sampled_from([64, fourier._COLUMN_GRAIN]),
    )
    # column slices of 64, 64 and 34 on the first step, and of 1024 x 4 and 278
    @example(g=make_group([2, 2, 2, 3, 3, 3, 3]), b=3, seed=1, real=False, floats=64, grain=64)
    @example(g=make_group([2] * 5 + [3] * 7), b=2, seed=3, real=True, floats=1, grain=1024)
    # row slices of 16, 16, 16 and 6 matrices
    @example(g=make_group([3, 3, 3, 2]), b=2, seed=2, real=True, floats=64, grain=64)
    def test_scratch_slices_change_no_byte(self, g, b, seed, real, floats, grain):
        # tiny scratches and a 64-column grain put a slice edge on every row
        # and column offset; the grain is a multiple of BLAS's column tile
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((b, g.size)) + 0j
        if not real:
            rows.imag = rng.standard_normal((b, g.size))
        want = forward_two_buffers(g, rows)
        plan = get_plan(g)
        buffer = nan_rows(g, b + 1)
        buffer[:b] = rows
        with mock.patch.multiple(fourier, _SCRATCH_FLOATS=floats, _COLUMN_GRAIN=grain):
            assert plan.forward(rows.copy()).tobytes() == want.tobytes()
            assert plan.forward(buffer[:b]).tobytes() == want.tobytes()
            assert plan.forward(rows[0].copy()).tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("spec", ["65536", "2^16", "3,2^14"])
    def test_forward_allocates_only_its_scratch(self, spec):
        # pocketfft only, Hadamard only and mixed: every step runs in the
        # caller's array, so the peak is a Hadamard step's scratch; zeroing
        # the real characters of a real input makes no index array
        g = parse_group_spec(spec)
        plan = get_plan(g)
        # a step's scratch: at most _SCRATCH_FLOATS, or one slice of a 32-row block
        scratch = max(fourier._SCRATCH_FLOATS, fourier._COLUMN_GRAIN << fourier._HADAMARD_MAX_LOG)
        scratch_bytes = 8 * scratch if 2 in g.orders else 0
        rng = np.random.default_rng(67)
        real = rng.standard_normal(g.size)
        for x in (real + 1j * rng.standard_normal(g.size), real + 0j):
            plan.forward(x.copy())  # the first call fills any one-time cache
            x = x.copy()  # made before the measured call
            tracemalloc.start()
            try:
                plan.forward(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= scratch_bytes + (64 << 10)


class TestSpectralNorm:
    @settings(max_examples=80, deadline=None)
    @given(
        b=st.integers(1, 4),
        n=st.integers(1, 23),
        seed=st.integers(0, 2**32 - 1),
        nans=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 22),
                st.sampled_from([np.nan, 1j * np.nan, complex(np.nan, 1.0)]),
            ),
            max_size=3,
        ),
    )
    def test_chunks_give_the_bytes_of_one_reduction(self, b, n, seed, nans):
        # a 4-column chunk puts chunk edges at every offset of a short row
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
        for k, j, value in nans:
            x[k % b, j % n] = value
        with mock.patch.object(spectra, "_CHUNK", 4):
            block, one = spectral_norm(x), spectral_norm(x[0])
        assert block.tobytes() == np.abs(x).max(axis=-1).tobytes()
        assert type(one) is np.float64 and one.tobytes() == np.abs(x[0]).max().tobytes()

    @pytest.mark.parametrize("extra", [-1, 1, 4099])
    def test_module_chunk(self, extra):
        n = 2 * spectra._CHUNK + extra
        rng = np.random.default_rng(extra + 2)
        x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        x[1, n - 1] = np.nan
        x[2, n - 2] = 1e3j
        norms = spectral_norm(x)
        assert norms.tobytes() == np.abs(x).max(axis=-1).tobytes()
        assert np.isnan(norms[1]) and norms[2] == 1e3
        assert spectral_norm(x[2]).tobytes() == norms[2].tobytes()


def per_trial_reference(plan, g):
    """The per-trial arrays from one sample_entries and one eigenvalues per trial, with
    the frozen one-table Lindeberg formula."""
    rows = {"re": [], "im": [], "norms": [], "lind": []}
    for trial in range(plan.trials):
        table = sample_entries(g, plan.cfg, trial)
        s = eigenvalues(table)
        rows["re"].append(s.values.real)
        rows["im"].append(s.values.imag)
        rows["norms"].append(spectral_norm(s.values))
        rows["lind"].append(lindeberg_reference(table.values, plan.thresholds.lindeberg_epsilon))
    return {name: np.array(r) for name, r in rows.items()}


class TestTrialResults:
    @settings(max_examples=40, deadline=None)
    @given(
        g=batch_groups(max_size=512),
        cfg=configs(),
        trials=st.integers(1, 12),
        points=st.integers(1, 3000),
        jobs=st.sampled_from([1, 2, 5]),
    )
    def test_batches_write_the_per_trial_rows(self, g, cfg, trials, points, jobs):
        # BATCH_POINTS // N trials per batch, so T is rarely a multiple of B
        plan = ExperimentPlan(
            group=str(g),
            cfg=cfg,
            trials=trials,
            checks=("norm_curve", "lindeberg"),
            eigenvalue_csv=Path("unused.csv"),  # keeps both blocks; nothing is written
            jobs=jobs,
        )
        with mock.patch.object(cli, "BATCH_POINTS", points), mock.patch.object(
            cli.os, "cpu_count", lambda: 8
        ):
            arrays = cli._trial_results(plan, g)
        want = per_trial_reference(plan, g)
        assert set(arrays) == set(cli._trial_shapes(plan, g.size))
        for name, a in arrays.items():
            assert a.tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize(
        "trials, points, batches",
        [(1, 16, [(0, 1)]), (2, 16, [(0, 1), (1, 1)]), (10, 16, [(0, 1), (1, 4), (5, 4), (9, 1)])],
    )
    def test_trial_zero_runs_alone(self, trials, points, batches):
        # batch s runs trials max(s, 0) up to min(s + size, trials)
        size = max(1, points // 4)
        spans = [(max(s, 0), min(s + size, trials) - max(s, 0)) for s in cli._batches(trials, size)]
        assert spans == batches

    def test_one_seed_sequence_and_philox_per_block(self, monkeypatch):
        # trial 0, then 999 trials 256 at a time: five blocks, each of which
        # builds one generator and takes its other rows' keys from one hash
        made = collections.Counter()

        def counted(name, make):
            def build(*args, **kwargs):
                made[name] += 1
                return make(*args, **kwargs)

            return build

        for name in ("SeedSequence", "Philox"):
            monkeypatch.setattr(np.random, name, counted(name, getattr(np.random, name)))
        monkeypatch.setattr(cli, "sample_block", counted("block", cli.sample_block))
        monkeypatch.setattr(ensembles, "sample_block", counted("block", ensembles.sample_block))
        cfg = EnsembleConfig(alpha=0.5, beta=2.0, hermitian=True, seed=3)
        cli.run_experiment(ExperimentPlan(group="2^6", cfg=cfg, trials=1000, checks=("covariance",)))
        assert made == {"block": 5, "SeedSequence": 5, "Philox": 5}

    def test_schedule_takes_no_memory_per_batch(self, monkeypatch):
        # 10^6 batches of one trial on 2^14, and a check that keeps no per-trial
        # array: a list of the batches would take about 100 MiB before trial 0
        def refuse(*args):
            raise RuntimeError("sampled")

        monkeypatch.setattr(cli, "sample_block", refuse)
        monkeypatch.setattr(cli, "sample_entries", refuse)
        plan = ExperimentPlan(
            group="2^14", cfg=EnsembleConfig(seed=1), trials=10**6, checks=("selftest",)
        )
        g = parse_group_spec(plan.group)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="sampled"):
                cli._trial_results(plan, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
