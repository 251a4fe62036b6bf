import json
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fourier import small_groups

from gcirculant import oracle, spectra
from gcirculant.ensembles import (
    _ENTRY_STREAM,
    _MOMENT_STREAM,
    BASE_DISTRIBUTIONS,
    BETA_CAP,
    EnsembleConfig,
    _fill_draws,
    _stream_keys,
    _streams,
    lindeberg_statistic,
    pair_entries,
    sample_block,
    sample_entries,
    stream,
)
from gcirculant.groups import inverse_permutation, make_group, parse_group_spec
from gcirculant.oracle import moment_check

# the two ends, where the signed zeros of s1*X1 and s2*X2 matter, and any value between
ALPHAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


# |.| of each is nan or inf: nan alone, nan beside inf, and +-inf on either part
NON_FINITE = [
    complex(np.nan, 0.0),
    complex(1.0, np.nan),
    complex(np.nan, np.inf),
    complex(np.inf, 0.0),
    complex(-np.inf, 1.0),
    complex(0.0, -np.inf),
]


def reference_pair_entries(x: np.ndarray, alpha: float) -> np.ndarray:
    """Y = s1*X1 + i*s2*X2 as one complex expression over fresh arrays."""
    s1 = math.sqrt((1.0 + alpha) / 2.0)
    s2 = math.sqrt((1.0 - alpha) / 2.0)
    return s1 * x[:, 0] + 1j * s2 * x[:, 1]


def lindeberg_reference(values: np.ndarray, epsilon: float) -> float:
    """The one-table Lindeberg statistic as first written, frozen: the byte reference."""
    n = values.shape[-1]
    m = np.abs(values)
    return float(np.sum(m[m >= epsilon * math.sqrt(n)] ** 2) / n)


def reference_entries(g, cfg: EnsembleConfig, trial: int) -> np.ndarray:
    """The entry table built with index masks, term by term: the byte reference."""
    n = g.size
    x = _fill_draws(stream(cfg.seed, _ENTRY_STREAM, trial), cfg.base, np.empty((n, 2)))
    if not cfg.hermitian:
        return reference_pair_entries(x, cfg.alpha)
    invp = inverse_permutation(g)
    idx = np.arange(n)
    values = np.zeros(n, dtype=np.complex128)
    invol = invp == idx
    values[invol] = math.sqrt(cfg.beta) * x[invol, 0]
    rep = idx < invp
    values[rep] = reference_pair_entries(x[rep], cfg.alpha)
    values[invp[rep]] = np.conj(values[rep])
    return values


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

    def test_beta_cap(self):
        # the cap keeps every report value finite; it is the largest beta taken
        EnsembleConfig(beta=BETA_CAP, hermitian=True)
        for beta in (math.nextafter(BETA_CAP, math.inf), 1e308):
            with pytest.raises(ValueError, match="beta must be at most 1e\\+200"):
                EnsembleConfig(beta=beta, hermitian=True)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            EnsembleConfig(seed=-1)
        assert EnsembleConfig(seed=0).seed == 0

    def test_rejects_a_seed_the_report_cannot_print(self, monkeypatch):
        # json.dumps(report) converts the seed to decimal, which the interpreter
        # refuses beyond its digit limit: such a seed fails before any sampling
        limit = sys.get_int_max_str_digits()
        assert limit > 0
        cfg = EnsembleConfig(seed=10**limit - 1)
        assert len(json.dumps(cfg.to_dict())) > limit
        with pytest.raises(ValueError, match=f"seed must have at most {limit} decimal digits"):
            EnsembleConfig(seed=10**limit)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
        assert EnsembleConfig(seed=10**limit).seed == 10**limit

    def test_interpreter_without_a_digit_limit_takes_any_seed(self, monkeypatch):
        # CPython before 3.10.7 has no sys.get_int_max_str_digits and no limit
        limit = sys.get_int_max_str_digits()
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert EnsembleConfig(seed=10**limit).seed == 10**limit
        assert EnsembleConfig(alpha=0.5, seed=3).seed == 3

    def test_digest_depends_on_fields(self):
        a = EnsembleConfig(seed=1)
        b = EnsembleConfig(seed=2)
        assert a.digest() != b.digest()
        assert a.digest() == EnsembleConfig(seed=1).digest()


# seeds of one, two and three 32-bit words, the word edges among them
SEEDS = st.one_of(st.integers(0, 2**70), st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**64]))
# trial indices of one, two and three words, and batches across 2^32 and 2^64
INDICES = st.one_of(
    st.integers(0, 2**20),
    st.integers(2**32 - 64, 2**32 + 64),
    st.integers(2**64 - 64, 2**64 + 64),
)


class TestStreamKeys:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=SEEDS,
        purpose=st.sampled_from([_ENTRY_STREAM, _MOMENT_STREAM]),
        first=INDICES,
        b=st.integers(0, 80),
    )
    @example(seed=2**32 - 1, purpose=_ENTRY_STREAM, first=2**32 - 3, b=7)
    @example(seed=2**32, purpose=_MOMENT_STREAM, first=2**64 - 2, b=5)
    @example(seed=7, purpose=_ENTRY_STREAM, first=2**32 - 150, b=300)  # runs of 150 rows
    def test_keys_are_the_seed_sequence_keys(self, seed, purpose, first, b):
        # the keys numpy's Philox takes from SeedSequence: a numpy that changes
        # this hash fails here instead of changing every draw
        keys = _stream_keys(seed, purpose, first, b)
        want = [
            np.random.SeedSequence((seed, purpose, first + k)).generate_state(2, np.uint64)
            for k in range(b)
        ]
        assert keys.dtype == np.uint64 and keys.shape == (b, 2)
        assert keys.tolist() == [w.tolist() for w in want]

    @pytest.mark.parametrize("first", [5, 2**32 - 2])
    def test_each_row_starts_its_own_stream(self, first):
        # an odd count of Rademacher draws leaves half a Philox word, and any
        # count leaves words of its block buffered: the next row drops them
        rows = [("rademacher", 5), ("rademacher", 3), ("gaussian", 5), ("rademacher", 6)]
        rows.append(("uniform", 3))
        seed = 2**40 + 3
        streams = _streams(seed, _ENTRY_STREAM, first, len(rows))
        for k, ((base, n), rng) in enumerate(zip(rows, streams)):
            want = _fill_draws(stream(seed, _ENTRY_STREAM, first + k), base, np.empty(n))
            assert _fill_draws(rng, base, np.empty(n)).tobytes() == want.tobytes(), k


class TestBaseDraws:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 2**20), n=st.integers(0, 300))
    def test_rademacher_matches_the_frozen_expression(self, seed, trial, n):
        x = _fill_draws(stream(seed, _ENTRY_STREAM, trial), "rademacher", np.empty((n, 2)))
        bits = stream(seed, _ENTRY_STREAM, trial).integers(0, 2, (n, 2))
        ref = bits.astype(np.float64) * 2.0 - 1.0  # the expression as it was, frozen
        assert x.dtype == np.float64 and x.shape == (n, 2)
        assert x.tobytes() == ref.tobytes()


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

    @settings(max_examples=30, deadline=None)
    @given(
        base=st.sampled_from(BASE_DISTRIBUTIONS),
        alpha=ALPHAS,
        hermitian=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_matches_the_reference_combine(self, base, alpha, hermitian, seed):
        cfg = EnsembleConfig(base=base, alpha=alpha, beta=1.5, hermitian=hermitian, seed=seed)
        with mock.patch.object(oracle, "pair_entries", reference_pair_entries):
            want = moment_check(cfg, 1000)
        assert repr(moment_check(cfg, 1000)) == repr(want)  # repr keeps the signs of zeros


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

    @settings(max_examples=80, deadline=None)
    @given(
        g=small_groups(),
        base=st.sampled_from(BASE_DISTRIBUTIONS),
        alpha=ALPHAS,
        beta=st.floats(0.01, 10.0),
        hermitian=st.booleans(),
        seed=SEEDS,
        trial=INDICES,
    )
    # for each base, a block whose rows cross 2^32, at seeds of two and three words
    @example(
        g=make_group([6, 4]), base="gaussian", alpha=0.5, beta=2.0, hermitian=True,
        seed=2**32, trial=2**32 - 2,
    )
    @example(
        g=make_group([6, 4]), base="rademacher", alpha=0.5, beta=2.0, hermitian=False,
        seed=2**40 + 3, trial=2**32 - 1,
    )
    @example(
        g=make_group([7]), base="uniform", alpha=0.0, beta=1.0, hermitian=True,
        seed=2**64 + 5, trial=2**32 - 3,
    )
    def test_table_bytes_match_the_reference(self, g, base, alpha, beta, hermitian, seed, trial):
        cfg = EnsembleConfig(base=base, alpha=alpha, beta=beta, hermitian=hermitian, seed=seed)
        table = sample_entries(g, cfg, trial)
        assert table.trial == trial and table.hermitian == hermitian
        # tobytes compares the sign of every zero, which the CSV prints
        assert table.values.tobytes() == reference_entries(g, cfg, trial).tobytes()
        # a block's later rows take their keys from _stream_keys, not from stream()
        block = sample_block(g, cfg, trial, np.empty((3, g.size, 2)))
        for k, row in enumerate(block):
            assert row.tobytes() == reference_entries(g, cfg, trial + k).tobytes(), k

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_no_full_size_temporaries(self, hermitian):
        g = parse_group_spec("3,2^12")
        cfg = EnsembleConfig(alpha=0.5, hermitian=hermitian, seed=3)
        sample_entries(g, cfg)  # fills the per-group caches the sampler reads
        tracemalloc.start()
        try:
            table = sample_entries(g, cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (N, 2) draw buffer is the table; at most one more table's worth
        assert table.values.nbytes == 16 * g.size
        assert peak <= 2 * 16 * g.size


class TestLindeberg:
    def test_bounded_entries_give_zero(self):
        g = parse_group_spec("2^6")
        table = sample_entries(g, EnsembleConfig(base="rademacher", alpha=1.0, seed=4))
        assert lindeberg_statistic(table.values, 1.0) == 0.0

    def test_tiny_epsilon_gives_mean_square(self):
        g = parse_group_spec("8,3")
        table = sample_entries(g, EnsembleConfig(base="gaussian", seed=6))
        expected = float(np.mean(np.abs(table.values) ** 2))
        assert lindeberg_statistic(table.values, 1e-12) == pytest.approx(expected)

    def test_gaussian_large_group(self):
        g = parse_group_spec("4096")
        hits = 0
        for seed in range(20):
            table = sample_entries(g, EnsembleConfig(base="gaussian", seed=seed))
            if lindeberg_statistic(table.values, 1.0) < 1e-6:
                hits += 1
        assert hits == 20

    def test_rejects_bad_epsilon(self):
        g = parse_group_spec("2^3")
        table = sample_entries(g, EnsembleConfig(seed=0))
        for epsilon in (0.0, -0.0, -1.0, math.nan):
            for values in (table.values, table.values[None]):
                with pytest.raises(ValueError):
                    lindeberg_statistic(values, epsilon)

    @settings(max_examples=80, deadline=None)
    @given(
        chunk=st.sampled_from([1, 2, 7, 64]),
        n=st.integers(1, 300),
        edges=st.lists(st.one_of(st.none(), st.integers(0, 2**10)), min_size=1, max_size=4),
        bad=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 299), st.sampled_from(NON_FINITE)),
            max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # nan alone, nan beside an entry over the cut, and +-inf: the rows whose
    # norm is nan or inf are summed, and must keep the reference's bits
    @example(
        chunk=2,
        n=9,
        edges=[None, 3, None, None],
        bad=[
            (0, 4, NON_FINITE[0]),
            (1, 0, NON_FINITE[1]),
            (2, 8, NON_FINITE[3]),
            (3, 5, NON_FINITE[4]),
            (3, 6, NON_FINITE[5]),
        ],
        seed=11,
    )
    def test_chunks_find_hits_at_every_edge(self, chunk, n, edges, bad, seed):
        # each row's one entry over the cut, if any, sits at a chunk's first or
        # last column; the rest are under it, but for the non-finite entries
        # `bad` puts first.  Every row keeps its one-table bits
        rng = np.random.default_rng(seed)
        cut = math.sqrt(n)
        shape = (len(edges), n)
        block = cut / 4 * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
        for k, j, value in bad:
            block[k % len(edges), j % n] = value
        for k, e in enumerate(edges):
            if e is not None:  # chunk e // 2, its first column if e is even, else its last
                j = min(n - 1, e // 2 % -(-n // chunk) * chunk + (chunk - 1) * (e % 2))
                block[k, j] = cut * complex(1 + rng.uniform(), rng.uniform())
        with mock.patch.object(spectra, "_CHUNK", chunk):
            stats = lindeberg_statistic(block, 1.0)
        for k, e in enumerate(edges):
            want = np.float64(lindeberg_reference(block[k], 1.0))
            over = e is not None or bool(np.isinf(block[k]).any())
            assert stats[k].tobytes() == want.tobytes() and (want > 0) == over

    @settings(max_examples=120, deadline=None)
    @given(
        b=st.integers(1, 5),
        n=st.integers(1, 700),
        base=st.sampled_from(BASE_DISTRIBUTIONS),
        alpha=ALPHAS,
        epsilon=st.one_of(st.sampled_from([1e-12, 1.0]), st.floats(1e-12, 1.5)),
        seed=st.integers(0, 2**32 - 1),
    )
    # rows with some and with all of their entries over the cut
    @example(b=4, n=600, base="uniform", alpha=0.5, epsilon=0.05, seed=3)
    @example(b=3, n=257, base="rademacher", alpha=0.0, epsilon=1e-12, seed=5)
    def test_block_rows_have_the_one_table_bits(self, b, n, base, alpha, epsilon, seed):
        # a masked row sum rounds differently from a sum over the selected
        # entries, so every row is held to the frozen one-table formula
        x = _fill_draws(np.random.default_rng(seed), base, np.empty((b * n, 2)))
        block = pair_entries(x, alpha).reshape(b, n)
        stats = lindeberg_statistic(block, epsilon)
        assert stats.shape == (b,) and stats.dtype == np.float64
        for k in range(b):
            want = np.float64(lindeberg_reference(block[k], epsilon))
            assert stats[k].tobytes() == want.tobytes()
            one = lindeberg_statistic(block[k], epsilon)
            assert type(one) is np.float64 and one.tobytes() == stats[k].tobytes()
