"""Random entry families indexed by group elements.

Pair entries are Y = s1*X1 + i*s2*X2 with s1 = sqrt((1+alpha)/2),
s2 = sqrt((1-alpha)/2), which gives E|Y|^2 = 1 and E Y^2 = alpha exactly for
any standardized base distribution; `pair_entries` turns the draw buffer
into them in place.  Under the Hermitian constraint, involution entries are
real with variance beta and each {a, a^-1} pair carries one draw plus its
exact conjugate; beta is at most BETA_CAP.  `sample_block` fills a
(B, N, 2) draw buffer with the draws of B consecutive trials, row k from
trial first + k's own stream, and `entry_tables` shapes the filled buffer
into their tables in place; the tables are real-linear in the draws, which
`oracle.exact_moments` reads.  `sample_entries` is a one-trial
`sample_block` and returns a `groups.GroupFunction` that carries its trial
number.  `lindeberg_statistic` reduces one (N,) table or a (B, N) block of
them, one value per row.

A stream is a Philox generator keyed by numpy's SeedSequence hash of
(seed, purpose, index); `stream()` is its one-row definition.  A block
builds one generator, computes the keys of its later rows for the batch at
once (`_stream_keys`) and resets the generator to each row's key in turn.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .groups import GroupFunction, GroupSpec, inverse_pairs, real_character_mask
from .spectra import spectral_norm

BASE_DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")

# stream purposes keep entry sampling and moment checks on disjoint substreams
_ENTRY_STREAM = 0
_MOMENT_STREAM = 1
# the largest beta a plan takes, so every report value stays finite.  An
# eigenvalue has |lambda| <= sqrt(N) * max|Y|, with N <= 2^22 (groups.SIZE_CAP)
# and |Y| <= 40 sqrt(beta) at beta >= 1 (a normal draw beyond 40 has probability
# under 1e-300), and a run sums squares over at most 2^27 points
# (cli.TRIAL_BYTES_CAP / 8): at most 2^27 * 2^22 * 1600 * beta < 1e18 * beta,
# which stays finite up to beta = 1e290.  1e200 leaves a wide margin.
BETA_CAP = 1e200


@dataclass(frozen=True)
class EnsembleConfig:
    """Entry-law parameters: base distribution, (alpha, beta), symmetry, seed."""

    base: str = "gaussian"
    alpha: float = 0.0
    beta: float = 1.0
    hermitian: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base not in BASE_DISTRIBUTIONS:
            raise ValueError(
                f"base must be one of {BASE_DISTRIBUTIONS}, got {self.base!r}"
            )
        if isinstance(self.alpha, complex):
            raise ValueError("complex alpha is not supported")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if self.beta > BETA_CAP:
            raise ValueError(f"beta must be at most {BETA_CAP:g}, got {self.beta}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the report prints the seed, and str() refuses an int with more
        # digits; CPython before 3.10.7 has neither the limit nor its getter
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and self.seed >= 10**limit:
            raise ValueError(f"seed must have at most {limit} decimal digits")

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    """Counter-based substream for (seed, purpose, index); order-independent.

    This is the definition of every stream: `_streams` and `_stream_keys` must
    give the same generator state for each index.
    """
    ss = np.random.SeedSequence((int(seed), int(purpose), int(index)))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which makes a
# Philox key: `mix_entropy` hashes the entropy words into a pool of 4 uint32
# words and mixes every pair of them, then `generate_state` hashes the pool
# into the 4 words of the key; each hash step takes the next power of its
# multiplier as its constant.  `_stream_keys` runs it on Python ints that
# hold one 32-bit value per row in 64-bit lanes, so a product with a 32-bit
# constant stays in its lane: numpy's bitwise ufuncs would page in 64 KiB of
# code that nothing else on the run path uses, and cost more per call.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> tuple[int, ...]:
    """init * mult**k mod 2**32 for k = 0 .. count."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & _MASK32)
    return tuple(c)


def _words(n: int) -> list[int]:
    """The 32-bit words of n >= 0, least significant first, as SeedSequence splits an int."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _stream_keys(seed: int, purpose: int, first: int, b: int) -> np.ndarray:
    """The (b, 2) uint64 Philox keys of stream(seed, purpose, first + k), k < b.

    Row k is `SeedSequence((seed, purpose, first + k)).generate_state(2, np.uint64)`,
    hashed for the whole batch at once, one run of rows per value of the
    index's high words; only the low word varies in a run.
    """
    keys = np.empty((b, 2), np.uint64)
    head = _words(seed) + _words(purpose)
    start = first
    while start < first + b:
        high = start >> 32
        stop = min(first + b, (high + 1) << 32)
        n = stop - start
        ones = (1 << 64 * n) // ((1 << 64) - 1)  # a 1 in each of n 64-bit lanes
        mask = _MASK32 * ones

        def hashmix(v: int, c: tuple[int, ...], k: int) -> int:
            v = (v ^ c[k] * ones) * c[k + 1] & mask
            return v ^ v >> 16 & mask

        def mix(x: int, y: int) -> int:
            # 2**32 added in each lane keeps L*x - R*y from borrowing across lanes
            x = (_MIX_L * x & mask) + (ones << 32) - (_MIX_R * y & mask) & mask
            return x ^ x >> 16 & mask

        lo = start & _MASK32
        low = int.from_bytes(np.arange(lo, lo + n, dtype="<u8").tobytes(), "little")
        tail = _words(high) if high else []
        entropy = [w * ones for w in head] + [low] + [w * ones for w in tail]
        # 4 hashes fill the pool, 12 mix its pairs and 4 mix in each word after the 4th
        a = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * max(0, len(entropy) - 4))
        pool = [hashmix(entropy[i] if i < len(entropy) else 0, a, i) for i in range(4)]
        k = 4
        for s in range(4):
            for d in range(4):
                if d != s:
                    pool[d] = mix(pool[d], hashmix(pool[s], a, k))
                    k += 1
        for word in entropy[4:]:
            for d in range(4):
                pool[d] = mix(pool[d], hashmix(word, a, k))
                k += 1
        g = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)
        state = [hashmix(pool[i], g, i) for i in range(4)]
        for j in range(2):  # key word j is state words 2j (low half) and 2j + 1
            lanes = (state[2 * j] | state[2 * j + 1] << 32).to_bytes(8 * n, "little")
            keys[start - first : stop - first, j] = np.frombuffer(lanes, "<u8")
        start = stop
    return keys


def _streams(seed: int, purpose: int, first: int, b: int):
    """Yield the generators of stream(seed, purpose, first + k) for k < b, in order.

    It is one Generator: trial first's stream, whose Philox each later row
    resets to that stream's starting state (its own key, counter 0, no
    buffered bits), so a yielded generator is valid until the next is drawn.
    """
    rng = stream(seed, purpose, first)
    yield rng
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": None},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in _stream_keys(seed, purpose, first + 1, b - 1).tolist():
        fresh["state"]["key"] = key
        rng.bit_generator.state = fresh
        yield rng


def _fill_draws(rng: np.random.Generator, base: str, out: np.ndarray) -> np.ndarray:
    """Fill the float64 array `out` with mean-0 variance-1 draws from the base distribution."""
    if base == "gaussian":
        return rng.standard_normal(out=out)
    if base == "rademacher":
        out[...] = rng.integers(0, 2, out.shape)
        out *= 2.0
        out -= 1.0
        return out
    out[...] = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), out.shape)
    return out


def pair_entries(x: np.ndarray, alpha: float) -> np.ndarray:
    """Y = s1*X1 + i*s2*X2 over the rows of an (n, 2) float64 draw buffer, in place.

    Returns the scaled buffer viewed as n complex128 values.  The +0.0 keeps a
    zero s2*X2 (all of them at alpha = 1) at +0.0; the CSV prints the sign.
    """
    # column by column: a (2,) scale broadcast over the rows runs 2-element inner loops
    re, im = x[:, 0], x[:, 1]
    re *= math.sqrt((1.0 + alpha) / 2.0)
    im *= math.sqrt((1.0 - alpha) / 2.0)
    im += 0.0
    return x.view(np.complex128)[:, 0]


def sample_block(g: GroupSpec, cfg: EnsembleConfig, first: int, x: np.ndarray) -> np.ndarray:
    """Entry tables of trials first .. first + B - 1, made in the (B, N, 2) draw buffer x.

    Row k of x takes the full (N, 2) block of base draws of trial first + k's
    stream in element-index order, regardless of which entries end up used,
    so a table depends only on (group, cfg, trial), never on the batch it
    ran in or on iteration order.  One generator serves the call
    (`_streams`), and each row draws what `stream()` would.  `entry_tables`
    then makes the buffer the tables in place.
    """
    for row, rng in zip(x, _streams(cfg.seed, _ENTRY_STREAM, first, x.shape[0])):
        _fill_draws(rng, cfg.base, row)
    return entry_tables(g, cfg, x)


def entry_tables(g: GroupSpec, cfg: EnsembleConfig, x: np.ndarray) -> np.ndarray:
    """The entry tables of a filled (B, N, 2) draw buffer x, made in place and
    returned as its (B, N) complex128 view.

    Each row becomes `pair_entries` of its draws.  A Hermitian table then
    takes sqrt(beta)*X1, unscaled, at the involutions and conj(Y_a) at a^-1
    where a^-1 has the larger index.  Every entry is real-linear in the draws.
    """
    b, n = x.shape[0], g.size
    if cfg.hermitian:
        # the involutions {a : 2a = 0} are the indices of the real characters
        invol = real_character_mask(g)
        real = math.sqrt(cfg.beta) * x[:, invol, 0]
    values = pair_entries(x.reshape(b * n, 2), cfg.alpha).reshape(b, n)
    if cfg.hermitian:
        values[:, invol] = real
        mirrored, reps = inverse_pairs(g)
        values[:, mirrored] = np.conj(values[:, reps])
    return values


def sample_entries(g: GroupSpec, cfg: EnsembleConfig, trial: int = 0) -> GroupFunction:
    """Sample {Y_a} for one trial of the configured ensemble: a one-trial `sample_block`."""
    values = sample_block(g, cfg, trial, np.empty((1, g.size, 2)))[0]
    return GroupFunction(g, values, hermitian=cfg.hermitian, trial=trial)


def lindeberg_statistic(values: np.ndarray, epsilon: float) -> np.ndarray:
    """(1/N) * sum |Y_a|^2 over the entries with |Y_a| >= epsilon*sqrt(N), over the
    last axis of one (N,) entry table or of a (B, N) block of them, one per row
    (a float64 scalar for one table), as `spectra.spectral_norm`.

    The rows to sum are those whose max |Y_a|, `spectra.spectral_norm`, is not
    under the cut, so no |Y| array or mask of the block's size is made; a nan
    row is among them and sums to 0 unless it has an entry over the cut.
    Each is summed over the selected entries of its own |Y| row: a masked row
    sum rounds differently.  So each row has the bits of its one-table value.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    n = values.shape[-1]
    rows = values.reshape(-1, n)
    cut = epsilon * math.sqrt(n)
    stats = np.zeros(len(rows))
    for k in np.flatnonzero(~(spectral_norm(rows) < cut)):
        mags = np.abs(rows[k])
        stats[k] = np.sum(mags[mags >= cut] ** 2) / n
    return stats.reshape(values.shape[:-1])[()]
