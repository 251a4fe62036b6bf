"""Random entry families indexed by group elements.

Pair entries are Y = s1*X1 + i*s2*X2 with s1 = sqrt((1+alpha)/2),
s2 = sqrt((1-alpha)/2), which gives E|Y|^2 = 1 and E Y^2 = alpha exactly for
any standardized base distribution; `pair_entries` turns the draw buffer
into them in place.  Under the Hermitian constraint, involution entries are
real with variance beta and each {a, a^-1} pair carries one draw plus its
exact conjugate.  `sample_block` fills a (B, N, 2) draw buffer with the
tables of B consecutive trials, row k from trial first + k's own stream;
`sample_entries` is its one-trial case and returns a `groups.GroupFunction`
that carries its trial number.  `lindeberg_statistic` reduces one (N,) table
or a (B, N) block of them, one value per row.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .groups import GroupFunction, GroupSpec, inverse_pairs, real_character_mask

BASE_DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")

# stream purposes keep entry sampling and moment checks on disjoint substreams
_ENTRY_STREAM = 0
_MOMENT_STREAM = 1


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    """Counter-based substream for (seed, purpose, index); order-independent."""
    ss = np.random.SeedSequence((int(seed), int(purpose), int(index)))
    return np.random.Generator(np.random.Philox(ss))


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
    ran in or on iteration order.  The buffer becomes the tables in place,
    returned as its (B, N) complex128 view.  A Hermitian table then takes
    sqrt(beta)*X1, unscaled, at the involutions and conj(Y_a) at a^-1 where
    a^-1 has the larger index.
    """
    b, n = x.shape[0], g.size
    for k in range(b):
        _fill_draws(stream(cfg.seed, _ENTRY_STREAM, first + k), cfg.base, x[k])
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

    |Y| and the cut are formed for the whole block, but only rows with an entry
    over the cut are summed, each over its selected entries: a masked row sum
    rounds differently.  So each row has the bits of its one-table value.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    n = values.shape[-1]
    mags = np.abs(values).reshape(-1, n)
    big = mags >= epsilon * math.sqrt(n)
    stats = np.zeros(len(mags))
    for k in np.flatnonzero(big.any(axis=1)):
        stats[k] = np.sum(mags[k, big[k]] ** 2) / n
    return stats.reshape(values.shape[:-1])[()]
