"""Limiting spectral laws and distances from empirical spectra to them.

Limits are one- or two-component Gaussian mixtures, on the real line for
Hermitian ensembles and on the plane (with diagonal covariances) otherwise.
Weak convergence is measured by marginal Kolmogorov-Smirnov distances plus
a real/imaginary correlation diagnostic; degenerate N(0, 0) components are
point masses at 0 and the KS statistic accounts for their jumps exactly.

KS statistics run on blocks: `ks_block` overwrites a (T, N) block of trial
spectra with the CDF values of its sorted rows, reads the per-trial
statistics off them and the pooled one off their flat in-place sort, in
the chunks of `spectra._chunks`, so no temporary is of the block's size.  A
marginal is given by its mixture's (weights, variances); its CDF is one
`np.interp` pass over a table built once per law (`_cdf_table`), within
8.2e-9 of the exact CDF and non-decreasing, which also holds its mass at 0.
`predicted_pair_moments` gives the covariance predictions for all character
pairs as (N, N) arrays; the tests hold them to the exact second moments of
the run path, `oracle.exact_moments`.  `character_relation`,
`empirical_eigen_covariance` (over a sequence of `groups.GroupFunction`
spectra) and `predicted_pair_moment` are the scalar, one-pair-at-a-time
forms; the tests hold the block computations to them.  A single
eigenvalue's second moments are the pair moment of a character with itself.
`character_relation` works on the exact tuple model of
:mod:`gcirculant.oracle`, which it imports only when called.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import spectra
from .ensembles import EnsembleConfig
from .groups import GroupFunction, GroupSpec, axes, involution_fraction, inverse_permutation

if TYPE_CHECKING:
    from .oracle import Character


def _add_density(x: np.ndarray, comps, scale: float, out: np.ndarray, work: np.ndarray) -> None:
    """out += scale * (sum over (w, sigma) in comps of w * N(0, sigma^2)'s density at x)."""
    for w, s in comps:
        np.divide(x, s, out=work)
        np.square(work, out=work)
        work *= -0.5
        np.exp(work, out=work)
        work *= scale * w / (s * math.sqrt(2.0 * math.pi))
        out += work


@functools.lru_cache(maxsize=8)
def _cdf_table(weights: tuple[float, ...], variances: tuple[float, ...]):
    """(grid, values, atom): the mixture CDF is interp(x, grid, values) + atom * (x >= 0).

    The grid is the sorted union of sigma_k * u over the Gaussian components,
    with u uniform on [-8.5, 8.5] in 2^15 steps of h = 17 / 2^15 = 5.2e-4.
    So within 8.5 sigma_k of 0 its spacing is at most h * sigma_k, however
    small sigma_k is against the other components, and beyond 8.5 sigma_k
    component k has less than 1e-17 of its mass on either side.  The values are
    the cumulative Simpson integral of the Gaussian part's density f: the
    interval [a, b] adds (b - a) / 6 * (f(a) + 4 f((a + b) / 2) + f(b)) >= 0,
    so the table is non-decreasing by construction.  It is capped at
    1 - atom, the Gaussian part's mass, so the CDF stays in [0, 1].

    Error bound: linear interpolation of Phi(x / sigma) at spacing h * sigma
    is off by at most h^2 * max|Phi''| / 8 = h^2 * phi(1) / 8 = 8.2e-9, for
    each component and so for the mixture.  The Simpson sums, the rounding
    of the cumulative sum and the tails beyond 8.5 sigma add under 1e-11.
    The zero-variance components' mass `atom` is an exact step at 0.

    Every evaluation of the law shares the cached arrays, so nothing may
    write to them.  They are not flagged read-only, because np.interp
    copies read-only arrays on every call.
    """
    atom = sum(w for w, v in zip(weights, variances) if v == 0.0)
    comps = [(w, math.sqrt(v)) for w, v in zip(weights, variances) if v > 0.0 and w > 0.0]
    if not comps:  # a point mass only
        grid = values = np.zeros(1)
    else:
        u = np.linspace(-8.5, 8.5, 2**15 + 1)
        grid = np.multiply.outer(sorted({s for _, s in comps}), u).ravel()
        grid.sort()
        values, dens, work = np.zeros(grid.size), np.zeros(grid.size), np.empty(grid.size)
        inc = values[1:]  # Simpson increment of each interval
        _add_density(grid, comps, 1.0, dens, work)
        np.add(dens[:-1], dens[1:], out=inc)
        mid = dens[:-1]  # the edge densities are summed; reuse their buffer
        np.add(grid[:-1], grid[1:], out=mid)
        mid *= 0.5
        _add_density(mid, comps, 4.0, inc, work[:-1])
        np.subtract(grid[1:], grid[:-1], out=work[:-1])
        work /= 6.0
        inc *= work[:-1]
        np.cumsum(values, out=values)
        np.minimum(values, 1.0 - atom, out=values)
    return grid, values, atom


def _mixture_cdf(x, weights, variances):
    """Mixture CDF at every point of x, by one np.interp pass over _cdf_table.

    Component k contributes w_k * Phi(x / sqrt(v_k)), or w_k * (x >= 0) when
    v_k is 0; the result is within 8.2e-9 of the exact CDF and non-decreasing
    in x.  A scalar or 0-d x gives a numpy float, any other x an array of its
    shape.
    """
    grid, values, atom = _cdf_table(tuple(weights), tuple(variances))
    x = np.asarray(x, dtype=np.float64)
    out = np.interp(x, grid, values)
    if atom:
        out += atom * (x >= 0.0)
    return out


@dataclass(frozen=True)
class LimitLaw:
    """Gaussian mixture limit; "real" lives on the line, "complex" on the plane.

    Components are stored as weights plus per-component variances of the
    real and imaginary parts (imaginary variances are all 0 for real kind).
    """

    kind: str
    weights: tuple[float, ...]
    re_variances: tuple[float, ...]
    im_variances: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("real", "complex"):
            raise ValueError(f"kind must be 'real' or 'complex', got {self.kind!r}")
        if not self.weights:
            raise ValueError("mixture needs at least one component")
        if len({len(self.weights), len(self.re_variances), len(self.im_variances)}) != 1:
            raise ValueError("component sequences must have equal length")
        if any(w < 0 or w > 1 for w in self.weights):
            raise ValueError(f"weights must lie in [0, 1], got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")
        if any(v < 0 for v in self.re_variances + self.im_variances):
            raise ValueError("variances must be >= 0")
        if self.kind == "real" and any(v != 0.0 for v in self.im_variances):
            raise ValueError("real-kind law must put no mass off the real axis")

    def cdf_real(self, x):
        """Marginal CDF of the real part (the full CDF for real kind)."""
        return _mixture_cdf(x, self.weights, self.re_variances)

    def cdf_imag(self, x):
        return _mixture_cdf(x, self.weights, self.im_variances)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "weights": list(self.weights),
            "re_variances": list(self.re_variances),
            "im_variances": list(self.im_variances),
        }


def _normalized(kind: str, comps: list[tuple[float, float, float]]) -> LimitLaw:
    """Drop zero-weight components, merge identical ones, sort by variance."""
    merged: dict[tuple[float, float], float] = {}
    for w, rv, iv in comps:
        if w == 0.0:
            continue
        merged[(rv, iv)] = merged.get((rv, iv), 0.0) + w
    if not merged:
        raise ValueError("mixture has no mass")
    items = sorted(merged.items())
    return LimitLaw(
        kind,
        weights=tuple(w for _, w in items),
        re_variances=tuple(rv for (rv, _), _ in items),
        im_variances=tuple(iv for (_, iv), _ in items),
    )


def real_mixture(components: Sequence[tuple[float, float]]) -> LimitLaw:
    """Mixture of N(0, v) on the line from (weight, variance) pairs."""
    return _normalized("real", [(w, v, 0.0) for w, v in components])


def complex_mixture(components: Sequence[tuple[float, float]]) -> LimitLaw:
    """Mixture over (weight, alpha): covariance diag((1+alpha)/2, (1-alpha)/2)."""
    return _normalized(
        "complex", [(w, (1.0 + a) / 2.0, (1.0 - a) / 2.0) for w, a in components]
    )


def limit_for(cfg: EnsembleConfig, p: Fraction | float) -> LimitLaw:
    """Limiting spectral law for an ensemble whose involution fraction tends to p.

    Non-Hermitian: (1-p) x standard complex Gaussian + p x the correlated
    complex Gaussian with parameter alpha.  Hermitian: the two-component
    real mixture with variances 1 + p*(beta-alpha-1) and
    1 + alpha + p*(beta-alpha-1), collapsing to N(0, beta) at p = 1.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    pf = float(p)
    if not cfg.hermitian:
        return complex_mixture([(1.0 - pf, 0.0), (pf, cfg.alpha)])
    if 0.5 < pf < 1.0:
        raise ValueError(
            f"hermitian limit rejects p = {p}: the involution fraction is the "
            "reciprocal of an integer, so p in (1/2, 1) cannot occur"
        )
    if pf == 1.0:
        return real_mixture([(1.0, cfg.beta)])
    shift = pf * (cfg.beta - cfg.alpha - 1.0)
    comps = [(1.0 - pf, 1.0 + shift), (pf, 1.0 + cfg.alpha + shift)]
    for _, v in comps:
        if v <= 0:
            raise ValueError(f"nonpositive mixture variance {v}; invalid parameters")
    return real_mixture(comps)


def predicted_pair_moment(
    *,
    same: bool,
    conjugate: bool,
    same_on_involutions: bool,
    alpha: float,
    beta: float,
    p2: Fraction | float,
    hermitian: bool,
):
    """Cross second moments of a pair of eigenvalues.

    Hermitian: the scalar E lambda1*lambda2 =
    [chi1=chi2] + alpha*[chi1=conj(chi2)] + p2*(beta-alpha-1)*[restrictions
    to the involution subgroup agree].  Non-Hermitian: the 2x2 block
    E[(Re1, Im1)^T (Re2, Im2)] = (1/2)*diag(s + alpha*c, s - alpha*c).
    A character paired with itself (same, conjugate iff it is real, same on
    the involutions) gives the second moments of its one eigenvalue.
    """
    s = 1.0 if same else 0.0
    c = 1.0 if conjugate else 0.0
    if hermitian:
        a = 1.0 if same_on_involutions else 0.0
        return s + alpha * c + float(p2) * (beta - alpha - 1.0) * a
    return np.diag([(s + alpha * c) / 2.0, (s - alpha * c) / 2.0])


def predicted_pair_moments(g: GroupSpec, cfg: EnsembleConfig) -> tuple[np.ndarray, ...]:
    """`predicted_pair_moment` for every pair of characters, as (N, N) arrays.

    Entry (i, j) is the moment of the characters with indices i and j:
    `(E lambda_i lambda_j,)` for a Hermitian ensemble, `(E Re_i Re_j,
    E Im_i Im_j)` otherwise (E Re_i Im_j is 0).  chi_j is the conjugate of
    chi_i when inversion maps index j to i.  An involution has a_k in
    {0, d_k/2} on each even factor and 0 elsewhere, so chi_t restricted to the
    involutions is fixed by the parities t_k mod 2 on the even factors; the
    restrictions agree exactly when those parity keys do.
    """
    idx = np.arange(g.size)
    same = idx[:, None] == idx[None, :]
    conjugate = inverse_permutation(g)[None, :] == idx[:, None]
    if not cfg.hermitian:
        return (same + cfg.alpha * conjugate) / 2.0, (same - cfg.alpha * conjugate) / 2.0
    key = np.zeros(1, dtype=np.int64)
    for d, two in axes(g):
        # the parities on an axis: every coordinate bit of an order-2 axis,
        # c mod 2 of another even factor, none of an odd one
        m = d if two else 2 - d % 2
        key = np.add.outer(key * m, np.arange(d) % m).ravel()
    shift = float(involution_fraction(g)) * (cfg.beta - cfg.alpha - 1.0)
    return (same + cfg.alpha * conjugate + shift * (key[:, None] == key[None, :]),)


@dataclass(frozen=True)
class CharacterPairFlags:
    chi1_real: bool
    chi2_real: bool
    same: bool
    conjugate: bool
    same_on_involutions: bool


def character_relation(g: GroupSpec, chi1: Character, chi2: Character) -> CharacterPairFlags:
    """The indicator flags the covariance predictions depend on."""
    # imported here so that the run path, which uses predicted_pair_moments, never loads the oracle
    from .oracle import conjugate_character, is_real_character, restrict_to_involutions

    return CharacterPairFlags(
        chi1_real=is_real_character(g, chi1),
        chi2_real=is_real_character(g, chi2),
        same=chi1.coords == chi2.coords,
        conjugate=conjugate_character(g, chi2).coords == chi1.coords,
        same_on_involutions=(
            restrict_to_involutions(g, chi1) == restrict_to_involutions(g, chi2)
        ),
    )


def _ks_sorted(f: np.ndarray, atom: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """KS distance of each row of sorted CDF values f (last axis) to a law on the line.

    The textbook max_i max(i/n - f_i, f_i - (i-1)/n), i from 1 (Marsaglia,
    Tsang & Wang, J. Stat. Softw. 2003), with the left limit f_i - atom (the
    law's mass at 0) in the second term on each row's zero run [lo, hi).  For
    a non-decreasing CDF it equals the tie-aware form bit for bit: f is
    constant on a tie run, and a term of the other sign is at most one of
    this sign with the same f, except at the first zero, whose term
    (i-1)/n - (f_i - atom) is added.
    """
    n = f.shape[-1]
    f2 = f.reshape(-1, n)
    d = np.zeros(f2.shape[0])
    r = np.flatnonzero(lo < hi)  # rows with a zero: the tie-aware term at the first one
    d[r] = np.maximum(0.0, (lo[r] / n - f2[r, lo[r]]) + atom)
    for rows, cols in spectra._chunks(*f2.shape):
        fs, dm = f2[rows, cols], d[rows]
        steps = np.arange(cols.start, cols.stop + 1) / n
        dev = steps[1:] - fs  # upper ECDF - f
        np.maximum(dm, dev.max(axis=-1), out=dm)
        np.subtract(fs, steps[:-1], out=dev)  # f - lower ECDF
        if atom:  # f - atom on the zero runs; c/n rises strictly with c, so steps order as c
            z = (steps[:-1] >= lo[rows, None] / n) & (steps[:-1] < hi[rows, None] / n)
            np.subtract(dev, atom, out=dev, where=z)
        np.maximum(dm, dev.max(axis=-1), out=dm)
        del steps, dev  # before the next chunk's are made
    return d.reshape(f.shape[:-1])


def _ks_sample(samples, weights, variances) -> float:
    return ks_block(np.array(samples, dtype=np.float64).reshape(1, -1), weights, variances)[1]


def ks_block(block: np.ndarray, weights, variances) -> tuple[np.ndarray, float]:
    """Per-row and pooled KS distances of a (T, n) sample block to one marginal.

    The marginal is the mixture of N(0, v_k) with weights w_k; its mass at 0,
    the weight of its zero-variance components, is read from the CDF's table.
    The caller's block is overwritten, so whatever reads it as samples must
    run first: its sorted rows are replaced chunk by chunk by their CDF
    values, and as the CDF is non-decreasing, their flat in-place sort is the
    CDF of the pooled sorted sample.
    """
    if block.ndim != 2 or block.size == 0 or not block.flags.c_contiguous:
        raise ValueError(f"expected a non-empty C-contiguous (T, n) block, got {block.shape}")
    atom = _cdf_table(tuple(weights), tuple(variances))[2]
    block.sort(axis=1)
    lo, hi = np.zeros((2, block.shape[0]), dtype=np.intp)
    for rows, cols in spectra._chunks(*block.shape):
        xs = block[rows, cols]
        if atom:  # each row's zero run [lo, hi), counted before its values are replaced
            lo[rows] += np.count_nonzero(xs < 0.0, axis=1)
            hi[rows] += np.count_nonzero(xs <= 0.0, axis=1)
        # on sorted points: np.interp measured 4x slower on unsorted ones
        xs[...] = _mixture_cdf(xs, weights, variances)
    per_row = _ks_sorted(block, atom, lo, hi)
    flat = block.reshape(-1)
    flat.sort()
    return per_row, float(_ks_sorted(flat, atom, lo.sum(keepdims=True), hi.sum(keepdims=True)))


def ks_distance_real(samples, law: LimitLaw) -> float:
    """sup-distance between the empirical CDF and the law's CDF on the line."""
    if law.kind != "real":
        raise ValueError("ks_distance_real needs a real-kind law")
    return _ks_sample(samples, law.weights, law.re_variances)


@dataclass
class ComplexDistanceReport:
    """Marginal KS distances plus the |correlation| of (Re, Im)."""

    ks_re: float
    ks_im: float
    corr_re_im: float


def distance_complex(samples, law: LimitLaw) -> ComplexDistanceReport:
    """Marginal distances of complex samples to a plane law.

    The limit laws here all have diagonal covariances, so the empirical
    Re/Im correlation should vanish along with the marginal distances.
    """
    if law.kind != "complex":
        raise ValueError("distance_complex needs a complex-kind law")
    z = np.asarray(samples, dtype=np.complex128)
    if z.size == 0:
        raise ValueError("empty sample")
    return ComplexDistanceReport(
        ks_re=_ks_sample(z.real, law.weights, law.re_variances),
        ks_im=_ks_sample(z.imag, law.weights, law.im_variances),
        corr_re_im=re_im_correlation(z.real, z.imag),
    )


def re_im_correlation(re: np.ndarray, im: np.ndarray) -> float:
    """|Pearson correlation| of paired real and imaginary parts (0 if either is constant)."""
    # tested on the data: the centered copy of a constant is the rounding
    # error of its mean, which need not be 0
    if re.min() == re.max() or im.min() == im.max():
        return 0.0
    # centered sums over flat chunks, as one row: no centered copy of the block
    re, im = re.reshape(-1), im.reshape(-1)
    mr, mi = re.mean(), im.mean()
    srr = sii = sri = 0.0
    for _, cols in spectra._chunks(1, re.size):
        cr, ci = re[cols] - mr, im[cols] - mi
        srr, sii, sri = srr + np.vdot(cr, cr), sii + np.vdot(ci, ci), sri + np.vdot(cr, ci)
        del cr, ci  # before the next chunk's are made
    if srr == 0.0 or sii == 0.0:  # deviations that underflow when squared
        return 0.0
    return float(abs(sri) / (math.sqrt(srr) * math.sqrt(sii)))


@dataclass
class CovarianceEstimate:
    """Monte Carlo second-moment estimate with entrywise standard errors."""

    estimate: np.ndarray | float
    stderr: np.ndarray | float
    trials: int


def empirical_eigen_covariance(
    spectra: Sequence[GroupFunction], chi1_index: int, chi2_index: int
) -> CovarianceEstimate:
    """Estimate eigenvalue second moments across independent trials.

    Hermitian spectra give the scalar E lambda1*lambda2; non-Hermitian give
    the 2x2 matrix of E[(Re1, Im1)^T (Re2, Im2)].
    """
    if len(spectra) < 1000:
        raise ValueError(f"need >= 1000 spectra, got {len(spectra)}")
    a1 = np.array([s.values[chi1_index] for s in spectra])
    a2 = np.array([s.values[chi2_index] for s in spectra])
    t = len(spectra)
    if all(s.hermitian for s in spectra):
        prod = a1.real * a2.real
        return CovarianceEstimate(
            estimate=float(prod.mean()),
            stderr=float(prod.std(ddof=1) / math.sqrt(t)),
            trials=t,
        )
    comps1 = (a1.real, a1.imag)
    comps2 = (a2.real, a2.imag)
    est = np.empty((2, 2))
    se = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            prod = comps1[i] * comps2[j]
            est[i, j] = prod.mean()
            se[i, j] = prod.std(ddof=1) / math.sqrt(t)
    return CovarianceEstimate(estimate=est, stderr=se, trials=t)
