"""Exact oracles: the tuple model of a group and its characters, and direct
computations from the definitions.

Elements and characters are tuples of residues, one per cyclic factor, and
character values come from exact `Fraction` phases, with quarter turns
snapped to exactly +-1 and +-i.  On top of that model sit the O(N^2)
transform `dft_naive`, the direct `convolve`, the dense G-circulant matrix
and its eigen-relation residual, subgroup closure and character
restrictions, and the spectrum's exact second moments (`exact_moments`).
Element indices and coordinates convert row-major through
`np.unravel_index` and `np.ravel_multi_index`.  Functions on the group are
`groups.GroupFunction`s, as on the run path; the transforms and `convolve`
reject non-finite values at their entry.  The tests and `selftest`, which
`gcirculant selftest` and the experiment's `selftest` check run on
SELFTEST_GROUPS, hold the index-encoded fast path to these; an experiment
without that check never imports this module.  The Monte Carlo helpers only
the tests use, `norm_ratio_curve` and `moment_check`, sit at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .ensembles import (
    _MOMENT_STREAM, EnsembleConfig, _fill_draws, entry_tables, pair_entries, sample_entries,
    stream,
)
from .fourier import get_plan
from .groups import (
    GroupFunction,
    GroupSpec,
    involution_count,
    inverse_permutation,
    parse_group_spec,
)
from .spectra import eigenvalue_block, eigenvalues, norm_ratio_stats, spectral_norm


def _snap_phasor(numerator: int, denominator: int) -> complex:
    """exp(2*pi*i * numerator/denominator), exact on quarter turns."""
    return complex(phasor_array(np.array([numerator]), denominator)[0])


def phasor_array(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """Vectorized exp(2*pi*i * k/denominator) with quarter turns snapped exact.

    Builds the character columns and tables of the exact oracles
    (`dft_naive`, `eigen_residual`); the fast transform does not use it.
    Exact +-1 and +-i entries keep the oracle's values of real characters
    exactly real.
    """
    nums = np.mod(numerators, denominator)
    out = np.exp(2j * np.pi * (nums / denominator))
    quarter, rem = divmod(denominator, 4)
    if rem == 0:
        exact = np.array([1, 1j, -1, -1j], dtype=np.complex128)
        q, r = np.divmod(nums, quarter)
        snap = r == 0
        out[snap] = exact[q[snap] % 4]
    else:
        half, rem2 = divmod(denominator, 2)
        out[nums == 0] = 1.0
        if rem2 == 0:
            out[nums == half] = -1.0
    return out


@dataclass(frozen=True)
class Element:
    """Group element as a tuple of residues, one per cyclic factor."""

    coords: tuple[int, ...]


@dataclass(frozen=True)
class Character:
    """Character chi_t with chi(a) = exp(2*pi*i * sum_j t_j a_j / d_j)."""

    coords: tuple[int, ...]


def identity(g: GroupSpec) -> Element:
    return Element((0,) * len(g.orders))


def _check_coords(g: GroupSpec, coords: tuple[int, ...], what: str) -> None:
    if len(coords) != len(g.orders):
        raise ValueError(
            f"{what} has {len(coords)} coordinates, group has {len(g.orders)} factors"
        )


def element(g: GroupSpec, coords: Sequence[int]) -> Element:
    """Element from (possibly unreduced) coordinates."""
    t = tuple(int(c) for c in coords)
    _check_coords(g, t, "element")
    return Element(tuple(c % d for c, d in zip(t, g.orders)))


def element_from_index(g: GroupSpec, index: int) -> Element:
    return Element(tuple(int(c) for c in np.unravel_index(index, g.orders)))


def element_index(g: GroupSpec, a: Element) -> int:
    _check_coords(g, a.coords, "element")
    return int(np.ravel_multi_index(a.coords, g.orders, mode="wrap"))


def character(g: GroupSpec, coords: Sequence[int]) -> Character:
    t = tuple(int(c) for c in coords)
    _check_coords(g, t, "character")
    return Character(tuple(c % d for c, d in zip(t, g.orders)))


def character_from_index(g: GroupSpec, index: int) -> Character:
    return Character(element_from_index(g, index).coords)


def character_index(g: GroupSpec, chi: Character) -> int:
    _check_coords(g, chi.coords, "character")
    return int(np.ravel_multi_index(chi.coords, g.orders, mode="wrap"))


@lru_cache(maxsize=128)
def coords_matrix(g: GroupSpec) -> np.ndarray:
    """(N, k) int64 array: row i holds the coordinates of element index i.

    Cached per group and returned read-only; callers must not mutate.
    """
    n, k = g.size, len(g.orders)
    out = np.empty((n, k), dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    for j in range(k - 1, -1, -1):
        idx, out[:, j] = np.divmod(idx, g.orders[j])
    out.setflags(write=False)
    return out


def elements(g: GroupSpec) -> Iterator[Element]:
    for i in range(g.size):
        yield element_from_index(g, i)


def characters(g: GroupSpec) -> Iterator[Character]:
    for i in range(g.size):
        yield character_from_index(g, i)


def mul(g: GroupSpec, a: Element, b: Element) -> Element:
    """Group law: componentwise sum modulo the cyclic orders."""
    _check_coords(g, a.coords, "element")
    _check_coords(g, b.coords, "element")
    return Element(tuple((x + y) % d for x, y, d in zip(a.coords, b.coords, g.orders)))


def inv(g: GroupSpec, a: Element) -> Element:
    """Group inverse: componentwise negation modulo the cyclic orders."""
    _check_coords(g, a.coords, "element")
    return Element(tuple(-x % d for x, d in zip(a.coords, g.orders)))


@lru_cache(maxsize=128)
def _involution_indices(g: GroupSpec) -> tuple[int, ...]:
    axes = [(0, d // 2) if d % 2 == 0 else (0,) for d in g.orders]
    idx = np.zeros(1, dtype=np.int64)
    for d, choices in zip(g.orders, axes):
        idx = (idx[:, None] * d + np.array(choices, dtype=np.int64)[None, :]).ravel()
    return tuple(sorted(int(i) for i in idx))


def involution_subgroup(g: GroupSpec) -> list[int]:
    """Sorted element indices of {a : a*a = identity}, enumerated per coordinate."""
    return list(_involution_indices(g))


def char_phase(g: GroupSpec, chi: Character, a: Element) -> Fraction:
    """Exact phase sum_j t_j a_j / d_j of chi(a), reduced modulo 1."""
    _check_coords(g, chi.coords, "character")
    _check_coords(g, a.coords, "element")
    phase = sum(
        (Fraction(t * x, d) for t, x, d in zip(chi.coords, a.coords, g.orders)),
        Fraction(0),
    )
    return phase % 1


def char_value(g: GroupSpec, chi: Character, a: Element) -> complex:
    """chi(a) = exp(2*pi*i * phase) with the rational phase reduced first."""
    phase = char_phase(g, chi, a)
    return _snap_phasor(phase.numerator, phase.denominator)


def is_real_character(g: GroupSpec, chi: Character) -> bool:
    """True iff chi takes only real values, i.e. 2*t_j = 0 mod d_j for all j."""
    _check_coords(g, chi.coords, "character")
    return all(2 * t % d == 0 for t, d in zip(chi.coords, g.orders))


def conjugate_character(g: GroupSpec, chi: Character) -> Character:
    _check_coords(g, chi.coords, "character")
    return Character(tuple(-t % d for t, d in zip(chi.coords, g.orders)))


def _phase_numerators(g: GroupSpec, tcoords: Sequence[int], coords: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer phase numerators over the lcm denominator, reduced mod lcm."""
    lcm = math.lcm(*g.orders)
    weights = np.array(
        [t * (lcm // d) for t, d in zip(tcoords, g.orders)], dtype=np.int64
    )
    if coords.shape[-1] == 0:
        nums = np.zeros(coords.shape[:-1], dtype=np.int64)
    else:
        nums = coords @ weights
    return np.mod(nums, lcm), lcm


def character_column(g: GroupSpec, chi: Character) -> np.ndarray:
    """chi evaluated on all elements, indexed by element index."""
    _check_coords(g, chi.coords, "character")
    nums, lcm = _phase_numerators(g, chi.coords, coords_matrix(g))
    return phasor_array(nums, lcm)


def character_table(g: GroupSpec, *, size_cap: int = 512) -> np.ndarray:
    """Full (N, N) table T[chi_index, element_index]; oracle scale only."""
    n = g.size
    if n > size_cap:
        raise ValueError(f"character table of size {n} exceeds cap {size_cap}")
    coords = coords_matrix(g)
    lcm = math.lcm(*g.orders)
    if len(g.orders) == 0:
        return np.ones((1, 1), dtype=np.complex128)
    weights = np.array([lcm // d for d in g.orders], dtype=np.int64)
    nums = np.mod((coords * weights) @ coords.T, lcm)
    return phasor_array(nums, lcm)


def subgroup_closure(
    g: GroupSpec, generators: Iterable[Element], *, size_cap: int | None = None
) -> list[int]:
    """Sorted element indices of the subgroup generated by the given elements."""
    cap = g.size if size_cap is None else size_cap
    gens = [element_index(g, a) for a in generators]
    seen = {0}
    frontier = [0]
    gen_elems = [element_from_index(g, i) for i in gens]
    while frontier:
        cur = frontier.pop()
        cur_elem = element_from_index(g, cur)
        for ge in gen_elems:
            nxt = element_index(g, mul(g, cur_elem, ge))
            if nxt not in seen:
                if len(seen) >= cap:
                    raise ValueError(f"subgroup closure exceeds size cap {cap}")
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


@dataclass(frozen=True)
class CharacterRestriction:
    """A character's values on a subgroup, recorded as exact phases.

    Equality of restrictions is exact (rational phase comparison), which
    is what extension-counting and covariance indicator tests need.
    """

    element_indices: tuple[int, ...]
    phases: tuple[Fraction, ...]

    @property
    def values(self) -> np.ndarray:
        return np.array(
            [_snap_phasor(p.numerator, p.denominator) for p in self.phases],
            dtype=np.complex128,
        )


def restriction_on(g: GroupSpec, chi: Character, indices: Sequence[int]) -> CharacterRestriction:
    """Restriction of chi to an explicit sorted list of element indices."""
    phases = tuple(
        char_phase(g, chi, element_from_index(g, i)) for i in indices
    )
    return CharacterRestriction(tuple(int(i) for i in indices), phases)


def restrict_character(
    g: GroupSpec, chi: Character, subgroup_gens: Iterable[Element]
) -> CharacterRestriction:
    """Restrict chi to the subgroup generated by the given elements."""
    indices = subgroup_closure(g, subgroup_gens)
    return restriction_on(g, chi, indices)


def restrict_to_involutions(g: GroupSpec, chi: Character) -> CharacterRestriction:
    """Restriction of chi to {a : a*a = identity} (directly enumerated)."""
    return restriction_on(g, chi, involution_subgroup(g))


def _finite(*fs: GroupFunction) -> None:
    """Raise ValueError if any value of the given functions is nan or infinite."""
    if not all(np.isfinite(f.values).all() for f in fs):
        raise ValueError("function values must be finite")


def dft_naive(f: GroupFunction) -> GroupFunction:
    """O(N^2) transform straight from the definition; the correctness oracle."""
    _finite(f)
    g = f.group
    out = np.empty(g.size, dtype=np.complex128)
    for t in range(g.size):
        chi = character_column(g, character_from_index(g, t))
        out[t] = np.dot(chi, f.values)
    return GroupFunction(g, out)


def fft_fast(f: GroupFunction) -> GroupFunction:
    """Fast axis-wise transform of a copy of f; agrees with dft_naive to rounding error."""
    _finite(f)
    return GroupFunction(f.group, get_plan(f.group).forward(f.values.copy()))


def inverse_fft(fhat: GroupFunction) -> GroupFunction:
    """Inverse transform of a conjugated copy: inverse_fft(fft_fast(f)) recovers f."""
    _finite(fhat)
    g = fhat.group
    return GroupFunction(g, np.conj(get_plan(g).forward(np.conj(fhat.values))) / g.size)


@lru_cache(maxsize=8)
def _difference_table(g: GroupSpec) -> np.ndarray:
    """(N, N) int64 table of index(a * b^-1); cached, read-only."""
    diff = tuple(c[:, None] - c[None, :] for c in coords_matrix(g).T)
    # the trivial group has no coordinates, which ravel to a scalar 0
    out = np.reshape(np.ravel_multi_index(diff, g.orders, mode="wrap"), (g.size, g.size))
    out.setflags(write=False)
    return out


def convolve(f: GroupFunction, h: GroupFunction) -> GroupFunction:
    """(f * h)(a) = sum_b f(a b^-1) h(b), computed directly for oracle use."""
    if f.group != h.group:
        raise ValueError("convolution operands must live on the same group")
    _finite(f, h)
    g = f.group
    table = _difference_table(g)
    out = f.values[table] @ h.values
    return GroupFunction(g, out)


DENSE_SIZE_CAP = 512


def dense_matrix(t: GroupFunction, *, size_cap: int = DENSE_SIZE_CAP) -> np.ndarray:
    """M[a, b] = Y(a b^-1)/sqrt(N); oracle scale only."""
    n = t.group.size
    if n > size_cap:
        raise ValueError(f"dense matrix of size {n} exceeds cap {size_cap}")
    table = _difference_table(t.group)
    return t.values[table] / math.sqrt(n)


def eigen_residual(t: GroupFunction, *, size_cap: int = DENSE_SIZE_CAP) -> float:
    """max over chi of ||M conj(chi) - lambda_chi conj(chi)|| / sqrt(N).

    Checks, by dense matrix-vector products, that the fast-path values are
    the eigenvalues with the conjugate characters as eigenvectors.
    """
    n = t.group.size
    if n > size_cap:
        raise ValueError(f"eigen residual of size {n} exceeds cap {size_cap}")
    m = dense_matrix(t, size_cap=size_cap)
    lam = eigenvalues(t).values
    chi_rows = character_table(t.group, size_cap=size_cap)
    vecs = np.conj(chi_rows).T  # column chi: conj character as a vector
    residual = m @ vecs - vecs * lam[None, :]
    return float(np.max(np.linalg.norm(residual, axis=0)) / math.sqrt(n))


def exact_moments(g: GroupSpec, cfg: EnsembleConfig) -> tuple[np.ndarray, ...]:
    """The exact second moments of the run path's spectrum on g, as (N, N) arrays:
    `(E lambda lambda^T,)` for a Hermitian ensemble, `(E Re Re^T, E Im Im^T,
    E Re Im^T)` otherwise.

    The entries are real-linear in the 2N base draws, and so is the spectrum:
    lambda = A x.  Running the 2N unit draw vectors through `entry_tables`
    and `eigenvalue_block` gives Lambda, whose row k is column k of A.  For
    independent draws of mean 0 and variance 1, whatever the base,
    E Re_i Re_j = (Re Lambda^T Re Lambda)_ij, and likewise for the others.
    """
    n = g.size
    tables = entry_tables(g, cfg, np.eye(2 * n).reshape(2 * n, n, 2))
    lam = eigenvalue_block(g, tables, cfg.hermitian)
    re, im = lam.real, lam.imag
    if cfg.hermitian:
        return (re.T @ re,)
    return re.T @ re, im.T @ im, re.T @ im


SELFTEST_GROUPS = ("12", "8,3", "2^6", "4,2,5", "2^4,3")


def selftest(group_specs: tuple[str, ...] = SELFTEST_GROUPS) -> tuple[bool, list[str]]:
    """Exact-count and transform-oracle checks on the built-in group suite."""
    lines: list[str] = []
    ok = True

    def record(passed: bool, label: str) -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {label}")

    rng = np.random.default_rng(20260810)
    for text in group_specs:
        g = parse_group_spec(text)
        n = g.size

        invol_enum = int(np.sum(inverse_permutation(g) == np.arange(n)))
        real_chars = sum(is_real_character(g, character_from_index(g, i)) for i in range(n))
        record(
            invol_enum == real_chars == involution_count(g),
            f"involution/real-character count [{text}]: {invol_enum}",
        )

        a = involution_subgroup(g)
        seen: dict = {}
        for i in range(n):
            key = restrict_to_involutions(g, character_from_index(g, i)).phases
            seen[key] = seen.get(key, 0) + 1
        expected = n // len(a)
        record(
            len(seen) == len(a) and all(v == expected for v in seen.values()),
            f"character extension counts [{text}]: {len(a)} x {expected}",
        )

        worst = 0.0
        parseval = 0.0
        roundtrip = 0.0
        for _ in range(5):
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f = GroupFunction(g, vals)
            fast = fft_fast(f)
            naive = dft_naive(f)
            worst = max(worst, float(np.max(np.abs(fast.values - naive.values))))
            norm_f = float(np.sum(np.abs(vals) ** 2))
            norm_fast = float(np.sum(np.abs(fast.values) ** 2))
            parseval = max(parseval, abs(norm_fast - n * norm_f) / (n * norm_f))
            back = inverse_fft(fast)
            roundtrip = max(roundtrip, float(np.max(np.abs(back.values - vals))))
        record(worst < 1e-9, f"transform oracle [{text}]: max dev {worst:.2e}")
        record(parseval < 1e-9, f"parseval [{text}]: rel dev {parseval:.2e}")
        record(roundtrip < 1e-9, f"inverse round-trip [{text}]: max dev {roundtrip:.2e}")

        f1 = GroupFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        f2 = GroupFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        conv = fft_fast(convolve(f1, f2))
        prod = fft_fast(f1).values * fft_fast(f2).values
        dev = float(np.max(np.abs(conv.values - prod)))
        record(dev < 1e-9 * max(1.0, float(np.max(np.abs(prod)))),
               f"convolution theorem [{text}]: max dev {dev:.2e}")

    return ok, lines


@dataclass
class NormRatioPoint:
    """Monte Carlo mean of ||M|| / sqrt(ln N) for one group."""

    group: str
    size: int
    trials: int
    mean_ratio: float
    stderr: float


def norm_ratio_curve(
    cfg: EnsembleConfig, groups: Sequence[GroupSpec], trials: int
) -> list[NormRatioPoint]:
    """Ratio E||M||/sqrt(ln N) per group; bounded in N by the norm estimates."""
    if trials < 10:
        raise ValueError(f"trials must be >= 10, got {trials}")
    points = []
    for g in groups:
        norms = [
            spectral_norm(eigenvalues(sample_entries(g, cfg, t)).values) for t in range(trials)
        ]
        mean, stderr = norm_ratio_stats(g, norms)
        points.append(NormRatioPoint(str(g), g.size, trials, mean, stderr))
    return points


@dataclass
class MomentReport:
    """Empirical entry moments with standard errors, against (0, 1, alpha, beta)."""

    trials: int
    mean: complex
    mean_se: float
    abs_square_mean: float
    abs_square_se: float
    square_mean: complex
    square_se: float
    involution_square_mean: float | None = None
    involution_square_se: float | None = None


def moment_check(cfg: EnsembleConfig, trials: int) -> MomentReport:
    """Monte Carlo estimates of E Y, E|Y|^2, E Y^2 over scalar pair-entry draws.

    For Hermitian configs the involution entry's second moment (target beta)
    is estimated as well.
    """
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    rng = stream(cfg.seed, _MOMENT_STREAM, 0)
    y = pair_entries(_fill_draws(rng, cfg.base, np.empty((trials, 2))), cfg.alpha)

    def _se(values: np.ndarray) -> float:
        return float(np.std(values) / math.sqrt(trials))

    report = MomentReport(
        trials=trials,
        mean=complex(np.mean(y)),
        mean_se=max(_se(y.real), _se(y.imag)),
        abs_square_mean=float(np.mean(np.abs(y) ** 2)),
        abs_square_se=_se(np.abs(y) ** 2),
        square_mean=complex(np.mean(y**2)),
        square_se=max(_se((y**2).real), _se((y**2).imag)),
    )
    if cfg.hermitian:
        z = math.sqrt(cfg.beta) * _fill_draws(rng, cfg.base, np.empty(trials))
        report.involution_square_mean = float(np.mean(z**2))
        report.involution_square_se = _se(z**2)
    return report
