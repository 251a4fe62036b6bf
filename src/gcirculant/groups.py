"""Finite abelian groups as products of cyclic groups, with their characters.

Elements and characters share the same encoding: a tuple of residues
(one per cyclic factor), or equivalently a row-major mixed-radix index
in [0, N).  The dual group is enumerated with the identical indexing,
which makes the transform in :mod:`gcirculant.fourier` a plain axis-wise
array operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_SIZE_CAP = 1 << 22


def _snap_phasor(numerator: int, denominator: int) -> complex:
    """exp(2*pi*i * numerator/denominator), exact on quarter turns."""
    numerator %= denominator
    if 4 * numerator % denominator == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[4 * numerator // denominator % 4]
    return complex(np.exp(2j * np.pi * (numerator / denominator)))


def phasor_array(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """Vectorized exp(2*pi*i * k/denominator) with quarter turns snapped exact.

    Builds the character columns and tables of the exact oracles
    (`fourier.dft_naive`, `spectra.eigen_residual`); the fast transform
    does not use it.  Exact +-1 and +-i entries keep the oracle's values
    of real characters exactly real.
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
class GroupSpec:
    """A finite abelian group presented as a product of cyclic groups."""

    orders: tuple[int, ...]

    @cached_property
    def size(self) -> int:
        return prod(self.orders)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        # row-major: last coordinate varies fastest
        strides = []
        s = 1
        for d in reversed(self.orders):
            strides.append(s)
            s *= d
        return tuple(reversed(strides))

    def index_of(self, coords: Sequence[int]) -> int:
        return sum(c % d * s for c, d, s in zip(coords, self.orders, self._strides))

    def coords_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"element index {index} out of range [0, {self.size})")
        coords = []
        for d in reversed(self.orders):
            index, c = divmod(index, d)
            coords.append(c)
        return tuple(reversed(coords))

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.orders) if self.orders else "1"


@dataclass(frozen=True)
class Element:
    """Group element as a tuple of residues, one per cyclic factor."""

    coords: tuple[int, ...]


@dataclass(frozen=True)
class Character:
    """Character chi_t with chi(a) = exp(2*pi*i * sum_j t_j a_j / d_j)."""

    coords: tuple[int, ...]


def make_group(orders: Iterable[int], *, size_cap: int = DEFAULT_SIZE_CAP) -> GroupSpec:
    """Validate cyclic orders and build a GroupSpec.

    Every order must be >= 2; an empty sequence gives the trivial group.
    Rejects groups larger than ``size_cap`` (default 2**22).
    """
    t = tuple(int(d) for d in orders)
    for d in t:
        if d < 2:
            raise ValueError(f"cyclic order must be >= 2, got {d}")
    n = prod(t)
    if n > size_cap:
        raise ValueError(f"group size {n} exceeds cap {size_cap}")
    return GroupSpec(t)


def parse_group_spec(text: str, *, size_cap: int = DEFAULT_SIZE_CAP) -> GroupSpec:
    """Parse a group spec string: comma-separated orders, '^' for repetition.

    "4,2,5" is Z4 x Z2 x Z5; "2^12" expands to twelve factors of 2;
    forms combine, e.g. "3,2^10".
    """
    orders: list[int] = []
    n = 1
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty factor in group spec {text!r}")
        if "^" in token:
            base_s, _, exp_s = token.partition("^")
            base, exp = int(base_s), int(exp_s)
            if exp < 1:
                raise ValueError(f"exponent must be >= 1 in {token!r}")
        else:
            base, exp = int(token), 1
        # bound the size before expanding, so "2^(10^20)" builds no list
        if base < 2:
            raise ValueError(f"cyclic order must be >= 2, got {base}")
        if exp > size_cap.bit_length() or (n := n * base**exp) > size_cap:
            raise ValueError(f"size of group {text!r} exceeds cap {size_cap}")
        orders.extend([base] * exp)
    return make_group(orders, size_cap=size_cap)


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
    return Element(g.coords_of(index))


def element_index(g: GroupSpec, a: Element) -> int:
    _check_coords(g, a.coords, "element")
    return g.index_of(a.coords)


def character(g: GroupSpec, coords: Sequence[int]) -> Character:
    t = tuple(int(c) for c in coords)
    _check_coords(g, t, "character")
    return Character(tuple(c % d for c, d in zip(t, g.orders)))


def character_from_index(g: GroupSpec, index: int) -> Character:
    return Character(g.coords_of(index))


def character_index(g: GroupSpec, chi: Character) -> int:
    _check_coords(g, chi.coords, "character")
    return g.index_of(chi.coords)


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


def involution_count(g: GroupSpec) -> int:
    """Number of a with a*a = identity: product of 2 per even factor."""
    return prod(2 if d % 2 == 0 else 1 for d in g.orders)


def involution_fraction(g: GroupSpec) -> Fraction:
    """Fraction of elements squaring to the identity, as an exact rational."""
    return Fraction(involution_count(g), g.size)


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


@lru_cache(maxsize=128)
def inverse_permutation(g: GroupSpec) -> np.ndarray:
    """Index array p with p[i] = index of the inverse of element i; read-only.

    Inversion negates each coordinate on its own, so p is built one axis at
    a time without the (N, k) coordinate matrix.
    """
    out = np.zeros(1, dtype=np.int64)
    for d in g.orders:
        neg = -np.arange(d, dtype=np.int64) % d
        out = (out[:, None] * d + neg).ravel()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def real_character_mask(g: GroupSpec) -> np.ndarray:
    """True at index t iff chi_t is real: 2t = 0, so inversion fixes t. Read-only."""
    out = inverse_permutation(g) == np.arange(g.size)
    out.setflags(write=False)
    return out


def _ravel_coords(g: GroupSpec, coords: np.ndarray) -> np.ndarray:
    strides = np.array(g._strides, dtype=np.int64)
    if coords.shape[-1] == 0:
        return np.zeros(coords.shape[:-1], dtype=np.int64)
    return coords @ strides


def _phase_numerators(g: GroupSpec, tcoords: Sequence[int], coords: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer phase numerators over the lcm denominator, reduced mod lcm."""
    lcm = 1
    for d in g.orders:
        lcm = lcm * d // gcd(lcm, d)
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
    lcm = 1
    for d in g.orders:
        lcm = lcm * d // gcd(lcm, d)
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
