"""Finite abelian groups as products of cyclic groups, in index encoding.

An element is a row-major mixed-radix index in [0, N) over its residues,
one per cyclic factor.  The dual group is enumerated with the identical
indexing, which makes the transform in :mod:`gcirculant.fourier` a plain
axis-wise array operation.  `GroupFunction` is a complex function on a
group, or on its dual in the same indexing: an entry table and a spectrum
are both one.  The tuple model of elements and characters, with exact
`Fraction` phases, is the oracle in :mod:`gcirculant.oracle`.

The order-2 structure the limit laws and the Hermitian sampler depend on
(the involution count, the inverse permutation, its pairs and the
real-character mask) comes as whole read-only arrays.  The pairs and the mask
are cached per group; the inverse permutation is built per call, as each of
its callers (the covariance check's predictions, the selftest) reads it
once, so no 8*N-byte table outlives its use.
`axes` merges each run of consecutive order-2 factors into one axis of
length 2^m, on which inversion is the identity and every character is real;
the transform's Hadamard steps and the limits' involution-parity key read
the same axes.  The inverse permutation and the mask are built axis by axis
with one outer operation per further axis, so a table peaks at no more than
1.5 times its own bytes (the last outer product plus its input), and a
single cyclic factor or a single order-2 run is one allocation and one pass.
The mask never reads the inverse permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
import itertools
from math import prod
from typing import Iterable, Iterator

import numpy as np

SIZE_CAP = 1 << 22


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group presented as a product of cyclic groups."""

    orders: tuple[int, ...]

    @cached_property
    def size(self) -> int:
        return prod(self.orders)

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.orders) if self.orders else "1"


@dataclass
class GroupFunction:
    """A complex function on a group or on its dual, indexed by element index.

    An entry table {Y_a} and its spectrum {lambda_chi} are both one.
    `hermitian` marks a table with Y(a^-1) = conj(Y(a)), and the spectrum of
    one, whose imaginary parts `spectra.eigenvalues` sets to exactly +0.0.
    `trial` is the trial that sampled it, if any.  Values are not checked
    for finiteness here, which keeps that pass off the per-trial run path;
    the oracle transforms check at their entry.
    """

    group: GroupSpec
    values: np.ndarray
    hermitian: bool = False
    trial: int | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.group.size,):
            raise ValueError(
                f"expected {self.group.size} values, got shape {self.values.shape}"
            )


def make_group(orders: Iterable[int]) -> GroupSpec:
    """Validate cyclic orders and build a GroupSpec.

    Every order must be >= 2; an empty sequence gives the trivial group.
    Rejects groups larger than SIZE_CAP.
    """
    t = tuple(int(d) for d in orders)
    for d in t:
        if d < 2:
            raise ValueError(f"cyclic order must be >= 2, got {d}")
    n = prod(t)
    if n > SIZE_CAP:
        raise ValueError(f"group size {n} exceeds cap {SIZE_CAP}")
    return GroupSpec(t)


def parse_group_spec(text: str) -> GroupSpec:
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
        base_s, caret, exp_s = token.partition("^")
        try:
            base, exp = int(base_s), int(exp_s) if caret else 1
        except ValueError:
            raise ValueError(f"factor {token!r} of group spec {text!r} is not an integer") from None
        if exp < 1:
            raise ValueError(f"exponent must be >= 1 in {token!r}")
        # bound the size before expanding, so "2^(10^20)" builds no list
        if base < 2:
            raise ValueError(f"cyclic order must be >= 2, got {base}")
        if exp > SIZE_CAP.bit_length() or (n := n * base**exp) > SIZE_CAP:
            raise ValueError(f"size of group {text!r} exceeds cap {SIZE_CAP}")
        orders.extend([base] * exp)
    return make_group(orders)


def involution_count(g: GroupSpec) -> int:
    """Number of a with a*a = identity: product of 2 per even factor."""
    return prod(2 if d % 2 == 0 else 1 for d in g.orders)


def involution_fraction(g: GroupSpec) -> Fraction:
    """Fraction of elements squaring to the identity, as an exact rational."""
    return Fraction(involution_count(g), g.size)


def axes(g: GroupSpec) -> Iterator[tuple[int, bool]]:
    """(length, two) for each axis of g, in factor order.

    Each run of m consecutive order-2 factors is one axis of length 2^m with
    two = True: inversion is the identity on it and all its characters are
    real.  Every other factor is its own axis, with two = False.
    """
    for two, run in itertools.groupby(g.orders, key=lambda d: d == 2):
        if two:
            yield 1 << len(list(run)), True
        else:
            yield from ((d, False) for d in run)


def inverse_permutation(g: GroupSpec) -> np.ndarray:
    """Index array p with p[i] = index of the inverse of element i; read-only,
    built per call.

    Inversion negates each coordinate on its own: c -> [0, d-1, ..., 1][c] on
    an axis of length d, and c -> c on an order-2 axis.  The first axis's
    table is the start; each further axis scales the table by its length in
    place and adds its own with one np.add.outer.
    """
    out = np.zeros(1, dtype=np.int64)
    for k, (d, two) in enumerate(axes(g)):
        neg = np.arange(d, dtype=np.int64) if two else np.arange(d, 0, -1, dtype=np.int64)
        neg[0] = 0
        if k == 0:
            out = neg
        else:
            out *= d
            out = np.add.outer(out, neg).ravel()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def real_character_mask(g: GroupSpec) -> np.ndarray:
    """True at index t iff chi_t is real: 2t = 0, so inversion fixes t. Read-only.

    Per axis of length d the flag is 2c = 0 mod d: all True on an order-2
    axis, else True at c = 0 and at c = d/2 for even d.  The first axis's
    flags are the start; each further axis joins with one np.logical_and.outer.
    """
    out = np.ones(1, dtype=bool)
    for k, (d, two) in enumerate(axes(g)):
        if two:
            flags = np.ones(d, dtype=bool)
        else:
            flags = np.zeros(d, dtype=bool)
            flags[0] = True
            flags[d // 2] = d % 2 == 0
        out = flags if k == 0 else np.logical_and.outer(out, flags).ravel()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def inverse_pairs(g: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (mirrored, reps): every i with p[i] < i, and p[i],
    for p the inverse permutation; each {a, a^-1} with a != a^-1 is one pair.

    p[i] < i iff inversion moves i's coordinate down on the first axis where it
    moves it at all: c -> d - c with c > d/2 on an axis of length d.  So the
    pairs are built from the last axis to the first.  Index c*s + j joins an
    axis of length d to the s elements j of the later axes, with pairs (m, r)
    and w[j] = j + p[j] there: at each c that inversion fixes (0 and d/2, or
    every c on an order-2 axis) the pairs are (c*s + m, c*s + r), and the block
    of c > d/2 follows whole, with reps (d - c)*s + p[j] = d*s - (c*s + j) + w[j],
    all written into the new arrays in index order.  w is built only while an
    earlier axis that is not order-2 will read it, so a group of order-2
    factors builds nothing.
    """
    spec = list(axes(g))
    mirrored = reps = np.zeros(0, dtype=np.int64)
    w, s = np.zeros(1, dtype=np.int64), 1
    for k in reversed(range(len(spec))):
        d, two = spec[k]
        if not two or mirrored.size:
            fixed = np.arange(d) * s if two else np.array([0, d // 2][: 2 - d % 2]) * s
            head = fixed.size * mirrored.size
            size = head + (0 if two else (d - 1 - d // 2) * s)
            m, r = np.empty(size, np.int64), np.empty(size, np.int64)
            np.add.outer(fixed, mirrored, out=m[:head].reshape(fixed.size, -1))
            np.add.outer(fixed, reps, out=r[:head].reshape(fixed.size, -1))
            if not two:
                # the indices (d//2 + 1)*s .. d*s - 1 by a running sum in place
                up = m[head:]
                up.fill(1)
                up[0] = (d // 2 + 1) * s
                np.cumsum(up, out=up)
                tail = np.subtract(d * s, up, out=r[head:]).reshape(-1, s)
                tail += w
            mirrored, reps = m, r
        if not all(two for _, two in spec[:k]):
            # c + (-c mod d) is 2c on an order-2 axis, else d for every c but 0
            lift = 2 * np.arange(d) if two else np.full(d, d)
            lift[0] = 0
            w = np.add.outer(lift * s, w).ravel()
        s *= d
    for a in (mirrored, reps):
        a.setflags(write=False)
    return mirrored, reps
