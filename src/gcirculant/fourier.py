"""Fourier transform on a finite abelian group: naive oracle and fast path.

The forward transform is the unnormalized sum fhat(chi) = sum_a f(a) chi(a);
the 1/sqrt(N) isometry factor is applied downstream where the spectra are
formed.  The fast path applies a 1-D transform along each cyclic factor in
turn, with one numpy (pocketfft) unnormalized inverse DFT, which uses
chi(a) = exp(+2*pi*i * t*a/d), for every order other than 2.  A run of m >= 2
consecutive order-2 factors is one axis of length 2^m, transformed by one
real matmul with the Sylvester-Hadamard matrix (Fino & Algazi, 1976), in
blocks of at most 2^5 (so (Z_2)^n is a Walsh-Hadamard transform); a lone
order-2 factor is a sum/difference butterfly.  Both keep real input exactly
real.  For real input on a group with any other order, the imaginary parts
at the real characters are set to exactly 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import (
    GroupSpec,
    character_column,
    character_from_index,
    coords_matrix,
    real_character_mask,
    _ravel_coords,
)


@dataclass
class GroupFunction:
    """A complex-valued function on a group (or its dual), indexed by index."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.group.size,):
            raise ValueError(
                f"expected {self.group.size} values, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("function values must be finite")


_HADAMARD_MAX_LOG = 5


def _sylvester_matrices() -> tuple[np.ndarray, ...]:
    """Read-only H_m for m = 0.._HADAMARD_MAX_LOG: H_m[t, a] = (-1)^popcount(t & a).

    H_m is the character table of (Z_2)^m in index encoding.
    """
    out = [np.ones((1, 1))]
    for _ in range(_HADAMARD_MAX_LOG):
        out.append(np.kron(out[-1], [[1.0, 1.0], [1.0, -1.0]]))
    for h in out:
        h.setflags(write=False)
    return tuple(out)


# built once and shared by every plan, so plan construction allocates nothing
_HADAMARD = _sylvester_matrices()


def _axis_steps(orders: tuple[int, ...]) -> tuple[tuple[int, np.ndarray | None], ...]:
    """(length, Hadamard matrix or None) per transform step.

    A run of r >= 2 order-2 factors is split into ceil(r / 5) near-equal
    Hadamard blocks of 2^2 to 2^5; every other factor is its own step.
    """
    steps: list[tuple[int, np.ndarray | None]] = []
    for is_two, factors in itertools.groupby(orders, key=lambda d: d == 2):
        run = list(factors)
        if not is_two or len(run) == 1:
            steps.extend((d, None) for d in run)
            continue
        r = len(run)
        parts = -(-r // _HADAMARD_MAX_LOG)
        for j in range(parts):
            m = r // parts + (j < r % parts)
            steps.append((1 << m, _HADAMARD[m]))
    return tuple(steps)


class TransformPlan:
    """Per-group axis-wise transform; immutable once built.

    A plan may be shared across threads: transforms allocate their own
    working arrays and never mutate plan state.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        self._steps = _axis_steps(group.orders)
        # Hadamard blocks and the butterfly keep real input exactly real;
        # pocketfft does not
        self._fft_axes = any(d != 2 for d in group.orders)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """fhat[t] = sum_a values[a] * chi_t(a), both sides index-encoded."""
        g = self.group
        f = x = np.ascontiguousarray(values, dtype=np.complex128)
        if x.shape != (g.size,):
            raise ValueError(f"expected {g.size} values, got shape {x.shape}")
        post = g.size
        pre = 1
        for d, h in self._steps:
            post //= d
            x3 = x.reshape(pre, d, post)
            if h is not None:
                # H is real: transform the (Re, Im) pairs as 2*post real columns
                x = np.matmul(h, x3.view(np.float64)).view(np.complex128)
            elif d == 2:
                a, b = x3[:, 0, :], x3[:, 1, :]
                x = np.stack((a + b, a - b), axis=1)
            else:
                # unnormalized inverse DFT: sum_a x[a] exp(+2*pi*i*t*a/d)
                x = np.fft.ifft(x3, axis=1, norm="forward")
            x = x.reshape(-1)
            pre *= d
        if self._fft_axes and not f.imag.any():
            # a real function has a real transform at the real characters;
            # the exact 0 keeps the limit law's point mass at Im = 0 in place
            x.imag[real_character_mask(g)] = 0.0
        return x

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse of forward: (1/N) * conjugate-transform."""
        x = np.asarray(values, dtype=np.complex128)
        return np.conj(self.forward(np.conj(x))) / self.group.size


@lru_cache(maxsize=64)
def get_plan(group: GroupSpec) -> TransformPlan:
    return TransformPlan(group)


def dft_naive(f: GroupFunction) -> GroupFunction:
    """O(N^2) transform straight from the definition; the correctness oracle."""
    g = f.group
    out = np.empty(g.size, dtype=np.complex128)
    for t in range(g.size):
        chi = character_column(g, character_from_index(g, t))
        out[t] = np.dot(chi, f.values)
    return GroupFunction(g, out)


def fft_fast(f: GroupFunction) -> GroupFunction:
    """Fast axis-wise transform; agrees with dft_naive to rounding error."""
    return GroupFunction(f.group, get_plan(f.group).forward(f.values))


def inverse_fft(fhat: GroupFunction) -> GroupFunction:
    """Inverse transform: inverse_fft(fft_fast(f)) recovers f."""
    return GroupFunction(fhat.group, get_plan(fhat.group).inverse(fhat.values))


@lru_cache(maxsize=8)
def _difference_table(g: GroupSpec) -> np.ndarray:
    """(N, N) int64 table of index(a * b^-1); cached, read-only."""
    coords = coords_matrix(g)
    orders = np.array(g.orders, dtype=np.int64)
    diff = np.mod(coords[:, None, :] - coords[None, :, :], orders)
    out = _ravel_coords(g, diff)
    out.setflags(write=False)
    return out


def convolve(f: GroupFunction, h: GroupFunction) -> GroupFunction:
    """(f * h)(a) = sum_b f(a b^-1) h(b), computed directly for oracle use."""
    if f.group != h.group:
        raise ValueError("convolution operands must live on the same group")
    g = f.group
    table = _difference_table(g)
    out = f.values[table] @ h.values
    return GroupFunction(g, out)
