"""Fast Fourier transform on a finite abelian group, on index-encoded arrays.

The forward transform is the unnormalized sum fhat(chi) = sum_a f(a) chi(a);
the 1/sqrt(N) isometry factor is applied downstream where the spectra are
formed.  The fast path applies a 1-D transform along each cyclic factor in
turn, with one numpy (pocketfft) unnormalized inverse DFT, which uses
chi(a) = exp(+2*pi*i * t*a/d), for every order other than 2.  A run of m
consecutive order-2 factors is one axis of length 2^m (`groups.axes`),
transformed by one real matmul with the Sylvester-Hadamard matrix (Fino &
Algazi, 1976), in blocks of at most 2^5 (so (Z_2)^n is a Walsh-Hadamard
transform, and a lone order-2 factor the 2 x 2 block H_1).  A real +-1
matrix keeps real input exactly real.  For real input on a group with any
other order, the imaginary parts at the real characters are set to exactly
0.  A (B, N) block is B functions, one per row, transformed by the same
steps with the block's rows as one more leading axis; the real-input rule
applies to the real rows only, by one masked copy per run of consecutive
real rows, so it builds no index array.  `TransformPlan.forward` runs every
step in place in the caller's array and overwrites it: a pocketfft step
overwrites its input, and a Hadamard step multiplies a slice at a time into
a cache-sized scratch and copies it back over the slice.  A caller that
keeps its input passes a copy, as `spectra.eigenvalues` and
`oracle.fft_fast` / `inverse_fft` do.  The O(N^2) transform from the
definition, which the tests and the selftest hold this path to, is
`gcirculant.oracle.dft_naive`;
`oracle.fft_fast` applies this path to a `groups.GroupFunction`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .groups import GroupSpec, axes, real_character_mask


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


def _axis_steps(g: GroupSpec) -> tuple[tuple[int, np.ndarray | None], ...]:
    """(length, Hadamard matrix or None) per transform step.

    An order-2 axis of length 2^r (`groups.axes`) is split into ceil(r / 5)
    near-equal Hadamard blocks of 2^1 to 2^5; every other axis is one step.
    """
    steps: list[tuple[int, np.ndarray | None]] = []
    for d, two in axes(g):
        if not two:
            steps.append((d, None))
            continue
        r = d.bit_length() - 1
        parts = -(-r // _HADAMARD_MAX_LOG)
        for j in range(parts):
            m = r // parts + (j < r % parts)
            steps.append((1 << m, _HADAMARD[m]))
    return tuple(steps)


# a Hadamard step's matmul writes at most this many float64s at a time, or one
# column slice, into a scratch array, so a batch needs no second (B, N) buffer
_SCRATCH_FLOATS = 1 << 14
# a column slice is a multiple of this many columns wide.  BLAS sums a tile of
# columns in one order and a narrower remainder in another (8 columns in
# OpenBLAS 0.3.31 on an AVX-512 Xeon), so slices that start at a multiple of
# the tile width give every column the bits of the whole product; and there a
# 32-row slice narrower than 1024 columns of a long row takes the small-matrix
# path at half the speed
_COLUMN_GRAIN = 1024


def _hadamard_step(h: np.ndarray, v: np.ndarray) -> None:
    """v[i] = h @ v[i] in place for each (d, c) matrix of a (pre, d, c) float64 array.

    Each slice is multiplied into a scratch array and copied back over itself:
    whole matrices along pre when one fits in _SCRATCH_FLOATS, else columns, a
    multiple of _COLUMN_GRAIN at a time.  The scratch is made per call, so a
    plan shared by threads shares no buffer.
    """
    pre, d, c = v.shape
    per = min(pre, _SCRATCH_FLOATS // (d * c))
    if per:
        slices = (np.s_[i : i + per] for i in range(0, pre, per))
        scratch = np.empty(per * d * c)
    else:
        w = min(c, max(1, _SCRATCH_FLOATS // (d * _COLUMN_GRAIN)) * _COLUMN_GRAIN)
        slices = (np.s_[i, :, j : j + w] for i in range(pre) for j in range(0, c, w))
        scratch = np.empty(d * w)
    for s in slices:
        src = v[s]
        out = scratch[: src.size].reshape(src.shape)
        np.matmul(h, src, out=out)
        src[...] = out


class TransformPlan:
    """Per-group axis-wise transform; immutable once built.

    A plan may be shared across threads: it never mutates its own state,
    and `forward` works in the array each caller passes.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        self._steps = _axis_steps(group)
        # Hadamard blocks keep real input exactly real; pocketfft does not
        self._fft_axes = any(d != 2 for d in group.orders)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """fhat[t] = sum_a values[a] * chi_t(a) over the last axis of an (N,) or
        (B, N) array, both sides index-encoded, computed in place: every step
        overwrites `values`, and the result is that array.

        `values` must be C-contiguous complex128; any other array raises
        ValueError before anything is written.
        """
        g = self.group
        shaped = values.ndim in (1, 2) and values.shape[-1] == g.size
        if not (shaped and values.dtype == np.complex128 and values.flags.c_contiguous):
            raise ValueError(
                f"expected C-contiguous complex128 rows of {g.size} values, "
                f"got {values.dtype} of shape {values.shape}"
            )
        x = values.reshape(-1, g.size)
        b = x.shape[0]
        # read before a step can overwrite the input
        real_rows = ~x.imag.any(axis=1) if self._fft_axes else None
        post = g.size
        pre = b
        for d, h in self._steps:
            post //= d
            x3 = x.reshape(pre, d, post)
            if h is not None:
                # H is real: transform the (Re, Im) pairs as 2*post real columns
                _hadamard_step(h, x3.view(np.float64))
            else:
                # unnormalized inverse DFT: sum_a x[a] exp(+2*pi*i*t*a/d), in
                # place with the same bits as the allocating call
                np.fft.ifft(x3, axis=1, norm="forward", out=x3)
            pre *= d
        if real_rows is not None:
            # a real function has a real transform at the real characters; the
            # exact 0 keeps the limit law's point mass at Im = 0 in place.  One
            # masked copy per run lo:hi of consecutive real rows builds no index
            edges = np.flatnonzero(np.diff(real_rows, prepend=False, append=False))
            for lo, hi in zip(edges[::2], edges[1::2]):
                np.copyto(x.imag[lo:hi], 0.0, where=real_character_mask(g))
        return values


@lru_cache(maxsize=64)
def get_plan(group: GroupSpec) -> TransformPlan:
    return TransformPlan(group)
