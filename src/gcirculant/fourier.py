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
real rows, so it builds no index array.  Each call steps through
`TransformPlan.work` buffers: a pocketfft step overwrites its input and a
Hadamard step writes a second buffer, so a group with no order-2 factor
takes one (B, N) buffer.  The O(N^2) transform from the definition, which
the tests and the selftest hold this path to, is `gcirculant.oracle.dft_naive`;
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


class TransformPlan:
    """Per-group axis-wise transform; immutable once built.

    A plan may be shared across threads: it never mutates its own state,
    and each caller passes its own work buffers or none, in which case
    `forward` makes them for that call.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        self._steps = _axis_steps(group)
        # Hadamard blocks keep real input exactly real; pocketfft does not
        self._fft_axes = any(d != 2 for d in group.orders)

    def work(self, rows: int) -> list[np.ndarray]:
        """`forward`'s (rows, N) complex128 work buffers: one, and a second for a
        group with an order-2 factor, as a Hadamard step writes a new buffer."""
        count = 2 if 2 in self.group.orders else 1
        return [np.empty((rows, self.group.size), dtype=np.complex128) for _ in range(count)]

    def forward(self, values: np.ndarray, work: list[np.ndarray] | None = None) -> np.ndarray:
        """fhat[t] = sum_a values[a] * chi_t(a) over the last axis of an (N,) or
        (B, N) array, both sides index-encoded.

        `work`, the arrays of `work(B')` for some B' >= B, holds the steps;
        without it the plan makes `work(B)` for this call.  The input is copied
        into work[0][:B] unless it is that view, and is otherwise never written.
        A pocketfft step overwrites the buffer that holds its input, and a
        Hadamard step writes the other buffer.  The result is a view of one of
        them, of work[0] for a plan with one buffer.
        """
        g = self.group
        f = np.ascontiguousarray(values, dtype=np.complex128)
        if f.ndim not in (1, 2) or f.shape[-1] != g.size:
            raise ValueError(f"expected {g.size} values per row, got shape {f.shape}")
        x = f.reshape(-1, g.size)
        b = x.shape[0]
        # read before a step can overwrite the input
        real_rows = ~x.imag.any(axis=1) if self._fft_axes else None
        work = self.work(b) if work is None else work
        first = work[0][:b]
        if x.ctypes.data != first.ctypes.data:
            np.copyto(first, x)
        x, cur = first, 0
        post = g.size
        pre = b
        for d, h in self._steps:
            post //= d
            x3 = x.reshape(pre, d, post)
            if h is not None:
                # H is real: transform the (Re, Im) pairs as 2*post real columns
                cur = 1 - cur
                dst = work[cur][:b].view(np.float64).reshape(pre, d, 2 * post)
                x = np.matmul(h, x3.view(np.float64), out=dst).view(np.complex128)
            else:
                # unnormalized inverse DFT: sum_a x[a] exp(+2*pi*i*t*a/d), in
                # place with the same bits as the allocating call
                x = np.fft.ifft(x3, axis=1, norm="forward", out=x3)
            x = x.reshape(b, g.size)
            pre *= d
        if real_rows is not None:
            # a real function has a real transform at the real characters; the
            # exact 0 keeps the limit law's point mass at Im = 0 in place.  One
            # masked copy per run lo:hi of consecutive real rows builds no index
            edges = np.flatnonzero(np.diff(real_rows, prepend=False, append=False))
            for lo, hi in zip(edges[::2], edges[1::2]):
                np.copyto(x.imag[lo:hi], 0.0, where=real_character_mask(g))
        return x.reshape(f.shape)


@lru_cache(maxsize=64)
def get_plan(group: GroupSpec) -> TransformPlan:
    return TransformPlan(group)
