"""Spectra of random G-circulant matrices.

The matrix M = [Y(a b^-1) / sqrt(N)] is diagonalized by the characters:
its eigenvalue at chi is the transform of Y at chi divided by sqrt(N),
with eigenvector the conjugate character.  The dense matrix and the
matrix-vector residual exist purely as small-scale oracles for that claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .ensembles import EnsembleConfig, EntryTable, sample_entries
from .fourier import _difference_table, get_plan
from .groups import GroupSpec, real_character_mask

DENSE_SIZE_CAP = 512


@dataclass
class Spectrum:
    """Eigenvalues indexed by character index (unsorted), plus provenance."""

    group: GroupSpec
    values: np.ndarray
    hermitian: bool
    cfg_digest: str | None = None
    seed: int | None = None
    trial: int | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.group.size,):
            raise ValueError(
                f"expected {self.group.size} eigenvalues, got shape {self.values.shape}"
            )


def eigenvalues(t: EntryTable) -> Spectrum:
    """lambda_chi = (1/sqrt(N)) * sum_a Y_a chi(a), for every character."""
    n = t.group.size
    vals = get_plan(t.group).forward(t.values) / math.sqrt(n)
    cfg = t.cfg
    return Spectrum(
        t.group,
        vals,
        hermitian=t.hermitian,
        cfg_digest=cfg.digest() if cfg is not None else None,
        seed=cfg.seed if cfg is not None else None,
        trial=t.trial,
    )


def real_eigenvalues(s: Spectrum, *, tol: float = 1e-9) -> np.ndarray:
    """Real parts of a Hermitian spectrum, after checking imaginaries vanish."""
    bound = tol * math.sqrt(s.group.size)
    worst = float(np.max(np.abs(s.values.imag))) if s.group.size else 0.0
    if worst > bound:
        raise ValueError(
            f"spectrum is not real: max |Im lambda| = {worst:.3e} > {bound:.3e}"
        )
    return s.values.real.copy()


def dense_matrix(t: EntryTable, *, size_cap: int = DENSE_SIZE_CAP) -> np.ndarray:
    """M[a, b] = Y(a b^-1)/sqrt(N); oracle scale only."""
    n = t.group.size
    if n > size_cap:
        raise ValueError(f"dense matrix of size {n} exceeds cap {size_cap}")
    table = _difference_table(t.group)
    return t.values[table] / math.sqrt(n)


def eigen_residual(t: EntryTable, *, size_cap: int = DENSE_SIZE_CAP) -> float:
    """max over chi of ||M conj(chi) - lambda_chi conj(chi)|| / sqrt(N).

    Checks, by dense matrix-vector products, that the fast-path values are
    the eigenvalues with the conjugate characters as eigenvectors.
    """
    from .groups import character_table

    n = t.group.size
    if n > size_cap:
        raise ValueError(f"eigen residual of size {n} exceeds cap {size_cap}")
    m = dense_matrix(t, size_cap=size_cap)
    lam = eigenvalues(t).values
    chi_rows = character_table(t.group, size_cap=size_cap)
    vecs = np.conj(chi_rows).T  # column chi: conj character as a vector
    residual = m @ vecs - vecs * lam[None, :]
    return float(np.max(np.linalg.norm(residual, axis=0)) / math.sqrt(n))


def spectral_norm(s: Spectrum) -> float:
    """Operator norm of M: max |lambda_chi| (M is normal)."""
    return float(np.max(np.abs(s.values)))


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
        scale = math.sqrt(math.log(g.size))
        ratios = np.array(
            [
                spectral_norm(eigenvalues(sample_entries(g, cfg, trial))) / scale
                for trial in range(trials)
            ]
        )
        points.append(
            NormRatioPoint(
                group=str(g),
                size=g.size,
                trials=trials,
                mean_ratio=float(ratios.mean()),
                stderr=float(ratios.std(ddof=1) / math.sqrt(trials)),
            )
        )
    return points


SPECTRUM_CSV_FIELDS = ("character_index", "re_lambda", "im_lambda", "is_real_character")


def spectrum_rows(s: Spectrum) -> list[tuple[int, float, float, int]]:
    return list(
        zip(
            range(s.group.size),
            s.values.real.tolist(),
            s.values.imag.tolist(),
            real_character_mask(s.group).astype(int).tolist(),
        )
    )


def _csv_tails(real_mask: np.ndarray) -> list[str]:
    """The ",flag\r\n" end of every row, flag 1 at the real characters."""
    return np.where(real_mask, ",1\r\n", ",0\r\n").tolist()


def _csv_text(prefix: str, values: np.ndarray, tails: list[str]) -> str:
    """CSV rows prefix + index,repr(re),repr(im) + tail, one per value, as one string.

    The bytes are those of csv.writer: floats as repr (shortest round trip),
    CRLF line endings, and no field ever needs quoting.
    """
    row = "{}{},{!r},{!r}{}".format
    re, im = values.real.tolist(), values.imag.tolist()
    return "".join(map(row, repeat(prefix), range(len(tails)), re, im, tails))


def write_spectrum_csv(s: Spectrum, path) -> None:
    """CSV export: one row per character, header per SPECTRUM_CSV_FIELDS."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SPECTRUM_CSV_FIELDS) + "\r\n")
        fh.write(_csv_text("", s.values, _csv_tails(real_character_mask(s.group))))
