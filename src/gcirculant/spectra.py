"""Spectra of random G-circulant matrices.

The matrix M = [Y(a b^-1) / sqrt(N)] is diagonalized by the characters:
its eigenvalue at chi is the transform of Y at chi divided by sqrt(N),
with eigenvector the conjugate character.  The dense matrix and the
matrix-vector residual that check that claim at small scale are in
:mod:`gcirculant.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .ensembles import EnsembleConfig, EntryTable, sample_entries
from .fourier import get_plan
from .groups import GroupSpec, real_character_mask


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


def norm_ratio_stats(g: GroupSpec, spectra: Iterable[Spectrum]) -> tuple[float, float]:
    """Mean of ||M|| / sqrt(ln N) over spectra on g, and its standard error.

    The standard error is 0 for a single spectrum.
    """
    scale = math.sqrt(math.log(g.size))
    ratios = np.array([spectral_norm(s) / scale for s in spectra])
    stderr = float(ratios.std(ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else 0.0
    return float(ratios.mean()), stderr


def norm_ratio_curve(
    cfg: EnsembleConfig, groups: Sequence[GroupSpec], trials: int
) -> list[NormRatioPoint]:
    """Ratio E||M||/sqrt(ln N) per group; bounded in N by the norm estimates."""
    if trials < 10:
        raise ValueError(f"trials must be >= 10, got {trials}")
    points = []
    for g in groups:
        spectra = (eigenvalues(sample_entries(g, cfg, trial)) for trial in range(trials))
        mean, stderr = norm_ratio_stats(g, spectra)
        points.append(NormRatioPoint(str(g), g.size, trials, mean, stderr))
    return points


SPECTRUM_CSV_FIELDS = ("character_index", "re_lambda", "im_lambda", "is_real_character")


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


def write_eigenvalue_csv(
    path, g: GroupSpec, spectra: Iterable[Spectrum], *, trial_column: bool
) -> None:
    """CSV of spectra on g: a header, then one row per character of each spectrum.

    The columns are SPECTRUM_CSV_FIELDS, led by the spectrum's trial number
    when trial_column is set.
    """
    header = ("trial",) * trial_column + SPECTRUM_CSV_FIELDS
    tails = _csv_tails(real_character_mask(g))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for s in spectra:
            fh.write(_csv_text(f"{s.trial}," if trial_column else "", s.values, tails))


def write_spectrum_csv(s: Spectrum, path) -> None:
    """CSV export of one spectrum: one row per character, no trial column."""
    write_eigenvalue_csv(path, s.group, [s], trial_column=False)
