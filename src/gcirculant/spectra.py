"""Spectra of random G-circulant matrices.

The matrix M = [Y(a b^-1) / sqrt(N)] is diagonalized by the characters:
its eigenvalue at chi is the transform of Y at chi divided by sqrt(N),
with eigenvector the conjugate character.  The dual group is indexed like
the group, so a spectrum is a `groups.GroupFunction` just as the entry
table is, and carries the table's trial number.  The dense matrix and the
matrix-vector residual that check that claim at small scale are in
:mod:`gcirculant.oracle`.

`eigenvalue_block` forms the spectra of a (B, N) block of entry tables,
one per row, with one transform call; `eigenvalues` is its one-table case.
A Hermitian ensemble has an exactly real spectrum.  `eigenvalue_block`
checks that each row's imaginary roundoff is within IMAG_TOL times that
row's max |Re lambda|, raises if it is not, and stores the imaginary parts
as +0.0; everything downstream reads such a spectrum as real without
checking again.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import get_plan
from .groups import GroupFunction, GroupSpec, real_character_mask


# max |Im lambda| allowed in a Hermitian spectrum row, per unit of the row's
# max |Re lambda|, so the bound scales with beta.  The transform's roundoff is
# at most about eps * log2(N) * ||Y||, and max |Re lambda| >= ||Y|| / sqrt(N)
# (Parseval), so a correct row's ratio is under 1e-11 for any N <= 2^22 (about
# 1e-15 in practice); a conjugate pair broken by 1e-6 of the table's scale
# exceeded it on every group and beta from 1e-40 to 1e200 tried
IMAG_TOL = 1e-9
# points per chunk of every block reduction (`_chunks`), here and in limits:
# a chunk's temporaries stay in cache whatever the block's size
_CHUNK = 1 << 14


def _chunks(t: int, n: int):
    """(rows, cols) slices of ~_CHUNK points of a (t, n) block: whole rows, or a row's columns."""
    rows_per, cols_per = max(1, _CHUNK // n), min(n, _CHUNK)
    for r0 in range(0, t, rows_per):
        for c0 in range(0, n, cols_per):
            yield slice(r0, r0 + rows_per), slice(c0, min(c0 + cols_per, n))


def eigenvalue_block(
    g: GroupSpec, tables: np.ndarray, hermitian: bool, work: np.ndarray | None = None
) -> np.ndarray:
    """lambda_chi = (1/sqrt(N)) * sum_a Y_a chi(a), for every character, per row
    of a (B, N) block of entry tables on g.

    `work` is the transform plan's work buffer (`TransformPlan.work`), made
    for this call if not given: the spectra are formed in its first B rows
    and scaled in place.  For Hermitian tables each row's imaginary parts are
    checked to be roundoff against its real parts (ValueError otherwise: the
    row is not conjugate-symmetric), by `spectral_norm` on each part, which
    makes no temporary of the block's size, and set to +0.0.
    """
    n = g.size
    vals = get_plan(g).forward(tables, work)
    vals /= math.sqrt(n)
    if hermitian:
        # spectral_norm's row maxima of |x|, chunk by chunk: a row with a nan
        # part gets nan, and a nan fails the test below
        worst = spectral_norm(vals.imag)
        bound = IMAG_TOL * spectral_norm(vals.real)
        bad = np.flatnonzero(~(worst <= bound))
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"spectrum is not real: max |Im lambda| = {worst[k]:.3e} > {bound[k]:.3e}"
            )
        vals.imag = 0.0
    return vals


def eigenvalues(t: GroupFunction) -> GroupFunction:
    """The spectrum of one entry table: a one-row `eigenvalue_block`."""
    vals = eigenvalue_block(t.group, t.values[None], t.hermitian)[0]
    return GroupFunction(t.group, vals, hermitian=t.hermitian, trial=t.trial)


def spectral_norm(spectra: np.ndarray) -> np.ndarray:
    """Operator norm of M: max |lambda_chi| (M is normal), over the last axis of
    one (N,) spectrum or of a (B, N) block of them, one per row.

    The block is read in `_chunks`, so no |lambda| array of its size is made;
    max is exact and propagates nan, so the values are those of
    np.abs(spectra).max(axis=-1).
    """
    rows = spectra.reshape(-1, spectra.shape[-1])
    norms = np.zeros(len(rows))
    for r, c in _chunks(*rows.shape):
        np.maximum(norms[r], np.abs(rows[r, c]).max(axis=-1), out=norms[r])
    return norms.reshape(spectra.shape[:-1])[()]


def norm_ratio_stats(g: GroupSpec, norms: np.ndarray | list[float]) -> tuple[float, float]:
    """Mean of ||M|| / sqrt(ln N) over per-trial spectral norms on g, and its standard error.

    The standard error is 0 for a single trial.
    """
    ratios = np.asarray(norms, dtype=np.float64) / math.sqrt(math.log(g.size))
    stderr = float(ratios.std(ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else 0.0
    return float(ratios.mean()), stderr


EIGENVALUE_CSV_FIELDS = ("trial", "character_index", "re_lambda", "im_lambda", "is_real_character")


def _csv_heads(n: int) -> list[str]:
    """The "index," start of every row."""
    return [f"{i}," for i in range(n)]


def _csv_tails(real_mask: np.ndarray, hermitian: bool) -> list[str]:
    """The ",flag\r\n" end of every row, flag 1 at the real characters.

    A Hermitian spectrum's imaginary parts are all +0.0, so its tails lead
    with the constant im field ",0.0", which is repr(0.0).
    """
    im = ",0.0" if hermitian else ""
    return np.where(real_mask, im + ",1\r\n", im + ",0\r\n").tolist()


def _csv_text(
    prefix: str, heads: list[str], re: np.ndarray, im: np.ndarray | None, tails: list[str]
) -> str:
    """CSV rows prefix + head + repr(re) [+ "," + repr(im)] + tail, one per value,
    as one string.

    The bytes are those of csv.writer: floats as repr (shortest round trip),
    CRLF line endings, and no field ever needs quoting.  `im` is None for a
    Hermitian spectrum, whose tails (`_csv_tails`) carry its im field.

    The rows' pieces go into one list, each column by one slice assignment
    over a repeated row template, and the list is joined once.
    """
    n = len(tails)
    if im is None:
        k, pieces = 4, [prefix, "", "", ""] * n
    else:
        k, pieces = 6, [prefix, "", "", ",", "", ""] * n
        pieces[4::k] = map(repr, im.tolist())
    pieces[1::k] = heads
    pieces[2::k] = map(repr, re.tolist())
    pieces[k - 1 :: k] = tails
    return "".join(pieces)


def write_eigenvalue_csv(path, g: GroupSpec, re: np.ndarray, im: np.ndarray | None) -> None:
    """CSV of a (T, N) spectrum block on g: a header, then one row per character
    of each trial.

    `re` and `im` hold the real and imaginary parts, row k from trial k; `im`
    is None for a Hermitian block.  The columns are EIGENVALUE_CSV_FIELDS.
    """
    heads = _csv_heads(g.size)
    tails = _csv_tails(real_character_mask(g), hermitian=im is None)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(EIGENVALUE_CSV_FIELDS) + "\r\n")
        for k, row in enumerate(re):
            fh.write(_csv_text(f"{k},", heads, row, None if im is None else im[k], tails))
