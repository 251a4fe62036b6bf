"""Byte equality of the eigenvalue CSV writer with its csv.writer-based original.

The reference function below is a frozen copy of the writer as it was when
it went through `csv.writer`; the text formatter that replaced it must
reproduce its bytes exactly: repr floats, 0/1 flags, CRLF endings.
"""

import csv
import io
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcirculant.ensembles import EnsembleConfig, sample_entries
from gcirculant.groups import parse_group_spec, real_character_mask
from gcirculant.spectra import (
    _csv_heads,
    _csv_tails,
    _csv_text,
    eigenvalues,
    write_eigenvalue_csv,
)

GROUPS = ["12", "4,2,5", "6,6,2", "4099", "2^6"]

SPECIAL_FLOATS = [
    -0.0,
    0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
    5e-324,
    -5e-324,
    1e-310,  # subnormal
    2.2250738585072014e-308,  # smallest normal
    2.225073858507201e-308,  # largest subnormal
    1e16,
    9999999999999998.0,
    1e-4,
    9.9e-5,
    1e22,
    -1e22,
    1.7976931348623157e308,
]


def reference_eigenvalue_csv(path, g, specs):
    real_flags = real_character_mask(g).astype(int).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ("trial", "character_index", "re_lambda", "im_lambda", "is_real_character")
        )
        for s in specs:
            writer.writerows(
                zip(
                    repeat(s.trial),
                    range(g.size),
                    map(repr, s.values.real.tolist()),
                    map(repr, s.values.imag.tolist()),
                    real_flags,
                )
            )


def spectra_for(spec, hermitian, trials=3):
    g = parse_group_spec(spec)
    cfg = EnsembleConfig(alpha=0.3, beta=2.0, hermitian=hermitian, seed=41)
    return g, [eigenvalues(sample_entries(g, cfg, t)) for t in range(trials)]


@pytest.mark.parametrize("hermitian", [False, True], ids=["complex", "hermitian"])
@pytest.mark.parametrize("spec", GROUPS)
class TestWritersMatchCsvModule:
    def test_eigenvalue_csv(self, tmp_path, spec, hermitian):
        g, specs = spectra_for(spec, hermitian)
        reference_eigenvalue_csv(tmp_path / "ref.csv", g, specs)
        re = np.stack([s.values.real for s in specs])
        im = None if hermitian else np.stack([s.values.imag for s in specs])
        write_eigenvalue_csv(tmp_path / "new.csv", g, re, im)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


float64s = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))


@st.composite
def csv_cases(draw):
    """Complex values whose parts include every special float, a flag mask and a trial.

    The imaginary parts are arbitrary floats, all +0.0 (a Hermitian spectrum,
    written through the constant "0.0" field) or a mix of +0.0 and -0.0.
    """
    extra = draw(st.integers(0, 30))
    re = draw(st.permutations(SPECIAL_FLOATS)) + draw(
        st.lists(float64s, min_size=extra, max_size=extra)
    )
    im_floats = draw(st.sampled_from([float64s, st.just(0.0), st.sampled_from([0.0, -0.0])]))
    im = draw(st.lists(im_floats, min_size=len(re), max_size=len(re)))
    values = np.empty(len(re), dtype=np.complex128)
    # set the parts separately: complex arithmetic would turn inf parts into nan
    values.real = re
    values.imag = im
    mask = np.array(draw(st.lists(st.booleans(), min_size=len(re), max_size=len(re))))
    trial = draw(st.one_of(st.none(), st.integers(0, 10**6)))
    return values, mask, trial


def csv_module_text(rows) -> str:
    fh = io.StringIO(newline="")
    csv.writer(fh).writerows(rows)
    return fh.getvalue()


class TestCsvText:
    @settings(max_examples=100, deadline=None)
    @given(case=csv_cases())
    def test_matches_csv_module(self, case):
        values, mask, trial = case
        flags = mask.astype(int).tolist()
        lead = () if trial is None else (trial,)
        re, im = values.real.tolist(), values.imag.tolist()
        # floats handed to csv.writer as objects (spectrum export) and as repr text
        as_floats = csv_module_text(lead + row for row in zip(range(len(re)), re, im, flags))
        as_repr = csv_module_text(
            lead + row for row in zip(range(len(re)), map(repr, re), map(repr, im), flags)
        )
        prefix = "" if trial is None else f"{trial},"
        heads = _csv_heads(len(values))
        text = _csv_text(prefix, heads, values.real, values.imag, _csv_tails(mask, False))
        assert text == as_floats == as_repr
        if not values.imag.any() and not np.signbit(values.imag).any():
            # a Hermitian spectrum's rows, through the constant "0.0" field
            assert _csv_text(prefix, heads, values.real, None, _csv_tails(mask, True)) == text

    def test_empty(self):
        # both prefixes with both row formats
        no_values = np.zeros(0)
        for prefix in ("", "3,"):
            for im in (no_values, None):
                tails = _csv_tails(np.zeros(0, dtype=bool), im is None)
                assert _csv_text(prefix, [], no_values, im, tails) == ""
