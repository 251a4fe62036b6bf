import math
import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from gcirculant.cli import main
from gcirculant.ensembles import EnsembleConfig, sample_entries
from gcirculant.groups import (
    axes,
    inverse_pairs,
    inverse_permutation,
    involution_count,
    involution_fraction,
    make_group,
    parse_group_spec,
    real_character_mask,
)
from gcirculant.oracle import (
    character,
    character_column,
    character_from_index,
    character_index,
    character_table,
    characters,
    char_phase,
    char_value,
    conjugate_character,
    coords_matrix,
    element,
    elements,
    element_from_index,
    element_index,
    identity,
    inv,
    involution_subgroup,
    is_real_character,
    mul,
    restrict_character,
    restrict_to_involutions,
    subgroup_closure,
)

# groups exercised throughout; all sizes <= 256
SMALL_GROUPS = [
    [12],
    [4, 2],
    [2] * 6,
    [9],
    [2],
    [3],
    [8, 3],
    [4, 2, 5],
    [2, 2, 2, 2, 3],
    [16],
    [6, 10],
    [5, 7],
]


def enumerated_involutions(g):
    """Oracle: count a with a*a = identity by exhaustive multiplication."""
    e = identity(g)
    return sum(1 for i in range(g.size) if mul(g, el := element_from_index(g, i), el) == e)


def enumerated_real_characters(g):
    """Oracle: chi is real iff every value has an exact phase in {0, 1/2}."""
    count = 0
    for t in range(g.size):
        chi = character_from_index(g, t)
        if all(
            char_phase(g, chi, element_from_index(g, i)).denominator <= 2
            for i in range(g.size)
        ):
            count += 1
    return count


class TestMakeGroup:
    def test_sizes(self):
        assert make_group([2, 2, 2]).size == 8
        assert make_group([12]).size == 12
        assert make_group([4, 2, 5]).size == 40

    def test_trivial_group(self):
        g = make_group([])
        assert g.size == 1
        assert involution_count(g) == 1

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            make_group([1])
        with pytest.raises(ValueError):
            make_group([4, 0])

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            make_group([2] * 23)
        assert make_group([2] * 22).size == 1 << 22


class TestParseGroupSpec:
    def test_basic(self):
        assert parse_group_spec("4,2,5").orders == (4, 2, 5)

    def test_exponent_shorthand(self):
        assert parse_group_spec("2^12").orders == (2,) * 12
        assert parse_group_spec("3,2^10").orders == (3,) + (2,) * 10

    def test_bad_tokens(self):
        for bad in ("", "4,,5", "2^0", "x"):
            with pytest.raises(ValueError):
                parse_group_spec(bad)

    @pytest.mark.parametrize(
        "spec, factor",
        [("1e3", "1e3"), ("2^x", "2^x"), ("2^3^4", "2^3^4"), ("3,2^", "2^"), ("x,2", "x")],
    )
    def test_non_integer_factor_is_named(self, spec, factor, capsys):
        message = f"factor {factor!r} of group spec {spec!r} is not an integer"
        with pytest.raises(ValueError) as info:
            parse_group_spec(spec)
        assert str(info.value) == message
        assert main(["group-info", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_size_cap_applies_before_expansion(self):
        # each of these would need a list of 10^20 orders if expanded first
        for huge in ("2^100000000000000000000", "3,5^100000000000000000000"):
            with pytest.raises(ValueError, match="exceeds cap"):
                parse_group_spec(huge)
        with pytest.raises(ValueError, match="order must be >= 2"):
            parse_group_spec("1^100000000000000000000")
        assert parse_group_spec("2^22").size == 1 << 22
        with pytest.raises(ValueError, match="exceeds cap"):
            parse_group_spec("2^23")
        with pytest.raises(ValueError, match="exceeds cap"):
            parse_group_spec("3,2^21")
        with pytest.raises(ValueError, match="exceeds cap"):
            parse_group_spec("2^11,2^11,2^1")


class TestGroupLaw:
    def test_mul_example(self):
        g = make_group([4, 2])
        assert mul(g, element(g, (3, 1)), element(g, (2, 1))) == element(g, (1, 0))

    def test_identity_and_inverse(self):
        for orders in SMALL_GROUPS:
            g = make_group(orders)
            e = identity(g)
            for i in range(0, g.size, max(1, g.size // 7)):
                a = element_from_index(g, i)
                assert mul(g, e, a) == a
                assert mul(g, a, inv(g, a)) == e

    def test_inv_examples(self):
        z12 = make_group([12])
        assert inv(z12, element(z12, (5,))) == element(z12, (7,))
        z2c = make_group([2, 2, 2])
        for i in range(8):
            a = element_from_index(z2c, i)
            assert inv(z2c, a) == a
        g = make_group([4, 2])
        assert inv(g, element(g, (3, 1))) == element(g, (1, 1))

    def test_dimension_mismatch(self):
        g = make_group([4, 2])
        other = make_group([4])
        with pytest.raises(ValueError):
            mul(g, element(g, (1, 0)), element(other, (1,)))

    def test_index_round_trip(self):
        g = make_group([4, 2, 5])
        for i in range(g.size):
            assert element_index(g, element_from_index(g, i)) == i


class TestInvolutions:
    @pytest.mark.parametrize(
        "orders,expected",
        [([12], 2), ([4, 2], 4), ([2, 2, 2], 8), ([9], 1)],
    )
    def test_count_against_enumeration(self, orders, expected):
        g = make_group(orders)
        assert enumerated_involutions(g) == expected
        assert involution_count(g) == expected

    def test_fraction_values(self):
        assert involution_fraction(make_group([12])) == Fraction(1, 6)
        assert involution_fraction(make_group([4, 2])) == Fraction(1, 2)
        assert involution_fraction(make_group([2, 2, 2])) == 1

    def test_reciprocal_is_integer(self):
        for orders in SMALL_GROUPS:
            p2 = involution_fraction(make_group(orders))
            assert (1 / p2).denominator == 1

    def test_subgroup_matches_enumeration(self):
        for orders in SMALL_GROUPS:
            g = make_group(orders)
            e = identity(g)
            byhand = [
                i
                for i in range(g.size)
                if mul(g, a := element_from_index(g, i), a) == e
            ]
            assert involution_subgroup(g) == byhand


@st.composite
def small_groups(draw):
    """Cyclic orders 2..12 with product <= 4096: the longest prefix that fits."""
    orders = []
    for d in draw(st.lists(st.integers(2, 12), max_size=12)):
        if math.prod(orders) * d > 4096:
            break
        orders.append(d)
    return make_group(orders)


@st.composite
def pair_groups(draw):
    """Runs of order-2 factors and other orders in any order, with product <= 2^14:
    the longest prefix that fits."""
    factors = st.one_of(st.integers(1, 4).map(lambda m: [2] * m), st.integers(3, 40).map(lambda d: [d]))
    orders = []
    for f in draw(st.lists(factors, max_size=6)):
        if math.prod(orders + f) > 1 << 14:
            break
        orders += f
    return make_group(orders)


@contextmanager
def counting_calls(function):
    """A list that gets one item per call of `function`'s code, made while the
    block runs, whatever name the caller reaches it by."""
    calls, previous = [], sys.getprofile()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is function.__code__:
            calls.append(function.__name__)

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def inverse_pairs_reference(g):
    """The pairs from the whole inverse permutation, as first written, frozen."""
    invp = inverse_permutation(g)
    mirrored = np.flatnonzero(invp < np.arange(g.size))
    return mirrored, invp[mirrored]


def inverse_from_coords(g):
    """Oracle: negate every row of the (N, k) coordinate matrix and re-index it."""
    neg = np.mod(-coords_matrix(g), np.array(g.orders, dtype=np.int64))
    return np.ravel_multi_index(tuple(neg.T), g.orders)


class TestInversePermutation:
    @settings(max_examples=100, deadline=None)
    @given(g=st.one_of(st.just(make_group([])), small_groups()))
    def test_matches_coordinate_construction(self, g):
        invp = inverse_permutation(g)
        assert invp.dtype == np.int64
        assert not invp.flags.writeable
        np.testing.assert_array_equal(invp, inverse_from_coords(g))
        mask = real_character_mask(g)
        assert mask.dtype == bool and not mask.flags.writeable
        expected = [is_real_character(g, character_from_index(g, t)) for t in range(g.size)]
        assert mask.tolist() == expected
        mirrored, reps = inverse_pairs(g)
        (below,) = np.nonzero(invp < np.arange(g.size))
        np.testing.assert_array_equal(mirrored, below)
        np.testing.assert_array_equal(reps, invp[below])
        assert inverse_pairs(g)[0] is mirrored and real_character_mask(g) is mask

    def test_axes_merge_each_run_of_order_two_factors(self):
        g = make_group([3, 2, 2, 4, 2, 5, 2, 2, 2])
        expected = [(3, False), (4, True), (4, False), (2, True), (5, False), (8, True)]
        assert list(axes(g)) == expected
        assert list(axes(make_group([]))) == []

    @pytest.mark.parametrize("spec", ["1048576", "3,2^16", "3^12"])
    # the mask's uncached builder, so every allocation is traced
    @pytest.mark.parametrize("table", [inverse_permutation, real_character_mask.__wrapped__])
    def test_peak_memory_is_one_and_a_half_tables(self, spec, table):
        g = parse_group_spec(spec)
        tracemalloc.start()
        try:
            out = table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == g.size
        assert peak <= 1.5 * out.nbytes + (64 << 10)

    def test_no_permutation_outlives_its_call(self):
        # built inside the traced span (its 8 MiB show in the peak), then freed
        g = parse_group_spec("1048576")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            nbytes = inverse_permutation(g).nbytes
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start >= nbytes == 8 << 20
        assert current - start <= 4 << 10

    def test_real_character_mask_reads_no_inverse_permutation(self):
        g = make_group([5, 2, 2, 9])  # used by no other test
        with counting_calls(inverse_permutation) as calls:
            real_character_mask(g)
            assert calls == []
            inverse_permutation(g)  # the count sees a call
        assert len(calls) == 1

    def test_hermitian_sampling_caches_no_coordinate_matrix(self):
        # nor reads an inverse permutation: inverse_pairs builds its pairs per axis
        g = make_group([7, 2, 11, 2, 3])  # used by no other test
        cached = coords_matrix.cache_info().currsize
        with counting_calls(inverse_permutation) as calls:
            sample_entries(g, EnsembleConfig(hermitian=True, seed=5))
        assert calls == []
        assert coords_matrix.cache_info().currsize == cached

    @settings(max_examples=150, deadline=None)
    @given(g=pair_groups())
    def test_pairs_have_the_bytes_of_the_permutation_formula(self, g):
        want = inverse_pairs_reference(g)
        got = inverse_pairs.__wrapped__(g)  # uncached: built per axis here
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64 and a.shape == b.shape
            assert a.tobytes() == b.tobytes() and not a.flags.writeable

    @pytest.mark.parametrize("spec", ["2^22", "2^12", "2"])
    def test_order_two_groups_build_no_table(self, spec):
        # every element is an involution, so there is no pair and nothing of N's size
        g = parse_group_spec(spec)
        tracemalloc.start()
        try:
            mirrored, reps = inverse_pairs.__wrapped__(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mirrored.size == reps.size == 0
        assert peak <= 4 << 10


class TestCharacters:
    def test_char_value_examples(self):
        z4 = make_group([4])
        assert char_value(z4, character(z4, (1,)), element(z4, (1,))) == 1j
        z2 = make_group([2])
        assert char_value(z2, character(z2, (1,)), element(z2, (1,))) == -1
        g = make_group([6, 10])
        trivial = character(g, (0, 0))
        for i in range(g.size):
            assert char_value(g, trivial, element_from_index(g, i)) == 1

    def test_unit_modulus_and_homomorphism(self):
        rng = np.random.default_rng(42)
        for orders in ([12], [8, 3], [4, 2, 5]):
            g = make_group(orders)
            for _ in range(25):
                chi = character_from_index(g, int(rng.integers(g.size)))
                a = element_from_index(g, int(rng.integers(g.size)))
                b = element_from_index(g, int(rng.integers(g.size)))
                va, vb = char_value(g, chi, a), char_value(g, chi, b)
                assert abs(abs(va) - 1) < 1e-12
                assert abs(char_value(g, chi, mul(g, a, b)) - va * vb) < 1e-12

    def test_conjugate_character(self):
        g = make_group([8, 3])
        for t in range(g.size):
            chi = character_from_index(g, t)
            cbar = conjugate_character(g, chi)
            for i in range(0, g.size, 5):
                a = element_from_index(g, i)
                assert abs(char_value(g, cbar, a) - np.conj(char_value(g, chi, a))) < 1e-12

    def test_inverse_evaluation(self):
        g = make_group([4, 2, 5])
        for t in range(0, g.size, 7):
            chi = character_from_index(g, t)
            for i in range(0, g.size, 7):
                a = element_from_index(g, i)
                assert (
                    abs(char_value(g, chi, inv(g, a)) - np.conj(char_value(g, chi, a)))
                    < 1e-12
                )

    def test_is_real_character(self):
        z12 = make_group([12])
        assert is_real_character(z12, character(z12, (6,)))
        assert not is_real_character(z12, character(z12, (1,)))
        z2n = make_group([2] * 5)
        assert all(
            is_real_character(z2n, character_from_index(z2n, t)) for t in range(32)
        )

    def test_real_character_count_matches_involutions(self):
        # exact equality of the two counts, both by independent enumeration
        assert len(SMALL_GROUPS) >= 10
        for orders in SMALL_GROUPS:
            g = make_group(orders)
            formula = sum(
                is_real_character(g, character_from_index(g, t)) for t in range(g.size)
            )
            assert formula == enumerated_real_characters(g) == involution_count(g)

    def test_real_character_mask_matches_per_character_test(self):
        for orders in SMALL_GROUPS + [[]]:
            g = make_group(orders)
            mask = real_character_mask(g)
            expected = [
                is_real_character(g, character_from_index(g, t)) for t in range(g.size)
            ]
            assert mask.tolist() == expected
            assert int(mask.sum()) == involution_count(g)
            assert not mask.flags.writeable
            assert real_character_mask(g) is mask

    def test_dual_group_size(self):
        for orders in ([12], [4, 2], [8, 3]):
            g = make_group(orders)
            chars = list(characters(g))
            assert len({chi.coords for chi in chars}) == g.size
            assert [character_index(g, chi) for chi in chars] == list(range(g.size))
            assert sum(1 for _ in elements(g)) == g.size

    def test_orthogonality(self):
        for orders in ([12], [4, 2, 5], [2, 2, 2]):
            g = make_group(orders)
            table = character_table(g)
            gram = table @ np.conj(table).T
            off = gram - g.size * np.eye(g.size)
            assert np.max(np.abs(off)) < 1e-8 * g.size

    def test_character_column_matches_scalar(self):
        g = make_group([6, 10])
        for t in (0, 1, 17, 59):
            chi = character_from_index(g, t)
            col = character_column(g, chi)
            for i in (0, 1, 29, 59):
                assert abs(col[i] - char_value(g, chi, element_from_index(g, i))) < 1e-12


class TestRestrictions:
    def test_trivial_subgroup(self):
        g = make_group([4, 2])
        r = restrict_character(g, character(g, (1, 1)), [])
        assert r.element_indices == (0,)
        np.testing.assert_allclose(r.values, [1.0])

    def test_full_subgroup_z2_squared(self):
        g = make_group([2, 2])
        chi = character(g, (1, 0))
        r = restrict_character(g, chi, [element(g, (1, 0)), element(g, (0, 1))])
        assert r.element_indices == (0, 1, 2, 3)
        np.testing.assert_allclose(r.values, [1, 1, -1, -1])

    def test_z4_agreeing_restrictions(self):
        g = make_group([4])
        sub = [element(g, (2,))]
        r1 = restrict_character(g, character(g, (1,)), sub)
        r3 = restrict_character(g, character(g, (3,)), sub)
        assert r1 == r3
        assert r1.element_indices == (0, 2)
        np.testing.assert_allclose(r1.values, [1, -1])

    def test_closure(self):
        z12 = make_group([12])
        assert subgroup_closure(z12, [element(z12, (4,))]) == [0, 4, 8]
        assert subgroup_closure(z12, []) == [0]

    def test_closure_cap(self):
        z12 = make_group([12])
        with pytest.raises(ValueError):
            subgroup_closure(z12, [element(z12, (1,))], size_cap=5)

    def test_extension_counts_involution_subgroup(self):
        # each realized character of A extends in exactly |G|/|A| ways
        for orders in SMALL_GROUPS:
            g = make_group(orders)
            a_indices = involution_subgroup(g)
            counts = {}
            for t in range(g.size):
                key = restrict_to_involutions(g, character_from_index(g, t)).phases
                counts[key] = counts.get(key, 0) + 1
            assert len(counts) == len(a_indices)
            expected = g.size // len(a_indices)
            assert all(v == expected for v in counts.values())

    def test_extension_counts_cyclic_subgroups(self):
        cases = [([12], (4,)), ([8, 3], (2, 0)), ([4, 2, 5], (0, 1, 1))]
        for orders, gen in cases:
            g = make_group(orders)
            sub = subgroup_closure(g, [element(g, gen)])
            counts = {}
            for t in range(g.size):
                chi = character_from_index(g, t)
                key = tuple(
                    char_phase(g, chi, element_from_index(g, i)) for i in sub
                )
                counts[key] = counts.get(key, 0) + 1
            assert len(counts) == len(sub)
            assert all(v == g.size // len(sub) for v in counts.values())
