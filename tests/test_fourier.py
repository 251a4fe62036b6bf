import collections
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcirculant import fourier
from gcirculant.fourier import TransformPlan, get_plan
from gcirculant.groups import (
    GroupFunction,
    involution_count,
    make_group,
    parse_group_spec,
    real_character_mask,
)
from gcirculant.oracle import (
    character_from_index,
    character_table,
    convolve,
    dft_naive,
    element_from_index,
    element_index,
    elements,
    fft_fast,
    identity,
    inverse_fft,
    involution_subgroup,
    mul,
    restrict_to_involutions,
)

ORACLE_GROUPS = ["12", "8,3", "2^6", "4,2,5"]


def random_function(g, rng):
    return GroupFunction(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))


class TestNaive:
    def test_delta_at_identity(self):
        g = make_group([4, 2])
        vals = np.zeros(8)
        vals[0] = 1.0
        out = dft_naive(GroupFunction(g, vals))
        np.testing.assert_allclose(out.values, np.ones(8), atol=1e-12)

    def test_constant_function(self):
        g = make_group([8, 3])
        out = dft_naive(GroupFunction(g, np.ones(24)))
        expected = np.zeros(24, dtype=complex)
        expected[0] = 24.0
        np.testing.assert_allclose(out.values, expected, atol=1e-10)

    def test_z2_hand_example(self):
        g = make_group([2])
        out = dft_naive(GroupFunction(g, [0.0, 1.0]))
        np.testing.assert_allclose(out.values, [1.0, -1.0], atol=1e-12)


class TestFast:
    @pytest.mark.parametrize("spec", ORACLE_GROUPS)
    def test_matches_naive(self, spec):
        g = parse_group_spec(spec)
        rng = np.random.default_rng(2024)
        for _ in range(10):
            f = random_function(g, rng)
            fast = fft_fast(f)
            naive = dft_naive(f)
            assert np.max(np.abs(fast.values - naive.values)) < 1e-9

    def test_delta_on_z4(self):
        g = make_group([4])
        for a in range(4):
            vals = np.zeros(4)
            vals[a] = 1.0
            out = fft_fast(GroupFunction(g, vals))
            expected = np.array([1j ** (t * a % 4) for t in range(4)])
            np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_single_dense_axis(self):
        g = make_group([15])
        rng = np.random.default_rng(5)
        f = random_function(g, rng)
        assert np.max(np.abs(fft_fast(f).values - dft_naive(f).values)) < 1e-9

    def test_plan_is_cached(self):
        g = make_group([8, 3])
        assert get_plan(g) is get_plan(make_group([8, 3]))

    def test_rejects_wrong_length(self):
        g = make_group([4, 2])
        with pytest.raises(ValueError):
            GroupFunction(g, np.ones(7))

    def test_rejects_nonfinite(self):
        # the shared type takes any values; the oracle entry points check them
        g = make_group([4])
        bad = GroupFunction(g, [1.0, np.nan, 0.0, 0.0])
        good = GroupFunction(g, np.ones(4))
        for call in (
            lambda: dft_naive(bad),
            lambda: fft_fast(bad),
            lambda: inverse_fft(bad),
            lambda: convolve(bad, good),
            lambda: convolve(good, bad),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                call()

    def test_trivial_group(self):
        g = make_group([])
        out = fft_fast(GroupFunction(g, [3.5 + 1j]))
        np.testing.assert_allclose(out.values, [3.5 + 1j])


class TestRealInput:
    # at a real character, the transform of a real function is real
    @pytest.mark.parametrize("spec", ["12,10", "6,6,2", "4099"])
    def test_exactly_real_at_real_characters(self, spec):
        g = parse_group_spec(spec)
        mask = real_character_mask(g)
        rng = np.random.default_rng(41)
        for _ in range(5):
            out = fft_fast(GroupFunction(g, rng.standard_normal(g.size))).values
            assert np.all(out.imag[mask] == 0.0)
            assert np.all(out.imag[~mask] != 0.0)

    @pytest.mark.parametrize("spec", ["12,10", "6,6,2"])
    def test_complex_input_left_untouched(self, spec):
        g = parse_group_spec(spec)
        mask = real_character_mask(g)
        f = random_function(g, np.random.default_rng(43))
        fast = fft_fast(f).values
        naive = dft_naive(f).values
        assert np.all(fast.imag[mask] != 0.0)
        assert np.max(np.abs(fast[mask] - naive[mask])) < 1e-12 * max(1.0, np.max(np.abs(naive)))


HADAMARD_GROUPS = [f"2^{n}" for n in range(1, 13)] + [
    "2,2,3,2,2,2",
    "4,2,2",
    "2^4,3",
    "2,4,2,2,8",
    "3,2^16",
]


class TestHadamardBlocks:
    @pytest.mark.parametrize("spec", HADAMARD_GROUPS)
    def test_matches_ifftn_and_naive(self, spec):
        g = parse_group_spec(spec)
        rng = np.random.default_rng(47)
        for real in (False, True):
            vals = rng.standard_normal(g.size)
            if not real:
                vals = vals + 1j * rng.standard_normal(g.size)
            fast = get_plan(g).forward(vals.astype(complex))
            ref = np.fft.ifftn(vals.reshape(g.orders), norm="forward").ravel()
            assert np.max(np.abs(fast - ref)) <= 1e-9 * np.max(np.abs(ref))
            if g.size <= 512:
                naive = dft_naive(GroupFunction(g, vals)).values
                assert np.max(np.abs(fast - naive)) <= 1e-9 * np.max(np.abs(naive))

    @pytest.mark.parametrize("spec", HADAMARD_GROUPS)
    def test_real_input_exactly_real(self, spec):
        g = parse_group_spec(spec)
        mask = real_character_mask(g)
        real = np.random.default_rng(53).standard_normal(g.size)
        out = get_plan(g).forward(real.astype(complex))
        assert np.all(out.imag[mask] == 0.0)
        assert not np.any(np.signbit(out.imag[mask]))

    @pytest.mark.parametrize(
        "spec, steps",
        [
            ("2", ["H2"]),
            ("2^2", ["H4"]),
            ("2^5", ["H32"]),
            ("2^6", ["H8", "H8"]),
            ("2^7", ["H16", "H8"]),
            ("2^11", ["H16", "H16", "H8"]),
            ("3,2^16", [3, "H16", "H16", "H16", "H16"]),
            ("2,4,2,2,8", ["H2", 4, "H4", 8]),
            ("4,2,5", [4, "H2", 5]),
            ("4,3", [4, 3]),
        ],
    )
    def test_runs_of_order_two_become_blocks(self, spec, steps):
        # "H<n>" is an n x n Hadamard block; a number is one factor's own step
        plan = get_plan(parse_group_spec(spec))
        assert [d if h is None else f"H{d}" for d, h in plan._steps] == steps
        assert all(h is None or h.shape == (d, d) for d, h in plan._steps)

    def test_matrices_are_read_only_character_tables(self):
        assert len(fourier._HADAMARD) == 6
        for m, h in enumerate(fourier._HADAMARD):
            n = 1 << m
            assert h.shape == (n, n) and h.dtype == np.float64
            assert not h.flags.writeable
            assert np.array_equal(h @ h.T, n * np.eye(n))
            t = np.arange(n)
            parity = np.vectorize(lambda v: bin(v).count("1") % 2)(t[:, None] & t[None, :])
            assert np.array_equal(h, 1.0 - 2.0 * parity)

    def test_plans_share_the_matrices(self):
        a = TransformPlan(parse_group_spec("2^7"))
        b = TransformPlan(parse_group_spec("3,2^4,5,2^3"))
        blocks = [h for plan in (a, b) for _, h in plan._steps if h is not None]
        assert len(blocks) == 4
        for h in blocks:
            assert any(h is shared for shared in fourier._HADAMARD)
        assert a._steps[0][1] is b._steps[1][1]


@st.composite
def small_groups(draw, max_size=512):
    """Cyclic orders 2..12 with product <= max_size: the longest prefix that fits."""
    orders = []
    for d in draw(st.lists(st.integers(2, 12), max_size=9)):
        if math.prod(orders) * d > max_size:
            break
        orders.append(d)
    return make_group(orders)


class TestRandomGroups:
    @settings(max_examples=60, deadline=None)
    @given(g=small_groups(), real=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_fast_matches_naive_and_inverts(self, g, real, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(g.size)
        if not real:
            vals = vals + 1j * rng.standard_normal(g.size)
        f = GroupFunction(g, vals)
        fast = fft_fast(f)
        assert np.max(np.abs(fast.values - dft_naive(f).values)) < 1e-9
        assert np.max(np.abs(inverse_fft(fast).values - f.values)) < 1e-12

    # draws with a lone order-2 factor run it through the 2 x 2 Hadamard block
    @settings(max_examples=60, deadline=None)
    @given(g=small_groups(), seed=st.integers(0, 2**32 - 1))
    @example(g=make_group([4, 2, 5]), seed=0)
    def test_convolution_theorem(self, g, seed):
        rng = np.random.default_rng(seed)
        f1, f2 = random_function(g, rng), random_function(g, rng)
        lhs = fft_fast(convolve(f1, f2)).values
        rhs = fft_fast(f1).values * fft_fast(f2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))

    @settings(max_examples=60, deadline=None)
    @given(g=small_groups())
    def test_involutions_equal_real_characters(self, g):
        # both counted on the oracle's tuple model: a real character's row of
        # the exact table has every imaginary part exactly 0
        e = identity(g)
        involutions = sum(mul(g, a, a) == e for a in elements(g))
        real = int(np.sum(~character_table(g).imag.any(axis=1)))
        assert involutions == real == involution_count(g) == int(real_character_mask(g).sum())

    # size 64: restrict_to_involutions works in Fractions, quadratic in N
    @settings(max_examples=60, deadline=None)
    @given(g=small_groups(64))
    def test_every_involution_character_extends_equally(self, g):
        # |A| restriction classes of N/|A| characters each, as oracle.selftest counts
        a = involution_subgroup(g)
        classes = collections.Counter(
            restrict_to_involutions(g, character_from_index(g, i)).phases for i in range(g.size)
        )
        assert len(classes) == len(a) == involution_count(g)
        assert set(classes.values()) == {g.size // len(a)}


class TestInverse:
    def test_round_trip_delta(self):
        g = make_group([4, 2, 5])
        vals = np.zeros(40)
        vals[17] = 1.0
        back = inverse_fft(fft_fast(GroupFunction(g, vals)))
        assert np.max(np.abs(back.values - vals)) < 1e-12

    @pytest.mark.parametrize("spec", ORACLE_GROUPS)
    def test_round_trip_random(self, spec):
        g = parse_group_spec(spec)
        rng = np.random.default_rng(7)
        f = random_function(g, rng)
        back = inverse_fft(fft_fast(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-9

    def test_constant_transform_is_delta(self):
        g = make_group([8, 3])
        out = inverse_fft(GroupFunction(g, np.ones(24)))
        expected = np.zeros(24)
        expected[0] = 1.0
        np.testing.assert_allclose(out.values, expected, atol=1e-12)


class TestProperties:
    @pytest.mark.parametrize("spec", ORACLE_GROUPS)
    def test_parseval(self, spec):
        g = parse_group_spec(spec)
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = random_function(g, rng)
            fhat = fft_fast(f)
            lhs = np.sum(np.abs(fhat.values) ** 2)
            rhs = g.size * np.sum(np.abs(f.values) ** 2)
            assert abs(lhs - rhs) < 1e-9 * rhs

    def test_linearity(self):
        g = make_group([4, 2, 5])
        rng = np.random.default_rng(13)
        f1, f2 = random_function(g, rng), random_function(g, rng)
        a, b = 0.7 - 0.2j, -1.1 + 0.4j
        combo = fft_fast(GroupFunction(g, a * f1.values + b * f2.values))
        expected = a * fft_fast(f1).values + b * fft_fast(f2).values
        assert np.max(np.abs(combo.values - expected)) < 1e-9 * max(1.0, np.max(np.abs(expected)))

    def test_walsh_hadamard_speed(self):
        g = parse_group_spec("2^18")
        rng = np.random.default_rng(3)
        f = random_function(g, rng)
        get_plan(g)  # plan construction excluded, matching reuse across trials
        start = time.perf_counter()
        fft_fast(f)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"transform took {elapsed:.2f}s"


class TestConvolution:
    def test_delta_convolution(self):
        g = make_group([4, 2])
        ia, ib = 3, 5
        fa = np.zeros(8)
        fa[ia] = 1.0
        fb = np.zeros(8)
        fb[ib] = 1.0
        out = convolve(GroupFunction(g, fa), GroupFunction(g, fb))
        iab = element_index(g, mul(g, element_from_index(g, ia), element_from_index(g, ib)))
        expected = np.zeros(8)
        expected[iab] = 1.0
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_identity_delta_is_neutral(self):
        g = make_group([8, 3])
        rng = np.random.default_rng(17)
        f = random_function(g, rng)
        delta = np.zeros(24)
        delta[0] = 1.0
        out = convolve(f, GroupFunction(g, delta))
        np.testing.assert_allclose(out.values, f.values, atol=1e-12)

    def test_convolution_theorem(self):
        g = make_group([6])
        rng = np.random.default_rng(19)
        f1, f2 = random_function(g, rng), random_function(g, rng)
        lhs = fft_fast(convolve(f1, f2)).values
        rhs = fft_fast(f1).values * fft_fast(f2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_theorem_on_small_suite(self):
        rng = np.random.default_rng(23)
        for spec in ORACLE_GROUPS:
            g = parse_group_spec(spec)
            f1, f2 = random_function(g, rng), random_function(g, rng)
            lhs = fft_fast(convolve(f1, f2)).values
            rhs = fft_fast(f1).values * fft_fast(f2).values
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_group_mismatch(self):
        f1 = GroupFunction(make_group([4]), np.ones(4))
        f2 = GroupFunction(make_group([2, 2]), np.ones(4))
        with pytest.raises(ValueError):
            convolve(f1, f2)
