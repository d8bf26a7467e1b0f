import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodetic.rng import BLOCK, MASK64, SplitMix64, stream_seed
from helpers import ScalarSplitMix64

# bounds just above 2^63 reject about half of all outputs
HALF_REJECTED = st.integers((1 << 63) + 1, (1 << 63) + 1000)
BOUNDS = st.one_of(st.integers(1, 100), st.integers(1, MASK64), HALF_REJECTED)
# a run of one kind of draw; runs of up to 600 outputs cross block boundaries
DRAWS = st.one_of(
    st.tuples(st.just("next_u64"), st.integers(1, 600)),
    st.tuples(st.just("uniform"), st.integers(1, 300)),
    st.tuples(st.just("randrange"), st.lists(BOUNDS, min_size=1, max_size=40)),
    st.tuples(st.just("array"), st.lists(BOUNDS, max_size=600)),
)


def draw_both(fast: SplitMix64, ref: ScalarSplitMix64, kind: str, arg):
    """The same run of draws from the block stream and the scalar reference."""
    if kind == "next_u64":
        return [fast.next_u64() for _ in range(arg)], [ref.next_u64() for _ in range(arg)]
    if kind == "uniform":
        return [fast.uniform() for _ in range(arg)], [ref.uniform() for _ in range(arg)]
    if kind == "randrange":
        return [fast.randrange(b) for b in arg], [ref.randrange(b) for b in arg]
    return (fast.randrange_array(np.array(arg, dtype=np.uint64)).tolist(),
            [ref.randrange(b) for b in arg])


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        # published outputs of the reference implementation
        r = SplitMix64(0)
        assert r.next_u64() == 0xE220A8397B1DCDAF
        assert r.next_u64() == 0x6E789E6AA1B965F4
        assert r.next_u64() == 0x06C45D188009454F

    def test_same_seed_same_stream(self):
        a = SplitMix64(987654321)
        b = SplitMix64(987654321)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_randrange_in_bounds(self):
        r = SplitMix64(7)
        for _ in range(200):
            assert 0 <= r.randrange(13) < 13

    def test_randrange_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randrange(0)

    def test_uniform_in_unit_interval(self):
        r = SplitMix64(3)
        values = [r.uniform() for _ in range(100)]
        assert all(0.0 <= x < 1.0 for x in values)
        assert len(set(values)) > 90  # draws should rarely repeat


class TestBlockStream:
    """The block stream against the one-output-at-a-time recurrence."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, MASK64), st.lists(DRAWS, max_size=8))
    def test_matches_the_scalar_recurrence(self, seed, draws):
        fast, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        for kind, arg in draws:
            got, want = draw_both(fast, ref, kind, arg)
            assert got == want, kind
        assert fast.next_u64() == ref.next_u64()  # both stopped at one place

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_half_rejected_array_draws_cross_blocks(self, seed):
        fast, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        fast.next_u64(), ref.next_u64()  # start inside a block
        bounds = [(1 << 63) + 1] * (3 * BLOCK) + [7] * BLOCK
        got, want = draw_both(fast, ref, "array", bounds)
        assert got == want
        assert fast.next_u64() == ref.next_u64()

    def test_array_draw_is_uint64_in_bounds(self):
        bounds = np.array([1, 2, 3, 1 << 40, MASK64], dtype=np.uint64)
        out = SplitMix64(5).randrange_array(bounds)
        assert out.dtype == np.uint64
        assert (out < bounds).all()
        assert len(SplitMix64(5).randrange_array(np.array([], dtype=np.uint64))) == 0

    def test_array_draw_rejects_a_zero_bound(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randrange_array(np.array([3, 0], dtype=np.uint64))


class TestStreamSeed:
    def test_attempt_zero_is_identity(self):
        assert stream_seed(12345, 0) == 12345

    def test_attempts_differ(self):
        seeds = {stream_seed(5, k) for k in range(10)}
        assert len(seeds) == 10

    def test_stays_in_64_bits(self):
        assert stream_seed(MASK64, 99) <= MASK64
