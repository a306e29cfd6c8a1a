import numpy as np
import pytest
from hypothesis import given, strategies as st

from scmkit.errors import InvalidArgumentError, ResourceLimitError
from scmkit.exogenous import (
    DigitStream,
    UniformStream,
    diagonal_position,
    inverse_cdf_sample,
    next_uniform,
    next_uniforms,
    split_streams,
    uniforms_at,
)

# The first seven rows of the diagonal position array.
DIAGONAL_ROWS = {
    1: [1, 3, 6, 10, 15, 21, 28],
    2: [2, 5, 9, 14, 20, 27],
    3: [4, 8, 13, 19, 26],
    4: [7, 12, 18, 25],
    5: [11, 17, 24],
    6: [16, 23],
    7: [22],
}


def champernowne_digit(n: int) -> int:
    """n-th digit (1-based) of 0.123456789101112..."""
    k, count, start = 1, 9, 1
    while n > k * count:
        n -= k * count
        k += 1
        count *= 10
        start *= 10
    num = start + (n - 1) // k
    return int(str(num)[(n - 1) % k])


class ChampernowneStream(DigitStream):
    def __init__(self):
        super().__init__(seed=0, base=10)

    def digit_at(self, position):
        return champernowne_digit(position)

    def digits_at(self, positions):
        return np.array([champernowne_digit(int(p)) for p in np.ravel(positions)])


class ZeroStream(DigitStream):
    def digit_at(self, position):
        return 0

    def digits_at(self, positions):
        return np.zeros(np.size(positions), dtype=np.int64)


class RecordingStream(DigitStream):
    """Remembers every digit position that was read."""

    def __init__(self, seed=1):
        super().__init__(seed)
        self.seen = []

    def digits_at(self, positions):
        self.seen.extend(int(p) for p in np.ravel(positions))
        return super().digits_at(positions)


def ks_distance_uniform(draws) -> float:
    x = np.sort(np.asarray(draws, dtype=float))
    n = len(x)
    grid = np.arange(n, dtype=float)
    return max(np.max((grid + 1.0) / n - x), np.max(x - grid / n))


class TestDiagonalPositions:
    def test_first_seven_rows_match_the_array(self):
        for row, expected in DIAGONAL_ROWS.items():
            got = [diagonal_position(row, c + 1) for c in range(len(expected))]
            assert got == expected

    def test_rows_partition_the_positive_integers(self):
        limit = 10_000
        seen = []
        row = 1
        while diagonal_position(row, 1) <= limit:
            col = 1
            while (p := diagonal_position(row, col)) <= limit:
                seen.append(p)
                col += 1
            row += 1
        assert sorted(seen) == list(range(1, limit + 1))

    def test_indices_are_one_based(self):
        with pytest.raises(InvalidArgumentError):
            diagonal_position(0, 1)
        with pytest.raises(InvalidArgumentError):
            diagonal_position(1, 0)


class TestSplitStreams:
    def test_single_stream_sits_on_row_one(self):
        (s,) = split_streams(DigitStream(7), 1)
        assert s.positions(4) == [1, 3, 6, 10]

    def test_streams_cover_distinct_rows(self):
        streams = split_streams(DigitStream(7), 5)
        assert [s.row for s in streams] == [1, 2, 3, 4, 5]
        all_positions = [p for s in streams for p in s.positions(100)]
        assert len(set(all_positions)) == len(all_positions)

    def test_zero_streams_rejected(self):
        with pytest.raises(InvalidArgumentError):
            split_streams(DigitStream(7), 0)

    def test_champernowne_first_draws(self):
        streams = split_streams(ChampernowneStream(), 3)
        for s in streams:
            s.precision = 3
        assert next_uniform(streams[0]) == pytest.approx(0.136, abs=1e-15)
        assert next_uniform(streams[1]) == pytest.approx(0.259, abs=1e-15)
        assert next_uniform(streams[2]) == pytest.approx(0.481, abs=1e-15)


class TestNextUniform:
    def test_all_zero_source_draws_zero(self):
        s = UniformStream(ZeroStream(0), row=1)
        assert next_uniform(s) == 0.0

    def test_consecutive_draws_use_fresh_increasing_positions(self):
        src = RecordingStream()
        s = UniformStream(src, row=2, precision=4)
        next_uniform(s)
        first = list(src.seen)
        next_uniform(s)
        second = src.seen[len(first):]
        assert first == [2, 5, 9, 14]
        assert second == [20, 27, 35, 44]
        assert max(first) < min(second)

    def test_batch_equals_repeated_single_draws(self):
        a = UniformStream(DigitStream(99), row=3)
        b = UniformStream(DigitStream(99), row=3)
        batch = next_uniforms(a, 50)
        singles = np.array([next_uniform(b) for _ in range(50)])
        assert np.array_equal(batch, singles)

    def test_draws_lie_in_unit_interval(self):
        s = UniformStream(DigitStream(5), row=1)
        u = next_uniforms(s, 1000)
        assert np.all((0.0 <= u) & (u < 1.0))

    def test_empirical_mean_near_half(self):
        s = split_streams(DigitStream(12345), 1)[0]
        u = next_uniforms(s, 100_000)
        assert abs(u.mean() - 0.5) < 0.005

    def test_empirical_distribution_is_uniform(self):
        s = split_streams(DigitStream(2024), 2)[1]
        u = next_uniforms(s, 100_000)
        assert ks_distance_uniform(u) < 0.01

    def test_scalar_and_vector_digit_paths_agree(self):
        src = DigitStream(31337)
        positions = np.arange(1, 2001)
        vec = src.digits_at(positions)
        scalars = [src.digit_at(int(p)) for p in positions]
        assert list(vec) == scalars


class TestDiagonalBound:
    """Positions m(m+1)/2 are computed in int64, which holds them while the
    diagonal index m = row + col - 1 stays at or below 3,037,000,499."""

    LAST = 3_037_000_499

    def test_last_representable_diagonal_reads_the_exact_positions(self):
        src = DigitStream(7)
        row, draw = 4, 189_812_530  # its 16th digit sits on diagonal LAST
        assert row + (draw + 1) * 16 - 1 == self.LAST
        digits = [src.digit_at(diagonal_position(row, draw * 16 + k)) for k in range(1, 17)]
        want = np.array(digits, dtype=np.int64) @ (10.0 ** -(1.0 + np.arange(16)))
        assert uniforms_at(src, row, draw, 1)[0] == want

    def test_one_past_the_last_diagonal_raises(self):
        src = DigitStream(7)
        assert 5 + (189_812_530 + 1) * 16 - 1 == self.LAST + 1
        with pytest.raises(ResourceLimitError):
            uniforms_at(src, 5, 189_812_530, 1)

    def test_far_draws_raise_instead_of_wrapping(self):
        with pytest.raises(ResourceLimitError):
            uniforms_at(DigitStream(7), 1, 200_000_000, 1)


class TestInverseCdfSample:
    def test_bernoulli(self):
        cdf = [(0, 0.7), (1, 1.0)]
        assert inverse_cdf_sample(cdf, 0.5) == 0
        assert inverse_cdf_sample(cdf, 0.8) == 1

    def test_point_mass(self):
        cdf = [("v", 1.0)]
        for u in (0.0, 0.25, 0.999):
            assert inverse_cdf_sample(cdf, u) == "v"

    def test_uniform_over_three_values(self):
        third = 1.0 / 3.0
        cdf = [(0, third), (1, 2 * third), (2, 1.0)]
        assert inverse_cdf_sample(cdf, 0.34) == 1

    def test_threshold_is_inclusive(self):
        cdf = [(0, 0.5), (1, 1.0)]
        assert inverse_cdf_sample(cdf, 0.5) == 0

    def test_decreasing_thresholds_rejected(self):
        with pytest.raises(InvalidArgumentError):
            inverse_cdf_sample([(0, 0.9), (1, 0.4), (2, 1.0)], 0.5)

    def test_final_threshold_must_reach_one(self):
        with pytest.raises(InvalidArgumentError):
            inverse_cdf_sample([(0, 0.4), (1, 0.9)], 0.5)

    @given(
        weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_matches_linear_scan(self, weights, u):
        total = sum(weights)
        acc, cdf = 0.0, []
        for i, w in enumerate(weights):
            acc += w / total
            cdf.append((i, min(acc, 1.0)))
        cdf[-1] = (cdf[-1][0], 1.0)
        expected = next(x for x, thr in cdf if thr >= u)
        assert inverse_cdf_sample(cdf, u) == expected

    def test_sampled_frequencies_follow_the_cdf(self):
        cdf = [(0, 0.2), (1, 0.7), (2, 1.0)]
        probs = {0: 0.2, 1: 0.5, 2: 0.3}
        s = split_streams(DigitStream(777), 1)[0]
        u = next_uniforms(s, 100_000)
        values = np.searchsorted([0.2, 0.7, 1.0], u, side="left")
        for x, p in probs.items():
            freq = np.mean(values == x)
            se = (p * (1 - p) / len(u)) ** 0.5
            assert abs(freq - p) <= 3 * se
        # spot-check that searchsorted is the same generalized inverse
        for ui in u[:200]:
            assert inverse_cdf_sample(cdf, float(ui)) == int(
                np.searchsorted([0.2, 0.7, 1.0], ui, side="left")
            )
