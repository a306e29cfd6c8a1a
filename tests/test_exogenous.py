import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scmkit.errors import InvalidArgumentError, ResourceLimitError
from scmkit import scm as scm_module
from scmkit.exogenous import DigitStream, _check_draws, draw_weights, uniform_list, uniforms_at
from scmkit.graph import Dag, topological_order
from scmkit.scm import _STDLIB_DRAWS, Cpt, Domain, Scm, _realize, sample

from structures import diagonal_position

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
    """Each row of the diagonal array is a stream over its own digits."""

    def test_single_stream_sits_on_row_one(self):
        src = RecordingStream()
        uniforms_at(src, 1, 0, 1, precision=4)
        assert src.seen == [1, 3, 6, 10]

    def test_streams_cover_distinct_rows(self):
        src = RecordingStream(7)
        for row in range(1, 6):
            uniforms_at(src, row, 0, 25, precision=4)
        assert len(src.seen) == 500
        assert len(set(src.seen)) == 500

    def test_zero_streams_rejected(self):
        # Row 0 does not exist; negative draw indices, counts and precisions
        # are rejected alike.
        bad = ((0, 0, 1, 16), (1, -1, 1, 16), (1, 0, -1, 16), (1, 0, 1, 0))
        for row, first_draw, n, precision in bad:
            with pytest.raises(InvalidArgumentError):
                uniforms_at(DigitStream(7), row, first_draw, n, precision)

    def test_champernowne_first_draws(self):
        src = ChampernowneStream()
        first = [uniforms_at(src, row, 0, 1, precision=3)[0] for row in (1, 2, 3)]
        assert first == pytest.approx([0.136, 0.259, 0.481], abs=1e-15)


class TestNextUniform:
    """Draws along one row, read by index through uniforms_at."""

    def test_all_zero_source_draws_zero(self):
        assert uniforms_at(ZeroStream(0), 1, 0, 1)[0] == 0.0

    def test_consecutive_draws_use_fresh_increasing_positions(self):
        src = RecordingStream()
        uniforms_at(src, 2, 0, 1, precision=4)
        first = list(src.seen)
        uniforms_at(src, 2, 1, 1, precision=4)
        second = src.seen[len(first):]
        assert first == [2, 5, 9, 14]
        assert second == [20, 27, 35, 44]
        assert max(first) < min(second)

    def test_batch_equals_repeated_single_draws(self):
        src = DigitStream(99)
        batch = uniforms_at(src, 3, 0, 50)
        singles = np.array([uniforms_at(src, 3, i, 1)[0] for i in range(50)])
        assert np.array_equal(batch, singles)
        assert np.array_equal(batch[20:], uniforms_at(src, 3, 20, 30))
        # Every batch size, last bit included (seed 11 tells sizes 18 and 19
        # apart when the digits are summed by a matrix product).
        src = DigitStream(11)
        singles = np.array([uniforms_at(src, 1, i, 1)[0] for i in range(40)])
        for n in range(1, 41):
            assert np.array_equal(uniforms_at(src, 1, 0, n), singles[:n]), n

    def test_draws_lie_in_unit_interval(self):
        u = uniforms_at(DigitStream(5), 1, 0, 1000)
        assert np.all((0.0 <= u) & (u < 1.0))

    def test_empirical_mean_near_half(self):
        u = uniforms_at(DigitStream(12345), 1, 0, 100_000)
        assert abs(u.mean() - 0.5) < 0.005

    def test_empirical_distribution_is_uniform(self):
        u = uniforms_at(DigitStream(2024), 2, 0, 100_000)
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
        got = uniforms_at(src, row, draw, 1)[0]
        # uniform_list finds the positions in Python ints, which cannot wrap.
        assert [got] == uniform_list(src, row, draw, 1)
        digits = [src.digit_at(diagonal_position(row, draw * 16 + k)) for k in range(1, 17)]
        exact = sum(Fraction(d, 10 ** (k + 1)) for k, d in enumerate(digits))
        # Each weight and product rounds once and each term passes through at
        # most five additions, so the draw is within 7 units of 2**-53 of the
        # exact sum; the bound leaves one more for second-order terms.
        assert abs(Fraction(got) - exact) <= exact * Fraction(8, 2**53)

    def test_one_past_the_last_diagonal_raises(self):
        src = DigitStream(7)
        assert 5 + (189_812_530 + 1) * 16 - 1 == self.LAST + 1
        with pytest.raises(ResourceLimitError):
            uniforms_at(src, 5, 189_812_530, 1)

    def test_far_draws_raise_instead_of_wrapping(self):
        with pytest.raises(ResourceLimitError):
            uniforms_at(DigitStream(7), 1, 200_000_000, 1)

    def test_the_count_alone_can_pass_the_last_diagonal(self):
        # From draw 0, n draws of row 5 end one diagonal past the last.  The
        # check runs before anything is allocated, so the count costs nothing.
        n = 189_812_531
        assert 4 + n * 16 - 1 == self.LAST
        _check_draws(4, 0, n, 16)
        with pytest.raises(ResourceLimitError) as info:
            _check_draws(5, 0, n, 16)
        assert str(info.value) == f"draws up to {n} of row 5 pass digit diagonal {self.LAST}"


class TestDrawWeights:
    # 10**-5 as numpy's AVX-512 power kernel returns it: one ulp low.
    SIMD_TENTH_POWER_5 = float.fromhex("0x1.4f8b588e368f0p-17")

    def test_weights_are_correctly_rounded(self):
        for base, precision in ((10, 16), (2, 60), (3, 40), (16, 8)):
            want = tuple(float(Fraction(1, base ** (c + 1))) for c in range(precision))
            assert draw_weights(base, precision) == want
        assert draw_weights(10, 16)[4].hex() == "0x1.4f8b588e368f1p-17"

    def test_pinned_draw_that_simd_weights_moved(self):
        src = DigitStream(0)
        want = float.fromhex("0x1.4f484768c799cp-14")  # 0.0000799375390099
        assert uniforms_at(src, 1, 6940, 1)[0] == want
        assert uniform_list(src, 1, 6940, 1) == [want]
        simd = list(draw_weights(10, 16))
        simd[4] = self.SIMD_TENTH_POWER_5
        lanes = [0.0] * 4
        for c, w in enumerate(simd):
            lanes[c % 4] += src.digit_at(diagonal_position(1, 6940 * 16 + c + 1)) * w
        assert (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]) == float.fromhex(
            "0x1.4f484768c799bp-14"
        )


class TestUniformList:
    """The stdlib draws equal the numpy ones, draw for draw."""

    @pytest.mark.parametrize(
        "seed, base, row, first_draw, n, precision",
        [
            (0, 10, 1, 0, 2000, 16),
            (2**64 - 1, 10, 3, 6900, 100, 16),
            (99, 10, 7, 123_456, 64, 16),
            (5, 2, 2, 10, 300, 53),
            (11, 3, 4, 0, 200, 7),
            (12345, 16, 1, 0, 200, 1),
        ],
    )
    def test_equals_uniforms_at(self, seed, base, row, first_draw, n, precision):
        src = DigitStream(seed, base)
        want = uniforms_at(src, row, first_draw, n, precision).tolist()
        assert uniform_list(src, row, first_draw, n, precision) == want

    def test_reads_digits_through_digit_at(self):
        src = ChampernowneStream()
        first = [uniform_list(src, row, 0, 1, precision=3)[0] for row in (1, 2, 3)]
        assert first == [uniforms_at(src, row, 0, 1, precision=3)[0] for row in (1, 2, 3)]
        assert uniform_list(ZeroStream(0), 2, 5, 3) == [0.0] * 3
        assert uniform_list(DigitStream(1), 1, 0, 0) == []

    def test_rejects_what_uniforms_at_rejects(self):
        bad = ((0, 0, 1, 16), (1, -1, 1, 16), (1, 0, -1, 16), (1, 0, 1, 0))
        for row, first_draw, n, precision in bad:
            with pytest.raises(InvalidArgumentError):
                uniform_list(DigitStream(7), row, first_draw, n, precision)
        with pytest.raises(ResourceLimitError):
            uniform_list(DigitStream(7), 5, 189_812_530, 1)
        assert uniform_list(DigitStream(7), 4, 189_812_530, 1) == uniforms_at(
            DigitStream(7), 4, 189_812_530, 1
        ).tolist()


def one_node(row, values=None) -> Scm:
    """A parentless node A with the given table row."""
    values = tuple(range(len(row))) if values is None else values
    return Scm(Dag(["A"], []), {"A": Domain("A", values)}, {"A": Cpt("A", (), {(): row})})


class ConstantStream(DigitStream):
    """Every digit is `digit`, so every draw is 0.ddd...d."""

    def __init__(self, digit):
        super().__init__(0)
        self.digit = digit

    def digit_at(self, position):
        return self.digit

    def digits_at(self, positions):
        return np.full(np.size(positions), self.digit, dtype=np.int64)


class HalfStream(DigitStream):
    """Digit 5 at position 1 and 0 elsewhere: the first draw of row 1 is 0.5."""

    def digit_at(self, position):
        return 5 if position == 1 else 0

    def digits_at(self, positions):
        return np.where(np.asarray(positions) == 1, 5, 0)


@st.composite
def small_models(draw) -> Scm:
    """Up to four nodes over one to three string values, with zero cells
    and either float or Fraction tables."""
    n = draw(st.integers(1, 4))
    names = [f"V{i}" for i in range(n)]
    edges = [(a, b) for a, b in itertools.combinations(names, 2) if draw(st.booleans())]
    dag = Dag(names, edges)
    domains = {
        name: Domain(name, tuple("abc"[: draw(st.integers(1, 3))])) for name in names
    }
    exact = draw(st.booleans())
    cpts = {}
    for name in names:
        parents = tuple(dag.parents(name))
        k = len(domains[name].values)
        table = {}
        for cfg in itertools.product(*(domains[p].values for p in parents)):
            weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
            total = sum(weights)
            table[cfg] = tuple(Fraction(w, total) if exact else w / total for w in weights)
        cpts[name] = Cpt(name, parents, table)
    return Scm(dag, domains, cpts)


def realize_on(path: str, scm: Scm, order, seed: int, start: int, count: int) -> dict:
    """`_realize` forced onto the stdlib or the numpy path."""
    cutoff = 1 << 62 if path == "stdlib" else 0
    with mock.patch.object(scm_module, "_STDLIB_DRAWS", cutoff):
        return _realize(scm, order, DigitStream(seed), start, count)


def three_node_model() -> Scm:
    """A -> B -> C and A -> C with Fraction and float rows and zero cells."""
    dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
    domains = {"A": Domain("A", ("x", "y", "z")), "B": Domain("B", (0, 1)),
               "C": Domain("C", (0, 1, 2))}
    third = Fraction(1, 3)
    cpts = {
        "A": Cpt("A", (), {(): (third, Fraction(0), 2 * third)}),
        "B": Cpt("B", ("A",), {("x",): (0.3, 0.7), ("y",): (1.0, 0.0), ("z",): (0.1, 0.9)}),
        "C": Cpt("C", ("A", "B"), {
            (a, b): ((0.2, 0.0, 0.8) if b else (third, third, third)) for a in "xyz" for b in (0, 1)
        }),
    }
    return Scm(dag, domains, cpts)


def reference_rows(scm: Scm, seed: int, rows) -> list:
    """The documented sampler, one digit and one cell at a time.

    Node j of the topological order reads draw i of diagonal row j+1 as the
    exact decimal 0.d1...d16 and takes the first value whose exact CDF
    reaches it.  A row is None when a draw lies within 1e-12 of a
    threshold, where the float sampler's rounding decides.
    """
    src = DigitStream(seed)
    order = topological_order(scm.dag)
    out = []
    for i in rows:
        values = {}
        for j, node in enumerate(order):
            digits = [src.digit_at(diagonal_position(j + 1, 16 * i + c)) for c in range(1, 17)]
            u = Fraction(int("".join(map(str, digits))), 10**16)
            cpt = scm.cpts[node]
            row = cpt.table[tuple(values[p] for p in cpt.parents)]
            cdf = list(itertools.accumulate(Fraction(p) for p in row))
            if any(abs(u - t) < 1e-12 for t in cdf):
                values = None
                break
            hit = next((k for k, t in enumerate(cdf) if t >= u), len(cdf) - 1)
            values[node] = scm.domains[node].values[hit]
        out.append(None if values is None else tuple(values[nd] for nd in order))
    return out


class TestInverseCdfSample:
    """sample maps each draw u to min{x : F(x) >= u} of the node's table row."""

    def test_bernoulli(self):
        scm = one_node((0.7, 0.3))
        assert sample(scm, ConstantStream(5), 3).rows == [(0,)] * 3
        assert sample(scm, ConstantStream(8), 3).rows == [(1,)] * 3

    def test_point_mass(self):
        scm = one_node((1.0,), ("v",))
        for digit in (0, 2, 9):
            assert sample(scm, ConstantStream(digit), 2).rows == [("v",)] * 2

    def test_uniform_over_three_values(self):
        scm = one_node((1 / 3, 1 / 3, 1 / 3))
        assert sample(scm, ConstantStream(4), 1).rows == [(1,)]
        assert sample(scm, ConstantStream(7), 1).rows == [(2,)]

    def test_threshold_is_inclusive(self):
        assert uniforms_at(HalfStream(0), 1, 0, 1)[0] == 0.5
        assert sample(one_node((0.5, 0.5)), HalfStream(0), 1).rows == [(0,)]

    @settings(max_examples=60, deadline=None)
    @given(
        scm=small_models(),
        seed=st.integers(0, 2**40),
        n=st.integers(0, 10),
        start=st.integers(0, 5000),
    )
    def test_matches_linear_scan(self, scm, seed, n, start):
        got = sample(scm, DigitStream(seed), n)
        order = topological_order(scm.dag)
        assert got.columns == tuple(order)
        assert len(got.rows) == n
        for have, want in zip(got.rows, reference_rows(scm, seed, range(n))):
            assert want is None or have == want
        # A block further down the population, as case-control reads it.
        block = _realize(scm, order, DigitStream(seed), start, n)
        have_rows = list(zip(*(block[nd] for nd in order)))
        assert len(have_rows) == n
        for have, want in zip(have_rows, reference_rows(scm, seed, range(start, start + n))):
            assert want is None or have == want

    @settings(max_examples=60, deadline=None)
    @given(
        scm=small_models(),
        seed=st.integers(0, 2**40),
        n=st.integers(0, 40),
        start=st.integers(0, 5000),
    )
    def test_both_paths_give_equal_rows(self, scm, seed, n, start):
        order = topological_order(scm.dag)
        stdlib = realize_on("stdlib", scm, order, seed, start, n)
        assert realize_on("numpy", scm, order, seed, start, n) == stdlib
        # A longer run keeps these rows as its prefix, on either path.
        longer = realize_on("numpy", scm, order, seed, start, n + 7)
        assert {nd: col[:n] for nd, col in longer.items()} == stdlib

    @pytest.mark.parametrize("start", [0, 4093, 250_000])
    def test_counts_either_side_of_the_cutoff(self, start):
        scm = three_node_model()
        order = topological_order(scm.dag)
        edge = _STDLIB_DRAWS // len(order)
        widest = _realize(scm, order, DigitStream(17), start, edge + 2)
        for count in (edge - 1, edge, edge + 1, edge + 2):
            got = _realize(scm, order, DigitStream(17), start, count)
            assert got == {nd: col[:count] for nd, col in widest.items()}
            assert got == realize_on("numpy", scm, order, 17, start, count)
            assert got == realize_on("stdlib", scm, order, 17, start, count)

    def test_sampled_frequencies_follow_the_cdf(self):
        probs = (0.2, 0.5, 0.3)
        data = sample(one_node(probs), DigitStream(777), 100_000)
        values = np.array(data.column("A"))
        for x, p in enumerate(probs):
            freq = np.mean(values == x)
            se = (p * (1 - p) / len(values)) ** 0.5
            assert abs(freq - p) <= 3 * se
