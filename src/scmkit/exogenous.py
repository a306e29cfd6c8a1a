"""Deterministic uniform streams and inverse-CDF sampling.

One seeded digit source yields countably many mutually independent
uniform streams: stream ``j`` reads the digits sitting at the positions
of row ``j`` of the diagonal array

    1  3  6 10 15 21 28 ...
    2  5  9 14 20 27 ...
    4  8 13 19 26 ...
    7 12 18 25 ...

so distinct streams never touch the same digit.  A draw concatenates a
fixed number of digits into a base-``b`` fraction in [0, 1).  Sampling
from a finite distribution is then the usual generalized inverse
``min{x : F(x) >= u}``.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Largest diagonal index m with m(m+1) < 2**63, so positions fit in int64.
_MAX_DIAGONAL = 3_037_000_499


def triangular(m: int) -> int:
    """m-th triangular number m(m+1)/2."""
    return m * (m + 1) // 2


def diagonal_position(row: int, col: int) -> int:
    """Digit position consumed by stream `row` at its `col`-th digit.

    Both indices are 1-based.  Row ``j`` occupies positions
    ``T(j+c-1) - (j-1)`` for c = 1, 2, ..., where T is the triangular
    number; rows partition the positive integers.
    """
    if row < 1 or col < 1:
        raise InvalidArgumentError(f"diagonal indices are 1-based, got ({row}, {col})")
    return triangular(row + col - 1) - (row - 1)


class DigitStream:
    """Counter-based pseudo-random digit source.

    The digit at position ``n`` is a pure function of ``(seed, base, n)``
    (a SplitMix64-style bijective mix of the position), so any position
    can be evaluated independently and out of order.  ``cursor`` counts
    digits handed out sequentially via :meth:`next_digit`.
    """

    def __init__(self, seed: int, base: int = 10):
        if base < 2:
            raise InvalidArgumentError(f"base must be >= 2, got {base}")
        if seed < 0:
            raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
        self.seed = seed & _MASK64
        self.base = base
        self.cursor = 0

    def digit_at(self, position: int) -> int:
        """Digit in [0, base) at the given 1-based position."""
        z = (self.seed + position * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z = z ^ (z >> 31)
        return z % self.base

    def digits_at(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`digit_at` over an array of positions."""
        pos = np.asarray(positions, dtype=np.uint64)
        z = np.uint64(self.seed) + pos * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        return (z % np.uint64(self.base)).astype(np.int64)

    def next_digit(self) -> int:
        self.cursor += 1
        return self.digit_at(self.cursor)


class UniformStream:
    """One row of the diagonal array, read ``precision`` digits at a time."""

    def __init__(self, source: DigitStream, row: int, precision: int = 16):
        if row < 1:
            raise InvalidArgumentError(f"row must be >= 1, got {row}")
        if precision < 1:
            raise InvalidArgumentError(f"precision must be >= 1, got {precision}")
        self.source = source
        self.row = row
        self.precision = precision
        self._col = 0  # digits of this row consumed so far

    def positions(self, count: int) -> list[int]:
        """The next `count` digit positions this stream would consume."""
        return [diagonal_position(self.row, self._col + i + 1) for i in range(count)]


def split_streams(source: DigitStream, k: int) -> list[UniformStream]:
    """k uniform streams over disjoint digit positions of one source."""
    if k < 1:
        raise InvalidArgumentError(f"need at least one stream, got k={k}")
    return [UniformStream(source, row) for row in range(1, k + 1)]


def next_uniform(stream: UniformStream) -> float:
    """Next draw in [0, 1); consumes `precision` digits of the stream's row."""
    return float(next_uniforms(stream, 1)[0])


def next_uniforms(stream: UniformStream, n: int) -> np.ndarray:
    """Batch of n draws; same digit consumption as n calls to next_uniform."""
    if n < 0:
        raise InvalidArgumentError(f"draw count must be >= 0, got {n}")
    draws = uniforms_at(
        stream.source, stream.row, stream._col // stream.precision, n, stream.precision
    )
    stream._col += n * stream.precision
    return draws


def uniforms_at(
    source: DigitStream, row: int, first_draw: int, n: int, precision: int = 16
) -> np.ndarray:
    """Draws number first_draw .. first_draw+n-1 (0-based) of a diagonal row.

    Pure in (source, row, draw index): any draw can be reproduced without
    replaying the ones before it.
    """
    if n == 0:
        return np.empty(0)
    if row + (first_draw + n) * precision - 1 > _MAX_DIAGONAL:
        raise ResourceLimitError(
            f"draws up to {first_draw + n} of row {row} pass digit diagonal {_MAX_DIAGONAL}"
        )
    cols = first_draw * precision + 1 + np.arange(n * precision, dtype=np.int64)
    m = row + cols - 1
    positions = m * (m + 1) // 2 - (row - 1)
    digits = source.digits_at(positions).reshape(n, precision)
    weights = float(source.base) ** -(1.0 + np.arange(precision))
    return digits @ weights


def inverse_cdf_sample(cdf: Sequence[tuple[object, float]], u: float) -> object:
    """Generalized inverse: the first value whose CDF threshold reaches u.

    `cdf` lists (value, F(value)) pairs in support order; the final
    threshold must be 1.  Returns min{x : F(x) >= u}.
    """
    if not cdf:
        raise InvalidArgumentError("empty cdf")
    thresholds = [t for _, t in cdf]
    for a, b in zip(thresholds, thresholds[1:]):
        if b < a:
            raise InvalidArgumentError("cdf thresholds must be non-decreasing")
    if abs(thresholds[-1] - 1.0) > 1e-9:
        raise InvalidArgumentError(f"final cdf threshold must be 1, got {thresholds[-1]!r}")
    if not 0.0 <= u < 1.0:
        raise InvalidArgumentError(f"u must lie in [0, 1), got {u!r}")
    idx = bisect.bisect_left(thresholds, u)
    if idx >= len(cdf):  # final threshold slightly below 1 within tolerance
        idx = len(cdf) - 1
    return cdf[idx][0]
