"""Deterministic uniform draws on disjoint rows of one digit source.

One seeded digit source yields countably many mutually independent
uniform streams: stream ``j`` reads the digits sitting at the positions
of row ``j`` of the diagonal array

    1  3  6 10 15 21 28 ...
    2  5  9 14 20 27 ...
    4  8 13 19 26 ...
    7 12 18 25 ...

so distinct streams never touch the same digit.  A draw concatenates a
fixed number of digits into a base-``b`` fraction in [0, 1), and
:func:`uniforms_at` reads any run of draws of a row directly from its
index.  Samplers turn each draw into a value through the generalized
inverse ``min{x : F(x) >= u}``.
"""

from __future__ import annotations

import functools

from .errors import InvalidArgumentError, ResourceLimitError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Largest diagonal index m with m(m+1) < 2**63, so positions fit in int64.
_MAX_DIAGONAL = 3_037_000_499


class DigitStream:
    """Counter-based pseudo-random digit source.

    The digit at position ``n`` is a pure function of ``(seed, base, n)``
    (a SplitMix64-style bijective mix of the position), so any position
    can be evaluated independently and out of order.
    """

    def __init__(self, seed: int, base: int = 10):
        if base < 2:
            raise InvalidArgumentError(f"base must be >= 2, got {base}")
        if seed < 0:
            raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
        self.seed = seed & _MASK64
        self.base = base

    def digit_at(self, position: int) -> int:
        """Digit in [0, base) at the given 1-based position."""
        z = (self.seed + position * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z = z ^ (z >> 31)
        return z % self.base

    def digits_at(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`digit_at` over an array of positions."""
        import numpy as np

        # In place, so a call holds one temporary besides its result.
        z = np.asarray(positions, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(self.seed)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z %= np.uint64(self.base)
        return z.view(np.int64)


def _check_draws(row: int, first_draw: int, n: int, precision: int) -> None:
    if row < 1 or first_draw < 0 or n < 0 or precision < 1:
        raise InvalidArgumentError(
            "need row >= 1, first_draw >= 0, n >= 0 and precision >= 1, got "
            f"row={row}, first_draw={first_draw}, n={n}, precision={precision}"
        )
    if n and row + (first_draw + n) * precision - 1 > _MAX_DIAGONAL:
        raise ResourceLimitError(
            f"draws up to {first_draw + n} of row {row} pass digit diagonal {_MAX_DIAGONAL}"
        )


@functools.lru_cache(maxsize=8)
def draw_weights(base: int, precision: int) -> tuple:
    """Weight base**-(c+1) of digit c of a draw, correctly rounded.

    Exact integer division rounds once, so the weights, and with them every
    draw, are the same on every host (numpy's SIMD ``power`` can return
    10**-5 one ulp low).
    """
    return tuple(1 / base ** (c + 1) for c in range(precision))


def uniforms_at(
    source: DigitStream, row: int, first_draw: int, n: int, precision: int = 16
) -> np.ndarray:
    """Draws number first_draw .. first_draw+n-1 (0-based) of a diagonal row.

    Draw k reads the `precision` digits at columns k*precision+1 ..
    (k+1)*precision of the row.  Pure in (source, row, draw index): any
    draw can be reproduced without replaying the ones before it.
    """
    import numpy as np

    _check_draws(row, first_draw, n, precision)
    if n == 0:
        return np.empty(0)
    # Digit c of draw i lies on diagonal m = row + (first_draw+i)*precision + c,
    # at position m(m+1)/2 - (row-1); one draw per column, in place.
    start = first_draw * precision + row
    pos = np.arange(precision, dtype=np.uint64)[:, None] + np.arange(
        start, start + n * precision, precision, dtype=np.uint64
    )
    pos *= pos + np.uint64(1)
    pos //= np.uint64(2)
    pos -= np.uint64(row - 1)
    digits = source.digits_at(pos).reshape(precision, n)
    # A fixed summation order fixes every rounding, so a draw depends on its
    # index alone, not on n or the BLAS build.  It is the order of OpenBLAS's
    # one-row matrix product, which built the seeded tables.
    lanes = [np.zeros(n) for _ in range(4)]
    for col, weight in enumerate(draw_weights(source.base, precision)):
        lanes[col % 4] += digits[col] * weight
    return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])


def uniform_list(
    source: DigitStream, row: int, first_draw: int, n: int, precision: int = 16
) -> list:
    """:func:`uniforms_at` as a list of floats, computed without numpy.

    It reads the same digits through ``source.digit_at`` and sums them in
    the same lanes and order, so every draw is equal to the array's.
    """
    _check_draws(row, first_draw, n, precision)
    digit = source.digit_at
    weighted = tuple(enumerate(draw_weights(source.base, precision)))
    out = []
    for m in range(first_draw * precision + row, (first_draw + n) * precision + row, precision):
        lanes = [0.0, 0.0, 0.0, 0.0]
        for col, weight in weighted:
            d = m + col
            lanes[col % 4] += digit(d * (d + 1) // 2 - (row - 1)) * weight
        out.append((lanes[0] + lanes[2]) + (lanes[1] + lanes[3]))
    return out
