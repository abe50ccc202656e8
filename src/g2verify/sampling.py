"""Deterministic small-rational sampling for reproducible spot checks.

All pseudo-random data in the package flows through this module, seeded
explicitly, so that reports and tests are bit-for-bit reproducible.
Sampled rationals have numerator and denominator of height at most 10.
The package takes each draw as its (numerator, denominator) pair, and
`cleared` turns a list of pairs into integers in the same proportions,
so no sampled point holds a Fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence


class SmallRationalSampler:
    """A seeded stream of small exact rationals (heights <= 10)."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def ratio(self) -> tuple[int, int]:
        """The next draw as (numerator, denominator), unreduced, denominator
        positive: callers that clear denominators take it without a Fraction.
        The two are drawn as `randint(-10, 10)` and `randint(1, 10)` draw,
        by rejection on 5 and 4 random bits, so the stream is theirs."""
        bits = self._rng.getrandbits
        n = bits(5)
        while n >= 21:
            n = bits(5)
        d = bits(4)
        while d >= 10:
            d = bits(4)
        return n - 10, d + 1

    def fraction(self) -> Fraction:
        return Fraction(*self.ratio())


def cleared(ratios: Sequence[tuple[int, int]]) -> list[int]:
    """The ratios n/d times the lcm of their denominators: integers in the
    same proportions as the rationals drawn, with no Fraction built."""
    m = lcm(*(d for _, d in ratios))
    return [n * (m // d) for n, d in ratios]
