"""Deterministic small-rational sampling for reproducible spot checks.

All pseudo-random data in the package flows through this module, seeded
explicitly, so that reports and tests are bit-for-bit reproducible.
Sampled rationals have numerator and denominator of height at most 10.
A draw is also available as its (numerator, denominator) pair, and
`cleared` turns a list of pairs into integers in the same proportions.
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
        positive: callers that clear denominators take it without a Fraction."""
        return self._rng.randint(-10, 10), self._rng.randint(1, 10)

    def fraction(self) -> Fraction:
        return Fraction(*self.ratio())

    def nonzero_fraction(self) -> Fraction:
        while True:
            x = self.fraction()
            if x:
                return x


def cleared(ratios: Sequence[tuple[int, int]]) -> list[int]:
    """The ratios n/d times the lcm of their denominators: integers in the
    same proportions as the rationals drawn, with no Fraction built."""
    m = lcm(*(d for _, d in ratios))
    return [n * (m // d) for n, d in ratios]
