"""Deterministic small-rational sampling for reproducible spot checks.

All pseudo-random data in the package flows through this module, seeded
explicitly, so that reports and tests are bit-for-bit reproducible.
Sampled rationals have numerator and denominator of height at most 10.
"""

from __future__ import annotations

import random
from fractions import Fraction


class SmallRationalSampler:
    """A seeded stream of small exact rationals (heights <= 10)."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def fraction(self) -> Fraction:
        return Fraction(self._rng.randint(-10, 10), self._rng.randint(1, 10))

    def nonzero_fraction(self) -> Fraction:
        while True:
            x = self.fraction()
            if x:
                return x
