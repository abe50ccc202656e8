"""Exact scalar arithmetic and small dense linear algebra.

Scalars are exact rationals: an entry is stored as an ``int`` when it is
integral and as a ``fractions.Fraction`` only otherwise, so the package's
integer matrices run on Python ints; inexact values are refused.  One
fraction-free Bareiss elimination on integers serves rank, kernels and
linear solving: the rank is its pivot count, and null-space bases and
solutions come from its echelon form by exact back-substitution, equal
entry for entry to those of the reduced row-echelon form.
Floating point is never used anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Sequence


class DimensionMismatch(ValueError):
    """A vector or matrix operand has incompatible dimensions."""


def _exact(x: int | Fraction) -> int | Fraction:
    """`x` as an int when integral, else as a Fraction; TypeError for an
    inexact scalar (float, bool, ...)."""
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact rational: {x!r}")
    return _exact(Fraction(x))


Vector = tuple  # tuple of scalars: int when integral, Fraction otherwise


def clear_denominators(values: Sequence) -> list[int]:
    """`values` times the lcm of their denominators, as ints: a nonzero
    factor that changes no rank and no zero of a homogeneous form."""
    exact = [_exact(x) for x in values]
    d = lcm(*(x.denominator for x in exact if x))
    return [x.numerator * (d // x.denominator) for x in exact]


@dataclass(frozen=True)
class DenseMatrix:
    """An immutable dense matrix with exact rational entries (ints when
    integral, Fractions otherwise)."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise DimensionMismatch("matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(
            len(r) != self.cols for r in self.entries
        ):
            raise DimensionMismatch("entry grid does not match declared shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> DenseMatrix:
        coerced = tuple(tuple(_exact(x) for x in row) for row in rows)
        return cls(len(coerced), len(coerced[0]) if coerced else 0, coerced)

    @classmethod
    def identity(cls, n: int) -> DenseMatrix:
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> int | Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> DenseMatrix:
        return DenseMatrix(
            self.cols,
            self.rows,
            tuple(self.column(j) for j in range(self.cols)),
        )

    def __add__(self, other: DenseMatrix) -> DenseMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return DenseMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(_exact(a + b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: DenseMatrix) -> DenseMatrix:
        return self + (-other)

    def __neg__(self) -> DenseMatrix:
        return self.scale(-1)

    def scale(self, s) -> DenseMatrix:
        s = _exact(s)
        return DenseMatrix(
            self.rows,
            self.cols,
            tuple(tuple(_exact(s * x) for x in row) for row in self.entries),
        )

    @cached_property
    def _nonzeros(self) -> tuple:
        """Per row, the (column, entry) pairs of its nonzero entries."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.entries)

    def __matmul__(self, other: DenseMatrix) -> DenseMatrix:
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        other_rows = other._nonzeros
        out = []
        for row in self._nonzeros:
            acc = [0] * other.cols
            for k, a in row:
                for j, b in other_rows[k]:
                    acc[j] += a * b
            out.append(tuple(map(_exact, acc)))
        return DenseMatrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        vv = [_exact(x) for x in v]
        return tuple(_exact(sum(a * vv[k] for k, a in row)) for row in self._nonzeros)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)


def _bareiss(rows: Sequence[Sequence], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) row-echelon form of `rows`, each first scaled
    to integers: a nonzero row factor changes neither the row space nor the
    solutions of an augmented row.  Returns the nonzero integer echelon rows
    and their pivot columns.  Every row below a pivot is updated, zeros in
    the pivot column included, so every division by the previous pivot is
    exact."""
    rows = [r for r in map(clear_denominators, rows) if any(r)]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], rows[r])]
        prev = piv
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _null_vector(rows: list[list[int]], pivots: list[int], ncols: int, free: int) -> list:
    """The null vector of the echelon `rows` that is 1 at the non-pivot
    column `free` and 0 at every other one, by exact back-substitution.
    It is unique, so it is the reduced row-echelon basis vector."""
    v = [0] * ncols
    v[free] = 1
    for row, pc in zip(reversed(rows), reversed(pivots)):
        acc = sum(row[j] * v[j] for j in range(pc + 1, ncols) if v[j])
        v[pc] = _exact(Fraction(-acc) / row[pc])
    return v


def rank(m: DenseMatrix) -> int:
    """Rank of `m`: the pivot count of its Bareiss echelon form."""
    return len(_bareiss(m.entries, m.cols)[1])


def kernel_basis(m: DenseMatrix) -> tuple[Vector, ...]:
    """An exact basis of the right null space of `m`: for each non-pivot
    column, the null vector that is 1 there and 0 at the other non-pivot
    columns.  Returns ``cols - rank(m)`` vectors v with ``m.mul_vec(v) = 0``.
    """
    rows, pivots = _bareiss(m.entries, m.cols)
    return tuple(
        tuple(_null_vector(rows, pivots, m.cols, c))
        for c in range(m.cols)
        if c not in pivots
    )


def solve_linear(m: DenseMatrix, b: Sequence) -> Vector | None:
    """One exact solution of ``m x = b``, with every free variable 0, or
    None if the system is inconsistent."""
    if len(b) != m.rows:
        raise DimensionMismatch(
            f"right-hand side has length {len(b)}, expected {m.rows}"
        )
    augmented = [list(row) + [x] for row, x in zip(m.entries, b)]
    rows, pivots = _bareiss(augmented, m.cols + 1)
    if m.cols in pivots:
        return None
    # (x, -1) is a null vector of [m | b], so x is minus the one that is 1 at b.
    return tuple(-x for x in _null_vector(rows, pivots, m.cols + 1, m.cols)[:-1])


def bilinear(m: DenseMatrix, x: Sequence, y: Sequence) -> int | Fraction:
    """The bilinear form x^T m y, evaluated exactly."""
    if len(x) != m.rows:
        raise DimensionMismatch(f"left vector has length {len(x)}, expected {m.rows}")
    img = m.mul_vec(y)
    return sum((a * v for a, v in zip(map(_exact, x), img) if a), 0)
