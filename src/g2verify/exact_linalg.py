"""Small dense integer linear algebra.

A `DenseMatrix` holds Python ints only, and its `scale` by a Fraction is
an exact quotient.  One fraction-free Bareiss elimination on integers
serves `rank` and `kernel_basis`: the rank is its pivot count, and null
vectors come from its echelon form by integer back-substitution.  A
kernel basis is the reduced row-echelon basis times the least positive
factor that makes it integral, so it is ints only.  A linear solve is a
null vector of the augmented matrix, read by its caller.  Floating point
is never used anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    """A vector or matrix operand has incompatible dimensions."""


def _check_ints(values: Iterable) -> None:
    """TypeError unless each of `values` is an int: not a bool, a float or a
    Fraction, not even an integral one."""
    if not {int}.issuperset(map(type, values)):
        raise TypeError("expected ints only, not a bool, a float or a Fraction")


@dataclass(frozen=True)
class DenseMatrix:
    """An immutable dense integer matrix: every entry is an int, whichever
    way the matrix is built."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples of ints

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise DimensionMismatch("matrix dimensions must be positive")
        if type(self.entries) is not tuple or any(type(r) is not tuple for r in self.entries):
            raise TypeError("a DenseMatrix holds a tuple of row tuples")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise DimensionMismatch("entry grid does not match declared shape")
        _check_ints(chain.from_iterable(self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> DenseMatrix:
        entries = tuple(map(tuple, rows))
        return cls(len(entries), len(entries[0]) if entries else 0, entries)

    @classmethod
    def identity(cls, n: int) -> DenseMatrix:
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> DenseMatrix:
        return DenseMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def __add__(self, other: DenseMatrix) -> DenseMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        rows = (tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries))
        return DenseMatrix(self.rows, self.cols, tuple(rows))

    def __sub__(self, other: DenseMatrix) -> DenseMatrix:
        return self + (-other)

    def __neg__(self) -> DenseMatrix:
        return self.scale(-1)

    def scale(self, s: int | Fraction) -> DenseMatrix:
        """`s` times the matrix, for an int or a Fraction `s`: an exact
        quotient, so ArithmeticError if some product is not an integer."""
        if type(s) not in (int, Fraction):
            raise TypeError(f"not an exact rational: {s!r}")
        n, d = s.numerator, s.denominator
        entries = tuple(tuple(n * x for x in row) for row in self.entries)
        if d != 1:
            if any(x % d for row in entries for x in row):
                raise ArithmeticError(f"{s} times the matrix is not an integer matrix")
            entries = tuple(tuple(x // d for x in row) for row in entries)
        return DenseMatrix(self.rows, self.cols, entries)

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
            out.append(tuple(acc))
        return DenseMatrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        _check_ints(v)
        return tuple(sum(a * v[k] for k, a in row) for row in self._nonzeros)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)


def _bareiss(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) row-echelon form of the integer `rows`, the
    entries of a `DenseMatrix`.  Returns the nonzero integer echelon rows
    and their pivot columns.  Every row below a pivot is updated, zeros in
    the pivot column included, so every division by the previous pivot is
    exact.  Only the entries right of the pivot column are computed: those
    left of it are already 0 in these rows, and the pivot column's become 0."""
    rows = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv, top = rows[r][c], rows[r][c + 1 :]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            row[c] = 0
            row[c + 1 :] = [(piv * x - f * y) // prev for x, y in zip(row[c + 1 :], top)]
        prev = piv
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _null_vector(rows: list[list[int]], pivots: list[int], ncols: int, free: int, d: int) -> list:
    """d times the null vector of the echelon `rows` that is 1 at the
    non-pivot column `free` and 0 at every other one, for d their last
    pivot.  The vector is unique, so it is the reduced row-echelon basis
    vector, and d is the determinant of the rows' minor on the pivot
    columns, so by Cramer's rule d times the vector is integral: it is
    back-substituted in integers, each division exact."""
    v = [0] * ncols
    v[free] = d
    for row, pc in zip(reversed(rows), reversed(pivots)):
        acc = sum(row[j] * v[j] for j in range(pc + 1, ncols) if v[j])
        v[pc], remainder = divmod(-acc, row[pc])
        if remainder:
            raise ArithmeticError("Bareiss back-substitution left a remainder")
    return v


def rank(m: DenseMatrix) -> int:
    """Rank of `m`: the pivot count of its Bareiss echelon form."""
    return len(_bareiss(m.entries, m.cols)[1])


def kernel_basis(m: DenseMatrix) -> tuple[tuple[int, ...], ...]:
    """An integer basis of the right null space of `m`: for each non-pivot
    column, the null vector that is 1 there and 0 at the other non-pivot
    columns (the reduced row-echelon basis), all times the least positive
    L that makes every one integral.  Each vector reads L at its own
    non-pivot column.  Returns ``cols - rank(m)`` vectors v with
    ``m v = 0``; L is 1 when the reduced basis is integral.
    """
    echelon, pivots = _bareiss(m.entries, m.cols)
    d = echelon[-1][pivots[-1]] if echelon else 1  # the last pivot
    free = (c for c in range(m.cols) if c not in pivots)
    vectors = [_null_vector(echelon, pivots, m.cols, c, d) for c in free]
    # The vectors are d times the reduced basis, so L = |d| / g.
    g = gcd(d, *chain.from_iterable(vectors))
    g = g if d > 0 else -g
    return tuple(tuple(x // g for x in v) for v in vectors)

